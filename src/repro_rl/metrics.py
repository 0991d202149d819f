"""Reproducibility metrics over evaluation records.

Performance and dispersion estimators combine into a lower-confidence-bound
style score, LCB = performance - alpha * dispersion, where alpha expresses
how much irreproducibility the consumer is willing to trade for expected
return. alpha = 0 recovers plain expected performance.

Behavioural reproducibility looks at the spread of pairwise distances
between rollout descriptors instead of returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .core import EvalRecord
from .stats import DISPERSION, PERFORMANCE, _lookup, dispersion, iqr, mad, performance

PERF_ESTIMATORS = tuple(PERFORMANCE)
DISP_ESTIMATORS = tuple(DISPERSION)


@dataclass(frozen=True)
class LcbConfig:
    """Which estimators feed the LCB score."""

    perf: str = "mean"
    disp: str = "mad"

    def __post_init__(self):
        _lookup(PERFORMANCE, "perf estimator", self.perf)
        _lookup(DISPERSION, "disp estimator", self.disp)


def _lcb_values(perf: float, disp: float, alphas: Sequence[float]) -> np.ndarray:
    """perf - alpha * disp per alpha; alpha = 0 gives perf whatever disp is."""
    values = []
    for a in map(float, alphas):
        if not np.isfinite(a) or a < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {a}")
        values.append(perf if a == 0.0 else perf - a * disp)
    return np.array(values)


def lcb(record: EvalRecord, alpha: float, cfg: LcbConfig = LcbConfig()) -> float:
    """performance - alpha * dispersion of the record's returns."""
    return float(lcb_sweep(record, [alpha], cfg)[0])


def lcb_sweep(
    record: EvalRecord, alphas: Sequence[float], cfg: LcbConfig = LcbConfig()
) -> np.ndarray:
    """LCB at each alpha, aligned with the input grid. Performance and
    dispersion are computed once; dispersion only when some alpha > 0."""
    alphas = list(alphas)
    perf = performance(record.returns, cfg.perf)
    disp = dispersion(record.returns, cfg.disp) if any(alphas) else 0.0
    return _lcb_values(perf, disp, alphas)


@dataclass
class ReproSummary:
    """Point summary of one evaluation record."""

    policy_id: str
    n_evals: int
    perf: float
    disp: float
    lcb_by_alpha: Dict[float, float] = field(default_factory=dict)
    perf_estimator: str = "mean"
    disp_estimator: str = "mad"


def summarize(
    record: EvalRecord,
    alphas: Sequence[float] = (0.0,),
    cfg: LcbConfig = LcbConfig(),
) -> ReproSummary:
    perf = performance(record.returns, cfg.perf)
    disp = dispersion(record.returns, cfg.disp)
    values = _lcb_values(perf, disp, alphas)
    return ReproSummary(
        policy_id=record.policy_id,
        n_evals=record.n_evals,
        perf=perf,
        disp=disp,
        lcb_by_alpha={float(a): float(v) for a, v in zip(alphas, values)},
        perf_estimator=cfg.perf,
        disp_estimator=cfg.disp,
    )


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Condensed Euclidean distances over all unordered pairs (i < j).

    Returns n * (n - 1) / 2 values in row-major pair order. Needs n >= 2.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        diff = pts[i + 1 :] - pts[i]
        m = diff.shape[0]
        out[pos : pos + m] = np.sqrt(np.sum(diff * diff, axis=1))
        pos += m
    return out


def behavioural_mad(descriptors: np.ndarray) -> float:
    """MAD of the pairwise descriptor distances. Zero when all rollouts
    behave identically."""
    return mad(pairwise_distances(descriptors))


def behavioural_iqr(descriptors: np.ndarray) -> float:
    """IQR of the pairwise descriptor distances."""
    return iqr(pairwise_distances(descriptors))


def state_marginal_repro(record: EvalRecord) -> float:
    """Behavioural MAD over the flattened visited-state sequences."""
    if record.state_marginals is None:
        raise ValueError(
            f"record {record.policy_id!r} has no state marginals; evaluate "
            "with record_state_marginal enabled"
        )
    return behavioural_mad(record.state_marginals)


@dataclass(frozen=True)
class ParetoPoint:
    """One policy in the performance / reproducibility plane. Both axes are
    oriented so that larger is better (reproducibility is typically the
    negated dispersion)."""

    policy_id: str
    perf: float
    repro: float


def dominates(p: ParetoPoint, q: ParetoPoint) -> bool:
    """True when p is at least as good on both axes and better on one."""
    return (
        p.perf >= q.perf
        and p.repro >= q.repro
        and (p.perf > q.perf or p.repro > q.repro)
    )


def pareto_front(points: Sequence[ParetoPoint]) -> List[bool]:
    """Front membership flag per point, input order preserved.

    Duplicate points do not dominate each other, so tied optima are all
    flagged as on the front.
    """
    flags = []
    for i, p in enumerate(points):
        on = True
        for j, q in enumerate(points):
            if i != j and dominates(q, p):
                on = False
                break
        flags.append(on)
    return flags
