"""Robust summary statistics for return distributions.

Dispersion is reported with outlier-resistant estimators (median absolute
deviation, interquartile range) rather than the standard deviation, and
aggregate scores use the interquartile mean with stratified bootstrap
confidence intervals.

`PERFORMANCE` and `DISPERSION` are the one definition of each estimator by
name; `performance()`, `dispersion()`, the named helpers below and the
bootstrap all look them up there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from .core import RngStream


def _clean_1d(name: str, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _trimmed_mean(arr: np.ndarray) -> float:
    # Drops the lowest and highest floor(n/4) values, so below 4 values it
    # trims nothing and is the mean.
    n = arr.shape[0]
    trim = n // 4
    return float(np.mean(np.sort(arr)[trim : n - trim]))


@dataclass(frozen=True)
class Quartiles:
    q1: float
    q2: float
    q3: float


def _quartiles(arr: np.ndarray) -> Quartiles:
    q1, q2, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
    return Quartiles(float(q1), float(q2), float(q3))


def _iqr(arr: np.ndarray) -> float:
    q = _quartiles(arr)
    return q.q3 - q.q1


# name -> estimator of a finite, non-empty 1-D float array.
Estimator = Callable[[np.ndarray], float]
PERFORMANCE: Dict[str, Estimator] = {
    "mean": lambda arr: float(np.mean(arr)),
    "median": lambda arr: float(np.median(arr)),
    "iqm": _trimmed_mean,
}
DISPERSION: Dict[str, Estimator] = {
    "mad": lambda arr: float(np.median(np.abs(arr - np.median(arr)))),
    "iqr": _iqr,
    "std": lambda arr: float(np.std(arr, ddof=1)),
}
# Smallest sample each public estimator accepts (default 1). The bootstrap
# is exempt, so its IQM of fewer than 4 values is the mean.
_MIN_VALUES = {"iqm": 4, "std": 2}


def _lookup(table: Dict[str, Estimator], what: str, kind: str) -> Estimator:
    if kind not in table:
        raise ValueError(f"unknown {what} {kind!r}, valid: {', '.join(table)}")
    return table[kind]


def _estimate(table: Dict[str, Estimator], what: str, kind: str, x) -> float:
    fn = _lookup(table, what, kind)
    arr = _clean_1d("x", x)
    need = _MIN_VALUES.get(kind, 1)
    if arr.shape[0] < need:
        raise ValueError(f"{kind} needs at least {need} values, got {arr.shape[0]}")
    return fn(arr)


def performance(x, kind: str = "mean") -> float:
    """Performance estimate of a sample: 'mean', 'median' or 'iqm'."""
    return _estimate(PERFORMANCE, "perf estimator", kind, x)


def dispersion(x, kind: str = "mad") -> float:
    """Dispersion estimate of a sample: 'mad', 'iqr' or 'std' (ddof=1)."""
    return _estimate(DISPERSION, "disp estimator", kind, x)


def median(x) -> float:
    """Sample median (midpoint of the two central order statistics)."""
    return performance(x, "median")


def mad(x) -> float:
    """Median absolute deviation: median(|x - median(x)|), unscaled."""
    return dispersion(x, "mad")


def quartiles(x) -> Quartiles:
    """First, second and third quartile with linear interpolation at
    position (n - 1) * p."""
    return _quartiles(_clean_1d("x", x))


def iqr(x) -> float:
    """Interquartile range q3 - q1. Zero when all values coincide."""
    return dispersion(x, "iqr")


def iqm(x) -> float:
    """Interquartile mean: drop the lowest and highest floor(n/4) values,
    average the rest. Needs at least 4 values."""
    return performance(x, "iqm")


@dataclass(frozen=True)
class BootstrapCI:
    point: float
    lo: float
    hi: float
    confidence: float
    n_resamples: int


def stratified_bootstrap(
    values_by_stratum: Sequence,
    aggregate: str = "iqm",
    n_resamples: int = 2000,
    confidence: float = 0.95,
    stream: Union[RngStream, np.random.Generator, None] = None,
) -> BootstrapCI:
    """Percentile bootstrap CI of an aggregate over stratified samples.

    Each stratum is resampled with replacement at its own size; the
    aggregate is computed over the concatenation of the resampled strata.
    The point estimate is the aggregate of the original pooled values.
    Passing the same stream reproduces the interval exactly.
    """
    agg = _lookup(PERFORMANCE, "aggregate", aggregate)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    strata: List[np.ndarray] = [
        _clean_1d(f"stratum {i}", s) for i, s in enumerate(values_by_stratum)
    ]
    if not strata:
        raise ValueError("need at least one stratum")

    if stream is None:
        gen = derive_default_bootstrap_stream().generator()
    elif isinstance(stream, RngStream):
        gen = stream.generator()
    else:
        gen = stream

    point = agg(np.concatenate(strata))

    sizes = [s.shape[0] for s in strata]
    stats = np.empty(n_resamples)
    for b in range(n_resamples):
        parts = [s[gen.integers(0, n, size=n)] for s, n in zip(strata, sizes)]
        stats[b] = agg(np.concatenate(parts))

    alpha = 1.0 - confidence
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(
        point=point,
        lo=float(lo),
        hi=float(hi),
        confidence=confidence,
        n_resamples=n_resamples,
    )


def derive_default_bootstrap_stream() -> RngStream:
    """Fixed stream used when no stream is supplied, keeping reports
    byte-stable across reruns."""
    from .core import derive_stream

    return derive_stream(0, "bootstrap-default", 0)
