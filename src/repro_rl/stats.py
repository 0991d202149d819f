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
from typing import Callable, Dict, List, Sequence

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


def _trimmed_mean(arr: np.ndarray) -> np.ndarray:
    # Drops the lowest and highest floor(n/4) values, so below 4 values it
    # trims nothing and is the mean.
    n = arr.shape[-1]
    trim = n // 4
    return np.mean(np.sort(arr, axis=-1)[..., trim : n - trim], axis=-1)


def middle_values(a: np.ndarray) -> np.ndarray:
    """The middle order statistic of each sample along the last axis, or the
    two of an even count, as a last axis of 1 or 2 values: from one partition
    at the lower middle rank and a min over the part above it."""
    n = a.shape[-1]
    k = (n - 1) // 2
    part = np.partition(a, k, axis=-1)
    mid = part[..., k : k + 2 - n % 2].copy()  # a copy, so the partition is freed
    if n % 2 == 0:
        mid[..., 1] = part[..., k + 1 :].min(axis=-1)
    return mid


def _median(a: np.ndarray) -> np.ndarray:
    # np.median, bit for bit: the mean of the middle values, as np.median takes it.
    return np.mean(middle_values(a), axis=-1)


@dataclass(frozen=True)
class Quartiles:
    q1: float
    q2: float
    q3: float


# name -> estimator of finite float samples along the last axis: a sample
# (n,) gives a numpy scalar, a block of samples (rows, n) one value per row,
# each row with the bits it has alone.
Estimator = Callable[[np.ndarray], np.ndarray]
PERFORMANCE: Dict[str, Estimator] = {
    "mean": lambda a: np.mean(a, axis=-1),
    "median": _median,
    "iqm": _trimmed_mean,
}
DISPERSION: Dict[str, Estimator] = {
    "mad": lambda a: _median(np.abs(a - _median(a)[..., None])),
    "iqr": lambda a: np.subtract(*np.quantile(a, [0.75, 0.25], axis=-1)),
    "std": lambda a: np.std(a, axis=-1, ddof=1),
}
# Resampled values a bootstrap block holds at most (a block has at least one
# resample), so its temporaries do not grow with n_resamples.
_BLOCK_VALUES = 2**14
# Smallest sample each public estimator accepts (default 1). The bootstrap
# is exempt, so its IQM of fewer than 4 values is the mean.
_MIN_VALUES = {"iqm": 4, "std": 2}


def _lookup(table: Dict[str, Estimator], what: str, kind: str) -> Estimator:
    if kind not in table:
        raise ValueError(f"unknown {what} {kind!r}, valid: {', '.join(table)}")
    return table[kind]


def require_values(kind: str, n: int) -> None:
    """Raise ValueError when estimator `kind` needs more than n values."""
    need = _MIN_VALUES.get(kind, 1)
    if n < need:
        raise ValueError(f"{kind} needs at least {need} values, got {n}")


def require_resamples(n_resamples: int) -> None:
    """Raise ValueError when a bootstrap of n_resamples has no resample."""
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")


def _estimate(table: Dict[str, Estimator], what: str, kind: str, x) -> float:
    fn = _lookup(table, what, kind)
    arr = _clean_1d("x", x)
    require_values(kind, arr.shape[0])
    return float(fn(arr))


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
    q1, q2, q3 = np.quantile(_clean_1d("x", x), [0.25, 0.5, 0.75])
    return Quartiles(float(q1), float(q2), float(q3))


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
    stream: RngStream = RngStream(0, "bootstrap-default", 0),
) -> BootstrapCI:
    """Percentile bootstrap CI of an aggregate over stratified samples.

    Each stratum is resampled with replacement at its own size; the
    aggregate is computed over the concatenation of the resampled strata.
    The point estimate is the aggregate of the original pooled values.
    The same stream reproduces the interval exactly; the default stream
    keeps reports byte-stable across reruns.
    """
    agg = _lookup(PERFORMANCE, "aggregate", aggregate)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    require_resamples(n_resamples)
    strata: List[np.ndarray] = [
        _clean_1d(f"stratum {i}", s) for i, s in enumerate(values_by_stratum)
    ]
    if not strata:
        raise ValueError("need at least one stratum")

    pooled = np.concatenate(strata)
    # Column j of a resample draws below its stratum's size and is offset by
    # the stratum's start in `pooled`: drawn row by row, these are the same
    # draws, in the same order, as one integers(0, size, size) call per stratum.
    # Equal sizes draw below one scalar bound, the same bits at less cost.
    sizes = [s.shape[0] for s in strata]
    highs = sizes[0] if len(set(sizes)) == 1 else np.repeat(sizes, sizes)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows = max(1, _BLOCK_VALUES // pooled.shape[0])
    gen = stream.generator()
    stats = np.empty(n_resamples)
    for b in range(0, n_resamples, rows):
        idx = gen.integers(0, highs, (min(rows, n_resamples - b), pooled.shape[0]))
        stats[b : b + rows] = agg(pooled[idx + starts])

    alpha = 1.0 - confidence
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(
        point=float(agg(pooled)),
        lo=float(lo),
        hi=float(hi),
        confidence=confidence,
        n_resamples=n_resamples,
    )
