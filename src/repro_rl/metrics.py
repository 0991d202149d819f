"""Reproducibility metrics over evaluation records.

Performance and dispersion estimators combine into a lower-confidence-bound
style score, LCB = performance - alpha * dispersion, where alpha expresses
how much irreproducibility the consumer is willing to trade for expected
return. alpha = 0 recovers plain expected performance.

Behavioural reproducibility looks at the spread of pairwise distances
between rollout descriptors instead of returns.

`report_rows` scores records over training runs; `pareto_rows` places them
on the performance / reproducibility front.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .core import EvalRecord, RngStream, derive_stream
from .noise import NoiseConfig
from .stats import (
    DISPERSION, PERFORMANCE, _clean_1d, _lookup, dispersion, iqr, mad, middle_values,
    performance, require_resamples, require_values, stratified_bootstrap,
)

PERF_ESTIMATORS = tuple(PERFORMANCE)
DISP_ESTIMATORS = tuple(DISPERSION)
# Differences a pairwise-distance block, or Gram entries a Gram block, holds at
# most (at least one row): the temporaries fit in L2 cache.
_BLOCK_VALUES = 2**16
# The certified filter brackets the middle ranks of its distances with a strided
# sample of about _SAMPLE of them (all when fewer), _MARGIN sample ranks past its
# middle ones: four standard deviations of a middle rank in a random sample.
_SAMPLE, _MARGIN = 2**14, 2**8


@dataclass(frozen=True)
class LcbConfig:
    """Which estimators feed the LCB score."""

    perf: str = "mean"
    disp: str = "mad"

    def __post_init__(self):
        _lookup(PERFORMANCE, "perf estimator", self.perf)
        _lookup(DISPERSION, "disp estimator", self.disp)


def lcb(record: EvalRecord, alpha: float, cfg: LcbConfig = LcbConfig()) -> float:
    """performance - alpha * dispersion of the record's returns."""
    return float(lcb_sweep(record, [alpha], cfg)[0])


def lcb_sweep(
    record: EvalRecord, alphas: Sequence[float], cfg: LcbConfig = LcbConfig()
) -> np.ndarray:
    """LCB at each alpha, aligned with the input grid, of the record's returns,
    a non-empty 1-D array of finite values (`_lcb`)."""
    return _lcb(_clean_1d("x", record.returns), list(alphas), cfg)


def _lcb_estimators(alphas: list, cfg: LcbConfig, n: int) -> tuple:
    """The estimators an LCB at `alphas` computes: perf, and disp when some
    alpha > 0; a ValueError when n values are fewer than one of them needs."""
    kinds = (cfg.perf, cfg.disp)[: 1 + any(alphas)]
    for kind in kinds:
        require_values(kind, n)
    return kinds


def _lcb(samples: np.ndarray, alphas: list, cfg: LcbConfig) -> np.ndarray:
    """LCB per alpha of each finite sample on the last axis of (n,) or (rows, n)
    `samples`, from each of its `_lcb_estimators` once."""
    kinds = _lcb_estimators(alphas, cfg, samples.shape[-1])
    disp = DISPERSION[kinds[1]](samples) if len(kinds) > 1 else 0.0
    return lcb_values(PERFORMANCE[kinds[0]](samples), disp, alphas)


def lcb_values(perf, disp, alphas: Sequence[float]) -> np.ndarray:
    """LCB per alpha (first axis) of perf and disp estimates, scalars or arrays:
    perf where alpha = 0, whatever disp is, else perf - alpha * disp."""
    values = []
    for a in map(float, alphas):
        if not np.isfinite(a) or a < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {a}")
        values.append(perf if a == 0.0 else perf - a * disp)
    return np.array(values)


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
    values = lcb_values(perf, disp, alphas)
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
    """Condensed Euclidean distances over all unordered pairs (i < j) of each
    (n, d) slice of a (..., n, d) stack: (..., n * (n - 1) / 2) values in
    row-major pair order, each slice with the bits it has alone. Needs n >= 2.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2:
        raise ValueError(f"points must be at least 2-D, got shape {pts.shape}")
    *stack, n, d = pts.shape
    require_points(n)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    out = np.empty((*stack, n * (n - 1) // 2))
    # Points and pairs on the first axis (a no-op for one set of points).
    # Blocks of later points, rows x stack x d values, reuse one buffer; each
    # row is still summed alone, so the bits do not depend on the block size.
    pts, pairs = pts.swapaxes(0, -2), out.swapaxes(0, -1)
    rows = max(1, _BLOCK_VALUES // max(1, math.prod(stack) * d))
    buf = np.empty((min(rows, n - 1), *pts.shape[1:]))
    pos = 0
    for i in range(n - 1):
        for j in range(i + 1, n, rows):
            diff = np.subtract(pts[j : j + rows], pts[i], out=buf[: min(rows, n - j)])
            np.multiply(diff, diff, out=diff)
            dist = np.add.reduce(diff, axis=-1, out=pairs[pos : pos + len(diff)])
            np.sqrt(dist, out=dist)
            pos += len(diff)
    return out


def require_points(n: int) -> None:
    """Raise ValueError when n points have no pair."""
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")


def pairwise_mad(points: np.ndarray) -> float:
    """mad(pairwise_distances(points)) of one (n, d) point set, bit for bit, with
    exact distances only for pairs whose Gram-matrix distance is near the median
    or the MAD; other inputs, windows of over a quarter of the pairs, or windows
    whose exact distances contradict the error bound, use all."""
    x = np.asarray(points, dtype=np.float64)
    w, scale, bound = _gram_distances(x)
    if w is not None:
        eps = 2 * bound * scale  # in w's units, where the bound holds twice over
        med = _near_median(w, eps, lambda idx: _and_scaled(_exact_distances(x, idx), scale))
        if med is not None:
            np.abs(np.subtract(w, np.float32(med * scale), out=w), out=w)
            dev = _near_median(w, eps, lambda idx: _and_scaled(
                np.abs(_exact_distances(x, idx) - med), scale))
            if dev is not None:
                return float(dev)
        del w
    return mad(pairwise_distances(x))  # with its errors


def _tiles(n: int, d: int):
    """(q, m) of n points of width d: rows of the centred points a tile holds,
    at most _BLOCK_VALUES values (all n when they fit), and rows of a group, with
    q a multiple of m and an m x q Gram block of at most _BLOCK_VALUES values."""
    q = max(1, min(n, _BLOCK_VALUES // max(1, d)))
    m = max(1, min(q, _BLOCK_VALUES // q))
    return q // m * m, m


def _pairs(n: int, d: int, idx: np.ndarray):
    """Points i < j of the pairs at positions idx of the w of n points of width d.
    w holds the pairs of each group of m rows in turn: those within the group,
    row by row, then those with the later points, row by row."""
    m = _tiles(n, d)[1]
    g = np.arange(0, n, m)[:, None]
    i = g + np.arange(m)  # each group's rows; the last group's may pass n
    e = np.minimum(g + m, n)
    # Runs of pairs (i, first), (i, first + 1), ...: each group's runs within
    # it, then its runs with the points from e on; runs past n are empty.
    rows, firsts, lens = (np.stack(np.broadcast_arrays(*pair), axis=1).ravel() for pair in (
        (i, i), (i + 1, e), (np.maximum(e - 1 - i, 0), np.where(i < n, n - e, 0))))
    starts = np.cumsum(lens) - lens
    run = np.searchsorted(starts, idx, side="right") - 1  # the last run starting at or before
    return rows[run], firsts[run] + idx - starts[run]


@np.errstate(over="ignore", invalid="ignore")  # overflow leaves r not finite
def _gram_distances(x: np.ndarray):
    """(w, scale, bound): the distances a of all pairs of finite (n >= 2, d) points
    x, in the order `_pairs` maps, from the Gram matrix of the centred points c,
    and stored as float32 w = a * scale, scale a power of two. bound >= every
    |w / scale - dist|, dist the pair's pairwise_distances(x), and every
    |m / scale - |dist - med||, m the float32 |w - float32(med * scale)| of the
    MAD stage, med one of dist. Else Nones. c is held one tile of q rows at a
    time (`_tiles`), recentred when a group needs it again; each group of m rows
    takes one Gram block per tile, finished in float64."""
    if x.ndim != 2 or len(x) < 2 or not np.all(np.isfinite(x)):
        return None, None, None
    n, d = x.shape
    q, m = _tiles(n, d)
    mean = x.mean(axis=0)
    tiles = range(0, n, q)
    bufs, held = np.empty((2, min(q, n), d)), [None, None]  # two tiles of c, and their first rows

    def centred(j, slot):  # c's tile from row j, in bufs[slot]
        if held[slot] != j:
            held[slot] = j
            np.subtract(x[j : j + q], mean, out=bufs[slot, : min(q, n - j)])
        return bufs[slot, : min(q, n - j)]

    sq = np.empty(n)
    for j in reversed(tiles):  # ending on the first group's tile
        c = centred(j, 0)
        sq[j : j + q] = np.einsum("ij,ij->i", c, c)
    # With u = 2**-53, g = γ_{d+4} = (d+4)u/(1 - (d+4)u), η = 2**-1074 and r >=
    # all |x_i - mean| and |c_i| (from the top norm², its γ_d error, dη/2 of
    # underflow and 1 - u for centring), b = 2r(√g + 2g) + 3√((d+4)η) >= |a - dist|
    # sums: centring's rounding, 2ur (underflowing subtraction is exact); √ of
    # a²'s error (|√p - √q| <= √|p - q|), 2r√g + √(2(d+1)η), as norms² and Gram
    # entries in any summation order, FMA or not, err by γ_d|c_i|², γ_d|c_i||c_j|
    # and dη/2 for underflowing products, the assembly rounds twice and the clamp
    # at 0 only shrinks it; √'s rounding, u(2r + 2r√g + √(2(d+1)η)); dist's own
    # error, γ_{d+3}·2r + √((d+1)η/2)(1 + u).
    # scale = 2**-e with r < 2**e <= 2r, and a <= 2r + b <= 5r + 2r(√g + 2g)
    # (√((d+4)η) <= r), so w < 16 fits float32 for any accepted r; a * scale is
    # exact unless it falls in float64's subnormals. With v = 2**-24 and every
    # a, med, w / scale and m32 / scale <= 2r + b + t, one float32 rounding of a
    # value up to 2r + b errs by t = v(2r + b) + 2**-149 / scale (float32's
    # subnormal spacing, with a * scale's own underflow) in x's units. bound =
    # b + 4t sums b; t for storing a; t for m32 = float32(med * scale);
    # v(2r + b + t) <= t + vt for the float32 |w - m32|; u(2r + b) < t/2**29
    # for dist's |dist - med|.
    g = (d + 4) * 2.0**-53 / (1 - (d + 4) * 2.0**-53)
    r = math.sqrt(sq.max() + (d + 4) * 2.0**-1074) * (1 + g)
    if not r < 2.0**510 or not sq.any():  # squares could pass 2**1022; all norms² 0
        return None, None, None
    scale = 2.0 ** -math.frexp(r)[1]
    w, pos, slot = np.empty(n * (n - 1) // 2, dtype=np.float32), 0, 0
    buf, upper = np.empty(m * min(q, n)), np.arange(m) > np.arange(m)[:, None]  # row k's pairs j > k
    for i in range(0, n - 1, m):
        e, home = min(i + m, n), i // q * q
        if held[slot] != home:  # the last group took it as its last tile, in the other slot
            slot = 1 - slot
        rows = centred(home, slot)[i - home : e - home]
        own = (e - i) * (e - i - 1) // 2
        later = w[pos + own : pos + own + (e - i) * (n - e)].reshape(e - i, n - e)
        # The group's own tile first and the next tile last, so the next group
        # finds its tile held when the groups are whole tiles.
        for j in [home, *reversed(tiles[home // q + 1 :])]:
            c = centred(j, slot if j == home else 1 - slot)[max(i, j) - j :]
            block = np.matmul(rows, c.T, out=buf[: (e - i) * len(c)].reshape(e - i, len(c)))
            block *= -2.0
            block += sq[max(i, j) : max(i, j) + len(c)]
            block += sq[i:e, None]
            np.sqrt(np.maximum(block, 0.0, out=block), out=block)
            if j == home:  # its first e - i columns are the group's own pairs
                own_pairs = block[:, : e - i][upper[: e - i, : e - i]]
                np.multiply(own_pairs, scale, out=w[pos : pos + own], casting="same_kind")
                block = block[:, e - i :]
            first = max(j, e) - e
            np.multiply(block, scale, out=later[:, first : first + block.shape[1]], casting="same_kind")
        pos += own + later.size
    b = 2 * r * (math.sqrt(g) + 2 * g) + 3 * math.sqrt((d + 4) * 2.0**-1074)
    t = 2.0**-24 * (2 * r + b) + 2.0**-149 / scale
    return w, scale, b + 4 * t


def _and_scaled(values: np.ndarray, scale: float):
    """(values, values * scale): exact values in x's units and in w's."""
    return values, values * scale


def _exact_distances(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The pairwise_distances(x) of w's pairs idx, bit for bit: its operations
    on C-contiguous rows."""
    i, j = _pairs(*x.shape, idx)
    out, step = np.empty(len(idx)), max(1, _BLOCK_VALUES // max(1, x.shape[1]))
    for s in range(0, len(idx), step):
        diff = x[j[s : s + step]] - x[i[s : s + step]]
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.add.reduce(diff, axis=-1, out=out[s : s + step]), out=out[s : s + step])
    return out


def _float32_below(value: float) -> np.float32:
    """The largest float32 <= value, compared in float64 (numpy 1.x and 2 alike)."""
    f = np.float32(value)
    return np.nextafter(f, np.float32(-np.inf)) if float(f) > value else f


def _edges(a: float, b: float, eps: float):
    """float32 (lo, hi) holding [a - 2 eps, b + 2 eps]: its edges rounded outward
    in float64, then to float32."""
    lo = _float32_below(np.nextafter(float(a) - 2 * eps, -np.inf))
    hi = -_float32_below(-np.nextafter(float(b) + 2 * eps, np.inf))
    return lo, hi


def _within(w: np.ndarray, lo, hi, cap: int):
    """(idx, below): the positions of w's values in [lo, hi], ascending, and how
    many are below lo, from passes over chunks of _BLOCK_VALUES values; None once
    over `cap` values are in [lo, hi]."""
    idx, count, below = [], 0, 0
    for s in range(0, len(w), _BLOCK_VALUES):
        chunk = w[s : s + _BLOCK_VALUES]
        under = chunk < lo
        below += np.count_nonzero(under)
        idx.append(np.flatnonzero(np.logical_xor(chunk <= hi, under, out=under)) + s)
        count += len(idx[-1])
        if count > cap:
            return None
    return np.concatenate(idx), below


def _window(w: np.ndarray, eps: float):
    """(idx, below, lo, hi): w's window, the values within 2 eps of its middle
    ones (`_edges`), and the count below it; None when over a quarter of w is
    in it. The window is taken from a bracket when it lies in one: _edges of a
    strided sample's order statistics _MARGIN ranks past its middle ones, which
    then holds w's middle ranks too. Else from one partition of all of w."""
    k0, k1, cap = (len(w) - 1) // 2, len(w) // 2, len(w) // 4
    step = max(1, len(w) // _SAMPLE)
    ranks = [max(0, k0 // step - _MARGIN), min((len(w) - 1) // step, k1 // step + _MARGIN)]
    bracket = _edges(*np.sort(w[::step])[ranks], eps)
    found = _within(w, *bracket, cap)
    if found is not None:
        idx, below = found
        near, k = w[idx], k0 - below
        if 0 <= k and k1 - below < len(near):
            part = np.partition(near, k)  # ranks k0 and k1 of w are k and k + k1 - k0 here
            lo, hi = _edges(part[k], part[k + 1 :].min() if k1 > k0 else part[k], eps)
            if bracket[0] <= lo and hi <= bracket[1]:
                inside = (near >= lo) & (near <= hi)
                return idx[inside], below + np.count_nonzero(near < lo), lo, hi
    mid = middle_values(w)
    lo, hi = _edges(mid[0], mid[-1], eps)
    found = _within(w, lo, hi, cap)
    return None if found is None else (*found, lo, hi)


def _near_median(w: np.ndarray, eps: float, exact):
    """np.median of v, given float32 w with |w - s·v| <= eps for some s > 0 and
    exact(idx) = (v[idx], s·v[idx]); None when over a quarter of v is needed, or
    when an exact value in the window is over eps from its w, or either middle
    one is within eps of an edge. v's median order statistics lie among the v
    whose w is within 2 eps of w's (`_window`); those below are smaller, since
    their s·v < lo + eps."""
    window = _window(w, eps)
    if window is None:
        return None
    idx, below, lo, hi = window
    k0, k1 = (len(w) - 1) // 2 - below, len(w) // 2 - below
    v, sv = exact(idx)
    near, snear = np.sort(v), np.sort(sv)
    if not (np.all(np.abs(w[idx] - sv) <= eps)
            and snear[k0] >= float(lo) + eps and snear[k1] <= float(hi) - eps):
        return None
    return PERFORMANCE["median"](near[k0 : k1 + 1])


def behavioural_mad(descriptors: np.ndarray) -> float:
    """MAD of the pairwise descriptor distances. Zero when all rollouts
    behave identically."""
    return pairwise_mad(descriptors)


def behavioural_iqr(descriptors: np.ndarray) -> float:
    """IQR of the pairwise descriptor distances."""
    return iqr(pairwise_distances(descriptors))


def state_marginals(record: EvalRecord) -> np.ndarray:
    """The record's flattened visited-state sequences, one row per rollout."""
    if record.state_marginals is None:
        raise ValueError(
            f"record {record.policy_id!r} has no state marginals; evaluate "
            "with record_state_marginal enabled"
        )
    return record.state_marginals


def state_marginal_repro(record: EvalRecord) -> float:
    """Behavioural MAD over the flattened visited-state sequences."""
    return behavioural_mad(state_marginals(record))


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
    return [not any(dominates(q, p) for q in points) for p in points]


class RecordError(ValueError):
    """A record `report_rows` or `pareto_rows` refuses: (its index in the input, why)."""


_returns = attrgetter("returns")
# pairwise report metric -> (array it reads from a record, dispersion of its distances)
_PAIRWISE = {"bmad": (attrgetter("descriptors"), "mad"),
             "biqr": (attrgetter("descriptors"), "iqr"),
             "smad": (state_marginals, "mad")}
REPORT_METRICS = (*PERFORMANCE, *DISPERSION, "lcb", *_PAIRWISE)
REPORT_COLUMNS = ("env", "algo", "noise", "metric", "n_seeds", "point", "ci_lo", "ci_hi")
PARETO_COLUMNS = ("policy_id", "expected_return", "neg_mad", "on_front")
_GROUP_VALUES = 2**16  # values, pairwise distances included, `_scores` buffers


def _alpha_label(alpha: float) -> str:
    """`lcb[alpha=...]` with alpha by `:g`, or by repr where `:g` rounds it."""
    return f"lcb[alpha={alpha:g}]" if float(f"{alpha:g}") == alpha else f"lcb[alpha={alpha!r}]"


def _noise_label(noise: NoiseConfig) -> str:
    """`kind:sigma` (sigma by `:g`) or `none`, and a [suffix] naming a sigma `:g`
    rounds and a resample or obs_affects_reward other than the default."""
    label = "none" if noise.kind == "none" else f"{noise.kind}:{noise.sigma:g}"
    extra = [f"sigma={noise.sigma!r}"] * (float(f"{noise.sigma:g}") != noise.sigma) + [
        f"{k}={str(getattr(noise, k)).lower()}" for k in ("resample", "obs_affects_reward")
        if getattr(noise, k) != getattr(NoiseConfig, k)]
    return f"{label}[{';'.join(extra)}]" if extra else label


def _cell_stream(key: tuple) -> RngStream:
    """A report cell's bootstrap stream, indexed by a 64-bit hash of its key
    alone, so no other cell, input or alpha can move it."""
    digest = hashlib.blake2b(json.dumps(list(key)).encode(), digest_size=8).digest()
    return derive_stream(0, "report-ci", int.from_bytes(digest, "little"))


def _stacked(arrays: list, score) -> list:
    """[(label, value)] of each array, in input order, from one `score` call
    per array shape: `score` gives [(label, one value per array)] of a stack."""
    out = [None] * len(arrays)
    for shape in dict.fromkeys(a.shape for a in arrays):
        rows = [i for i, a in enumerate(arrays) if a.shape == shape]
        scored = score(np.stack([arrays[i] for i in rows]))
        for r, i in enumerate(rows):
            out[i] = [(label, float(values[r])) for label, values in scored]
    return out


def _scores(records: Iterable, read, check, score) -> list:
    """((env, algo, noise label), policy_id, master_seed, [(label, value)]) of each
    (record, algo) pair, in input order. Of each record only the array `read`
    takes is kept, once `check(n)` accepts its n values; the arrays are scored by
    `_stacked` once they, with 2-D arrays' pairwise distances, reach
    _GROUP_VALUES values, and at the end."""
    metas, pending, scored, size = [], [], [], 0

    def flush(i, n):
        try:
            scored.extend(_stacked(pending, score))
        except MemoryError as e:  # the pairwise metrics hold N(N-1)/2 distances
            raise RecordError(i, f"{n * (n - 1) // 2} pairwise distances of {n} episodes "
                                 "do not fit in memory") from e
        pending.clear()

    for i, (record, algo) in enumerate(records):
        try:
            values = read(record)
            check(len(values))
        except ValueError as e:  # too few values for the estimator, or no marginals
            raise RecordError(i, str(e)) from e
        metas.append(((record.env_id, algo, _noise_label(record.noise)), record.policy_id,
                      record.master_seed))
        pending.append(values)
        n = len(values)
        size += values.size + n * (n - 1) // 2 * (values.ndim == 2)
        if size >= _GROUP_VALUES:
            flush(i, n)
            size = 0
    if pending:
        flush(i, n)
    return [(*meta, values) for meta, values in zip(metas, scored)]


def _report_metric(metric: str, alphas: list, cfg: LcbConfig) -> tuple:
    """(read, check, score) of a report metric: the array it reads from a record,
    a check that n values suffice, and its scores of a (rows, n) block or
    (rows, n, d) stack, [(label, value per row)]."""
    if metric == "lcb":
        labels = [_alpha_label(a) for a in alphas]
        return (_returns, lambda n: _lcb_estimators(alphas, cfg, n),
                lambda b: list(zip(labels, _lcb(b, alphas, cfg))))
    if metric in _PAIRWISE:
        read, disp = _PAIRWISE[metric]
        return read, require_points, lambda b: [(metric, DISPERSION[disp](pairwise_distances(b)))]
    estimator = {**PERFORMANCE, **DISPERSION}[metric]
    return _returns, lambda n: require_values(metric, n), lambda b: [(metric, estimator(b))]


def report_rows(records: Iterable, metric: str, alphas: Sequence[float] = (0.0,),
                cfg: LcbConfig = LcbConfig(), n_resamples: int = 2000) -> List[tuple]:
    """`REPORT_COLUMNS` rows of (record, algo) pairs, one per cell in cell order:
    the IQM over training runs, with its stratified-bootstrap CI, of each run's
    mean over its records (re-seeded evaluations of one policy_id). The metric,
    alphas and n_resamples are refused before the first record is read."""
    if metric not in REPORT_METRICS:
        raise ValueError(f"unknown metric {metric!r}, valid: {', '.join(REPORT_METRICS)}")
    alphas = [float(a) for a in alphas]
    lcb_values(0.0, 0.0, alphas)  # refuses a negative or non-finite alpha
    require_resamples(n_resamples)
    read, check, score = _report_metric(metric, alphas, cfg)

    # cells: (env, algo, noise_label, metric_label) -> policy_id -> [(eval seed, value)]
    cells: dict = {}
    for cell, policy_id, seed, values in _scores(records, read, check, score):
        for label, value in values:
            cells.setdefault((*cell, label), {}).setdefault(policy_id, []).append((seed, value))
    rows = []
    for key in sorted(cells):
        # One entry per training run: the mean over its eval seeds (one block per
        # count), keyed by the smallest, so re-seeded evaluations are not runs.
        runs = [sorted(evals) for evals in cells[key].values()]
        means = _stacked([np.array([v for _, v in e]) for e in runs],
                         lambda b: [("mean", PERFORMANCE["mean"](b))])
        values = np.array([m for _, m in sorted((e[0][0], m) for e, [(_, m)] in zip(runs, means))])
        ci = stratified_bootstrap([values], aggregate="iqm", n_resamples=n_resamples,
                                  stream=_cell_stream(key))
        rows.append((*key, len(values), ci.point, ci.lo, ci.hi))
    return rows


def pareto_rows(records: Iterable) -> List[tuple]:
    """`PARETO_COLUMNS` rows of (record, algo) pairs, in input order: mean return,
    negated MAD of returns and whether the record is on the `pareto_front`."""
    scored = _scores(records, _returns, lambda n: None, lambda b: [
        ("perf", PERFORMANCE["mean"](b)), ("repro", -DISPERSION["mad"](b))])
    points = [ParetoPoint(pid, perf, repro) for _, pid, _, [(_, perf), (_, repro)] in scored]
    return [(p.policy_id, p.perf, p.repro, flag) for p, flag in zip(points, pareto_front(points))]
