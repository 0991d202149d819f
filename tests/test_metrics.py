import re
import warnings

import numpy as np
import pytest

from tracing import traced_peak
from repro_rl import metrics
from repro_rl.core import EvalRecord
from repro_rl.metrics import (
    DISP_ESTIMATORS,
    PERF_ESTIMATORS,
    LcbConfig,
    ParetoPoint,
    behavioural_iqr,
    behavioural_mad,
    dispersion,
    dominates,
    lcb,
    lcb_sweep,
    pairwise_distances,
    pairwise_mad,
    pareto_front,
    performance,
    state_marginal_repro,
    summarize,
)
from repro_rl.noise import NoiseConfig
from repro_rl.stats import mad


def make_record(returns, policy_id="p", marginals=None):
    returns = np.asarray(returns, dtype=np.float64)
    return EvalRecord(
        policy_id=policy_id,
        env_id="test-env",
        noise=NoiseConfig(),
        master_seed=0,
        returns=returns,
        descriptors=returns[:, None].copy(),
        state_marginals=None if marginals is None else np.asarray(marginals, float),
    )


def test_lcb_hand_case():
    rec = make_record([1, 2, 3, 4, 5])
    # mean 3, mad 1
    assert lcb(rec, 0.0) == 3.0
    assert lcb(rec, 1.0) == 2.0
    assert lcb(rec, 2.0) == 1.0


def test_lcb_alpha_zero_is_bitexact_performance():
    gen = np.random.default_rng(0)
    for _ in range(100):
        rec = make_record(gen.standard_normal(int(gen.integers(4, 40))) * 17)
        for perf in ["mean", "median", "iqm"]:
            cfg = LcbConfig(perf=perf)
            assert lcb(rec, 0.0, cfg) == performance(rec.returns, perf)


def test_lcb_sweep_nonincreasing():
    gen = np.random.default_rng(1)
    alphas = [0.0, 0.1, 0.4, 1.0, 2.0]
    cfgs = [LcbConfig(p, d) for p in PERF_ESTIMATORS for d in DISP_ESTIMATORS]
    for _ in range(50):
        rec = make_record(gen.standard_normal(20))
        for cfg in cfgs:
            vals = lcb_sweep(rec, alphas, cfg)
            assert np.all(np.diff(vals) <= 1e-15)
            # the sweep is lcb at each alpha, bit for bit
            assert vals.tolist() == [lcb(rec, a, cfg) for a in alphas]


def test_lcb_validation():
    rec = make_record([1, 2, 3])
    with pytest.raises(ValueError):
        lcb(rec, -0.5)
    with pytest.raises(ValueError):
        LcbConfig(perf="max")
    with pytest.raises(ValueError):
        LcbConfig(disp="var")


def test_estimator_dispatch():
    x = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    assert performance(x, "mean") == 22.0
    assert performance(x, "median") == 3.0
    assert dispersion(x, "mad") == 1.0
    assert dispersion(x, "iqr") == 2.0
    assert dispersion(x, "std") == pytest.approx(np.std(x, ddof=1))
    with pytest.raises(ValueError):
        dispersion(np.array([1.0]), "std")


def test_summarize_fields():
    rec = make_record([1, 2, 3, 4, 5], policy_id="abc")
    s = summarize(rec, alphas=[0.0, 1.0])
    assert s.policy_id == "abc"
    assert s.n_evals == 5
    assert s.perf == 3.0
    assert s.disp == 1.0
    assert s.lcb_by_alpha == {0.0: 3.0, 1.0: 2.0}


def test_summarize_computes_each_estimate_once(monkeypatch):
    calls = []
    for name in ("performance", "dispersion"):
        fn = getattr(metrics, name)
        monkeypatch.setattr(metrics, name,
                            lambda x, kind, fn=fn, name=name: calls.append(name) or fn(x, kind))
    s = summarize(make_record([1, 2, 3, 4, 5]), alphas=[0.0, 0.5, 1.0])
    assert sorted(calls) == ["dispersion", "performance"]
    assert s.lcb_by_alpha == {0.0: 3.0, 0.5: 2.5, 1.0: 2.0}


@pytest.mark.parametrize("perf", PERF_ESTIMATORS)
@pytest.mark.parametrize("disp", DISP_ESTIMATORS)
def test_lcb_entry_points_agree_bit_for_bit(perf, disp):
    gen = np.random.default_rng(7)
    cfg = LcbConfig(perf, disp)
    alphas = [0.0, 0.5, 2.0]
    for n in (4, 5, 17, 64):
        rec = make_record(gen.standard_normal(n) * 13 + 2)
        sweep = lcb_sweep(rec, alphas, cfg).tolist()
        single = [lcb(rec, a, cfg) for a in alphas]
        by_alpha = summarize(rec, alphas, cfg).lcb_by_alpha
        assert list(by_alpha) == alphas
        bits = [np.float64(v).view(np.uint64) for v in sweep]
        assert [np.float64(v).view(np.uint64) for v in single] == bits
        assert [np.float64(v).view(np.uint64) for v in by_alpha.values()] == bits
        assert sweep[0] == performance(rec.returns, perf)


def test_pairwise_distances_triangle():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(pairwise_distances(pts), np.array([3.0, 4.0, 5.0]))


def _pairwise_per_row(pts):
    # Bit-exact oracle for the blocked version: one fresh (n-1-i, d)
    # difference array per source row, summed with np.sum.
    n = pts.shape[0]
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        diff = pts[i + 1 :] - pts[i]
        m = diff.shape[0]
        out[pos : pos + m] = np.sqrt(np.sum(diff * diff, axis=1))
        pos += m
    return out


@pytest.mark.parametrize("block_values", [None, 12, 400])
def test_pairwise_distances_bit_equal_per_row_oracle(monkeypatch, block_values):
    # widths and counts on each side of a block edge, at the module's block
    # size and at small ones that put the edges within reach of small n
    if block_values is not None:
        monkeypatch.setattr(metrics, "_BLOCK_VALUES", block_values)
    v = metrics._BLOCK_VALUES
    gen = np.random.default_rng(8)
    widths = {0, 1, 2, 400, v // 2 - 1, v // 2, v // 2 + 1, v - 1, v, v + 1}
    many = {300} if block_values is None else set()
    for d in sorted(widths):
        rows = max(1, v // max(1, d))
        for n in sorted({2, 3, rows - 1, rows, rows + 1, 2 * rows + 1} | many):
            if n < 2 or n > 1000 or n * d > 2**19:
                continue
            # magnitudes from 1e-3 to 1e3 per point, so roundings differ
            pts = gen.standard_normal((n, d)) * 10.0 ** gen.integers(-3, 4, (n, 1))
            got = pairwise_distances(pts)
            assert got.shape == (n * (n - 1) // 2,)
            want = _pairwise_per_row(pts)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (d, n)


@pytest.mark.parametrize("block_values", [None, 12, 400])
def test_pairwise_distances_stack_equals_each_slice(monkeypatch, block_values):
    # an (A, n, d) stack against one call per slice, with n on each side of
    # the stack's block edge (block rows = block values // (A * d))
    if block_values is not None:
        monkeypatch.setattr(metrics, "_BLOCK_VALUES", block_values)
    v = metrics._BLOCK_VALUES
    gen = np.random.default_rng(9)
    crossed = 0
    for d in (0, 1, 2, 7, 9, 400):
        for a in (1, 2, 3, 5):
            rows = max(1, v // max(1, a * d))
            for n in sorted({2, 3, 17, rows, rows + 1, 2 * rows + 1}):
                if n < 2 or n > 300 or a * n * d > 2**18:
                    continue
                crossed += n > rows
                pts = gen.standard_normal((a, n, d)) * 10.0 ** gen.integers(-3, 4, (a, n, 1))
                got = pairwise_distances(pts)
                assert got.shape == (a, n * (n - 1) // 2)
                want = np.stack([pairwise_distances(p) for p in pts])
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (d, a, n)
    assert crossed > 0
    stack = gen.standard_normal((2, 3, 4, 5))
    assert np.array_equal(pairwise_distances(stack)[1, 2], pairwise_distances(stack[1, 2]))


@pytest.mark.parametrize("block_values", [None, 3])
def test_pairwise_distances_row_major_pair_order(monkeypatch, block_values):
    # point i sits at 2^i on the first axis, so pair (i, j) is 2^j - 2^i exactly
    if block_values is not None:
        monkeypatch.setattr(metrics, "_BLOCK_VALUES", block_values)
    n = 9
    pts = np.zeros((n, 2))
    pts[:, 0] = 2.0 ** np.arange(n)
    want = [2.0**j - 2.0**i for i in range(n) for j in range(i + 1, n)]
    assert pairwise_distances(pts).tolist() == want


def test_pairwise_distances_zero_width_points_are_all_zero():
    assert np.array_equal(pairwise_distances(np.zeros((5, 0))), np.zeros(10))
    assert behavioural_mad(np.zeros((3, 0))) == 0.0


def test_pairwise_distances_temporaries_stay_within_a_block():
    # N=1024 state marginals of 400 values: 4 MiB of output, and at most 1 MiB
    # besides it for the differences
    pts = np.random.default_rng(3).standard_normal((1024, 400))
    out, peak = traced_peak(lambda: pairwise_distances(pts))
    assert peak <= out.nbytes + 2**20, peak


def test_pairwise_distances_stack_temporaries_stay_within_a_block():
    # 16 stacked (128, 400) slices: 1 MiB of output, and at most 1 MiB besides
    # it, so the differences of all slices together stay within one block
    pts = np.random.default_rng(4).standard_normal((16, 128, 400))
    out, peak = traced_peak(lambda: pairwise_distances(pts))
    assert peak <= out.nbytes + 2**20, peak


def test_pairwise_distances_validation():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros(4))
    with pytest.raises(ValueError):
        pairwise_distances(np.array([[1.0], [np.nan]]))


def _mad_of_all_pairs(pts):
    # The path pairwise_mad must match bit for bit: all N(N-1)/2 distances.
    return mad(pairwise_distances(pts))


def _bits(value):
    return np.float64(value).view(np.uint64)


def _outcome(fn, pts):
    try:
        return _bits(fn(pts))
    except (ValueError, RuntimeWarning) as e:
        return type(e), str(e)


def _w_order(pts):
    # pairwise_distances' position of each of w's pairs, in w's order: every pair once
    n = len(pts)
    i, j = metrics._pairs(*pts.shape, np.arange(n * (n - 1) // 2))
    order = i * n - i * (i + 1) // 2 + j - i - 1
    assert np.all(i < j) and np.array_equal(np.sort(order), np.arange(n * (n - 1) // 2))
    return order


def _assert_gram_bound_holds(pts):
    w, scale, bound = metrics._gram_distances(pts)
    if w is None:  # only where every centred norm² is 0 (no width, or underflow)
        c = pts - pts.mean(axis=0)
        assert not np.einsum("ij,ij->i", c, c).any()
        return
    assert w.dtype == np.float32 and np.frexp(scale)[0] == 0.5  # a power of two
    dist = pairwise_distances(pts)[_w_order(pts)]
    a = w.astype(np.float64) / scale  # unscaled, exactly
    assert np.max(np.abs(a - dist)) <= bound
    m = np.median(dist)  # the MAD stage's values as pairwise_mad computes them
    dev = np.abs(w - np.float32(m * scale)).astype(np.float64) / scale
    assert np.max(np.abs(dev - np.abs(dist - m))) <= bound


@pytest.mark.parametrize("d", [0, 1, 2, 7, 8, 9, 128, 129, 400])
def test_pairwise_mad_bit_equal_over_widths_and_counts(d):
    gen = np.random.default_rng(100 + d)
    for n in (2, 3, 4, 5, 17, 300, 1024):
        walks = np.cumsum(gen.standard_normal((n, d)), axis=1)
        for pts in [walks] + [gen.standard_normal((n, d))] * (n < 1024):
            assert _bits(pairwise_mad(pts)) == _bits(_mad_of_all_pairs(pts)), (n, d)
            _assert_gram_bound_holds(pts)


def _adversarial_points():
    gen = np.random.default_rng(14)
    centres = gen.standard_normal((5, 6))
    return {
        "identical": np.tile(gen.standard_normal((1, 9)), (33, 1)),
        "lattice, even pair count": gen.integers(0, 3, (40, 2)).astype(float),
        "lattice, odd pair count": gen.integers(0, 3, (38, 3)).astype(float),
        "near-duplicates": centres[gen.integers(0, 5, 60)] + 1e-13 * gen.standard_normal((60, 6)),
        "offset 1e8": 1e8 + gen.standard_normal((50, 5)),
        "scale 1e-160": 1e-160 * gen.standard_normal((50, 9)),
        "scale 1e-200": 1e-200 * gen.standard_normal((50, 9)),
        "scale 1e200": 1e200 * gen.standard_normal((50, 9)),
        "mixed scales": gen.standard_normal((60, 6)) * np.logspace(-150, 150, 6),
        # 50 points within 1e-42 of each other and two at about ±1, so the
        # cluster sits at the mean and most scaled distances are float32 subnormals
        "subnormal cluster": np.vstack(
            [1e-42 * gen.standard_normal((50, 4)), np.ones((1, 4)), -np.ones((1, 4))]),
    }


# The adversarial inputs whose MAD comes from the filter's windows; the others
# take all pairs, with float32 storage as with float64 before it.
_FILTERED = {"lattice, even pair count", "lattice, odd pair count", "near-duplicates",
             "offset 1e8", "mixed scales"}


@pytest.mark.parametrize("name", list(_adversarial_points()))
def test_pairwise_mad_bit_equal_on_adversarial_points(monkeypatch, name):
    pts = _adversarial_points()[name]
    calls = []
    all_pairs = metrics.pairwise_distances
    monkeypatch.setattr(metrics, "pairwise_distances", lambda p: (calls.append(1), all_pairs(p))[1])
    # outcomes match with overflow warnings raised (the suite's setting) and
    # ignored, when the 1e200 distances fail mad's finiteness check
    assert _outcome(pairwise_mad, pts) == _outcome(_mad_of_all_pairs, pts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _outcome(pairwise_mad, pts) == _outcome(_mad_of_all_pairs, pts)
    assert (not calls) == (name in _FILTERED)
    if name == "scale 1e200":
        assert metrics._gram_distances(pts) == (None, None, None)  # squares could overflow
        return
    _assert_gram_bound_holds(pts)
    if name.startswith("lattice"):
        dist = pairwise_distances(pts)
        dev = np.abs(dist - np.median(dist))
        assert np.sum(dist == np.median(dist)) > 1 and np.sum(dev == np.median(dev)) > 1


def test_pairwise_mad_falls_back_when_the_bound_does_not_hold(monkeypatch):
    # Gram distances off by about 0.1% while the bound claims 0: the window's
    # exact distances contradict it, so the call takes all pairs
    gram = metrics._gram_distances

    def wrong(x):
        w, *rest, _ = gram(x)
        z = np.random.default_rng(len(w)).standard_normal(len(w))
        return (w * (1 + 1e-3 * z)).astype(w.dtype), *rest, 0.0

    monkeypatch.setattr(metrics, "_gram_distances", wrong)
    for seed in range(20):
        pts = np.cumsum(np.random.default_rng(seed).standard_normal((200, 50)), axis=1)
        assert _bits(pairwise_mad(pts)) == _bits(_mad_of_all_pairs(pts)), seed


@pytest.mark.parametrize("block_values", [1, 5, 64, 1000])
def test_gram_distances_cover_every_pair_at_any_tile_size(monkeypatch, block_values):
    # tiles of one row up to all of them, groups that are whole tiles or parts of one
    monkeypatch.setattr(metrics, "_BLOCK_VALUES", block_values)
    gen = np.random.default_rng(16)
    for n, d in [(2, 1), (3, 9), (17, 3), (60, 7), (61, 40)]:
        pts = np.cumsum(gen.standard_normal((n, d)), axis=1)
        assert _bits(pairwise_mad(pts)) == _bits(_mad_of_all_pairs(pts)), (n, d)
        _assert_gram_bound_holds(pts)


def _reference_window(w, eps):
    # the window from one sort of all of w
    mid = np.sort(w)[[(len(w) - 1) // 2, len(w) // 2]]
    lo, hi = metrics._edges(mid[0], mid[1], eps)
    idx = np.flatnonzero((w >= lo) & (w <= hi))
    return None if len(idx) > len(w) // 4 else (idx, np.count_nonzero(w < lo), lo, hi)


def _window_cases():
    gen = np.random.default_rng(17)
    for n, d in [(1024, 400), (1024, 2), (300, 5), (40, 2)]:
        w, scale, bound = metrics._gram_distances(np.cumsum(gen.standard_normal((n, d)), axis=1))
        eps = 2 * bound * scale
        yield w, eps
        yield np.abs(w - np.float32(np.median(w))), eps  # the MAD stage's values
    yield np.float32(gen.integers(0, 4, 5000)), 0.5  # ties: over a quarter in the window
    yield np.float32(gen.integers(0, 40, 5000)), 0.5
    yield np.float32(gen.integers(0, 4000, 100000) / 7), 2.0**-12


@pytest.mark.parametrize("one_value_sample", [False, True])
def test_window_from_the_bracket_equals_the_window_from_a_sort(monkeypatch, one_value_sample):
    # A one-value sample brackets w[0] alone, which misses the middle ranks of
    # the random-walk distances, so their windows come from the full partition;
    # by default only the small inputs' do.
    full = []
    middle_values = metrics.middle_values
    monkeypatch.setattr(metrics, "middle_values", lambda w: (full.append(len(w)), middle_values(w))[1])
    if one_value_sample:
        monkeypatch.setattr(metrics, "_SAMPLE", 1)
        monkeypatch.setattr(metrics, "_MARGIN", 0)
    for k, (w, eps) in enumerate(_window_cases()):
        got, want = metrics._window(w, eps), _reference_window(w, eps)
        assert (got is None) == (want is None), k
        if want is not None:
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], k
    if one_value_sample:
        assert full[:8] == [523776] * 4 + [44850] * 2 + [780] * 2, full
    else:
        assert all(n <= 5000 for n in full), full


def test_window_makes_one_pass_when_the_bracket_cannot_fit_the_cap(monkeypatch):
    # up to 64 points (2,016 distances) the bracket's 2 _MARGIN + 1 ranks exceed
    # the quarter cap, so the window comes from the partition, in one _within pass
    calls = {"_window": 0, "_within": 0}
    for name in calls:
        fn = getattr(metrics, name)
        monkeypatch.setattr(metrics, name, lambda *a, fn=fn, name=name: (
            calls.__setitem__(name, calls[name] + 1), fn(*a))[1])
    gen = np.random.default_rng(3)
    for n in (8, 16, 32, 64, 66, 80, 128):
        calls.update(_window=0, _within=0)
        pts = gen.standard_normal((n, 3))
        assert _bits(pairwise_mad(pts)) == _bits(_mad_of_all_pairs(pts)), n
        assert calls["_within"] == calls["_window"] == 2, (n, calls)


def test_near_median_keeps_exact_ties_at_both_window_edges():
    # three w ties on each float32 window edge, and three on each of mid ± 2 eps
    # just inside it: the window holds all 12 (none counted below), and the
    # median is np.median(v), bit for bit
    eps, s, mid = 2.0**-10, 2.0**-3, [1.0, 1 + 2.0**-12]
    lo = float(metrics._float32_below(np.nextafter(mid[0] - 2 * eps, -np.inf)))
    hi = -float(metrics._float32_below(-np.nextafter(mid[1] + 2 * eps, np.inf)))
    assert lo < mid[0] - 2 * eps and hi > mid[1] + 2 * eps
    edges = [lo] * 3 + [mid[0] - 2 * eps] * 3 + mid + [mid[1] + 2 * eps] * 3 + [hi] * 3
    w = np.float32([0.25] * 30 + edges + [4.0] * 30)
    off = [eps / 2] * 6 + [-eps / 2, eps / 2] + [-eps / 2] * 6
    sv = w.astype(np.float64) + np.array([0.0] * 30 + off + [0.0] * 30)
    v = sv / s
    seen = []
    got = metrics._near_median(w, eps, lambda idx: (seen.append(idx), (v[idx], s * v[idx]))[1])
    assert _bits(got) == _bits(np.median(v))
    assert seen[0].tolist() == list(range(30, 44))


@pytest.mark.parametrize("block_values", [None, 12])
def test_exact_distances_have_the_bits_of_pairwise_distances(monkeypatch, block_values):
    if block_values is not None:
        monkeypatch.setattr(metrics, "_BLOCK_VALUES", block_values)
    gen = np.random.default_rng(15)
    for d in (0, 1, 2, 7, 8, 9, 129):
        pts = np.cumsum(gen.standard_normal((23, d)), axis=1)
        idx = np.sort(gen.permutation(23 * 22 // 2)[:100])
        got = metrics._exact_distances(pts, idx)
        want = pairwise_distances(pts)[_w_order(pts)[idx]]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pairwise_mad_recomputes_under_one_percent_of_random_walk_pairs(monkeypatch):
    # eval-sweep-like state marginals: N=1024 random walks of 400 values
    counts = []
    near_median = metrics._near_median
    monkeypatch.setattr(metrics, "_near_median", lambda w, eps, exact: near_median(
        w, eps, lambda idx: (counts.append(len(idx)), exact(idx))[1]))
    pts = np.cumsum(np.random.default_rng(7).standard_normal((1024, 400)), axis=1)
    assert _bits(pairwise_mad(pts)) == _bits(_mad_of_all_pairs(pts))
    assert len(counts) == 2 and 0 < sum(counts) < 0.01 * (1024 * 1023 // 2), counts


@pytest.mark.parametrize("d, share", [(400, 0.6), (2, 0.4)])
def test_pairwise_mad_peak_memory_within_the_all_pairs_path(d, share):
    # All pairs peak at N(N-1)/2 float64 distances and two deviation arrays
    # (12 MiB at N=1024). The filter holds the float32 distances (2 MiB) and
    # at most two tiles of centred points and a Gram block of 2**16 float64
    # values each (1.5 MiB), plus a quarter MiB for a group's own pairs, masks
    # and casting buffers; the windows are found in chunks of 2**16 values.
    pts = np.cumsum(np.random.default_rng(9).standard_normal((1024, d)), axis=1)
    peaks = [traced_peak(lambda: fn(pts))[1] for fn in (_mad_of_all_pairs, behavioural_mad)]
    assert peaks[1] <= peaks[0] + 2**19, peaks
    assert peaks[1] <= share * peaks[0], peaks
    assert peaks[1] <= 4 * (1024 * 1023 // 2) + 2**20 + 2**19 + 2**18, peaks


@pytest.mark.parametrize("pts", [
    np.zeros(4), np.zeros((1, 3)), np.array([[1.0], [np.nan]]), np.array([[np.inf, 0.0]] * 3),
    np.zeros((2, 3, 2)),  # a stack of point sets: mad needs 1-D distances
])
def test_pairwise_mad_raises_the_all_pairs_errors(pts):
    with pytest.raises(ValueError) as want:
        _mad_of_all_pairs(pts)
    for fn in (pairwise_mad, behavioural_mad):
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            fn(pts)


def test_behavioural_mad_identical_rollouts_zero():
    pts = np.tile(np.array([[1.5, -2.0, 0.25]]), (10, 1))
    assert behavioural_mad(pts) == 0.0
    assert behavioural_iqr(pts) == 0.0


def test_behavioural_mad_duplicated_pair_zero():
    # two distinct behaviours, each duplicated: the six pairwise distances
    # are [0, d, d, d, d, 0]; median d, deviations [d,0,0,0,0,d], MAD 0
    pts = np.array([[0.0], [0.0], [1.0], [1.0]])
    assert behavioural_mad(pts) == 0.0


def test_behavioural_metrics_rigid_motion_invariant():
    gen = np.random.default_rng(3)
    pts = gen.standard_normal((20, 2))
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ rot.T + np.array([5.0, -11.0])
    assert behavioural_mad(moved) == pytest.approx(behavioural_mad(pts), abs=1e-9)
    assert behavioural_iqr(moved) == pytest.approx(behavioural_iqr(pts), abs=1e-9)


def test_state_marginal_repro():
    rec = make_record([1, 2, 3, 4], marginals=np.tile(np.arange(8.0), (4, 1)))
    assert state_marginal_repro(rec) == 0.0
    rec2 = make_record([1, 2, 3, 4])
    with pytest.raises(ValueError, match="state marginals"):
        state_marginal_repro(rec2)


def test_dominates_definition():
    a = ParetoPoint("a", 1.0, 1.0)
    b = ParetoPoint("b", 1.0, 0.5)
    c = ParetoPoint("c", 1.0, 1.0)
    assert dominates(a, b)
    assert not dominates(b, a)
    assert not dominates(a, c) and not dominates(c, a)  # equal points


def test_pareto_front_worked_case():
    pts = [ParetoPoint("a", 5.0, -1.0), ParetoPoint("b", 4.0, -0.5), ParetoPoint("c", 3.0, -2.0)]
    assert pareto_front(pts) == [True, True, False]


def test_pareto_front_duplicates_all_flagged():
    pts = [ParetoPoint("a", 1.0, 1.0), ParetoPoint("b", 1.0, 1.0), ParetoPoint("c", 0.0, 0.0)]
    assert pareto_front(pts) == [True, True, False]


def test_pareto_front_edge_cases():
    assert pareto_front([]) == []
    assert pareto_front([ParetoPoint("only", 0.0, 0.0)]) == [True]


def test_pareto_front_matches_exhaustive_oracle():
    gen = np.random.default_rng(4)
    cases = []
    for _ in range(50):
        n = int(gen.integers(1, 51))
        cases.append([
            ParetoPoint(str(i), float(gen.integers(0, 6)), float(gen.integers(0, 6)))
            for i in range(n)
        ])
    # an anti-diagonal, where every point is on the front, alone, doubled, and
    # with duplicated points below it
    diagonal = [ParetoPoint(str(i), float(i), float(-i)) for i in range(8)]
    below = [ParetoPoint("b", 1.0, -3.0), ParetoPoint("b", 1.0, -3.0)]
    cases += [diagonal, diagonal + diagonal[::-1], below + diagonal + below]
    assert pareto_front(diagonal) == [True] * 8
    for pts in cases:
        got = pareto_front(pts)
        for i, p in enumerate(pts):
            dominated = any(
                j != i
                and q.perf >= p.perf
                and q.repro >= p.repro
                and (q.perf > p.perf or q.repro > p.repro)
                for j, q in enumerate(pts)
            )
            assert got[i] == (not dominated)
