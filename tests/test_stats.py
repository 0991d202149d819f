import numpy as np
import pytest

from repro_rl import stats
from repro_rl.core import RngStream, derive_stream
from repro_rl.stats import (
    DISPERSION,
    PERFORMANCE,
    BootstrapCI,
    iqm,
    iqr,
    mad,
    median,
    quartiles,
    stratified_bootstrap,
)


# Brute-force oracles, written against the definitions rather than numpy.

def oracle_median(x):
    s = sorted(x)
    n = len(s)
    if n % 2 == 1:
        return s[n // 2]
    return 0.5 * (s[n // 2 - 1] + s[n // 2])


def oracle_mad(x):
    m = oracle_median(x)
    return oracle_median([abs(v - m) for v in x])


def oracle_quantile(x, p):
    s = sorted(x)
    h = (len(s) - 1) * p
    lo = int(np.floor(h))
    if lo >= len(s) - 1:
        return s[-1]
    frac = h - lo
    return s[lo] + frac * (s[lo + 1] - s[lo])


def oracle_iqr(x):
    return oracle_quantile(x, 0.75) - oracle_quantile(x, 0.25)


def oracle_iqm(x):
    s = sorted(x)
    trim = len(s) // 4
    kept = s[trim : len(s) - trim]
    return sum(kept) / len(kept)


def oracle_bootstrap(strata, aggregate, n_resamples, confidence, stream):
    """The bootstrap one resample at a time: each stratum drawn with its own
    integers(0, size, size) call, the aggregate taken over the pooled draw."""
    agg = PERFORMANCE[aggregate]
    strata = [np.asarray(s, dtype=np.float64) for s in strata]
    gen = stream.generator()
    values = np.empty(n_resamples)
    for b in range(n_resamples):
        parts = [s[gen.integers(0, len(s), size=len(s))] for s in strata]
        values[b] = float(agg(np.concatenate(parts)))
    alpha = 1.0 - confidence
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(agg(np.concatenate(strata))), float(lo), float(hi)


def test_hand_cases():
    assert mad([1, 2, 3, 4, 100]) == 1.0
    assert iqr([1, 2, 3, 4, 100]) == 2.0
    assert iqm(list(range(1, 101))) == 50.5
    assert median([1, 2, 3]) == 2.0
    assert median([1, 2, 3, 4]) == 2.5


def test_quartiles_hand_case():
    q = quartiles([1, 2, 3, 4])
    assert q.q1 == 1.75
    assert q.q2 == 2.5
    assert q.q3 == 3.25


def test_oracle_agreement_random_vectors():
    gen = np.random.default_rng(12345)
    for _ in range(1000):
        n = int(gen.integers(1, 21))
        x = gen.standard_normal(n) * gen.uniform(0.1, 100)
        assert abs(median(x) - oracle_median(x)) <= 1e-12
        assert abs(mad(x) - oracle_mad(x)) <= 1e-12
        assert abs(iqr(x) - oracle_iqr(x)) <= 1e-12
        if n >= 4:
            assert abs(iqm(x) - oracle_iqm(x)) <= 1e-12
        q = quartiles(x)
        assert abs(q.q1 - oracle_quantile(x, 0.25)) <= 1e-12
        assert abs(q.q3 - oracle_quantile(x, 0.75)) <= 1e-12


def test_mad_breakdown_point():
    x = np.zeros(100)
    x[-1] = 1e6
    assert mad(x) == 0.0
    assert np.std(x) > 1e4


def test_mad_equivariance():
    gen = np.random.default_rng(7)
    x = gen.standard_normal(31)
    for a, b in [(3.0, -2.0), (-0.5, 10.0)]:
        assert mad(a * x + b) == pytest.approx(abs(a) * mad(x), abs=1e-12)
        assert median(a * x + b) == pytest.approx(a * median(x) + b, abs=1e-12)


def test_single_value_and_constant_vectors():
    assert median([5.0]) == 5.0
    assert mad([5.0]) == 0.0
    assert iqr([5.0]) == 0.0
    assert mad([2.0] * 9) == 0.0
    assert iqr([2.0] * 9) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        mad([1.0, np.nan])
    with pytest.raises(ValueError):
        iqr(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        iqm([1.0, 2.0, 3.0])


def test_bootstrap_degenerate_values():
    ci = stratified_bootstrap([[4.0, 4.0, 4.0, 4.0]], aggregate="mean", n_resamples=100)
    assert ci.point == 4.0
    assert ci.lo == 4.0
    assert ci.hi == 4.0


def test_bootstrap_deterministic_given_stream():
    values = [np.arange(10.0)]
    s = derive_stream(1, "ci", 0)
    a = stratified_bootstrap(values, "mean", n_resamples=500, stream=s)
    b = stratified_bootstrap(values, "mean", n_resamples=500, stream=s)
    assert a == b


def test_bootstrap_iqm_brackets_point():
    values = [np.arange(1.0, 101.0)]
    ci = stratified_bootstrap(values, "iqm", n_resamples=2000, stream=derive_stream(2, "ci", 0))
    assert ci.point == 50.5
    assert ci.lo <= 50.5 <= ci.hi
    assert ci.lo < ci.hi


def test_bootstrap_point_is_pooled_aggregate():
    # strata sizes preserved; point comes from the pooled sample
    ci = stratified_bootstrap([[1.0, 2.0], [10.0, 20.0]], "iqm", n_resamples=50)
    assert ci.point == 6.0  # sorted [1,2,10,20], trim 1 each side, mean(2,10)
    ci2 = stratified_bootstrap([[1.0, 2.0], [10.0, 20.0]], "mean", n_resamples=50)
    assert ci2.point == 8.25


def test_bootstrap_interval_ordering_and_fields():
    ci = stratified_bootstrap(
        [np.arange(20.0)], "median", n_resamples=300, confidence=0.9,
        stream=derive_stream(3, "ci", 0),
    )
    assert isinstance(ci, BootstrapCI)
    assert ci.lo <= ci.point <= ci.hi
    assert ci.confidence == 0.9
    assert ci.n_resamples == 300


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        stratified_bootstrap([], "mean")
    with pytest.raises(ValueError):
        stratified_bootstrap([[]], "mean")
    with pytest.raises(ValueError):
        stratified_bootstrap([[1.0]], "trimmed")
    with pytest.raises(ValueError):
        stratified_bootstrap([[1.0]], "mean", n_resamples=0)
    with pytest.raises(ValueError):
        stratified_bootstrap([[1.0]], "mean", confidence=1.0)


def test_bootstrap_default_stream_is_fixed():
    values = [np.arange(9.0) ** 2]
    default = stratified_bootstrap(values, "iqm", n_resamples=300)
    fixed = stratified_bootstrap(values, "iqm", n_resamples=300,
                                 stream=RngStream(0, "bootstrap-default", 0))
    assert default == fixed
    assert (default.point, default.lo, default.hi) == oracle_bootstrap(
        values, "iqm", 300, 0.95, RngStream(0, "bootstrap-default", 0))


# one stratum; a size-1 stratum; three strata with odd sizes; a pooled sample
# of more than one block, so each block holds one resample. Equal sizes draw
# below a scalar bound: three equal strata, one odd-sized stratum, one stratum
# above half a block, and two equal strata of two resamples per block and a
# short last block.
BOOTSTRAP_CASES = [
    ((5,), 2000),
    ((1, 4), 2000),
    ((3, 6, 1), 2000),
    ((stats._BLOCK_VALUES // 2 + 1, stats._BLOCK_VALUES // 2 + 2), 3),
    ((4, 4, 4), 2000),
    ((63,), 2000),
    ((stats._BLOCK_VALUES // 2 + 3,), 3),
    ((stats._BLOCK_VALUES // 4 - 1, stats._BLOCK_VALUES // 4 - 1), 3),
]


@pytest.mark.parametrize("aggregate", ["mean", "median", "iqm"])
@pytest.mark.parametrize("sizes, n_resamples", BOOTSTRAP_CASES)
def test_bootstrap_matches_per_resample_oracle(sizes, n_resamples, aggregate):
    pooled = sum(sizes)
    # blocks hold one resample, or the last block is short
    rows = max(1, stats._BLOCK_VALUES // pooled)
    assert rows == 1 or n_resamples % rows
    gen = np.random.default_rng(pooled)
    strata = [np.round(gen.standard_normal(n) * 10, 1) for n in sizes]
    stream = derive_stream(4, "ci", pooled)
    ci = stratified_bootstrap(strata, aggregate, n_resamples, 0.9, stream)
    assert (ci.point, ci.lo, ci.hi) == oracle_bootstrap(strata, aggregate, n_resamples, 0.9, stream)


@pytest.mark.parametrize("table, kind, n", [
    (table, kind, n)
    for table in (PERFORMANCE, DISPERSION)
    for kind in table
    for n in [*range(1, 10), 31, 64, 257]
    if not (kind == "std" and n < 2)
])
def test_estimator_on_block_equals_each_row(table, kind, n):
    gen = np.random.default_rng(n)
    block = gen.standard_normal((6, n)) * gen.uniform(0.1, 100)
    block[1] = np.round(block[1])  # ties
    block[2] = block[2, 0]  # constant row
    got = table[kind](block)
    assert got.shape == (6,)
    assert np.array_equal(got, [table[kind](row) for row in block])


def _median_grid():
    gen = np.random.default_rng(7)
    special = np.array([0.0, -0.0, 1e308, -1e308, 1.0, -1.0])
    for n in (1, 2, 3, 4, 5, 8, 9, 64, 65):
        yield gen.normal(size=n)
        yield gen.integers(-2, 3, n).astype(float)  # ties
        yield gen.choice(special, n)  # signed zeros, and means that overflow
        yield np.full(n, -0.0)
        yield gen.choice(special, (6, n))  # blocks
        yield gen.uniform(-1.5, 1.5, (5, n)) * gen.choice([1.0, 1e308], (5, 1))


@pytest.mark.parametrize("a", list(_median_grid()), ids=lambda a: f"{a.shape}")
def test_median_and_mad_equal_numpy_median_bit_for_bit(a):
    with np.errstate(over="ignore", invalid="ignore"):
        want_median = np.median(a, axis=-1)
        want_mad = np.median(np.abs(a - np.median(a, axis=-1, keepdims=True)), axis=-1)
        got_median, got_mad = PERFORMANCE["median"](a), DISPERSION["mad"](a)
    assert np.shape(got_median) == np.shape(want_median)
    assert np.asarray(got_median).tobytes() == np.asarray(want_median).tobytes()
    assert np.asarray(got_mad).tobytes() == np.asarray(want_mad).tobytes()


def test_middle_values_are_the_middle_order_statistics():
    a = np.array([[5.0, 1.0, 4.0, 2.0], [0.0, 9.0, 9.0, 3.0]])
    assert stats.middle_values(a).tolist() == [[2.0, 4.0], [3.0, 9.0]]
    assert stats.middle_values(a[:, :3]).tolist() == [[4.0], [9.0]]
    assert stats.middle_values(np.array([-0.0])).tolist() == [-0.0]
