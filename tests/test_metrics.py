import numpy as np
import pytest

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
    pareto_front,
    performance,
    state_marginal_repro,
    summarize,
)
from repro_rl.noise import NoiseConfig


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


def test_pairwise_distances_triangle():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(pairwise_distances(pts), np.array([3.0, 4.0, 5.0]))


def test_pairwise_distances_matches_double_loop():
    gen = np.random.default_rng(2)
    for _ in range(50):
        n = int(gen.integers(2, 30))
        d = int(gen.integers(1, 6))
        pts = gen.standard_normal((n, d)) * 10
        got = pairwise_distances(pts)
        expected = []
        for i in range(n):
            for j in range(i + 1, n):
                expected.append(np.sqrt(np.sum((pts[i] - pts[j]) ** 2)))
        assert got.shape == (n * (n - 1) // 2,)
        assert np.allclose(got, expected, atol=1e-12)


def test_pairwise_distances_validation():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros(4))
    with pytest.raises(ValueError):
        pairwise_distances(np.array([[1.0], [np.nan]]))


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
    for _ in range(50):
        n = int(gen.integers(1, 51))
        pts = [
            ParetoPoint(str(i), float(gen.integers(0, 6)), float(gen.integers(0, 6)))
            for i in range(n)
        ]
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
