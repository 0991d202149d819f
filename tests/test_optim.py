import json

import numpy as np
import pytest

from repro_rl.core import derive_stream, policy_forward
from repro_rl.envs import flat_mean_spread, tradeoff_spread
from repro_rl.noise import NoiseConfig
from repro_rl.optim import (
    EsConfig,
    EsState,
    _es_update,
    es_step,
    fitness,
    init_center,
    optimize_function,
    rank_normalize,
    sample_population,
    train,
)
from repro_rl.rollout import EvalConfig, evaluate


def small_cfg(**kw):
    base = dict(arch=(1, 2, 1), popsize=4, sigma_es=0.1, lr=0.05, generations=3)
    base.update(kw)
    return EsConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        EsConfig(popsize=5)
    with pytest.raises(ValueError):
        EsConfig(popsize=0)
    with pytest.raises(ValueError):
        EsConfig(sigma_es=0.0)
    with pytest.raises(ValueError):
        EsConfig(lr=-0.1)
    with pytest.raises(ValueError):
        EsConfig(l2=-1.0)
    with pytest.raises(ValueError):
        EsConfig(generations=-1)
    with pytest.raises(ValueError):
        EsConfig(fitness_mode="greedy")
    with pytest.raises(ValueError):
        EsConfig(n_reevals=1)
    with pytest.raises(ValueError):
        EsConfig(repro_weight=1.5)


def test_config_round_trip():
    cfg = small_cfg(fitness_mode="repro", n_reevals=8, repro_weight=0.25)
    assert EsConfig.from_json_dict(cfg.to_json_dict()) == cfg
    # every field off its default
    off = EsConfig(arch=(2, 3, 1), activation="relu", popsize=6, sigma_es=0.2, lr=0.01,
                   l2=0.001, generations=7, fitness_mode="repro", n_reevals=5,
                   repro_weight=0.9)
    d = off.to_json_dict()
    assert d["arch"] == [2, 3, 1]
    assert EsConfig.from_json_dict(d) == off
    # missing keys take the defaults, unknown keys are ignored
    assert EsConfig.from_json_dict({"alphas": [0.5]}) == EsConfig()
    assert EsConfig().to_json_dict()["arch"] is None


def test_config_from_json_applies_casts():
    cfg = EsConfig.from_json_dict({"sigma_es": 1, "popsize": 8.0, "arch": [1, 2.0, 1]})
    assert cfg.popsize == 8 and cfg.arch == (1, 2, 1)
    assert json.dumps(cfg.to_json_dict()["sigma_es"]) == "1.0"
    assert json.dumps(cfg.to_json_dict()["popsize"]) == "8"
    with pytest.raises(TypeError, match="JSON object"):
        EsConfig.from_json_dict([1])


def test_init_center_layout():
    cfg = EsConfig(arch=(4, 16, 16, 2))
    center = init_center(cfg, 0)
    assert center.theta.shape == (386,)
    # biases start at zero: a zero observation maps to the zero action
    assert np.array_equal(policy_forward(center, np.zeros(4)), np.zeros(2))
    # weights are drawn, not zero
    assert np.any(center.theta != 0.0)
    assert np.array_equal(center.theta, init_center(cfg, 0).theta)
    assert not np.array_equal(center.theta, init_center(cfg, 1).theta)


def test_sample_population_mirroring():
    cfg = EsConfig(arch=(1, 1), popsize=8)
    theta = np.array([1.0, -2.0])
    cands, eps_half = sample_population(theta, cfg, derive_stream(0, "g", 0).generator())
    assert cands.shape == (8, 2)
    assert eps_half.shape == (4, 2)
    for i in range(4):
        assert np.allclose(cands[i] + cands[i + 4], 2 * theta, atol=1e-12)
        assert np.allclose(cands[i], theta + cfg.sigma_es * eps_half[i], atol=1e-15)


def test_rank_normalize_two_and_four():
    assert np.array_equal(rank_normalize(np.array([3.0, 9.0])), np.array([-0.5, 0.5]))
    got = rank_normalize(np.array([10.0, 0.0, 5.0, 7.0]))
    assert np.allclose(got, [0.5, -0.5, -1 / 6, 1 / 6], atol=1e-15)


def test_rank_normalize_sums_to_zero():
    gen = np.random.default_rng(0)
    for _ in range(100):
        f = gen.standard_normal(int(gen.integers(2, 30)))
        u = rank_normalize(f)
        assert abs(u.sum()) <= 1e-12
        assert u.max() <= 0.5 and u.min() >= -0.5


def test_rank_normalize_ties_averaged():
    u = rank_normalize(np.array([1.0, 1.0, 2.0]))
    # ranks of the tied pair average to 0.5 -> utility 0.5/2 - 0.5 = -0.25
    assert np.allclose(u, [-0.25, -0.25, 0.5], atol=1e-15)
    assert np.array_equal(rank_normalize(np.ones(6)), np.zeros(6))


def test_rank_normalize_monotone_invariance():
    gen = np.random.default_rng(1)
    for _ in range(200):
        f = gen.standard_normal(int(gen.integers(2, 20)))
        for g in [lambda x: 3 * x + 7, np.exp, lambda x: x**3]:
            assert np.array_equal(rank_normalize(f), rank_normalize(g(f)))


def test_rank_normalize_validation():
    with pytest.raises(ValueError):
        rank_normalize(np.array([1.0]))
    with pytest.raises(ValueError):
        rank_normalize(np.array([1.0, np.nan]))


def test_update_zero_for_mirror_symmetric_fitness():
    # fitness depending only on |eps| ties each mirror pair; update is exactly 0
    cfg = EsConfig(arch=(1, 1), popsize=8, l2=0.0)
    theta = np.array([0.3, -0.7])
    _, eps_half = sample_population(theta, cfg, derive_stream(1, "g", 0).generator())
    pair_fit = np.array([4.0, -1.0, 0.5, 2.0])
    fits = np.concatenate([pair_fit, pair_fit])
    new_theta = _es_update(theta, eps_half, rank_normalize(fits), cfg)
    assert np.array_equal(new_theta, theta)


def test_update_zero_for_constant_fitness():
    cfg = EsConfig(arch=(1, 1), popsize=6, l2=0.0)
    theta = np.array([1.0, 2.0])
    _, eps_half = sample_population(theta, cfg, derive_stream(2, "g", 0).generator())
    new_theta = _es_update(theta, eps_half, rank_normalize(np.zeros(6)), cfg)
    assert np.array_equal(new_theta, theta)


def test_l2_decay_applies_even_without_signal():
    cfg = EsConfig(arch=(1, 1), popsize=6, lr=0.1, l2=0.5)
    theta = np.array([1.0, -2.0])
    _, eps_half = sample_population(theta, cfg, derive_stream(3, "g", 0).generator())
    new_theta = _es_update(theta, eps_half, np.zeros(6), cfg)
    assert np.allclose(new_theta, theta * (1 - 0.1 * 0.5), atol=1e-15)


def test_update_moves_uphill_on_linear_objective():
    # f(theta) = theta[0]: the update must increase the first coordinate
    cfg = EsConfig(arch=(1, 1), popsize=64)
    theta = np.zeros(2)
    cands, eps_half = sample_population(theta, cfg, derive_stream(4, "g", 0).generator())
    fits = cands[:, 0]
    new_theta = _es_update(theta, eps_half, rank_normalize(fits), cfg)
    assert new_theta[0] > 0.0


def test_optimize_function_converges_on_shifted_quadratic():
    cfg = EsConfig(popsize=32, sigma_es=0.1, lr=0.05, generations=150)
    theta, history = optimize_function(
        lambda t: -float((t[0] - 2.0) ** 2), 1, cfg, master_seed=0
    )
    assert abs(theta[0] - 2.0) < 0.2
    assert len(history) == 150
    assert history[-1]["generation"] == 149


def test_optimize_function_deterministic():
    cfg = EsConfig(popsize=8, generations=5)
    t1, h1 = optimize_function(lambda t: -float(t @ t), 3, cfg, 42)
    t2, h2 = optimize_function(lambda t: -float(t @ t), 3, cfg, 42)
    assert np.array_equal(t1, t2)
    assert h1 == h2


def test_optimize_function_rejects_nonfinite_objective():
    cfg = EsConfig(popsize=4, generations=1)
    with pytest.raises(ValueError):
        optimize_function(lambda t: float("nan"), 2, cfg, 0)


def test_fitness_plain_is_one_rollout():
    env = tradeoff_spread()
    cfg = small_cfg(fitness_mode="plain")
    center = init_center(cfg, 0)
    stream = derive_stream(0, "es-fit", 5)
    got = fitness(center, env, NoiseConfig(), cfg, stream)
    seed = int(stream.generator().integers(0, 2**63))
    rec = evaluate(center, env, NoiseConfig(), EvalConfig(n_evals=1, master_seed=seed))
    assert got == rec.returns[0]


def test_fitness_repro_penalises_spread():
    env = tradeoff_spread()
    cfg = small_cfg(fitness_mode="repro", n_reevals=32)
    stream = derive_stream(0, "es-fit", 0)
    seed = int(stream.generator().integers(0, 2**63))

    def score(arm):
        from repro_rl.core import ConstantPolicy

        rec = evaluate(
            ConstantPolicy(np.array([arm])), env, NoiseConfig(),
            EvalConfig(n_evals=32, master_seed=seed),
        )
        return 0.5 * rec.returns.mean() - 0.5 * rec.returns.std(ddof=1)

    # the reproducible arm wins under the weighted fitness
    assert score(0.0) > score(1.0)


def test_es_step_increments_generation_and_history():
    env = flat_mean_spread()
    cfg = small_cfg()
    state = EsState(center=init_center(cfg, 0))
    out = es_step(state, cfg, env, NoiseConfig(), derive_stream(0, "es-gen", 0))
    assert out.generation == 1
    assert len(out.history) == 1
    assert set(out.history[0]) == {"generation", "fitness_mean", "fitness_best", "center_norm"}
    assert state.generation == 0  # input state untouched


def test_train_deterministic_and_seed_sensitive():
    env = tradeoff_spread()
    cfg = small_cfg(generations=4)
    a = train(cfg, env, NoiseConfig(), 7)
    b = train(cfg, env, NoiseConfig(), 7)
    c = train(cfg, env, NoiseConfig(), 8)
    assert np.array_equal(a.center.theta, b.center.theta)
    assert a.history == b.history
    assert not np.array_equal(a.center.theta, c.center.theta)
    assert a.generation == 4


def test_train_zero_generations_returns_init():
    env = flat_mean_spread()
    cfg = small_cfg(generations=0)
    state = train(cfg, env, NoiseConfig(), 3)
    assert np.array_equal(state.center.theta, init_center(cfg, 3).theta)
    assert state.generation == 0
    assert state.history == []
