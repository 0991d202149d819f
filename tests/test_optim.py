import json

import numpy as np
import pytest

from reference_rollout import count_generators, count_seed_sequences
from repro_rl import core, optim, rollout
from repro_rl.core import NumericFailure, PolicyParams, derive_stream, param_count, policy_forward
from repro_rl.envs import flat_mean_spread, point_mass_nav, tradeoff_spread
from repro_rl.noise import NoiseConfig
from repro_rl.optim import (
    FIT_TAG,
    GEN_TAG,
    EsConfig,
    EsState,
    _es_update,
    _generation,
    es_step,
    init_center,
    optimize_function,
    rank_normalize,
    sample_population,
    train,
)
from repro_rl.rollout import ENV_TAG, EvalConfig, block_rows, evaluate

# A bandit arch with 697 parameters: a row carrying its theta holds 700
# values, so `block_rows` gives 256-row blocks, and a population of 10 x 30
# repro rollouts has a block boundary inside candidate 8 (rows 240..269).
WIDE_BANDIT_ARCH = (1, 232, 1)


def block_boundary_in_candidate(env, cfg):
    """The first block boundary of es_step's rows, asserted to fall inside a candidate."""
    rows = block_rows(env, param_count(cfg.arch))
    assert rows < cfg.popsize * cfg.n_reevals and rows % cfg.n_reevals
    return rows


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
    # each arch width is cast as an int field is, not truncated by int()
    with pytest.raises(ValueError, match="^arch: expected an integer, got 1.5$"):
        EsConfig.from_json_dict({"arch": [1.5, 8, 1]})
    with pytest.raises(TypeError, match="^arch: expected an integer, got '1'$"):
        EsConfig.from_json_dict({"arch": ["1", 8, True]})
    with pytest.raises(TypeError, match="^arch: expected an integer, got True$"):
        EsConfig.from_json_dict({"arch": [1, 8, True]})


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


def _ranks_by_definition(f):
    """Centred ranks with each value at the mean of the sorted positions its ties take."""
    s, n = sorted(f), len(f)
    return np.array([np.mean([k for k in range(n) if s[k] == x]) for x in f]) / (n - 1) - 0.5


@pytest.mark.parametrize("f", [
    [0.0, -0.0, 1.0, -1.0],  # -0.0 and 0.0 tie
    [-0.0, 0.0],
    [3.0, 9.0],
    [9.0, 3.0],
    [7.0, 1.0, 7.0, 4.0, 1.0, 1.0, 7.0],  # ties at both ends
    [2.5] * 5,
])
def test_rank_normalize_matches_definition_bit_for_bit(f):
    assert rank_normalize(np.array(f)).tobytes() == _ranks_by_definition(f).tobytes()


def test_rank_normalize_matches_definition_on_tied_populations():
    gen = np.random.default_rng(2)
    for n in (32, 64):
        for _ in range(20):
            f = gen.integers(-3, 4, n) * 0.5 * gen.choice([-1.0, 1.0], n)  # ±0.0 ties too
            assert rank_normalize(f).tobytes() == _ranks_by_definition(list(f)).tobytes()


def test_es_config_refuses_non_finite_step_sizes():
    for field, value in [("l2", np.nan), ("l2", np.inf), ("lr", np.inf), ("sigma_es", np.inf)]:
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            EsConfig(**{field: value})


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
    with pytest.raises(NumericFailure, match="generation 0"):
        optimize_function(lambda t: float("nan"), 2, cfg, 0)


def oracle_score(center, env, noise, cfg, stream):
    """es_step's scorer written out per candidate: one evaluate() call each."""
    n = cfg.n_reevals if cfg.fitness_mode == "repro" else 1
    w = cfg.repro_weight

    def score(thetas):
        fits = []
        for c, theta in enumerate(thetas):
            fit = derive_stream(stream.master_seed, FIT_TAG, stream.index * cfg.popsize + c)
            seed = int(fit.generator().integers(0, 2**63))
            policy = PolicyParams(theta, center.arch, center.activation)
            r = evaluate(policy, env, noise, EvalConfig(n, seed)).returns
            fits.append(
                r[0] if n == 1 else w * float(np.mean(r)) - (1 - w) * float(np.std(r, ddof=1))
            )
        return fits

    return score


@pytest.mark.parametrize("mode", ["plain", "repro"])
@pytest.mark.parametrize(
    "env, noise, es",
    [
        (tradeoff_spread(), NoiseConfig(), dict(arch=(1, 2, 1), popsize=4, n_reevals=8)),
        (point_mass_nav(), NoiseConfig(kind="obs"), dict(arch=(4, 3, 2), popsize=4, n_reevals=4)),
        (
            point_mass_nav(),
            NoiseConfig(kind="param", resample="per-step"),
            dict(arch=(4, 3, 2), popsize=4, n_reevals=3),
        ),
        # 10 x 30 repro rollouts fill more than one block of the wide arch,
        # and candidate 8's rows 240..269 straddle its end
        (
            tradeoff_spread(),
            NoiseConfig(kind="reward"),
            dict(arch=WIDE_BANDIT_ARCH, popsize=10, n_reevals=30),
        ),
    ],
    ids=["tradeoff-none", "pm-obs", "pm-param-per-step", "tradeoff-reward-300-rows"],
)
def test_es_step_matches_per_candidate_oracle(env, noise, es, mode):
    cfg = EsConfig(fitness_mode=mode, sigma_es=0.5, generations=1, **es)
    # a population larger than one block puts a block boundary inside a candidate
    if cfg.popsize * cfg.n_reevals > block_rows(env, param_count(cfg.arch)):
        assert block_boundary_in_candidate(env, cfg) == 256
    state = EsState(center=init_center(cfg, 2), generation=3)
    stream = derive_stream(2, "es-gen", 3)
    got = es_step(state, cfg, env, noise, stream)
    theta, row = _generation(
        state.center.theta, 3, cfg, stream.generator(),
        oracle_score(state.center, env, noise, cfg, stream),
    )
    assert np.array_equal(got.center.theta, theta)
    assert got.history == [row]


def test_es_step_numeric_failure_names_first_failing_candidate_rollout():
    # sigma * eps overflows for |eps| > ~3: here the first failing candidate is
    # 8, which straddles the block boundary, at its rollout 24 (row 264)
    env = tradeoff_spread()
    noise = NoiseConfig(kind="reward", sigma=6e307)
    cfg = EsConfig(arch=WIDE_BANDIT_ARCH, popsize=10, fitness_mode="repro", n_reevals=30)
    assert 8 * 30 < block_boundary_in_candidate(env, cfg) < 9 * 30
    state = EsState(center=init_center(cfg, 10))
    stream = derive_stream(10, "es-gen", 0)
    with pytest.raises(NumericFailure) as got:
        es_step(state, cfg, env, noise, stream)
    # the oracle scores candidates 0..7 first, and their huge returns overflow
    # mean and std; es_step runs every rollout before it reduces any
    with pytest.raises(NumericFailure) as ref, np.errstate(all="ignore"):
        oracle = oracle_score(state.center, env, noise, cfg, stream)
        _generation(state.center.theta, 0, cfg, stream.generator(), oracle)
    assert (got.value.rollout_index, got.value.step) == (ref.value.rollout_index, ref.value.step)
    assert str(got.value) == str(ref.value)
    assert got.value.rollout_index == 24


def test_es_step_builds_no_seed_sequence(monkeypatch):
    # its generation stream, the eval seeds and every rollout stream come from vectorised passes
    cfg = small_cfg(popsize=8, fitness_mode="repro", n_reevals=40)
    state = EsState(center=init_center(cfg, 4), generation=2)
    built = count_seed_sequences(monkeypatch)
    es_step(state, cfg, tradeoff_spread(), NoiseConfig(kind="reward"), derive_stream(4, GEN_TAG, 2))
    assert built == []


def test_es_step_builds_only_its_generation_generator(monkeypatch):
    # the eval seeds and the bandit uniforms are computed from state words
    cfg = small_cfg(popsize=8, fitness_mode="repro", n_reevals=40)
    state = EsState(center=init_center(cfg, 4), generation=2)
    built = count_generators(monkeypatch)
    es_step(state, cfg, tradeoff_spread(), NoiseConfig(), derive_stream(4, GEN_TAG, 2))
    assert len(built) == 1


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


# theta and mean fitness after 3 R-ES generations (criterion 08 settings,
# seed 11), recorded from the per-candidate fitness loop the estimator-table
# fitness replaced; theta depends on the fitness only through its ranks
RES_THETA_HEX = (
    "0x1.cd23b1d874b3cp-2", "-0x1.01f069acdba69p+0", "0x1.07e065292ed35p-1",
    "-0x1.d2af89d96020ep+0", "-0x1.2634db5365a56p+0", "-0x1.3d65e240a40d5p+0",
    "-0x1.120b6cda138b8p-4", "0x1.1812a6a997c5cp+0", "-0x1.795ff1a7c0cbep-6",
    "-0x1.66874aec956e4p-9", "0x1.4107c6e81352cp-7", "-0x1.96669b37b1efep-6",
    "-0x1.28c7203efee36p-7", "-0x1.1777020f8f354p-7", "-0x1.b933e6b7b5f10p-7",
    "-0x1.5d8d8d70c4ee0p-11", "-0x1.ec14b53c9a2a2p-4", "-0x1.16befe76043cfp-4",
    "-0x1.f4e898f0bdefap-4", "-0x1.d2d73b54204fap-2", "0x1.66430ad69b545p-1",
    "-0x1.de0b64b6a0019p-2", "0x1.9cd5d4f691bbdp-4", "0x1.6244ba3603311p-3",
    "0x1.ac310c34c03fap-6",
)
RES_FITNESS_MEAN_HEX = ["0x1.c5a10ec8159dap+4", "0x1.c464082ef5775p+4", "0x1.c10a7324e8f1ap+4"]


def test_res_train_theta_golden():
    cfg = EsConfig(arch=(1, 8, 1), popsize=32, sigma_es=0.1, lr=0.05, generations=3,
                   fitness_mode="repro", n_reevals=32, repro_weight=0.5)
    state = train(cfg, tradeoff_spread(), NoiseConfig(), 11)
    assert tuple(t.hex() for t in state.center.theta) == RES_THETA_HEX
    assert [row["fitness_mean"].hex() for row in state.history] == RES_FITNESS_MEAN_HEX


def test_res_es_step_derives_each_tag_once_and_reuses_master_prefixes(monkeypatch):
    cfg = small_cfg(arch=WIDE_BANDIT_ARCH, fitness_mode="repro", popsize=20, n_reevals=30)
    # a generation of three blocks, and so a chunk of one generation
    assert cfg.popsize * cfg.n_reevals > 2 * block_boundary_in_candidate(tradeoff_spread(), cfg)
    calls, real = [], core.stream_states

    def counting(seeds, index, tag):
        calls.append(tag)
        return real(seeds, index, tag)

    monkeypatch.setattr(rollout, "stream_states", counting)
    monkeypatch.setattr(optim, "stream_states", counting)
    # the (seeds, tag) pool prefixes computed, by tag
    prefixes, real_entropy = [], core._tag_entropy
    monkeypatch.setattr(core, "_tag_entropy", lambda tag: prefixes.append(tag) or real_entropy(tag))
    core._prefix_pools.cache_clear()
    optim._chunk.cache_clear()
    state = EsState(center=init_center(cfg, 3))
    state = es_step(state, cfg, tradeoff_spread(), NoiseConfig(), derive_stream(3, GEN_TAG, 0))
    # one call per tag for all blocks of the generation; the generation
    # stream's words come from the chunk's own call
    assert sorted(calls) == sorted([ENV_TAG, FIT_TAG, GEN_TAG])
    assert set(prefixes) == {ENV_TAG, FIT_TAG, GEN_TAG, "es-init"}
    prefixes.clear()
    es_step(state, cfg, tradeoff_spread(), NoiseConfig(), derive_stream(3, GEN_TAG, 1))
    # only the new generation's eval seeds need a new prefix
    assert prefixes == [ENV_TAG]


# (env, noise, ES settings): runs whose chunks hold several generations
CHUNK_CASES = [
    (tradeoff_spread(), NoiseConfig(kind="reward"),
     dict(arch=(1, 8, 1), popsize=32, fitness_mode="repro", n_reevals=32)),
    (tradeoff_spread(), NoiseConfig(kind="action"), dict(arch=(1, 8, 1), popsize=64)),
    (point_mass_nav(episode_length=10), NoiseConfig(kind="obs"),
     dict(arch=(4, 3, 2), popsize=16, fitness_mode="repro", n_reevals=4)),
    (point_mass_nav(episode_length=10), NoiseConfig(kind="init-state"),
     dict(arch=(4, 3, 2), popsize=64)),
]
CHUNK_IDS = ["bandit-repro", "bandit-plain", "pm-repro", "pm-plain"]


def chunk_generations(env, cfg):
    """Generations per chunk under `block_rows`, asserted to be several."""
    n = cfg.n_reevals if cfg.fitness_mode == "repro" else 1
    size = block_rows(env, param_count(cfg.arch)) // (cfg.popsize * n)
    assert size > 1
    return size


@pytest.mark.parametrize("env, noise, es", CHUNK_CASES, ids=CHUNK_IDS)
def test_train_equals_es_steps_of_one_generation_chunks(monkeypatch, env, noise, es):
    size = chunk_generations(env, EsConfig(**es))
    for generations in (0, 1, size + 1):
        cfg = EsConfig(sigma_es=0.5, generations=generations, **es)
        got = train(cfg, env, noise, 5)
        with monkeypatch.context() as m:
            # a block of one row: every generation is a chunk of its own
            m.setattr(optim, "block_rows", lambda *args: 1)
            optim._chunk.cache_clear()
            want = EsState(center=init_center(cfg, 5))
            for g in range(generations):
                want = es_step(want, cfg, env, noise, derive_stream(5, GEN_TAG, g))
        optim._chunk.cache_clear()
        assert np.array_equal(got.center.theta, want.center.theta), generations
        assert got.history == want.history, generations
        assert got.generation == want.generation == generations


@pytest.mark.parametrize("env, noise, es", CHUNK_CASES, ids=CHUNK_IDS)
def test_train_derives_each_tag_once_per_chunk(monkeypatch, env, noise, es):
    size = chunk_generations(env, EsConfig(**es))
    # a chunk, then one generation more: two chunks
    cfg = EsConfig(generations=size + 1, **es)
    calls, real = [], core.stream_states

    def counting(seeds, index, tag):
        calls.append(tag)
        return real(seeds, index, tag)

    monkeypatch.setattr(rollout, "stream_states", counting)
    monkeypatch.setattr(optim, "stream_states", counting)
    optim._chunk.cache_clear()
    train(cfg, env, noise, 6)
    tags = [GEN_TAG, FIT_TAG, rollout.INIT_TAG if noise.kind == "init-state" else rollout.NOISE_TAG]
    if env.family == "bandit":
        tags.append(ENV_TAG)
    assert sorted(calls) == sorted(2 * tags)
