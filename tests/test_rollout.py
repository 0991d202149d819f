import warnings

import numpy as np
import pytest

from reference_rollout import count_generators, count_seed_sequences, reference_rollout
from tracing import traced_peak
from repro_rl.core import ConstantPolicy, NumericFailure, PolicyParams, param_count
from repro_rl.envs import flat_mean_spread, point_mass_nav, tradeoff_spread
from repro_rl.noise import NoiseConfig
from repro_rl import rollout
from repro_rl.rollout import BLOCK_VALUES, EvalConfig, _rollouts, block_rows, evaluate, rollout_once

ALL_KINDS = ["none", "action", "obs", "reward", "param", "init-state", "dynamics"]


def random_policy(seed=0, arch=(4, 16, 16, 2)):
    gen = np.random.default_rng(seed)
    return PolicyParams(theta=gen.standard_normal(param_count(arch)) * 0.5, arch=arch)


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(n_evals=0)
    with pytest.raises(ValueError, match="master_seed"):
        EvalConfig(master_seed=-1)


def test_rollout_once_is_deterministic():
    env = point_mass_nav()
    pol = random_policy(1)
    for kind in ALL_KINDS:
        a = rollout_once(pol, env, NoiseConfig(kind=kind), 3, 7)
        b = rollout_once(pol, env, NoiseConfig(kind=kind), 3, 7)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.states, b.states)
        assert a.episode_return == b.episode_return


def test_noiseless_point_mass_rollouts_identical_across_indices():
    env = point_mass_nav()
    pol = random_policy(2)
    rec = evaluate(pol, env, NoiseConfig(), EvalConfig(n_evals=16, master_seed=0))
    assert np.all(rec.returns == rec.returns[0])
    assert np.all(rec.descriptors == rec.descriptors[0])


TRAJ_FIELDS = ("states", "observations", "actions", "rewards", "final_state")


def test_fast_and_generic_paths_agree_on_point_mass():
    env = point_mass_nav()
    pol = random_policy(3)
    for kind in ALL_KINDS:
        nc = NoiseConfig(kind=kind)
        fast = rollout_once(pol, env, nc, 5, 2)
        slow = reference_rollout(pol, env, nc, 5, 2)
        for field in TRAJ_FIELDS:
            assert np.array_equal(getattr(fast, field), getattr(slow, field)), (kind, field)
        assert fast.episode_return == slow.episode_return, kind


def test_bandit_engine_matches_oracle_exactly():
    env = tradeoff_spread()
    for pol in [random_policy(4, arch=(1, 8, 1)), ConstantPolicy(np.array([0.7]))]:
        for kind in ALL_KINDS:
            if kind == "param" and isinstance(pol, ConstantPolicy):
                continue
            nc = NoiseConfig(kind=kind)
            rec = evaluate(
                pol, env, nc, EvalConfig(n_evals=32, master_seed=11, record_state_marginal=True)
            )
            for i in range(32):
                traj = reference_rollout(pol, env, nc, 11, i)
                assert rec.returns[i] == traj.episode_return, kind
                assert np.array_equal(rec.descriptors[i], traj.actions[0]), kind
                assert np.array_equal(rec.state_marginals[i], traj.states.reshape(-1)), kind


NOISE_CASES = [NoiseConfig(kind=k) for k in ALL_KINDS] + [
    NoiseConfig(kind="param", resample="per-step")
]
# (label, env, arch, noise cases). The wide hidden layer of the eval sweep and
# a one-unit hidden layer, whose one-output layer keeps a row-major dot
# product, run under the noise kinds that change their inputs or weights per
# row.
ENV_CASES = [
    ("point-mass", point_mass_nav, (4, 16, 16, 2), NOISE_CASES),
    ("bandit", tradeoff_spread, (1, 8, 1), NOISE_CASES),
    ("pm-4-32-2", point_mass_nav, (4, 32, 2), [NoiseConfig(kind="obs"), NoiseConfig(kind="param")]),
    ("pm-4-8-1-2", point_mass_nav, (4, 8, 1, 2), [NoiseConfig(kind="obs"), NoiseConfig(kind="param")]),
]
ROW_CASES = [
    pytest.param(noise, make_env, arch, id=f"{noise.kind}-{noise.resample}-{label}")
    for label, make_env, arch, noises in ENV_CASES
    for noise in noises
]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("noise,make_env,arch", ROW_CASES)
def test_rollout_rows_bit_identical_across_batch_size_and_jobs(noise, make_env, arch, activation):
    # N=300 crosses the point-mass engine's 256-row block boundary.
    env = make_env()
    gen = np.random.default_rng(21)
    pol = PolicyParams(0.5 * gen.standard_normal(param_count(arch)), arch, activation)
    big = evaluate(pol, env, noise, EvalConfig(1024, 13, record_state_marginal=True))
    for n in [1, 7, 256, 300, 1024]:
        for jobs in [1, 8] if n < 1024 else [8]:
            rec = evaluate(pol, env, noise, EvalConfig(n, 13, record_state_marginal=True), jobs=jobs)
            assert np.array_equal(rec.returns, big.returns[:n]), (n, jobs)
            assert np.array_equal(rec.descriptors, big.descriptors[:n]), (n, jobs)
            assert np.array_equal(rec.state_marginals, big.state_marginals[:n]), (n, jobs)
    for i in [0, 6, 299]:
        ref = reference_rollout(pol, env, noise, 13, i)
        assert big.returns[i] == ref.episode_return, i
        assert np.array_equal(big.state_marginals[i], ref.states.reshape(-1)), i
        one = rollout_once(pol, env, noise, 13, i)
        for field in TRAJ_FIELDS:
            assert np.array_equal(getattr(one, field), getattr(ref, field)), (i, field)


@pytest.mark.parametrize(
    "make_env,policy",
    [
        (point_mass_nav, PolicyParams(np.zeros(param_count((3, 8, 2))), (3, 8, 2))),
        (point_mass_nav, PolicyParams(np.zeros(param_count((4, 8, 3))), (4, 8, 3))),
        (point_mass_nav, ConstantPolicy(np.array([1.5, 0.0]))),
        (tradeoff_spread, PolicyParams(np.zeros(param_count((2, 8, 1))), (2, 8, 1))),
        (tradeoff_spread, PolicyParams(np.zeros(param_count((1, 8, 2))), (1, 8, 2))),
        (tradeoff_spread, ConstantPolicy(np.array([-1.2]))),
    ],
    ids=["pm-inputs", "pm-outputs", "pm-out-of-box", "bandit-inputs", "bandit-outputs",
         "bandit-out-of-box"],
)
def test_evaluate_rejects_policies_that_do_not_fit_the_env(make_env, policy):
    with pytest.raises(ValueError):
        evaluate(policy, make_env(), NoiseConfig(), EvalConfig(n_evals=4))
    with pytest.raises(ValueError):
        rollout_once(policy, make_env(), NoiseConfig(), 0)


def test_jobs_do_not_change_results():
    env = point_mass_nav()
    pol = random_policy(6)
    nc = NoiseConfig(kind="init-state")
    serial = evaluate(pol, env, nc, EvalConfig(n_evals=64, master_seed=9), jobs=1)
    threaded = evaluate(pol, env, nc, EvalConfig(n_evals=64, master_seed=9), jobs=8)
    assert np.array_equal(serial.returns, threaded.returns)
    assert np.array_equal(serial.descriptors, threaded.descriptors)


def test_prefix_property_of_batches():
    env = tradeoff_spread()
    pol = ConstantPolicy(np.array([0.5]))
    nc = NoiseConfig(kind="reward")
    small = evaluate(pol, env, nc, EvalConfig(n_evals=16, master_seed=4))
    large = evaluate(pol, env, nc, EvalConfig(n_evals=64, master_seed=4))
    assert np.array_equal(small.returns, large.returns[:16])
    assert np.array_equal(small.descriptors, large.descriptors[:16])


def test_reported_mean_bound_flat_mean_spread():
    # arm 1, N=256: spread Uniform(-50,50) has std 50/sqrt(3)
    rec = evaluate(
        ConstantPolicy(np.array([1.0])),
        flat_mean_spread(),
        NoiseConfig(),
        EvalConfig(n_evals=256, master_seed=0),
    )
    bound = 3 * (50 / np.sqrt(3 * 256))
    assert abs(float(np.mean(rec.returns)) - 60.0) <= bound


def test_state_marginal_recording():
    env = point_mass_nav()
    pol = random_policy(7)
    rec = evaluate(
        pol, env, NoiseConfig(), EvalConfig(n_evals=3, master_seed=0, record_state_marginal=True)
    )
    assert rec.state_marginals.shape == (3, 100 * 4)
    traj = rollout_once(pol, env, NoiseConfig(), 0, 0)
    assert np.array_equal(rec.state_marginals[0], traj.states.ravel())
    rec2 = evaluate(pol, env, NoiseConfig(), EvalConfig(n_evals=3, master_seed=0))
    assert rec2.state_marginals is None


def test_numeric_failure_carries_indices():
    env = point_mass_nav()
    pol = random_policy(8)
    nc = NoiseConfig(kind="dynamics", sigma=1e308)
    # NumericFailure is the only signal: no overflow RuntimeWarning escapes.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure) as exc:
            evaluate(pol, env, nc, EvalConfig(n_evals=4, master_seed=0))
    assert exc.value.step >= 0
    assert exc.value.rollout_index >= 0
    # the first failing rollout and step are the ones a rollout-by-rollout
    # reference loop hits first
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(4):
            try:
                reference_rollout(pol, env, nc, 0, i)
            except NumericFailure as ref:
                assert (exc.value.rollout_index, exc.value.step) == (i, ref.step)
                break
        else:
            pytest.fail("the reference loop found no failing rollout")
    assert f"rollout {exc.value.rollout_index}" in str(exc.value)
    assert f"step {exc.value.step}" in str(exc.value)


def test_numeric_failure_in_bandit_reward():
    env = flat_mean_spread()
    pol = ConstantPolicy(np.array([1.0]))
    # sigma*eps overflows once some |eps| > 1.797; 16 draws guarantee a hit here
    nc = NoiseConfig(kind="reward", sigma=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure) as exc:
            evaluate(pol, env, nc, EvalConfig(n_evals=16, master_seed=0))
    assert exc.value.step == 0
    assert 0 <= exc.value.rollout_index < 16


def test_eval_record_json_round_trip():
    from repro_rl.core import EvalRecord

    env = tradeoff_spread()
    rec = evaluate(
        ConstantPolicy(np.array([0.3])),
        env,
        NoiseConfig(kind="reward"),
        EvalConfig(n_evals=8, master_seed=2, record_state_marginal=True),
        policy_id="arm-0.3",
    )
    back = EvalRecord.from_json_dict(rec.to_json_dict())
    assert back.policy_id == "arm-0.3"
    assert back.env_id == env.env_id
    assert back.noise == rec.noise
    assert back.master_seed == 2
    assert np.array_equal(back.returns, rec.returns)
    assert np.array_equal(back.descriptors, rec.descriptors)
    assert np.array_equal(back.state_marginals, rec.state_marginals)


@pytest.mark.parametrize(
    "noise", NOISE_CASES, ids=[f"{n.kind}-{n.resample}" for n in NOISE_CASES]
)
def test_evaluate_builds_no_seed_sequence(monkeypatch, noise):
    # a block's streams come from one vectorised pass, not one SeedSequence each
    pol = random_policy(9, arch=(1, 8, 1))
    built = count_seed_sequences(monkeypatch)
    rec = evaluate(pol, tradeoff_spread(), noise, EvalConfig(256, 3))
    assert rec.n_evals == 256
    assert built == []


def test_bandit_evaluate_builds_no_generator(monkeypatch):
    # the bandit's uniforms are computed from the block's state words
    pol = random_policy(9, arch=(1, 8, 1))
    built = count_generators(monkeypatch)
    rec = evaluate(pol, tradeoff_spread(), NoiseConfig(), EvalConfig(256, 3))
    assert rec.n_evals == 256
    assert built == []


@pytest.mark.parametrize("env", [point_mass_nav(), tradeoff_spread()])
@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1)])
def test_rollout_once_rejects_negative_seed_or_index(env, seed, index):
    # also where the rollout would draw no stream (point-mass without noise)
    pol = ConstantPolicy([0.5] * env.action_dim)
    with pytest.raises(ValueError, match="non-negative"):
        rollout_once(pol, env, NoiseConfig(), seed, index)


def test_point_mass_blocks_keep_256_rows():
    # evaluate's rows share the policy's parameters; a training generation
    # of the workloads' point-mass archs (popsize 8) fits one block
    env = point_mass_nav()
    assert block_rows(env) == 256
    for arch in [(4, 16, 16, 2), (4, 32, 2)]:
        assert block_rows(env, param_count(arch)) >= 8


def test_one_step_bandit_generation_is_one_block(monkeypatch):
    # an R-ES generation of criterion 08: 32 candidates x 32 re-evaluations
    env, arch = tradeoff_spread(), (1, 8, 1)
    assert block_rows(env, param_count(arch)) >= 32 * 32
    blocks, real = [], rollout._run_block
    monkeypatch.setattr(rollout, "_run_block", lambda *a: blocks.append(len(a[4])) or real(*a))
    thetas = np.zeros((32, param_count(arch)))
    _rollouts(random_policy(1, arch=arch), env, NoiseConfig(), list(range(32)), 32, thetas)
    assert blocks == [1024]


@pytest.mark.parametrize("arch", [(1, 8, 1), (1, 232, 1), (1, 4096, 1), (1, 512, 512, 1)])
@pytest.mark.parametrize("make_env", [tradeoff_spread, point_mass_nav])
def test_block_rows_stay_within_the_value_budget(make_env, arch):
    env = make_env()
    arch = (env.state_dim, *arch[1:-1], env.action_dim)
    per_row = env.episode_length * (env.state_dim + env.action_dim + 1) + param_count(arch)
    rows = block_rows(env, param_count(arch))
    # as many rows as fit, and at least one even when one row does not
    assert rows == max(1, BLOCK_VALUES // per_row)
    assert rows * per_row <= BLOCK_VALUES or rows == 1
    # wider rows never get more rows
    assert rows <= block_rows(env)


@pytest.mark.parametrize(
    "noise, rows",
    [(NoiseConfig(kind="obs"), [600]), (NoiseConfig(kind="param"), [256, 256, 88]),
     (NoiseConfig(kind="param", resample="per-step"), [120] * 5)],
    ids=["obs", "param", "param-per-step"],
)
def test_parameter_noise_rows_count_their_own_parameters(monkeypatch, noise, rows):
    # under parameter noise each row carries its own 697 perturbed parameters
    # (700 values a row); per-step noise adds its draws and a generator
    blocks, real = [], rollout._run_block
    monkeypatch.setattr(rollout, "_run_block", lambda *a: blocks.append(len(a[4])) or real(*a))
    pol = random_policy(2, arch=(1, 232, 1))
    evaluate(pol, tradeoff_spread(), noise, EvalConfig(600, 1))
    assert blocks == rows


def test_block_rows_at_least_one_for_any_episode_length():
    env = point_mass_nav(episode_length=10 * BLOCK_VALUES)
    assert block_rows(env) == block_rows(env, 10**9) == 1


@pytest.mark.parametrize("values", [1, 700, 5000])
@pytest.mark.parametrize(
    "make_env, noise",
    [
        (tradeoff_spread, NoiseConfig(kind="reward")),
        (point_mass_nav, NoiseConfig(kind="obs")),
        (point_mass_nav, NoiseConfig(kind="param", resample="per-step")),
    ],
    ids=["bandit-reward", "pm-obs", "pm-param-per-step"],
)
def test_rollouts_bits_do_not_depend_on_the_block_budget(monkeypatch, make_env, noise, values):
    env = make_env(episode_length=5) if make_env is point_mass_nav else make_env()
    pol = random_policy(4, arch=(env.state_dim, 6, env.action_dim))
    thetas = pol.theta + 0.1 * np.random.default_rng(5).standard_normal((3, pol.theta.size))
    want = _rollouts(pol, env, noise, [3, 4, 5], 40, thetas, True)
    monkeypatch.setattr(rollout, "BLOCK_VALUES", values)
    got = _rollouts(pol, env, noise, [3, 4, 5], 40, thetas, True)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("marginals", [False, True])
def test_evaluate_holds_one_block_at_a_time(marginals):
    # Four 256-row point-mass blocks under obs noise peak at one block plus the
    # outputs of the 768 more rollouts and 64 KiB of slack: the state words a
    # tag keeps for the whole call, 32 bytes per rollout and tag (48 KiB for
    # two tags), and rounding.
    env, noise = point_mass_nav(), NoiseConfig(kind="obs")
    pol, rows = random_policy(3), block_rows(point_mass_nav())
    run = lambda n: evaluate(pol, env, noise, EvalConfig(n, 7, marginals))
    run(8)  # warm caches outside the traced calls
    one, four = (traced_peak(lambda: run(n))[1] for n in (rows, 4 * rows))
    per_row = 8 * (1 + 2 + (env.episode_length * env.state_dim if marginals else 0))
    assert four <= one + 3 * rows * per_row + 2**16, (one, four)
