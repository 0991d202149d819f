import numpy as np
import pytest

from reference_rollout import observe, wrap_params, wrap_reset
from repro_rl.core import ConstantPolicy, PolicyParams, derive_stream, param_count
from repro_rl.envs import flat_mean_spread, point_mass_nav, transition
from repro_rl.noise import KINDS, NoiseConfig, default_sigma, n_init_dims
from repro_rl.rollout import rollout_once


def random_policy(seed=0, arch=(4, 16, 16, 2)):
    gen = np.random.default_rng(seed)
    return PolicyParams(theta=gen.standard_normal(param_count(arch)) * 0.5, arch=arch)


def test_default_sigmas():
    assert default_sigma("none") == 0.0
    assert default_sigma("action") == 0.2
    assert default_sigma("obs") == 0.05
    assert default_sigma("reward") == 0.5
    assert default_sigma("param") == 0.02
    assert default_sigma("init-state") == 0.1
    assert default_sigma("dynamics") == 0.01


def test_config_defaults_resolve_per_kind():
    for kind in KINDS:
        assert NoiseConfig(kind=kind).sigma == default_sigma(kind)


def test_config_validation():
    with pytest.raises(ValueError, match="valid kinds"):
        NoiseConfig(kind="cosmic")
    with pytest.raises(ValueError):
        NoiseConfig(kind="action", sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(kind="action", sigma=np.inf)
    with pytest.raises(ValueError):
        NoiseConfig(kind="none", sigma=0.5)
    with pytest.raises(ValueError):
        NoiseConfig(kind="param", resample="hourly")


def test_config_json_round_trip():
    c = NoiseConfig(kind="obs", sigma=0.3, obs_affects_reward=False)
    assert NoiseConfig.from_json_dict(c.to_json_dict()) == c
    # every field off its default
    off = NoiseConfig(kind="param", sigma=0.5, resample="per-step", obs_affects_reward=False)
    assert NoiseConfig.from_json_dict(off.to_json_dict()) == off
    # a missing sigma resolves to the kind's default
    assert NoiseConfig.from_json_dict({"kind": "reward"}).sigma == default_sigma("reward")


def test_sigma_zero_collapses_to_noiseless():
    env = point_mass_nav()
    pol = random_policy(1)
    base = rollout_once(pol, env, NoiseConfig(), 0, 0)
    for kind in ["action", "obs", "reward", "param", "init-state", "dynamics"]:
        noisy = rollout_once(pol, env, NoiseConfig(kind=kind, sigma=0.0), 0, 0)
        assert np.array_equal(noisy.rewards, base.rewards), kind
        assert np.array_equal(noisy.states, base.states), kind
        assert np.array_equal(noisy.actions, base.actions), kind


def test_reward_noise_is_additive_on_returns():
    env = point_mass_nav()
    pol = random_policy(2)
    nc = NoiseConfig(kind="reward", sigma=0.5)
    base = rollout_once(pol, env, NoiseConfig(), 3, 5)
    noisy = rollout_once(pol, env, nc, 3, 5)
    # replay the noise stream: one scalar draw per step
    gen = derive_stream(3, "noise", 5).generator()
    eps = np.array([gen.standard_normal() for _ in range(env.episode_length)])
    assert np.allclose(noisy.rewards, base.rewards + 0.5 * eps, atol=1e-12)
    assert np.array_equal(noisy.states, base.states)
    assert np.array_equal(noisy.actions, base.actions)


def test_init_state_noise_replay():
    env = point_mass_nav()
    nc = NoiseConfig(kind="init-state", sigma=0.1)
    state = wrap_reset(env, nc, derive_stream(7, "init", 4).generator())
    eps = derive_stream(7, "init", 4).generator().standard_normal(2)
    assert np.array_equal(state.vec[:2], 0.1 * eps)
    assert np.array_equal(state.vec[2:], np.zeros(2))
    assert n_init_dims(env) == 2
    assert n_init_dims(flat_mean_spread()) == 1


def test_action_noise_replay_and_clipping():
    env = point_mass_nav()
    # zero policy: executed action is exactly clip(sigma * eps)
    pol = PolicyParams(np.zeros(386), (4, 16, 16, 2))
    nc = NoiseConfig(kind="action", sigma=5.0)  # large sigma forces clipping
    traj = rollout_once(pol, env, nc, 11, 2)
    gen = derive_stream(11, "noise", 2).generator()
    eps = gen.standard_normal((env.episode_length, 2))
    assert np.array_equal(traj.actions, np.clip(5.0 * eps, -1.0, 1.0))
    assert np.any(np.abs(traj.actions) == 1.0)


def test_param_noise_replay():
    pol = random_policy(3)
    nc = NoiseConfig(kind="param", sigma=0.02)
    gen = derive_stream(0, "x", 0).generator()
    wrapped = wrap_params(pol, nc, gen)
    eps = derive_stream(0, "x", 0).generator().standard_normal(386)
    assert np.allclose(wrapped.theta, pol.theta + 0.02 * eps, atol=1e-15)
    assert wrapped.arch == pol.arch


def test_param_noise_per_episode_matches_manual_wrap():
    env = point_mass_nav()
    pol = random_policy(4)
    nc = NoiseConfig(kind="param", sigma=0.02)
    noisy = rollout_once(pol, env, nc, 5, 9)
    wrapped = wrap_params(pol, nc, derive_stream(5, "noise", 9).generator())
    manual = rollout_once(wrapped, env, NoiseConfig(), 5, 9)
    assert np.allclose(noisy.rewards, manual.rewards, atol=1e-9)
    assert np.allclose(noisy.actions, manual.actions, atol=1e-9)


def test_param_noise_misuse_errors():
    pol = random_policy(5)
    with pytest.raises(ValueError):
        wrap_params(pol, NoiseConfig(kind="action"), np.random.default_rng(0))
    with pytest.raises(TypeError):
        wrap_params(
            ConstantPolicy(np.zeros(2)), NoiseConfig(kind="param"), np.random.default_rng(0)
        )


def test_param_resample_modes_differ_over_long_episodes():
    env = point_mass_nav()
    pol = random_policy(6)
    per_episode = rollout_once(pol, env, NoiseConfig(kind="param", sigma=0.1), 1, 0)
    per_step = rollout_once(
        pol, env, NoiseConfig(kind="param", sigma=0.1, resample="per-step"), 1, 0
    )
    assert not np.array_equal(per_episode.actions, per_step.actions)


def test_obs_noise_reward_arguments():
    env = point_mass_nav()
    pol = random_policy(7)
    goal = np.array(env.goal)

    on = rollout_once(pol, env, NoiseConfig(kind="obs", sigma=0.05), 2, 1)
    # reward at t uses the noisy next observation, so it matches the recorded
    # observation at t+1 (position part)
    for t in range(env.episode_length - 1):
        assert on.rewards[t] == pytest.approx(
            -np.linalg.norm(on.observations[t + 1, :2] - goal), abs=1e-9
        )

    off = rollout_once(
        pol, env, NoiseConfig(kind="obs", sigma=0.05, obs_affects_reward=False), 2, 1
    )
    # with the flag off the reward sees the true state
    for t in range(env.episode_length - 1):
        assert off.rewards[t] == pytest.approx(
            -np.linalg.norm(off.states[t + 1, :2] - goal), abs=1e-9
        )
    # the flag changes rewards but not the observation sequence
    assert np.array_equal(on.observations, off.observations)
    assert not np.allclose(on.rewards, off.rewards)


def test_obs_noise_true_states_follow_dynamics():
    env = point_mass_nav()
    pol = random_policy(8)
    traj = rollout_once(pol, env, NoiseConfig(kind="obs", sigma=0.05), 4, 2)
    # true states evolve by the clean transition under the executed actions
    for t in range(env.episode_length - 1):
        nxt = transition(env, traj.states[t], traj.actions[t])
        assert np.allclose(traj.states[t + 1], nxt, atol=1e-9)


def test_dynamics_noise_replay():
    env = point_mass_nav()
    pol = random_policy(9)
    nc = NoiseConfig(kind="dynamics", sigma=0.01)
    traj = rollout_once(pol, env, nc, 6, 3)
    gen = derive_stream(6, "noise", 3).generator()
    eps = gen.standard_normal((env.episode_length, 4))
    for t in range(env.episode_length - 1):
        nxt = transition(env, traj.states[t], traj.actions[t])
        assert np.allclose(traj.states[t + 1], nxt + 0.01 * eps[t], atol=1e-9)


def test_observe_only_draws_for_obs_kind():
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    out = observe(NoiseConfig(kind="reward"), vec, None)
    assert np.array_equal(out, vec)
    assert out is not vec
    gen = derive_stream(0, "n", 0).generator()
    noisy = observe(NoiseConfig(kind="obs", sigma=0.05), vec, gen)
    eps = derive_stream(0, "n", 0).generator().standard_normal(4)
    assert np.array_equal(noisy, vec + 0.05 * eps)
