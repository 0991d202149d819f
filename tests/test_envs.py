import numpy as np
import pytest

from repro_rl.core import ConstantPolicy, EpisodeFinished, ShapeError
from repro_rl.envs import (
    EnvConfig,
    descriptor,
    descriptor_dim,
    env_reset,
    env_step,
    flat_mean_spread,
    point_mass_nav,
    tradeoff_spread,
)
from repro_rl.noise import NoiseConfig
from repro_rl.rollout import rollout_once


class FixedUniform:
    """Generator stand-in that returns a scripted uniform value."""

    def __init__(self, value):
        self.value = value

    def uniform(self, lo, hi):
        return self.value


def test_factory_fields():
    pm = point_mass_nav()
    assert pm.family == "point-mass"
    assert (pm.state_dim, pm.action_dim, pm.episode_length) == (4, 2, 100)
    assert pm.dt == 0.1 and pm.v_max == 1.0
    assert pm.goal == (1.0, 1.0)
    fm = flat_mean_spread()
    assert fm.family == "bandit"
    assert (fm.mean_base, fm.mean_slope, fm.spread_max) == (60.0, 0.0, 50.0)
    ts = tradeoff_spread()
    assert (ts.mean_base, ts.mean_slope, ts.spread_max) == (60.0, 10.0, 50.0)


def test_env_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        EnvConfig(env_id="x", family="maze", episode_length=1, state_dim=1, action_dim=1)
    with pytest.raises(ValueError):
        EnvConfig(env_id="x", family="bandit", episode_length=0, state_dim=1, action_dim=1)
    pm = point_mass_nav()
    assert EnvConfig.from_json_dict(pm.to_json_dict()) == pm
    # every field off its default
    off = EnvConfig(env_id="x", family="bandit", episode_length=3, state_dim=2, action_dim=2,
                    dt=0.5, v_max=2.0, start=(1.0, 2.0), goal=(3.0, 4.0), mean_base=1.0,
                    mean_slope=2.0, spread_max=3.0)
    d = off.to_json_dict()
    assert d["start"] == [1.0, 2.0] and d["goal"] == [3.0, 4.0]
    assert EnvConfig.from_json_dict(d) == off
    with pytest.raises(TypeError, match="env_id"):
        EnvConfig.from_json_dict({"family": "bandit", "episode_length": 1})


def test_reset_states():
    pm_state = env_reset(point_mass_nav())
    assert np.array_equal(pm_state.vec, np.zeros(4))
    assert pm_state.timestep == 0
    b_state = env_reset(flat_mean_spread())
    assert np.array_equal(b_state.vec, np.zeros(1))


def test_point_mass_kinematics_hand_recurrence():
    # independent recurrence: v' = clip_norm(v + a*dt, v_max), p' = p + v'*dt
    cfg = point_mass_nav()
    action = np.array([1.0, 0.0])
    state = env_reset(cfg)
    p = np.zeros(2)
    v = np.zeros(2)
    for t in range(cfg.episode_length):
        state, r, done = env_step(cfg, state, action, None)
        v = v + action * cfg.dt
        speed = np.linalg.norm(v)
        if speed > cfg.v_max:
            v = v * (cfg.v_max / speed)
        p = p + v * cfg.dt
        assert np.allclose(state.vec[:2], p, atol=1e-12)
        assert np.allclose(state.vec[2:], v, atol=1e-12)
        assert r == pytest.approx(-np.linalg.norm(p - np.array(cfg.goal)), abs=1e-12)
    assert done
    # speed caps at 1 after 10 steps: x = 0.1*(0.1+...+1.0) + 90*0.1 = 9.55
    assert state.vec[0] == pytest.approx(9.55, abs=1e-12)
    assert state.vec[1] == 0.0


def test_point_mass_speed_never_exceeds_cap():
    cfg = point_mass_nav()
    gen = np.random.default_rng(0)
    state = env_reset(cfg)
    for _ in range(cfg.episode_length):
        a = gen.uniform(-1, 1, size=2)
        state, _, _ = env_step(cfg, state, a, None)
        assert np.linalg.norm(state.vec[2:]) <= cfg.v_max + 1e-12


def test_point_mass_zero_action_return_closed_form():
    # parked at the origin, every reward is -sqrt(2)
    cfg = point_mass_nav()
    traj = rollout_once(ConstantPolicy(np.zeros(2)), cfg, NoiseConfig(), 0)
    assert traj.episode_return == pytest.approx(-100 * np.sqrt(2), abs=1e-9)
    assert np.allclose(traj.rewards, -np.sqrt(2), atol=1e-12)


def test_point_mass_translation_invariance():
    a = point_mass_nav(start=(0.0, 0.0), goal=(1.0, 1.0))
    b = point_mass_nav(start=(5.0, -3.0), goal=(6.0, -2.0))
    ta = rollout_once(ConstantPolicy(np.array([0.3, -0.6])), a, NoiseConfig(), 0)
    tb = rollout_once(ConstantPolicy(np.array([0.3, -0.6])), b, NoiseConfig(), 0)
    assert np.allclose(ta.rewards, tb.rewards, atol=1e-12)
    assert np.allclose(ta.states[:, 2:], tb.states[:, 2:], atol=1e-12)


def test_bandit_reward_formula_with_scripted_uniform():
    ts = tradeoff_spread()
    state = env_reset(ts)
    _, r, done = env_step(ts, state, np.array([1.0]), FixedUniform(1.0))
    assert r == 120.0 and done
    state = env_reset(ts)
    _, r, _ = env_step(ts, state, np.array([1.0]), FixedUniform(-1.0))
    assert r == 20.0
    state = env_reset(flat_mean_spread())
    _, r, _ = env_step(flat_mean_spread(), state, np.array([1.0]), FixedUniform(0.5))
    assert r == 85.0


def test_bandit_zero_arm_is_noise_free():
    fm = flat_mean_spread()
    for u in [-1.0, -0.3, 0.0, 0.9]:
        state = env_reset(fm)
        _, r, _ = env_step(fm, state, np.array([0.0]), FixedUniform(u))
        assert r == 60.0


def test_step_past_horizon_raises():
    fm = flat_mean_spread()
    state = env_reset(fm)
    state, _, done = env_step(fm, state, np.array([0.0]), FixedUniform(0.0))
    assert done
    with pytest.raises(EpisodeFinished):
        env_step(fm, state, np.array([0.0]), FixedUniform(0.0))


def test_action_validation():
    cfg = point_mass_nav()
    state = env_reset(cfg)
    with pytest.raises(ShapeError):
        env_step(cfg, state, np.zeros(3), None)
    with pytest.raises(ValueError):
        env_step(cfg, state, np.array([1.5, 0.0]), None)
    with pytest.raises(ValueError):
        env_step(cfg, state, np.array([np.nan, 0.0]), None)


def test_descriptor_point_mass_is_final_position():
    cfg = point_mass_nav()
    traj = rollout_once(ConstantPolicy(np.array([1.0, 0.0])), cfg, NoiseConfig(), 0)
    d = descriptor(cfg, traj)
    assert d.shape == (2,)
    assert np.array_equal(d, traj.final_state[:2])
    assert descriptor_dim(cfg) == 2


def test_descriptor_bandit_is_executed_action():
    cfg = tradeoff_spread()
    traj = rollout_once(ConstantPolicy(np.array([0.7])), cfg, NoiseConfig(), 0)
    assert np.array_equal(descriptor(cfg, traj), np.array([0.7]))
    assert descriptor_dim(cfg) == 1


def test_descriptor_rejects_incomplete_trajectory():
    cfg = point_mass_nav()
    traj = rollout_once(ConstantPolicy(np.zeros(2)), cfg, NoiseConfig(), 0)
    traj.rewards = traj.rewards[:-1]
    with pytest.raises(ValueError):
        descriptor(cfg, traj)
