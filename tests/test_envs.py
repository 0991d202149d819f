import dataclasses

import numpy as np
import pytest

from repro_rl.core import ConstantPolicy, ShapeError
from repro_rl.envs import (
    BUILTIN_ENVS,
    EnvConfig,
    _check_action,
    descriptor,
    descriptor_dim,
    env_reset,
    flat_mean_spread,
    point_mass_nav,
    reward,
    tradeoff_spread,
    transition,
)
from repro_rl.noise import NoiseConfig
from repro_rl.rollout import rollout_once


def bandit_reward(cfg, action, u):
    """Reward of the one bandit step from the reset state at env draw u."""
    vec = env_reset(cfg)
    action = _check_action(cfg, np.array([action]))
    return reward(cfg, vec, action, transition(cfg, vec, action), u)


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
    off = EnvConfig(env_id="x", family="bandit", episode_length=3, state_dim=1, action_dim=1,
                    dt=0.5, v_max=2.0, start=(1.0, 2.0), goal=(3.0, 4.0), mean_base=1.0,
                    mean_slope=2.0, spread_max=3.0)
    d = off.to_json_dict()
    assert d["start"] == [1.0, 2.0] and d["goal"] == [3.0, 4.0]
    assert EnvConfig.from_json_dict(d) == off
    with pytest.raises(ValueError, match="^EnvConfig needs 'env_id', 'state_dim', 'action_dim'$"):
        EnvConfig.from_json_dict({"family": "bandit", "episode_length": 1})


def test_env_config_reads_a_built_in_env_by_name_alone():
    for name, make in BUILTIN_ENVS.items():
        assert EnvConfig.from_json_dict({"name": name}) == make()
    for d, message in [({"name": "maze"}, "unknown env 'maze'"),
                       ({"name": ["x"]}, r"unknown env \['x'\]"),
                       ({"name": "point-mass-nav", "episode_length": 5},
                        r"built-in env 'point-mass-nav' takes no other key, "
                        r"got \['episode_length'\]")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            EnvConfig.from_json_dict(d)


# name -> (env, field changes, the field the refusal names)
BAD_ENVS = {
    "point-mass-no-goal": (point_mass_nav(), {"goal": ()}, "goal"),
    "point-mass-start-1": (point_mass_nav(), {"start": (0.0,)}, "start"),
    "point-mass-goal-nan": (point_mass_nav(), {"goal": (1.0, np.nan)}, "goal"),
    "point-mass-state-dim-3": (point_mass_nav(), {"state_dim": 3}, "state_dim"),
    "point-mass-action-dim-1": (point_mass_nav(), {"action_dim": 1}, "action_dim"),
    "dt-nan": (point_mass_nav(), {"dt": np.nan}, "dt"),
    "v-max-inf": (point_mass_nav(), {"v_max": np.inf}, "v_max"),
    "v-max-negative": (point_mass_nav(), {"v_max": -1.0}, "v_max"),
    "v-max-zero": (point_mass_nav(), {"v_max": 0.0}, "v_max"),
    "dt-zero": (point_mass_nav(), {"dt": 0.0}, "dt"),
    "dt-negative": (point_mass_nav(), {"dt": -0.1}, "dt"),
    "bandit-state-dim-2": (tradeoff_spread(), {"state_dim": 2}, "state_dim"),
    "bandit-action-dim-2": (tradeoff_spread(), {"action_dim": 2}, "action_dim"),
    "mean-base-nan": (tradeoff_spread(), {"mean_base": np.nan}, "mean_base"),
    "spread-max-minus-inf": (tradeoff_spread(), {"spread_max": -np.inf}, "spread_max"),
}


@pytest.mark.parametrize("name", list(BAD_ENVS))
def test_env_config_refuses_misshapen_point_mass_and_non_finite_floats(name):
    env, changes, field = BAD_ENVS[name]
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(env, **changes)


def test_flat_mean_spread_is_tradeoff_spread_at_slope_zero():
    flat = flat_mean_spread(3.0, 4.0)
    assert flat == dataclasses.replace(tradeoff_spread(3.0, 0.0, 4.0), env_id="flat-mean-spread")
    for a, u in [(-1.0, 0.5), (0.25, -1.0), (1.0, 0.0)]:
        assert bandit_reward(flat, a, u) == 3.0 + 4.0 * a * u


def test_reset_states():
    assert np.array_equal(env_reset(point_mass_nav()), np.zeros(4))
    assert np.array_equal(env_reset(point_mass_nav(start=(2.0, -1.0))), [2.0, -1.0, 0.0, 0.0])
    assert np.array_equal(env_reset(flat_mean_spread()), np.zeros(1))


def test_point_mass_kinematics_hand_recurrence():
    # independent recurrence: v' = clip_norm(v + a*dt, v_max), p' = p + v'*dt
    cfg = point_mass_nav()
    action = _check_action(cfg, np.array([1.0, 0.0]))
    vec = env_reset(cfg)
    p = np.zeros(2)
    v = np.zeros(2)
    for t in range(cfg.episode_length):
        next_vec = transition(cfg, vec, action)
        r = reward(cfg, vec, action, next_vec, 0.0)
        vec = next_vec
        v = v + action * cfg.dt
        speed = np.linalg.norm(v)
        if speed > cfg.v_max:
            v = v * (cfg.v_max / speed)
        p = p + v * cfg.dt
        assert np.allclose(vec[:2], p, atol=1e-12)
        assert np.allclose(vec[2:], v, atol=1e-12)
        assert r == pytest.approx(-np.linalg.norm(p - np.array(cfg.goal)), abs=1e-12)
    # speed caps at 1 after 10 steps: x = 0.1*(0.1+...+1.0) + 90*0.1 = 9.55
    assert vec[0] == pytest.approx(9.55, abs=1e-12)
    assert vec[1] == 0.0


def test_point_mass_speed_never_exceeds_cap():
    cfg = point_mass_nav()
    gen = np.random.default_rng(0)
    vec = env_reset(cfg)
    for _ in range(cfg.episode_length):
        vec = transition(cfg, vec, _check_action(cfg, gen.uniform(-1, 1, size=2)))
        assert np.linalg.norm(vec[2:]) <= cfg.v_max + 1e-12


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
    assert ts.episode_length == 1
    assert bandit_reward(ts, 1.0, 1.0) == 120.0
    assert bandit_reward(ts, 1.0, -1.0) == 20.0
    assert bandit_reward(flat_mean_spread(), 1.0, 0.5) == 85.0


def test_bandit_zero_arm_is_noise_free():
    fm = flat_mean_spread()
    for u in [-1.0, -0.3, 0.0, 0.9]:
        assert bandit_reward(fm, 0.0, u) == 60.0


def test_action_validation():
    cfg = point_mass_nav()
    with pytest.raises(ShapeError):
        _check_action(cfg, np.zeros(3))
    with pytest.raises(ValueError):
        _check_action(cfg, np.array([1.5, 0.0]))
    with pytest.raises(ValueError):
        _check_action(cfg, np.array([np.nan, 0.0]))
    assert np.array_equal(_check_action(cfg, [1.0, -1.0]), [1.0, -1.0])


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
