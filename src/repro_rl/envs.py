"""Small deterministic-core environments for reproducibility experiments.

Two families:

* point-mass: 2-D navigation, state (px, py, vx, vy), acceleration actions,
  reward is the negative distance of the new position to the goal.
* bandit: single-step envs whose reward mean and spread both depend on the
  action, r = mean_base + mean_slope * a + spread_max * a * U with
  U ~ Uniform(-1, 1). The spread term makes return dispersion controllable
  by the policy, which is what the trade-off metrics need.

`transition` and `reward` index features on the first axis: one state is a
vector, and the rollout engine's feature-major blocks carry their rows on
the axes after it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Union

import numpy as np

from .core import JsonFields, ShapeError, as_float, cast_field

ACTION_LOW = -1.0
ACTION_HIGH = 1.0
_ACTION_TOL = 1e-9

FAMILIES = ("point-mass", "bandit")


@dataclass(frozen=True)
class EnvConfig(JsonFields):
    """Static description of one environment instance."""

    env_id: str
    family: str
    episode_length: int
    state_dim: int
    action_dim: int
    dt: float = 0.0
    v_max: float = 0.0
    start: tuple = ()
    goal: tuple = ()
    mean_base: float = 0.0
    mean_slope: float = 0.0
    spread_max: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown env family {self.family!r}")
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        dims = {"point-mass": (4, 2), "bandit": (1, 1)}[self.family]
        if (self.state_dim, self.action_dim) != dims:
            raise ValueError(f"a {self.family} env has state_dim {dims[0]} and action_dim "
                             f"{dims[1]}, got {self.state_dim} and {self.action_dim}")
        if self.family == "point-mass":
            for name in ("dt", "v_max"):
                if not getattr(self, name) > 0:
                    raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
            for name in ("start", "goal"):
                xy = [cast_field(name, as_float, x) for x in getattr(self, name)]
                if len(xy) != 2 or not np.all(np.isfinite(xy)):
                    raise ValueError(f"{name} must be 2 finite numbers, got {xy}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "EnvConfig":
        """Env from its fields, or from `{"name": n}` for built-in env `n` of
        `BUILTIN_ENVS`, which takes no other key."""
        if not isinstance(d, dict) or "name" not in d:
            return super().from_json_dict(d)
        name = d["name"]
        if not isinstance(name, str) or name not in BUILTIN_ENVS:
            raise ValueError(f"unknown env {name!r}, valid: {', '.join(sorted(BUILTIN_ENVS))}")
        if len(d) > 1:
            raise ValueError(f"built-in env {name!r} takes no other key, "
                             f"got {sorted(set(d) - {'name'})}")
        return BUILTIN_ENVS[name]()


def point_mass_nav(
    episode_length: int = 100,
    dt: float = 0.1,
    v_max: float = 1.0,
    start: tuple = (0.0, 0.0),
    goal: tuple = (1.0, 1.0),
) -> EnvConfig:
    """Navigation task: accelerate a point mass from `start` toward `goal`."""
    return EnvConfig(
        env_id="point-mass-nav",
        family="point-mass",
        episode_length=episode_length,
        state_dim=4,
        action_dim=2,
        dt=dt,
        v_max=v_max,
        start=tuple(float(x) for x in start),
        goal=tuple(float(x) for x in goal),
    )


def tradeoff_spread(
    mean_base: float = 60.0, mean_slope: float = 10.0, spread_max: float = 50.0
) -> EnvConfig:
    """Bandit where larger actions raise both the reward mean and its spread."""
    return EnvConfig(
        env_id="tradeoff-spread",
        family="bandit",
        episode_length=1,
        state_dim=1,
        action_dim=1,
        mean_base=mean_base,
        mean_slope=mean_slope,
        spread_max=spread_max,
    )


def flat_mean_spread(mean_base: float = 60.0, spread_max: float = 50.0) -> EnvConfig:
    """`tradeoff_spread` at slope 0: the reward's mean is flat in the action, its spread not."""
    return replace(tradeoff_spread(mean_base, 0.0, spread_max), env_id="flat-mean-spread")


BUILTIN_ENVS = {
    "point-mass-nav": point_mass_nav,
    "flat-mean-spread": flat_mean_spread,
    "tradeoff-spread": tradeoff_spread,
}


def env_reset(cfg: EnvConfig) -> np.ndarray:
    """Nominal initial state vector. The rollout engine adds initial-state noise."""
    vec = np.zeros(cfg.state_dim, dtype=np.float64)
    if cfg.family == "point-mass":
        vec[:2] = cfg.start
    return vec


def _check_action(cfg: EnvConfig, action: np.ndarray) -> np.ndarray:
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (cfg.action_dim,):
        raise ShapeError(
            f"action must have shape ({cfg.action_dim},), got {action.shape}"
        )
    if not np.all(np.isfinite(action)):
        raise ValueError("action contains non-finite values")
    if np.any(action < ACTION_LOW - _ACTION_TOL) or np.any(
        action > ACTION_HIGH + _ACTION_TOL
    ):
        raise ValueError(
            f"action {action} outside the box [{ACTION_LOW}, {ACTION_HIGH}]"
        )
    return action


def transition(cfg: EnvConfig, vec: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Next state of state `vec` (state_dim, ...) under `action` (action_dim,
    ...). Features are on the first axis, so one state is a vector and a
    block of them has rows on the axes after it. Deterministic: the bandit's
    own draw enters the reward, not the state."""
    if cfg.family == "point-mass":
        vel = vec[2:] + action * cfg.dt
        vx, vy = vel[0], vel[1]
        # Scales by exactly 1.0 at or below the cap.
        vel *= cfg.v_max / np.maximum(np.sqrt(vx * vx + vy * vy), cfg.v_max)
        return np.concatenate([vec[:2] + vel * cfg.dt, vel])
    return vec.copy()


def reward(
    cfg: EnvConfig,
    prev_vec: np.ndarray,
    action: np.ndarray,
    next_vec: np.ndarray,
    u: Union[np.ndarray, float],
) -> Union[np.ndarray, float]:
    """Reward of (s_t, a_t, s_{t+1}) plus the env draw `u`, the bandit's
    Uniform(-1, 1) (unused by point-mass). Features are on the first axis, as
    in `transition`; the reward has the shape of the axes after it."""
    if cfg.family == "point-mass":
        dx = next_vec[0] - cfg.goal[0]
        dy = next_vec[1] - cfg.goal[1]
        return -np.sqrt(dx * dx + dy * dy)
    a = action[0]
    return cfg.mean_base + cfg.mean_slope * a + cfg.spread_max * a * u


def descriptor_dim(cfg: EnvConfig) -> int:
    return 2 if cfg.family == "point-mass" else cfg.action_dim


def descriptor(cfg: EnvConfig, traj) -> np.ndarray:
    """Behaviour descriptor of a finished episode.

    Point-mass episodes are summarised by the final position; bandit episodes
    by the executed action. A block of episodes gives one row per episode.
    """
    if traj.rewards.shape[-1] != cfg.episode_length:
        raise ValueError(
            f"trajectory has {traj.rewards.shape[-1]} steps, "
            f"expected {cfg.episode_length}"
        )
    if cfg.family == "point-mass":
        return traj.final_state[..., :2].copy()
    return traj.actions[..., 0, :].copy()
