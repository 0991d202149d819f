"""Uncertainty injection around the deterministic environment core.

Exactly one noise kind is active per evaluation. All perturbations are
Gaussian with scale `sigma` and are drawn from dedicated substreams, never
from the environment's own stream, so switching kinds does not shift the
environment draws.

Draw order contract. Each rollout draws from its own init and noise
substreams in exactly this order, as a step-by-step loop would:

* init-state: position draws once at reset, from the init stream.
* param, per-episode: one theta-sized draw before the first step.
* param, per-step: one theta-sized draw at the start of every step.
* obs: one state-sized draw at reset (epsilon_0), then one per step
  (epsilon_{t+1}), all from the noise stream.
* action: one action-sized draw per step.
* dynamics: one state-sized draw per step.
* reward: one scalar draw per step.

The rollout engine takes all of a rollout's noise-stream draws in one array
before the first step (`episode_draw_shape`); one array draw yields the
same values as the step-by-step draws. Only per-step parameter noise is
drawn as the episode runs, one theta-sized row per rollout per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import JsonFields, as_float, cast_field
from .envs import EnvConfig

_DEFAULT_SIGMA = {
    "none": 0.0,
    "action": 0.2,
    "obs": 0.05,
    "reward": 0.5,
    "param": 0.02,
    "init-state": 0.1,
    "dynamics": 0.01,
}
KINDS = tuple(_DEFAULT_SIGMA)

RESAMPLE_MODES = ("per-episode", "per-step")


def default_sigma(kind: str) -> float:
    """Per-kind default scale, tuned so each kind visibly widens returns
    without drowning the task signal."""
    if kind not in KINDS:
        raise ValueError(f"unknown noise kind {kind!r}, valid kinds: {', '.join(KINDS)}")
    return _DEFAULT_SIGMA[kind]


@dataclass(frozen=True)
class NoiseConfig(JsonFields):
    """Which uncertainty source is active and how strong it is.

    sigma=None resolves to the per-kind default. `resample` only matters for
    parameter noise. `obs_affects_reward` controls whether the reward is
    computed from the noisy observations (the default) or from the true
    states.
    """

    kind: str = "none"
    sigma: Optional[float] = None
    resample: str = "per-episode"
    obs_affects_reward: bool = True

    def __post_init__(self):
        default = default_sigma(self.kind)
        if self.resample not in RESAMPLE_MODES:
            raise ValueError(
                f"unknown resample mode {self.resample!r}, "
                f"valid modes: {', '.join(RESAMPLE_MODES)}"
            )
        # + 0.0 reads -0.0 as 0.0, so the two are one setting
        sigma = cast_field("sigma", as_float, default if self.sigma is None else self.sigma) + 0.0
        if not np.isfinite(sigma) or sigma < 0.0:
            raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        if self.kind == "none" and sigma != 0.0:
            raise ValueError("noise kind 'none' requires sigma 0")
        object.__setattr__(self, "sigma", sigma)


def n_init_dims(cfg: EnvConfig) -> int:
    """How many leading state dims initial-state noise perturbs (positions)."""
    return 2 if cfg.family == "point-mass" else cfg.state_dim


def episode_draw_shape(
    noise: NoiseConfig, env_cfg: EnvConfig, n_params: int
) -> Optional[tuple]:
    """Shape of one rollout's noise-stream draws, taken before its first step.

    None when nothing is drawn up front: no noise, init-state noise (drawn
    from the init stream) and per-step parameter noise.
    """
    n_steps = env_cfg.episode_length
    if noise.kind == "param":
        return (n_params,) if noise.resample == "per-episode" else None
    return {
        "obs": (n_steps + 1, env_cfg.state_dim),
        "action": (n_steps, env_cfg.action_dim),
        "dynamics": (n_steps, env_cfg.state_dim),
        "reward": (n_steps,),
    }.get(noise.kind)
