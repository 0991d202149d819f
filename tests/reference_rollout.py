"""Step-by-step reference rollout, the oracle for the batched engine.

One episode, one step at a time, each noise draw taken from its generator
at the moment the draw-order contract in `repro_rl.noise` places it. The
engine in `repro_rl.rollout` must match this loop bit for bit. Its
generators come straight from numpy's SeedSequence, not from the engine's
batched stream derivation, so the comparison checks that derivation too.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro_rl.core import (
    ConstantPolicy,
    NumericFailure,
    Policy,
    PolicyParams,
    Trajectory,
    _tag_words,
)
from repro_rl.envs import (
    ACTION_HIGH,
    ACTION_LOW,
    EnvConfig,
    _check_action,
    env_reset,
    reward,
    transition,
)
from repro_rl.noise import NoiseConfig, n_init_dims
from repro_rl.rollout import ENV_TAG, INIT_TAG, NOISE_TAG


class EpisodeFinished(RuntimeError):
    """A step was asked of an episode that already ran to completion."""


@dataclass
class EnvState:
    """Mutable episode state: the state vector plus the step counter."""

    vec: np.ndarray
    timestep: int = 0


def policy_action(policy: Policy, obs: np.ndarray) -> np.ndarray:
    """Action of either policy flavour for one observation.

    The MLP's own one-row forward pass, apart from the engine's: each layer
    is einsum("...i,...io->...o") plus the bias, which adds each output's
    products in index order.
    """
    if isinstance(policy, ConstantPolicy):
        return np.asarray(policy.action, dtype=np.float64).copy()
    x, offset, arch = obs, 0, policy.arch
    for k, (n_in, n_out) in enumerate(zip(arch[:-1], arch[1:])):
        w = policy.theta[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        z = np.einsum("...i,...io->...o", x, w) + policy.theta[offset : offset + n_out]
        offset += n_out
        x = np.tanh(z) if k == len(arch) - 2 or policy.activation == "tanh" else np.maximum(z, 0.0)
    return x


def stream_gen(master_seed: int, tag: str, index: int) -> np.random.Generator:
    """Generator of substream (master_seed, tag, index), built by numpy."""
    seq = np.random.SeedSequence((master_seed, *_tag_words(tag), index))
    return np.random.Generator(np.random.PCG64(seq))


def count_seed_sequences(monkeypatch) -> list:
    """Entropy of every np.random.SeedSequence built from now on."""
    built, real = [], np.random.SeedSequence

    def counting(entropy=None, **kwargs):
        built.append(entropy)
        return real(entropy, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return built


def count_generators(monkeypatch) -> list:
    """Bit generator of every np.random.Generator built from now on."""
    built, real = [], np.random.Generator

    class Counting(real):
        def __init__(self, bit_generator):
            built.append(bit_generator)
            super().__init__(bit_generator)

    monkeypatch.setattr(np.random, "Generator", Counting)
    return built


def rollout_gens(noise_cfg: NoiseConfig, env_cfg: EnvConfig, master_seed: int, index: int):
    init_gen = stream_gen(master_seed, INIT_TAG, index) if noise_cfg.kind == "init-state" else None
    noise_gen = stream_gen(master_seed, NOISE_TAG, index) if noise_cfg.kind != "none" else None
    env_gen = stream_gen(master_seed, ENV_TAG, index) if env_cfg.family == "bandit" else None
    return init_gen, noise_gen, env_gen


def wrap_params(
    params: PolicyParams, noise: NoiseConfig, gen: np.random.Generator
) -> PolicyParams:
    """Parameter-noise draw: theta + sigma * epsilon, one epsilon per call."""
    if noise.kind != "param":
        raise ValueError(f"wrap_params needs kind 'param', got {noise.kind!r}")
    if not isinstance(params, PolicyParams):
        raise TypeError("parameter noise requires a PolicyParams policy")
    eps = gen.standard_normal(params.theta.shape[0])
    return PolicyParams(
        theta=params.theta + noise.sigma * eps,
        arch=params.arch,
        activation=params.activation,
    )


def wrap_reset(
    cfg: EnvConfig, noise: NoiseConfig, init_gen: np.random.Generator
) -> EnvState:
    """Reset with optional initial-state perturbation of the position dims."""
    state = EnvState(vec=env_reset(cfg))
    if noise.kind == "init-state":
        k = n_init_dims(cfg)
        state.vec[:k] += noise.sigma * init_gen.standard_normal(k)
    return state


def observe(
    noise: NoiseConfig, state_vec: np.ndarray, noise_gen: np.random.Generator
) -> np.ndarray:
    """Observation emitted for the current state (noisy under obs noise)."""
    if noise.kind == "obs":
        return state_vec + noise.sigma * noise_gen.standard_normal(state_vec.shape[0])
    return state_vec.copy()


def wrap_step(
    cfg: EnvConfig,
    noise: NoiseConfig,
    state: EnvState,
    action: np.ndarray,
    env_gen: np.random.Generator,
    noise_gen: np.random.Generator,
    observation: Optional[np.ndarray] = None,
) -> Tuple[EnvState, float, bool, np.ndarray, np.ndarray]:
    """One noisy step.

    Returns (next_state, reward, done, next_observation, executed_action).
    """
    if state.timestep >= cfg.episode_length:
        raise EpisodeFinished(
            f"episode of length {cfg.episode_length} already finished"
        )

    action = np.asarray(action, dtype=np.float64)
    if noise.kind == "action":
        eps = noise_gen.standard_normal(cfg.action_dim)
        exec_action = np.clip(action + noise.sigma * eps, ACTION_LOW, ACTION_HIGH)
    else:
        exec_action = action
    exec_action = _check_action(cfg, exec_action)

    u = float(env_gen.uniform(-1.0, 1.0)) if cfg.family == "bandit" else 0.0
    next_vec = transition(cfg, state.vec, exec_action)
    if noise.kind == "dynamics":
        next_vec = next_vec + noise.sigma * noise_gen.standard_normal(cfg.state_dim)

    if noise.kind == "obs":
        next_obs = next_vec + noise.sigma * noise_gen.standard_normal(cfg.state_dim)
    else:
        next_obs = next_vec.copy()

    if noise.kind == "obs" and noise.obs_affects_reward:
        r = reward(cfg, observation, exec_action, next_obs, u)
    else:
        r = reward(cfg, state.vec, exec_action, next_vec, u)

    if noise.kind == "reward":
        r += noise.sigma * float(noise_gen.standard_normal())

    next_state = EnvState(vec=next_vec, timestep=state.timestep + 1)
    done = next_state.timestep >= cfg.episode_length
    return next_state, float(r), done, next_obs, exec_action


def rollout_generic(policy, env_cfg, noise_cfg, init_gen, noise_gen, env_gen) -> Trajectory:
    n_steps = env_cfg.episode_length
    states = np.empty((n_steps, env_cfg.state_dim))
    observations = np.empty((n_steps, env_cfg.state_dim))
    actions = np.empty((n_steps, env_cfg.action_dim))
    rewards = np.empty(n_steps)

    state = wrap_reset(env_cfg, noise_cfg, init_gen)
    episode_policy = policy
    if noise_cfg.kind == "param" and noise_cfg.resample == "per-episode":
        episode_policy = wrap_params(policy, noise_cfg, noise_gen)
    obs = observe(noise_cfg, state.vec, noise_gen)

    for t in range(n_steps):
        states[t] = state.vec
        observations[t] = obs
        if noise_cfg.kind == "param" and noise_cfg.resample == "per-step":
            step_policy = wrap_params(policy, noise_cfg, noise_gen)
        else:
            step_policy = episode_policy
        action = policy_action(step_policy, obs)
        state, r, done, obs, exec_action = wrap_step(
            env_cfg, noise_cfg, state, action, env_gen, noise_gen, obs
        )
        actions[t] = exec_action
        rewards[t] = r
        if not (np.all(np.isfinite(state.vec)) and np.isfinite(r)):
            raise NumericFailure(f"non-finite value at step {t}", step=t)

    return Trajectory(
        states=states,
        observations=observations,
        actions=actions,
        rewards=rewards,
        episode_return=float(np.sum(rewards)),
        final_state=state.vec.copy(),
    )


def reference_rollout(policy, env_cfg, noise_cfg, master_seed: int, index: int) -> Trajectory:
    """Rollout `index` of the evaluation `master_seed`, stepped one at a time."""
    gens = rollout_gens(noise_cfg, env_cfg, master_seed, index)
    return rollout_generic(policy, env_cfg, noise_cfg, *gens)
