"""Rollout engine: run episodes under a noise model and collect records.

Rollout (seed, i), the i-th rollout of the evaluation with that seed, owns
three derived substreams, (seed, "init", i), (seed, "noise", i) and (seed,
"env", i), so it is the same alone or in a block with any other keys.
A tag's streams are materialised only when a block draws from that tag,
so streams a rollout does not need are never materialised; by
construction that cannot shift any other stream.

The engine is batched and lockstep: a block of rollouts steps together,
as many as fit BLOCK_VALUES float64 values (`block_rows`), stored
feature-major with features first and rows last, so the forward pass adds
each input's products to all rows at once (`core.dense_forward`; a
one-output layer keeps a dot product per row). Rewards are elementwise
and taken for all steps after the last one; the block becomes the
`Trajectory` contract (rows, T, d) once, at its end. Each rollout's draws
are taken from its own substreams up front, in the order documented in
`noise`, from each tag's state words (`core.stream_states`, bit for bit
`derive_stream`'s streams), derived once per call for all its rows or
handed in by the caller, as the ES scorer does for a chunk of
generations: normals by generators, the bandit's uniforms with none
(`core.pcg64_raw`). The forward pass and the dynamics treat every row on
its own and accumulate in a fixed order, so a rollout has the same bits
at any block size, on shared or per-row parameters. `evaluate`,
`rollout_once` and the ES scorer run on it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ConstantPolicy,
    EvalRecord,
    NumericFailure,
    Policy,
    PolicyParams,
    ShapeError,
    Trajectory,
    dense_forward,
    dense_layers,
    pcg64_raw,
    state_generator,
    stream_states,
)
from .envs import (
    ACTION_HIGH,
    ACTION_LOW,
    EnvConfig,
    _check_action,
    descriptor,
    descriptor_dim,
    env_reset,
    reward,
    transition,
)
from .noise import NoiseConfig, episode_draw_shape, n_init_dims

INIT_TAG = "init"
NOISE_TAG = "noise"
ENV_TAG = "env"

# float64 values an engine block's rows count: 256 rows of 100-step
# point-mass rollouts, each step's state, action and reward. It sizes blocks,
# so memory does not grow with the number of rollouts; results do not depend
# on it. It does not count the noise draws taken up front (under obs noise
# they become the observed states in place) or the reward and return
# temporaries: a 256-row point-mass block peaks at about 1.6x BLOCK_VALUES
# without noise and 2.2x under dynamics or obs noise (tracemalloc).
BLOCK_VALUES = 256 * 100 * (4 + 2 + 1)
# A row's own generator under per-step parameter noise (about 0.7 KiB).
_GENERATOR_VALUES = 96


@dataclass(frozen=True)
class EvalConfig:
    """How many rollouts to run and what to record."""

    n_evals: int = 256
    master_seed: int = 0
    record_state_marginal: bool = False

    def __post_init__(self):
        if self.n_evals < 1:
            raise ValueError(f"n_evals must be >= 1, got {self.n_evals}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


def _check_policy(policy: Policy, env_cfg: EnvConfig, noise_cfg: NoiseConfig) -> None:
    if isinstance(policy, ConstantPolicy):
        if noise_cfg.kind == "param":
            raise ValueError("parameter noise requires a PolicyParams policy")
        _check_action(env_cfg, policy.action)
    elif policy.arch[0] != env_cfg.state_dim or policy.arch[-1] != env_cfg.action_dim:
        raise ShapeError(
            f"policy arch {policy.arch} does not fit env {env_cfg.env_id!r}: it needs "
            f"{env_cfg.state_dim} inputs and {env_cfg.action_dim} outputs"
        )


@np.errstate(over="ignore")  # an overflowing draw fails its rollout's finiteness check
def _normals(gens, out: np.ndarray, scale: float) -> np.ndarray:
    """`out` (*size, rows), feature-major, filled with each row's generator's
    standard normals of shape `size` (drawn as `standard_normal(size)` draws
    them), times `scale`."""
    row = np.empty(out.shape[:-1])
    for r, gen in enumerate(gens):
        gen.standard_normal(out=row)
        out[..., r] = row
    out *= scale
    return out


def _noise_draws(states: np.ndarray, size: tuple, scale: float) -> np.ndarray:
    """scale times each row's standard normals of shape `size`, one row per row
    of stream state words, as a feature-major (*size, rows) array."""
    return _normals(map(state_generator, states), np.empty((*size, len(states))), scale)


def _run_block(
    policy: Policy,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    states: Callable[[str], np.ndarray],
    index: Sequence[int],
    thetas: Optional[np.ndarray] = None,
) -> Trajectory:
    """Step rollouts together, row r on column thetas[:, r] in place of
    `policy.theta` when given; `states(tag)` gives the rows' stream state
    words of `tag` and `index` their rollout indices. Returns their
    trajectories as a block, whose fields are views of the block's
    feature-major arrays."""
    _check_policy(policy, env_cfg, noise_cfg)
    n, n_steps = len(index), env_cfg.episode_length
    kind, sigma = noise_cfg.kind, noise_cfg.sigma
    base = policy.theta[:, None] if thetas is None and isinstance(policy, PolicyParams) else thetas
    n_params = 0 if base is None else len(base)

    # Feature-major: features first, rows last. path[t] is the true state
    # before step t, seen[t] what the policy observes there. Noise draws are
    # taken up front and scaled by sigma once.
    path = np.empty((n_steps + 1, env_cfg.state_dim, n))
    path[0] = env_reset(env_cfg)[:, None]
    if kind == "init-state":
        k = n_init_dims(env_cfg)
        path[0, :k] += _noise_draws(states(INIT_TAG), (k,), sigma)
    shape = episode_draw_shape(noise_cfg, env_cfg, n_params)
    if shape is not None:
        eps = _noise_draws(states(NOISE_TAG), shape, sigma)
        if kind == "param":
            base = base + eps
    step_gens = None
    if kind == "param" and noise_cfg.resample == "per-step":
        step_gens = [state_generator(words) for words in states(NOISE_TAG)]
        eps_t = np.empty((n_params, n))
    elif base is not None:
        layers = dense_layers(base, policy.arch)

    seen = path
    if kind == "obs":
        # The draws become the observations in place: seen[t] = path[t] + sigma eps[t].
        seen = eps
        seen[0] += path[0]
    actions = np.empty((n_steps, env_cfg.action_dim, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n_steps):
            if step_gens is not None:
                layers = dense_layers(base + _normals(step_gens, eps_t, sigma), policy.arch)
            if base is None:
                action = policy.action[:, None]
            else:
                action = dense_forward(layers, policy.activation, seen[t])
            if kind == "action":
                action = np.clip(action + eps[t], ACTION_LOW, ACTION_HIGH)
            actions[t] = action
            path[t + 1] = transition(env_cfg, path[t], action)
            if kind == "dynamics":
                path[t + 1] += eps[t]
            if kind == "obs":
                seen[t + 1] += path[t + 1]

        # Rewards are elementwise, so all steps' are taken at once, as (T, rows).
        u = 0.0
        if env_cfg.family == "bandit":
            # Generator.uniform(-1, 1): 53 high bits of each raw word, times 2^-53.
            raw = pcg64_raw(states(ENV_TAG), n_steps).T
            u = -1.0 + 2.0 * ((raw >> np.uint64(11)) * 2.0**-53)
        steps = (seen if kind == "obs" and noise_cfg.obs_affects_reward else path).swapaxes(0, 1)
        r = reward(env_cfg, steps[:, :-1], actions.swapaxes(0, 1), steps[:, 1:], u)
        if kind == "reward":
            r = r + eps
    # Row-major before the sum: pairwise summation's bits depend on the layout.
    rewards = np.ascontiguousarray(r.T)

    # One scan for the first non-finite step of each rollout: step t fails
    # when its reward or the state it leads to is not finite.
    finite = np.isfinite(rewards) & np.isfinite(path[1:]).all(axis=1).T
    if not finite.all():
        row, step = np.argwhere(~finite)[0]
        raise NumericFailure(
            f"rollout {index[row]} hit a non-finite value at step {step}",
            step=int(step),
            rollout_index=int(index[row]),
        )

    return Trajectory(
        states=path[:-1].transpose(2, 0, 1),
        observations=seen[:-1].transpose(2, 0, 1),
        actions=actions.transpose(2, 0, 1),
        rewards=rewards,
        episode_return=rewards.sum(axis=1),
        final_state=path[-1].T,
    )


def rollout_once(
    policy: Policy,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    master_seed: int,
    index: int = 0,
) -> Trajectory:
    """Run rollout `index` of the evaluation identified by `master_seed`.

    The same (policy, env_cfg, noise_cfg, master_seed, index) always yields
    the same trajectory, bit for bit the one `evaluate` records for it.
    """
    if master_seed < 0 or index < 0:
        raise ValueError(f"seed and index must be non-negative, got {master_seed}, {index}")
    states = partial(stream_states, [master_seed], [index])
    block = _run_block(policy, env_cfg, noise_cfg, states, [index])
    # Copies: the block's fields are views, and share memory with each other.
    return Trajectory(**{f.name: getattr(block, f.name)[0].copy() for f in fields(block)})


def block_rows(env_cfg: EnvConfig, n_params: int = 0, noise_cfg: NoiseConfig = NoiseConfig()) -> int:
    """Rollouts per engine block: as many rows as fit BLOCK_VALUES, at least
    one. A row counts each step's state, action and reward, plus the
    `n_params` parameters it carries of its own (a per-row theta, or its
    parameter noise); per-step parameter noise also counts each step's draws
    and the row's generator. Other noise draws (the observed states under
    obs noise) and the reward temporaries are not counted (see BLOCK_VALUES)."""
    per_row = env_cfg.episode_length * (env_cfg.state_dim + env_cfg.action_dim + 1) + n_params
    if noise_cfg.kind == "param" and noise_cfg.resample == "per-step":
        per_row += n_params + _GENERATOR_VALUES
    return max(1, BLOCK_VALUES // per_row)


def _rollouts(
    policy: Policy,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    seeds: Sequence[int],
    n: int,
    thetas: Optional[np.ndarray] = None,
    record_state_marginal: bool = False,
    tag_states: Optional[Callable[[str], np.ndarray]] = None,
) -> dict:
    """EvalRecord's returns, descriptors and (if asked for) state marginals
    of rollouts 0..n-1 of each seed, seed-major: row r is key (seeds[r // n],
    r % n) and runs thetas[r // n] when one theta per seed is given. Rows run
    in blocks of `block_rows`. `tag_states(tag)` gives all rows' state words
    of a tag; by default they are derived for all rows at once, when a block
    first needs them."""
    if tag_states is None:
        tag_states = lru_cache(maxsize=None)(partial(stream_states, seeds, range(n)))
    total = len(seeds) * n
    returns = np.empty(total)
    descs = np.empty((total, descriptor_dim(env_cfg)))
    width = env_cfg.episode_length * env_cfg.state_dim
    marginals = np.empty((total, width)) if record_state_marginal else None
    columns = None if thetas is None else np.ascontiguousarray(thetas.T)
    own = thetas is not None or (noise_cfg.kind == "param" and isinstance(policy, PolicyParams))
    size = block_rows(env_cfg, policy.theta.size if own else 0, noise_cfg)
    for start in range(0, total, size):
        stop = min(start + size, total)
        rows = np.arange(start, stop)
        block = _run_block(
            policy, env_cfg, noise_cfg, lambda tag: tag_states(tag)[start:stop], rows % n,
            None if columns is None else columns.take(rows // n, axis=1),
        )
        returns[start:stop] = block.episode_return
        descs[start:stop] = descriptor(env_cfg, block)
        if marginals is not None:
            marginals[start:stop].reshape(block.states.shape)[...] = block.states
        del block  # before the next block is built: one block is alive at a time
    return {"returns": returns, "descriptors": descs, "state_marginals": marginals}


def evaluate(
    policy: Policy,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    eval_cfg: EvalConfig,
    jobs: int = 1,
    policy_id: str = "policy",
) -> EvalRecord:
    """Run n_evals rollouts and assemble the evaluation record.

    Rollouts run on the calling thread in blocks of `block_rows` (a budget
    of float64 values, so 256 rows of 100-step point-mass rollouts), from
    stream state words derived once per tag for all n_evals rollouts. `jobs`
    is accepted for compatibility and changes neither results nor speed.
    """
    return EvalRecord(
        policy_id=policy_id,
        env_id=env_cfg.env_id,
        noise=noise_cfg,
        master_seed=eval_cfg.master_seed,
        **_rollouts(
            policy, env_cfg, noise_cfg, [eval_cfg.master_seed], eval_cfg.n_evals,
            record_state_marginal=eval_cfg.record_state_marginal,
        ),
    )
