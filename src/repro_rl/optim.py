"""Evolution strategies with mirrored sampling and rank shaping.

Two fitness modes share one update rule:

* "plain": each candidate is scored by a single noisy episode return.
* "repro": each candidate is re-evaluated n_reevals times and scored by
  w * mean(returns) - (1 - w) * std(returns), so the search is pulled
  toward parameter regions whose returns are both high and tight.

The gradient estimate uses centered ranks instead of raw fitness. Ranks
are averaged over ties, which makes the update vanish exactly when fitness
is mirror-symmetric (a tied pair contributes u * eps + u * (-eps) = 0).

One generation function serves both front ends: `train` scores the whole
population in one rollout-engine pass, `optimize_function` by an objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import JsonFields, NumericFailure, PolicyParams, RngStream, as_int, cast_field
from .core import dense_layers, derive_stream, param_count, pcg64_raw, state_generator
from .core import stream_states
from .envs import EnvConfig
from .noise import NoiseConfig
from .rollout import _rollouts, block_rows
from .stats import DISPERSION, PERFORMANCE

FITNESS_MODES = ("plain", "repro")

INIT_TAG = "es-init"
GEN_TAG = "es-gen"
FIT_TAG = "es-fit"


@dataclass(frozen=True)
class EsConfig(JsonFields):
    """Hyperparameters of one ES run."""

    arch: Optional[tuple] = None
    activation: str = "tanh"
    popsize: int = 64
    sigma_es: float = 0.1
    lr: float = 0.03
    l2: float = 0.0
    generations: int = 100
    fitness_mode: str = "plain"
    n_reevals: int = 32
    repro_weight: float = 0.5

    def __post_init__(self):
        if self.arch is not None:
            arch = tuple(cast_field("arch", as_int, w) for w in self.arch)
            object.__setattr__(self, "arch", arch)
        if self.popsize < 2 or self.popsize % 2 != 0:
            raise ValueError(f"popsize must be even and >= 2, got {self.popsize}")
        if not 0.0 < self.sigma_es < np.inf:
            raise ValueError(f"sigma_es must be finite and > 0, got {self.sigma_es}")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.l2 < np.inf:
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.fitness_mode not in FITNESS_MODES:
            raise ValueError(
                f"unknown fitness mode {self.fitness_mode!r}, valid: {FITNESS_MODES}"
            )
        if self.n_reevals < 2:
            raise ValueError(f"n_reevals must be >= 2, got {self.n_reevals}")
        if not 0.0 <= self.repro_weight <= 1.0:
            raise ValueError(f"repro_weight must be in [0, 1], got {self.repro_weight}")


@dataclass
class EsState:
    """Search state after some number of generations."""

    center: PolicyParams
    generation: int = 0
    history: List[dict] = field(default_factory=list)


def init_center(cfg: EsConfig, master_seed: int) -> PolicyParams:
    """Starting point: per-layer weights N(0, 1/sqrt(fan_in)), zero biases."""
    if cfg.arch is None:
        raise ValueError("EsConfig.arch is required to build a policy")
    gen = derive_stream(master_seed, INIT_TAG, 0).generator()
    theta = np.zeros(param_count(cfg.arch))
    for w, _ in dense_layers(theta, cfg.arch):
        w[...] = gen.standard_normal(w.shape) / np.sqrt(w.shape[0])
    return PolicyParams(theta=theta, arch=cfg.arch, activation=cfg.activation)


def sample_population(
    center_theta: np.ndarray, cfg: EsConfig, gen: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Mirrored candidate thetas.

    Draws popsize/2 Gaussian directions and returns the stacked candidates
    [theta + sigma*eps; theta - sigma*eps] plus the directions themselves.
    """
    half = cfg.popsize // 2
    eps_half = gen.standard_normal((half, center_theta.shape[0]))
    plus = center_theta + cfg.sigma_es * eps_half
    minus = center_theta - cfg.sigma_es * eps_half
    return np.concatenate([plus, minus], axis=0), eps_half


def rank_normalize(fitness: np.ndarray) -> np.ndarray:
    """Centered ranks in [-0.5, 0.5], ties averaged.

    The best candidate maps to +0.5 and the worst to -0.5; the result always
    sums to zero. A value ranks at the mean of its first and last sorted
    positions, an exact integer or half-integer, so tied candidates get equal
    utility.
    """
    f = np.asarray(fitness, dtype=np.float64)
    if f.ndim != 1 or f.shape[0] < 2:
        raise ValueError(f"fitness must be 1-D with >= 2 entries, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("fitness contains non-finite values")
    s = np.sort(f)
    ranks = (np.searchsorted(s, f, "left") + np.searchsorted(s, f, "right") - 1) / 2
    return ranks / (f.shape[0] - 1) - 0.5


def _es_update(
    center_theta: np.ndarray,
    eps_half: np.ndarray,
    utilities: np.ndarray,
    cfg: EsConfig,
) -> np.ndarray:
    half = cfg.popsize // 2
    # Pairwise differences first: mirror-symmetric utilities cancel exactly.
    pair_diff = utilities[:half] - utilities[half:]
    grad = (pair_diff[:, None] * eps_half).sum(axis=0) / (cfg.popsize * cfg.sigma_es)
    return center_theta + cfg.lr * grad - cfg.lr * cfg.l2 * center_theta


def _generation(
    theta: np.ndarray,
    generation: int,
    cfg: EsConfig,
    gen: np.random.Generator,
    score: Callable[[np.ndarray], Sequence[float]],
) -> Tuple[np.ndarray, dict]:
    """One ES generation on a flat theta: sample from `gen`, score, rank, update.

    `score` maps the (popsize, dim) candidate thetas to one fitness each.
    Returns the new theta and the generation's history row.
    """
    thetas, eps_half = sample_population(theta, cfg, gen)
    # Finite but huge returns can overflow the repro mean or spread.
    with np.errstate(over="ignore", invalid="ignore"):
        fits = np.asarray(score(thetas), dtype=np.float64)
    if not np.all(np.isfinite(fits)):
        raise NumericFailure(f"non-finite fitness at generation {generation}")
    new_theta = _es_update(theta, eps_half, rank_normalize(fits), cfg)
    row = {
        "generation": generation,
        "fitness_mean": float(PERFORMANCE["mean"](fits)),
        "fitness_best": float(np.max(fits)),
        "center_norm": float(np.linalg.norm(new_theta)),
    }
    return new_theta, row


@lru_cache(maxsize=1)
def _chunk(master_seed: int, gen_tag: str, popsize: int, n: int, first: int, stop: int) -> tuple:
    """Draws of generations first..stop-1: their (gen_tag) stream state words,
    their eval seeds, generation-major, from streams (master, FIT_TAG,
    g * popsize + c), and `tag_states(tag)`, the state words of every key
    (eval seed, i < n), seed-major, derived when a generation first needs the tag."""
    gens = stream_states([master_seed], range(first, stop), gen_tag)
    fit = stream_states([master_seed], range(first * popsize, stop * popsize), FIT_TAG)
    # Generator.integers(0, 2**63): Lemire's bound 2^63 rejects below 2^64 mod 2^63 = 0, so x >> 1.
    seeds = (pcg64_raw(fit, 1)[:, 0] >> np.uint64(1)).tolist()
    return gens, seeds, lru_cache(maxsize=None)(partial(stream_states, seeds, range(n)))


def es_step(
    state: EsState,
    cfg: EsConfig,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    stream: RngStream,
) -> EsState:
    """One generation of policy search; returns the new state. With g =
    stream.index, candidate c is scored on rollouts 0..n-1 (n is 1 in plain
    mode) of the eval seed drawn from stream (master, FIT_TAG, g * popsize + c),
    all in one engine call.

    Generation g draws from its chunk of the run: as many consecutive
    generations as fit one engine block of their rollouts (`block_rows`, each
    row carrying its theta), at least one, and none past cfg.generations
    unless g is. A chunk derives its generation streams' state words and its
    eval seeds in one pass, and each rollout tag's words for all its keys
    when a generation first draws from that tag; the last chunk stays cached.
    Every drawn value is the one a chunk of generation g alone gives."""
    n = cfg.n_reevals if cfg.fitness_mode == "repro" else 1
    g, per_gen = stream.index, cfg.popsize * n
    size = max(1, block_rows(env_cfg, len(state.center.theta), noise_cfg) // per_gen)
    first = g - g % size
    # the chunk ends at the run's last generation, or at g past it
    gens, seeds, tag_states = _chunk(
        stream.master_seed, stream.purpose_tag, cfg.popsize, n,
        first, min(first + size, max(cfg.generations, g + 1)),
    )
    j = g - first
    rows = slice(j * per_gen, (j + 1) * per_gen)

    def score(thetas: np.ndarray) -> Sequence[float]:
        returns = _rollouts(
            state.center, env_cfg, noise_cfg, seeds[j * cfg.popsize:(j + 1) * cfg.popsize], n,
            thetas, tag_states=lambda tag: tag_states(tag)[rows],
        )["returns"].reshape(cfg.popsize, n)
        if cfg.fitness_mode == "plain":
            return returns[:, 0]
        w = cfg.repro_weight
        return w * PERFORMANCE["mean"](returns) - (1 - w) * DISPERSION["std"](returns)

    theta, row = _generation(
        state.center.theta, state.generation, cfg, state_generator(gens[j]), score
    )
    return EsState(
        center=replace(state.center, theta=theta),
        generation=state.generation + 1,
        history=state.history + [row],
    )


def train(
    cfg: EsConfig,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    master_seed: int,
) -> EsState:
    """Full ES run from a fresh init; deterministic in master_seed. A loop
    of `es_step`, so each chunk of generations derives its draws once."""
    state = EsState(center=init_center(cfg, master_seed))
    for g in range(cfg.generations):
        state = es_step(
            state, cfg, env_cfg, noise_cfg, derive_stream(master_seed, GEN_TAG, g)
        )
    return state


def optimize_function(
    objective: Callable[[np.ndarray], float],
    dim: int,
    cfg: EsConfig,
    master_seed: int,
    theta0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, List[dict]]:
    """Run the same ES generation on a black-box objective over R^dim.

    Useful for sanity checks on analytic functions. Returns the final theta
    and the per-generation history.
    """
    if theta0 is None:
        theta = derive_stream(master_seed, INIT_TAG, 0).generator().standard_normal(dim)
    else:
        theta = np.asarray(theta0, dtype=np.float64).copy()
        if theta.shape != (dim,):
            raise ValueError(f"theta0 must have shape ({dim},), got {theta.shape}")
    history: List[dict] = []
    for g in range(cfg.generations):
        gen = derive_stream(master_seed, GEN_TAG, g).generator()
        theta, row = _generation(theta, g, cfg, gen, lambda ts: [objective(t) for t in ts])
        history.append(row)
    return theta, history
