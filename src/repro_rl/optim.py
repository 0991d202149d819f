"""Evolution strategies with mirrored sampling and rank shaping.

Two fitness modes share one update rule:

* "plain": each candidate is scored by a single noisy episode return.
* "repro": each candidate is re-evaluated n_reevals times and scored by
  w * mean(returns) - (1 - w) * std(returns), so the search is pulled
  toward parameter regions whose returns are both high and tight.

The gradient estimate uses centered ranks instead of raw fitness. Ranks
are averaged over ties, which makes the update vanish exactly when fitness
is mirror-symmetric (a tied pair contributes u * eps + u * (-eps) = 0).

One generation function serves both front ends: `train` scores candidate
policies by `fitness`, `optimize_function` by a black-box objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import PolicyParams, RngStream, derive_stream, param_count
from .envs import EnvConfig
from .noise import NoiseConfig
from .rollout import EvalConfig, evaluate

FITNESS_MODES = ("plain", "repro")

INIT_TAG = "es-init"
GEN_TAG = "es-gen"
FIT_TAG = "es-fit"


@dataclass(frozen=True)
class EsConfig:
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
            object.__setattr__(self, "arch", tuple(int(w) for w in self.arch))
        if self.popsize < 2 or self.popsize % 2 != 0:
            raise ValueError(f"popsize must be even and >= 2, got {self.popsize}")
        if not self.sigma_es > 0.0:
            raise ValueError(f"sigma_es must be > 0, got {self.sigma_es}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.l2 < 0.0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
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

    def to_json_dict(self) -> dict:
        return {
            "arch": None if self.arch is None else list(self.arch),
            "activation": self.activation,
            "popsize": self.popsize,
            "sigma_es": self.sigma_es,
            "lr": self.lr,
            "l2": self.l2,
            "generations": self.generations,
            "fitness_mode": self.fitness_mode,
            "n_reevals": self.n_reevals,
            "repro_weight": self.repro_weight,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EsConfig":
        arch = d.get("arch")
        return cls(
            arch=None if arch is None else tuple(arch),
            activation=d.get("activation", "tanh"),
            popsize=int(d.get("popsize", 64)),
            sigma_es=float(d.get("sigma_es", 0.1)),
            lr=float(d.get("lr", 0.03)),
            l2=float(d.get("l2", 0.0)),
            generations=int(d.get("generations", 100)),
            fitness_mode=d.get("fitness_mode", "plain"),
            n_reevals=int(d.get("n_reevals", 32)),
            repro_weight=float(d.get("repro_weight", 0.5)),
        )


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
    offset = 0
    for n_in, n_out in zip(cfg.arch[:-1], cfg.arch[1:]):
        w = gen.standard_normal(n_in * n_out) / np.sqrt(n_in)
        theta[offset : offset + n_in * n_out] = w
        offset += n_in * n_out + n_out
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
    sums to zero. Averaging tied ranks keeps equal-fitness candidates at
    equal utility.
    """
    f = np.asarray(fitness, dtype=np.float64)
    if f.ndim != 1 or f.shape[0] < 2:
        raise ValueError(f"fitness must be 1-D with >= 2 entries, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("fitness contains non-finite values")
    n = f.shape[0]
    order = np.argsort(f, kind="stable")
    ranks = np.empty(n)
    ranks[order] = np.arange(n, dtype=np.float64)
    uniq, inverse, counts = np.unique(f, return_inverse=True, return_counts=True)
    if np.any(counts > 1):
        sums = np.zeros(uniq.shape[0])
        np.add.at(sums, inverse, ranks)
        ranks = (sums / counts)[inverse]
    return ranks / (n - 1) - 0.5


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


def fitness(
    candidate: PolicyParams,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    cfg: EsConfig,
    stream: RngStream,
) -> float:
    """Score one candidate under the configured fitness mode."""
    eval_seed = int(stream.generator().integers(0, 2**63))
    if cfg.fitness_mode == "plain":
        rec = evaluate(
            candidate, env_cfg, noise_cfg, EvalConfig(n_evals=1, master_seed=eval_seed)
        )
        return float(rec.returns[0])
    rec = evaluate(
        candidate,
        env_cfg,
        noise_cfg,
        EvalConfig(n_evals=cfg.n_reevals, master_seed=eval_seed),
    )
    mean_r = float(np.mean(rec.returns))
    std_r = float(np.std(rec.returns, ddof=1))
    return cfg.repro_weight * mean_r - (1.0 - cfg.repro_weight) * std_r


def _generation(
    theta: np.ndarray,
    generation: int,
    cfg: EsConfig,
    stream: RngStream,
    score: Callable[[np.ndarray], Sequence[float]],
) -> Tuple[np.ndarray, dict]:
    """One ES generation on a flat theta: sample, score, rank, update.

    `score` maps the (popsize, dim) candidate thetas to one fitness each.
    Returns the new theta and the generation's history row.
    """
    thetas, eps_half = sample_population(theta, cfg, stream.generator())
    fits = np.asarray(score(thetas), dtype=np.float64)
    if not np.all(np.isfinite(fits)):
        raise ValueError(f"non-finite fitness at generation {generation}")
    new_theta = _es_update(theta, eps_half, rank_normalize(fits), cfg)
    row = {
        "generation": generation,
        "fitness_mean": float(np.mean(fits)),
        "fitness_best": float(np.max(fits)),
        "center_norm": float(np.linalg.norm(new_theta)),
    }
    return new_theta, row


def es_step(
    state: EsState,
    cfg: EsConfig,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    stream: RngStream,
) -> EsState:
    """One generation of policy search. Returns the new state."""
    arch, activation = state.center.arch, state.center.activation

    def score(thetas: np.ndarray) -> List[float]:
        return [
            fitness(
                PolicyParams(theta=t, arch=arch, activation=activation),
                env_cfg,
                noise_cfg,
                cfg,
                derive_stream(stream.master_seed, FIT_TAG, stream.index * cfg.popsize + i),
            )
            for i, t in enumerate(thetas)
        ]

    theta, row = _generation(state.center.theta, state.generation, cfg, stream, score)
    return EsState(
        center=PolicyParams(theta=theta, arch=arch, activation=activation),
        generation=state.generation + 1,
        history=state.history + [row],
    )


def train(
    cfg: EsConfig,
    env_cfg: EnvConfig,
    noise_cfg: NoiseConfig,
    master_seed: int,
) -> EsState:
    """Full ES run from a fresh init; deterministic in master_seed."""
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
        stream = derive_stream(master_seed, GEN_TAG, g)
        theta, row = _generation(theta, g, cfg, stream, lambda ts: [objective(t) for t in ts])
        history.append(row)
    return theta, history
