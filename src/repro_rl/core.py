"""Shared domain types: policies, trajectories, evaluation records, RNG streams.

Randomness discipline: every consumer derives a named substream from a single
master seed via `derive_stream`. Substreams are independent of the order in
which they are created, so parallel evaluation cannot change results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Optional, Union

import numpy as np

ACTIVATIONS = ("tanh", "relu")


class ShapeError(ValueError):
    """An array argument has the wrong shape."""


class ArchitectureError(ValueError):
    """A network architecture tuple is malformed."""


class NumericFailure(RuntimeError):
    """A rollout produced a non-finite value. Carries the failing step index."""

    def __init__(self, message: str, step: int = -1, rollout_index: int = -1):
        super().__init__(message)
        self.step = step
        self.rollout_index = rollout_index


class EpisodeFinished(RuntimeError):
    """step() was called on an episode that already ran to completion."""


def param_count(arch: tuple) -> int:
    """Number of parameters of a dense net with layer widths `arch`.

    Each consecutive pair (n_in, n_out) contributes n_in * n_out weights
    plus n_out biases.
    """
    if len(arch) < 2:
        raise ArchitectureError(f"arch needs at least two widths, got {arch!r}")
    for w in arch:
        if not isinstance(w, (int, np.integer)) or w < 1:
            raise ArchitectureError(f"arch widths must be positive ints, got {arch!r}")
    total = 0
    for n_in, n_out in zip(arch[:-1], arch[1:]):
        total += n_in * n_out + n_out
    return total


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")


# JSON value -> field value, by the field's annotation (a string, as every
# module here uses `from __future__ import annotations`); other annotations
# take the JSON value as it is.
_JSON_CASTS = {
    "int": int,
    "float": float,
    "tuple": tuple,
    "Optional[tuple]": lambda v: None if v is None else tuple(v),
    "np.ndarray": lambda v: np.asarray(v, dtype=np.float64),
}


@lru_cache(maxsize=None)
def _field_casts(cls) -> tuple:
    return tuple((f.name, _JSON_CASTS.get(f.type, lambda v: v)) for f in fields(cls))


def _json_value(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, JsonFields):
        return v.to_json_dict()
    return v


class JsonFields:
    """JSON round trip of a dataclass, driven by its fields, so each field
    and its default is stated once, in the class body.

    Tuples and arrays become lists. On load a missing key takes the field
    default, unknown keys are ignored and values are cast by annotation
    (`int`, `float`, `tuple`, `Optional[tuple]`, `np.ndarray`).
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, d: dict, **given):
        """Instance from JSON object `d`; `given` values are used as they are
        in place of the keys of the same names."""
        if not isinstance(d, dict):
            raise TypeError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
        for name, cast in _field_casts(cls):
            if name in d and name not in given:
                given[name] = cast(d[name])
        return cls(**given)


@dataclass(frozen=True, eq=False)
class PolicyParams(JsonFields):
    """Flat parameter vector of a tanh-squashed dense policy network.

    theta stores layer blocks in order: W1 (row-major, shape n_in x n_out),
    b1, W2, b2, ... The output layer is always squashed with tanh so actions
    live in [-1, 1]; hidden layers use `activation`.
    """

    theta: np.ndarray
    arch: tuple
    activation: str = "tanh"

    def __post_init__(self):
        arch = tuple(int(w) for w in self.arch)
        object.__setattr__(self, "arch", arch)
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 1:
            raise ShapeError(f"theta must be 1-D, got shape {theta.shape}")
        expected = param_count(arch)
        if theta.shape[0] != expected:
            raise ShapeError(
                f"theta has {theta.shape[0]} entries, arch {arch} needs {expected}"
            )
        _require_finite("theta", theta)
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True, eq=False)
class ConstantPolicy(JsonFields):
    """Scripted policy that emits the same action every step."""

    action: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.action, dtype=np.float64)
        if a.ndim != 1:
            raise ShapeError(f"action must be 1-D, got shape {a.shape}")
        _require_finite("action", a)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "action", a)


Policy = Union[PolicyParams, ConstantPolicy]


def dense_layers(theta: np.ndarray, arch: tuple) -> list:
    """Views (W, b) of each layer of flat parameters `theta`.

    `theta` is one vector of shape (P,) or one per row, shape (..., P); the
    views then have shapes (..., n_in, n_out) and (..., n_out).
    """
    lead = theta.shape[:-1]
    layers = []
    offset = 0
    for n_in, n_out in zip(arch[:-1], arch[1:]):
        w = theta[..., offset : offset + n_in * n_out].reshape(*lead, n_in, n_out)
        offset += n_in * n_out
        layers.append((w, theta[..., offset : offset + n_out]))
        offset += n_out
    return layers


def dense_forward(layers: list, activation: str, x: np.ndarray) -> np.ndarray:
    """Forward pass of observation rows `x` (..., n_in) through `layers`.

    Each output sums its inputs in index order (einsum, not BLAS), so a row's
    bits do not depend on how many rows run together or on whether the
    weights are shared by all rows or given per row.
    """
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = np.einsum("...i,...io->...o", x, w) + b
        x = np.tanh(z) if i == last or activation == "tanh" else np.maximum(z, 0.0)
    return x


def policy_forward(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """Deterministic forward pass; returns the action vector in [-1, 1]."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 1 or obs.shape[0] != params.arch[0]:
        raise ShapeError(
            f"obs must have shape ({params.arch[0]},), got {obs.shape}"
        )
    _require_finite("obs", obs)
    return dense_forward(dense_layers(params.theta, params.arch), params.activation, obs)


def policy_action(policy: Policy, obs: np.ndarray) -> np.ndarray:
    """Action of either policy flavour for one observation."""
    if isinstance(policy, ConstantPolicy):
        return np.asarray(policy.action, dtype=np.float64).copy()
    return policy_forward(policy, obs)


@lru_cache(maxsize=256)
def _tag_words(tag: str) -> tuple:
    # Stable 128-bit hash of the purpose tag, split into two 64-bit words.
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=16).digest()
    lo = int.from_bytes(digest[:8], "little")
    hi = int.from_bytes(digest[8:], "little")
    return lo, hi


@dataclass(frozen=True)
class RngStream:
    """Identifier of one derived random substream."""

    master_seed: int
    purpose_tag: str
    index: int

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this substream."""
        lo, hi = _tag_words(self.purpose_tag)
        seq = np.random.SeedSequence((self.master_seed, lo, hi, self.index))
        return np.random.Generator(np.random.PCG64(seq))


def derive_stream(master_seed: int, purpose_tag: str, index: int) -> RngStream:
    """Named substream of the master seed.

    The same (master_seed, purpose_tag, index) triple always denotes the same
    stream, regardless of how many other streams were derived before it.
    """
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    return RngStream(int(master_seed), purpose_tag, int(index))


@dataclass
class Trajectory:
    """One finished episode, or a block of them.

    `states` holds the true environment state at each of the T decision
    points (before each action); `final_state` is the state after the last
    step. `observations` is what the policy actually saw, which differs from
    `states` only under observation noise. `actions` are the executed
    actions, after any action noise and box clipping.

    A block of episodes stepped together carries a leading rows axis on
    every field, and `episode_return` is then an array of shape (rows,).
    """

    states: np.ndarray
    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    episode_return: Union[float, np.ndarray]
    final_state: np.ndarray

    def state_marginal(self) -> np.ndarray:
        """Flattened visited-state sequence, length episode_length * state_dim."""
        return self.states.reshape(*self.states.shape[:-2], -1)


@dataclass
class EvalRecord:
    """Returns and behaviour descriptors of N rollouts of one policy."""

    policy_id: str
    env_id: str
    noise: "NoiseConfig"
    master_seed: int
    returns: np.ndarray
    descriptors: np.ndarray
    state_marginals: Optional[np.ndarray] = None
    extra: dict = field(default_factory=dict)

    @property
    def n_evals(self) -> int:
        return int(self.returns.shape[0])

    def to_json_dict(self) -> dict:
        d = {
            "policy_id": self.policy_id,
            "env": self.env_id,
            "noise": self.noise.to_json_dict(),
            "master_seed": int(self.master_seed),
            "n_evals": self.n_evals,
            "returns": [float(x) for x in self.returns],
            "descriptors": [[float(x) for x in row] for row in self.descriptors],
        }
        if self.state_marginals is not None:
            d["state_marginals"] = [
                [float(x) for x in row] for row in self.state_marginals
            ]
        if self.extra:
            d["extra"] = self.extra
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "EvalRecord":
        from .noise import NoiseConfig

        marginals = d.get("state_marginals")
        return cls(
            policy_id=d["policy_id"],
            env_id=d["env"],
            noise=NoiseConfig.from_json_dict(d["noise"]),
            master_seed=int(d["master_seed"]),
            returns=np.asarray(d["returns"], dtype=np.float64),
            descriptors=np.asarray(d["descriptors"], dtype=np.float64),
            state_marginals=None
            if marginals is None
            else np.asarray(marginals, dtype=np.float64),
            extra=d.get("extra", {}),
        )
