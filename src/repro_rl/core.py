"""Shared domain types: policies, trajectories, evaluation records, RNG streams.

Randomness discipline: every consumer derives a named substream from a single
master seed via `derive_stream`. Substreams are independent of the order in
which they are created, so parallel evaluation cannot change results.
`stream_states` derives a seeds x indices grid of substreams of one tag at
once, from a cached (seeds, tag) pool prefix; generators (`state_generator`,
`RngStream.generator`) and raw draws (`pcg64_raw`) start from its state words.
"""

from __future__ import annotations

import binascii
import hashlib
import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .noise import NoiseConfig

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


_NUMBERS = (int, float, np.integer, np.floating)


def _typed(v, types: tuple, what: str):
    """`v`, or a TypeError unless it is one of `types`; a bool passes only as `bool`."""
    if not isinstance(v, types) or isinstance(v, bool) and bool not in types:
        raise TypeError(f"expected {what}, got {v!r}")
    return v


def as_float(v) -> float:
    """`v` as a float; a TypeError unless it is a number, a ValueError past float range."""
    try:
        return float(_typed(v, _NUMBERS, "a number"))
    except OverflowError:
        raise ValueError(f"expected a number in float range, got {v!r}") from None


def as_int(v) -> int:
    """`v` as an int; a TypeError unless it is a number, a ValueError unless it is integral."""
    if isinstance(_typed(v, _NUMBERS, "an integer"), (int, np.integer)) or as_float(v).is_integer():
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


def as_str(v) -> str:
    """`v`, or a TypeError unless it is a string."""
    return _typed(v, (str,), "a string")


def as_array(v) -> np.ndarray:
    """`v`, nested lists of numbers, as a float64 array; a TypeError unless
    each leaf is a number (a bool or a string is not), a ValueError unless
    the lists of each level have one length and the numbers are in float range."""
    if not isinstance(v, list):
        raise TypeError(f"expected nested lists of numbers, got {v!r}")
    items, shape, kinds = v, [len(v)], set(map(type, v))
    while kinds == {list}:
        lengths = set(map(len, items))
        if len(lengths) > 1:
            raise ValueError(f"expected lists of one length, got lengths {sorted(lengths)}")
        shape.append(lengths.pop())
        items = list(chain.from_iterable(items))
        kinds = set(map(type, items))
    if not kinds <= {float, int}:
        for t in kinds:
            if t is bool or not issubclass(t, _NUMBERS):
                leaf = next(x for x in items if type(x) is t)
                raise TypeError(f"expected nested lists of numbers, got {leaf!r}")
    try:
        a = np.array(items, dtype=np.float64)
    except OverflowError:
        raise ValueError("expected numbers in float range") from None
    return a if len(shape) == 1 else a.reshape(shape)


def _as_bool(v) -> bool:
    if _typed(v, (bool, int), "true, false, 0 or 1") not in (0, 1):
        raise ValueError(f"expected true, false, 0 or 1, got {v!r}")
    return bool(v)


def cast_field(name: str, cast, v):
    """`cast(v)`, its TypeError or ValueError naming field `name`."""
    try:
        return cast(v)
    except (TypeError, ValueError) as e:
        raise (TypeError if isinstance(e, TypeError) else ValueError)(f"{name}: {e}") from None


# JSON value -> field value, by the field's annotation (a string, as every
# module here uses `from __future__ import annotations`); a value of another
# JSON type is a TypeError. Other annotations take the JSON value as it is.
_JSON_CASTS = {
    "bool": _as_bool,
    "int": as_int,
    "float": as_float,
    "str": as_str,
    "tuple": lambda v: tuple(_typed(v, (list, tuple), "a list")),
    "Optional[tuple]": lambda v: None if v is None else _JSON_CASTS["tuple"](v),
    "np.ndarray": as_array,
}


@lru_cache(maxsize=None)
def _field_casts(cls) -> tuple:
    """(name, cast, needed) of each field of `cls`: needed when it has no default.
    A field annotated with a JsonFields class is read by its `from_json_dict`."""
    sections = {c.__name__: c.from_json_dict for c in JsonFields.__subclasses__()}
    return tuple((f.name, _JSON_CASTS.get(f.type) or sections.get(f.type, lambda v: v),
                  f.default is MISSING and f.default_factory is MISSING) for f in fields(cls))


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

    Tuples and arrays become lists, JsonFields values their objects. On load a
    missing key takes the field default, unknown keys are ignored and values
    are cast by annotation (`bool`, `int`, `float`, `str`, `tuple`,
    `Optional[tuple]`, `np.ndarray`, or a JsonFields class, which reads its
    section); a refusal is a TypeError or ValueError naming the field (`noise:
    sigma: ...` in a section), and missing fields without a default are one
    ValueError naming them all.
    """

    def to_json_dict(self, **given) -> dict:
        """The fields as JSON values; `given` values replace those of the same names."""
        return {f.name: given[f.name] if f.name in given else _json_value(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_json_dict(cls, d: dict, **given):
        """Instance from JSON object `d`; `given` values are used as they are
        in place of the keys of the same names."""
        if not isinstance(d, dict):
            raise TypeError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
        for name, cast, _ in _field_casts(cls):
            if name in d and name not in given:
                given[name] = cast_field(name, cast, d[name])
        missing = [name for name, _, needed in _field_casts(cls) if needed and name not in given]
        if missing:
            raise ValueError(f"{cls.__name__} needs {', '.join(map(repr, missing))}")
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
        arch = tuple(cast_field("arch", as_int, w) for w in self.arch)
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

    `theta` is one vector (P,), giving views (n_in, n_out) and (n_out,), or
    feature-major columns (P, rows), one column shared by all rows or one
    per row, giving views (n_in, n_out, rows) and (n_out, rows).
    """
    rows = theta.shape[1:]
    layers = []
    offset = 0
    for n_in, n_out in zip(arch[:-1], arch[1:]):
        w = theta[offset : offset + n_in * n_out].reshape(n_in, n_out, *rows)
        offset += n_in * n_out
        layers.append((w, theta[offset : offset + n_out]))
        offset += n_out
    return layers


def dense_forward(layers: list, activation: str, x: np.ndarray) -> np.ndarray:
    """Forward pass of feature-major observations `x` (n_in, rows) through
    the `dense_layers` of parameter columns; returns (n_out, rows).

    Each output sums its inputs in index order (einsum, not BLAS), so a row's
    bits do not depend on how many rows run together or on whether the
    weights are shared by all rows or given per row. With rows on the inner,
    contiguous axis, einsum adds each input's products to all rows at once.
    A one-output layer would take another kernel at one row than at more, so
    it keeps a dot product per row on a row-major copy.
    """
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        if w.shape[1] == 1:
            w = np.ascontiguousarray(w.transpose(2, 0, 1))
            z = np.einsum("...i,...io->...o", np.ascontiguousarray(x.T), w).T
        else:
            z = np.einsum("io...,i...->o...", w, x)
        z += b
        x = np.tanh(z, out=z) if i == last or activation == "tanh" else np.maximum(z, 0.0, out=z)
    return x


def policy_forward(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """Deterministic forward pass; returns the action vector in [-1, 1]."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 1 or obs.shape[0] != params.arch[0]:
        raise ShapeError(
            f"obs must have shape ({params.arch[0]},), got {obs.shape}"
        )
    _require_finite("obs", obs)
    layers = dense_layers(params.theta[:, None], params.arch)
    return dense_forward(layers, params.activation, obs[:, None])[:, 0]


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
        return state_generator(stream_states([self.master_seed], [self.index], self.purpose_tag)[0])


def derive_stream(master_seed: int, purpose_tag: str, index: int) -> RngStream:
    """Named substream of the master seed.

    The same (master_seed, purpose_tag, index) triple always denotes the same
    stream, regardless of how many other streams were derived before it.
    """
    if master_seed < 0 or index < 0:
        raise ValueError(f"stream seed and index must be non-negative, got {master_seed}, {index}")
    return RngStream(int(master_seed), purpose_tag, int(index))


# numpy's SeedSequence is O'Neill's seed_seq_fe hash from the PCG work: 32-bit
# multiply, xor and shift steps whose hash constants depend only on the word
# position, so one pass runs it over every entropy row of the same length.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# 0-d array operands: numpy ufuncs take them faster than Python ints or scalars.
_U16, _U32 = np.array(16, np.uint32), np.array(32, np.uint64)
_MIX_MULT_L, _MIX_MULT_R = np.array(0xCA01F9DD, np.uint32), np.array(0x4973F715, np.uint32)
_POOL_OTHERS = [np.delete(np.arange(_POOL_SIZE), src) for src in range(_POOL_SIZE)]


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> tuple:
    """The hash constant before and after each of n hashing steps, as (n, 1)
    uint32 columns."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h[:-1], np.uint32)[:, None], np.array(h[1:], np.uint32)[:, None]


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    value = value ^ before
    value *= after
    value ^= value >> _U16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> _U16)


def _absorb(pool: np.ndarray, words: np.ndarray, p: int) -> np.ndarray:
    """SeedSequence's (4, rows) uint32 `pool` after it absorbs the (W, rows)
    `words` as its entropy words p, p + 1, ...: words 0-3 fill the pool,
    which is then mixed, and each later word is mixed in."""
    # 4 steps fill the pool, 12 mix it and 4 mix in each later word: 4 per word.
    before, after = _hash_consts(_INIT_A, _MULT_A, 4 * (p + len(words)))
    for word in words:
        if p < _POOL_SIZE:
            pool[p] = _hashmix(word, before[p], after[p])
        else:
            pool = _mix(pool, _hashmix(word, before[4 * p : 4 * p + 4], after[4 * p : 4 * p + 4]))
        p += 1
        if p == _POOL_SIZE:
            for src, dst in enumerate(_POOL_OTHERS):
                k = 4 + 3 * src
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], before[k : k + 3], after[k : k + 3]))
    return pool


def _emit_states(pool: np.ndarray) -> np.ndarray:
    """`generate_state(4, np.uint64)` of each column of a (4, rows) pool that
    has absorbed at least 4 words, as (rows, 4) uint64."""
    # Eight 32-bit words from the cycled pool, paired little-endian.
    state = _hashmix(np.concatenate([pool, pool]), *_hash_consts(_INIT_B, _MULT_B, 8))
    out = state[1::2].T.astype(np.uint64, order="C")
    out <<= _U32
    out |= state[0::2].T
    return out


def _uint32_words(values) -> tuple:
    """The 32-bit words SeedSequence splits each value of `values` into, low
    word first, after `int()` as `derive_stream` applies it: (words (W, n)
    uint32, number of words of each value (n,)). Zero is one word; a negative
    value is a ValueError, as in SeedSequence."""
    rest = np.array(values)
    if rest.dtype.kind not in "iu":  # floats, bools, or integers past 64 bits
        rest = np.array([int(v) for v in values], dtype=object)
    if (rest < 0).any():
        raise ValueError("expected non-negative integer")
    words = [(rest & _MASK32).astype(np.uint32)]
    count = np.ones(len(rest), dtype=np.intp)
    rest = rest >> 32
    while rest.any():
        count += rest > 0
        words.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
    return np.array(words), count


@lru_cache(maxsize=256)
def _tag_entropy(tag: str) -> np.ndarray:
    # The SeedSequence words of the tag's two hash words, as a column.
    words, count = _uint32_words(_tag_words(tag))
    return np.concatenate([words[: count[0], 0], words[: count[1], 1]])[:, None]


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Seeds a PCG64 with four state words computed beforehand."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def state_generator(words: np.ndarray) -> np.random.Generator:
    """Generator `PCG64(SeedSequence(...))` of one row of `stream_states` words."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


@lru_cache(maxsize=32)
def _prefix_pools(seeds: tuple, tag: str) -> tuple:
    """Per seed word count: (seed positions, words absorbed, the read-only
    (4, seeds) pool after the words of each seed and then of the tag)."""
    seed_words, seed_count = _uint32_words(seeds)
    tag_words = _tag_entropy(tag)
    groups = []
    for n_seed in set(seed_count.tolist()):
        rows = np.flatnonzero(seed_count == n_seed)
        words = np.concatenate([seed_words[:n_seed, rows], np.repeat(tag_words, rows.size, 1)])
        pool = _absorb(np.zeros((_POOL_SIZE, rows.size), np.uint32), words, 0)
        pool.setflags(write=False)
        groups.append((rows, len(words), pool))
    return tuple(groups)


def stream_states(seeds: Sequence[int], index: Sequence[int], tag: str) -> np.ndarray:
    """(len(seeds) * len(index), 4) uint64 PCG64 state words of substream (seed,
    tag, i), seed-major: bit for bit `SeedSequence((seed, *_tag_words(tag), i))
    .generate_state(4, np.uint64)`. The pool after the seed and tag words is
    cached per (seeds, tag); each call absorbs the index words into it."""
    index_words, index_count = _uint32_words(index)
    states = np.empty((len(seeds), len(index), 4), dtype=np.uint64)
    for rows, n_prefix, pool in _prefix_pools(tuple(seeds), tag):
        for n_index in set(index_count.tolist()):
            cols = np.flatnonzero(index_count == n_index)
            words = np.tile(index_words[:n_index, cols], rows.size)
            grid = _absorb(np.repeat(pool, cols.size, axis=1), words, n_prefix)
            states[rows[:, None], cols] = _emit_states(grid).reshape(rows.size, cols.size, 4)
    return states.reshape(-1, 4)


# numpy's PCG64 is a 128-bit LCG with XSL-RR output (O'Neill, 2014), here on
# (hi, lo) uint64 word pairs so one pass steps every row of a block.
_MULT_HI, _MULT_LO, _MULT_LO0, _MULT_LO1, _LOW32, _U1, _U58, _U63 = (
    np.array(v, np.uint64)
    for v in (0x2360ED051FC65DA4, 0x4385DF649FCCF645, 0x9FCCF645, 0x4385DF64, _MASK32, 1, 58, 63)
)


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple:
    """state * MULT + inc mod 2^128, on (hi, lo) uint64 pairs."""
    # The high word of lo * MULT_LO, from 32-bit limbs.
    a0, a1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = a0 * _MULT_LO0, a0 * _MULT_LO1, a1 * _MULT_LO0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * _MULT_LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    hi = hi * _MULT_LO + lo * _MULT_HI + carry
    lo = lo * _MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def pcg64_raw(states: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) uint64: bit for bit `random_raw(n)` of a PCG64 seeded with each
    row of the (rows, 4) uint64 `stream_states` words."""
    # Words 0-1 are initstate and 2-3 initseq, high word first.
    init_hi, init_lo, seq_hi, seq_lo = states.T
    inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
    lo = inc_lo + init_lo  # state 0 stepped is inc; add initstate, step again
    hi, lo = _pcg_step(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo)
    out = np.empty((len(states), n), dtype=np.uint64)
    for k in range(n):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58
        out[:, k] = x >> rot | x << (-rot & _U63)
    return out


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


@dataclass
class EvalRecord(JsonFields):
    """Returns and behaviour descriptors of N rollouts of one policy."""

    policy_id: str
    env_id: str
    noise: NoiseConfig
    master_seed: int
    returns: np.ndarray
    descriptors: np.ndarray
    state_marginals: Optional[np.ndarray] = None

    @property
    def n_evals(self) -> int:
        return int(self.returns.shape[0])

    def to_json_dict(self) -> dict:
        """The fields, with `env_id` under "env", `n_evals` added and
        `state_marginals` in `_f8_json`'s form, or none when None."""
        marginals = None if self.state_marginals is None else _f8_json(self.state_marginals)
        d = super().to_json_dict(master_seed=int(self.master_seed), state_marginals=marginals)
        d["env"] = d.pop("env_id")
        d["n_evals"] = self.n_evals
        if marginals is None:
            del d["state_marginals"]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "EvalRecord":
        """Record from an eval artifact's JSON; a ValueError unless `env` and
        `noise` are present, the returns are a non-empty 1-D array of finite
        numbers and the descriptors and state marginals, when present, are 2-D
        with one finite row per return."""
        missing = [k for k in ("env", "noise") if k not in d]
        if missing:
            raise ValueError(f"eval record needs {' and '.join(map(repr, missing))}")
        record = super().from_json_dict(
            d, env_id=cast_field("env", as_str, d["env"]),
            state_marginals=_f8_array(d.get("state_marginals")),
        )
        n = record.returns.shape[0] if record.returns.ndim == 1 else 0
        if n < 1 or not np.isfinite(record.returns).all():
            raise ValueError("returns must be a non-empty list of finite numbers")
        for name in ("descriptors", "state_marginals"):
            rows = getattr(record, name)
            if rows is not None and (
                rows.ndim != 2 or rows.shape[0] != n or not np.isfinite(rows).all()
            ):
                raise ValueError(
                    f"{name} must be {n} rows of finite numbers, got shape {rows.shape}"
                )
        return record


def _f8_json(a: np.ndarray) -> dict:
    """`a` as the base64 of its little-endian float64 bytes in C order."""
    a = np.asarray(a, dtype="<f8", order="C")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": binascii.b2a_base64(a.data, newline=False).decode("ascii")}


def _f8_array(v) -> Optional[np.ndarray]:
    """Writable float64 array of a `_f8_json` object, bit for bit; None is
    None, and nested lists of numbers (the older form) go through `as_array`."""
    if not isinstance(v, dict):
        return None if v is None else cast_field("state_marginals", as_array, v)
    shape, dtype = v.get("shape"), v.get("dtype")
    try:
        data = binascii.a2b_base64(v.get("base64"), strict_mode=True)
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise ValueError(f"state_marginals base64: {e}") from None
    if dtype != "<f8" or not isinstance(shape, list) or not all(
            type(k) is int and k >= 0 for k in shape) or len(data) != 8 * math.prod(shape):
        raise ValueError(f"state_marginals needs dtype '<f8', a shape of non-negative ints and "
                         f"8 bytes per value, got {dtype!r}, {shape!r} and {len(data)} bytes")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
