import base64
import json
import re

import numpy as np
import pytest

from reference_rollout import policy_action, stream_gen
from repro_rl import core
from repro_rl.core import (
    ArchitectureError,
    ConstantPolicy,
    EvalRecord,
    PolicyParams,
    ShapeError,
    _absorb,
    _emit_states,
    _tag_entropy,
    _tag_words,
    derive_stream,
    param_count,
    pcg64_raw,
    policy_forward,
    state_generator,
    stream_states,
)
from repro_rl.envs import EnvConfig
from repro_rl.noise import NoiseConfig


def test_param_count_small():
    assert param_count((2, 2)) == 6
    assert param_count((1, 1)) == 2
    assert param_count((3, 5, 2)) == 3 * 5 + 5 + 5 * 2 + 2


def test_param_count_reference_archs():
    assert param_count((4, 16, 16, 2)) == 386
    # 4*64+64 + 64*64+64 + 64*2+2
    assert param_count((4, 64, 64, 2)) == 4610


def test_param_count_rejects_bad_arch():
    with pytest.raises(ArchitectureError):
        param_count((4,))
    with pytest.raises(ArchitectureError):
        param_count((4, 0, 2))
    with pytest.raises(ArchitectureError):
        param_count((4, -1, 2))
    with pytest.raises(ArchitectureError):
        param_count((4, 2.5, 2))


def test_policy_params_validation():
    with pytest.raises(ShapeError):
        PolicyParams(theta=np.zeros(10), arch=(4, 16, 16, 2))
    with pytest.raises(ShapeError):
        PolicyParams(theta=np.zeros((6, 1)), arch=(2, 2))
    with pytest.raises(ValueError):
        PolicyParams(theta=np.full(6, np.nan), arch=(2, 2))
    with pytest.raises(ValueError):
        PolicyParams(theta=np.zeros(6), arch=(2, 2), activation="sigmoid")


def test_policy_params_theta_is_read_only():
    p = PolicyParams(theta=np.zeros(6), arch=(2, 2))
    with pytest.raises(ValueError):
        p.theta[0] = 1.0


def test_policy_params_json_round_trip():
    gen = np.random.default_rng(0)
    p = PolicyParams(theta=gen.standard_normal(386), arch=(4, 16, 16, 2), activation="relu")
    d = p.to_json_dict()
    assert d["arch"] == [4, 16, 16, 2] and type(d["theta"][0]) is float
    q = PolicyParams.from_json_dict(d)
    assert q.arch == p.arch
    assert q.activation == p.activation
    assert np.array_equal(q.theta, p.theta)
    # a missing activation is the default; unknown keys ("kind") are ignored
    r = PolicyParams.from_json_dict({"kind": "mlp", "arch": [1, 1], "theta": [0.5, 0]})
    assert r.activation == "tanh" and np.array_equal(r.theta, [0.5, 0.0])


def test_constant_policy_round_trip_and_validation():
    c = ConstantPolicy(action=np.array([0.25, -0.5]))
    assert c.to_json_dict() == {"action": [0.25, -0.5]}
    d = ConstantPolicy.from_json_dict(c.to_json_dict())
    assert np.array_equal(c.action, d.action)
    with pytest.raises(ValueError):
        ConstantPolicy(action=np.array([np.inf]))
    with pytest.raises(ShapeError):
        ConstantPolicy(action=np.zeros((2, 1)))


# JSON array values that are not nested lists of numbers, by the field they
# are given for -> the value the refusal names.
MISTYPED_ARRAYS = {
    "returns-strings": ("returns", ["1", "2e0"], "'1'"),
    "returns-bool-among-numbers": ("returns", [1.5, True], "True"),
    "returns-null": ("returns", [1.0, None], "None"),
    "returns-number": ("returns", 3.0, "3.0"),
    "descriptors-string": ("descriptors", [["3"], [1.0]], "'3'"),
    "descriptors-bool": ("descriptors", [[3.0], [True]], "True"),
    "descriptors-row-and-number": ("descriptors", [[3.0], 1.0], "[3.0]"),
    "marginals-list-form-string": ("state_marginals", [["0"], [1.0]], "'0'"),
}


@pytest.mark.parametrize("case", MISTYPED_ARRAYS)
def test_eval_record_refuses_array_leaves_that_are_not_numbers(case):
    name, value, leaf = MISTYPED_ARRAYS[case]
    rec = EvalRecord(policy_id="p", env_id="e", noise=NoiseConfig(), master_seed=0,
                     returns=np.array([1.0, 2.0]), descriptors=np.zeros((2, 1)))
    d = {**json.loads(json.dumps(rec.to_json_dict())), name: value}
    message = f"{name}: expected nested lists of numbers, got {leaf}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        EvalRecord.from_json_dict(d)


@pytest.mark.parametrize("theta", [[0.5, "1"], [0.5, True], [0.5, [1.0]], "0.5 1"],
                         ids=["string", "bool", "list-leaf", "not-a-list"])
def test_policy_arrays_refuse_leaves_that_are_not_numbers(theta):
    with pytest.raises(TypeError, match="^theta: expected nested lists of numbers"):
        PolicyParams.from_json_dict({"arch": [1, 1], "theta": theta})
    with pytest.raises(TypeError, match="^action: expected nested lists of numbers"):
        ConstantPolicy.from_json_dict({"action": theta})
    # numbers load, integers among floats included
    assert np.array_equal(PolicyParams.from_json_dict({"arch": [1, 1], "theta": [0.5, 1]}).theta,
                          [0.5, 1.0])


@pytest.mark.parametrize("arch, error, leaf", [
    ([1.5, 2, 1], ValueError, "1.5"),
    (["1", 2, 1], TypeError, "'1'"),
    ([1, True, 1], TypeError, "True"),
], ids=["fraction", "string", "bool"])
def test_policy_arch_entries_must_be_integers(arch, error, leaf):
    # each width is cast as an int field is, not truncated by int()
    with pytest.raises(error, match=f"^arch: expected an integer, got {re.escape(leaf)}$"):
        PolicyParams.from_json_dict({"arch": arch, "theta": [0.0] * 7})
    assert PolicyParams.from_json_dict({"arch": [1, 2.0, 1], "theta": [0.0] * 7}).arch == (1, 2, 1)


# class -> (a JSON object missing some fields without a default, the fields named)
MISSING_FIELDS = {
    "PolicyParams": (PolicyParams, {"activation": "relu"}, "'theta', 'arch'"),
    "ConstantPolicy": (ConstantPolicy, {}, "'action'"),
    "EnvConfig": (EnvConfig, {"family": "bandit", "state_dim": 1}, "'env_id', 'episode_length', "
                  "'action_dim'"),
    "EvalRecord": (EvalRecord, {"env": "e", "noise": {}, "returns": [1.0]},
                   "'policy_id', 'master_seed', 'descriptors'"),
}


@pytest.mark.parametrize("name", MISSING_FIELDS)
def test_from_json_dict_names_every_missing_field_at_once(name):
    cls, d, named = MISSING_FIELDS[name]
    with pytest.raises(ValueError, match=f"^{name} needs {re.escape(named)}$"):
        cls.from_json_dict(d)


# Eval-artifact bytes (sorted keys) of two hand-built records: the first
# without marginals, the second with them and a seed past 32 bits.
EVAL_RECORD_GOLDEN = [
    (
        dict(policy_id="p0", env_id="flat-mean-spread",
             noise=NoiseConfig(kind="reward", sigma=0.25), master_seed=np.int64(7),
             returns=np.array([1.5, -2.0, 0.1]), descriptors=np.array([[0.5], [1.0], [0.25]])),
        '{"descriptors": [[0.5], [1.0], [0.25]], "env": "flat-mean-spread", '
        '"master_seed": 7, "n_evals": 3, "noise": {"kind": "reward", '
        '"obs_affects_reward": true, "resample": "per-episode", "sigma": 0.25}, '
        '"policy_id": "p0", "returns": [1.5, -2.0, 0.1]}',
    ),
    (
        dict(policy_id="p1", env_id="point-mass-nav",
             noise=NoiseConfig(kind="param", resample="per-step"), master_seed=np.int64(2**40),
             returns=np.array([-3.25, 0.5]), descriptors=np.array([[0.0, 1.0], [2.0, -1.5]]),
             state_marginals=np.array([[0.1, 0.2, 0.3], [1e-300, -0.0, 5.0]])),
        '{"descriptors": [[0.0, 1.0], [2.0, -1.5]], "env": "point-mass-nav", '
        '"master_seed": 1099511627776, '
        '"n_evals": 2, "noise": {"kind": "param", "obs_affects_reward": true, '
        '"resample": "per-step", "sigma": 0.02}, "policy_id": "p1", '
        '"returns": [-3.25, 0.5], "state_marginals": {"base64": '
        '"mpmZmZmZuT+amZmZmZnJPzMzMzMzM9M/WfP4wh9upQEAAAAAAAAAgAAAAAAAABRA", '
        '"dtype": "<f8", "shape": [2, 3]}}',
    ),
]
# The second record as written before state marginals were stored as binary,
# with an "extra" key older records could carry: still read to the same arrays,
# and the unknown key is not written back.
EVAL_RECORD_LIST_FORM = (
    '{"descriptors": [[0.0, 1.0], [2.0, -1.5]], "env": "point-mass-nav", '
    '"extra": {"note": "x", "sizes": [1, 2]}, "master_seed": 1099511627776, '
    '"n_evals": 2, "noise": {"kind": "param", "obs_affects_reward": true, '
    '"resample": "per-step", "sigma": 0.02}, "policy_id": "p1", '
    '"returns": [-3.25, 0.5], "state_marginals": [[0.1, 0.2, 0.3], [1e-300, -0.0, 5.0]]}'
)


@pytest.mark.parametrize("fields,golden", EVAL_RECORD_GOLDEN, ids=["plain", "marginals"])
def test_eval_record_json_bytes_and_round_trip(fields, golden):
    rec = EvalRecord(**fields)
    d = rec.to_json_dict()
    assert json.dumps(d, sort_keys=True) == golden
    assert type(d["master_seed"]) is int
    back = EvalRecord.from_json_dict(json.loads(golden))
    assert (back.policy_id, back.env_id, back.noise) == (rec.policy_id, rec.env_id, rec.noise)
    assert back.master_seed == rec.master_seed and type(back.master_seed) is int
    for name in ("returns", "descriptors", "state_marginals"):
        want, got = getattr(rec, name), getattr(back, name)
        assert (got is None) if want is None else np.array_equal(got, want), name
    assert json.dumps(back.to_json_dict(), sort_keys=True) == golden


def _bits(a):
    return np.ascontiguousarray(a, dtype="<f8").view("<u8")


def test_eval_record_reads_list_form_marginals_and_rewrites_binary():
    fields, golden = EVAL_RECORD_GOLDEN[1]
    back = EvalRecord.from_json_dict(json.loads(EVAL_RECORD_LIST_FORM))
    for name in ("returns", "descriptors", "state_marginals"):
        assert np.array_equal(_bits(getattr(back, name)), _bits(fields[name])), name
    assert back.state_marginals.dtype == np.float64
    assert json.dumps(back.to_json_dict(), sort_keys=True) == golden


_EDGE = np.array([[-0.0, 1e-300, 5e-324], [1.7e308, -1.7e308, 0.1]])
MARGINAL_ROUND_TRIPS = {
    "edge-values": _EDGE,
    "big-endian": _EDGE.astype(">f8"),
    "fortran-order": np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7),
    "strided": (np.arange(24.0).reshape(4, 6) - 0.5)[::2, ::3],
    "zero-width": np.zeros((3, 0)),
    "one-row": np.array([[2.5, -0.0, 5e-324]]),
}


@pytest.mark.parametrize("marginals", MARGINAL_ROUND_TRIPS.values(), ids=MARGINAL_ROUND_TRIPS)
def test_eval_record_marginals_round_trip_bit_exact(marginals):
    n = marginals.shape[0]
    rec = EvalRecord(policy_id="p", env_id="e", noise=NoiseConfig(), master_seed=3,
                     returns=np.zeros(n), descriptors=np.zeros((n, 1)), state_marginals=marginals)
    d = json.loads(json.dumps(rec.to_json_dict()))
    want = np.ascontiguousarray(marginals, dtype="<f8")
    assert d["state_marginals"]["dtype"] == "<f8"
    assert d["state_marginals"]["shape"] == list(marginals.shape)
    assert base64.b64decode(d["state_marginals"]["base64"], validate=True) == want.tobytes("C")
    back = EvalRecord.from_json_dict(d).state_marginals
    assert back.dtype == np.float64 and back.shape == marginals.shape
    assert back.flags.writeable and back.flags.c_contiguous
    assert np.array_equal(_bits(back), _bits(marginals))


# Edits of a 3-return record with (3, 1) descriptors and (3, 2) state
# marginals that break its row rules -> the error each must raise
BAD_RECORD_ROWS = {
    "marginal-rows": ({"state_marginals": np.zeros((2, 2))}, "state_marginals must be 3 rows"),
    "marginals-3d": ({"state_marginals": np.zeros((3, 2, 1))}, "state_marginals must be 3 rows"),
    "nan-returns": ({"returns": np.array([1.0, np.nan, 3.0])}, "returns must be a non-empty"),
    "descriptor-rows": ({"descriptors": np.zeros((2, 1))}, "descriptors must be 3 rows"),
}


@pytest.mark.parametrize("form", ["list", "binary"])
@pytest.mark.parametrize("case", BAD_RECORD_ROWS)
def test_eval_record_from_json_dict_refuses_rows_that_do_not_fit_returns(case, form):
    edit, error = BAD_RECORD_ROWS[case]
    arrays = {"returns": np.array([1.0, 2.0, 3.0]), "descriptors": np.zeros((3, 1)),
              "state_marginals": np.arange(6.0).reshape(3, 2), **edit}
    rec = EvalRecord(policy_id="p", env_id="e", noise=NoiseConfig(), master_seed=3, **arrays)
    d = json.loads(json.dumps(rec.to_json_dict()))
    if form == "list":
        d["state_marginals"] = arrays["state_marginals"].tolist()
    with pytest.raises(ValueError, match=error):
        EvalRecord.from_json_dict(d)


def test_forward_zero_network_outputs_zero():
    p = PolicyParams(theta=np.zeros(386), arch=(4, 16, 16, 2))
    out = policy_forward(p, np.array([1.0, -2.0, 0.5, 3.0]))
    assert out.shape == (2,)
    assert np.array_equal(out, np.zeros(2))


def test_forward_single_layer_hand_case():
    # arch (1, 1): theta = [w, b], output = tanh(w*x + b)
    p = PolicyParams(theta=np.array([2.0, -1.0]), arch=(1, 1))
    x = np.array([0.75])
    assert policy_forward(p, x)[0] == np.tanh(2.0 * 0.75 - 1.0)


def test_forward_two_layer_hand_case():
    # arch (1, 1, 1): h = tanh(w1*x + b1), y = tanh(w2*h + b2)
    w1, b1, w2, b2 = 0.5, 0.25, -1.5, 0.1
    p = PolicyParams(theta=np.array([w1, b1, w2, b2]), arch=(1, 1, 1))
    x = np.array([-0.4])
    h = np.tanh(w1 * x[0] + b1)
    assert policy_forward(p, x)[0] == pytest.approx(np.tanh(w2 * h + b2), abs=1e-15)


def test_forward_relu_hidden():
    # relu only affects hidden layers; output still tanh-squashed
    p = PolicyParams(theta=np.array([1.0, -2.0, 1.0, 0.0]), arch=(1, 1, 1), activation="relu")
    assert policy_forward(p, np.array([1.0]))[0] == np.tanh(0.0)  # relu(-1) = 0
    assert policy_forward(p, np.array([3.0]))[0] == np.tanh(1.0)


def test_forward_output_always_in_action_box():
    gen = np.random.default_rng(3)
    p = PolicyParams(theta=gen.standard_normal(386) * 10, arch=(4, 16, 16, 2))
    for _ in range(50):
        out = policy_forward(p, gen.standard_normal(4) * 5)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_forward_shape_and_finite_errors():
    p = PolicyParams(theta=np.zeros(386), arch=(4, 16, 16, 2))
    with pytest.raises(ShapeError):
        policy_forward(p, np.zeros(3))
    with pytest.raises(ShapeError):
        policy_forward(p, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        policy_forward(p, np.array([1.0, np.nan, 0.0, 0.0]))


def test_forward_repeated_calls_bit_identical():
    gen = np.random.default_rng(11)
    p = PolicyParams(theta=gen.standard_normal(386), arch=(4, 16, 16, 2))
    obs = gen.standard_normal(4)
    first = policy_forward(p, obs)
    for _ in range(1000):
        assert np.array_equal(policy_forward(p, obs), first)


def test_policy_action_dispatch():
    c = ConstantPolicy(action=np.array([0.5]))
    assert np.array_equal(policy_action(c, np.zeros(1)), np.array([0.5]))
    p = PolicyParams(theta=np.zeros(2), arch=(1, 1))
    assert policy_action(p, np.zeros(1))[0] == 0.0


def test_stream_same_triple_same_draws():
    a = derive_stream(42, "noise", 7).generator().standard_normal(32)
    b = derive_stream(42, "noise", 7).generator().standard_normal(32)
    assert np.array_equal(a, b)


def test_stream_distinct_coordinates_differ():
    base = derive_stream(42, "noise", 7).generator().standard_normal(8)
    for other in [
        derive_stream(43, "noise", 7),
        derive_stream(42, "env", 7),
        derive_stream(42, "noise", 8),
    ]:
        assert not np.array_equal(base, other.generator().standard_normal(8))


def test_stream_derivation_order_free():
    # deriving B before A must not change A's draws
    a_first = derive_stream(5, "a", 0).generator().standard_normal(16)
    _ = derive_stream(5, "b", 0).generator().standard_normal(999)
    a_second = derive_stream(5, "a", 0).generator().standard_normal(16)
    assert np.array_equal(a_first, a_second)


def test_stream_bulk_equals_scalar_draws():
    # pregenerating an array must equal drawing one value at a time
    bulk = derive_stream(9, "noise", 0).generator().standard_normal((10, 4))
    gen = derive_stream(9, "noise", 0).generator()
    scalar = np.array([[gen.standard_normal() for _ in range(4)] for _ in range(10)])
    assert np.array_equal(bulk, scalar)


@pytest.mark.parametrize("seed, index", [(0, -1), (-1, 0), (-(2**70), 2)])
def test_stream_negative_seed_or_index_rejected(seed, index):
    # before any stream is drawn
    with pytest.raises(ValueError, match="non-negative"):
        derive_stream(seed, "noise", index)


def test_stream_golden_draws():
    # the first normals of one stream, fixed: a change here changes every artifact
    want = ["0x1.42e655d621bfcp-3", "-0x1.17237baf78b42p-3", "0x1.c9523af15181ap+0"]
    assert [x.hex() for x in derive_stream(42, "noise", 7).generator().standard_normal(3)] == want
    gen = state_generator(stream_states([42], [7], "noise")[0])
    assert [x.hex() for x in gen.standard_normal(3)] == want


# Every tag the package derives streams under.
PACKAGE_TAGS = ["init", "noise", "env", "es-init", "es-gen", "es-fit", "report-ci",
                "bootstrap-default"]
# One, two and three 32-bit words of seed; one and two of index.
SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5]
INDICES = [0, 2**32 - 1, 2**32, 2**63]
# The keys of stream_states(SEEDS, INDICES, tag), seed-major.
GRID = [(seed, i) for seed in SEEDS for i in INDICES]


def test_every_package_tag_contributes_four_words():
    for tag in PACKAGE_TAGS:
        assert len(_tag_entropy(tag)) == 4, tag


@pytest.mark.parametrize("tag", PACKAGE_TAGS)
def test_stream_state_generators_equal_seed_sequence_generators(tag):
    # one call mixes every seed and index word count
    states = stream_states(SEEDS, INDICES, tag)
    assert states.shape == (len(GRID), 4)
    for (seed, i), words in zip(GRID, states):
        want = stream_gen(seed, tag, i).standard_normal(4)
        assert np.array_equal(state_generator(words).standard_normal(4), want), (seed, i)
        assert np.array_equal(derive_stream(seed, tag, i).generator().standard_normal(4), want)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_state_single_key_generator_equals_seed_sequence_generator(seed):
    # a one-seed, one-index call, as each one-off stream takes
    for i in INDICES:
        gen = state_generator(stream_states([seed], [i], "es-init")[0])
        assert np.array_equal(gen.standard_normal(4), stream_gen(seed, "es-init", i).standard_normal(4))


def test_stream_state_generators_block_and_empty():
    for i, words in enumerate(stream_states([123], range(256), "env")):
        assert state_generator(words).uniform(-1.0, 1.0) == stream_gen(123, "env", i).uniform(-1.0, 1.0)
    assert stream_states([], [0, 1], "env").shape == (0, 4)
    assert stream_states([1, 2], [], "env").shape == (0, 4)


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (-(2**70), 2)])
def test_stream_states_reject_negative_seed_or_index(seed, index):
    # as derive_stream does, also after a valid seed and index
    with pytest.raises(ValueError):
        stream_states([5, seed], [0, index], "noise")
    with pytest.raises(ValueError):
        derive_stream(seed, "noise", index).generator()


@pytest.mark.parametrize("tag", ["env", "es-fit"])
def test_stream_states_equal_seed_sequence_state(tag):
    for (seed, i), words in zip(GRID, stream_states(SEEDS, INDICES, tag)):
        seq = np.random.SeedSequence((seed, *_tag_words(tag), i))
        assert np.array_equal(words, seq.generate_state(4, np.uint64)), (seed, i)


def test_stream_states_seed_major_grid_of_any_order():
    # repeated and unsorted seeds and indices, each key where the grid puts it
    seeds, index = [2**40, 3, 2**40, 0], [9, 2**33, 0, 9]
    states = stream_states(seeds, index, "noise")
    for r, (seed, i) in enumerate((seed, i) for seed in seeds for i in index):
        seq = np.random.SeedSequence((seed, *_tag_words("noise"), i))
        assert np.array_equal(states[r], seq.generate_state(4, np.uint64)), (seed, i)


def test_stream_states_when_seed_and_tag_fill_less_than_the_pool(monkeypatch):
    # A tag whose two hash words are each below 2^32 gives 2 SeedSequence
    # words; with a 1-word seed the index word completes the 4-word pool.
    lo, hi = 0x1234, 0xFFFFFFFF
    real = core._tag_words
    monkeypatch.setattr(core, "_tag_words", lambda tag: (lo, hi) if tag == "short" else real(tag))
    core._tag_entropy.cache_clear()
    core._prefix_pools.cache_clear()
    try:
        assert len(core._tag_entropy("short")) == 2
        seeds, index = [0, 7, 2**32 - 1, 2**32 + 3], [0, 5, 2**32 - 1, 2**32, 2**63]
        states = stream_states(seeds, index, "short")
        for r, (seed, i) in enumerate((seed, i) for seed in seeds for i in index):
            seq = np.random.SeedSequence((seed, lo, hi, i))
            assert np.array_equal(states[r], seq.generate_state(4, np.uint64)), (seed, i)
    finally:
        monkeypatch.undo()
        core._tag_entropy.cache_clear()
        core._prefix_pools.cache_clear()


def test_mutating_returned_states_leaves_later_calls_unchanged():
    want = stream_states([7, 2**40], [0, 3], "env").copy()
    stream_states([7, 2**40], [0, 3], "env")[:] = 0
    assert np.array_equal(stream_states([7, 2**40], [0, 3], "env"), want)
    for _, _, pool in core._prefix_pools((7, 2**40), "env"):
        assert not pool.flags.writeable


@pytest.mark.parametrize("n", [1, 3, 100])
@pytest.mark.parametrize("tag", ["env", "es-fit"])
def test_pcg64_raw_equals_pcg64_random_raw(tag, n):
    # one pass over every seed and index word count
    raw = pcg64_raw(stream_states(SEEDS, INDICES, tag), n)
    assert raw.shape == (len(GRID), n) and raw.dtype == np.uint64
    for (seed, i), row in zip(GRID, raw):
        assert np.array_equal(row, stream_gen(seed, tag, i).bit_generator.random_raw(n)), (seed, i)


@pytest.mark.parametrize("n", [1, 3, 100])
def test_pcg64_raw_uniform_equals_generator_uniform(n):
    # Generator.uniform(-1, 1) is -1 + 2 * (53 high bits * 2^-53), as the bandit takes it
    keys = GRID + [(7, i) for i in range(300)]
    states = np.concatenate([stream_states(SEEDS, INDICES, "env"), stream_states([7], range(300), "env")])
    raw = pcg64_raw(states, n)
    u = -1.0 + 2.0 * ((raw >> np.uint64(11)) * 2.0**-53)
    for (seed, i), row in zip(keys, u):
        assert np.array_equal(row, stream_gen(seed, "env", i).uniform(-1.0, 1.0, n)), (seed, i)


def test_pcg64_raw_integers_equal_generator_integers():
    # Generator.integers(0, 2**63) is the first raw word shifted right once, as es_step takes it
    keys = GRID + [(3, i) for i in range(10_000)]
    states = np.concatenate([stream_states(SEEDS, INDICES, "es-fit"), stream_states([3], range(10_000), "es-fit")])
    seeds = pcg64_raw(states, 1)[:, 0] >> np.uint64(1)
    want = [stream_gen(seed, "es-fit", i).integers(0, 2**63) for seed, i in keys]
    assert seeds.tolist() == want


def test_pcg64_raw_empty_and_golden():
    assert stream_states([], [], "env").shape == (0, 4)
    assert pcg64_raw(stream_states([], [], "env"), 3).shape == (0, 3)
    # the first raw words of one stream, fixed: a change here changes every bandit artifact
    want = ["0x5e54767bc2b7e8af", "0x13615784a2fd5611", "0xdae7b9fcbfb39b92"]
    assert [hex(x) for x in pcg64_raw(stream_states([42], [7], "env"), 3)[0].tolist()] == want
    assert [hex(x) for x in stream_gen(42, "env", 7).bit_generator.random_raw(3).tolist()] == want


@pytest.mark.parametrize("n_words", range(4, 10))
def test_absorb_equals_seed_sequence_state_for_any_entropy_length_and_split(n_words):
    gen = np.random.default_rng(n_words)
    entropy = gen.integers(0, 2**32, size=(n_words, 3), dtype=np.uint64).astype(np.uint32)
    entropy[:, 0] = 0
    states = _emit_states(_absorb(np.zeros((4, 3), np.uint32), entropy, 0))
    for col in range(3):
        seq = np.random.SeedSequence(tuple(int(w) for w in entropy[:, col]))
        assert np.array_equal(states[col], seq.generate_state(4, np.uint64)), col
        one = _absorb(np.zeros((4, 1), np.uint32), entropy[:, col : col + 1], 0)
        assert np.array_equal(_emit_states(one)[0], states[col]), col
    # a prefix absorbed first, the rest after, as stream_states splits them
    for split in range(n_words + 1):
        pool = _absorb(np.zeros((4, 3), np.uint32), entropy[:split], 0)
        assert np.array_equal(_emit_states(_absorb(pool, entropy[split:], split)), states), split
