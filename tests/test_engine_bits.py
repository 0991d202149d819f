"""Golden digest of the rollout engine's output bits.

The oracle in `reference_rollout` pins each rollout against a step-by-step
loop; this digest pins the bits themselves, so a change to the engine's
layout or kernels that moved any drawn value, return, descriptor, state
marginal or trained theta shows here even if the oracle moved with it.
"""

import hashlib

import numpy as np

from repro_rl.core import PolicyParams, param_count, policy_forward
from repro_rl.envs import point_mass_nav, tradeoff_spread
from repro_rl.noise import KINDS, NoiseConfig
from repro_rl.optim import EsConfig, train
from repro_rl.rollout import EvalConfig, _rollouts, evaluate, rollout_once

# `engine_digest()` as computed before the engine stepped its blocks
# feature-major; any change to it is a change to the engine's bits.
GOLDEN = "de178e7f97c0a00e0ee08621962f4b4235e5431ab846df168febda49fcc3ca28"

NOISES = [NoiseConfig(kind=k) for k in KINDS] + [
    NoiseConfig(kind="param", resample="per-step"),
    NoiseConfig(kind="obs", obs_affects_reward=False),
]
ENVS = [
    (point_mass_nav(episode_length=20), [(4, 16, 16, 2), (4, 32, 2), (4, 2)]),
    (tradeoff_spread(), [(1, 8, 1), (1, 4, 4, 1)]),
]
TRAIN_CASES = [
    (tradeoff_spread(), (1, 8, 1), "plain", NoiseConfig(kind="action")),
    (tradeoff_spread(), (1, 4, 4, 1), "repro", NoiseConfig(kind="reward")),
    (point_mass_nav(episode_length=20), (4, 8, 2), "plain", NoiseConfig(kind="obs")),
    (point_mass_nav(episode_length=20), (4, 8, 1, 2), "repro", NoiseConfig(kind="dynamics")),
]


def _feed(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())


def engine_digest() -> str:
    h = hashlib.sha256()
    gen = np.random.default_rng(2024)
    for env, archs in ENVS:
        for arch in archs:
            for activation in ("tanh", "relu"):
                pol = PolicyParams(0.5 * gen.standard_normal(param_count(arch)), arch, activation)
                thetas = pol.theta + 0.1 * gen.standard_normal((3, pol.theta.size))
                for obs in 2.0 * gen.standard_normal((4, arch[0])):
                    _feed(h, policy_forward(pol, obs))
                for noise in NOISES:
                    for n in (1, 3, 300):
                        rec = evaluate(pol, env, noise, EvalConfig(n, 7, record_state_marginal=True))
                        _feed(h, rec.returns, rec.descriptors, rec.state_marginals)
                    out = _rollouts(pol, env, noise, [3, 4, 5], 100, thetas, True)
                    _feed(h, out["returns"], out["descriptors"], out["state_marginals"])
                    for i in (0, 299):
                        one = rollout_once(pol, env, noise, 7, i)
                        _feed(h, one.states, one.observations, one.actions, one.rewards,
                              one.episode_return, one.final_state)
    for env, arch, mode, noise in TRAIN_CASES:
        cfg = EsConfig(arch=arch, popsize=8, generations=3, fitness_mode=mode, n_reevals=4)
        state = train(cfg, env, noise, 11)
        _feed(h, state.center.theta)
    return h.hexdigest()


def test_engine_output_bits_match_the_golden_digest():
    assert engine_digest() == GOLDEN
