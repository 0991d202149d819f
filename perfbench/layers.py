"""Which functions of repro_rl the traced run wraps, and the per-layer
metrics computed from the spans they record.

Each function is wrapped under every name its callers look it up by: a
module that does `from .rollout import evaluate` holds its own reference,
so `repro_rl.optim.evaluate`, `repro_rl.cli.evaluate` and the package-level
`repro_rl.evaluate` are all replaced, not only `repro_rl.rollout.evaluate`.
Helpers private to a layer are left unwrapped, so their time counts as the
self time of the layer's entry point. Attributes a later version of the
package no longer has are skipped; their metrics then read zero and are
marked not applicable.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from spans import STATUS_FAILURE, self_times

# Rough cost of one point-mass env step inside the kernel (velocity update,
# speed clamp, position update, reward distance) on top of the policy net.
ENV_STEP_FLOPS = 20


def _arg(fn, name):
    """Reader of argument `name` of `fn` from a call's (args, kwargs); reads
    None when `fn` is missing or has no such argument."""
    params = list(inspect.signature(fn).parameters.values()) if callable(fn) else []
    if name not in [p.name for p in params]:
        return lambda args, kwargs: None
    idx = [p.name for p in params].index(name)
    default = params[idx].default

    def read(args, kwargs):
        if len(args) > idx:
            return args[idx]
        return kwargs.get(name, default)

    return read


def _kernel_flops(args, kwargs, result):
    arch = [int(w) for w in args[1]]
    n_steps = int(args[8])
    per_step = sum(2 * a * b + 2 * b for a, b in zip(arch[:-1], arch[1:]))
    return n_steps * (per_step + ENV_STEP_FLOPS)


def _file_size(path):
    return os.path.getsize(path) if path is not None and os.path.isfile(path) else 0


def install(tracer, rr) -> None:
    """Wrap repro_rl's layer entry points."""
    put = tracer.install

    core, rollout, noise, optim = rr.core, rr.rollout, rr.noise, rr.optim
    stats, metrics, cli = rr.stats, rr.metrics, rr.cli
    put(getattr(core, "RngStream", None), "generator", "core.rng")
    put(rollout, "policy_action", "core.forward")
    for attr in ("wrap_reset", "wrap_params", "observe", "wrap_step"):
        put(rollout, attr, f"noise.{attr}")
    put(noise, "transition", "envs.step")
    put(noise, "reward", "envs.reward")
    put(getattr(rr, "_accel", None), "point_mass_episode", "accel.kernel", _kernel_flops)

    n_evals = _arg(getattr(rollout, "evaluate", None), "eval_cfg")
    episodes = lambda a, k, r: getattr(n_evals(a, k), "n_evals", 0)  # noqa: E731
    for owner in (rollout, optim, cli, rr):
        put(owner, "evaluate", "rollout.evaluate", episodes)

    put(optim, "es_step", "optim.es_step")
    for owner in (optim, cli, rr):
        put(owner, "train", "optim.train")

    resamples = _arg(getattr(stats, "stratified_bootstrap", None), "n_resamples")
    for owner in (stats, cli, rr):
        put(owner, "stratified_bootstrap", "stats.bootstrap", lambda a, k, r: resamples(a, k) or 0)

    pairs = lambda a, k, r: len(a[0]) * (len(a[0]) - 1) // 2  # noqa: E731
    for owner in (metrics, rr):
        put(owner, "pairwise_distances", "metrics.pairwise", pairs)
    for owner in (metrics, rr):
        put(owner, "lcb", "metrics.lcb")
    # The CLI scores LCB rows (and pareto's MAD axis) from the estimators
    # directly rather than through metrics.lcb.
    put(cli, "performance", "metrics.lcb")
    put(cli, "dispersion", "metrics.lcb")
    for owner in (metrics, cli, rr):
        put(owner, "pareto_front", "metrics.pareto")

    put(cli, "main", "cli.main")
    for attr in ("load_config", "_load_policy_file", "_load_eval_artifact"):
        put(cli, attr, "cli.json_read", lambda a, k, r: _file_size(a[0]))
    put(cli, "_dump_json", "cli.json_write", lambda a, k, r: _file_size(a[1]))
    put(cli, "_write_rows", "cli.json_write", lambda a, k, r: _file_size(a[3]))


# (metric, unit, better, span names it reads, what it measures)
PER_LAYER = [
    ("core.rng.calls", "count/pass", "lower", ("core.rng",), "calls"),
    ("core.rng.s", "s/pass", "lower", ("core.rng",), "total"),
    ("core.forward.calls", "count/pass", "lower", ("core.forward",), "calls"),
    ("core.forward.s", "s/pass", "lower", ("core.forward",), "total"),
    ("noise.calls", "count/pass", "lower", ("noise.*",), "calls"),
    ("noise.self_s", "s/pass", "lower", ("noise.*",), "self"),
    ("envs.step.calls", "count/pass", "lower", ("envs.step",), "calls"),
    ("envs.step.self_s", "s/pass", "lower", ("envs.step", "envs.reward"), "self"),
    ("accel.kernel.calls", "count/pass", "lower", ("accel.kernel",), "calls"),
    ("accel.kernel.s", "s/pass", "lower", ("accel.kernel",), "total"),
    ("accel.kernel.flops", "flop/pass", "lower", ("accel.kernel",), "work"),
    ("rollout.evaluate.calls", "count/pass", "lower", ("rollout.evaluate",), "calls"),
    ("rollout.evaluate.s", "s/pass", "lower", ("rollout.evaluate",), "total"),
    ("rollout.evaluate.self_s", "s/pass", "lower", ("rollout.evaluate",), "self"),
    ("rollout.episodes", "count/pass", "higher", ("rollout.evaluate",), "work"),
    ("rollout.episodes_per_call", "count/call", "higher", ("rollout.evaluate",), "work_per_call"),
    ("rollout.numeric_failures", "count/pass", "lower", ("rollout.evaluate",), "failures"),
    ("optim.generations", "count/pass", "higher", ("optim.es_step",), "calls"),
    ("optim.es_step.s", "s/pass", "lower", ("optim.es_step",), "total"),
    ("optim.es_step.self_s", "s/pass", "lower", ("optim.es_step",), "self"),
    ("optim.evaluate_calls_per_gen", "count/gen", "lower", ("optim.es_step",), "evals_per_gen"),
    ("stats.bootstrap.calls", "count/pass", "lower", ("stats.bootstrap",), "calls"),
    ("stats.bootstrap.s", "s/pass", "lower", ("stats.bootstrap",), "total"),
    ("stats.bootstrap.resamples", "count/pass", "lower", ("stats.bootstrap",), "work"),
    ("metrics.pairwise.calls", "count/pass", "lower", ("metrics.pairwise",), "calls"),
    ("metrics.pairwise.s", "s/pass", "lower", ("metrics.pairwise",), "total"),
    ("metrics.pairwise.pairs", "count/pass", "lower", ("metrics.pairwise",), "work"),
    ("metrics.lcb.s", "s/pass", "lower", ("metrics.lcb",), "total"),
    ("metrics.pareto.s", "s/pass", "lower", ("metrics.pareto",), "total"),
    ("cli.json_read.s", "s/pass", "lower", ("cli.json_read",), "total"),
    ("cli.json_read.bytes", "B/pass", "lower", ("cli.json_read",), "work"),
    ("cli.json_write.s", "s/pass", "lower", ("cli.json_write",), "total"),
    ("cli.json_write.bytes", "B/pass", "lower", ("cli.json_write",), "work"),
    ("cli.self_s", "s/pass", "lower", ("cli.main",), "self"),
    ("trace.overhead_frac", "ratio", "lower", (), "overhead"),
]


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".*") and name.startswith(p[:-1])) for p in patterns)


def layer_metrics(spans: dict, passes: int, overhead_frac: float) -> dict:
    """metric -> (value, applicable). Totals are divided by `passes`."""
    names = [str(n) for n in spans["names"]]
    name_of = spans["name"]
    dur = spans["end"] - spans["start"]
    self_t = self_times(spans)
    ids = spans["id"]
    out = {}
    for metric, _unit, _better, patterns, kind in PER_LAYER:
        if kind == "overhead":
            out[metric] = (float(overhead_frac), True)
            continue
        wanted = [i for i, n in enumerate(names) if _matches(n, patterns)]
        mask = np.isin(name_of, wanted)
        calls = int(mask.sum())
        if kind == "calls":
            value = calls / passes
        elif kind == "total":
            value = float(dur[mask].sum()) / passes
        elif kind == "self":
            value = float(self_t[mask].sum()) / passes
        elif kind == "work":
            value = float(spans["work"][mask].sum()) / passes
        elif kind == "work_per_call":
            value = float(spans["work"][mask].sum()) / calls if calls else 0.0
        elif kind == "failures":
            value = int((spans["status"][mask] == STATUS_FAILURE).sum()) / passes
        elif kind == "evals_per_gen":
            evals = np.isin(name_of, [i for i, n in enumerate(names) if n == "rollout.evaluate"])
            under_gen = evals & np.isin(spans["parent"], ids[mask])
            value = float(under_gen.sum()) / calls if calls else 0.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[metric] = (value, calls > 0)
    return out
