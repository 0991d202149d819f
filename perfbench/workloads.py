"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, then `run_pass`
does one fixed unit of work (a pass) as a closed loop: every call into
repro_rl starts when the previous one has returned. The worker repeats
passes until its time is up. A pass costs the same for every seed, so
per-pass timings compare across seeds. `checks` verifies the outputs
after the timed loop, with checks that do not depend on which random
numbers the package draws: they compare the package with itself (across
batch sizes, thread counts and reruns) or with bounds derived from the
environment's definition.

All calls go through module attributes looked up at call time, the way a
user's code would, so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

NOISE_KINDS = ("action", "obs", "reward", "param", "init-state", "dynamics")


class Ops:
    """Counts attempted and failed operations (one command or library call).

    A failed operation is one that raises or, for a CLI command, exits
    non-zero; the run carries on after it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what[:300])

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, main, argv: list) -> bool:
        self.attempted += 1
        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects flags this way
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            self._fail(f"repro-rl {argv[0]} -> {code}: {sink.getvalue()[-200:]}")
        return code == 0


class Workload:
    """Shared plumbing: seeded inputs, phase timers and the op counter."""

    name = ""

    def __init__(self, rr, workdir, seed: int, size: str, jobs: int):
        self.rr = rr
        self.dir = workdir
        self.tiny = size == "tiny"
        self.jobs = jobs
        self.rng = np.random.default_rng(seed)
        self.ops = Ops()
        self.phases: dict = {}
        self.tally: dict = {}

    def timed(self, phase: str, fn, *args, **kwargs):
        """Call `fn` as one timed operation of the pass, booked to `phase`."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.phases[phase] = self.phases.get(phase, 0.0) + perf_counter() - t0

    def begin_pass(self) -> None:
        self.phases = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        """Tally a check made on each output during the timed loop."""
        passed, total, first_bad = self.tally.get(name, (0, 0, ""))
        if not ok and not first_bad:
            first_bad = detail[:200]
        self.tally[name] = (passed + bool(ok), total + 1, first_bad)

    def loop_checks(self) -> list:
        return [
            (name, passed == total, f"{passed}/{total} passed" + (f"; first failure: {bad}" if bad else ""))
            for name, (passed, total, bad) in self.tally.items()
        ]

    def warm_point_mass(self) -> None:
        """One short rollout per noise kind, so lazy set-up happens here."""
        rr = self.rr
        policy = rr.PolicyParams(np.zeros(rr.param_count((4, 4, 2))), (4, 4, 2))
        for kind in ("none",) + NOISE_KINDS:
            rr.evaluate(policy, rr.point_mass_nav(), rr.NoiseConfig(kind=kind), rr.EvalConfig(1, 0))

    def check_prefix(self, rec, policy, env, noise, eval_cfg, jobs: int, span: int) -> tuple:
        """Re-run a prefix of `rec` with another batch size and thread count
        and compare sampled rollouts bit for bit."""
        rr = self.rr
        n = rec.n_evals
        idx = np.unique(self.rng.integers(0, min(n, span), size=3))
        again = rr.evaluate(
            policy, env, noise,
            rr.EvalConfig(int(idx.max()) + 1, eval_cfg.master_seed, eval_cfg.record_state_marginal),
            jobs=jobs,
        )
        same = np.array_equal(again.returns[idx], rec.returns[idx]) and np.array_equal(
            again.descriptors[idx], rec.descriptors[idx]
        )
        if rec.state_marginals is not None:
            same = same and np.array_equal(again.state_marginals[idx], rec.state_marginals[idx])
        return same, f"N={n} vs N={int(idx.max()) + 1} jobs={jobs} at {idx.tolist()}"


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(np.ascontiguousarray(c, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _read_rows(path) -> list:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _file_hash(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _ci_rows_ok(rows: list) -> bool:
    return all(
        math.isfinite(float(r["point"])) and float(r["ci_lo"]) <= float(r["ci_hi"]) for r in rows
    )


class ProtocolPm(Workload):
    """train -> evaluate (six noise kinds, --jobs) -> report -> pareto via the CLI."""

    name = "protocol-pm"

    def setup(self):
        n_seeds, self.popsize, self.gens, self.n_evals = (1, 4, 1, 4) if self.tiny else (3, 8, 8, 16)
        self.train_seeds = sorted(int(s) for s in self.rng.choice(10_000, n_seeds, replace=False))
        eval_seed = int(self.rng.integers(10_000, 20_000))
        self.resample_flags = ["--n-resamples", "50"] if self.tiny else []
        base = {
            "env": {"name": "point-mass-nav"},
            "es": {"arch": [4, 16, 16, 2], "popsize": self.popsize, "sigma_es": 0.1,
                   "lr": 0.05, "generations": self.gens},
            "n_evals": self.n_evals,
        }
        self.train_cfg = self._write_cfg(
            "train.json", dict(base, noise={"kind": "init-state"}, algo="es", seeds=[0])
        )
        self.eval_cfgs = {
            kind: self._write_cfg(f"eval_{kind}.json", dict(base, noise={"kind": kind}, seeds=[eval_seed]))
            for kind in NOISE_KINDS
        }
        self.runs = self.dir / "runs"
        self.evals = self.dir / "evals"
        self.outputs = {
            "lcb": self.dir / "report_lcb.csv",
            "bmad": self.dir / "report_bmad.csv",
            "pareto": self.dir / "front.csv",
        }
        self.report_hashes: list = []
        self.warm_point_mass()

    def _write_cfg(self, name, cfg):
        path = self.dir / name
        path.write_text(json.dumps(cfg))
        return str(path)

    def _report(self, metric):
        extra = ["--alphas", "0,1"] if metric == "lcb" else []
        return self.ops.cli(
            self.rr.cli.main,
            ["report", str(self.evals), "--metric", metric, *extra, *self.resample_flags,
             "--out", str(self.outputs[metric])],
        )

    def run_pass(self):
        self.begin_pass()
        main = self.rr.cli.main
        gen_ms = []
        for s in self.train_seeds:
            t0 = perf_counter()
            self.timed("train", self.ops.cli, main,
                       ["train", "--config", self.train_cfg, "--out", str(self.runs), "--seeds", str(s)])
            gen_ms.append(1e3 * (perf_counter() - t0) / self.gens)
        for s in self.train_seeds:
            policy = str(self.runs / f"train_es_seed{s}.json")
            for kind, cfg in self.eval_cfgs.items():
                self.timed("evaluate", self.ops.cli, main,
                           ["evaluate", "--config", cfg, "--policy", policy, "--out", str(self.evals),
                            "--policy-id", f"es-seed{s}-{kind}", "--jobs", str(self.jobs)])
        for metric in ("lcb", "bmad"):
            self.timed("report", self._report, metric)
        self.timed("pareto", self.ops.cli, main,
                   ["pareto", str(self.evals), "--out", str(self.outputs["pareto"])])
        self.report_hashes.append(
            {k: _file_hash(p) if p.exists() else None for k, p in self.outputs.items()}
        )
        n_seeds = len(self.train_seeds)
        return {
            "rollouts": n_seeds * (self.gens * self.popsize + len(NOISE_KINDS) * self.n_evals),
            "es_gen_ms": gen_ms,
        }

    def _artifacts(self):
        out = []
        for path in sorted(self.evals.glob("*.json")):
            with open(path) as fh:
                out.append(json.load(fh))
        return out

    def checks(self):
        rr = self.rr
        res = []
        first = self.report_hashes[0]
        self._report("lcb")
        rerun = _file_hash(self.outputs["lcb"])
        res.append(("report bytes identical across runs",
                    all(h == first for h in self.report_hashes) and rerun == first["lcb"],
                    f"{len(self.report_hashes) + 1} runs of report lcb"))
        lcb_rows, bmad_rows = _read_rows(self.outputs["lcb"]), _read_rows(self.outputs["bmad"])
        res.append(("report rows as expected, ci_lo <= ci_hi",
                    len(lcb_rows) == 2 * len(NOISE_KINDS) and len(bmad_rows) == len(NOISE_KINDS)
                    and _ci_rows_ok(lcb_rows + bmad_rows),
                    f"lcb {len(lcb_rows)} rows, bmad {len(bmad_rows)} rows"))
        n_art = len(self.train_seeds) * len(NOISE_KINDS)
        front = _read_rows(self.outputs["pareto"])
        res.append(("pareto rows as expected", len(front) == n_art, f"{len(front)} of {n_art}"))
        arts = self._artifacts()
        res.append(("all returns finite",
                    len(arts) == n_art and all(np.all(np.isfinite(a["returns"])) for a in arts),
                    f"{len(arts)} eval artifacts"))
        ok, detail = True, []
        for art in [arts[i] for i in self.rng.choice(len(arts), 2, replace=False)]:
            seed = art["policy_id"].split("-")[1][len("seed"):]
            with open(self.runs / f"train_es_seed{seed}.json") as fh:
                policy = rr.cli.policy_from_json_dict(json.load(fh))
            rec = rr.core.EvalRecord.from_json_dict(art)
            same, d = self.check_prefix(
                rec, policy, rr.point_mass_nav(), rec.noise,
                rr.EvalConfig(rec.n_evals, rec.master_seed), jobs=1, span=rec.n_evals)
            ok, detail = ok and same, detail + [f"{art['policy_id']} {d}"]
        res.append(("rollout i independent of batch size and --jobs", ok,
                    f"CLI --jobs {self.jobs} vs library jobs=1: " + "; ".join(detail)))
        self.returns_digest = _sha(a["returns"] for a in arts)
        return res


# Point-mass policies of the sweep: two architectures, each with both
# hidden activations.
SWEEP_POLICIES = [((4, 16, 16, 2), "tanh"), ((4, 16, 16, 2), "relu"), ((4, 32, 2), "tanh"), ((4, 32, 2), "relu")]

# (noise kind, param resample mode, policy index, batch size, record marginals).
# Batch sizes span 8..1024 so a batched engine shows at both ends; the
# N=1024 marginals make state_marginal_repro do 523,776 pairwise distances
# over 400-dim vectors; per-step param noise keeps the generic path in use.
SWEEP_CASES = [
    ("none", "per-episode", 0, 8, False),
    ("action", "per-episode", 1, 32, False),
    ("obs", "per-episode", 2, 1024, True),
    ("reward", "per-episode", 3, 8, False),
    ("param", "per-episode", 0, 64, False),
    ("init-state", "per-episode", 1, 128, True),
    ("dynamics", "per-episode", 2, 32, False),
    ("param", "per-step", 3, 16, False),
]


class EvalSweepPm(Workload):
    """Library evaluate() + summaries over noise kinds and batch sizes."""

    name = "eval-sweep-pm"

    def setup(self):
        rr = self.rr
        self.env = rr.point_mass_nav()
        self.policies = [
            rr.PolicyParams(0.5 * self.rng.standard_normal(rr.param_count(arch)), arch, act)
            for arch, act in SWEEP_POLICIES
        ]
        self.cases = []
        for kind, resample, p, n, marg in SWEEP_CASES:
            n = max(4, n // 32) if self.tiny else n
            cfg = rr.EvalConfig(n, int(self.rng.integers(0, 2**31)), marg)
            self.cases.append((self.policies[p], rr.NoiseConfig(kind=kind, resample=resample), cfg))
        self.first = None
        self.warm_point_mass()

    def _summaries(self, rec):
        rr = self.rr
        out = [rr.summarize(rec, alphas=(0.0, 0.5, 1.0)).perf, rr.behavioural_mad(rec.descriptors)]
        if rec.state_marginals is not None:
            out.append(rr.state_marginal_repro(rec))
        return out

    def run_pass(self):
        self.begin_pass()
        rr = self.rr
        records = []
        for k, (policy, noise, cfg) in enumerate(self.cases):
            rec = self.timed("evaluate", self.ops.call, rr.evaluate, policy, self.env, noise, cfg,
                             policy_id=f"sweep-{k}")
            records.append(rec)
            if rec is None:
                continue
            summary = self.timed("summarize", self.ops.call, self._summaries, rec)
            self.expect("returns finite", bool(np.all(np.isfinite(rec.returns))), f"case {k}")
            self.expect("summaries finite", summary is not None and bool(np.all(np.isfinite(summary))),
                        f"case {k}")
        if self.first is None:
            self.first = records
        return {"rollouts": sum(cfg.n_evals for _, _, cfg in self.cases), "es_gen_ms": []}

    def checks(self):
        ok, detail = True, []
        for k in (2, 5, 7):
            policy, noise, cfg = self.cases[k]
            rec = self.first[k]
            if rec is None:
                ok = False
                continue
            same, d = self.check_prefix(rec, policy, self.env, noise, cfg, jobs=self.jobs, span=48)
            ok, detail = ok and same, detail + [f"{noise.kind}/{noise.resample} {d}"]
        self.returns_digest = _sha(r.returns for r in self.first if r is not None)
        return [("rollout i independent of batch size and jobs", ok, "; ".join(detail))]


# ES settings of acceptance criterion 08 (arch, popsize, sigma, lr,
# n_reevals, repro_weight), with 16 generations instead of 150: each
# generation costs the same, and short calls give the run many samples.
BANDIT_ES = dict(arch=(1, 8, 1), popsize=32, sigma_es=0.1, lr=0.05)
BANDIT_GENERATIONS = 16
BANDIT_EVALS = 256


class ResBandit(Workload):
    """R-ES on tradeoff-spread and plain ES on flat-mean-spread, then a
    256-episode evaluate() of each final centre."""

    name = "res-bandit"

    def setup(self):
        rr = self.rr
        es = dict(BANDIT_ES, popsize=4) if self.tiny else BANDIT_ES
        gens = 2 if self.tiny else BANDIT_GENERATIONS
        self.n_evals = 16 if self.tiny else BANDIT_EVALS
        self.runs = [
            (rr.EsConfig(fitness_mode="repro", n_reevals=32, repro_weight=0.5, generations=gens, **es),
             rr.tradeoff_spread()),
            (rr.EsConfig(fitness_mode="plain", generations=gens, **es), rr.flat_mean_spread()),
        ]
        self.noise = rr.NoiseConfig()
        self.next_seed = int(self.rng.integers(0, 10_000))
        self.first = None
        rr.evaluate(rr.ConstantPolicy(np.array([0.5])), rr.tradeoff_spread(), self.noise, rr.EvalConfig(2, 0))

    def _mean_within_bound(self, rec, env) -> tuple:
        """Sample mean against the env's closed form: with a fixed action a,
        r = base + slope*a + spread*a*U, U ~ U(-1, 1), so the mean is
        base + slope*a and the sd is spread*|a|/sqrt(3); allow 5 standard
        errors."""
        a = rec.descriptors[:, 0]
        if not np.all(a == a[0]):
            return False, "executed action varies without noise"
        a = float(a[0])
        expected = env.mean_base + env.mean_slope * a
        tol = 5.0 * env.spread_max * abs(a) / math.sqrt(3.0) / math.sqrt(rec.n_evals) + 1e-9 * max(1.0, abs(expected))
        got = float(np.mean(rec.returns))
        return abs(got - expected) <= tol, f"{env.env_id}: mean {got:.4f} vs {expected:.4f} +- {tol:.4f}"

    def run_pass(self):
        self.begin_pass()
        rr = self.rr
        seed = self.next_seed
        self.next_seed += 1
        gen_ms, rollouts, records = [], 0, []
        for cfg, env in self.runs:
            t0 = perf_counter()
            state = self.timed("train", self.ops.call, rr.train, cfg, env, self.noise, seed)
            gen_ms.append(1e3 * (perf_counter() - t0) / cfg.generations)
            rollouts += cfg.generations * cfg.popsize * (cfg.n_reevals if cfg.fitness_mode == "repro" else 1)
            if state is None:
                records.append(None)
                continue
            eval_cfg = rr.EvalConfig(self.n_evals, seed)
            rec = self.timed("evaluate", self.ops.call, rr.evaluate, state.center, env, self.noise, eval_cfg)
            records.append(None if rec is None else (rec, state.center, env, eval_cfg))
            if rec is not None:
                rollouts += self.n_evals
                self.expect("returns finite", bool(np.all(np.isfinite(rec.returns))), env.env_id)
                ok, d = self._mean_within_bound(rec, env)
                self.expect("bandit mean within bound", ok, d)
        if self.first is None:
            self.first = records
        return {"rollouts": rollouts, "es_gen_ms": gen_ms}

    def checks(self):
        ok, detail = True, []
        for item in self.first:
            if item is None:
                ok = False
                continue
            rec, policy, env, cfg = item
            same, d = self.check_prefix(rec, policy, env, self.noise, cfg, jobs=self.jobs, span=rec.n_evals)
            ok, detail = ok and same, detail + [f"{env.env_id} {d}"]
        self.returns_digest = _sha(item[0].returns for item in self.first if item is not None)
        return [("rollout i independent of batch size and jobs", ok, "; ".join(detail))]


REPORT_ALGOS = ("res",)
REPORT_KINDS = ("action", "obs", "init-state")
REPORT_ALPHAS = "0,0.25,0.5,1,2"
# Visited-state vector length of a point-mass episode: 100 steps x 4 dims.
MARGINAL_DIM = 400


class ReportBulk(Workload):
    """report (iqm, mad, lcb, bmad, smad) and pareto over a directory of
    generated eval artifacts; no rollouts."""

    name = "report-bulk"

    def setup(self):
        rr = self.rr
        n_seeds, n_evals, n_marg, marg_evals = (4, 16, 1, 8) if self.tiny else (64, 16, 4, 8)
        self.resample_flags = ["--n-resamples", "50"] if self.tiny else []
        self.evals = self.dir / "evals"
        self.evals.mkdir()
        returns = []
        for algo in REPORT_ALGOS:
            for kind in REPORT_KINDS:
                mu, sd = self.rng.uniform(-40.0, -10.0), self.rng.uniform(1.0, 5.0)
                for s in range(n_seeds):
                    marg = s < n_marg
                    n = marg_evals if marg else n_evals
                    rec = rr.core.EvalRecord(
                        policy_id=f"{algo}-seed{s}",
                        env_id="point-mass-nav",
                        noise=rr.NoiseConfig(kind=kind),
                        master_seed=1000 + s,
                        returns=mu + sd * self.rng.standard_normal(n),
                        descriptors=np.array([0.8, 0.8]) + 0.1 * self.rng.standard_normal((n, 2)),
                        state_marginals=np.cumsum(0.05 * self.rng.standard_normal((n, MARGINAL_DIM)), axis=1)
                        if marg else None,
                    )
                    art = rec.to_json_dict()
                    art.update(schema=rr.cli.EVAL_SCHEMA, algo=algo, created_at="2026-01-01T00:00:00+00:00")
                    name = f"eval_{algo}-seed{s}_{kind}{'_m' if marg else ''}.json"
                    (self.evals / name).write_text(json.dumps(art, sort_keys=True, indent=2) + "\n")
                    returns.append(rec.returns)
        self.n_cells = len(REPORT_ALGOS) * len(REPORT_KINDS)
        self.n_artifacts = self.n_cells * n_seeds
        self.returns_digest = _sha(returns)
        self.metrics = ("iqm", "mad", "lcb", "bmad", "smad")
        self.outputs = {m: self.dir / f"report_{m}.csv" for m in self.metrics}
        self.outputs["pareto"] = self.dir / "front.csv"
        self.report_hashes: list = []

    def _report(self, metric):
        inputs = str(self.evals / "*_m.json") if metric == "smad" else str(self.evals)
        extra = ["--alphas", REPORT_ALPHAS] if metric == "lcb" else []
        return self.ops.cli(
            self.rr.cli.main,
            ["report", inputs, "--metric", metric, *extra, *self.resample_flags,
             "--out", str(self.outputs[metric])],
        )

    def run_pass(self):
        self.begin_pass()
        for metric in self.metrics:
            self.timed("report", self._report, metric)
        self.timed("pareto", self.ops.cli, self.rr.cli.main,
                   ["pareto", str(self.evals), "--out", str(self.outputs["pareto"])])
        self.report_hashes.append(
            {k: _file_hash(p) if p.exists() else None for k, p in self.outputs.items()}
        )
        return {"rollouts": 0, "es_gen_ms": []}

    def checks(self):
        res = []
        first = self.report_hashes[0]
        self._report("lcb")
        rerun = _file_hash(self.outputs["lcb"])
        res.append(("report bytes identical across runs",
                    all(h == first for h in self.report_hashes) and rerun == first["lcb"],
                    f"{len(self.report_hashes) + 1} runs of report lcb"))
        n_alphas = len(REPORT_ALPHAS.split(","))
        counts, ok = {}, True
        for m in self.metrics:
            rows = _read_rows(self.outputs[m])
            counts[m] = len(rows)
            want = self.n_cells * (n_alphas if m == "lcb" else 1)
            ok = ok and len(rows) == want and _ci_rows_ok(rows)
        res.append(("report rows as expected, ci_lo <= ci_hi", ok, json.dumps(counts)))
        front = _read_rows(self.outputs["pareto"])
        res.append(("pareto rows as expected", len(front) == self.n_artifacts,
                    f"{len(front)} of {self.n_artifacts}"))
        return res


WORKLOADS = {w.name: w for w in (ProtocolPm, EvalSweepPm, ResBandit, ReportBulk)}
