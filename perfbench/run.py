"""repro-rl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/README.md) against the package in the
checkout's `src/` and checks its outputs. Every repro_rl call comes from
one worker process as a closed loop; BLAS is pinned to one thread and only
`evaluate --jobs` / `evaluate(jobs=...)` uses a second thread.

--trace 0  times set-up (median of several fresh processes) and the
           workload, untraced, and prints every end-to-end metric.
--trace 1  runs the workload untraced and then traced, in two separate
           processes of half the time each, and prints the per-layer metrics from the traced
           run's spans plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric with its unit and sample count, the output checks and where the
run was made. Exits non-zero without a result if the checkout has no
`src/repro_rl` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import uuid
from pathlib import Path
from time import perf_counter

import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("protocol-pm", "eval-sweep-pm", "res-bandit", "report-bulk")
SETUP_REPEATS = 3  # set-up-only processes, on top of the measured run's own
TIME_LIMIT_S = 170.0
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (metric, unit, definition). Reported for every workload; a metric that
# the workload never exercises is printed as n/a.
END_TO_END = [
    ("setup_s", "s", "median seconds from process start to inputs ready"),
    ("wall_s", "s", "median seconds per pass (sum of its timed calls)"),
    ("rollouts_per_s", "1/s", "median per pass of episodes run / wall_s, ES fitness rollouts included"),
    ("train_s", "s", "median per pass of time in train"),
    ("evaluate_s", "s", "median per pass of time in evaluate"),
    ("report_s", "s", "median per pass of time in CLI report"),
    ("pareto_s", "s", "median per pass of time in CLI pareto"),
    ("es_gen_ms.p50", "ms", "median per-generation ES latency (train call time / generations)"),
    ("es_gen_ms.p90", "ms", "90th percentile (nearest rank) of the same"),
    ("peak_rss_mb", "MB", "peak resident set of the measured process"),
    ("error_rate", "ratio", "failed / attempted operations"),
]


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode, workdir, deadline, seconds, spans_path=None):
    """Start a worker, time it to READY; returns (setup_s, result or None)."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--size", args.size, "--jobs", str(min(2, os.cpu_count() or 1)),
        "--workdir", str(workdir), "--mode", mode, "--result", str(result_path),
    ]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    env = dict(os.environ, **BLAS_PINS)
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, err = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    try:
        if ready.strip() != "READY" or proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited {proc.returncode}: {(ready + out + err)[-2000:]}")
        result = json.loads(result_path.read_text()) if mode == "run" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup_s, result


def pass_wall(passes):
    return [sum(p["phases"].values()) for p in passes]


def end_to_end(setup_samples, res):
    """metric -> (value or None when not applicable, sample count)."""
    passes = res["passes"]
    out = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "wall_s": (statistics.median(pass_wall(passes)), len(passes)),
    }
    if any(p["rollouts"] for p in passes):
        rates = [p["rollouts"] / wall for p, wall in zip(passes, pass_wall(passes))]
        out["rollouts_per_s"] = (statistics.median(rates), len(rates))
    for phase in ("train", "evaluate", "report", "pareto"):
        vals = [p["phases"][phase] for p in passes if phase in p["phases"]]
        if vals:
            out[f"{phase}_s"] = (statistics.median(vals), len(vals))
    gens = [g for p in passes for g in p["es_gen_ms"]]
    if gens:
        out["es_gen_ms.p50"] = (statistics.median(gens), len(gens))
        out["es_gen_ms.p90"] = (nearest_rank(gens, 90), len(gens))
    out["peak_rss_mb"] = (res["peak_rss_mb"], 1)
    out["error_rate"] = (res["failed"] / max(1, res["attempted"]), res["attempted"])
    return {name: out.get(name, (None, 0)) for name, _, _ in END_TO_END}


def print_checks(label, res):
    print(f"checks ({label}):")
    for c in res["checks"]:
        print(f"  {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for e in res["errors"]:
        print(f"  failed operation: {e}")
    print(f"  returns digest (information only): {res['returns_digest']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="repro-rl benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny shrinks every workload, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro_rl" / "__init__.py").is_file():
        print(f"error: no src/repro_rl package in {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = perf_counter() + TIME_LIMIT_S
    load_before = read_loadavg()
    work = ROOT / ".perfbench_work" / uuid.uuid4().hex
    try:
        if args.trace == 0:
            setups = [
                run_worker(args, "setup", work / f"setup{i}", deadline, 0)[0] for i in range(SETUP_REPEATS)
            ]
            setup_s, res = run_worker(args, "run", work / "run", deadline, args.seconds)
            runs = [("untraced", res)]
        else:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}.npz"  # latest traced run only
            # Half the time each, so a traced run lasts as long as an untraced one.
            half = args.seconds / 2
            _, res = run_worker(args, "run", work / "untraced", deadline, half)
            _, traced = run_worker(args, "run", work / "traced", deadline, half, spans_path=spans_path)
            runs = [("untraced", res), ("traced", traced)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    load_after = read_loadavg()

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    prov = dict(res["provenance"], loadavg_before=load_before, loadavg_after=load_after)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    if args.trace == 0:
        rows = end_to_end(setups + [setup_s], res)
        print("end-to-end metrics (value, unit, samples):")
        for name, unit, rule in END_TO_END:
            value, n = rows[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<16} {shown:>12} {unit:<6} n={n:<5} {rule}")
        values = {name: value for name, (value, _) in rows.items()}
        wanted = spec["end_to_end"]
    else:
        walls = [statistics.median(pass_wall(r["passes"])) for _, r in runs]
        table = spans.load(spans_path)
        rows = layers.layer_metrics(table, len(traced["passes"]), walls[1] / walls[0] - 1.0)
        print(f"per-layer metrics per pass ({len(traced['passes'])} traced passes, "
              f"{len(table['id'])} spans, run id {traced['run_id']}, written to {spans_path.name}):")
        for name, unit, _better, _names, _kind in layers.PER_LAYER:
            value, applicable = rows[name]
            print(f"  {name:<30} {value:>14.6g} {unit:<10}{'' if applicable else ' n/a (layer not exercised)'}")
        values = {name: value for name, (value, _) in rows.items()}
        wanted = spec["per_layer"]

    for label, r in runs:
        print_checks(label, r)
    correct = all(c["ok"] for _, r in runs for c in r["checks"])
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if value is None:
            print(f"error: metric {m['name']} does not apply to {args.workload}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
