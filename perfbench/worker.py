"""One benchmark process: set up a workload, run it, check it, report.

Started by run.py, never by hand. It imports repro_rl from the checkout's
`src/`, builds the workload's inputs, prints READY (the launcher times
set-up up to that line), and in `--mode run` repeats passes until
`--seconds` have gone by. With `--spans PATH` the layer entry points are
wrapped for the timed loop only and the spans are written to PATH when it
ends. The result goes to `--result` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
from spans import Tracer
from workloads import WORKLOADS


def import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import repro_rl
    import repro_rl.cli  # noqa: F401  (the package does not import its CLI)

    if Path(repro_rl.__file__).resolve().parent != (src / "repro_rl").resolve():
        raise SystemExit(f"imported repro_rl from {repro_rl.__file__}, not from {src}")
    return repro_rl


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, read from the files
    under .git so nothing outside the checkout is consulted."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, rr, jobs: int) -> dict:
    accel = getattr(rr, "_accel", None)
    if accel is None:
        kernel = "no _accel module"
    elif getattr(accel, "point_mass_episode", None) is getattr(accel, "point_mass_episode_numba", object()):
        kernel = "numba"
    else:
        kernel = "numpy twin"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_path": kernel,
        "repro_rl": getattr(rr, "__version__", "unknown"),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "worker_threads": jobs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", default="run", choices=("setup", "run"))
    ap.add_argument("--spans")
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    root = Path(args.root)
    rr = import_package(root)
    wl = WORKLOADS[args.workload](rr, Path(args.workdir), args.seed, args.size, args.jobs)
    wl.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.spans:
        tracer = Tracer(failure_types=tuple(filter(None, [getattr(rr.core, "NumericFailure", None)])))
        layers.install(tracer, rr)
    passes = []
    deadline = perf_counter() + args.seconds
    while True:
        info = wl.run_pass()
        passes.append(dict(info, phases=wl.phases))
        if perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)

    try:
        checks = wl.loop_checks() + wl.checks()
    except Exception as exc:  # a check that cannot even run is a failed check
        checks = wl.loop_checks() + [("output checks ran", False, f"{type(exc).__name__}: {exc}")]
    result = {
        "passes": passes,
        "attempted": wl.ops.attempted,
        "failed": wl.ops.failed,
        "errors": wl.ops.errors,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "returns_digest": getattr(wl, "returns_digest", None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(root, rr, args.jobs),
        "run_id": tracer.run_id if tracer is not None else None,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
