"""Tests of the benchmark itself: tiny runs of every workload, the traced
run's span nesting, the self-time rule and BENCHMARK.json's agreement
with the metric definitions.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_benchmark_json_matches_definitions():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    e2e_units = {name: unit for name, unit, _ in run.END_TO_END}
    for m in SPEC["end_to_end"]:
        assert e2e_units[m["name"]] == m["unit"]
    assert "setup_s" in e2e_units
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_and_passes_checks(workload):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = [line.split() for line in lines if line.startswith("  ")]
    for name, unit, _ in run.END_TO_END:
        assert any(row[:1] == [name] and unit in row and row[3].startswith("n=") for row in table), name


def test_traced_run_reports_every_layer_metric_and_nests():
    out = bench("--workload", "protocol-pm", "--seed", "5", "--seconds", "0.5", "--trace", "1", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    table = spans.load(ROOT / ".perfbench_out" / "spans-protocol-pm.npz")
    assert len(table["id"]) > 0
    # evaluate --jobs 2 puts spans on a second thread, under the main thread's span
    assert len(np.unique(table["thread"])) >= 2
    assert spans.check_nesting(table) == []


def _table(rows, names):
    cols = list(zip(*rows))
    return {
        "id": np.array(cols[0]), "parent": np.array(cols[1]), "name": np.array(cols[2], dtype=np.int32),
        "start": np.array(cols[3], dtype=float), "end": np.array(cols[4], dtype=float),
        "work": np.zeros(len(rows)), "status": np.zeros(len(rows), dtype=np.int8),
        "thread": np.array(cols[5], dtype=np.int32), "names": np.array(names),
    }


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; child [1, 3]; two overlapping children on two threads
    # [4, 7] and [5, 8]; a grandchild [4.5, 5] under the first of those.
    table = _table(
        [(0, -1, 0, 0.0, 10.0, 0), (1, 0, 1, 1.0, 3.0, 0), (2, 0, 1, 4.0, 7.0, 1),
         (3, 0, 1, 5.0, 8.0, 2), (4, 2, 1, 4.5, 5.0, 1)],
        ["outer", "inner"],
    )
    assert spans.self_times(table).tolist() == [4.0, 2.0, 2.5, 3.0, 0.5]
    assert spans.check_nesting(table) == []
    table["end"][4] = 7.5  # grandchild now ends after its parent
    assert spans.check_nesting(table) != []


def test_tracer_records_parents_work_and_failures():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: 1 / x
    mod.outer = lambda x: mod.inner(x) + 1
    tracer = spans.Tracer(failure_types=(ZeroDivisionError,))
    original = mod.inner
    assert tracer.install(mod, "inner", "inner", work=lambda a, k, r: a[0])
    assert tracer.install(mod, "outer", "outer")
    assert not tracer.install(mod, "missing", "missing")
    assert mod.outer(4) == 1.25
    with pytest.raises(ZeroDivisionError):
        mod.outer(0)
    with pytest.raises(TypeError):
        mod.outer("x")
    tracer.uninstall()
    assert mod.inner is original
    t = tracer.spans()
    names = [str(t["names"][i]) for i in t["name"]]
    assert names == ["outer", "inner"] * 3
    assert t["parent"].tolist() == [-1, 0, -1, 2, -1, 4]
    assert t["work"].tolist() == [0.0, 4.0, 0.0, 0.0, 0.0, 0.0]
    # a failure type raised through a span marks it too; other errors are status 2
    assert t["status"].tolist() == [0, 0, 1, 1, 2, 2]


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "res-bandit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
