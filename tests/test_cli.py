import base64
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import repro_rl
from repro_rl import cli, metrics, optim
from repro_rl.cli import ConfigError, ExperimentConfig, default_config, main
from repro_rl.core import EvalRecord, NumericFailure, derive_stream
from repro_rl.envs import point_mass_nav, tradeoff_spread
from repro_rl.metrics import (
    DISP_ESTIMATORS,
    PERF_ESTIMATORS,
    LcbConfig,
    ParetoPoint,
    RecordError,
    behavioural_iqr,
    behavioural_mad,
    dispersion,
    lcb,
    lcb_sweep,
    pareto_front,
    performance,
    state_marginal_repro,
)
from repro_rl.noise import NoiseConfig
from repro_rl.optim import EsConfig
from repro_rl.stats import PERFORMANCE, stratified_bootstrap

TINY_CONFIG = {
    "env": {"name": "flat-mean-spread"},
    "noise": {"kind": "none"},
    "algo": "es",
    "es": {"arch": [1, 2, 1], "popsize": 4, "generations": 2},
    "n_evals": 16,
    "seeds": [0, 1],
}


def write_config(path, **overrides):
    cfg = dict(TINY_CONFIG)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_print_config_emits_valid_json(capsys, tmp_path):
    assert main(["print-config"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    for key in ["env", "noise", "algo", "es", "seeds", "n_evals"]:
        assert key in cfg
    out = tmp_path / "c.json"
    assert main(["print-config", "--out", str(out)]) == 0
    assert read_json(out) == cfg


PRINT_CONFIG = """\
{
  "algo": "es",
  "env": {
    "action_dim": 2,
    "dt": 0.1,
    "env_id": "point-mass-nav",
    "episode_length": 100,
    "family": "point-mass",
    "goal": [
      1.0,
      1.0
    ],
    "mean_base": 0.0,
    "mean_slope": 0.0,
    "spread_max": 0.0,
    "start": [
      0.0,
      0.0
    ],
    "state_dim": 4,
    "v_max": 1.0
  },
  "es": {
    "activation": "tanh",
    "arch": [
      4,
      16,
      16,
      2
    ],
    "fitness_mode": "plain",
    "generations": 50,
    "l2": 0.0,
    "lr": 0.05,
    "n_reevals": 32,
    "popsize": 32,
    "repro_weight": 0.5,
    "sigma_es": 0.1
  },
  "n_evals": 256,
  "noise": {
    "kind": "init-state",
    "obs_affects_reward": true,
    "resample": "per-episode",
    "sigma": 0.1
  },
  "record_state_marginal": false,
  "seeds": [
    0
  ]
}
"""


def test_print_config_is_byte_stable(capsys):
    # the config echo in every artifact is this text's dict; its bytes must not drift
    assert main(["print-config"]) == 0
    assert capsys.readouterr().out == PRINT_CONFIG


def test_config_without_es_section_is_the_printed_default(capsys):
    assert main(["print-config"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    del cfg["es"]
    assert ExperimentConfig.from_json_dict(cfg) == default_config()
    # a present es section still fills its gaps from EsConfig's own defaults
    partial = ExperimentConfig.from_json_dict({"es": {"popsize": 8}}).es
    assert (partial.popsize, partial.lr, partial.generations) == (8, 0.03, 100)


def test_interrupted_write_keeps_old_file_and_no_temp(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.json"
    out.write_text("old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    assert main(["print-config", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: disk full\n"
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("case", ["print-config-to-dir", "train-below-file", "report-below-file"])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, case):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("x\n")
    cfg = write_config(tmp_path / "cfg.json", seeds=[0])
    artifact = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])
    file = str(tmp_path / "file")
    argv, path = {
        "print-config-to-dir": (["print-config", "--out", str(tmp_path / "dir")],
                                str(tmp_path / "dir")),
        "train-below-file": (["train", "--config", cfg, "--out", file],
                             os.path.join(file, "train_es_seed0.json")),
        "report-below-file": (["report", artifact, "--metric", "mean", "--out", file + "/r.csv"],
                              file + "/r.csv"),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "dir", "e.json", "file"]
    assert os.listdir(tmp_path / "dir") == [] and (tmp_path / "file").read_text() == "x\n"


def test_default_config_is_trainable(tmp_path, capsys):
    # the emitted default config must be accepted by train (cut down for speed)
    out = tmp_path / "c.json"
    assert main(["print-config", "--out", str(out)]) == 0
    cfg = read_json(out)
    cfg["es"].update({"popsize": 4, "generations": 1})
    cfg["n_evals"] = 4
    (tmp_path / "c2.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "c2.json"),
                 "--out", str(tmp_path / "runs")]) == 0


def test_train_writes_run_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    for seed in [0, 1]:
        art = read_json(tmp_path / "runs" / f"train_es_seed{seed}.json")
        assert art["schema"] == "repro-rl-run"
        assert art["algo"] == "es"
        assert art["seed"] == seed
        assert art["generations_run"] == 2
        assert len(art["history"]) == 2
        assert art["final_policy"]["kind"] == "mlp"
        assert art["final_policy"]["arch"] == [1, 2, 1]
        assert len(art["final_policy"]["theta"]) == 7
        assert "created_at" in art


def test_train_scripted_and_random(tmp_path):
    cfg = write_config(tmp_path / "s.json", algo="scripted", constant_action=[0.5], seeds=[3])
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    art = read_json(tmp_path / "runs" / "train_scripted_seed3.json")
    assert art["final_policy"] == {"kind": "constant", "action": [0.5]}

    cfg = write_config(tmp_path / "r.json", algo="random", seeds=[4])
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    art = read_json(tmp_path / "runs" / "train_random_seed4.json")
    assert art["generations_run"] == 0
    assert len(art["final_policy"]["theta"]) == 7


def test_scripted_requires_action(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", algo="scripted")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "constant_action" in capsys.readouterr().err


def test_unknown_noise_kind_exits_2_naming_kinds(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", noise={"kind": "cosmic"})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    for kind in ["none", "action", "obs", "reward", "param", "init-state", "dynamics"]:
        assert kind in err


def test_config_rejections(tmp_path, capsys):
    cases = [
        {"algo": "sgd"},
        {"seeds": []},
        {"env": {"name": "cartpole"}},
        {"n_evals": 0},
    ]
    for overrides in cases:
        cfg = write_config(tmp_path / "bad.json", **overrides)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2, overrides
        capsys.readouterr()


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 1


def test_evaluate_single_seed_to_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0])
    main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--config", cfg, "--policy",
                 str(tmp_path / "runs" / "train_es_seed0.json"), "--out", str(out)]) == 0
    art = read_json(out)
    assert art["schema"] == "repro-rl-eval"
    assert art["policy_id"] == "es-seed0"
    assert art["env"] == "flat-mean-spread"
    assert art["master_seed"] == 0
    assert art["n_evals"] == 16
    assert len(art["returns"]) == 16
    assert len(art["descriptors"]) == 16
    assert art["noise"]["kind"] == "none"
    assert "state_marginals" not in art


def test_evaluate_multi_seed_directory_and_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0])
    main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert main(["evaluate", "--config", cfg, "--policy",
                 str(tmp_path / "runs" / "train_es_seed0.json"),
                 "--out", str(tmp_path / "evals"), "--seeds", "5,6,7"]) == 0
    arts = [read_json(tmp_path / "evals" / f"eval_es-seed0_seed{s}.json") for s in [5, 6, 7]]
    assert [a["master_seed"] for a in arts] == [5, 6, 7]
    assert arts[0]["returns"] != arts[1]["returns"]


def test_evaluate_deterministic_across_reruns_and_jobs(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0], noise={"kind": "reward"})
    main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
    pol = str(tmp_path / "runs" / "train_es_seed0.json")
    outs = []
    for name, jobs in [("a.json", "1"), ("b.json", "1"), ("c.json", "8")]:
        assert main(["evaluate", "--config", cfg, "--policy", pol,
                     "--out", str(tmp_path / name), "--jobs", jobs]) == 0
        art = read_json(tmp_path / name)
        art.pop("created_at")
        outs.append(art)
    assert outs[0] == outs[1] == outs[2]


def test_evaluate_records_marginals_when_configured(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0], record_state_marginal=True)
    main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
    out = tmp_path / "eval.json"
    main(["evaluate", "--config", cfg, "--policy",
          str(tmp_path / "runs" / "train_es_seed0.json"), "--out", str(out)])
    art = read_json(out)
    assert EvalRecord.from_json_dict(art).state_marginals.shape == (16, 1)


def test_evaluate_numeric_failure_exits_1_naming_rollout_and_step(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0], env={"name": "point-mass-nav"},
                       noise={"kind": "dynamics", "sigma": 1e308})
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"action": [0.5, -0.5]}))
    rc = main(["evaluate", "--config", cfg, "--policy", str(pol),
               "--out", str(tmp_path / "eval.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1
    assert err.startswith("error: rollout 0 ")
    assert "step 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "eval.json").exists()


def test_train_res_fitness_overflow_exits_1_naming_generation(tmp_path, capsys):
    # finite returns near the float limit overflow the repro fitness's mean and std
    cfg = write_config(tmp_path / "cfg.json", algo="res", seeds=[0],
                       env={"name": "tradeoff-spread"}, noise={"kind": "reward", "sigma": 1e307})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite fitness at generation 0\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "env,policy",
    [
        ("point-mass-nav", {"arch": [3, 8, 2], "theta": [0.0] * (3 * 8 + 8 + 8 * 2 + 2)}),
        ("point-mass-nav", {"arch": [4, 8, 3], "theta": [0.0] * (4 * 8 + 8 + 8 * 3 + 3)}),
        ("point-mass-nav", {"action": [0.0, 1.5]}),
    ],
    ids=["inputs", "outputs", "out-of-box"],
)
def test_evaluate_policy_that_does_not_fit_env_exits_2(tmp_path, capsys, env, policy):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0], env={"name": env})
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps(policy))
    assert main(["evaluate", "--config", cfg, "--policy", str(pol),
                 "--out", str(tmp_path / "eval.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _make_eval_artifact(path, policy_id, returns, seed=0, algo="scripted"):
    art = {
        "schema": "repro-rl-eval",
        "created_at": "2026-01-01T00:00:00+00:00",
        "algo": algo,
        "policy_id": policy_id,
        "env": "flat-mean-spread",
        "noise": {"kind": "none", "sigma": 0.0, "resample": "per-episode",
                  "obs_affects_reward": True},
        "master_seed": seed,
        "n_evals": len(returns),
        "returns": list(returns),
        "descriptors": [[float(r)] for r in returns],
    }
    path.write_text(json.dumps(art))
    return str(path)


def test_report_single_seed_mad(tmp_path, capsys):
    _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0, 4.0, 100.0])
    assert main(["report", str(tmp_path / "e.json"), "--metric", "mad"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1
    row = rows[0]
    assert row["env"] == "flat-mean-spread"
    assert row["algo"] == "scripted"
    assert row["noise"] == "none"
    assert row["metric"] == "mad"
    assert row["n_seeds"] == "1"
    # single value: the CI collapses onto the point
    assert float(row["point"]) == 1.0
    assert float(row["ci_lo"]) == 1.0
    assert float(row["ci_hi"]) == 1.0


def test_report_iqm_aggregates_across_seeds(tmp_path, capsys):
    for seed, val in enumerate([1.0, 2.0, 3.0, 4.0]):
        _make_eval_artifact(tmp_path / f"e{seed}.json", f"p{seed}", [val] * 4, seed=seed)
    assert main(["report", str(tmp_path), "--metric", "mean"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1
    # per-seed means 1..4, trim 1 each side, mean(2,3) = 2.5
    assert float(rows[0]["point"]) == 2.5
    assert rows[0]["n_seeds"] == "4"


def test_report_counts_training_runs_not_eval_seeds(tmp_path, capsys):
    # three policies, each evaluated under two eval seeds: three runs, not six
    for pid, vals in {"A": (3.0, 1.0), "B": (10.0, 20.0), "C": (100.0, 200.0)}.items():
        for seed, val in enumerate(vals):
            _make_eval_artifact(tmp_path / f"{pid}{seed}.json", pid, [val] * 4, seed=seed)
    assert main(["report", str(tmp_path), "--metric", "mean"]) == 0
    (row,) = parse_csv(capsys.readouterr().out)
    assert row["n_seeds"] == "3"
    assert row["point"] == repr(float(PERFORMANCE["iqm"](np.array([2.0, 15.0, 150.0]))))


def test_report_lcb_orders_flat_mean_spread_arms(tmp_path, capsys):
    gen = np.random.default_rng(0)
    u = gen.uniform(-1, 1, size=256)
    _make_eval_artifact(tmp_path / "a0.json", "arm0", [60.0] * 256, algo="arm0")
    _make_eval_artifact(tmp_path / "a1.json", "arm1", list(60.0 + 50.0 * u), algo="arm1")
    assert main(["report", str(tmp_path), "--metric", "lcb", "--alphas", "0,1"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    cell = {(r["algo"], r["metric"]): float(r["point"]) for r in rows}
    assert cell[("arm0", "lcb[alpha=1]")] > cell[("arm1", "lcb[alpha=1]")]
    assert cell[("arm0", "lcb[alpha=0]")] == pytest.approx(60.0)
    assert cell[("arm1", "lcb[alpha=0]")] == pytest.approx(60.0, abs=6.0)


@pytest.mark.parametrize("perf", PERF_ESTIMATORS)
@pytest.mark.parametrize("disp", DISP_ESTIMATORS)
def test_report_lcb_rows_equal_library_lcb(tmp_path, capsys, perf, disp):
    # one artifact per cell, so each row's point is that artifact's LCB
    returns = list(np.random.default_rng(5).normal(10.0, 3.0, 16))
    path = _make_eval_artifact(tmp_path / "e.json", "p0", returns)
    assert main(["report", path, "--metric", "lcb", "--alphas", "0,0.5,2",
                 "--perf-estimator", perf, "--disp-estimator", disp,
                 "--n-resamples", "10"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    record = EvalRecord.from_json_dict(read_json(path))
    cfg = LcbConfig(perf=perf, disp=disp)
    assert {r["metric"]: r["point"] for r in rows} == {
        f"lcb[alpha={a:g}]": repr(lcb(record, a, cfg)) for a in (0.0, 0.5, 2.0)
    }


def test_report_lcb_keeps_alphas_that_g_rounds_alike_apart(tmp_path, capsys):
    # 1 and 1.0000001 both read "1" by `:g`; they used to share one cell, whose
    # point averaged their LCBs (20.99999995 here). An alpha that `:g` rounds is
    # labelled by repr and gets cells of its own; the other rows keep their bytes.
    paths = [_make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0, 4.0, 100.0])]
    paths += [_make_eval_artifact(tmp_path / f"q{s}.json", f"q{s}", list(
        np.random.default_rng(s).normal(5.0, 2.0, 8)), seed=s, algo="es") for s in range(4)]

    def report(alphas):
        assert main(["report", *paths, "--metric", "lcb", "--alphas", alphas,
                     "--n-resamples", "50"]) == 0
        return parse_csv(capsys.readouterr().out)

    plain, split = report("1,2"), report("1,1.0000001,2")
    assert all(r in split for r in plain)
    assert [(r["algo"], r["metric"]) for r in split if r not in plain] == [
        ("es", "lcb[alpha=1.0000001]"), ("scripted", "lcb[alpha=1.0000001]")]
    assert [r["point"] for r in split if r["algo"] == "scripted"] == [
        repr(22.0 - 1.0000001), "21.0", "20.0"]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    assert cli.build_parser() is not cli.build_parser()  # build_parser() returns a new parser
    assert main(["print-config"]) == 0
    monkeypatch.setattr(cli.argparse, "ArgumentParser", lambda *a, **k: pytest.fail("rebuilt"))
    assert main(["print-config"]) == 0


def test_report_is_idempotent(tmp_path):
    for seed in range(3):
        _make_eval_artifact(tmp_path / f"e{seed}.json", "p0",
                            list(np.random.default_rng(seed).uniform(0, 100, 16)), seed=seed)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["report", str(tmp_path), "--metric", "iqm", "--out", str(out1)]) == 0
    assert main(["report", str(tmp_path), "--metric", "iqm", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_json_format(tmp_path, capsys):
    _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])
    assert main(["report", str(tmp_path / "e.json"), "--metric", "median",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["metric"] == "median"
    assert float(rows[0]["point"]) == 2.0


def test_report_bad_metric_exits_2(tmp_path, capsys):
    _make_eval_artifact(tmp_path / "e.json", "p0", [1.0])
    assert main(["report", str(tmp_path / "e.json"), "--metric", "variance"]) == 2
    assert "valid" in capsys.readouterr().err


def test_report_smad_without_marginals_exits_1(tmp_path, capsys):
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0])
    assert main(["report", path, "--metric", "smad"]) == 1
    assert "state marginals" in capsys.readouterr().err


def _limit_address_space():
    # 1 GiB: room for Python and numpy, far below 10^9 float64 statistics
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_report_n_resamples_beyond_memory_exits_2(tmp_path):
    # a real allocation failure, so it does not depend on the host's overcommit;
    # one BLAS thread, so BLAS buffers do not grow with the core count
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(repro_rl.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "repro_rl.cli", "report", path, "--metric", "mean",
         "--n-resamples", "1000000000"],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: --n-resamples 1000000000 ")
    assert done.stderr.count("\n") == 1


# config edits whose rollouts need far more than the 1 GiB address space
RUNS_BEYOND_MEMORY = {
    "evaluate": ({"n_evals": 10**13}, "n_evals 10000000000000 "),
    "train": ({"es": {"arch": [1, 2, 1], "popsize": 2 * 10**12}}, "popsize 2000000000000 "),
}


@pytest.mark.parametrize("command", RUNS_BEYOND_MEMORY)
def test_run_beyond_memory_exits_2_naming_the_size(tmp_path, command):
    edit, size = RUNS_BEYOND_MEMORY[command]
    cfg = write_config(tmp_path / "cfg.json", seeds=[0], **edit)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"action": [0.5]}))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    argv += ["--policy", str(policy)] if command == "evaluate" else []
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(repro_rl.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "repro_rl.cli", *argv], capture_output=True, text=True,
        env=env, preexec_fn=_limit_address_space, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and size in done.stderr
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("command", RUNS_BEYOND_MEMORY)
def test_memory_error_while_writing_is_not_reported_as_a_run_size(tmp_path, monkeypatch, command):
    cfg = write_config(tmp_path / "cfg.json", algo="scripted", constant_action=[0.5])
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"action": [0.5]}))

    def dump_json(obj, path):
        raise MemoryError

    monkeypatch.setattr(cli, "_dump_json", dump_json)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    with pytest.raises(MemoryError):
        main(argv + (["--policy", str(policy)] if command == "evaluate" else []))


@pytest.mark.parametrize("metric", ["bmad", "biqr", "smad"])
def test_report_pairwise_distances_beyond_memory_exit_1(tmp_path, metric):
    # 20,000 episodes need 199,990,000 float64 distances (1.49 GiB), more
    # than the 1 GiB address space; the artifact, not a flag, sets the size
    n = 20_000
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [float(i % 7) for i in range(n)])
    if metric == "smad":
        _patch_artifact(path, state_marginals=[[float(i % 5)] for i in range(n)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(repro_rl.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "repro_rl.cli", "report", path, "--metric", metric],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: artifact {path}: ")
    assert "199990000 pairwise distances" in done.stderr
    assert done.stderr.count("\n") == 1


def _flag_test_inputs(tmp_path):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"action": [0.5]}))
    artifact = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])
    return {"config": write_config(tmp_path / "cfg.json"), "policy": str(policy),
            "artifact": artifact, "out": str(tmp_path / "out")}


BAD_LIST_FLAGS = {
    "train-seeds-empty": (["train", "--config", "{config}", "--out", "{out}", "--seeds", ","],
                          "--seeds"),
    "train-seeds-word": (["train", "--config", "{config}", "--out", "{out}", "--seeds", "a"],
                         "--seeds"),
    "evaluate-seeds-float": (["evaluate", "--config", "{config}", "--policy", "{policy}",
                              "--out", "{out}", "--seeds", "1.5"], "--seeds"),
    "report-alphas-empty": (["report", "{artifact}", "--metric", "lcb", "--alphas", ","],
                            "--alphas"),
    "report-alphas-word": (["report", "{artifact}", "--metric", "lcb", "--alphas", "x"],
                           "--alphas"),
}


@pytest.mark.parametrize("case", sorted(BAD_LIST_FLAGS))
def test_bad_list_flag_exits_2_naming_the_flag(tmp_path, capsys, case):
    argv, flag = BAD_LIST_FLAGS[case]
    inputs = _flag_test_inputs(tmp_path)
    rc = main([a.format(**inputs) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err
    assert not os.path.exists(inputs["out"])


@pytest.mark.parametrize("argv, noise", [
    (["evaluate", "--policy", "{policy}", "--seeds", "-1"], "none"),
    (["evaluate", "--policy", "{policy}", "--seeds", "-1"], "obs"),
    (["train", "--seeds", "3,-1"], "none"),
    (["train"], "none"),
], ids=["evaluate-none", "evaluate-obs", "train", "config-file"])
def test_negative_seed_exits_2_naming_seeds(tmp_path, capsys, argv, noise):
    # whether or not any stream would be derived from it
    cfg = write_config(tmp_path / "cfg.json", env={"name": "point-mass-nav"},
                       noise={"kind": noise}, es={"popsize": 2, "generations": 1},
                       seeds=[0] if "--seeds" in argv else [0, -2])
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"action": [0.5, 0.5]}))
    out = tmp_path / "out"
    argv = [a.format(policy=policy) for a in argv] + ["--config", cfg, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seeds ") and err.count("\n") == 1, err
    assert not out.exists()


def test_experiment_config_defaults_are_the_empty_config():
    assert ExperimentConfig() == ExperimentConfig.from_json_dict({})
    assert ExperimentConfig().env == point_mass_nav() and ExperimentConfig().noise == NoiseConfig()


def test_experiment_config_round_trips_every_section_off_its_default():
    env = dataclasses.replace(point_mass_nav(), episode_length=7, goal=(0.5, -0.5))
    cfg = ExperimentConfig(env=env, noise=NoiseConfig(kind="param", sigma=0.3, resample="per-step"),
                           algo="scripted", es=EsConfig(popsize=6, generations=3), n_evals=9,
                           record_state_marginal=True, seeds=(4, 2), constant_action=(0.25, -1.0))
    d = json.loads(json.dumps(cfg.to_json_dict()))
    assert ExperimentConfig.from_json_dict(d) == cfg
    # env by name is the built-in env; a partial es takes EsConfig's defaults for its gaps
    named = ExperimentConfig.from_json_dict({"env": {"name": "tradeoff-spread"},
                                             "es": {"popsize": 6, "l2": 0.5}})
    assert named.env == tradeoff_spread()
    assert named.es == EsConfig(arch=(1, 16, 16, 1), popsize=6, l2=0.5)


def test_experiment_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seeds"):
        dataclasses.replace(default_config(), seeds=(0, -1))
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig.from_json_dict({"seeds": [-5]})


def test_experiment_config_derives_es_arch_and_fitness_mode():
    cfg = ExperimentConfig(env=tradeoff_spread(), noise=NoiseConfig(), algo="res")
    assert (cfg.es.arch, cfg.es.fitness_mode) == ((1, 16, 16, 1), "repro")
    # an arch given stays; the algo sets the mode over the es section's own
    es = dataclasses.replace(cfg.es, arch=(1, 3, 1), fitness_mode="repro")
    cfg = ExperimentConfig(env=tradeoff_spread(), noise=NoiseConfig(), algo="es", es=es)
    assert (cfg.es.arch, cfg.es.fitness_mode) == ((1, 3, 1), "plain")


def test_report_missing_inputs_exit_1(tmp_path, capsys):
    assert main(["report", str(tmp_path / "none_such*.json"), "--metric", "mad"]) == 1


def test_pareto_worked_case(tmp_path, capsys):
    # means (5, 4, 3), MADs (1, 0.5, 2) -> flags true, true, false
    _make_eval_artifact(tmp_path / "a.json", "A", [4.0, 5.0, 6.0])
    _make_eval_artifact(tmp_path / "b.json", "B", [3.5, 4.0, 4.5])
    _make_eval_artifact(tmp_path / "c.json", "C", [1.0, 3.0, 5.0])
    assert main(["pareto", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 str(tmp_path / "c.json")]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert [r["policy_id"] for r in rows] == ["A", "B", "C"]
    assert [r["on_front"] for r in rows] == ["true", "true", "false"]
    assert float(rows[0]["expected_return"]) == 5.0
    assert float(rows[0]["neg_mad"]) == -1.0


def test_pareto_duplicate_artifacts_both_flagged(tmp_path, capsys):
    _make_eval_artifact(tmp_path / "a.json", "A", [4.0, 5.0, 6.0])
    path = str(tmp_path / "a.json")
    assert main(["pareto", path, path]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert [r["on_front"] for r in rows] == ["true", "true"]


def test_pareto_rejects_run_artifacts(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps({"schema": "repro-rl-run"}))
    assert main(["pareto", str(tmp_path / "run.json")]) == 1


def _patch_artifact(path, **fields):
    art = read_json(path)
    art.update(fields)
    with open(path, "w") as fh:
        json.dump(art, fh)


def test_report_rejects_artifact_with_returns_but_other_schema(tmp_path, capsys):
    path = _make_eval_artifact(tmp_path / "run.json", "p0", [1.0, 2.0])
    _patch_artifact(path, schema="repro-rl-run")
    assert main(["report", path, "--metric", "mean"]) == 1
    assert "not an evaluation artifact" in capsys.readouterr().err


MALFORMED = {
    "nan-returns": dict(returns=[1.0, float("nan"), 3.0]),
    "empty-returns": dict(returns=[], descriptors=[]),
    "2d-returns": dict(returns=[[1.0, 2.0], [3.0, 4.0]]),
    "1d-descriptors": dict(descriptors=[1.0, 2.0, 3.0]),
    "descriptor-rows": dict(descriptors=[[1.0], [2.0]]),
    "nan-descriptors": dict(descriptors=[[1.0], [float("nan")], [3.0]]),
    "marginal-rows": dict(state_marginals=[[0.0, 1.0]]),
    # well-formed, but too few values for some estimators
    "one-return": dict(returns=[1.0], descriptors=[[1.0]], state_marginals=[[0.0]]),
}
COMMANDS = {
    "report-mean": ["report", "--metric", "mean"],
    "report-std": ["report", "--metric", "std"],
    "report-bmad": ["report", "--metric", "bmad"],
    "pareto": ["pareto"],
    "report-iqm": ["report", "--metric", "iqm"],
    "report-biqr": ["report", "--metric", "biqr"],
    "report-smad": ["report", "--metric", "smad"],
}
MALFORMED_RUNS = [
    (command, case)
    for command in ["report-mean", "report-std", "report-bmad", "pareto"]
    for case in sorted(set(MALFORMED) - {"one-return"})
] + [
    (command, "one-return")
    for command in ["report-iqm", "report-std", "report-bmad", "report-biqr", "report-smad"]
]


@pytest.mark.parametrize(
    "command,case", MALFORMED_RUNS, ids=[f"{c}-{k}" for c, k in MALFORMED_RUNS]
)
def test_malformed_eval_artifact_exits_1(tmp_path, capsys, case, command):
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])
    _patch_artifact(path, **MALFORMED[case])
    command = COMMANDS[command]
    assert main([command[0], path, *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: artifact ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err


def _f8_payload(values, shape, dtype="<f8", b64=None):
    raw = np.asarray(values, dtype="<f8").tobytes()
    return {"dtype": dtype, "shape": shape,
            "base64": base64.b64encode(raw).decode() if b64 is None else b64}


# state_marginals payloads in the binary form that every command must refuse
# for an artifact of 3 returns; the good form is shape [3, 2] of 6 values.
# The two base64 cases decode to the right 48 bytes unless decoding is strict.
_GOOD_B64 = _f8_payload(range(6), [3, 2])["base64"]
BAD_MARGINAL_PAYLOADS = {
    "base64-character": _f8_payload(range(6), [3, 2], b64=_GOOD_B64[:10] + "!" + _GOOD_B64[10:]),
    "base64-padding": _f8_payload(range(6), [3, 2], b64="=" + _GOOD_B64),
    "base64-non-ascii": _f8_payload(range(6), [3, 2], b64="\u00e9" * 64),
    "base64-not-string": _f8_payload(range(6), [3, 2], b64=12),
    "byte-count": _f8_payload(range(5), [3, 2]),
    "dtype-big-endian": _f8_payload(range(6), [3, 2], dtype=">f8"),
    "dtype-f4": _f8_payload(range(6), [3, 2], dtype="<f4"),
    "missing-base64": {"dtype": "<f8", "shape": [3, 2]},
    "missing-dtype": {"shape": [3, 2], "base64": _GOOD_B64},
    "missing-shape": {"dtype": "<f8", "base64": _GOOD_B64},
    "shape-not-list": _f8_payload(range(6), 6),
    "shape-negative": _f8_payload([], [3, -2]),
    "shape-float": _f8_payload(range(6), [3.0, 2]),
    "shape-bool": _f8_payload(range(3), [3, True]),
    "shape-3d": _f8_payload(range(6), [3, 2, 1]),
    "rows-not-n-evals": _f8_payload(range(6), [2, 3]),
    "nan-in-bytes": _f8_payload([0.0, 1.0, float("nan"), 3.0, 4.0, 5.0], [3, 2]),
    "inf-in-bytes": _f8_payload([0.0, 1.0, 2.0, float("-inf"), 4.0, 5.0], [3, 2]),
}


@pytest.mark.parametrize("case", BAD_MARGINAL_PAYLOADS)
def test_malformed_binary_marginals_exit_1(tmp_path, capsys, case):
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])
    _patch_artifact(path, state_marginals=_f8_payload(range(6), [3, 2]))
    assert main(["report", path, "--metric", "smad"]) == 0
    capsys.readouterr()
    _patch_artifact(path, state_marginals=BAD_MARGINAL_PAYLOADS[case])
    assert main(["report", path, "--metric", "smad"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: artifact {path}")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err


def test_report_reads_list_and_binary_marginals_alike(tmp_path, capsys):
    rows = np.arange(8.0).reshape(4, 2) ** 1.5 / 3
    outs = []
    for form in (rows.tolist(), _f8_payload(rows, [4, 2])):
        path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0, 4.0])
        _patch_artifact(path, state_marginals=form)
        assert main(["report", path, "--metric", "smad", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("alphas", ["nan", "inf", "0,-1"])
def test_report_rejects_bad_alphas_exits_2(tmp_path, capsys, alphas):
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])
    assert main(["report", path, "--metric", "lcb", "--alphas", alphas]) == 2
    assert "--alphas" in capsys.readouterr().err


def _expect_one_line_error(capsys, rc, code):
    err = capsys.readouterr().err
    assert rc == code, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def _env_config(env, **changes):
    """Config file bytes whose env is `env` with `changes`; a change to None drops the field."""
    fields = {**env.to_json_dict(), **changes}
    return json.dumps({"env": {k: v for k, v in fields.items() if v is not None}}).encode()


# name -> (file contents, or None for a directory; exit code; the field the
# error names, if any)
BAD_CONFIGS = {
    "directory": (None, 1),
    "binary": (b"\xff\xfe\x00{", 1),
    "not-json": (b"{", 1),
    "top-level-list": (b"[1, 2]", 2),
    "top-level-null": (b"null", 2),
    "noise-string": (b'{"noise": "obs"}', 2),
    "es-list": (b'{"es": [1]}', 2),
    "env-number": (b'{"env": 5}', 2),
    "env-fields-missing": (b'{"env": {"family": "bandit"}}', 2),
    "point-mass-no-goal": (_env_config(point_mass_nav(), goal=None), 2, "goal"),
    "point-mass-state-dim-3": (_env_config(point_mass_nav(), state_dim=3), 2, "state_dim"),
    "point-mass-action-dim-1": (_env_config(point_mass_nav(), action_dim=1), 2, "action_dim"),
    "point-mass-start-1": (_env_config(point_mass_nav(), start=[0.0]), 2, "start"),
    "point-mass-goal-strings": (_env_config(point_mass_nav(), goal=["a", "b"]), 2, "goal"),
    "dt-nan": (_env_config(point_mass_nav(), dt=float("nan")), 2, "dt"),
    "v-max-inf": (_env_config(point_mass_nav(), v_max=float("inf")), 2, "v_max"),
    "v-max-negative": (_env_config(point_mass_nav(), v_max=-1.0), 2, "v_max"),
    "dt-zero": (_env_config(point_mass_nav(), dt=0.0), 2, "dt"),
    "bandit-state-dim-2": (_env_config(tradeoff_spread(), state_dim=2), 2, "state_dim"),
    "bandit-action-dim-2": (_env_config(tradeoff_spread(), action_dim=2), 2, "action_dim"),
    "mean-base-nan": (_env_config(tradeoff_spread(), mean_base=float("nan")), 2, "mean_base"),
    "es-l2-nan": (b'{"env": {"name": "flat-mean-spread"}, '
                  b'"es": {"l2": NaN, "popsize": 4, "generations": 2}}', 2, "l2"),
    "es-arch-fraction": (b'{"es": {"arch": [4.9, 16, 16, 2], "popsize": 4, "generations": 1}}',
                         2, "arch"),
    "es-arch-strings": (b'{"es": {"arch": ["4", 16, true, 2], "popsize": 4, "generations": 1}}',
                        2, "arch"),
    "env-missing-fields": (b'{"env": {"family": "bandit", "episode_length": 1}}', 2,
                           "EnvConfig needs 'env_id', 'state_dim', 'action_dim'"),
    "env-name-and-field": (b'{"env": {"name": "point-mass-nav", "episode_length": 5}}', 2,
                           "env: ", "episode_length"),
    "env-null": (b'{"env": null}', 2, "env: "),
    "env-string": (b'{"env": "my-name-env"}', 2, "env: "),
    "env-name-list": (b'{"env": {"name": ["x"]}}', 2, "env: "),
    "env-name-unknown": (b'{"env": {"name": "maze"}}', 2, "env: ", "'maze'"),
    "constant-action-short": (b'{"algo": "scripted", "constant_action": [0.5]}', 2,
                              "constant_action: ", "shape (2,)"),
    "constant-action-outside-box": (b'{"algo": "scripted", "constant_action": [5, 5]}', 2,
                                    "constant_action: ", "outside the box"),
}


@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_bad_config_file_exits_cleanly(tmp_path, capsys, name):
    content, code, *named = BAD_CONFIGS[name]
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "runs")])
    err = _expect_one_line_error(capsys, rc, code)
    assert all(field in err for field in named), err
    rc = main(["evaluate", "--config", str(path), "--policy", str(tmp_path / "pol.json"),
               "--out", str(tmp_path / "evals")])
    err = _expect_one_line_error(capsys, rc, code)
    assert all(field in err for field in named), err


# run artifact fields -> the field its refusal names
BAD_RUN_IDS = {
    "algo-escapes-out": ({"algo": "../../../escaped"}, "policy id"),
    "algo-slash": ({"algo": "a/b"}, "policy id"),
    "seed-path": ({"seed": "../x"}, "seed"),
    "seed-negative": ({"seed": -1}, "seed"),
    "seed-fraction": ({"seed": 0.5}, "seed"),
}


@pytest.mark.parametrize("name", list(BAD_RUN_IDS))
def test_run_artifact_policy_id_must_be_one_file_name_component(tmp_path, capsys, name):
    fields, named = BAD_RUN_IDS[name]
    cfg = write_config(tmp_path / "cfg.json", seeds=[0])
    run = tmp_path / "run.json"
    run.write_text(json.dumps({"schema": cli.RUN_SCHEMA, "algo": "scripted", "seed": 0,
                               "final_policy": {"action": [0.5]}, **fields}))
    rc = main(["evaluate", "--config", cfg, "--policy", str(run),
               "--out", str(tmp_path / "out" / "evals")])
    err = _expect_one_line_error(capsys, rc, 1)
    assert str(run) in err and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("policy_id", ["a/b", "/x", ".", ".."])
def test_policy_id_flag_must_be_one_file_name_component(tmp_path, capsys, policy_id):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0])
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"action": [0.5]}))
    rc = main(["evaluate", "--config", cfg, "--policy", str(pol), "--policy-id", policy_id,
               "--out", str(tmp_path / "out" / "evals")])
    assert "--policy-id" in _expect_one_line_error(capsys, rc, 2)
    assert not (tmp_path / "out").exists()


BAD_POLICIES = {
    "no-arch": {"theta": [0.0] * 7},
    "number": 5,
    "list": [0.5],
    "final-policy-string": {"final_policy": "mlp"},
    "arch-number": {"theta": [0.0] * 7, "arch": 3},
    "no-theta-or-action": {"arch": [1, 2, 1]},
    "theta-misfits-arch": {"arch": [1, 2, 1], "theta": [0, 0, 0]},
    "theta-not-numeric": {"arch": [1, 2, 1], "theta": ["x"] * 7},
    "arch-zero-width": {"arch": [1, 0], "theta": []},
    "arch-fraction": {"arch": [1.5, 2, 1], "theta": [0.0] * 7},
    "arch-strings": {"arch": ["1", 2, True], "theta": [0.0] * 7},
}


@pytest.mark.parametrize("name", list(BAD_POLICIES))
def test_bad_policy_file_exits_1(tmp_path, capsys, name):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0])
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps(BAD_POLICIES[name]))
    rc = main(["evaluate", "--config", cfg, "--policy", str(pol),
               "--out", str(tmp_path / "eval.json")])
    err = _expect_one_line_error(capsys, rc, 1)
    if name.startswith("arch"):
        assert "arch" in err, err
    if name == "no-arch":
        assert err == f"error: policy file {pol} is malformed: PolicyParams needs 'arch'\n"


def test_unreadable_artifacts_in_input_dir_exit_1(tmp_path, capsys):
    evals = tmp_path / "evals"
    evals.mkdir()
    _make_eval_artifact(evals / "a.json", "A", [1.0, 2.0, 3.0])
    (evals / "sub.json").mkdir()
    _expect_one_line_error(capsys, main(["report", str(evals), "--metric", "mean"]), 1)
    (evals / "sub.json").rmdir()
    (evals / "bin.json").write_bytes(b"\xff\xfe")
    _expect_one_line_error(capsys, main(["pareto", str(evals)]), 1)


def test_evaluate_directory_of_runs(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0, 1])
    runs = str(tmp_path / "runs")
    assert main(["train", "--config", cfg, "--out", runs]) == 0
    assert main(["evaluate", "--config", cfg, "--policy", runs, "--seeds", "5",
                 "--out", str(tmp_path / "evals")]) == 0
    assert sorted(os.listdir(tmp_path / "evals")) == [
        "eval_es-seed0_seed5.json", "eval_es-seed1_seed5.json"
    ]
    # each artifact equals evaluating that run file on its own
    assert main(["evaluate", "--config", cfg, "--policy", os.path.join(runs, "train_es_seed1.json"),
                 "--seeds", "5", "--out", str(tmp_path / "one.json")]) == 0
    art, one = read_json(tmp_path / "evals" / "eval_es-seed1_seed5.json"), read_json(tmp_path / "one.json")
    art.pop("created_at"), one.pop("created_at")
    assert art == one
    capsys.readouterr()
    rc = main(["evaluate", "--config", cfg, "--policy", runs, "--policy-id", "x",
               "--out", str(tmp_path / "evals2")])
    _expect_one_line_error(capsys, rc, 2)
    assert not (tmp_path / "evals2").exists()


@pytest.mark.parametrize("policies, seeds", [(1, "1,2"), (2, "5"), (2, "1,2")])
def test_evaluate_json_out_with_several_artifacts_exits_2(tmp_path, capsys, policies, seeds):
    # a .json --out names one file, so it cannot take policies x seeds > 1
    cfg = write_config(tmp_path / "cfg.json", seeds=list(range(policies)))
    runs = str(tmp_path / "runs")
    assert main(["train", "--config", cfg, "--out", runs]) == 0
    policy = runs if policies > 1 else os.path.join(runs, "train_es_seed0.json")
    capsys.readouterr()
    rc = main(["evaluate", "--config", cfg, "--policy", policy, "--seeds", seeds,
               "--out", str(tmp_path / "res.json")])
    count = policies * len(seeds.split(","))
    assert f"make {count} artifacts" in _expect_one_line_error(capsys, rc, 2)
    assert not (tmp_path / "res.json").exists()


@pytest.mark.parametrize("layout", ["glob", "directory"])
def test_evaluate_refuses_policies_sharing_a_policy_id(tmp_path, capsys, layout):
    # two runs of one algo and seed would both write eval_es-seed0_seed0.json
    cfg = write_config(tmp_path / "cfg.json", seeds=[0])
    for d in "ab":
        assert main(["train", "--config", cfg, "--out", str(tmp_path / d)]) == 0
    first, second = tmp_path / "a" / "train_es_seed0.json", tmp_path / "b" / "train_es_seed0.json"
    art = read_json(second)
    art["final_policy"]["theta"] = [0.5] * 7
    if layout == "directory":
        second = tmp_path / "a" / "z.json"
    second.write_text(json.dumps(art))
    policy = str(tmp_path / "?" / "train_es_seed0.json") if layout == "glob" else str(tmp_path / "a")
    capsys.readouterr()
    rc = main(["evaluate", "--config", cfg, "--policy", policy, "--out", str(tmp_path / "ev")])
    err = _expect_one_line_error(capsys, rc, 1)
    assert err == f"error: policy files {first} and {second} share policy id 'es-seed0'\n"
    assert not (tmp_path / "ev").exists()


def test_readme_cli_quickstart(tmp_path, capsys, monkeypatch):
    # print-config -> train -> evaluate --policy runs/ -> report -> pareto, cut down
    monkeypatch.chdir(tmp_path)
    assert main(["print-config", "--out", "config.json"]) == 0
    cfg = read_json("config.json")
    cfg["es"].update({"popsize": 4, "generations": 1})
    cfg.update({"n_evals": 8, "seeds": [0, 1]})
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", "config.json", "--out", "runs/"]) == 0
    assert main(["evaluate", "--config", "config.json", "--policy", "runs/",
                 "--out", "evals/"]) == 0
    assert len(os.listdir("evals")) == 4
    assert main(["report", "evals/", "--metric", "lcb", "--alphas", "0,0.5,1",
                 "--n-resamples", "50", "--out", "report.csv"]) == 0
    rows = parse_csv((tmp_path / "report.csv").read_text())
    # two training runs, each evaluated under two eval seeds
    assert sorted((r["metric"], r["n_seeds"]) for r in rows) == sorted(
        (f"lcb[alpha={a}]", "2") for a in ("0", "0.5", "1")
    )
    assert main(["pareto", "evals/", "--out", "front.csv"]) == 0
    front = parse_csv((tmp_path / "front.csv").read_text())
    assert sorted(r["policy_id"] for r in front) == ["es-seed0"] * 2 + ["es-seed1"] * 2


def _noisy_artifact(path, policy_id, returns, noise, seed=0):
    path = _make_eval_artifact(path, policy_id, returns, seed=seed)
    _patch_artifact(path, noise=dict(read_json(path)["noise"], **noise))
    return path


def test_report_keys_cells_by_full_noise_config(tmp_path, capsys):
    # five single-artifact cells that a kind:sigma label alone would merge into two
    noises = [
        {"kind": "param", "sigma": 0.02},
        {"kind": "param", "sigma": 0.02, "resample": "per-step"},
        {"kind": "obs", "sigma": 0.1},
        {"kind": "obs", "sigma": 0.1000001},
        {"kind": "obs", "sigma": 0.1, "obs_affects_reward": False},
    ]
    paths = [_noisy_artifact(tmp_path / f"e{i}.json", "p0", [float(i), i + 2.0], noise)
             for i, noise in enumerate(noises)]
    assert main(["report", *paths, "--metric", "mean"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    # rows sorted by cell: a label a suffix extends follows its plain label
    assert [(r["noise"], r["n_seeds"], r["point"]) for r in rows] == [
        ("obs:0.1", "1", "3.0"),
        ("obs:0.1[obs_affects_reward=false]", "1", "5.0"),
        ("obs:0.1[sigma=0.1000001]", "1", "4.0"),
        ("param:0.02", "1", "1.0"),
        ("param:0.02[resample=per-step]", "1", "2.0"),
    ]


def test_report_reads_json_bool_fields_as_bools(tmp_path, capsys):
    paths = [_noisy_artifact(tmp_path / f"e{i}.json", f"p{i}", [float(i), i + 2.0],
                             {"kind": "obs", "sigma": 0.1, "obs_affects_reward": flag})
             for i, flag in enumerate([0, False, 1, True])]
    assert main(["report", *paths, "--metric", "mean"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert [(r["noise"], r["n_seeds"]) for r in rows] == [
        ("obs:0.1", "2"), ("obs:0.1[obs_affects_reward=false]", "2")]


def test_report_rows_at_default_noise_keep_their_bytes(tmp_path, capsys):
    # Default-setting cells read as they did when labels dropped resample:
    # beside a suffixed cell of the same kind:sigma (dynamics), and after a
    # kind:sigma that only suffixed artifacts have (obs), which used to take
    # a row of its own. Rows are sorted by cell.
    gen = np.random.default_rng(11)
    paths = []
    for kind, modes in [("action", ["per-episode"]), ("dynamics", ["per-episode", "per-step"]),
                        ("obs", ["per-step"]), ("reward", ["per-episode"])]:
        for mode in modes:
            for p in range(5):
                paths.append(_noisy_artifact(
                    tmp_path / f"{kind}_{mode}_{p}.json", f"p{p}", list(gen.normal(0.0, 1.0, 8)),
                    {"kind": kind, "sigma": 0.2, "resample": mode}))
    assert main(["report", *paths, "--metric", "iqm", "--n-resamples", "200"]) == 0
    got = parse_csv(capsys.readouterr().out)
    want = {r["noise"]: r for r in parse_csv(_reference_report(_read_pairs(paths), "iqm",
                                                                 n_resamples=200))}
    assert [r["noise"] for r in got] == [
        "action:0.2", "dynamics:0.2", "dynamics:0.2[resample=per-step]",
        "obs:0.2[resample=per-step]", "reward:0.2",
    ]
    assert got[0] == want["action:0.2"] and got[4] == want["reward:0.2"]
    # the merged cell is split; the obs cell keeps its point under a new label
    assert got[1]["point"] != want["dynamics:0.2"]["point"]
    obs = want["obs:0.2"]
    assert (got[3]["n_seeds"], got[3]["point"]) == (obs["n_seeds"], obs["point"])


# Artifacts beside a report cell's own that used to move its bootstrap stream,
# which was the cell's rank among all cells: cells of an env, algo or noise
# kind that sort first, and a suffixed noise cell whose kind:sigma is new.
ROW_NEIGHBOURS = {
    "env": {"env": "aaa-env"},
    "algo": {"algo": "a2c"},
    "noise-kind": {"noise": {"kind": "action", "sigma": 0.2}},
    "suffixed-noise": {"noise": {"kind": "action", "sigma": 0.2, "resample": "per-step"}},
}


def _point_mass_artifacts(tmp_path, tag, edit):
    gen = np.random.default_rng(len(tag))
    paths = []
    for p in range(6):
        path = _make_eval_artifact(tmp_path / f"{tag}{p}.json", f"{tag}{p}",
                                   list(gen.normal(0.0, 1.0, 8)), algo="es")
        _patch_artifact(path, **{"env": "point-mass-nav", **edit})
        paths.append(path)
    return paths


def _report_lines(capsys, paths, metric, alphas="0.5"):
    assert main(["report", *paths, "--metric", metric, "--alphas", alphas,
                 "--n-resamples", "200"]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("metric", ["mean", "lcb"])
@pytest.mark.parametrize("case", ROW_NEIGHBOURS)
def test_report_row_bytes_do_not_depend_on_other_cells(tmp_path, capsys, case, metric):
    own = _point_mass_artifacts(tmp_path, "own", {})
    alone = _report_lines(capsys, own, metric)
    both = _report_lines(capsys, own + _point_mass_artifacts(tmp_path, "other",
                                                             ROW_NEIGHBOURS[case]), metric)
    assert len(alone) == 2 and len(both) == 3
    assert alone[1] in both


def test_report_lcb_row_bytes_do_not_depend_on_other_alphas(tmp_path, capsys):
    own = _point_mass_artifacts(tmp_path, "own", {})
    alone = _report_lines(capsys, own, "lcb", "0.5")
    more = _report_lines(capsys, own, "lcb", "0.25,0.5,1.0000001")
    assert len(more) == 4 and alone[1] in more


def test_report_rows_are_sorted_by_cell(tmp_path, capsys):
    paths = _point_mass_artifacts(tmp_path, "own", {})
    for case, edit in ROW_NEIGHBOURS.items():
        paths += _point_mass_artifacts(tmp_path, case, edit)
    rows = parse_csv("\n".join(_report_lines(capsys, paths, "lcb", "1.0000001,0.25,1")))
    keys = [(r["env"], r["algo"], r["noise"], r["metric"]) for r in rows]
    assert keys == sorted(keys) and len(keys) == 15


# Config values of the wrong JSON type for their field, by section ("" is the
# top level); the field is the edit's last key.
MISTYPED_CONFIGS = {
    "record_state_marginal-string": ("", {"record_state_marginal": "false"}),
    "obs_affects_reward-string": ("noise", {"kind": "obs", "obs_affects_reward": "false"}),
    "popsize-fraction": ("es", {"popsize": 8.5}),
    "generations-string": ("es", {"generations": "3"}),
    "seeds-fraction": ("", {"seeds": [1.7]}),
    "n_evals-bool": ("", {"n_evals": True}),
    "sigma-string": ("noise", {"kind": "obs", "sigma": "0.1"}),
}
CONFIG_SECTIONS = {"": ExperimentConfig, "noise": NoiseConfig, "es": EsConfig}


@pytest.mark.parametrize("case", MISTYPED_CONFIGS)
def test_mistyped_config_value_is_refused_naming_the_field(tmp_path, capsys, case):
    section, edit = MISTYPED_CONFIGS[case]
    field = list(edit)[-1]
    with pytest.raises((TypeError, ValueError, ConfigError), match=f"^{field}: "):
        CONFIG_SECTIONS[section].from_json_dict(edit)
    cfg = {section: {**TINY_CONFIG[section], **edit}} if section else edit
    rc = main(["train", "--config", write_config(tmp_path / "c.json", **cfg),
               "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    prefix = f"{section}: {field}: " if section else f"{field}: "
    assert (rc, err.count("\n")) == (2, 1) and err.startswith(f"error: {prefix}")
    assert not (tmp_path / "runs").exists()


def test_config_types_check_values_built_in_code():
    with pytest.raises(TypeError, match="^sigma: expected a number, got '0.1'"):
        NoiseConfig(kind="obs", sigma="0.1")
    with pytest.raises(ValueError, match="^seeds: expected an integer, got 1.7"):
        ExperimentConfig(env=tradeoff_spread(), noise=NoiseConfig(), seeds=(0, 1.7))
    cfg = ExperimentConfig(env=tradeoff_spread(), noise=NoiseConfig(), seeds=(np.int64(3), 4.0))
    assert cfg.seeds == (3, 4) and all(type(s) is int for s in cfg.seeds)


def test_config_bool_and_int_fields_take_their_json_forms():
    for flag, want in [(0, False), (1, True), (False, False), (True, True)]:
        assert NoiseConfig.from_json_dict({"obs_affects_reward": flag}).obs_affects_reward is want
    for bad in (2, -1, 0.0, "true", None):
        with pytest.raises((TypeError, ValueError), match="^obs_affects_reward: "):
            NoiseConfig.from_json_dict({"obs_affects_reward": bad})
    assert EsConfig.from_json_dict({"popsize": 8.0, "generations": 3}) == EsConfig(
        popsize=8, generations=3)
    for bad, error in [("8", TypeError), ([8], TypeError), (True, TypeError),
                       (8.5, ValueError), (float("inf"), ValueError)]:
        with pytest.raises(error, match="^popsize: "):
            EsConfig.from_json_dict({"popsize": bad})
    with pytest.raises(ValueError, match="^lr: expected a number in float range"):
        EsConfig.from_json_dict({"lr": 10**400})


# Eval artifact values of the wrong JSON type for their field.
MISTYPED_ARTIFACTS = {
    "algo-number": {"algo": 5},
    "algo-list": {"algo": ["es"]},
    "env-list": {"env": ["flat-mean-spread"]},
    "policy_id-list": {"policy_id": ["x"]},
    "master_seed-fraction": {"master_seed": 1.5},
    "sigma-string": {"noise": {"kind": "obs", "sigma": "0.1"}},
    "obs_affects_reward-string": {"noise": {"kind": "obs", "obs_affects_reward": "false"}},
    "returns-strings": {"returns": ["1", "2e0"]},
    "returns-bool": {"returns": [1.5, True]},
    "descriptors-string-and-bool": {"descriptors": [["3"], [True]]},
}


@pytest.mark.parametrize("command", [["report", "--metric", "mean"], ["pareto"]],
                         ids=["report", "pareto"])
@pytest.mark.parametrize("case", MISTYPED_ARTIFACTS)
def test_mistyped_artifact_value_exits_1_naming_the_artifact(tmp_path, capsys, case, command):
    good = _make_eval_artifact(tmp_path / "a.json", "p0", [1.0, 2.0], algo="es")
    bad = _make_eval_artifact(tmp_path / "b.json", "p1", [3.0, 4.0])
    _patch_artifact(bad, **MISTYPED_ARTIFACTS[case])
    if "algo" not in MISTYPED_ARTIFACTS[case]:  # algo is the CLI's, not the record's
        with pytest.raises((TypeError, ValueError)):
            EvalRecord.from_json_dict(read_json(bad))
    rc = main([command[0], good, bad, *command[1:]])
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (1, 1) and err.startswith(f"error: artifact {bad}: ")


@pytest.mark.parametrize("algo", [5, ["es"], None], ids=["number", "list", "null"])
def test_run_artifact_with_mistyped_algo_exits_1_naming_the_field(tmp_path, capsys, algo):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0])
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    run = str(tmp_path / "runs" / "train_es_seed0.json")
    _patch_artifact(run, algo=algo)
    capsys.readouterr()
    out = tmp_path / "evals"
    rc = main(["evaluate", "--config", cfg, "--policy", run, "--out", str(out)])
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (1, 1)
    assert err.startswith(f"error: policy file {run} is malformed: algo: expected a string")
    assert not out.exists()


@pytest.mark.parametrize("key", ["env", "noise"])
def test_artifact_without_env_or_noise_exits_1(tmp_path, capsys, key):
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0])
    art = read_json(path)
    del art[key]
    with pytest.raises(ValueError, match=f"eval record needs '{key}'"):
        EvalRecord.from_json_dict(art)
    (tmp_path / "e.json").write_text(json.dumps(art))
    assert main(["report", path, "--metric", "mean"]) == 1
    assert capsys.readouterr().err == f"error: artifact {path}: eval record needs '{key}'\n"


def test_negative_zero_sigma_is_zero_sigma(tmp_path, capsys):
    for noise in (NoiseConfig(kind="obs", sigma=-0.0),
                  NoiseConfig.from_json_dict({"kind": "obs", "sigma": -0.0})):
        assert str(noise.sigma) == "0.0"
    paths = [_noisy_artifact(tmp_path / f"e{i}.json", f"p{i}", [float(i), i + 2.0],
                             {"kind": "obs", "sigma": sigma})
             for i, sigma in enumerate([0.0, -0.0])]
    assert main(["report", *paths, "--metric", "mean"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert [(r["noise"], r["n_seeds"]) for r in rows] == [("obs:0", "2")]


# The per-artifact report path that came before blocked scoring, restated as
# the reference: one validated library call per artifact, one
# PERFORMANCE["mean"] call per training run, labels without suffixes.
def _reference_scores(record, metric, alphas, cfg):
    if metric in PERF_ESTIMATORS:
        return [(metric, performance(record.returns, metric))]
    if metric in DISP_ESTIMATORS:
        return [(metric, dispersion(record.returns, metric))]
    if metric == "lcb":
        return [(f"lcb[alpha={a:g}]", v) for a, v in zip(alphas, lcb_sweep(record, alphas, cfg))]
    if metric == "smad":
        return [("smad", state_marginal_repro(record))]
    stat = {"bmad": behavioural_mad, "biqr": behavioural_iqr}[metric]
    return [(metric, stat(record.descriptors))]


def _key_index(key):
    # a cell's bootstrap stream index: the first 8 bytes of the blake2b hash of
    # its key as a JSON list, little-endian
    return int.from_bytes(hashlib.blake2b(json.dumps(list(key)).encode(), digest_size=8)
                          .digest(), "little")


def _read_pairs(files):
    return [(EvalRecord.from_json_dict(raw), raw["algo"]) for raw in map(read_json, files)]


def _reference_report(pairs, metric, alphas=(0.0,), cfg=LcbConfig(), n_resamples=2000, fmt="csv"):
    cells = {}
    for record, algo in pairs:
        kind, sigma = record.noise.kind, record.noise.sigma
        noise = "none" if kind == "none" else f"{kind}:{sigma:g}"
        for label, value in _reference_scores(record, metric, list(alphas), cfg):
            runs = cells.setdefault((record.env_id, algo, noise, label), {})
            runs.setdefault(record.policy_id, []).append((record.master_seed, value))
    header = ["env", "algo", "noise", "metric", "n_seeds", "point", "ci_lo", "ci_hi"]
    rows = []
    for key in sorted(cells):
        runs = sorted(
            (min(evals)[0], float(PERFORMANCE["mean"](np.array([v for _, v in sorted(evals)]))))
            for evals in cells[key].values()
        )
        values = np.array([v for _, v in runs])
        ci = stratified_bootstrap([values], "iqm", n_resamples,
                                  stream=derive_stream(0, "report-ci", _key_index(key)))
        rows.append(dict(zip(header, [*key, len(values), repr(ci.point), repr(ci.lo),
                                      repr(ci.hi)])))
    return _table_text(rows, header, fmt)


def _reference_pareto(pairs):
    points = [ParetoPoint(record.policy_id, performance(record.returns, "mean"),
                          -dispersion(record.returns, "mad")) for record, _ in pairs]
    header = ["policy_id", "expected_return", "neg_mad", "on_front"]
    rows = [dict(zip(header, [p.policy_id, repr(p.perf), repr(p.repro), "true" if f else "false"]))
            for p, f in zip(points, pareto_front(points))]
    return _table_text(rows, header, "csv")


def _table_text(rows, header, fmt):
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _mixed_records():
    """(record, algo) pairs over two algos and two noise kinds: n in {1, 2, 3,
    4, 5, 16, 64}, policies with 1-3 eval seeds (in input order from the
    largest), marginals on some records only."""
    gen = np.random.default_rng(21)
    sizes = [1, 2, 3, 4, 5, 16, 64]
    out, k = [], 0
    for algo in ("a", "b"):
        for kind in ("none", "obs"):
            noise = NoiseConfig(kind=kind, sigma=0.0 if kind == "none" else 0.05)
            for p in range(6):
                for seed in range(1 + p % 3):
                    n = sizes[k % len(sizes)]
                    k += 1
                    returns = np.round(gen.normal(10.0, 3.0, n), 1 + k % 3)
                    descriptors = gen.standard_normal((n, 1 + k % 3))
                    marginals = gen.standard_normal((n, 7)) if k % 2 else None
                    out.append((EvalRecord(f"p{p}", "flat-mean-spread", noise, 9 - seed, returns,
                                           descriptors, marginals), algo))
    return out


def _mixed_artifacts(tmp_path):
    """{path: (n, has marginals)} of `_mixed_records`, written as eval artifacts."""
    out = {}
    for record, algo in _mixed_records():
        path = tmp_path / (f"{algo}_{record.noise.kind}_{record.policy_id}_"
                           f"s{9 - record.master_seed}.json")
        path.write_text(json.dumps({**record.to_json_dict(), "schema": cli.EVAL_SCHEMA,
                                    "algo": algo}))
        out[str(path)] = (record.n_evals, record.state_marginals is not None)
    return out


# (metric, least n, needs marginals, options) of every report run over the
# mixed records: each metric on the records it takes, lcb under every pair of
# estimators, and json output once
_MIXED_RUNS = [(m, {"iqm": 4, "std": 2}.get(m, 1), False, {})
               for m in (*PERF_ESTIMATORS, *DISP_ESTIMATORS)]
_MIXED_RUNS += [(m, 2, m == "smad", {}) for m in ("bmad", "biqr", "smad")]
_MIXED_RUNS += [("lcb", max({"iqm": 4}.get(p, 1), {"std": 2}.get(d, 1)), False,
                 {"alphas": "0,0.5,2", "perf": p, "disp": d})
                for p in PERF_ESTIMATORS for d in DISP_ESTIMATORS]
# alpha 0 alone never computes the dispersion, so std takes 1-return records
_MIXED_RUNS.append(("lcb", 1, False, {"alphas": "0", "perf": "mean", "disp": "std"}))
_MIXED_RUNS.append(("iqm", 4, False, {"fmt": "json"}))


@pytest.mark.parametrize("group_values", [None, 50])
def test_report_and_pareto_equal_per_artifact_path(tmp_path, capsys, monkeypatch, group_values):
    # with a small group cap every command scores in several flushes
    if group_values is not None:
        monkeypatch.setattr(metrics, "_GROUP_VALUES", group_values)
    arts = _mixed_artifacts(tmp_path)
    for metric, need, marginals, opts in _MIXED_RUNS:
        paths = [p for p, (n, m) in arts.items() if n >= need and (m or not marginals)]
        assert any(arts[p][0] == 64 for p in paths) and len(paths) > 10
        alphas = opts.get("alphas", "0,0.5,1")
        cfg = LcbConfig(opts.get("perf", "mean"), opts.get("disp", "mad"))
        fmt = opts.get("fmt", "csv")
        assert main(["report", *paths, "--metric", metric, "--alphas", alphas,
                     "--perf-estimator", cfg.perf, "--disp-estimator", cfg.disp,
                     "--format", fmt, "--n-resamples", "300"]) == 0
        want = _reference_report(_read_pairs(paths), metric,
                                 [float(a) for a in alphas.split(",")], cfg, 300, fmt)
        assert capsys.readouterr().out == want, (metric, opts)
    assert main(["pareto", *arts]) == 0
    assert capsys.readouterr().out == _reference_pareto(_read_pairs(arts))


@pytest.mark.parametrize("perf, disp, alphas, need", [
    ("mean", "std", "0,1", "std needs at least 2 values, got 1"),
    ("iqm", "std", "0,1", "iqm needs at least 4 values, got 1"),
    ("iqm", "mad", "0", "iqm needs at least 4 values, got 1"),
])
def test_report_lcb_checks_each_estimator_it_computes(tmp_path, capsys, perf, disp, alphas, need):
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0])
    assert main(["report", path, "--metric", "lcb", "--alphas", alphas,
                 "--perf-estimator", perf, "--disp-estimator", disp]) == 1
    assert capsys.readouterr().err == f"error: artifact {path}: {need}\n"


@pytest.mark.parametrize("metric, short", [
    ("iqm", dict(returns=[1.0, 2.0], descriptors=[[1.0], [2.0]])),
    ("bmad", dict(returns=[1.0], descriptors=[[1.0]])),
    ("smad", dict(state_marginals=None)),
])
def test_report_names_first_bad_artifact_in_input_order(tmp_path, capsys, metric, short):
    # a sample too small for the metric and a malformed artifact: whichever
    # comes first in the input is the one reported
    good = _make_eval_artifact(tmp_path / "good.json", "p0", [1.0, 2.0, 3.0, 4.0])
    _patch_artifact(good, state_marginals=[[0.0], [1.0], [2.0], [3.0]])
    small = _make_eval_artifact(tmp_path / "small.json", "p1", [1.0, 2.0, 3.0, 4.0])
    _patch_artifact(small, **{k: v for k, v in short.items() if v is not None})
    bad = _make_eval_artifact(tmp_path / "bad.json", "p2", [1.0, 2.0, 3.0])
    _patch_artifact(bad, returns=[1.0, float("nan"), 3.0])
    for first, second in [(small, bad), (bad, small)]:
        rc = main(["report", good, first, second, "--metric", metric])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: artifact {first}") and err.count("\n") == 1
    main(["report", small, "--metric", metric])
    alone = capsys.readouterr().err
    main(["report", good, small, bad, "--metric", metric])
    assert capsys.readouterr().err == alone


def test_score_artifacts_buffers_at_most_one_group(tmp_path, capsys, monkeypatch):
    # 30 artifacts of 16 returns under a cap of 100 values: flushes of 7
    # artifacts (112 values) and a last one of 2, in input order
    monkeypatch.setattr(metrics, "_GROUP_VALUES", 100)
    flushes = []
    stacked = metrics._stacked
    monkeypatch.setattr(metrics, "_stacked", lambda arrays, score: flushes.append(
        [a.size for a in arrays]) or stacked(arrays, score))
    paths = [_make_eval_artifact(tmp_path / f"e{i:02d}.json", f"p{i}",
                                 [float(i + j) for j in range(16)]) for i in range(30)]
    assert main(["pareto", *paths]) == 0
    assert flushes == [[16] * 7] * 4 + [[16] * 2]
    rows = parse_csv(capsys.readouterr().out)
    assert [r["expected_return"] for r in rows] == [repr(i + 7.5) for i in range(30)]


def _rows_text(rows, columns, fmt="csv"):
    """Library rows as the CLI writes them: floats by repr, flags in lower case."""
    text = [[str(v).lower() if isinstance(v, bool) else repr(v) if isinstance(v, float) else v
             for v in row] for row in rows]
    return _table_text([dict(zip(columns, row)) for row in text], list(columns), fmt)


@pytest.mark.parametrize("group_values", [None, 50])
def test_library_rows_equal_reference_without_files(monkeypatch, group_values):
    # report_rows and pareto_rows over in-memory records, read lazily
    if group_values is not None:
        monkeypatch.setattr(metrics, "_GROUP_VALUES", group_values)
    pairs = _mixed_records()
    for metric, need, marginals, opts in _MIXED_RUNS:
        chosen = [(r, a) for r, a in pairs
                  if r.n_evals >= need and (r.state_marginals is not None or not marginals)]
        alphas = [float(a) for a in opts.get("alphas", "0,0.5,1").split(",")]
        cfg = LcbConfig(opts.get("perf", "mean"), opts.get("disp", "mad"))
        fmt = opts.get("fmt", "csv")
        rows = metrics.report_rows(iter(chosen), metric, alphas, cfg, 300)
        assert all(type(v) is float for row in rows for v in row[5:])
        assert _rows_text(rows, metrics.REPORT_COLUMNS, fmt) == _reference_report(
            chosen, metric, alphas, cfg, 300, fmt), (metric, opts)
    rows = metrics.pareto_rows(iter(pairs))
    assert _rows_text(rows, metrics.PARETO_COLUMNS) == _reference_pareto(pairs)


def _record(policy_id, returns, marginals=True):
    returns = np.array(returns)
    return (EvalRecord(policy_id, "flat-mean-spread", NoiseConfig(kind="none"), 0, returns,
                       returns[:, None], returns[:, None] if marginals else None), "es")


@pytest.mark.parametrize("metric, short", [
    ("iqm", _record("small", [1.0, 2.0])),
    ("bmad", _record("small", [1.0])),
    ("smad", _record("small", [1.0, 2.0], marginals=False)),
])
def test_library_rows_refuse_the_first_bad_record_and_read_no_further(metric, short):
    good = _record("good", [1.0, 2.0, 3.0, 4.0])
    later_bad = _record("later", [5.0], marginals=False)
    read = []

    def records(items):
        for item in items:
            read.append(item[0].policy_id)
            yield item

    with pytest.raises(RecordError) as refused:
        metrics.report_rows(records([good, short, later_bad, good]), metric)
    index, reason = refused.value.args
    assert index == 1 and read == ["good", "small"]
    with pytest.raises(RecordError) as alone:
        metrics.report_rows([short], metric)
    assert alone.value.args == (0, reason)
    if metric == "iqm":  # pareto takes any non-empty returns
        assert [row[0] for row in metrics.pareto_rows([good, short])] == ["good", "small"]


@pytest.mark.parametrize("args, message", [
    (("variance",), "unknown metric 'variance', valid: mean, median, iqm, mad, iqr, std, lcb, "
                    "bmad, biqr, smad"),
    (("lcb", [0.5, -1.0]), "alpha must be finite and >= 0, got -1.0"),
    (("lcb", [float("nan")]), "alpha must be finite and >= 0, got nan"),
    (("mad", (0.0,), LcbConfig(), 0), "n_resamples must be >= 1, got 0"),
])
def test_report_rows_refuse_arguments_before_reading_a_record(args, message):
    def unread():
        pytest.fail("a record was read")
        yield

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        metrics.report_rows(unread(), *args)


def test_report_refuses_n_resamples_before_reading_artifacts(tmp_path, capsys, monkeypatch):
    # the flag is refused first: over a malformed artifact, a missing input or
    # good artifacts alike, none of which is read
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    good = _make_eval_artifact(tmp_path / "good.json", "p0", [1.0, 2.0, 3.0])
    monkeypatch.setattr(cli, "_load_eval_artifact", lambda path: pytest.fail(f"read {path}"))
    for inputs in ([str(bad)], [str(tmp_path / "missing" / "*.json")], [good, good]):
        assert main(["report", *inputs, "--metric", "mad", "--n-resamples", "0"]) == 2
        assert capsys.readouterr().err == "error: n_resamples must be >= 1, got 0\n"


def test_report_names_an_artifact_too_large_to_parse(tmp_path, capsys, monkeypatch):
    # a parse that runs out of memory names the file (exit 1), not --n-resamples
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])

    def load(fh):
        raise MemoryError

    monkeypatch.setattr(cli.json, "load", load)
    assert main(["report", path, "--metric", "mean"]) == 1
    assert capsys.readouterr().err == f"error: artifact {path} does not fit in memory\n"


@pytest.mark.parametrize("k", [0, 1, 2], ids=["first", "middle", "last"])
def test_train_stops_at_a_failing_seed_after_the_seeds_before_it(tmp_path, capsys, monkeypatch, k):
    seeds = [4, 7, 9]
    train = optim.train

    def train_or_fail(es, env, noise, seed):
        if seed == seeds[k]:
            raise NumericFailure(f"non-finite fitness at generation 1 of seed {seed}")
        return train(es, env, noise, seed)

    monkeypatch.setattr(optim, "train", train_or_fail)
    path = write_config(tmp_path / "cfg.json", seeds=seeds)
    runs = tmp_path / "runs"
    assert main(["train", "--config", path, "--out", str(runs)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: non-finite fitness at generation 1 of seed {seeds[k]}\n"
    written = [f"train_es_seed{s}.json" for s in seeds[:k]]
    assert out == "".join(f"wrote {runs / name}\n" for name in written)
    assert (sorted(os.listdir(runs)) if runs.exists() else []) == written
    yielded = []
    with pytest.raises(NumericFailure, match=f"seed {seeds[k]}$"):
        for seed, _ in optim.train_runs(ExperimentConfig.from_json_dict(read_json(path))):
            yielded.append(seed)
    assert yielded == seeds[:k]


def _json_text(value):
    # float repr is unique per bit pattern, so equal texts are equal bits
    return json.dumps(value, sort_keys=True)


LIBRARY_RUNS = {
    "es": {},
    "res": {"algo": "res", "es": {"arch": [1, 2, 1], "popsize": 4, "generations": 2,
                                  "n_reevals": 3}},
    "random": {"algo": "random"},
    "scripted": {"algo": "scripted", "constant_action": [0.25]},
}


@pytest.mark.parametrize("algo", LIBRARY_RUNS)
def test_library_runs_equal_the_cli_artifacts_bit_for_bit(tmp_path, capsys, algo):
    path = write_config(tmp_path / "cfg.json", noise={"kind": "reward", "sigma": 0.3},
                        record_state_marginal=True, seeds=[0, 3], **LIBRARY_RUNS[algo])
    cfg = ExperimentConfig.from_json_dict(read_json(path))
    runs, evals = tmp_path / "runs", tmp_path / "evals"
    assert main(["train", "--config", path, "--out", str(runs)]) == 0
    states = list(repro_rl.train_runs(cfg))
    assert [seed for seed, _ in states] == [0, 3]
    for seed, state in states:
        art = read_json(runs / f"train_{algo}_seed{seed}.json")
        assert art["generations_run"] == state.generation
        assert _json_text(art["history"]) == _json_text(state.history)
        assert (_json_text(cli.policy_from_json_dict(art).to_json_dict())
                == _json_text(state.center.to_json_dict()))
    capsys.readouterr()
    assert main(["evaluate", "--config", path, "--policy", str(runs), "--seeds", "5,1",
                 "--out", str(evals)]) == 0
    policies = [(state.center, f"{algo}-seed{seed}") for seed, state in states]
    records = list(repro_rl.evaluate_runs(dataclasses.replace(cfg, seeds=(5, 1)), policies))
    names = [f"eval_{r.policy_id}_seed{r.master_seed}.json" for r in records]
    assert names == [f"eval_{policy_id}_seed{s}.json" for _, policy_id in policies for s in (5, 1)]
    assert capsys.readouterr().out == "".join(f"wrote {evals / name}\n" for name in names)
    for name, record in zip(names, records):
        art = read_json(evals / name)
        for key in ("returns", "descriptors", "state_marginals"):
            assert _json_text(art[key]) == _json_text(record.to_json_dict()[key]), (name, key)


def test_names_the_benchmark_harness_and_tests_call_stay_in_place(monkeypatch):
    from repro_rl import evaluate, evaluate_runs, train, train_runs
    from repro_rl.cli import EVAL_SCHEMA, main, policy_from_json_dict
    from repro_rl.optim import evaluate as optim_evaluate, train as optim_train

    assert (evaluate, train, optim_evaluate, optim_train) == (
        repro_rl.rollout.evaluate, repro_rl.optim.train, repro_rl.rollout.evaluate, optim.train)
    assert all(map(callable, (main, policy_from_json_dict, default_config, ExperimentConfig)))
    assert EVAL_SCHEMA == "repro-rl-eval" and repro_rl.ExperimentConfig is ExperimentConfig
    # the runs call train and evaluate through optim's names, which a tracer replaces
    calls = []
    monkeypatch.setattr(optim, "train", lambda *a: calls.append("train") or optim_train(*a))
    monkeypatch.setattr(optim, "evaluate", lambda *a, **k: calls.append("evaluate")
                        or optim_evaluate(*a, **k))
    cfg = ExperimentConfig.from_json_dict(TINY_CONFIG)
    states = list(train_runs(cfg))
    list(evaluate_runs(cfg, [(state.center, str(seed)) for seed, state in states]))
    assert calls == ["train"] * 2 + ["evaluate"] * 4
