import csv
import io
import json
import os

import numpy as np
import pytest

from repro_rl.cli import main
from repro_rl.core import EvalRecord
from repro_rl.metrics import DISP_ESTIMATORS, PERF_ESTIMATORS, LcbConfig, lcb

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


def test_interrupted_write_keeps_old_file_and_no_temp(tmp_path, monkeypatch):
    out = tmp_path / "c.json"
    out.write_text("old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        main(["print-config", "--out", str(out)])
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["c.json"]


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
    assert len(art["state_marginals"]) == 16
    assert len(art["state_marginals"][0]) == 1


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
        _make_eval_artifact(tmp_path / f"e{seed}.json", "p0", [val] * 4, seed=seed)
    assert main(["report", str(tmp_path), "--metric", "mean"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1
    # per-seed means 1..4, trim 1 each side, mean(2,3) = 2.5
    assert float(rows[0]["point"]) == 2.5
    assert rows[0]["n_seeds"] == "4"


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize(
    "command",
    [["report", "--metric", "mean"], ["report", "--metric", "std"],
     ["report", "--metric", "bmad"], ["pareto"]],
    ids=["report-mean", "report-std", "report-bmad", "pareto"],
)
def test_malformed_eval_artifact_exits_1(tmp_path, capsys, case, command):
    path = _make_eval_artifact(tmp_path / "e.json", "p0", [1.0, 2.0, 3.0])
    _patch_artifact(path, **MALFORMED[case])
    assert main([command[0], path, *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: artifact ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err
