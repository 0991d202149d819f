"""Command line workflow: train policies, evaluate them under noise, and
aggregate the results into reports and trade-off fronts.

Artifacts are JSON with sorted keys, so reruns of the same command produce
identical bytes except for the created_at stamp on train/eval artifacts.
Reports carry no timestamp at all and are byte-stable.

Exit codes: 0 success, 1 missing or malformed input data, 2 invalid
configuration or flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob as globmod
import io
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import List, Optional, Tuple

import numpy as np

from .core import ConstantPolicy, NumericFailure, Policy, PolicyParams, derive_stream
from .envs import BUILTIN_ENVS, EnvConfig
from .metrics import (
    DISP_ESTIMATORS,
    PERF_ESTIMATORS,
    LcbConfig,
    ParetoPoint,
    behavioural_iqr,
    behavioural_mad,
    dispersion,
    lcb_sweep,
    pareto_front,
    performance,
    state_marginal_repro,
)
from .noise import NoiseConfig
from .optim import EsConfig, EsState, init_center, train
from .rollout import EvalConfig, evaluate
from .stats import stratified_bootstrap
from .core import EvalRecord

RUN_SCHEMA = "repro-rl-run"
EVAL_SCHEMA = "repro-rl-eval"

ALGOS = ("es", "res", "random", "scripted")

# report metric -> (record, alphas, lcb_cfg) -> [(row label, value)]
REPORT_METRICS = {
    **{k: lambda r, al, c, k=k: [(k, performance(r.returns, k))] for k in PERF_ESTIMATORS},
    **{k: lambda r, al, c, k=k: [(k, dispersion(r.returns, k))] for k in DISP_ESTIMATORS},
    "lcb": lambda r, al, c: [(f"lcb[alpha={a:g}]", v) for a, v in zip(al, lcb_sweep(r, al, c))],
    "bmad": lambda r, al, c: [("bmad", behavioural_mad(r.descriptors))],
    "biqr": lambda r, al, c: [("biqr", behavioural_iqr(r.descriptors))],
    "smad": lambda r, al, c: [("smad", state_marginal_repro(r))],
}


class ConfigError(Exception):
    """Invalid configuration or flag values (exit code 2)."""


class DataError(Exception):
    """Missing or malformed input artifacts (exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one train/evaluate invocation needs."""

    env: EnvConfig
    noise: NoiseConfig
    algo: str = "es"
    es: EsConfig = EsConfig(arch=(4, 16, 16, 2), popsize=32, lr=0.05, generations=50)
    n_evals: int = 256
    record_state_marginal: bool = False
    seeds: tuple = (0,)
    constant_action: Optional[tuple] = None

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}, valid: {', '.join(ALGOS)}")
        if len(self.seeds) < 1:
            raise ConfigError("seeds must be non-empty")
        if self.n_evals < 1:
            raise ConfigError(f"n_evals must be >= 1, got {self.n_evals}")
        if self.algo == "scripted" and self.constant_action is None:
            raise ConfigError("algo 'scripted' requires constant_action")

    def to_json_dict(self) -> dict:
        d = {
            "env": self.env.to_json_dict(),
            "noise": self.noise.to_json_dict(),
            "algo": self.algo,
            "es": self.es.to_json_dict(),
            "n_evals": self.n_evals,
            "record_state_marginal": self.record_state_marginal,
            "seeds": list(self.seeds),
        }
        if self.constant_action is not None:
            d["constant_action"] = list(self.constant_action)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            env_entry = d.get("env", {"name": "point-mass-nav"})
            if "name" in env_entry:
                name = env_entry["name"]
                if name not in BUILTIN_ENVS:
                    raise ConfigError(
                        f"unknown env {name!r}, valid: {', '.join(sorted(BUILTIN_ENVS))}"
                    )
                env = BUILTIN_ENVS[name]()
            else:
                env = EnvConfig.from_json_dict(env_entry)
            noise = NoiseConfig.from_json_dict(d.get("noise", {}))
            es = EsConfig.from_json_dict(d.get("es", {}))
            if es.arch is None:
                es = dataclasses.replace(es, arch=(env.state_dim, 16, 16, env.action_dim))
            algo = d.get("algo", "es")
            # The algo name decides the fitness mode; "res" is the repro variant.
            if algo == "es":
                es = dataclasses.replace(es, fitness_mode="plain")
            elif algo == "res":
                es = dataclasses.replace(es, fitness_mode="repro")
            ca = d.get("constant_action")
            return cls(
                env=env,
                noise=noise,
                algo=algo,
                es=es,
                n_evals=int(d.get("n_evals", 256)),
                record_state_marginal=bool(d.get("record_state_marginal", False)),
                seeds=tuple(int(s) for s in d.get("seeds", [0])),
                constant_action=None if ca is None else tuple(float(x) for x in ca),
            )
        except ConfigError:
            raise
        except (ValueError, TypeError, KeyError) as e:
            raise ConfigError(str(e)) from e


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        env=BUILTIN_ENVS["point-mass-nav"](),
        noise=NoiseConfig(kind="init-state"),
        algo="es",
        es=EsConfig(arch=(4, 16, 16, 2), popsize=32, sigma_es=0.1, lr=0.05, generations=50),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as e:
        raise DataError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"config file {path} is not valid JSON: {e}") from e
    return ExperimentConfig.from_json_dict(raw)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(text: str, path: Optional[str]) -> None:
    """Write to stdout, or atomically to `path`: a temp file in the target
    directory is renamed over it, so readers never see a partial file."""
    if path is None:
        sys.stdout.write(text)
        return
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _dump_json(obj: dict, path: Optional[str]) -> None:
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def policy_to_json_dict(policy: Policy) -> dict:
    if isinstance(policy, ConstantPolicy):
        d = policy.to_json_dict()
        d["kind"] = "constant"
        return d
    d = policy.to_json_dict()
    d["kind"] = "mlp"
    return d


def policy_from_json_dict(d: dict) -> Policy:
    if "final_policy" in d:
        d = d["final_policy"]
    if "action" in d:
        return ConstantPolicy.from_json_dict(d)
    if "theta" in d:
        return PolicyParams.from_json_dict(d)
    raise DataError("policy JSON needs either 'theta'/'arch' or 'action'")


def _parse_seeds(text: str) -> Tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip() != "")
    except ValueError as e:
        raise ConfigError(f"bad --seeds value {text!r}: {e}") from e
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    return seeds


def _parse_alphas(text: str) -> Tuple[float, ...]:
    try:
        alphas = tuple(float(s) for s in text.split(",") if s.strip() != "")
    except ValueError as e:
        raise ConfigError(f"bad --alphas value {text!r}: {e}") from e
    if not alphas or any(a < 0 for a in alphas):
        raise ConfigError("--alphas must be non-empty and non-negative")
    return alphas


def _train_one(cfg: ExperimentConfig, seed: int) -> Tuple[Policy, int, list]:
    if cfg.algo in ("es", "res"):
        state: EsState = train(cfg.es, cfg.env, cfg.noise, seed)
        return state.center, state.generation, state.history
    if cfg.algo == "random":
        return init_center(cfg.es, seed), 0, []
    action = np.asarray(cfg.constant_action, dtype=np.float64)
    return ConstantPolicy(action=action), 0, []


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seeds is not None:
        cfg = dataclasses.replace(cfg, seeds=_parse_seeds(args.seeds))
    for seed in cfg.seeds:
        policy, gens_run, history = _train_one(cfg, seed)
        artifact = {
            "schema": RUN_SCHEMA,
            "created_at": _now(),
            "algo": cfg.algo,
            "seed": seed,
            "config": cfg.to_json_dict(),
            "generations_run": gens_run,
            "history": history,
            "final_policy": policy_to_json_dict(policy),
        }
        path = os.path.join(args.out, f"train_{cfg.algo}_seed{seed}.json")
        _dump_json(artifact, path)
        print(f"wrote {path}")
    return 0


def _load_policy_file(path: str) -> Tuple[Policy, str, Optional[str]]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as e:
        raise DataError(f"policy file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"policy file {path} is not valid JSON: {e}") from e
    policy = policy_from_json_dict(raw)
    algo = raw.get("algo") if isinstance(raw, dict) else None
    if isinstance(raw, dict) and raw.get("schema") == RUN_SCHEMA:
        policy_id = f"{raw.get('algo', 'run')}-seed{raw.get('seed', 0)}"
    else:
        policy_id = os.path.splitext(os.path.basename(path))[0]
    return policy, policy_id, algo


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    if args.seeds is not None:
        cfg = dataclasses.replace(cfg, seeds=_parse_seeds(args.seeds))
    policy, policy_id, algo = _load_policy_file(args.policy)
    if args.policy_id is not None:
        policy_id = args.policy_id
    if algo is None:
        algo = cfg.algo

    single_file = len(cfg.seeds) == 1 and args.out.endswith(".json")
    for seed in cfg.seeds:
        record = evaluate(
            policy,
            cfg.env,
            cfg.noise,
            EvalConfig(
                n_evals=cfg.n_evals,
                master_seed=seed,
                record_state_marginal=cfg.record_state_marginal,
            ),
            jobs=args.jobs,
            policy_id=policy_id,
        )
        artifact = record.to_json_dict()
        artifact["schema"] = EVAL_SCHEMA
        artifact["created_at"] = _now()
        artifact["algo"] = algo
        artifact["config"] = cfg.to_json_dict()
        if single_file:
            path = args.out
        else:
            path = os.path.join(args.out, f"eval_{policy_id}_seed{seed}.json")
        _dump_json(artifact, path)
        print(f"wrote {path}")
    return 0


def _collect_inputs(paths: List[str]) -> List[str]:
    files: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(globmod.glob(os.path.join(p, "*.json"))))
        elif os.path.isfile(p):
            files.append(p)
        else:
            matched = sorted(globmod.glob(p))
            if not matched:
                raise DataError(f"no input matches {p!r}")
            files.extend(matched)
    if not files:
        raise DataError("no input artifacts found")
    return files


def _load_eval_artifact(path: str) -> Tuple[EvalRecord, dict]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as e:
        raise DataError(f"artifact not found: {path}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"artifact {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict) or raw.get("schema") != EVAL_SCHEMA:
        raise DataError(f"artifact {path} is not an evaluation artifact ({EVAL_SCHEMA})")
    try:
        record = EvalRecord.from_json_dict(raw)
    except (KeyError, ValueError, TypeError) as e:
        raise DataError(f"artifact {path} is malformed: {e}") from e
    n = record.returns.shape[0] if record.returns.ndim == 1 else 0
    if n < 1 or not np.all(np.isfinite(record.returns)):
        raise DataError(f"artifact {path}: returns must be a non-empty list of finite numbers")
    for name in ("descriptors", "state_marginals"):
        rows = getattr(record, name)
        if rows is not None and (
            rows.ndim != 2 or rows.shape[0] != n or not np.all(np.isfinite(rows))
        ):
            raise DataError(
                f"artifact {path}: {name} must be {n} rows of finite numbers, "
                f"got shape {rows.shape}"
            )
    return record, raw


def _noise_label(noise: NoiseConfig) -> str:
    if noise.kind == "none":
        return "none"
    return f"{noise.kind}:{noise.sigma:g}"


def _write_rows(rows: List[dict], header: List[str], fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    _write_text(text, out)


def cmd_report(args) -> int:
    if args.metric not in REPORT_METRICS:
        raise ConfigError(
            f"unknown metric {args.metric!r}, valid: {', '.join(REPORT_METRICS)}"
        )
    alphas = _parse_alphas(args.alphas) if args.alphas is not None else (0.0, 0.5, 1.0)
    lcb_cfg = LcbConfig(perf=args.perf_estimator, disp=args.disp_estimator)
    files = _collect_inputs(args.inputs)

    # cells: (env, algo, noise_label, metric_label) -> list of (seed, value)
    cells: dict = {}
    for path in files:
        record, raw = _load_eval_artifact(path)
        algo = raw.get("algo", "unknown")
        if args.metric == "smad" and record.state_marginals is None:
            raise DataError(
                f"artifact {path} has no state marginals; re-run evaluate with "
                "record_state_marginal true"
            )
        for label, value in REPORT_METRICS[args.metric](record, alphas, lcb_cfg):
            key = (record.env_id, algo, _noise_label(record.noise), label)
            cells.setdefault(key, []).append((record.master_seed, value))

    rows = []
    for idx, key in enumerate(sorted(cells)):
        env_id, algo, noise_label, metric_label = key
        pairs = sorted(cells[key])
        values = np.array([v for _, v in pairs])
        ci = stratified_bootstrap(
            [values],
            aggregate="iqm",
            n_resamples=args.n_resamples,
            stream=derive_stream(0, "report-ci", idx),
        )
        rows.append(
            {
                "env": env_id,
                "algo": algo,
                "noise": noise_label,
                "metric": metric_label,
                "n_seeds": len(values),
                "point": repr(ci.point),
                "ci_lo": repr(ci.lo),
                "ci_hi": repr(ci.hi),
            }
        )
    header = ["env", "algo", "noise", "metric", "n_seeds", "point", "ci_lo", "ci_hi"]
    _write_rows(rows, header, args.format, args.out)
    return 0


def cmd_pareto(args) -> int:
    files = _collect_inputs(args.inputs)
    points = []
    for path in files:
        record, _ = _load_eval_artifact(path)
        points.append(
            ParetoPoint(
                policy_id=record.policy_id,
                perf=performance(record.returns, "mean"),
                repro=-dispersion(record.returns, "mad"),
            )
        )
    flags = pareto_front(points)
    rows = [
        {
            "policy_id": p.policy_id,
            "expected_return": repr(p.perf),
            "neg_mad": repr(p.repro),
            "on_front": "true" if flag else "false",
        }
        for p, flag in zip(points, flags)
    ]
    header = ["policy_id", "expected_return", "neg_mad", "on_front"]
    _write_rows(rows, header, args.format, args.out)
    return 0


def cmd_print_config(args) -> int:
    _dump_json(default_config().to_json_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rl",
        description="Train, evaluate and compare RL policies by the "
        "reproducibility of their returns under injected uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run ES training per seed")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seeds", help="comma-separated seed override")
    p_train.add_argument(
        "--jobs", type=int, default=1, help="accepted; changes neither results nor speed"
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a policy under noise")
    p_eval.add_argument("--config", required=True, help="experiment config JSON")
    p_eval.add_argument("--policy", required=True, help="policy or run artifact JSON")
    p_eval.add_argument("--out", required=True, help="output file (.json) or directory")
    p_eval.add_argument("--seeds", help="comma-separated seed override")
    p_eval.add_argument("--policy-id", help="identifier used in artifacts")
    p_eval.add_argument(
        "--jobs", type=int, default=1, help="accepted; changes neither results nor speed"
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="aggregate eval artifacts into a table")
    p_report.add_argument("inputs", nargs="+", help="artifact files, dirs or globs")
    p_report.add_argument("--metric", required=True, help=", ".join(REPORT_METRICS))
    p_report.add_argument("--alphas", help="comma-separated alphas for --metric lcb")
    p_report.add_argument("--perf-estimator", default="mean", choices=PERF_ESTIMATORS)
    p_report.add_argument("--disp-estimator", default="mad", choices=DISP_ESTIMATORS)
    p_report.add_argument("--format", default="csv", choices=("csv", "json"))
    p_report.add_argument("--n-resamples", type=int, default=2000)
    p_report.add_argument("--out", help="output path (stdout when omitted)")
    p_report.set_defaults(func=cmd_report)

    p_pareto = sub.add_parser(
        "pareto", help="performance/reproducibility front over eval artifacts"
    )
    p_pareto.add_argument("inputs", nargs="+", help="artifact files, dirs or globs")
    p_pareto.add_argument("--format", default="csv", choices=("csv", "json"))
    p_pareto.add_argument("--out", help="output path (stdout when omitted)")
    p_pareto.set_defaults(func=cmd_pareto)

    p_print = sub.add_parser("print-config", help="emit the default config JSON")
    p_print.add_argument("--out", help="output path (stdout when omitted)")
    p_print.set_defaults(func=cmd_print_config)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataError, NumericFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
