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
import functools
import glob as globmod
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import List, Optional, Tuple

from .core import (
    ConstantPolicy,
    EvalRecord,
    JsonFields,
    NumericFailure,
    Policy,
    PolicyParams,
    as_float,
    as_int,
    as_str,
    cast_field,
)
from .envs import EnvConfig, _check_action, point_mass_nav
from .metrics import (
    DISP_ESTIMATORS,
    PARETO_COLUMNS,
    PERF_ESTIMATORS,
    REPORT_COLUMNS,
    REPORT_METRICS,
    LcbConfig,
    RecordError,
    pareto_rows,
    report_rows,
)
from .noise import NoiseConfig
from .optim import EsConfig, EsState, init_center, train
from .rollout import EvalConfig, evaluate

RUN_SCHEMA = "repro-rl-run"
EVAL_SCHEMA = "repro-rl-eval"

ALGOS = ("es", "res", "random", "scripted")
# The algo name decides the ES fitness mode; "res" is the repro variant.
FITNESS_MODE_OF_ALGO = {"es": "plain", "res": "repro"}


class ConfigError(Exception):
    """Invalid configuration or flag values (exit code 2)."""


class DataError(Exception):
    """Missing or malformed input artifacts (exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig(JsonFields):
    """Everything one train/evaluate invocation needs. An `es.arch` of None is
    (state_dim, 16, 16, action_dim), algo "es" or "res" sets `es.fitness_mode`,
    and a `constant_action` must fit the env's action box."""

    env: EnvConfig = point_mass_nav()
    noise: NoiseConfig = NoiseConfig()
    algo: str = "es"
    es: EsConfig = EsConfig(popsize=32, lr=0.05, generations=50)
    n_evals: int = 256
    record_state_marginal: bool = False
    seeds: tuple = (0,)
    constant_action: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(cast_field("seeds", as_int, s) for s in self.seeds))
        if self.constant_action is not None:
            action = tuple(cast_field("constant_action", as_float, x) for x in self.constant_action)
            cast_field("constant_action", functools.partial(_check_action, self.env), action)
            object.__setattr__(self, "constant_action", action)
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}, valid: {', '.join(ALGOS)}")
        if len(self.seeds) < 1:
            raise ConfigError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.n_evals < 1:
            raise ConfigError(f"n_evals must be >= 1, got {self.n_evals}")
        if self.algo == "scripted" and self.constant_action is None:
            raise ConfigError("algo 'scripted' requires constant_action")
        arch = self.es.arch
        if arch is None:
            arch = (self.env.state_dim, 16, 16, self.env.action_dim)
        mode = FITNESS_MODE_OF_ALGO.get(self.algo, self.es.fitness_mode)
        object.__setattr__(self, "es", dataclasses.replace(self.es, arch=arch, fitness_mode=mode))

    def to_json_dict(self) -> dict:
        d = super().to_json_dict()
        if self.constant_action is None:
            del d["constant_action"]
        return d


def default_config() -> ExperimentConfig:
    return ExperimentConfig(noise=NoiseConfig(kind="init-state"))


def _read_json(path: str, what: str):
    """Parsed JSON of `path`; any failure to read or parse it is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise DataError(f"{what} not found: {path}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{what} {path} is not valid JSON: {e}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{what} {path} cannot be read: {e}") from e
    except MemoryError as e:
        raise DataError(f"{what} {path} does not fit in memory") from e


def _run_config(args) -> ExperimentConfig:
    """The `--config` file's config, with `--seeds` in place of its seeds when
    given; a config its types refuse is a ConfigError."""
    d = _read_json(args.config, "config file")
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    try:
        cfg = ExperimentConfig.from_json_dict(d)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    if args.seeds is None:
        return cfg
    return dataclasses.replace(cfg, seeds=_parse_list(args.seeds, "--seeds", int))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(text: str, path: Optional[str]) -> None:
    """Write to stdout, or atomically to `path`: a temp file in the target
    directory is renamed over it, so readers never see a partial file. A
    path that cannot be written is a ConfigError."""
    if path is None:
        sys.stdout.write(text)
        return
    path = os.path.abspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _dump_json(obj: dict, path: Optional[str]) -> None:
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def policy_to_json_dict(policy: Policy) -> dict:
    kind = "constant" if isinstance(policy, ConstantPolicy) else "mlp"
    return {**policy.to_json_dict(), "kind": kind}


def policy_from_json_dict(d: dict) -> Policy:
    if "final_policy" in d:
        d = d["final_policy"]
    if "action" in d:
        return ConstantPolicy.from_json_dict(d)
    if "theta" in d:
        return PolicyParams.from_json_dict(d)
    raise DataError("policy JSON needs either 'theta'/'arch' or 'action'")


def _parse_list(text: str, flag: str, cast) -> tuple:
    """The comma-separated values of `flag`, each through `cast`; empty
    items are skipped, and at least one value must remain."""
    try:
        values = tuple(cast(s) for s in text.split(",") if s.strip() != "")
    except ValueError as e:
        raise ConfigError(f"bad {flag} value {text!r}: {e}") from e
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


def _train_one(cfg: ExperimentConfig, seed: int) -> Tuple[Policy, int, list]:
    if cfg.algo in ("es", "res"):
        state: EsState = train(cfg.es, cfg.env, cfg.noise, seed)
        return state.center, state.generation, state.history
    if cfg.algo == "random":
        return init_center(cfg.es, seed), 0, []
    return ConstantPolicy(action=cfg.constant_action), 0, []


def cmd_train(args) -> int:
    cfg = _run_config(args)
    for seed in cfg.seeds:
        try:
            policy, gens_run, history = _train_one(cfg, seed)
        except MemoryError as e:
            raise ConfigError(f"es arch {cfg.es.arch}, popsize {cfg.es.popsize} and n_reevals "
                              f"{cfg.es.n_reevals} do not fit in memory") from e
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


def _policy_id(policy_id: str, source: str, error) -> str:
    """`policy_id`, or `error` naming `source` unless it is one file-name component."""
    if policy_id in (".", "..") or any(sep and sep in policy_id for sep in ("/", os.sep, os.altsep)):
        raise error(f"{source}: policy id {policy_id!r} is not one file-name component")
    return policy_id


def _load_policy_file(path: str) -> Tuple[Policy, str, Optional[str]]:
    raw = _read_json(path, "policy file")
    if not isinstance(raw, dict):
        raise DataError(f"policy file {path} is not a JSON object")
    try:
        policy = policy_from_json_dict(raw)
        algo = cast_field("algo", as_str, raw["algo"]) if "algo" in raw else None
        if raw.get("schema") == RUN_SCHEMA:
            seed = cast_field("seed", as_int, raw.get("seed", 0))
            if seed < 0:
                raise ValueError(f"seed: expected a non-negative integer, got {seed}")
            policy_id = f"{'run' if algo is None else algo}-seed{seed}"
        else:
            policy_id = os.path.splitext(os.path.basename(path))[0]
    except (TypeError, ValueError) as e:
        raise DataError(f"policy file {path} is malformed: {e}") from e
    return policy, _policy_id(policy_id, f"policy file {path}", DataError), algo


def cmd_evaluate(args) -> int:
    cfg = _run_config(args)
    policies = [_load_policy_file(path) for path in _collect_inputs([args.policy])]
    if args.policy_id is not None:
        if len(policies) > 1:
            raise ConfigError(f"--policy-id names one policy, {args.policy} holds {len(policies)}")
        policies = [(policies[0][0], _policy_id(args.policy_id, "--policy-id", ConfigError),
                     policies[0][2])]

    single_file = args.out.endswith(".json")
    if single_file and len(policies) * len(cfg.seeds) > 1:
        raise ConfigError(f"--out {args.out} names one file, {len(policies)} policies x "
                          f"{len(cfg.seeds)} seeds make {len(policies) * len(cfg.seeds)} artifacts")
    for (policy, policy_id, algo), seed in itertools.product(policies, cfg.seeds):
        eval_cfg = EvalConfig(cfg.n_evals, seed, record_state_marginal=cfg.record_state_marginal)
        try:
            record = evaluate(policy, cfg.env, cfg.noise, eval_cfg, args.jobs, policy_id=policy_id)
        except MemoryError as e:
            raise ConfigError(f"n_evals {cfg.n_evals} does not fit in memory") from e
        artifact = record.to_json_dict()
        artifact["schema"] = EVAL_SCHEMA
        artifact["created_at"] = _now()
        artifact["algo"] = cfg.algo if algo is None else algo
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


def _load_eval_artifact(path: str) -> Tuple[EvalRecord, str]:
    raw = _read_json(path, "artifact")
    if not isinstance(raw, dict) or raw.get("schema") != EVAL_SCHEMA:
        raise DataError(f"artifact {path} is not an evaluation artifact ({EVAL_SCHEMA})")
    try:
        record = EvalRecord.from_json_dict(raw)
        algo = cast_field("algo", as_str, raw.get("algo", "unknown"))
    except (ValueError, TypeError) as e:
        raise DataError(f"artifact {path}: {e}") from e
    return record, algo


def _write_rows(rows: List[tuple], header: List[str], fmt: str, out: Optional[str]) -> None:
    rows = [dict(zip(header, row)) for row in rows]
    if fmt == "json":
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _write_text(text, out)


def _artifact_rows(inputs: List[str], rows_of) -> list:
    """`rows_of` the (record, algo) of each eval artifact of `inputs`, the files
    found and loaded only as it reads them; a record it refuses is a DataError
    naming the record's file."""
    paths = []

    def records():
        for path in _collect_inputs(inputs):
            paths.append(path)
            yield _load_eval_artifact(path)

    try:
        return rows_of(records())
    except RecordError as e:
        index, reason = e.args
        raise DataError(f"artifact {paths[index]}: {reason}") from e


def cmd_report(args) -> int:
    alphas = _parse_list(args.alphas, "--alphas", float)
    if not all(0 <= a < float("inf") for a in alphas):
        raise ConfigError("--alphas must be finite and non-negative")
    cfg = LcbConfig(perf=args.perf_estimator, disp=args.disp_estimator)
    try:
        rows = _artifact_rows(args.inputs, lambda records: report_rows(
            records, args.metric, alphas, cfg, args.n_resamples))
    except MemoryError as e:
        raise ConfigError(f"--n-resamples {args.n_resamples} does not fit in memory") from e
    rows = [(*row[:5], *map(repr, row[5:])) for row in rows]
    _write_rows(rows, REPORT_COLUMNS, args.format, args.out)
    return 0


def cmd_pareto(args) -> int:
    rows = [(policy_id, repr(perf), repr(repro), str(flag).lower())
            for policy_id, perf, repro, flag in _artifact_rows(args.inputs, pareto_rows)]
    _write_rows(rows, PARETO_COLUMNS, args.format, args.out)
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
    p_report.add_argument(
        "--alphas", default="0,0.5,1", help="comma-separated alphas for --metric lcb"
    )
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


_parser = functools.cache(build_parser)  # main's, built once; parsing leaves it as is


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, NumericFailure, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, (DataError, NumericFailure)) else 2


if __name__ == "__main__":
    sys.exit(main())
