"""Reproducibility of RL policies under injected uncertainty.

A policy's return distribution under a chosen noise source is summarised by
robust dispersion statistics (MAD, IQR), ranked through a dispersion-penalised
lower confidence bound, and optimised directly with an evolution strategy
whose fitness trades mean return against return spread.
"""

from .core import (
    ConstantPolicy,
    EvalRecord,
    Policy,
    PolicyParams,
    RngStream,
    Trajectory,
    derive_stream,
    param_count,
    policy_forward,
)
from .envs import EnvConfig, flat_mean_spread, point_mass_nav, tradeoff_spread
from .metrics import (
    LcbConfig,
    ParetoPoint,
    ReproSummary,
    behavioural_iqr,
    behavioural_mad,
    lcb,
    lcb_sweep,
    pairwise_distances,
    pareto_front,
    state_marginal_repro,
    summarize,
)
from .noise import NoiseConfig, default_sigma
from .optim import EsConfig, EsState, ExperimentConfig, evaluate_runs, optimize_function
from .optim import train, train_runs
from .rollout import EvalConfig, evaluate, rollout_once
from .stats import (
    BootstrapCI,
    Quartiles,
    iqm,
    iqr,
    mad,
    median,
    quartiles,
    stratified_bootstrap,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapCI",
    "ConstantPolicy",
    "EnvConfig",
    "EsConfig",
    "EsState",
    "EvalConfig",
    "EvalRecord",
    "ExperimentConfig",
    "LcbConfig",
    "NoiseConfig",
    "ParetoPoint",
    "Policy",
    "PolicyParams",
    "Quartiles",
    "ReproSummary",
    "RngStream",
    "Trajectory",
    "behavioural_iqr",
    "behavioural_mad",
    "default_sigma",
    "derive_stream",
    "evaluate",
    "evaluate_runs",
    "flat_mean_spread",
    "iqm",
    "iqr",
    "lcb",
    "lcb_sweep",
    "mad",
    "median",
    "optimize_function",
    "pairwise_distances",
    "param_count",
    "pareto_front",
    "point_mass_nav",
    "policy_forward",
    "quartiles",
    "rollout_once",
    "state_marginal_repro",
    "stratified_bootstrap",
    "summarize",
    "tradeoff_spread",
    "train",
    "train_runs",
]
