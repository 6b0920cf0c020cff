"""Desk-scale active-learning simulator with a learned ask-or-self-label gate."""

__version__ = "0.1.0"

from .acquisition import bald_mcd, mc_posteriors, predictive_entropy, select_top_b
from .config import ExperimentConfig, config_hash, load_config
from .data import Dataset, gen_synthetic, load_csv, split, standardize
from .engine import PoolState, ResultLog, ask_rate, run_experiment
from .errors import (
    ConfigError,
    DataLoadError,
    GateNotReadyError,
    SoqalError,
    UndefinedMetricError,
)
from .gate import (
    ChernoffResult,
    GateStats,
    chernoff_bound,
    decide_ask,
    fit_conditional_gaussians,
    hellinger,
)
from .metrics import auc_binary, auc_ovr
from .network import Network, compute_beta, train_epoch
from .oracle import Oracle, build_neighbor_table
from .strategy import LabelDecision, QuestionContext, decide, epsilon_schedule

__all__ = [
    "ChernoffResult",
    "ConfigError",
    "DataLoadError",
    "Dataset",
    "ExperimentConfig",
    "GateNotReadyError",
    "GateStats",
    "LabelDecision",
    "Network",
    "Oracle",
    "PoolState",
    "QuestionContext",
    "ResultLog",
    "SoqalError",
    "UndefinedMetricError",
    "ask_rate",
    "auc_binary",
    "auc_ovr",
    "bald_mcd",
    "build_neighbor_table",
    "chernoff_bound",
    "compute_beta",
    "config_hash",
    "decide",
    "decide_ask",
    "epsilon_schedule",
    "fit_conditional_gaussians",
    "gen_synthetic",
    "hellinger",
    "load_config",
    "load_csv",
    "mc_posteriors",
    "predictive_entropy",
    "run_experiment",
    "select_top_b",
    "split",
    "standardize",
    "train_epoch",
]
