"""Safe episodic RL benchmark: optimistic least-squares value iteration with
an adaptive rectified penalty, optimistic cost estimators, and exact
constrained-MDP oracles."""

from .bench import (ExperimentConfig, Metrics, emit_results,
                    fit_growth_exponent, run_experiment)
from .costs import (CostEstimate, GpCostModel, LinearCostModel, gp_beta,
                    make_kernel, tilde_beta)
from .envs import (DEFAULT_LAKE_MAP, FeatureMap, StepRecord, TabularCmdp,
                   build_frozen_lake, build_hard_instance,
                   build_synthetic_linear, describe_cmdp,
                   frozen_lake_from_grid, one_hot_features, parse_cmdp_text,
                   step)
from .lsvi import GramState, LsviLearner, QModel, beta_schedule
from .oracle import (ValueTable, brute_force_enumerate, constrained_dp,
                     policy_eval, value_iteration)
from .penalty import PenaltyLedger, penalized_argmax

__all__ = [
    "ExperimentConfig", "Metrics", "emit_results", "fit_growth_exponent",
    "run_experiment", "CostEstimate", "GpCostModel", "LinearCostModel",
    "gp_beta", "make_kernel", "tilde_beta", "DEFAULT_LAKE_MAP",
    "FeatureMap", "StepRecord", "TabularCmdp", "build_frozen_lake",
    "build_hard_instance", "build_synthetic_linear", "describe_cmdp",
    "frozen_lake_from_grid", "one_hot_features", "parse_cmdp_text", "step",
    "GramState", "LsviLearner", "QModel", "beta_schedule", "ValueTable",
    "brute_force_enumerate", "constrained_dp", "policy_eval",
    "value_iteration", "PenaltyLedger", "penalized_argmax",
]
