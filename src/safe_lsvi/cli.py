"""Command-line benchmark runner.

Flags mirror ExperimentConfig; --config loads a key=value file first and any
explicitly passed flags override it.  Exit code 0 on success, 2 on invalid
input or runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (AGENTS, COST_MODELS, ENVS, ExperimentConfig, emit_results,
                    run_experiment)
from .costs import KERNELS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safe-lsvi",
        description="Run a safe-RL benchmark episode loop and emit CSV metrics.")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--env", choices=ENVS)
    parser.add_argument("--agent", choices=AGENTS)
    parser.add_argument("--episodes", type=int, help="number of episodes K")
    parser.add_argument("--horizon", type=int, help="episode length H")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--p", type=float, help="confidence level in (0, 1)")
    parser.add_argument("--lambda", dest="lam", type=float, help="ridge regularizer")
    parser.add_argument("--c-beta", dest="c_beta", type=float,
                        help="constant in the theory bonus schedule")
    parser.add_argument("--beta-override", dest="beta_override", type=float,
                        help="use this bonus scale instead of the schedule")
    parser.add_argument("--cost-model", dest="cost_model", choices=COST_MODELS)
    parser.add_argument("--kernel", choices=KERNELS)
    parser.add_argument("--lengthscale", type=float)
    parser.add_argument("--cost-width-scale", dest="cost_width_scale", type=float,
                        help="multiplier on the cost confidence width")
    parser.add_argument("--dim", type=int, help="feature dimension for the "
                        "synthetic and hard-instance environments")
    parser.add_argument("--map", dest="map_path", help="ASCII grid file for "
                        "frozen_lake (S start, G goal, H hazard, . free)")
    parser.add_argument("--out", help="output directory for results.csv")
    return parser


def config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_text(Path(args.config).read_text())
    else:
        config = ExperimentConfig()
    # Every config field is a flag of its name but map_text (--map, a file).
    for f in fields(ExperimentConfig):
        if f.name != "map_text" and getattr(args, f.name) is not None:
            setattr(config, f.name, getattr(args, f.name))
    if args.map_path is not None:
        config.map_text = Path(args.map_path).read_text()
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        metrics = run_experiment(config)
        if config.out:
            print(emit_results(metrics, config, config.out))
        summary = metrics.summary
        print(f"total_reward={summary['total_reward']:.6g} "
              f"total_violation={summary['total_violation']:.6g} "
              f"total_regret={summary['total_regret']:.6g}")
        return 0
    except (ValueError, OSError, FloatingPointError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
