"""Command-line benchmark runner.

Flags mirror ExperimentConfig; --config loads a key=value file first and any
explicitly passed flags override it.  Exit code 0 on success, 2 on invalid
input or runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .bench import (ExperimentConfig, dump_value_tables, emit_results,
                    run_experiment)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safe-lsvi",
        description="Run a safe-RL benchmark episode loop and emit CSV metrics.")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--env", choices=("frozen_lake", "synthetic_linear",
                                          "hard_instance"))
    parser.add_argument("--agent", choices=("lsvi_ae", "lsvi", "lsvi_primal"))
    parser.add_argument("--episodes", type=int, help="number of episodes K")
    parser.add_argument("--horizon", type=int, help="episode length H")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--p", type=float, help="confidence level in (0, 1)")
    parser.add_argument("--lambda", dest="lam", type=float, help="ridge regularizer")
    parser.add_argument("--c-beta", dest="c_beta", type=float,
                        help="constant in the theory bonus schedule")
    parser.add_argument("--beta-override", dest="beta_override", type=float,
                        help="use this bonus scale instead of the schedule")
    parser.add_argument("--cost-model", dest="cost_model", choices=("linear", "gp"))
    parser.add_argument("--kernel", choices=("linear", "sqexp"))
    parser.add_argument("--lengthscale", type=float)
    parser.add_argument("--cost-width-scale", dest="cost_width_scale", type=float,
                        help="multiplier on the cost confidence width")
    parser.add_argument("--dim", type=int, help="feature dimension for the "
                        "synthetic and hard-instance environments")
    parser.add_argument("--map", dest="map_path", help="ASCII grid file for "
                        "frozen_lake (S start, G goal, H hazard, . free)")
    parser.add_argument("--out", help="output directory for results.csv")
    parser.add_argument("--dump-values", action="store_true",
                        help="also write the optimal safe value tables")
    parser.add_argument("--verbose", action="store_true")
    return parser


def config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_text(Path(args.config).read_text())
    else:
        config = ExperimentConfig()
    overrides = {}
    for name in ("env", "agent", "episodes", "horizon", "seed", "p", "lam",
                 "c_beta", "beta_override", "cost_model", "kernel",
                 "lengthscale", "cost_width_scale", "dim", "out"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.map_path:
        overrides["map_text"] = Path(args.map_path).read_text()
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = config_from_args(args)
        if args.dump_values and not config.out:
            raise ValueError("--dump-values needs an output directory (--out)")
        metrics = run_experiment(config)
        if config.out:
            path = emit_results(metrics, config, config.out)
            if args.dump_values:
                dump_value_tables(metrics, config.out)
            print(path)
        summary = metrics.summary
        print(f"total_reward={summary['total_reward']:.6g} "
              f"total_violation={summary['total_violation']:.6g} "
              f"total_regret={summary['total_regret']:.6g}")
        return 0
    except (ValueError, OSError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
