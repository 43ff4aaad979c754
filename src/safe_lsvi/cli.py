"""Command-line benchmark runner.

Flags mirror ExperimentConfig, one per field as its declaration names it;
--config loads a key=value file first and any explicitly passed flags
override it.  Exit code 0 on success, 2 on invalid input or runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (CHOICES, ExperimentConfig, emit_results, parse_setting,
                    run_experiment)


def _flag(f) -> str:
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safe-lsvi",
        description="Run a safe-RL benchmark episode loop and emit CSV metrics.")
    parser.add_argument("--config", help="key=value config file; flags override it")
    # Values stay text here: config_from_args reads them as a config file's.
    for f in fields(ExperimentConfig):
        metavar = "{%s}" % ",".join(CHOICES[f.name]) if f.name in CHOICES \
            else f.metadata.get("metavar")
        parser.add_argument(_flag(f), dest=f.name, metavar=metavar,
                            help=f.metadata.get("help"))
    return parser


def config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        config = ExperimentConfig.from_text(Path(args.config).read_text())
    else:
        config = ExperimentConfig()
    for f in fields(ExperimentConfig):
        text = getattr(args, f.name)
        if text is None:
            continue
        if text == []:  # Python 3.11's argparse stores a value '--' (--out=--) as []
            text = "--"
        if f.name == "map_text":  # --map names the file that holds it
            text = Path(text).read_text()
        try:
            setattr(config, f.name, parse_setting(f.name, text))
        except ValueError as exc:
            raise ValueError(f"{_flag(f)}: {exc}") from None
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
    except (ValueError, OSError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
