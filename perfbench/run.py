"""Run one benchmark workload of safe_lsvi and print its metrics.

    python3 perfbench/run.py --workload lake_linear --seed 0 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics (set-up time, workload wall time, episodes per second, peak RSS);
with ``--trace 1`` the per-layer metrics of one traced round.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 when every check passed, 1 when a check
failed, 2 on a usage error or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "safe_lsvi" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from perfbench.harness import run_workload
    from perfbench.machine import machine_info
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    print("machine", json.dumps(machine_info(), sort_keys=True))
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), OUT)

    for note in report.notes:
        print(note)
    for seed, digest in report.digests:
        print(f"digest {report.workload} seed {seed} results.csv sha256 {digest}")
    if report.layer_table:
        wall = sum(stats["self_s"] for _, stats in report.layer_table)
        print(f"{'span':34} {'calls':>8} {'busy_s':>9} {'self_s':>9} "
              f"{'share':>6} {'us_p50':>9} {'us_tail':>9} tail")
        for name, st in report.layer_table:
            print(f"{name:34} {st['calls']:8d} {st['busy_s']:9.4f} "
                  f"{st['self_s']:9.4f} {st['self_s'] / wall:6.1%} "
                  f"{st['us_p50']:9.1f} {st['us_tail']:9.1f} p{st['tail_pct']:g}")
    for name, (value, unit) in report.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for error in report.errors[:20]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    # Pin the thread pools before anything imports numpy.
    sys.path.insert(0, str(ROOT))
    from perfbench.machine import pin_threads

    pin_threads()
    sys.exit(main())
