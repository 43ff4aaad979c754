"""Record the benchmark's end-to-end numbers into BENCH_<tag>.json.

    python3 tools/record_bench.py --tag TAG --baseline REV

Run from the repository root.  For every gated workload of BENCHMARK.json
it runs ``perfbench/run.py --trace 0`` for the benchmark's run_seconds on
the working tree and on a checkout of the git revision REV, made with
``git archive`` in a temporary directory: ten pairs (pair i with seed i),
whose order alternates (the baseline first in odd pairs).  Per side it
keeps, per end-to-end metric, each run's value with their median and
quartiles, each run's results.csv digests and the failed and attempted
counts, and per metric it counts the pairs the working tree wins.  The
file also holds the machine line of the first run, and the revisions
measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # a gain is claimed on at least nine of ten pairs


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its machine record, digests and last
    JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench/run.py {workload} seed {seed} printed no result "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    machine = next((json.loads(ln.split(" ", 1)[1]) for ln in lines
                    if ln.startswith("machine ")), None)
    digests = [ln.split()[-1] for ln in lines if ln.startswith("digest ")]
    return {"seed": seed, "machine": machine, "digests": digests, **result}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: the values in run order, their median and quartiles."""
    out = {"correct": all(r["correct"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "digests": {str(r["seed"]): r["digests"] for r in runs},
           "metrics": {}}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                     "median": median, "q1": q1, "q3": q3,
                                     "values": values}
    return out


def wins(change: list, baseline: list, metric: dict) -> int:
    """Pairs in which the change is strictly better on metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    name = metric["name"]
    return sum(sign * (c["metrics"][name]["value"] - b["metrics"][name]["value"]) > 0
               for c, b in zip(change, baseline))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/record_bench.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--baseline", required=True,
                        help="git revision to measure beside the working tree")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = spec["run_seconds"], spec["end_to_end"]

    record = {"command": "python3 perfbench/run.py --trace 0", "seconds": seconds,
              "runs": RUNS, "change": {"base": _git("rev-parse", "HEAD"),
                                            "dirty": bool(_git("status", "--porcelain"))},
              "baseline": {"rev": _git("rev-parse", args.baseline)},
              "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "baseline.tar"
        subprocess.run(["git", "archive", "-o", str(archive), args.baseline],
                       cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "baseline", filter="data")
        sides = {"change": ROOT, "baseline": Path(tmp) / "baseline"}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {side: [] for side in sides}
            for seed in range(1, RUNS + 1):
                order = sorted(sides, reverse=seed % 2 == 0)  # baseline first when odd
                for side in order:
                    run = run_once(sides[side], workload, seed, seconds)
                    machine = run.pop("machine")
                    record["machine"] = record["machine"] or machine
                    runs[side].append(run)
                    value = run["metrics"]["episodes_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                          f"episodes_per_s={value:.1f}", file=sys.stderr)
            entry = {side: summarize(runs[side], metrics) for side in sides}
            entry["change_wins"] = {m["name"]: wins(runs["change"], runs["baseline"], m)
                                    for m in metrics}
            record["workloads"][workload] = entry
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
