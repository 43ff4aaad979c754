"""Record the benchmark's end-to-end numbers into BENCH_<tag>.json.

    python3 tools/record_bench.py --tag TAG --baseline REV

Run from the repository root.  For every gated workload of BENCHMARK.json
it runs ``perfbench/run.py --trace 0`` for the benchmark's run_seconds on
the working tree and on a checkout of the git revision REV, made with
``git archive`` in a temporary directory: ten pairs (pair i with seed i),
whose order alternates (the baseline first in odd pairs).  Per side it
keeps, per end-to-end metric, each run's value with their median and
quartiles, each run's results.csv digests and the failed and attempted
counts, and per metric it counts the pairs the working tree wins and
gives a verdict (see verdict): gain, worse, unresolved or unchanged.

Under "cells" it records the whole CLI runs that perfbench does not cover
(CLI_CELLS): the three K=1000 frozen-lake cells, the K=1000 GP lake run and
the d=13/K=216 dense-GP hard-instance cell, each run three times per side
in alternating order, with one BLAS thread.  Per run it keeps the wall
time, the peak RSS of that process alone (from os.wait4, not the maximum
over all children that RUSAGE_CHILDREN keeps) and the sha256 of its
results.csv.  Under "tier1" it records the Tier-1 verify command
(TIER1_COMMAND), run three times per side in alternating order: each run's
wall time and its passed and failed counts (an error counts as failed).
Under "code_lines" it records each side's code lines in src/safe_lsvi,
counted by this tree's tools/count_lines.py on both checkouts (an older
revision may lack the tool), and under "module_lines" each side's lines per
module, by file name.  The file also holds the machine line of the
first perfbench run, and the revisions measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
GAIN_PAIRS = 9  # a gain is claimed on at least nine of ten pairs
CELL_RUNS = 3
LAKE_K1000 = ["--env", "frozen_lake", "--episodes", "1000", "--horizon", "15",
              "--beta-override", "1.0", "--cost-width-scale", "0.02", "--seed", "0"]
CLI_CELLS = {
    **{f"lake-{agent}-K1000": LAKE_K1000 + ["--agent", agent]
       for agent in ("lsvi_ae", "lsvi", "lsvi_primal")},
    "lake-gp-sqexp-K1000": LAKE_K1000 + ["--cost-model", "gp", "--kernel", "sqexp"],
    "hard-gp-sqexp-d13-K216": [
        "--env", "hard_instance", "--horizon", "3", "--dim", "13", "--episodes", "216",
        "--cost-model", "gp", "--kernel", "sqexp", "--beta-override", "1.0",
        "--cost-width-scale", "0.1", "--seed", "0"],
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIER1_COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


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


def run_cell(checkout: Path, args: list, out: Path) -> dict:
    """One CLI run of the checkout's package with one BLAS thread, writing
    into out: its wall time, its own peak RSS and its results.csv digest."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           **{var: "1" for var in THREAD_VARS}}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "safe_lsvi.cli", *args, "--out", str(out)],
                            cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # wait4 reaped the child, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"safe-lsvi {' '.join(args)} exited {proc.returncode}: "
                           f"{stderr.decode().strip()[-500:]}")
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "digest": digest}


def run_tier1(checkout: Path, selection: tuple = ()) -> dict:
    """One run of the checkout's Tier-1 verify command on its tests, or on
    the pytest arguments selection: its wall time and the passed and failed
    counts of pytest's summary line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(checkout / "src"), os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_COMMAND, *selection], cwd=checkout,
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {kind: int(n) for n, kind in re.findall(
        r"(\d+) (passed|failed|errors?)\b", lines[-1] if lines else "")}
    if not counts:
        raise RuntimeError(f"Tier-1 in {checkout} printed no summary "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return {"wall_s": wall, "passed": counts.pop("passed", 0),
            "failed": sum(counts.values())}


def module_lines(checkout: Path) -> dict:
    """The code lines of each module of the checkout's src/safe_lsvi, by
    file name, and their sum under "total", by this tree's
    tools/count_lines.py."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "count_lines.py"),
                          str(checkout / "src" / "safe_lsvi")],
                         check=True, capture_output=True, text=True).stdout
    return {name: int(count) for name, count in map(str.split, out.splitlines())}


def code_lines(checkout: Path) -> int:
    """The code lines of the checkout's src/safe_lsvi."""
    return module_lines(checkout)["total"]


def summarize_cell(runs: list) -> dict:
    """A cell's runs in run order, with the median wall time and peak RSS."""
    return {"runs": runs,
            "median_wall_s": statistics.median(r["wall_s"] for r in runs),
            "median_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}


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


def verdict(change: dict, baseline: dict, won: int, metric: dict) -> str:
    """One metric's verdict from each side's summary (values, median, q1,
    q3), the pairs the change won and the metric's entry in BENCHMARK.json:

    * worse: the change's median is worse than the baseline's by more than
      the metric's bound, a fraction of the baseline's median;
    * unresolved: either side's interquartile range is wider than the bound
      times its median, too wide to tell a change of that size, unless
      every run of the change reads better than every run of the baseline;
    * gain: the change won at least GAIN_PAIRS pairs, and its median is
      better by more than the baseline's interquartile range;
    * unchanged otherwise.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    better_by = sign * (change["median"] - baseline["median"])
    bound = metric["bound"]
    if -better_by > bound * abs(baseline["median"]):
        return "worse"
    separated = min(sign * v for v in change["values"]) > \
        max(sign * v for v in baseline["values"])
    if not separated and any(side["q3"] - side["q1"] > bound * abs(side["median"])
                             for side in (change, baseline)):
        return "unresolved"
    if won >= GAIN_PAIRS and better_by > baseline["q3"] - baseline["q1"]:
        return "gain"
    return "unchanged"


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
              "machine": None, "workloads": {}, "cells": {}, "tier1": {}}
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "baseline.tar"
        subprocess.run(["git", "archive", "-o", str(archive), args.baseline],
                       cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "baseline", filter="data")
        sides = {"change": ROOT, "baseline": Path(tmp) / "baseline"}
        lines = {side: module_lines(path) for side, path in sides.items()}
        record["code_lines"] = {side: counts.pop("total") for side, counts in lines.items()}
        record["module_lines"] = lines
        print(f"code lines: {record['code_lines']}", file=sys.stderr)
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
            entry["verdict"] = {m["name"]: verdict(
                entry["change"]["metrics"][m["name"]], entry["baseline"]["metrics"][m["name"]],
                entry["change_wins"][m["name"]], m) for m in metrics}
            print(f"{workload} verdicts: {entry['verdict']}", file=sys.stderr)
            record["workloads"][workload] = entry
        for name, cell_args in CLI_CELLS.items():
            runs = {side: [] for side in sides}
            for i in range(CELL_RUNS):
                for side in sorted(sides, reverse=i % 2 == 1):  # baseline first when even
                    run = run_cell(sides[side], cell_args, Path(tmp) / f"{name}-{side}-{i}")
                    runs[side].append(run)
                    print(f"{name} run {i} {side}: wall_s={run['wall_s']:.2f} "
                          f"peak_rss_mb={run['peak_rss_mb']:.1f}", file=sys.stderr)
            record["cells"][name] = {side: summarize_cell(runs[side]) for side in sides}
        tier1 = {side: [] for side in sides}
        for i in range(CELL_RUNS):
            for side in sorted(sides, reverse=i % 2 == 1):  # baseline first when even
                run = run_tier1(sides[side])
                tier1[side].append(run)
                print(f"tier1 run {i} {side}: wall_s={run['wall_s']:.1f} "
                      f"passed={run['passed']} failed={run['failed']}", file=sys.stderr)
        record["tier1"] = tier1
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
