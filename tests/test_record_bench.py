"""tools/record_bench.py: the per-side summary, the pair counts and the
verdicts it records, on synthetic run records (no benchmark run), one tiny
CLI cell run through run_cell, one Tier-1 run of a two-test selection and
the code-line count of a checkout."""

import hashlib
import importlib.util
import statistics
from pathlib import Path

import pytest


def _load_record_bench():
    path = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
    spec = importlib.util.spec_from_file_location("record_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record_bench = _load_record_bench()
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "episodes_per_s", "unit": "1/s", "better": "higher"}]


def _run(seed, wall, rate, correct=True, attempted=4, failed=0):
    """One run record as record_bench.run_once returns it, without the
    machine line."""
    return {"seed": seed, "digests": [f"digest-{seed}"], "correct": correct,
            "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall}, "episodes_per_s": {"value": rate}}}


def test_summarize_takes_quartiles_and_sums_the_counts():
    walls = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    rates = [120.0, 80.5, 99.0, 101.0, 64.0, 140.0, 77.0, 90.0, 88.0, 115.0]
    runs = [_run(i + 1, wall, rate, correct=i != 6, attempted=i + 2, failed=i % 3)
            for i, (wall, rate) in enumerate(zip(walls, rates))]
    out = record_bench.summarize(runs, METRICS)
    assert out["attempted"] == sum(i + 2 for i in range(10))
    assert out["failed"] == sum(i % 3 for i in range(10))
    assert out["correct"] is False  # run 7 failed a check
    assert record_bench.summarize(runs[:6], METRICS)["correct"] is True
    assert out["digests"] == {str(i + 1): [f"digest-{i + 1}"] for i in range(10)}
    for metric, values in zip(METRICS, (walls, rates)):
        entry = out["metrics"][metric["name"]]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert (entry["q1"], entry["median"], entry["q3"]) == (q1, median, q3)
        assert entry["median"] == statistics.median(values)
        assert entry["values"] == values
        assert (entry["unit"], entry["better"]) == (metric["unit"], metric["better"])


def test_wins_counts_strict_improvements_in_the_metric_direction():
    baseline = [_run(i, wall, rate) for i, (wall, rate)
                in enumerate([(2.0, 50.0), (2.0, 50.0), (2.0, 50.0), (2.0, 50.0)])]
    # Pair by pair: better, worse, equal, better on wall_s (lower wins);
    # worse, equal, better, better on episodes_per_s (higher wins).
    change = [_run(i, wall, rate) for i, (wall, rate)
              in enumerate([(1.5, 49.0), (2.5, 50.0), (2.0, 51.0), (1.9, 60.0)])]
    wall, rate = METRICS
    assert record_bench.wins(change, baseline, wall) == 2
    assert record_bench.wins(baseline, change, wall) == 1
    assert record_bench.wins(change, baseline, rate) == 2
    assert record_bench.wins(baseline, change, rate) == 1
    # A tie counts for neither side.
    assert record_bench.wins(baseline, baseline, wall) == 0
    assert record_bench.wins(baseline, baseline, rate) == 0


def test_run_cell_records_a_cli_run_of_the_checkout(tmp_path):
    # A K=3 frozen-lake cell of this checkout: the digest is that of the
    # results.csv it wrote, and the peak RSS is the child's own, at least
    # what its numpy import takes.
    args = ["--env", "frozen_lake", "--episodes", "3", "--seed", "0"]
    run = record_bench.run_cell(record_bench.ROOT, args, tmp_path / "cell")
    assert set(run) == {"wall_s", "peak_rss_mb", "digest"}
    assert run["digest"] == hashlib.sha256(
        (tmp_path / "cell" / "results.csv").read_bytes()).hexdigest()
    assert run["wall_s"] > 0.0
    assert 10.0 < run["peak_rss_mb"] < 1000.0
    summary = record_bench.summarize_cell([run, {**run, "wall_s": run["wall_s"] + 2.0},
                                           {**run, "wall_s": run["wall_s"] + 1.0}])
    assert summary["median_wall_s"] == run["wall_s"] + 1.0
    assert summary["median_peak_rss_mb"] == run["peak_rss_mb"]


def test_run_cell_reports_a_failed_run(tmp_path):
    with pytest.raises(RuntimeError, match="exited 2: error: --episodes"):
        record_bench.run_cell(record_bench.ROOT, ["--episodes", "1.5"], tmp_path / "cell")


def test_run_tier1_counts_the_passed_and_failed_tests(tmp_path):
    # A checkout whose tests are one passing and one failing test.
    (tmp_path / "test_two.py").write_text(
        "def test_passes():\n    assert True\n\n\n"
        "def test_fails():\n    assert False\n")
    run = record_bench.run_tier1(tmp_path, ("test_two.py", "-p", "no:cacheprovider"))
    assert (run["passed"], run["failed"]) == (1, 1)
    assert run["wall_s"] > 0.0


def test_code_lines_counts_a_checkout_with_this_tree_s_tool(tmp_path):
    # The checkout has no tools/ of its own: the working tree's counter
    # counts its package, three code lines in a.py and two in b.py.
    package = tmp_path / "src" / "safe_lsvi"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nx = 1  # one\n\n\ndef f():\n    return x\n')
    (package / "b.py").write_text("y = (1,\n     2)\n")
    assert record_bench.code_lines(tmp_path) == 5


def test_module_lines_counts_each_module_of_a_checkout(tmp_path):
    # The same two-module checkout, read per module beside the total.
    package = tmp_path / "src" / "safe_lsvi"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nx = 1  # one\n\n\ndef f():\n    return x\n')
    (package / "b.py").write_text("y = (1,\n     2)\n")
    assert record_bench.module_lines(tmp_path) == {"a.py": 3, "b.py": 2, "total": 5}



BOUNDED = [{**m, "bound": 0.25} for m in METRICS]
BASE_RATES = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def _verdict(change_values, baseline_values, metric):
    """The verdict on metric of synthetic runs with these values; the other
    metric is 1.0 on every run."""
    def runs(values):
        if metric["name"] == "wall_s":
            return [_run(i + 1, v, 1.0) for i, v in enumerate(values)]
        return [_run(i + 1, 1.0, v) for i, v in enumerate(values)]
    change, baseline = runs(change_values), runs(baseline_values)
    summary = {side: record_bench.summarize(r, BOUNDED)["metrics"][metric["name"]]
               for side, r in (("change", change), ("baseline", baseline))}
    return record_bench.verdict(summary["change"], summary["baseline"],
                                record_bench.wins(change, baseline, metric), metric)


def test_verdict_calls_a_gain_on_nine_pairs_and_a_median_beyond_the_iqr():
    wall, rate = BOUNDED
    q1, _, q3 = statistics.quantiles(BASE_RATES, n=4)
    assert q3 - q1 < 5.0
    assert _verdict([v + 5.0 for v in BASE_RATES], BASE_RATES, rate) == "gain"
    # Nine pairs won (the tenth lost) is still a gain; eight is not.
    nine = [v + 5.0 for v in BASE_RATES[:9]] + [BASE_RATES[9] - 1.0]
    assert _verdict(nine, BASE_RATES, rate) == "gain"
    eight = [v + 5.0 for v in BASE_RATES[:8]] + [v - 1.0 for v in BASE_RATES[8:]]
    assert _verdict(eight, BASE_RATES, rate) == "unchanged"
    # Every pair won, by less than the baseline's interquartile range.
    assert _verdict([v + 0.5 for v in BASE_RATES], BASE_RATES, rate) == "unchanged"
    # Lower is better for a time: the same runs, read as wall times.
    walls = [v / 100.0 for v in BASE_RATES]
    assert _verdict([v - 0.05 for v in walls], walls, wall) == "gain"
    assert _verdict([v + 0.05 for v in walls], walls, wall) == "unchanged"


def test_verdict_calls_worse_beyond_the_bound_and_unresolved_beyond_the_spread():
    wall, rate = BOUNDED
    # 30 % fewer episodes per second, and 30 % more wall time, against a
    # bound of 25 %; 20 % is within it.
    assert _verdict([v * 0.7 for v in BASE_RATES], BASE_RATES, rate) == "worse"
    assert _verdict([v * 0.8 for v in BASE_RATES], BASE_RATES, rate) == "unchanged"
    walls = [v / 100.0 for v in BASE_RATES]
    assert _verdict([v * 1.3 for v in walls], walls, wall) == "worse"
    # A spread wider than the bound on either side cannot be told apart,
    # even when every pair is won, unless every run of the change is better
    # than every run of the baseline.
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 65.0, 135.0]
    assert _verdict([v + 50.0 for v in wide], wide, rate) == "unresolved"
    assert _verdict(wide, BASE_RATES, rate) == "unresolved"
    assert _verdict(BASE_RATES, wide, rate) == "unresolved"
    assert _verdict([v + 81.0 for v in wide], wide, rate) == "gain"
    assert _verdict([v + 200.0 for v in BASE_RATES], BASE_RATES, rate) == "gain"
