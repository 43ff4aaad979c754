"""Fast tests of the benchmark: every workload passes its checks at a tiny
size, and every check rejects a deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks
from perfbench.harness import (LAYERS, Capture, attach_hooks, check_capture,
                               check_cell, prepare_cell, run_cell, run_workload)
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS
from safe_lsvi import bench, envs, oracle

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_every_check(name, trace, tmp_path):
    report = run_workload(WORKLOADS[name], seed=1, seconds=0.0, trace=trace,
                          out_root=tmp_path, tiny=True)
    assert report.errors == []
    assert report.failed == 0 and report.attempted >= 1
    if trace:
        for layer, stats in LAYERS.items():
            for stat in stats:
                assert f"{layer}.{stat}" in report.metrics
        assert report.metrics["lsvi.gram_update.calls"][0] > 0
        assert 0.99 < report.metrics["trace.accounted"][0] <= 1.0 + 1e-9
    else:
        assert set(report.metrics) == {"setup_s", "wall_s", "episodes_per_s",
                                       "peak_rss_mb"}
        assert all(value > 0 for value, _ in report.metrics.values())


def test_call_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        report = run_workload(WORKLOADS["lake_gp"], seed=3, seconds=0.0,
                              trace=True, out_root=tmp_path, tiny=True)
        counts.append({k: v for k, (v, _) in report.metrics.items()
                       if k.startswith("costs.kernel.") or k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["costs.kernel.entries"] > counts[0]["costs.kernel.calls"] > 0


def test_tracer_restores_the_program():
    originals = (bench.step, bench.policy_eval, bench.constrained_dp,
                 oracle.policy_eval, envs.step)
    with Tracer() as tracer:
        assert bench.step is not originals[0]
        assert bench.constrained_dp is not originals[2]
        assert tracer.spans
    assert (bench.step, bench.policy_eval, bench.constrained_dp,
            oracle.policy_eval, envs.step) == originals


def test_self_times_partition_the_outer_span():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap("outer", lambda: [inner_t() for _ in range(3)])
    outer_t()
    total_self = sum(span.self_s for span in tracer.spans.values())
    assert tracer.spans["inner"].calls == 3
    assert total_self == pytest.approx(tracer.spans["outer"].busy_s, rel=1e-9)


# ---------------------------------------------------------------------------
# Each check rejects a corrupted output
# ---------------------------------------------------------------------------

def _traced(config, out_dir):
    cell = prepare_cell(config, out_dir)
    tracer, slot = Tracer(), [Capture(config.horizon)]
    attach_hooks(tracer, slot)
    with tracer:
        metrics, csv, _, _ = run_cell(cell)
    return cell, metrics, csv, slot[0]


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    config = WORKLOADS["lake_linear"].cells(0, True)[0]
    return _traced(config, tmp_path_factory.mktemp("lake"))


@pytest.fixture(scope="module")
def lake_gp(tmp_path_factory):
    config = WORKLOADS["lake_gp"].cells(0, True)[0]
    return _traced(config, tmp_path_factory.mktemp("gp"))


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    config = WORKLOADS["synth_battery"].cells(0, True)[0]
    return _traced(config, tmp_path_factory.mktemp("synth"))


def _with(metrics, **changes):
    return dataclasses.replace(metrics, **changes)


def test_untouched_outputs_pass(lake, lake_gp, synth):
    for cell, metrics, csv, cap in (lake, lake_gp, synth):
        workload = WORKLOADS["synth_battery"] if cell.config.env == \
            "synthetic_linear" else WORKLOADS["lake_linear"]
        assert check_cell(workload, cell, metrics, csv) == []
        assert check_capture(cell, cap, metrics) == []


def test_csv_check_rejects_a_perturbed_cumulative_column(lake):
    cell, metrics, csv, _ = lake
    lines = csv.decode().splitlines()
    fields = lines[2].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    lines[2] = ",".join(fields)
    assert checks.check_results_csv("\n".join(lines), metrics, 3)


def test_csv_check_rejects_missing_or_renumbered_rows(lake):
    _, metrics, csv, _ = lake
    lines = csv.decode().splitlines()
    assert checks.check_results_csv("\n".join(lines[:-1]), metrics, 3)
    renumbered = lines[:1] + [ln.replace("1,", "0,", 1) if i == 0 else ln
                              for i, ln in enumerate(lines[1:])]
    assert checks.check_results_csv("\n".join(renumbered), metrics, 3)


def test_csv_check_rejects_a_series_that_differs_from_the_metrics(lake):
    _, metrics, csv, _ = lake
    rewards = metrics.rewards.copy()
    rewards[0] += 1.0
    assert checks.check_results_csv(csv.decode(), _with(metrics, rewards=rewards), 3)


def test_no_cancellation_check_rejects_cancelled_violations(lake):
    _, metrics, _, _ = lake
    signed = metrics.violations + 0.5
    assert checks.check_no_cancellation(_with(metrics, signed_costs=signed))


def test_optimum_check_rejects_a_wrong_optimum(lake):
    cell, metrics, _, _ = lake
    assert checks.check_optimum(cell.v_safe, metrics) == []
    assert checks.check_optimum(cell.v_safe + 1e-6, metrics)


def test_regret_sign_check_rejects_a_negative_increment(synth):
    _, metrics, _, _ = synth
    inc = metrics.regret_inc.copy()
    inc[5] = -1e-6
    assert checks.check_regret_nonnegative(_with(metrics, regret_inc=inc))


def test_growth_check_rejects_linear_growth(synth):
    _, metrics, _, _ = synth
    linear = np.arange(1.0, len(metrics.cum_regret) + 1.0)
    assert checks.growth_exponent(linear) == pytest.approx(1.0)
    assert checks.check_growth(_with(metrics, cum_regret=linear))
    assert checks.check_growth(_with(metrics, cum_violation=linear))


def test_policy_regret_check_rejects_a_wrong_increment(lake):
    cell, metrics, _, cap = lake
    inc = metrics.regret_inc.copy()
    inc[1] += 1e-6
    assert checks.check_policy_regret(cell.cmdp, cell.v_safe, cap.policies,
                                      _with(metrics, regret_inc=inc))


def test_trajectory_check_rejects_a_wrong_violation_or_action(lake):
    cell, metrics, _, cap = lake
    violations = metrics.violations.copy()
    violations[0] += 1.0
    assert checks.check_trajectories(cell.cmdp, cap.steps, cap.policies,
                                     _with(metrics, violations=violations))
    steps = list(cap.steps)
    h, s, a, r, c, nxt = steps[4]
    steps[4] = (h, s, (a + 1) % cell.cmdp.num_actions, r, c, nxt)
    assert checks.check_trajectories(cell.cmdp, steps, cap.policies, metrics)


def test_penalty_floor_check_rejects_a_low_factor(lake):
    _, _, _, cap = lake
    assert checks.check_penalty_floor(cap.z_after) == []
    k, z = cap.z_after[-1]
    assert checks.check_penalty_floor([(k, z - 1.0)])


def test_weight_check_rejects_perturbed_weights(lake):
    cell, _, _, cap = lake
    plan = cap.last_plan
    bad = dataclasses.replace(plan, weights=plan.weights + 1e-6)
    assert checks.check_final_weights(cell.config, cell.cmdp, cell.fmap,
                                      cap.steps, bad)


@pytest.mark.parametrize("which", ["lake", "lake_gp"])
def test_lcb_check_rejects_a_perturbed_table(which, request):
    cell, _, _, cap = request.getfixturevalue(which)
    tables = [(h, t + (1e-6 if h == 1 else 0.0)) for h, t in cap.lcb]
    assert checks.check_final_lcb(cell.config, cell.cmdp, cell.fmap, cap.steps,
                                  tables)


def test_round_digest_check_rejects_changed_bytes(lake):
    cell, metrics, csv, _ = lake
    cell = dataclasses.replace(cell, digest="0" * 64)
    assert check_cell(WORKLOADS["lake_linear"], cell, metrics, csv)


# ---------------------------------------------------------------------------
# The command line
# ---------------------------------------------------------------------------

def test_command_prints_a_json_result_last(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hard_wide", "--seed",
         "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert "OPENBLAS_NUM_THREADS" in out.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hard_wide", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
