"""Run a workload: time its set-up and rounds, trace one round, check outputs.

``run_workload`` returns a ``Report``; ``perfbench/run.py`` prints it.  The
program is called only through its public API (``bench.run_experiment`` and
``bench.emit_results``), looked up on the module at call time so that the
tracer's wrappers take effect.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from safe_lsvi import bench, costs, lsvi, oracle

from . import checks
from .tracing import Tracer, span_stats
from .workloads import Workload

# Set-up is repeated for about this long in every run (at least
# MIN_SETUP_REPS times) and the median reported.
SETUP_BUDGET_S = 1.0
MIN_SETUP_REPS = 11

# Per-layer metrics of the traced run: span -> stats reported.  Layers called
# once per cell have too few calls for a tail, so they report the median.
STEP_STATS = ("calls", "busy_s", "self_s", "us_p50", "us_tail")
CELL_STATS = ("calls", "busy_s", "self_s", "us_p50")
LAYERS = {
    "lsvi.gram_update": STEP_STATS,
    "lsvi.ingest_episode": STEP_STATS,
    "lsvi.backward_pass": STEP_STATS,
    "costs.observe": STEP_STATS,
    "costs.lcb_table": STEP_STATS,
    "envs.step": STEP_STATS,
    "penalty.end_episode": STEP_STATS,
    "oracle.policy_eval": STEP_STATS,
    "envs.build": CELL_STATS,
    "oracle.constrained_dp": CELL_STATS,
    "bench.emit_results": CELL_STATS,
    "bench.run_experiment": ("calls", "busy_s", "self_s"),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "us_p50": "us",
         "us_tail": "us"}


@dataclass
class Cell:
    """One cell's config and the ground truth its checks need."""

    config: object
    out_dir: Path
    cmdp: object = None
    fmap: object = None
    v_safe: float = 0.0
    digest: str = ""


@dataclass
class Capture:
    """What the traced round's hooks saw during one cell."""

    horizon: int
    policies: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    z_after: list = field(default_factory=list)
    last_plan: object = None
    lcb: deque = None

    def __post_init__(self):
        self.lcb = deque(maxlen=self.horizon)


@dataclass
class Report:
    workload: str
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    digests: list = field(default_factory=list)  # (seed, sha256) per cell
    notes: list = field(default_factory=list)  # human-readable lines
    layer_table: list = field(default_factory=list)  # (name, stats) per span

    @property
    def correct(self) -> bool:
        return not self.errors


def setup_cell(config):
    """What a cell pays before its first episode: the environment build, the
    exact safe optimum, the learner and the cost model."""
    builder_seed = np.random.SeedSequence(config.seed).spawn(2)[0]
    cmdp, fmap = bench.build_env(config, builder_seed)
    oracle.constrained_dp(cmdp)
    H = cmdp.horizon
    lsvi.LsviLearner(fmap, cmdp.num_states, cmdp.num_actions, H, config.lam,
                     config.beta_override)
    if config.cost_model == "linear":
        costs.LinearCostModel(fmap, H, lam=config.lam, p=config.p,
                              width_scale=config.cost_width_scale)
    else:
        costs.GpCostModel(config.kernel, config.episodes, H,
                          lengthscale=config.lengthscale, p=config.p,
                          width_scale=config.cost_width_scale, feature_map=fmap)
    return cmdp, fmap


def prepare_cell(config, out_dir: Path) -> Cell:
    """Build the cell's ground truth (this also warms up its set-up path)."""
    cell = Cell(config, out_dir)
    cell.cmdp, cell.fmap = setup_cell(config)
    cell.v_safe = float(checks.safe_optimum(cell.cmdp)[0, cell.cmdp.initial_state])
    return cell


def time_setup(cells, budget_s: float) -> float:
    """Median over repetitions of the mean per-cell set-up time of one round;
    repeated for about budget_s seconds, at least MIN_SETUP_REPS times."""
    samples = []
    while len(samples) < MIN_SETUP_REPS or sum(samples) * len(cells) < budget_s:
        gc.collect()
        t0 = time.perf_counter()
        for cell in cells:
            setup_cell(cell.config)
        samples.append((time.perf_counter() - t0) / len(cells))
    return statistics.median(samples)


def run_cell(cell: Cell):
    """Run and emit one cell; returns (metrics, csv bytes, run_s, wall_s)."""
    t0 = time.perf_counter()
    metrics = bench.run_experiment(cell.config)
    t1 = time.perf_counter()
    path = bench.emit_results(metrics, cell.config, cell.out_dir)
    t2 = time.perf_counter()
    return metrics, Path(path).read_bytes(), t1 - t0, t2 - t0


def check_cell(workload: Workload, cell: Cell, metrics, csv: bytes) -> list:
    errors = checks.check_results_csv(csv.decode(), metrics, cell.config.episodes)
    errors += checks.check_no_cancellation(metrics)
    errors += checks.check_optimum(cell.v_safe, metrics)
    if workload.aligned:
        errors += checks.check_regret_nonnegative(metrics)
    if workload.growth_check:
        errors += checks.check_growth(metrics)
    digest = hashlib.sha256(csv).hexdigest()
    if cell.digest and digest != cell.digest:
        errors.append("results.csv differs between rounds of the same cell")
    cell.digest = digest
    return [f"seed {cell.config.seed}: {e}" for e in errors]


def check_capture(cell: Cell, cap: Capture, metrics) -> list:
    cfg, cmdp, fmap = cell.config, cell.cmdp, cell.fmap
    errors = checks.check_policy_regret(cmdp, cell.v_safe, cap.policies, metrics)
    errors += checks.check_trajectories(cmdp, cap.steps, cap.policies, metrics)
    errors += checks.check_penalty_floor(cap.z_after)
    if not errors:  # the batch references rely on well-formed captures
        errors += checks.check_final_weights(cfg, cmdp, fmap, cap.steps,
                                             cap.last_plan)
        errors += checks.check_final_lcb(cfg, cmdp, fmap, cap.steps, list(cap.lcb))
    return [f"seed {cfg.seed} (traced): {e}" for e in errors]


def attach_hooks(tracer: Tracer, slot: list) -> None:
    """Route the traced round's observations into slot[0], the current
    cell's Capture."""
    def plan(args, kwargs, result):
        slot[0].policies.append(result.policy)
        slot[0].last_plan = result

    def step(args, kwargs, result):
        _, state, action, h = args[:4]
        reward, cost, nxt = result
        slot[0].steps.append((h, state, action, reward, cost, nxt))

    def end_episode(args, kwargs, result):
        ledger, _, k = args[:3]
        slot[0].z_after.append((k, ledger.z.copy()))

    def lcb(args, kwargs, result):
        slot[0].lcb.append((args[1], result))

    tracer.on_return("lsvi.backward_pass", plan)
    tracer.on_return("envs.step", step)
    tracer.on_return("penalty.end_episode", end_episode)
    tracer.on_return("costs.lcb_table", lcb)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out_root: Path, tiny: bool = False) -> Report:
    report = Report(workload.name)
    cells = [prepare_cell(cfg, out_root / workload.name / f"cell{i}")
             for i, cfg in enumerate(workload.cells(seed, tiny))]
    setup_s = time_setup(cells, SETUP_BUDGET_S)

    def one_round(tracer=None, slot=None):
        walls, runs, outputs = [], [], []
        gc.collect()
        for cell in cells:
            if slot is not None:
                slot[0] = Capture(cell.config.horizon)
            report.attempted += 1
            try:
                metrics, csv, run_s, wall_s = run_cell(cell)
            except Exception as exc:  # a failed cell is counted, not fatal
                report.failed += 1
                report.notes.append(f"cell seed {cell.config.seed} failed: {exc!r}")
                continue
            if tracer is not None:
                tracer.count("bench.emit_results.bytes",
                             sum(p.stat().st_size for p in cell.out_dir.iterdir()))
            walls.append(wall_s)
            runs.append(run_s)
            outputs.append((cell, metrics, csv, slot[0] if slot else None))
        return walls, runs, outputs

    def check_outputs(outputs):
        for cell, metrics, csv, cap in outputs:
            report.errors += check_cell(workload, cell, metrics, csv)
            if cap is not None:
                report.errors += check_capture(cell, cap, metrics)

    # Untraced rounds: the end-to-end numbers, or the trace overhead's base.
    # Every cell run is one sample, so that a burst of load on a shared
    # machine spoils one sample, not a whole round.
    cell_walls = [[] for _ in cells]
    cell_loops = [[] for _ in cells]
    rounds = 0
    start = time.perf_counter()
    while True:
        walls, runs, outputs = one_round()
        check_outputs(outputs)
        if len(walls) == len(cells):
            rounds += 1
            for i, (wall_s, run_s) in enumerate(zip(walls, runs)):
                cell_walls[i].append(wall_s)
                cell_loops[i].append(run_s - setup_s)
        elapsed = time.perf_counter() - start
        if not trace and elapsed >= seconds:
            break
        if trace and (not rounds or elapsed + 1.3 * elapsed / rounds >= seconds):
            break

    report.digests = [(c.config.seed, c.digest) for c in cells]
    if not rounds:
        report.errors.append("no round completed")
        return report
    report.notes.append(f"rounds: {rounds} untraced of {len(cells)} cell(s), "
                        f"{sum(c.config.episodes for c in cells)} episodes each; "
                        f"cell walls (s): " + " ".join(
                            f"{w:.3f}" for ws in cell_walls for w in ws))
    if not trace:
        # Per-episode medians pooled over all cell samples: the battery's five
        # cells are the same size, so each sample measures the same work.
        episodes = [cell.config.episodes for cell in cells]
        wall_per_ep = [w / k for k, ws in zip(episodes, cell_walls) for w in ws]
        rates = [k / loop for k, loops in zip(episodes, cell_loops) for loop in loops]
        report.metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(episodes) * statistics.median(wall_per_ep), "s"),
            "episodes_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        return report

    # One traced round gives the per-layer numbers; with a fixed number of
    # traced rounds the call counts repeat exactly from run to run.
    tracer, slot = Tracer(), [None]
    attach_hooks(tracer, slot)
    with tracer:
        walls, runs, outputs = one_round(tracer, slot)
    check_outputs(outputs)
    if len(walls) != len(cells):
        report.errors.append("the traced round did not complete")
        return report
    base = sum(statistics.median(loops) for loops in cell_loops)
    traced = sum(runs) - len(cells) * setup_s
    report.metrics = layer_metrics(tracer, sum(walls), traced, base)
    report.layer_table = sorted(((name, span_stats(span))
                                 for name, span in tracer.spans.items() if span.calls),
                                key=lambda item: -item[1]["self_s"])
    report.notes.append(f"traced wall {sum(walls):.4f} s; tracing overhead "
                        f"{traced - base:+.4f} s on an untraced loop of {base:.4f} s")
    return report


def layer_metrics(tracer: Tracer, traced_wall: float, traced_loop: float,
                  base_loop: float) -> dict:
    out = {}
    for name, stats in LAYERS.items():
        span_dict = span_stats(tracer.spans.get(name))
        for stat in stats:
            out[f"{name}.{stat}"] = (span_dict[stat], UNITS[stat])
    for name, unit in (("bench.emit_results.bytes", "B"),
                       ("costs.kernel.calls", "count"),
                       ("costs.kernel.entries", "count")):
        out[name] = (tracer.counters.get(name, 0), unit)
    out["trace.overhead_ratio"] = ((traced_loop - base_loop) / base_loop, "ratio")
    out["trace.overhead_base_s"] = (base_loop, "s")
    self_total = sum(span.self_s for span in tracer.spans.values())
    out["trace.accounted"] = (self_total / traced_wall, "ratio")
    return out
