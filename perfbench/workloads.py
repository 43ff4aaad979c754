"""The benchmark's workloads: which cells each one runs, and at what size.

A workload is a closed loop: one client runs its cells one after another in
one process, and one pass over the cells is a round.  Every cell is an
``ExperimentConfig`` derived from the command-line seed, so the same seed gives
the same inputs.  ``tiny=True`` shrinks each workload for the fast tests.
Every cell runs ``lsvi_ae`` (the rectified penalty) with ``beta_override``
set; the harness's set-up timing and its checks rely on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from safe_lsvi.bench import ExperimentConfig

# Bonus scales of the acceptance suite: criterion 1 for the lake, criteria
# 2-3 for the synthetic task (see the project README, "Bonus scales").
LAKE = dict(beta_override=1.0, cost_width_scale=0.02)
SYNTH = dict(beta_override=5.0, cost_width_scale=0.1)
HARD = dict(beta_override=1.0, cost_width_scale=0.1)

BATTERY_SEEDS = 5  # the five seeds of acceptance criteria 2-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: Callable[[int, bool], list]  # (seed, tiny) -> [ExperimentConfig]
    # The safe optimum equals the unconstrained one, so every regret
    # increment is >= 0 up to roundoff.
    aligned: bool
    # Fit growth exponents of the cumulative series (criteria 2-3).
    growth_check: bool = False


def _lake_linear(seed: int, tiny: bool) -> list:
    return [ExperimentConfig(env="frozen_lake", agent="lsvi_ae",
                             episodes=3 if tiny else 60, horizon=15, seed=seed,
                             **LAKE)]


def _lake_gp(seed: int, tiny: bool) -> list:
    return [ExperimentConfig(env="frozen_lake", agent="lsvi_ae",
                             episodes=3 if tiny else 25, horizon=15, seed=seed,
                             cost_model="gp", kernel="sqexp", lengthscale=1.0,
                             **LAKE)]


def _synth_battery(seed: int, tiny: bool) -> list:
    # Seed n runs cells 5n .. 5n+4, so seed 0 is the acceptance battery.
    return [ExperimentConfig(env="synthetic_linear", agent="lsvi_ae",
                             episodes=200 if tiny else 2000, horizon=5, dim=8,
                             seed=BATTERY_SEEDS * seed + i, **SYNTH)
            for i in range(BATTERY_SEEDS)]


def _hard_wide(seed: int, tiny: bool) -> list:
    # d=13 gives 2^12 = 4096 sign-vector actions; 216 is the smallest K that
    # build_hard_instance accepts at d=13, H=3 ((d-1)^2 H / 2).
    if tiny:
        return [ExperimentConfig(env="hard_instance", agent="lsvi_ae",
                                 episodes=14, horizon=3, dim=4, seed=seed, **HARD)]
    return [ExperimentConfig(env="hard_instance", agent="lsvi_ae", episodes=216,
                             horizon=3, dim=13, seed=seed, **HARD)]


# BENCHMARK.json lists lake_linear, lake_gp and hard_wide.  synth_battery is
# run by name only: it is almost all per-call interpreter overhead, and on a
# shared 2-core machine its run-to-run spread over ten seeds (IQR 14-23% of
# the median) is too wide for the largest bound a gated metric may have.
WORKLOADS = {w.name: w for w in (
    Workload("lake_linear",
             "10x10 lake, one-hot d=400, linear costs: dense 400x400 Gram "
             "updates dominate, so work on the Gram statistics shows here",
             _lake_linear, aligned=False),
    Workload("lake_gp",
             "same lake with the sqexp GP cost model: kernel and Cholesky work "
             "per LCB query dominate and grow with K",
             _lake_gp, aligned=False),
    Workload("synth_battery",
             "synthetic CMDP d=8 H=5 K=2000 over five seeds: tiny algebra, so "
             "per-call Python overhead dominates",
             _synth_battery, aligned=True, growth_check=True),
    Workload("hard_wide",
             "hard instance d=13, 4096 actions, K=216: dense non-one-hot "
             "features, vectorised sweeps over ~20k rows dominate",
             _hard_wide, aligned=True),
)}
