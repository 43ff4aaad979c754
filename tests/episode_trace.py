"""Per-episode data of a run, read from outside it, shared by the tests.

The run itself keeps no trace.  traced_run installs the benchmark's tracer
(perfbench.tracing.Tracer) and reads each episode through the same return
hooks the benchmark's own checks use: the plan from lsvi.backward_pass, the
actions from envs.step and the penalty factors from penalty.end_episode.
"""

import sys
from pathlib import Path

# The benchmark package lives at the root of the repository.
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.tracing import Tracer  # noqa: E402

from safe_lsvi import bench  # noqa: E402


def traced_run(config, env_override=None):
    """bench.run_experiment(config, env_override) and its trace: one dict per
    episode with the backward pass's weights (H, d), the actions taken (a
    list of H ints) and the ledger's z (H,) after the episode."""
    trace = []

    def plan(args, kwargs, result):
        trace.append({"weights": result.weights, "actions": []})

    def step(args, kwargs, result):
        trace[-1]["actions"].append(args[2])  # step(cmdp, state, action, ...)

    def end_episode(args, kwargs, result):
        trace[-1]["z"] = args[0].z.copy()  # the ledger, after its update

    with Tracer() as tracer:
        tracer.on_return("lsvi.backward_pass", plan)
        tracer.on_return("envs.step", step)
        tracer.on_return("penalty.end_episode", end_episode)
        metrics = bench.run_experiment(config, env_override=env_override)
    return metrics, trace
