"""Experiment orchestration: run agents over K episodes, score them exactly.

Per episode the runner (1) rebuilds the optimistic Q-model via the backward
pass, (2) rolls the induced deterministic policy through the environment,
feeding observed costs to the cost estimator step by step, (3) applies the
episode's costs to the penalty ledger, and (4) scores the episode: the
regret increment is the exact evaluated gap to the optimal safe policy (no
Monte Carlo), the violation increment sums positive parts of the *true*
mean costs along the realized trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .costs import KERNELS, GpCostModel, LinearCostModel
from .envs import (DEFAULT_LAKE_MAP, StepRecord, build_hard_instance,
                   build_synthetic_linear, frozen_lake_from_grid, step)
from .lsvi import LsviLearner, beta_schedule
from .oracle import constrained_dp, policy_eval
from .penalty import PenaltyLedger

ENVS = ("frozen_lake", "synthetic_linear", "hard_instance")
AGENTS = ("lsvi_ae", "lsvi", "lsvi_primal")
AGENT_MODES = {"lsvi_ae": "rectified", "lsvi": "off", "lsvi_primal": "virtual_queue"}
COST_MODELS = ("linear", "gp")


@dataclass
class ExperimentConfig:
    env: str = "frozen_lake"
    agent: str = "lsvi_ae"
    episodes: int = 1000
    horizon: int = 15
    p: float = 0.1
    lam: float = 1.0
    c_beta: float = 1.0
    beta_override: Optional[float] = None
    cost_model: str = "linear"
    kernel: str = "linear"
    lengthscale: float = 1.0
    cost_width_scale: float = 1.0
    dim: int = 8
    map_text: Optional[str] = None
    seed: int = 0
    out: Optional[str] = None

    def validate(self) -> None:
        if self.env not in ENVS:
            raise ValueError(f"env must be one of {ENVS}")
        if self.agent not in AGENTS:
            raise ValueError(f"agent must be one of {AGENTS}")
        if self.cost_model not in COST_MODELS:
            raise ValueError(f"cost_model must be one of {COST_MODELS}")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        if self.episodes < 1 or self.horizon < 1:
            raise ValueError("episodes and horizon must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.out is not None and not self.out.strip():
            raise ValueError("out must name a directory")
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")
        # Each check fails on NaN and on +-inf as well.
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if not 0 <= self.c_beta < math.inf:
            raise ValueError("c_beta must be >= 0 and finite")
        if self.beta_override is not None and not 0 <= self.beta_override < math.inf:
            raise ValueError("beta_override must be >= 0 and finite")
        if not 0 <= self.cost_width_scale < math.inf:
            raise ValueError("cost_width_scale must be >= 0 and finite")
        if not 0 < self.lengthscale < math.inf:
            raise ValueError("lengthscale must be positive and finite")
        # Settings the chosen models never read are rejected, not ignored.
        if self.cost_model == "linear" and self.kernel != "linear":
            raise ValueError("kernel is only read by cost_model=gp")
        if self.lengthscale != 1.0 and (self.cost_model, self.kernel) != ("gp", "sqexp"):
            raise ValueError("lengthscale is only read by cost_model=gp with kernel=sqexp")
        if self.map_text is not None and self.env != "frozen_lake":
            raise ValueError("map_text (--map) is only read by env=frozen_lake")
        if self.env == "frozen_lake" and self.dim != 8:
            raise ValueError("dim is only read by env=synthetic_linear and "
                             "env=hard_instance (frozen_lake's features are "
                             "one-hot over its grid)")
        if self.agent == "lsvi" and self.cost_model != "linear":
            raise ValueError("cost_model is not read by agent=lsvi: its "
                             "penalty is off, so no cost model is built")
        if self.beta_override is not None and self.c_beta != 1.0:
            raise ValueError("c_beta scales the schedule that beta_override replaces")
        if self.beta_override is not None and self.agent == "lsvi" and self.p != 0.1:
            raise ValueError("p is not read by agent=lsvi with beta_override")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "map_text":
                value = value.strip().replace("\n", ";")
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        kwargs = {}
        casts = {f.name: f for f in fields(cls)}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r} (want key=value)")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in casts:
                raise ValueError(f"unknown config key {key!r}")
            if key in kwargs:
                raise ValueError(f"config key {key!r} given twice")
            try:
                if key == "map_text":
                    kwargs[key] = value.replace(";", "\n")
                elif key in ("episodes", "horizon", "dim", "seed"):
                    kwargs[key] = int(value)
                elif key in ("p", "lam", "c_beta", "beta_override",
                             "lengthscale", "cost_width_scale"):
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = value
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        return cls(**kwargs)


@dataclass
class Metrics:
    """Per-episode series plus a run summary.

    rewards are reported in the environment's display scale; violations use
    ground-truth mean costs (positive parts, no cancellation); regret is
    measured against the exact optimal safe value.  signed_costs tracks the
    raw cost sum per episode so the no-cancellation gap is observable.
    """

    rewards: np.ndarray
    violations: np.ndarray
    regret_inc: np.ndarray
    cum_regret: np.ndarray
    cum_violation: np.ndarray
    signed_costs: np.ndarray
    summary: dict
    trace: Optional[list] = None


def build_env(config: ExperimentConfig, builder_seed):
    if config.env == "frozen_lake":
        text = DEFAULT_LAKE_MAP if config.map_text is None else config.map_text
        cmdp, fmap = frozen_lake_from_grid(text, config.horizon)
    elif config.env == "synthetic_linear":
        cmdp, fmap, _ = build_synthetic_linear(config.dim, config.horizon,
                                               builder_seed)
    else:
        cmdp, fmap, _ = build_hard_instance(config.dim, config.horizon,
                                            config.episodes)
    return cmdp, fmap


def _make_cost_model(config: ExperimentConfig, fmap, stats):
    if config.cost_model == "linear":
        return LinearCostModel(fmap, config.horizon, lam=config.lam, p=config.p,
                               width_scale=config.cost_width_scale, stats=stats)
    return GpCostModel(config.kernel, config.episodes, config.horizon,
                       lengthscale=config.lengthscale, p=config.p,
                       width_scale=config.cost_width_scale, feature_map=fmap)


def run_experiment(config: ExperimentConfig, env_override=None,
                   record_trace: bool = False) -> Metrics:
    """Run one (config, seed) cell and return its metrics.

    The root seed is split into independent streams (builders, rollouts) so
    environment generation never depends on how the agent consumes
    randomness.  env_override=(cmdp, feature_map) bypasses the builders; its
    horizon must be config.horizon and its feature table must cover the
    CMDP's (state, action) pairs.
    """
    config.validate()
    root = np.random.SeedSequence(config.seed)
    builder_seed, rollout_seed = root.spawn(2)
    rng = np.random.default_rng(rollout_seed)

    if env_override is not None:
        cmdp, fmap = env_override
        if cmdp.horizon != config.horizon:
            raise ValueError(f"env_override has horizon {cmdp.horizon} but "
                             f"config.horizon is {config.horizon}")
    else:
        cmdp, fmap = build_env(config, builder_seed)
    H, K = cmdp.horizon, config.episodes
    feats = fmap.flat

    _, star = constrained_dp(cmdp)
    v_star = star.v[0, cmdp.initial_state]

    beta = config.beta_override if config.beta_override is not None else \
        beta_schedule(config.c_beta, fmap.dim, H, K, config.p)
    learner = LsviLearner(fmap, cmdp.num_states, cmdp.num_actions, H,
                          config.lam, beta)
    ledger = PenaltyLedger(H, AGENT_MODES[config.agent])
    # With the penalty off the estimated costs are never consumed, so the
    # run skips fitting them.  A linear cost model shares the learner's
    # design statistics.
    cost_model = None if ledger.mode == "off" else \
        _make_cost_model(config, fmap, learner.stats)

    rewards = np.zeros(K)
    violations = np.zeros(K)
    regret_inc = np.zeros(K)
    signed = np.zeros(K)
    trace = [] if record_trace else None

    for k in range(1, K + 1):
        if cost_model is None:
            ghat = None
        else:
            ghat = np.stack([cost_model.lcb_table(h) for h in range(H)])
            if not np.isfinite(ghat).all():
                raise FloatingPointError(f"non-finite cost estimate at episode {k}")
        plan = learner.backward_pass(ghat=ghat, z=ledger.z)

        state = cmdp.initial_state
        episode: list[StepRecord] = []
        ep_reward = ep_violation = ep_signed = 0.0
        for h in range(H):
            action = int(plan.policy[h, state])
            r, cost_obs, nxt = step(cmdp, state, action, h, rng)
            if cost_model is not None:
                cost_model.observe(h, feats[state * cmdp.num_actions + action],
                                   cost_obs)
            episode.append(StepRecord(state, action, r, cost_obs, nxt))
            true_cost = cmdp.cost_mean[h, state, action]
            ep_reward += r
            ep_violation += max(true_cost, 0.0)
            ep_signed += true_cost
            state = nxt

        learner.ingest_episode(episode)
        ledger.end_episode([rec.cost for rec in episode], k)

        rewards[k - 1] = ep_reward * cmdp.reward_scale
        violations[k - 1] = ep_violation
        signed[k - 1] = ep_signed
        regret_inc[k - 1] = v_star - policy_eval(cmdp, plan.policy).v[0, cmdp.initial_state]

        if record_trace:
            trace.append({
                "weights": plan.weights.copy(),
                "z": ledger.z.copy(),
                "actions": [rec.action for rec in episode],
            })

    # np.cumsum adds left to right, so the sums are those of a running loop.
    cum_regret = np.cumsum(regret_inc)
    cum_violation = np.cumsum(violations)
    summary = {
        "total_reward": float(rewards.sum()),
        "total_violation": float(cum_violation[-1]),
        "total_regret": float(cum_regret[-1]),
        "optimal_safe_value": float(v_star),
    }
    return Metrics(rewards=rewards, violations=violations, regret_inc=regret_inc,
                   cum_regret=cum_regret, cum_violation=cum_violation,
                   signed_costs=signed, summary=summary, trace=trace)


def fit_growth_exponent(series) -> float:
    """Slope of log(series[k]) vs log(k) over the second half of the series.

    A cumulative series growing like k^a yields a; an all-zero series (or a
    tail without positive entries) returns 0.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    if n < 100:
        raise ValueError("series must have length >= 100")
    if series.max() <= 0.0:
        return 0.0
    idx = np.arange(n // 2, n)
    vals = series[idx]
    keep = vals > 0.0
    if keep.sum() < 2:
        return 0.0
    slope, _ = np.polyfit(np.log(idx[keep] + 1.0), np.log(vals[keep]), 1)
    return float(slope)


def emit_results(metrics: Metrics, config: ExperimentConfig, out_dir) -> Path:
    """Write results.csv plus a config echo; bytes are a deterministic
    function of (config, seed)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "results.csv"
        with open(csv_path, "w") as fh:
            fh.write("episode,reward,hard_violation,cum_regret,cum_violation\n")
            for i in range(len(metrics.rewards)):
                fh.write(f"{i + 1},{float(metrics.rewards[i])!r},"
                         f"{float(metrics.violations[i])!r},"
                         f"{float(metrics.cum_regret[i])!r},"
                         f"{float(metrics.cum_violation[i])!r}\n")
        with open(out / "config.txt", "w") as fh:
            fh.write(config.to_text())
    except OSError as exc:
        raise OSError(f"cannot write results under {out}: {exc}") from exc
    return csv_path
