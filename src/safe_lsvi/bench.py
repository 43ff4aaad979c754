"""Experiment orchestration: run agents over K episodes, score them exactly.

Per episode the runner (1) rebuilds the optimistic Q-model via the backward
pass, (2) rolls the induced deterministic policy through the environment,
(3) feeds the whole episode to the learner and its observed costs to the
cost estimator and the penalty ledger, and (4) scores the episode: the
regret increment is the exact evaluated gap to the optimal safe policy (no
Monte Carlo), the violation increment sums positive parts of the *true*
mean costs along the realized trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .costs import KERNELS, GpCostModel, LinearCostModel
from .envs import (DEFAULT_LAKE_MAP, _check_count, _check_p, _check_scale,
                   _is_integer, _is_real, build_hard_instance,
                   build_synthetic_linear, frozen_lake_from_grid, step)
from .lsvi import LsviLearner, beta_schedule
from .oracle import PolicyRows, constrained_dp, policy_eval
from .penalty import PenaltyLedger

ENVS = ("frozen_lake", "synthetic_linear", "hard_instance")
AGENTS = ("lsvi_ae", "lsvi", "lsvi_primal")
AGENT_MODES = {"lsvi_ae": "rectified", "lsvi": "off", "lsvi_primal": "virtual_queue"}
COST_MODELS = ("linear", "gp")
CHOICES = {"env": ENVS, "agent": AGENTS, "cost_model": COST_MODELS,
           "kernel": KERNELS}

# Settings that a run reads only under a condition: name -> (condition,
# who reads it).  A value other than the default outside the condition is
# rejected, not ignored.  One exception is kept on purpose: agent=lsvi
# accepts cost_width_scale, which it never reads, so that one lake config
# serves all three agents.
READ_WHEN = {
    "kernel": (lambda c: c.cost_model == "gp", "is only read by cost_model=gp"),
    "lengthscale": (lambda c: (c.cost_model, c.kernel) == ("gp", "sqexp"),
                    "is only read by cost_model=gp with kernel=sqexp"),
    "map_text": (lambda c: c.env == "frozen_lake",
                 "(--map) is only read by env=frozen_lake"),
    "dim": (lambda c: c.env != "frozen_lake",
            "is only read by env=synthetic_linear and env=hard_instance "
            "(frozen_lake's features are one-hot over its grid)"),
    "cost_model": (lambda c: c.agent != "lsvi", "is not read by agent=lsvi: its "
                   "penalty is off, so no cost model is built"),
    "p": (lambda c: c.agent != "lsvi" or c.beta_override is None,
          "is not read by agent=lsvi with beta_override"),
}


def _setting(default, help_text: str, **flag):
    """A field with its command-line help; flag= and metavar= name a flag
    other than --<name with - for _>."""
    return field(default=default, metadata=dict(help=help_text, **flag))


@dataclass
class ExperimentConfig:
    """One run's settings.  Each field declares its type, default and flag
    once; the config file, the command line and validate() read them from
    here (the allowed values of the text settings are in CHOICES)."""

    env: str = "frozen_lake"
    agent: str = "lsvi_ae"
    episodes: int = _setting(1000, "number of episodes K")
    horizon: int = _setting(15, "episode length H")
    p: float = _setting(0.1, "confidence level in (0, 1)")
    lam: float = _setting(1.0, "ridge regularizer", flag="--lambda")
    beta_override: Optional[float] = _setting(
        None, "use this bonus scale instead of the schedule")
    cost_model: str = "linear"
    kernel: str = "linear"
    lengthscale: float = 1.0
    cost_width_scale: float = _setting(
        1.0, "multiplier on the cost confidence width")
    dim: int = _setting(8, "feature dimension for the synthetic and "
                        "hard-instance environments")
    map_text: Optional[str] = _setting(
        None, "ASCII grid file for frozen_lake (S start, G goal, H hazard, "
        ". free)", flag="--map", metavar="FILE")
    seed: int = 0
    out: Optional[str] = _setting(None, "output directory for results.csv")

    def validate(self) -> None:
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        for name, kind in SETTING_TYPES.items():
            value = getattr(self, name)
            if kind is int and not _is_integer(value):
                raise ValueError(f"{name} must be an integer")
            if kind is float and value is not None and not _is_real(value):
                raise ValueError(f"{name} must be a real number")
        for name in ("episodes", "horizon"):
            _check_count(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.out is not None and not self.out.strip():
            raise ValueError("out must name a directory")
        _check_p(self.p)
        # Each check fails on NaN and on +-inf as well.
        _check_scale("lambda", self.lam, positive=True)
        if self.beta_override is not None:
            _check_scale("beta_override", self.beta_override)
        _check_scale("cost_width_scale", self.cost_width_scale)
        _check_scale("lengthscale", self.lengthscale, positive=True)
        for name, (read, reader) in READ_WHEN.items():
            if getattr(self, name) != DEFAULTS[name] and not read(self):
                raise ValueError(f"{name} {reader}")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "map_text":
                value = ";".join(value.strip().splitlines())
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        kwargs = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r} (want key=value)")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in SETTING_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            if key in kwargs:
                raise ValueError(f"config key {key!r} given twice")
            if key == "map_text":
                value = value.replace(";", "\n")
            try:
                kwargs[key] = parse_setting(key, value)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        return cls(**kwargs)


# Each setting's type (Optional[X] as X) and default, as declared above.
SETTING_TYPES = {name: get_args(hint)[0] if get_origin(hint) is Union else hint
                 for name, hint in get_type_hints(ExperimentConfig).items()}
DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_setting(name: str, text: str):
    """The value of setting `name` written as `text` (a config file line's
    value or a flag's argument), read by the setting's type."""
    return SETTING_TYPES[name](text)


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


def build_env(config: ExperimentConfig, builder_seed):
    """The config's (cmdp, feature map), from its env's builder."""
    if config.env == "frozen_lake":
        text = DEFAULT_LAKE_MAP if config.map_text is None else config.map_text
        return frozen_lake_from_grid(text, config.horizon)
    if config.env == "synthetic_linear":
        return build_synthetic_linear(config.dim, config.horizon, builder_seed)
    return build_hard_instance(config.dim, config.horizon, config.episodes)


def _make_cost_model(config: ExperimentConfig, fmap, stats):
    if config.cost_model == "linear":
        return LinearCostModel(fmap, config.horizon, lam=config.lam, p=config.p,
                               width_scale=config.cost_width_scale, stats=stats)
    return GpCostModel(config.kernel, config.episodes, config.horizon,
                       lengthscale=config.lengthscale, p=config.p,
                       width_scale=config.cost_width_scale, feature_map=fmap)


def run_experiment(config: ExperimentConfig, env_override=None) -> Metrics:
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

    v_star = constrained_dp(cmdp)[1][0, cmdp.initial_state]
    # Successive policies differ in a few (h, s): one store of the evaluated
    # policy's rows serves all K evaluations.
    policy_rows = PolicyRows(cmdp)

    # One bonus scale per run: the override, or the schedule itself.
    beta = config.beta_override if config.beta_override is not None else \
        beta_schedule(fmap.dim, H, K, config.p)
    learner = LsviLearner(fmap, cmdp.num_states, cmdp.num_actions, H,
                          config.lam, beta)
    ledger = PenaltyLedger(H, AGENT_MODES[config.agent])
    # With the penalty off the estimated costs are never consumed, so the
    # run skips fitting them and plans against one zero table: with Z = 0 the
    # penalized argmax is then the plain argmax.  A linear cost model shares
    # the learner's design statistics.
    cost_model = None if ledger.mode == "off" else \
        _make_cost_model(config, fmap, learner.stats)
    ghat = np.zeros((H, cmdp.num_states, cmdp.num_actions)) if cost_model is None else None

    rewards = np.zeros(K)
    violations = np.zeros(K)
    regret_inc = np.zeros(K)
    signed = np.zeros(K)
    # One episode: each step's feature row s*A + a, reward, observed cost
    # and next state.
    rows, next_states = np.zeros((2, H), dtype=np.int64)
    step_rewards, step_costs = np.zeros((2, H))

    for k in range(1, K + 1):
        if cost_model is not None:  # read-only views, checked finite by the model
            ghat = [cost_model.lcb_table(h) for h in range(H)]
        plan = learner.backward_pass(ghat, ledger.z)

        state = cmdp.initial_state
        ep_reward = ep_violation = ep_signed = 0.0
        for h in range(H):
            action = int(plan.policy[h, state])
            r, cost_obs, nxt = step(cmdp, state, action, h, rng)
            rows[h], step_rewards[h], step_costs[h], next_states[h] = \
                state * cmdp.num_actions + action, r, cost_obs, nxt
            true_cost = cmdp.cost_mean[h, state, action]
            ep_reward += r
            ep_violation += max(true_cost, 0.0)
            ep_signed += true_cost
            state = nxt

        learner.ingest_episode(rows, step_rewards, next_states)
        if cost_model is not None:
            cost_model.observe(rows, step_costs)
        ledger.end_episode(step_costs, k)

        rewards[k - 1] = ep_reward * cmdp.reward_scale
        violations[k - 1] = ep_violation
        signed[k - 1] = ep_signed
        regret_inc[k - 1] = v_star - \
            policy_eval(cmdp, plan.policy, policy_rows)[0, cmdp.initial_state]

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
                   signed_costs=signed, summary=summary)


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
