"""Tabular constrained MDPs with linear feature maps.

An environment is a plain numpy container: ``transition[h, s, a]`` is a
probability row over next states, ``reward`` and ``cost_mean`` are (H, S, A)
tables.  The cost table holds the *mean* of the observed safety signal; an
action is safe at (h, s) when its mean cost is <= 0, and every builder
guarantees at least one safe action per state so constrained planning is
always feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional

import numpy as np

ROW_SUM_TOL = 1e-12
NORM_SLACK = 1e-9

# Grid actions for the lake environment.
UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
_ORTHO = {UP: (LEFT, RIGHT), DOWN: (LEFT, RIGHT), LEFT: (UP, DOWN), RIGHT: (UP, DOWN)}


class StepRecord(NamedTuple):
    state: int
    action: int
    reward: float
    cost: float
    next_state: int


@dataclass
class TabularCmdp:
    """Finite constrained MDP: ground truth for simulation and exact oracles.

    cost_noise = 0 means costs are observed exactly; a positive value adds
    zero-mean Gaussian noise of that scale, with observations clipped back
    into [-1, 1].  reward_scale is a display factor only: internal rewards
    stay in [0, 1] and metrics multiply by it when reporting.
    """

    num_states: int
    num_actions: int
    horizon: int
    transition: np.ndarray  # (H, S, A, S)
    reward: np.ndarray  # (H, S, A)
    cost_mean: np.ndarray  # (H, S, A)
    initial_state: int = 0
    cost_noise: float = 0.0
    reward_scale: float = 1.0

    def __post_init__(self):
        H, S, A = self.horizon, self.num_states, self.num_actions
        if self.transition.shape != (H, S, A, S):
            raise ValueError(f"transition shape {self.transition.shape} != {(H, S, A, S)}")
        if self.reward.shape != (H, S, A) or self.cost_mean.shape != (H, S, A):
            raise ValueError("reward/cost tables must have shape (H, S, A)")
        # Each range check is written so that a NaN fails it.
        row_err = np.abs(self.transition.sum(axis=-1) - 1.0).max()
        if not row_err <= ROW_SUM_TOL:
            raise ValueError(f"transition rows must sum to 1 (max error {row_err:.3e})")
        if not self.transition.min() >= 0:
            raise ValueError("transition rows must be nonnegative")
        if not (self.reward.min() >= 0 and self.reward.max() <= 1):
            raise ValueError("rewards must lie in [0, 1]")
        if not np.abs(self.cost_mean).max() <= 1:
            raise ValueError("cost means must lie in [-1, 1]")
        if not (self.cost_mean <= 0).any(axis=2).all():
            bad = np.argwhere(~(self.cost_mean <= 0).any(axis=2))[0]
            raise ValueError(f"no safe action at (h={bad[0]}, s={bad[1]})")
        if not 0 <= self.initial_state < S:
            raise ValueError("initial_state out of range")
        if not 0 <= self.cost_noise < math.inf:
            raise ValueError("cost_noise must be finite and >= 0")
        if not math.isfinite(self.reward_scale):
            raise ValueError("reward_scale must be finite")


def _unit_columns(flat: np.ndarray) -> Optional[np.ndarray]:
    """Column of the 1 in each row when every row of flat is a unit basis
    vector, else None.  A dense feature set is turned down by the nonzero
    count alone."""
    if len(flat) == 0 or np.count_nonzero(flat) != len(flat):
        return None
    cols = flat.argmax(axis=1)
    return cols if (flat[np.arange(len(flat)), cols] == 1.0).all() else None


@dataclass
class FeatureMap:
    """Per-(state, action) feature vectors, Euclidean norm at most 1.

    Its structure is worked out once, at construction: flat, the (S*A, d)
    view whose row s*A + a is the feature of (s, a); sq_norms, the squared
    norm of each row; and unit_columns, the column of each row's 1 when
    every row is a unit basis vector (one-hot features), else None.  The
    table is not to be changed afterwards.
    """

    dim: int
    table: np.ndarray  # (S, A, d)

    def __post_init__(self):
        if self.table.ndim != 3 or self.table.shape[2] != self.dim:
            raise ValueError("feature table must have shape (S, A, d)")
        S, A, d = self.table.shape
        self.flat = self.table.reshape(S * A, d)
        self.sq_norms = np.einsum("nd,nd->n", self.flat, self.flat)
        norm = math.sqrt(self.sq_norms.max())
        if not norm <= 1.0 + NORM_SLACK:
            raise ValueError(f"feature norms must be <= 1 (max {norm:.6f})")
        self.unit_columns = _unit_columns(self.flat)


def one_hot_features(num_states: int, num_actions: int) -> FeatureMap:
    d = num_states * num_actions
    return FeatureMap(dim=d, table=np.eye(d).reshape(num_states, num_actions, d))


def step(cmdp: TabularCmdp, state: int, action: int, h: int,
         rng: np.random.Generator) -> tuple[float, float, int]:
    """Sample one transition: returns (reward, observed cost, next state).

    h is the 0-based step index.  The reward is deterministic; the observed
    cost is the mean plus optional clipped Gaussian noise.
    """
    if not 0 <= h < cmdp.horizon:
        raise ValueError(f"step index {h} out of range [0, {cmdp.horizon})")
    if not 0 <= state < cmdp.num_states or not 0 <= action < cmdp.num_actions:
        raise ValueError("state or action id out of range")
    row = cmdp.transition[h, state, action]
    u = rng.random()
    nxt = int(min(np.searchsorted(np.cumsum(row), u, side="right"), cmdp.num_states - 1))
    cost = float(cmdp.cost_mean[h, state, action])
    if cmdp.cost_noise > 0:
        cost = float(np.clip(cost + rng.normal(0.0, cmdp.cost_noise), -1.0, 1.0))
    return float(cmdp.reward[h, state, action]), cost, nxt


# ---------------------------------------------------------------------------
# Frozen lake gridworld
# ---------------------------------------------------------------------------

# Default 10x10 map.  The goal sits within short reach of the start so
# optimistic exploration discovers it at desk scale, hazards flank the direct
# routes so an unconstrained learner keeps paying cost, and safe detours of
# equal length exist so avoiding hazards costs no reward.
DEFAULT_LAKE_MAP = "\n".join([
    "S.H.......",
    ".H...H....",
    "..G.......",
    "H..H......",
    ".H....H...",
    "...H......",
    ".....H..H.",
    "..H.......",
    "......H...",
    "...H....H.",
])


def build_frozen_lake(width: int, height: int, hazard_cells, goal_cell: int,
                      horizon: int, start_cell: int = 0,
                      cost_noise: float = 0.0) -> tuple[TabularCmdp, FeatureMap]:
    """Slippery gridworld: intended move with prob 0.9, each orthogonal
    direction with prob 0.05; off-grid mass stays in place; the goal is
    absorbing.  Stepping toward a hazard (intended, not slipped, destination)
    has mean cost +1; every other action costs -1.  Rewards are 6 at the goal
    and 0.01 elsewhere, stored divided by 6 with reward_scale = 6.
    """
    n = width * height
    if n < 2:
        raise ValueError("grid must have at least 2 cells")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    hazards = set(int(c) for c in hazard_cells)
    if goal_cell in hazards:
        raise ValueError("goal cell cannot be a hazard")
    for c in hazards | {goal_cell, start_cell}:
        if not 0 <= c < n:
            raise ValueError(f"cell {c} outside {width}x{height} grid")

    def dest(cell: int, direction: int) -> int:
        # Deterministic destination: off-grid moves stay put, goal absorbs.
        if cell == goal_cell:
            return cell
        r, c = divmod(cell, width)
        dr, dc = _MOVES[direction]
        r2, c2 = r + dr, c + dc
        if not (0 <= r2 < height and 0 <= c2 < width):
            return cell
        return r2 * width + c2

    P = np.zeros((horizon, n, 4, n))
    R = np.zeros((horizon, n, 4))
    G = np.zeros((horizon, n, 4))
    for s in range(n):
        for a in range(4):
            if s == goal_cell:
                P[0, s, a, s] = 1.0
            else:
                P[0, s, a, dest(s, a)] += 0.9
                for o in _ORTHO[a]:
                    P[0, s, a, dest(s, o)] += 0.05
            G[0, s, a] = 1.0 if dest(s, a) in hazards else -1.0
        R[0, s, :] = 1.0 if s == goal_cell else 0.01 / 6.0
    P[:] = P[0]
    R[:] = R[0]
    G[:] = G[0]

    cmdp = TabularCmdp(num_states=n, num_actions=4, horizon=horizon,
                       transition=P, reward=R, cost_mean=G,
                       initial_state=start_cell, cost_noise=cost_noise,
                       reward_scale=6.0)
    return cmdp, one_hot_features(n, 4)


def frozen_lake_from_grid(text: str, horizon: int,
                          cost_noise: float = 0.0) -> tuple[TabularCmdp, FeatureMap]:
    """Parse an ASCII map: 'S' start, 'G' goal, 'H' hazard, '.' free."""
    rows = [line.strip() for line in text.strip().splitlines() if line.strip()]
    height = len(rows)
    if height == 0:
        raise ValueError("empty map")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("map rows must have equal length")
    start = goal = None
    hazards = set()
    for r, line in enumerate(rows):
        for c, ch in enumerate(line):
            cell = r * width + c
            if ch == "S":
                if start is not None:
                    raise ValueError("map must have exactly one 'S'")
                start = cell
            elif ch == "G":
                if goal is not None:
                    raise ValueError("map must have exactly one 'G'")
                goal = cell
            elif ch == "H":
                hazards.add(cell)
            elif ch != ".":
                raise ValueError(f"unknown map character {ch!r}")
    if start is None or goal is None:
        raise ValueError("map needs one 'S' and one 'G'")
    return build_frozen_lake(width, height, hazards, goal, horizon,
                             start_cell=start, cost_noise=cost_noise)


# ---------------------------------------------------------------------------
# Synthetic CMDP with exactly linear costs
# ---------------------------------------------------------------------------

def build_synthetic_linear(d: int, horizon: int, seed, cost_noise: float = 0.1,
                           ) -> tuple[TabularCmdp, FeatureMap, np.ndarray]:
    """Random small tabular CMDP whose mean costs are exactly
    <phi(s,a), theta_h>, with the generating theta returned for oracle tests.

    Features are one-hot over (state, action) with 2 actions and d // 2
    states (one padding coordinate when d is odd), so every tabular function
    of (s, a) is exactly linear and the value-iteration regression is well
    specified.  theta_h is the cost table itself, hence ||theta_h|| <=
    0.9 * sqrt(d); costs are drawn in [-0.9, 0.9] with at least one negative
    entry per state.  Rewards on unsafe actions are damped and redrawn until
    the optimal safe policy attains the unconstrained optimum, which keeps
    benchmark regret increments nonnegative.
    """
    if d < 2:
        raise ValueError("feature dimension must be >= 2")
    rng = np.random.default_rng(seed)
    num_actions = 2
    num_states = d // 2
    cells = num_states * num_actions

    table = np.zeros((num_states, num_actions, d))
    table.reshape(cells, d)[np.arange(cells), np.arange(cells)] = 1.0
    fmap = FeatureMap(dim=d, table=table)

    costs = np.empty((horizon, num_states, num_actions))
    for h in range(horizon):
        while True:
            c = rng.uniform(-0.9, 0.9, size=(num_states, num_actions))
            for s in range(num_states):
                if c[s].min() > 0:
                    c[s, np.argmin(c[s])] *= -1.0
            # Continuous draws never land exactly on 0; keep a margin so the
            # safe-action comparison needs no tolerance.
            if np.abs(c).min() > 1e-6:
                costs[h] = c
                break
    theta = np.zeros((horizon, d))
    theta[:, :cells] = costs.reshape(horizon, cells)

    P = rng.random((horizon, num_states, num_actions, num_states)) + 0.1
    P /= P.sum(axis=-1, keepdims=True)

    # Local import: the oracle module has no dependency back on builders.
    from .oracle import constrained_dp, value_iteration

    unsafe = costs > 0
    for _ in range(500):
        R = rng.random((horizon, num_states, num_actions))
        R[unsafe] *= 0.25
        cmdp = TabularCmdp(num_states=num_states, num_actions=num_actions,
                           horizon=horizon, transition=P, reward=R,
                           cost_mean=costs, initial_state=0,
                           cost_noise=cost_noise)
        _, safe_tab = constrained_dp(cmdp)
        v_unc = value_iteration(cmdp)
        if safe_tab.v[0, 0] == v_unc[0, 0]:
            return cmdp, fmap, theta
    raise RuntimeError("could not align safe and unconstrained optima")


# ---------------------------------------------------------------------------
# Hard lower-bound instance
# ---------------------------------------------------------------------------

@dataclass
class HardInstanceParams:
    """Linear parametrization returned alongside the tabular instance so the
    two representations can be cross-validated."""

    alpha: float
    beta: float
    delta: float
    gap: float  # per-coordinate magnitude of u_h
    u: np.ndarray  # (H, d-1)
    actions: np.ndarray  # (A, d-1) sign vectors
    mu: np.ndarray  # (H, d+1, S): mu[h][:, x'] is the measure of state x'
    theta: np.ndarray  # (d+1,) reward parameter


def build_hard_instance(d: int, horizon: int, episodes: int,
                        u_signs: Optional[np.ndarray] = None,
                        ) -> tuple[TabularCmdp, FeatureMap, HardInstanceParams]:
    """Chain CMDP whose transitions leak to a rewarding absorbing state with
    probability delta + <u_h, a> over the sign-vector action set {-1,+1}^(d-1).

    delta = 1/H and the per-coordinate gap is sqrt(delta/K) / (4*sqrt(2)).
    Features are (alpha, beta*a, 0) on chain states and the last basis vector
    on the rewarding state; alpha uses 1/(1 + gap*(d-1)) so that
    alpha^2 + (d-1)*beta^2 = 1 exactly.  The returned mu assigns, at step h,
    the stay-on-chain measure to the step-h successor state: this reproduces
    the chain dynamics at every reachable (h, state) pair and makes the
    tabular rows equal <phi, mu_h> entrywise.
    """
    H, K = horizon, episodes
    if d < 4:
        raise ValueError("dimension must be >= 4")
    if H < 3:
        raise ValueError("horizon must be >= 3")
    if d - 1 > 12:
        raise ValueError("action set 2^(d-1) capped at 4096 (need d-1 <= 12)")
    k_min = max((d - 1) ** 2 * H / 2.0, (d - 1) / (32.0 * H * (math.sqrt(d) - 1)))
    if K < k_min:
        raise ValueError(f"episodes must be >= {k_min:.1f} for d={d}, H={H}")

    delta = 1.0 / H
    gap = math.sqrt(delta / K) / (4.0 * math.sqrt(2.0))
    if u_signs is None:
        u_signs = np.ones((H, d - 1))
    u_signs = np.asarray(u_signs, dtype=float)
    if u_signs.shape != (H, d - 1) or not np.all(np.abs(u_signs) == 1.0):
        raise ValueError(f"u_signs must be +-1 with shape {(H, d - 1)}")
    u = gap * u_signs
    if delta + gap * (d - 1) > 1.0 or delta - gap * (d - 1) < 0.0:
        raise ValueError("leak probability delta + <u, a> leaves [0, 1]")

    S = H + 2  # chain states x_1..x_H, then the sink and the rewarding state
    sink, reward_state = H, H + 1
    actions = np.array(list(product((-1.0, 1.0), repeat=d - 1)))
    A = len(actions)

    alpha = math.sqrt(1.0 / (1.0 + gap * (d - 1)))
    beta = math.sqrt(gap / (1.0 + gap * (d - 1)))
    feat = np.zeros((S, A, d + 1))
    feat[:reward_state, :, 0] = alpha
    feat[:reward_state, :, 1:d] = beta * actions
    feat[reward_state, :, d] = 1.0
    fmap = FeatureMap(dim=d + 1, table=feat)

    theta = np.zeros(d + 1)
    theta[d] = 1.0

    mu = np.zeros((H, d + 1, S))
    for h in range(H):
        succ = h + 1
        mu[h, 0, succ] = (1.0 - delta) / alpha
        mu[h, 1:d, succ] = -u[h] / beta
        mu[h, 0, reward_state] = delta / alpha
        mu[h, 1:d, reward_state] = u[h] / beta
        mu[h, d, reward_state] = 1.0

    P = np.zeros((H, S, A, S))
    G = np.zeros((H, S, A))
    for h in range(H):
        leak = delta + actions @ u[h]  # (A,)
        succ = h + 1
        for s in range(reward_state):
            P[h, s, :, reward_state] = leak
            P[h, s, :, succ] += 1.0 - leak
        P[h, reward_state, :, reward_state] = 1.0
        best = int(np.argmax(actions @ u[h]))
        G[h, :H, :] = 1.0
        G[h, :H, best] = 0.0
        # Sink and rewarding state are safe under every action.
    R = np.zeros((H, S, A))
    R[:, reward_state, :] = 1.0

    cmdp = TabularCmdp(num_states=S, num_actions=A, horizon=H,
                       transition=P, reward=R, cost_mean=G, initial_state=0)
    params = HardInstanceParams(alpha=alpha, beta=beta, delta=delta, gap=gap,
                                u=u, actions=actions, mu=mu, theta=theta)
    return cmdp, fmap, params
