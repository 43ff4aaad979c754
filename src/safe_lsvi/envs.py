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
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

ROW_SUM_TOL = 1e-12
NORM_SLACK = 1e-9

# Grid actions for the lake environment.
UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
_ORTHO = {UP: (LEFT, RIGHT), DOWN: (LEFT, RIGHT), LEFT: (UP, DOWN), RIGHT: (UP, DOWN)}


def _is_integer(x) -> bool:
    """The one test of an integer setting: a python or numpy integer and
    not a bool, which is a numbers.Integral too but no count or cell."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_count(name: str, value) -> None:
    """The one check of a count (a horizon, a number of states or actions):
    an integer >= 1."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")


def _is_real(x) -> bool:
    """The one test of a real-valued setting: a real number and not a bool
    (nor numpy's), which compares as 0 or 1 but is no scale."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


# The one range of a positive scale, the ridge lam or the sqexp lengthscale.
# Inside it 1/x**2, x*n for any count n up to 1e9 and the sqexp kernel's
# largest exponent between two feature rows, 4*(1 + 1e-9)**2/(2*x**2), are
# all finite floats.
_SCALE_MIN, _SCALE_MAX = 1e-150, 1e150


def _check_scale(name: str, value, positive: bool = False) -> None:
    """The one check of a scale (a regularizer, a bonus or width multiplier,
    a lengthscale, a noise level): a real number, finite, and >= 0, or, when
    positive, in [_SCALE_MIN, _SCALE_MAX].  A NaN fails it."""
    if not (_is_real(value) and 0 <= value < math.inf and (value > 0 or not positive)):
        raise ValueError(f"{name} must be {'positive' if positive else '>= 0'} and finite")
    if positive and not _SCALE_MIN <= value <= _SCALE_MAX:
        raise ValueError(f"{name} must lie in [{_SCALE_MIN:g}, {_SCALE_MAX:g}], not {value!r}:"
                         f" outside it, 1/{name}**2 or a product of it may be not finite")


def _check_p(p) -> None:
    """The one check of a confidence level p: a real number in (0, 1)."""
    if not (_is_real(p) and 0 < p < 1):
        raise ValueError("p must lie in (0, 1)")


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
        # Checked first: a float S equal to an integer passes the shape
        # comparisons below and fails late, in a run's indexing.
        for name in ("num_states", "num_actions", "horizon"):
            _check_count(name, getattr(self, name))
        if not _is_integer(self.initial_state):
            raise ValueError(f"initial_state must be an integer, not {self.initial_state!r}")
        if self.transition.shape != (H, S, A, S):
            raise ValueError(f"transition shape {self.transition.shape} != {(H, S, A, S)}")
        if self.reward.shape != (H, S, A) or self.cost_mean.shape != (H, S, A):
            raise ValueError("reward/cost tables must have shape (H, S, A)")
        # Each range check is written so that a NaN fails it.
        sums = np.einsum("...s->...", self.transition)
        row_err = np.abs(np.subtract(sums, 1.0, out=sums), out=sums).max()
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
        _check_scale("cost_noise", self.cost_noise)
        if not (_is_real(self.reward_scale) and math.isfinite(self.reward_scale)):
            raise ValueError("reward_scale must be a finite real number")


def _unit_columns(flat: np.ndarray) -> Optional[np.ndarray]:
    """Column of the 1 in each row when every row of flat is a unit basis
    vector, else None.  A dense feature set is turned down by its first row
    alone, or else by the nonzero count."""
    if len(flat) == 0 or np.count_nonzero(flat[0]) != 1 or flat[0].max() != 1.0 \
            or np.count_nonzero(flat) != len(flat):
        return None
    cols = flat.argmax(axis=1)
    return cols if (flat[np.arange(len(flat)), cols] == 1.0).all() else None


# Weights of the hash key <row, r> that groups equal rows: fixed and random,
# so that distinct rows of a sign pattern (the hard instance's (alpha,
# beta*a, 0)) get distinct keys; evenly spaced weights would not.
_KEY_SEED = 0x5AFE


def _row_keys(flat: np.ndarray) -> np.ndarray:
    """A float key per row; equal rows get equal keys."""
    return flat @ np.random.default_rng(_KEY_SEED).standard_normal(flat.shape[1])


def _distinct_rows(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first occurrence of each distinct row of flat, in order of first
    occurrence, and the index of each row's distinct row among them, so that
    flat[first][index] has the bytes of flat.  The rows are grouped by
    _row_keys and the grouping is checked byte for byte; when two rows that
    differ share a key (0.0 beside -0.0, or a collision), they are grouped
    by their bytes instead."""
    n = len(flat)
    keys, inverse = np.unique(_row_keys(flat), return_inverse=True)
    first = np.full(len(keys), n)
    np.minimum.at(first, inverse, np.arange(n))
    bits, rep = flat.view(f"u{flat.itemsize}"), first[inverse]
    # Compared in blocks of rows, so that no copy of flat is made.
    if not all(np.array_equal(bits[rep[i:i + 1024]], bits[i:i + 1024])
               for i in range(0, n, 1024)):
        flat = np.ascontiguousarray(flat)
        rows = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1])))
        _, first, inverse = np.unique(rows.ravel(), return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


@dataclass
class FeatureMap:
    """Per-(state, action) feature vectors, Euclidean norm at most 1.

    Its structure is worked out once, at construction: flat, the (S*A, d)
    view whose row s*A + a is the feature of (s, a), and index, each row's
    entry: the column of its 1 when every row is a unit basis vector
    (one-hot features), else the position of its distinct row.  A map that
    is not one-hot keeps its distinct rows, in order of first occurrence:
    distinct (U, d) and their squared norms distinct_sq_norms, so that
    distinct[index] has the bytes of flat; on a one-hot map both are None,
    and one_hot says which.  Statistics over a map compute once per column
    or distinct row (dot gives <phi, w> so), and gather takes them to the
    (S, A) table through index.  The table is not to be changed afterwards.
    """

    dim: int
    table: np.ndarray  # (S, A, d)

    def __post_init__(self):
        if self.table.ndim != 3 or self.table.shape[2] != self.dim:
            raise ValueError("feature table must have shape (S, A, d)")
        S, A, d = self.table.shape
        self.flat = self.table.reshape(S * A, d)
        sq_norms = np.einsum("nd,nd->n", self.flat, self.flat)
        norm = math.sqrt(sq_norms.max())
        if not norm <= 1.0 + NORM_SLACK:
            raise ValueError(f"feature norms must be <= 1 (max {norm:.6f})")
        self.index = _unit_columns(self.flat)
        self.distinct = self.distinct_sq_norms = None
        if self.index is None:
            first, self.index = _distinct_rows(self.flat)
            self.distinct, self.distinct_sq_norms = self.flat[first], sq_norms[first]

    @property
    def one_hot(self) -> bool:
        return self.distinct is None

    def dot(self, w: np.ndarray) -> np.ndarray:
        """<phi, w> per column (one-hot, where phi = e_j gives w itself) or
        per distinct row, for gather."""
        return w if self.one_hot else self.distinct @ w

    def gather(self, values: np.ndarray) -> np.ndarray:
        """values, one per column (one-hot) or distinct row on the last
        axis, as the (..., S, A) tables over the map's rows."""
        S, A, _ = self.table.shape
        return values.take(self.index, axis=-1).reshape(*values.shape[:-1], S, A)

    def row(self, i) -> np.ndarray:
        """Row i of flat, the feature of (s, a) with i = s*A + a; for an
        integer array, those rows.  The one check of a row index: of its
        type (a python or numpy integer, or an integer array; a bool, a
        float or a list is not a row) and of its range (without it a
        negative i would wrap around)."""
        if type(i) is not int:
            if not (isinstance(i, (np.integer, np.ndarray)) and i.dtype.kind in "iu"):
                raise TypeError(f"row index {i!r} is not an integer or an "
                                "integer array")
            lo, hi = int(i.min()), int(i.max())
            self.row(lo if lo < 0 else hi)
        elif not 0 <= i < len(self.flat):
            raise IndexError(f"row {i} outside [0, {len(self.flat)})")
        return self.flat[i]


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
                      horizon: int, start_cell: int = 0) -> tuple[TabularCmdp, FeatureMap]:
    """Slippery gridworld: intended move with prob 0.9, each orthogonal
    direction with prob 0.05; off-grid mass stays in place; the goal is
    absorbing.  Stepping toward a hazard (intended, not slipped, destination)
    has mean cost +1; every other action costs -1, observed without noise.
    Rewards are 6 at the goal and 0.01 elsewhere, stored divided by 6 with
    reward_scale = 6.
    """
    n = width * height
    if n < 2:
        raise ValueError("grid must have at least 2 cells")
    _check_count("horizon", horizon)
    hazard_cells = list(hazard_cells)
    for c in hazard_cells + [goal_cell, start_cell]:
        if not _is_integer(c):
            raise ValueError(f"cell {c!r} is not an integer")
    hazards = set(int(c) for c in hazard_cells)
    if goal_cell in hazards:
        raise ValueError("goal cell cannot be a hazard")
    for c in hazards | {goal_cell, start_cell}:
        if not 0 <= c < n:
            raise ValueError(f"cell {c} outside {width}x{height} grid")

    # dest[a, s]: the deterministic destination of direction a from cell s;
    # off-grid moves stay put, the goal absorbs.
    cells = np.arange(n)
    r, c = np.divmod(cells, width)
    dest = np.empty((4, n), dtype=np.intp)
    for a, (dr, dc) in _MOVES.items():
        inside = (0 <= r + dr) & (r + dr < height) & (0 <= c + dc) & (c + dc < width)
        dest[a] = np.where(inside, cells + dr * width + dc, cells)
    dest[:, goal_cell] = goal_cell

    # One step's rows: each adds the intended move's 0.9 and then each
    # orthogonal slip's 0.05, in _ORTHO's order, to a row of zeros.  Where
    # moves land on one cell (an edge, a 1-wide grid) their probabilities
    # add up; with these three values every order gives the same bits.
    rows, acts = cells[:, None], np.arange(4)
    T = np.zeros((n, 4, n))
    T[rows, acts, dest.T] += 0.9
    for i in (0, 1):
        T[rows, acts, dest[[_ORTHO[a][i] for a in range(4)]].T] += 0.05
    T[goal_cell] = 0.0
    T[goal_cell, :, goal_cell] = 1.0
    hazard = np.zeros(n, dtype=bool)
    hazard[list(hazards)] = True
    G = np.where(hazard[dest.T], 1.0, -1.0)
    R = np.full((n, 4), 0.01 / 6.0)
    R[goal_cell] = 1.0

    # Dense copies, not broadcast views: policy_eval's reshape of the
    # transitions would copy a view on every call.
    P, R, G = (np.broadcast_to(x, (horizon, *x.shape)).copy() for x in (T, R, G))
    cmdp = TabularCmdp(num_states=n, num_actions=4, horizon=horizon,
                       transition=P, reward=R, cost_mean=G,
                       initial_state=start_cell, reward_scale=6.0)
    return cmdp, one_hot_features(n, 4)


def frozen_lake_from_grid(text: str, horizon: int) -> tuple[TabularCmdp, FeatureMap]:
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
    return build_frozen_lake(width, height, hazards, goal, horizon, start_cell=start)


# ---------------------------------------------------------------------------
# Synthetic CMDP with exactly linear costs
# ---------------------------------------------------------------------------

def build_synthetic_linear(d: int, horizon: int,
                           seed) -> tuple[TabularCmdp, FeatureMap]:
    """Random small tabular CMDP whose mean costs are exactly
    <phi(s,a), theta_h>.

    Features are one-hot over (state, action) with 2 actions and d // 2
    states (one padding coordinate when d is odd), so every tabular function
    of (s, a) is exactly linear and the value-iteration regression is well
    specified.  theta_h is the cost table itself, zero on the padding
    coordinate, hence ||theta_h|| <= 0.9 * sqrt(d); costs are drawn in
    [-0.9, 0.9] with at least one negative entry per state, observed with
    noise of scale 0.1 (the CMDP's cost_noise; dataclasses.replace gives
    another).  Rewards on unsafe
    actions are damped and redrawn until the optimal safe policy attains the
    unconstrained optimum, which keeps benchmark regret increments
    nonnegative.
    """
    if d < 2:
        raise ValueError("feature dimension must be >= 2")
    _check_count("horizon", horizon)
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
                           cost_mean=costs, initial_state=0, cost_noise=0.1)
        if constrained_dp(cmdp)[1][0, 0] == value_iteration(cmdp)[0, 0]:
            return cmdp, fmap
    raise RuntimeError("could not align safe and unconstrained optima")


# ---------------------------------------------------------------------------
# Hard lower-bound instance
# ---------------------------------------------------------------------------

def build_hard_instance(d: int, horizon: int, episodes: int,
                        u_signs: Optional[np.ndarray] = None,
                        ) -> tuple[TabularCmdp, FeatureMap]:
    """Chain CMDP whose transitions leak to a rewarding absorbing state with
    probability delta + <u_h, a> over the sign-vector action set {-1,+1}^(d-1),
    u_h = gap * u_signs[h] (all +1 by default).

    delta = 1/H and the per-coordinate gap is sqrt(delta/K) / (4*sqrt(2)).
    Features are (alpha, beta*a, 0) on chain states and the last basis vector
    on the rewarding state; alpha uses 1/(1 + gap*(d-1)) so that
    alpha^2 + (d-1)*beta^2 = 1 exactly.  The instance is a linear MDP in
    these features: a measure mu_h that gives the stay-on-chain mass to the
    step-h successor state makes the tabular rows equal <phi, mu_h>
    entrywise, and the reward is <phi, e_d>.
    """
    H, K = horizon, episodes
    if d < 4:
        raise ValueError("dimension must be >= 4")
    _check_count("horizon", H)
    _check_count("episodes", K)
    if H < 3:
        raise ValueError("horizon must be >= 3")
    if d - 1 > 12:
        raise ValueError("action set 2^(d-1) capped at 4096 (need d-1 <= 12)")
    k_min = max((d - 1) ** 2 * H / 2.0, (d - 1) / (32.0 * H * (math.sqrt(d) - 1)))
    if K < k_min:
        raise ValueError(f"episodes must be >= {k_min:.1f} for d={d}, H={H}")
    # K >= (d-1)^2 H/2 gives gap*(d-1) <= 1/(4H): every leak probability
    # delta + <u_h, a> lies in [3/(4H), 5/(4H)], inside (0, 1).

    delta = 1.0 / H
    gap = math.sqrt(delta / K) / (4.0 * math.sqrt(2.0))
    if u_signs is None:
        u_signs = np.ones((H, d - 1))
    u_signs = np.asarray(u_signs, dtype=float)
    if u_signs.shape != (H, d - 1) or not np.all(np.abs(u_signs) == 1.0):
        raise ValueError(f"u_signs must be +-1 with shape {(H, d - 1)}")
    u = gap * u_signs

    S = H + 2  # chain states x_1..x_H, then the sink and the rewarding state
    sink, reward_state = H, H + 1
    # The sign vectors in itertools.product order: the bits of 0..2^(d-1)-1,
    # most significant first, with 0 -> -1 and 1 -> +1.
    bits = np.arange(1 << (d - 1), dtype=np.uint16)[:, None] \
        >> np.arange(d - 2, -1, -1, dtype=np.uint16)
    actions = (bits & 1) * 2.0 - 1.0
    A = len(actions)

    alpha = math.sqrt(1.0 / (1.0 + gap * (d - 1)))
    beta = math.sqrt(gap / (1.0 + gap * (d - 1)))
    feat = np.zeros((S, A, d + 1))
    feat[:reward_state, :, 0] = alpha
    feat[:reward_state, :, 1:d] = beta * actions
    feat[reward_state, :, d] = 1.0
    fmap = FeatureMap(dim=d + 1, table=feat)

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
    return cmdp, fmap
