"""Regularized least-squares value iteration with optimism bonuses.

The Q-function and the linear cost LCB regress on the same features, so the
design statistics of step h are one GramState that the learner and the linear
cost model share: the inverse of Lambda_h = lam*I + sum phi phi^T (both read
Lambda_h only through it), the quadratic forms phi^T Lambda_h^{-1} phi, one
per distinct feature, and the sample count.  The learner ingests each
episode once; each model keeps only its own regression targets (reward and
next-state sums; cost sums).  The statistics stay one GramState per step
rather than arrays with an H axis: a standalone LinearCostModel may be fed
single steps, so its steps hold different counts, and an episode-wide
update would need a second, per-step path for it.

A sample is a row index of the feature map: phi(s, a) is row s*A + a, and
the map checked every row (norm, finiteness) when it was built, so a sample
is not checked again.  A GramState takes its storage from its feature map,
once and for life.  When every feature row is a unit basis vector (one-hot
features, the tabular case) Lambda_h^{-1} stays diagonal: an update reads
the row's column and costs O(1), and the quadratic form of a row is the
inverse's entry at that column.  Otherwise it keeps the dense inverse,
updated by the rank-one identity in O(d^2), and downdates the cached
quadratic forms of the map's U distinct rows with the same identity, which
keeps the per-episode backward pass to a handful of matrix-vector products
over those U rows.  Either way a table over the S*A rows is computed once
per column or distinct row and gathered once (GramState.bounds).  On
one-hot data the dense path only adds exact zeros to what the diagonal path
computes, so both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .envs import FeatureMap
from .penalty import penalized_argmax

DENOM_TOL = 1e-12


class GramState:
    """Design statistics of one step index over a fixed feature map.

    inv holds Lambda^{-1}: a (d, d) array, or its diagonal, shape (d,), when
    the map's features are one-hot.  count is the number of samples
    ingested.  Per-row quantities are kept per column of inv (one-hot) or
    per distinct row of the map (dense); index maps each row of the map to
    its entry.
    """

    def __init__(self, feature_map: FeatureMap, lam: float):
        if not lam > 0:
            raise ValueError("lam must be positive")
        self.lam = lam
        self.fmap = feature_map
        self.count = 0
        self._rows = feature_map.distinct  # None on one-hot maps
        if self.diagonal:
            self.index = feature_map.unit_columns
            self.inv = np.ones(feature_map.dim) / lam
        else:
            self.index = feature_map.distinct_index
            self.inv = np.eye(feature_map.dim) / lam
            self._quad = feature_map.distinct_sq_norms / lam

    @property
    def diagonal(self) -> bool:
        return self._rows is None

    def update(self, row: int) -> None:
        """Ingest row `row` of the map as a sample: Lambda += phi phi^T.  The
        inverse and the cached quadratic forms follow by the rank-one
        identity."""
        phi = self.fmap.row(row)  # the range check, on both storages
        if self.diagonal:
            # Lambda^{-1} phi is inv[j] e_j: the dense update without its
            # zero terms, in the same order.
            j = self.index[row]
            vj = float(self.inv[j])
            denom = 1.0 + vj
            if denom <= DENOM_TOL:
                raise RuntimeError("Gram inverse breakdown: 1 + phi^T A^-1 phi <= 1e-12")
            self.inv[j] -= vj * vj / denom
            self.count += 1
            return
        v = self.inv @ phi
        denom = 1.0 + float(phi @ v)
        if denom <= DENOM_TOL:
            raise RuntimeError("Gram inverse breakdown: 1 + phi^T A^-1 phi <= 1e-12")
        self.inv -= np.outer(v, v) / denom
        proj = self._rows @ v
        self._quad -= proj * proj / denom
        self.count += 1

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Lambda^{-1} b: the ridge weights for target sums b."""
        return self.inv * b if self.diagonal else self.inv @ b

    def terms(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """<phi, w> and sqrt(max(phi^T Lambda^{-1} phi, 0)) per column of inv
        (one-hot) or per distinct row; entry index[row] belongs to row."""
        if self.diagonal:
            return w, np.sqrt(np.maximum(self.inv, 0.0))
        return self._rows @ w, np.sqrt(np.maximum(self._quad, 0.0))

    def bounds(self, w: np.ndarray, scale: float) -> np.ndarray:
        """<phi, w> + scale * ||phi||_{Lambda^{-1}} for every row phi of the
        map, with the quadratic form clamped at 0."""
        mean, root = self.terms(w)
        return (mean + scale * root)[self.index]

    def quad_forms(self) -> np.ndarray:
        """phi^T Lambda^{-1} phi for every row of the map."""
        return (self.inv if self.diagonal else self._quad)[self.index]


def beta_schedule(c: float, d: int, horizon: int, episodes: int, p: float) -> float:
    """Theory-scale bonus multiplier c * d * H * sqrt(log(2dHK/p))."""
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    arg = 2.0 * d * horizon * episodes / p
    if arg <= 1.0:
        raise ValueError("2dHK/p must exceed 1")
    return c * d * horizon * math.sqrt(math.log(arg))


@dataclass
class QModel:
    """Clipped optimistic Q-function of one episode's backward pass.

    q_table holds min(<w_h, phi> + beta * ||phi||_{Lambda_h^-1}, H) over every
    (state, action), policy the penalized argmax of each row and v_table the
    Q value of that action.
    """

    weights: np.ndarray  # (H, d)
    q_table: np.ndarray  # (H, S, A)
    v_table: np.ndarray  # (H, S)
    policy: np.ndarray  # (H, S) int


class LsviLearner:
    """Backward-pass machinery over a tabular feature set.

    Per step h it owns the design statistics stats[h] (a GramState, which a
    LinearCostModel may share), the reward-weighted feature sum
    reward_feats[h] and the features bucketed by observed next state,
    next_feats[h] (so regression targets r + V_{h+1}(x') reduce to one
    (d, S) matvec).
    """

    def __init__(self, feature_map: FeatureMap, num_states: int, num_actions: int,
                 horizon: int, lam: float, beta: float):
        if not lam > 0:
            raise ValueError("lam must be positive")
        if not 0 <= beta < math.inf:
            raise ValueError("beta must be >= 0 and finite")
        if feature_map.table.shape[:2] != (num_states, num_actions):
            raise ValueError(f"feature table covers (S, A) = {feature_map.table.shape[:2]}"
                             f", the learner was given {(num_states, num_actions)}")
        self.S, self.A, self.H = num_states, num_actions, horizon
        self.d = feature_map.dim
        self.lam = lam
        self.beta = beta
        self.fmap = feature_map
        self.stats = [GramState(feature_map, lam) for _ in range(horizon)]
        self.next_feats = np.zeros((horizon, self.d, num_states))
        self.reward_feats = np.zeros((horizon, self.d))

    def ingest_episode(self, rows, rewards, next_states) -> None:
        """Ingest one episode: at step h the feature row rows[h] = s*A + a
        earned rewards[h] and moved to state next_states[h].  The episode is
        checked whole before anything changes.  Each step adds to its own
        slice of the target sums, so one indexed add per array gives the
        floats of per-step adds."""
        rows, rewards, next_states = map(np.asarray, (rows, rewards, next_states))
        if not rows.shape == rewards.shape == next_states.shape == (self.H,):
            raise ValueError(f"rows, rewards and next states must have shape ({self.H},)")
        phi = self.fmap.row(rows)  # the range check of every row
        if not 0 <= next_states.min() <= next_states.max() < self.S:
            raise ValueError(f"next states {next_states} not all in [0, {self.S})")
        for h, row in enumerate(rows.tolist()):
            self.stats[h].update(row)
        self.next_feats[np.arange(self.H), :, next_states] += phi
        self.reward_feats += phi * rewards[:, None]

    def backward_pass(self, ghat: Optional[np.ndarray] = None,
                      z: Optional[np.ndarray] = None) -> QModel:
        """One sweep h = H..1 of ridge regression plus bonus.

        Regression targets are r + V_{h+1}(x') where V_{h+1} comes from this
        pass's own penalized argmax (SARSA-style backup: with constraints the
        next-step value is the value of the action the policy would take, not
        the unpenalized maximum).  ghat is the (H, S, A) optimistic cost
        table and z the (H,) penalty factors; both default to zero.
        """
        H, S, A = self.H, self.S, self.A
        weights = np.zeros((H, self.d))
        q_table = np.zeros((H, S, A))
        v_table = np.zeros((H, S))
        policy = np.zeros((H, S), dtype=np.int64)
        v_next = np.zeros(S)
        rows = np.arange(S)
        for h in range(H - 1, -1, -1):
            b = self.reward_feats[h] + self.next_feats[h] @ v_next
            w = self.stats[h].solve(b)
            if not np.isfinite(w).all():
                raise FloatingPointError(f"non-finite regression weights at step {h}")
            q = np.minimum(self.stats[h].bounds(w, self.beta), float(H)).reshape(S, A)
            a_star = q.argmax(axis=1) if ghat is None or z is None else \
                penalized_argmax(q, ghat[h], z[h])
            weights[h] = w
            q_table[h] = q
            policy[h] = a_star
            v_next = q[rows, a_star]
            v_table[h] = v_next
        return QModel(weights=weights, q_table=q_table, v_table=v_table,
                      policy=policy)

    def weight_norm_bound(self) -> float:
        """Theory bound 2H sqrt(dk/lam) for the current episode count."""
        k = self.stats[0].count + 1
        return 2.0 * self.H * math.sqrt(self.d * k / self.lam)
