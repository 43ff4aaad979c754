"""Regularized least-squares value iteration with optimism bonuses.

The Q-function and the linear cost LCB regress on the same features, so the
design statistics of step h are one GramState that the learner and the linear
cost model share: the inverse of Lambda_h = lam*I + sum phi phi^T (both read
Lambda_h only through it), the quadratic forms phi^T Lambda_h^{-1} phi over
the whole feature set, and the sample count.  The learner ingests each (h,
step) once; each model keeps only its own regression targets (reward and
next-state sums; cost sums).

A GramState takes its storage from its feature map, once and for life.
When every feature row is a unit basis vector (one-hot features, the
tabular case) Lambda_h^{-1} stays diagonal: an update costs O(1), the
quadratic form of a row is the inverse's entry at the row's column, and a
sample that is not a unit basis vector is rejected.  Otherwise it keeps the
dense inverse, updated by the rank-one identity in O(d^2), and downdates the
cached quadratic forms with the same identity, which keeps the per-episode
backward pass to a handful of matrix-vector products.  On one-hot data the
dense path only adds exact zeros to what the diagonal path computes, so both
give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .envs import NORM_SLACK, FeatureMap, StepRecord
from .penalty import penalized_argmax

RADICAND_TOL = 1e-12
DENOM_TOL = 1e-12


class GramState:
    """Design statistics of one step index over a fixed feature map.

    inv holds Lambda^{-1}: a (d, d) array, or its diagonal, shape (d,), when
    the map's features are one-hot.  count is the number of samples
    ingested.  Without a feature map the storage is dense and the
    quadratic-form cache empty.
    """

    def __init__(self, d: int, lam: float, feature_map: Optional[FeatureMap] = None):
        if not lam > 0:
            raise ValueError("lam must be positive")
        if feature_map is not None and feature_map.dim != d:
            raise ValueError(f"feature map has dimension {feature_map.dim}, not {d}")
        self.d = d
        self.lam = lam
        self.fmap = feature_map
        self.count = 0
        if feature_map is None:
            self.feats, self._cols = np.zeros((0, d)), None
        else:
            self.feats, self._cols = feature_map.flat, feature_map.unit_columns
        if self.diagonal:
            self.inv = np.ones(d) / lam
        else:
            self.inv = np.eye(d) / lam
            self._quad = np.zeros(0) if feature_map is None else feature_map.sq_norms / lam

    @property
    def diagonal(self) -> bool:
        return self._cols is not None

    def update(self, phi: np.ndarray) -> None:
        """Ingest one sample: Lambda += phi phi^T.  The inverse and the cached
        quadratic forms follow by the rank-one identity.  A rejected sample
        (not a unit basis vector on diagonal storage, a norm above 1 or NaN
        on dense) leaves the statistics as they were."""
        phi = np.asarray(phi, dtype=float)
        if self.diagonal:
            j = int(phi.argmax())
            if not (phi[j] == 1.0 and np.count_nonzero(phi) == 1):
                raise ValueError("one-hot statistics take only unit basis samples")
            # Lambda^{-1} phi is inv[j] e_j: the dense update without its
            # zero terms, in the same order.
            vj = float(self.inv[j])
            denom = 1.0 + vj
            if denom <= DENOM_TOL:
                raise RuntimeError("Gram inverse breakdown: 1 + phi^T A^-1 phi <= 1e-12")
            self.inv[j] -= vj * vj / denom
            self.count += 1
            return
        norm = np.linalg.norm(phi)
        if not norm <= 1.0 + NORM_SLACK:
            raise ValueError(f"feature norm {norm:.6f} exceeds 1")
        v = self.inv @ phi
        denom = 1.0 + float(phi @ v)
        if denom <= DENOM_TOL:
            raise RuntimeError("Gram inverse breakdown: 1 + phi^T A^-1 phi <= 1e-12")
        self.inv -= np.outer(v, v) / denom
        proj = self.feats @ v
        self._quad -= proj * proj / denom
        self.count += 1

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Lambda^{-1} b: the ridge weights for target sums b."""
        return self.inv * b if self.diagonal else self.inv @ b

    def feature_dot(self, w: np.ndarray) -> np.ndarray:
        """<phi, w> for every row phi of feats."""
        return w[self._cols] if self.diagonal else self.feats @ w

    def quad_forms(self) -> np.ndarray:
        """phi^T Lambda^{-1} phi for every row of feats (read-only)."""
        return self.inv[self._cols] if self.diagonal else self._quad

    def quad_form(self, phi: np.ndarray) -> float:
        """phi^T Lambda^{-1} phi, clamped at 0 (roundoff below -1e-12 is an error)."""
        phi = np.asarray(phi, dtype=float)
        q = float(phi @ (self.inv * phi)) if self.diagonal else float(phi @ self.inv @ phi)
        if q < -RADICAND_TOL:
            raise RuntimeError(f"negative quadratic form {q:.3e}")
        return max(q, 0.0)


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

    Per step h it owns the design statistics (a GramState, which a
    LinearCostModel may share), the reward-weighted feature sum, and the
    features bucketed by observed next state (so regression targets
    r + V_{h+1}(x') reduce to one (d, S) matvec).
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
        self.feats = feature_map.flat  # (S*A, d)
        self.stats = [GramState(self.d, lam, feature_map) for _ in range(horizon)]
        self.next_feats = [np.zeros((self.d, num_states)) for _ in range(horizon)]
        self.reward_feats = [np.zeros(self.d) for _ in range(horizon)]

    def observe(self, h: int, s: int, a: int, reward: float, next_state: int) -> None:
        phi = self.feats[s * self.A + a]
        self.stats[h].update(phi)
        self.next_feats[h][:, next_state] += phi
        self.reward_feats[h] += phi * reward

    def ingest_episode(self, trace: Sequence[StepRecord]) -> None:
        if len(trace) != self.H:
            raise ValueError(f"trace length {len(trace)} != horizon {self.H}")
        for h, rec in enumerate(trace):
            self.observe(h, rec.state, rec.action, rec.reward, rec.next_state)

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
            mean = self.stats[h].feature_dot(w)
            bonus = self.beta * np.sqrt(np.maximum(self.stats[h].quad_forms(), 0.0))
            q = np.minimum(mean + bonus, float(H)).reshape(S, A)
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
