"""Regularized least-squares value iteration with optimism bonuses.

The Q-function and the linear cost LCB regress on the same features, so the
design statistics of step h are one GramState that the learner and the linear
cost model share: the inverse of Lambda_h = lam*I + sum phi phi^T (both read
Lambda_h only through it), the quadratic forms phi^T Lambda_h^{-1} phi over
the whole feature set, and the sample count.  The learner ingests each (h,
step) once; each model keeps only its own regression targets (reward and
next-state sums; cost sums).

A GramState picks its storage once, from the feature set.  When every feature
row is a unit basis vector (one-hot features, the tabular case) Lambda_h^{-1}
stays diagonal: an update costs O(1), and the quadratic form of a row is the
inverse's entry at the row's column.  Otherwise it keeps the dense inverse,
updated by the rank-one identity in O(d^2), and downdates the cached quadratic
forms with the same identity, which keeps the per-episode backward pass to a
handful of matrix-vector products.  On one-hot data the dense path only adds
exact zeros to what the diagonal path computes, so both give the same bits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .envs import FeatureMap, StepRecord
from .penalty import penalized_argmax

NORM_SLACK = 1e-9
RADICAND_TOL = 1e-12
DENOM_TOL = 1e-12


def _unit_index(phi: np.ndarray) -> Optional[int]:
    """Index of the 1 when phi is a unit basis vector, else None."""
    j = int(phi.argmax())
    if phi[j] == 1.0 and np.count_nonzero(phi) == 1:
        return j
    return None


def _unit_columns(feats: np.ndarray) -> Optional[np.ndarray]:
    """Column of the 1 in each row when every row of feats is a unit basis
    vector, else None.  The first row is tested alone, so a dense feature set
    is turned down in O(d)."""
    if len(feats) == 0 or _unit_index(feats[0]) is None:
        return None
    cols = feats.argmax(axis=1)
    if np.count_nonzero(feats) == len(feats) \
            and (feats[np.arange(len(feats)), cols] == 1.0).all():
        return cols
    return None


class GramState:
    """Design statistics of one step index over a fixed feature set.

    inv holds Lambda^{-1}: a (d, d) array, or its diagonal, shape (d,), when
    every row of feats is a unit basis vector.  count is the number of
    samples ingested.  Without feats the storage is
    dense and the quadratic-form cache empty.
    """

    def __init__(self, d: int, lam: float, feats: Optional[np.ndarray] = None):
        if not lam > 0:
            raise ValueError("lam must be positive")
        self.d = d
        self.lam = lam
        self.feats = np.zeros((0, d)) if feats is None else feats
        self.count = 0
        self._cols = _unit_columns(self.feats)
        if self.diagonal:
            self.inv = np.ones(d) / lam
        else:
            self.inv = np.eye(d) / lam
            self._quad = np.einsum("nd,nd->n", self.feats, self.feats) / lam

    @property
    def diagonal(self) -> bool:
        return self._cols is not None

    def update(self, phi: np.ndarray) -> None:
        """Ingest one sample: Lambda += phi phi^T.  The inverse and the cached
        quadratic forms follow by the rank-one identity."""
        phi = np.asarray(phi, dtype=float)
        if self.diagonal:
            j = _unit_index(phi)
            if j is not None:
                # Lambda^{-1} phi is inv[j] e_j: the dense update without its
                # zero terms, in the same order.
                vj = float(self.inv[j])
                denom = 1.0 + vj
                if denom <= DENOM_TOL:
                    raise RuntimeError("Gram inverse breakdown: 1 + phi^T A^-1 phi <= 1e-12")
                self.inv[j] -= vj * vj / denom
                self.count += 1
                return
        # Checked before any storage change, so a rejected sample (a NaN
        # included) leaves the statistics as they were.
        norm = np.linalg.norm(phi)
        if not norm <= 1.0 + NORM_SLACK:
            raise ValueError(f"feature norm {norm:.6f} exceeds 1")
        if self.diagonal:
            self._densify()
        v = self.inv @ phi
        denom = 1.0 + float(phi @ v)
        if denom <= DENOM_TOL:
            raise RuntimeError("Gram inverse breakdown: 1 + phi^T A^-1 phi <= 1e-12")
        self.inv -= np.outer(v, v) / denom
        proj = self.feats @ v
        self._quad -= proj * proj / denom
        self.count += 1

    def _copy(self) -> "GramState":
        """An independent copy; the read-only feature set is shared."""
        twin = copy.copy(self)
        twin.inv = self.inv.copy()
        if not self.diagonal:
            twin._quad = self._quad.copy()
        return twin

    def _densify(self) -> None:
        """Switch to dense storage for a sample that is not a unit vector
        (a caller observing points outside the one-hot feature set)."""
        self._quad = self.inv[self._cols]
        self.inv = np.diag(self.inv)
        self._cols = None

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


def step_statistics(feats: np.ndarray, lam: float, horizon: int) -> list[GramState]:
    """Fresh statistics for each of `horizon` steps over one feature set; the
    storage check and the initial quadratic forms run once."""
    first = GramState(feats.shape[1], lam, feats)
    return [first if h == 0 else first._copy() for h in range(horizon)]


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
        self.S, self.A, self.H = num_states, num_actions, horizon
        self.d = feature_map.dim
        self.lam = lam
        self.beta = beta
        self.feats = feature_map.flat  # (S*A, d)
        self.stats = step_statistics(self.feats, lam, horizon)
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
