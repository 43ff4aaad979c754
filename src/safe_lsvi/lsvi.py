"""Regularized least-squares value iteration with optimism bonuses.

The Q-function and the linear cost LCB regress on the same features, so the
design statistics are one GramState that the learner and the linear cost
model share.  It holds, for every step h on a leading H axis, the inverse of
Lambda_h = lam*I + sum phi phi^T (both models read Lambda_h only through it)
and the quadratic forms phi^T Lambda_h^{-1} phi, one per column or distinct
feature, beside one episode count.  The episode is the unit of ingestion:
update takes the H rows of one episode, and each model keeps only its own
regression targets (reward and next-state sums; cost sums) with the same H
axis.

A sample is a row index of the feature map: phi(s, a) is row s*A + a, and
the map checked every row (norm, finiteness) when it was built, so a sample
is not checked again.  A GramState takes its storage from its feature map,
once and for life.  When every feature row is a unit basis vector (one-hot
features, the tabular case) each Lambda_h^{-1} stays diagonal: an episode
updates one entry per step, elementwise over the H steps, and the quadratic
form of a row is the inverse's entry at that column.  Otherwise it keeps
the dense inverses, updated step by step by the rank-one identity in
O(d^2), and downdates the cached quadratic forms of the map's U distinct
rows with the same identity, which keeps the per-episode backward pass to a
handful of matrix-vector products over those U rows.  Either way it is
read through solve, the ridge weights of one step, and roots, the norms
||phi||_{Lambda_h^{-1}} of every step at once, per column or distinct row,
which a model combines with the means FeatureMap.dot and gathers over the
S*A rows (FeatureMap.gather).  On one-hot data the dense path only adds
exact zeros to what the one-hot path computes, so both give the same bits.

A backward pass does the work that does not depend on V_{h+1} once, over
the H axis: the bonuses beta * roots and the decoding of the next-state
keys by step.  Each step then makes only its target sums, one solve, one
gather and the penalized argmax, and the weights are checked finite once,
after the sweep.

The learner's regression targets r + V_{h+1}(x') need, per step, the
features summed by observed next state x'.  On every map the learner keeps
them one way: the sums of phi_j over the samples at step h that moved to x',
keyed by (step h, next state x', column j) and kept only for the triples
that a sample's nonzero entry met.  A one-hot row has one such entry, so
nothing is sized by d*S.  The product with V_{h+1} is added up in a fixed
order, next state by next state, without BLAS, so it does not depend on the
BLAS kernel, and the keys skip only terms that are exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import FeatureMap, _check_count, _check_p, _check_scale
from .penalty import penalized_argmax

DENOM_TOL = 1e-12
_BREAKDOWN = "Gram inverse breakdown: 1 + phi^T A^-1 phi <= 1e-12 (lam={!r})"


def _episode_arrays(horizon: int, names: str, *columns) -> tuple:
    """The columns of one episode as arrays, each of shape (H,)."""
    columns = tuple(map(np.asarray, columns))
    if any(c.shape != (horizon,) for c in columns):
        raise ValueError(f"{names} must have shape ({horizon},)")
    return columns


def _check_step(h: int, horizon: int) -> None:
    """The one range check of a step index (a negative h would otherwise
    wrap around to a step from the end)."""
    if not 0 <= h < horizon:
        raise IndexError(f"step {h} outside [0, {horizon})")


class GramState:
    """Design statistics of the H steps over a fixed feature map.

    inv[h] holds Lambda_h^{-1}: inv is (H, d, d), or (H, d), the diagonals,
    when the map's features are one-hot.  quad[h] holds phi^T Lambda_h^{-1}
    phi per distinct row, (H, U), on a dense map; on a one-hot map that
    form is inv[h]'s entry at the row's column, and quad is inv itself.
    count is the number of episodes ingested.  It is read through solve,
    which checks h against [0, H), and roots.
    """

    def __init__(self, feature_map: FeatureMap, lam: float, horizon: int):
        _check_scale("lam", lam, positive=True)
        _check_count("horizon", horizon)
        self.lam = lam
        self.fmap = feature_map
        self.H = horizon
        self.count = 0
        self._roots = None  # (count, read-only roots)
        if feature_map.one_hot:
            self.inv = self.quad = np.ones((horizon, feature_map.dim)) / lam
        else:
            self.inv = np.tile(np.eye(feature_map.dim) / lam, (horizon, 1, 1))
            self.quad = np.tile(feature_map.distinct_sq_norms / lam, (horizon, 1))

    def update(self, rows) -> None:
        """Ingest one episode: row rows[h] of the map is step h's sample,
        Lambda_h += phi phi^T.  The inverses and the cached quadratic forms
        follow by the rank-one identity; every step is checked before any
        changes."""
        (rows,) = _episode_arrays(self.H, "rows", rows)
        phi = self.fmap.row(rows)  # the range check, on both storages
        if self.fmap.one_hot:
            # Lambda_h^{-1} phi is inv[h, j] e_j: the dense update without
            # its zero terms, in the same order, elementwise over the steps.
            steps, j = np.arange(self.H), self.fmap.index[rows]
            vj = self.inv[steps, j]
            denom = 1.0 + vj
            if (denom <= DENOM_TOL).any():
                raise RuntimeError(_BREAKDOWN.format(self.lam))
            self.inv[steps, j] -= vj * vj / denom
        else:
            v = [self.inv[h] @ phi[h] for h in range(self.H)]
            denom = [1.0 + float(phi[h] @ v[h]) for h in range(self.H)]
            if any(x <= DENOM_TOL for x in denom):
                raise RuntimeError(_BREAKDOWN.format(self.lam))
            for h in range(self.H):
                self.inv[h] -= np.outer(v[h], v[h]) / denom[h]
                proj = self.fmap.distinct @ v[h]
                self.quad[h] -= proj * proj / denom[h]
        self.count += 1

    def solve(self, h: int, b: np.ndarray) -> np.ndarray:
        """Lambda_h^{-1} b: the ridge weights for target sums b."""
        _check_step(h, self.H)
        return self.inv[h] * b if self.fmap.one_hot else self.inv[h] @ b

    def roots(self) -> np.ndarray:
        """||phi||_{Lambda_h^{-1}}, the quadratic form clamped at 0, per
        column (one-hot) or distinct row of every step: (H, d) or (H, U),
        for fmap.gather.  One read-only array per count, made at its first
        read: the learner and a cost model on the same statistics share it."""
        if self._roots is None or self._roots[0] != self.count:
            roots = np.sqrt(np.maximum(self.quad, 0.0))
            roots.flags.writeable = False
            self._roots = (self.count, roots)
        return self._roots[1]


def beta_schedule(d: int, horizon: int, episodes: int, p: float) -> float:
    """Theory-scale bonus multiplier d * H * sqrt(log(2dHK/p))."""
    _check_p(p)
    arg = 2.0 * d * horizon * episodes / p
    if not 1.0 < arg < math.inf:  # a tiny p overflows it
        raise ValueError(f"2dHK/p must lie in (1, inf), not {arg!r} (p={p!r})")
    return d * horizon * math.sqrt(math.log(arg))


@dataclass
class QModel:
    """One episode's plan from the backward pass: the ridge weights w_h,
    policy the penalized argmax of each state's row of the clipped optimistic
    Q-function min(<w_h, phi> + beta * ||phi||_{Lambda_h^-1}, H), and v_table
    the Q value of that action.  The pass forms one step's (S, A) Q table
    at a time and keeps none of them.
    """

    weights: np.ndarray  # (H, d)
    v_table: np.ndarray  # (H, S)
    policy: np.ndarray  # (H, S) int


class LsviLearner:
    """Backward-pass machinery over a tabular feature set.

    Over the H steps it owns the design statistics stats (a GramState,
    which a LinearCostModel may share), the reward-weighted feature sums
    reward_feats (H, d) and the features summed by observed next state:
    next_keys holds the observed (step h, next state x, column j) triples,
    those of a sample's nonzero entries, as the sorted int64 keys
    (h*S + x)*d + j, and next_sums (P,) the sum of phi_j over the samples of
    each (on one-hot maps, how often it was seen).
    """

    def __init__(self, feature_map: FeatureMap, num_states: int, num_actions: int,
                 horizon: int, lam: float, beta: float):
        _check_scale("beta", beta)
        if feature_map.table.shape[:2] != (num_states, num_actions):
            raise ValueError(f"feature table covers (S, A) = {feature_map.table.shape[:2]}"
                             f", the learner was given {(num_states, num_actions)}")
        self.S, self.A, self.H = num_states, num_actions, horizon
        self.d = feature_map.dim
        self.beta = beta
        self.fmap = feature_map
        self.stats = GramState(feature_map, lam, horizon)
        self.reward_feats = np.zeros((horizon, self.d))
        self.next_keys = np.zeros(0, dtype=np.int64)
        self.next_sums = np.zeros(0)

    def ingest_episode(self, rows, rewards, next_states) -> None:
        """Ingest one episode: at step h the feature row rows[h] = s*A + a
        earned rewards[h] and moved to state next_states[h].  The episode is
        checked whole before anything changes.  Each step adds to its own
        entries of the target sums, so one indexed add per array gives the
        floats of per-step adds."""
        rows, rewards, next_states = _episode_arrays(
            self.H, "rows, rewards and next states", rows, rewards, next_states)
        if next_states.dtype.kind not in "iu" or \
                not 0 <= next_states.min() <= next_states.max() < self.S:
            raise ValueError(f"next states {next_states} not all integers in [0, {self.S})")
        if not np.isfinite(rewards).all():
            raise ValueError(f"rewards {rewards} not all finite")
        # update checks the rows before it changes anything.
        self.stats.update(rows)
        # The episode's nonzero entries phi_j, as (step, column, value).  A
        # one-hot row is e_j, so its one entry is read from the map's index.
        if self.fmap.one_hot:
            steps, cols = np.arange(self.H), self.fmap.index[rows]
            vals = np.ones(self.H)
        else:
            phi = self.fmap.flat[rows]
            steps, cols = np.nonzero(phi)
            vals = phi[steps, cols]
        self.reward_feats[steps, cols] += vals * rewards[steps]
        # Each (step, column) pair occurs once, and the keys come sorted.
        keys = (steps * self.S + next_states[steps].astype(np.int64)) * self.d + cols
        pos = np.searchsorted(self.next_keys, keys)
        seen = pos < len(self.next_keys)
        seen[seen] = self.next_keys[pos[seen]] == keys[seen]
        self.next_sums[pos[seen]] += vals[seen]
        if not seen.all():
            new = ~seen
            self.next_keys = np.insert(self.next_keys, pos[new], keys[new])
            self.next_sums = np.insert(self.next_sums, pos[new], vals[new])

    def _keys_by_step(self) -> list:
        """next_keys decoded once for a pass: per step h, the next state and
        column of each of its keys, and their sums (views, in key order)."""
        span = self.S * self.d
        bounds = np.searchsorted(self.next_keys, np.arange(self.H + 1) * span)
        nexts, cols = np.divmod(self.next_keys % span, self.d)
        return [(nexts[lo:hi], cols[lo:hi], self.next_sums[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    def _next_value_sums(self, keys: tuple, v_next: np.ndarray) -> np.ndarray:
        """sum_x of one step's sums of next state x times v_next[x], over its
        keys from _keys_by_step: per column, bincount adds the keys' terms
        in array order, which is the order of x, starting from 0.0."""
        nexts, cols, sums = keys
        return np.bincount(cols, sums * v_next[nexts], minlength=self.d)

    def backward_pass(self, ghat, z: np.ndarray) -> QModel:
        """One sweep h = H..1 of ridge regression plus bonus.

        Regression targets are r + V_{h+1}(x') where V_{h+1} comes from this
        pass's own penalized argmax (SARSA-style backup: with constraints the
        next-step value is the value of the action the policy would take, not
        the unpenalized maximum).  ghat holds the H optimistic cost tables,
        ghat[h] step h's (S, A) table (an (H, S, A) array or a sequence of H
        tables), and z the (H,) penalty factors, one finite scalar per step;
        any other count of tables, shape of z or a NaN or infinite z raises
        ValueError before any work (Q - NaN*max(ghat, 0) is NaN in every
        entry, and inf*0 is NaN too).  Every step's action is
        penalty.penalized_argmax of its row; unpenalized LSVI passes a zero
        table and z = 0, under which Q - 0*max(0, 0) is Q bit for bit and
        the action is the plain argmax.  The bonuses and the decoded keys
        are made once for all H steps.  Non-finite weights (from target sums
        that overflowed) raise FloatingPointError after the sweep, naming the
        first step swept that had them.
        """
        H, S = self.H, self.S
        if np.shape(z) != (H,) or len(ghat) != H:
            raise ValueError(f"ghat must hold {H} tables and z have shape ({H},)")
        if not np.isfinite(z).all():
            raise ValueError(f"penalty factors z {z} not all finite")
        weights = np.zeros((H, self.d))
        v_table = np.zeros((H, S))
        policy = np.zeros((H, S), dtype=np.int64)
        bonus = self.beta * self.stats.roots()
        keys = self._keys_by_step()
        v_next = np.zeros(S)
        states = np.arange(S)
        for h in range(H - 1, -1, -1):
            b = self.reward_feats[h] + self._next_value_sums(keys[h], v_next)
            w = weights[h] = self.stats.solve(h, b)
            q = np.minimum(self.fmap.gather(self.fmap.dot(w) + bonus[h]), float(H))
            a_star = policy[h] = penalized_argmax(q, ghat[h], z[h])
            v_next = v_table[h] = q[states, a_star]
        if not np.isfinite(weights).all():
            bad = np.flatnonzero(~np.isfinite(weights).all(axis=1))
            raise FloatingPointError(f"non-finite regression weights at step {bad[-1]}")
        return QModel(weights=weights, v_table=v_table, policy=policy)
