"""Optimistic (lower-confidence) cost estimation.

Two estimators share one interface: a ridge regressor with a
dimension-dependent confidence width, and a Gaussian-process regressor whose
width scales with the accumulated information gain.  Both subtract their
width from the posterior mean, so an action looks safe until the data says
otherwise.  A run observes and queries costs only at (s, a) pairs, the rows
of the feature map, so both models take row indices s*A + a and nothing
else.  observe(rows, costs) ingests one episode, the (H,) rows and costs of
its steps, checked whole before anything changes.  Step h is read as tables
over (s, a): lcb_table(h), the (S, A) lower-confidence costs, is the run's
read.  Each model's _mean_width() gives the mean and width of every step,
(H, d) per column of a one-hot (tabular) feature map or (H, U) per distinct
row of a dense one, in one pass.  Once per data version (the episodes the
model and its statistics have taken) the base class makes from it one
(H, S, A) table, mean - width gathered over the S*A rows by
FeatureMap.gather, checks it finite there (FloatingPointError otherwise,
with nothing cached) and keeps it alone: lcb_table(h) hands out its step h
as a read-only view.

Both models read state with a leading H axis that each episode updates: the
ridge model from the shared design statistics; the GP, over a one-hot map,
from per-column observation counts and cost sums (O(1) per step to add, one
O(H*d) pass to query the posterior and the information gain of every step
together, through Sherman-Morrison and the matrix determinant lemma), and
over a dense map from a cross factor L^-1 K(X, F) over the U distinct rows F
that grows one row per episode and step, each new observation's pivot and
innovation read from the cached posterior at its row (O(n * U) to add,
O(H*U) to query).  A step outside [0, H) raises IndexError.  The GP holds at
most K episodes; nothing of its one-hot state is sized by K, and its dense
state lives in arrays allocated once, linear in K.  Widths spend p/H of the
model's own p (one union-bound share per step), and width_scale is a
practical multiplier on the theoretical width (1.0 reproduces the closed
forms; benchmark configs shrink it).  width_scale and the sqexp lengthscale
are real numbers: a bool is rejected, though it compares as 0 or 1.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .envs import FeatureMap, _check_count, _check_p, _check_scale
from .lsvi import GramState, _check_step, _episode_arrays


def tilde_beta(lam: float, d: int, k: int, p: float) -> float:
    """Ridge confidence width sqrt(lam*d) + sqrt(d*log((1+k/lam)/p))."""
    _check_p(p)
    arg = (1.0 + k / lam) / p
    if not 1.0 < arg < math.inf:  # a tiny p overflows it (lam is at least 1e-150)
        raise ValueError(f"(1 + k/lam)/p must lie in (1, inf), not {arg!r} "
                         f"(lam={lam!r}, p={p!r})")
    return math.sqrt(lam * d) + math.sqrt(d * math.log(arg))


def gp_beta(gamma: float, p: float) -> float:
    """GP confidence multiplier 1 + sqrt(2*(gamma + 1 + ln(2/p)))."""
    _check_p(p)
    if gamma < 0:
        raise ValueError("information gain must be nonnegative")
    arg = 2.0 / p
    if not 1.0 < arg < math.inf:  # a tiny p overflows it
        raise ValueError(f"2/p must lie in (1, inf), not {arg!r} (p={p!r})")
    return 1.0 + math.sqrt(2.0 * (gamma + 1.0 + math.log(arg)))


def _cost_episode(horizon: int, rows, costs) -> tuple[np.ndarray, np.ndarray]:
    """One episode's rows and costs as (H,) arrays, every cost in [-1, 1]."""
    rows, costs = _episode_arrays(horizon, "rows and costs", rows, costs)
    if not np.abs(costs).max() <= 1.0:  # a NaN fails too
        raise ValueError(f"observed costs {costs} not all in [-1, 1]")
    return rows, costs


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", a, a)


KERNELS = ("linear", "sqexp")


def _pointwise_kernel(name: str, lengthscale: float) -> Callable:
    """The kernel as one pointwise function k(|a|^2, |b|^2, <a, b>) of
    arrays that broadcast.  Every kernel value the package computes is an
    evaluation of it.  A sqexp lengthscale must lie in the range of every
    positive scale, [1e-150, 1e150] (envs._check_scale): there
    1/(2*lengthscale**2) and the largest exponent between two feature rows
    are finite positive floats, so every kernel value lies in [0, 1], and
    k(x, x) = 1."""
    if name == "linear":
        return lambda aa, bb, ab: ab
    if name == "sqexp":
        _check_scale("lengthscale", lengthscale, positive=True)
        inv2 = 1.0 / (2.0 * lengthscale ** 2)
        # At a = b the squared distance is 0, or nan at a non-finite point.
        return lambda aa, bb, ab: np.exp(-np.maximum(aa + bb - 2.0 * ab, 0.0) * inv2)
    raise ValueError(f"unknown kernel {name!r} (choose from {KERNELS})")


def make_kernel(name: str, lengthscale: float = 1.0) -> Callable:
    """Kernel registry: 'linear' (dot product) or 'sqexp' (squared
    exponential with the given lengthscale).  Returns k(A, B) -> (n, m)."""
    k = _pointwise_kernel(name, lengthscale)

    def kern(a, b):
        a, b = np.atleast_2d(a), np.atleast_2d(b)
        return k(_sq_norms(a)[:, None], _sq_norms(b)[None, :], a @ b.T)
    return kern


# ---------------------------------------------------------------------------
# The read both estimators share
# ---------------------------------------------------------------------------

class _CostModel:
    """A cost model over a feature map, read per step as (S, A) tables
    gathered through the map from _mean_width(), the posterior mean and
    confidence width of every step per column (one-hot) or distinct row.
    The LCB table is made once per data version, _version(): the model's
    state changes only with one, and each new table is a new array."""

    def __init__(self, feature_map: FeatureMap, horizon: int, p: float,
                 width_scale: float):
        _check_p(p)
        _check_scale("width_scale", width_scale)
        _check_count("horizon", horizon)
        self.fmap = feature_map
        self.H = horizon
        self.p = p
        self.width_scale = width_scale
        self._pass = None  # (version, read-only LCB table)

    def _version(self):
        """The data version: the episodes observed, count."""
        return self.count

    def _table(self) -> np.ndarray:
        """The (H, S, A) LCB table mean - width of the current data version,
        read-only, checked finite when it is made."""
        version = self._version()
        if self._pass is None or self._pass[0] != version:
            mean, width = self._mean_width()
            table = self.fmap.gather(mean - width)
            if not np.isfinite(table).all():
                raise FloatingPointError("non-finite cost estimate at episode "
                                         f"{self.count + 1}")
            table.flags.writeable = False
            self._pass = (version, table)
        return self._pass[1]

    def lcb_table(self, h: int) -> np.ndarray:
        """Lower-confidence costs over all (state, action) pairs, shape
        (S, A): a read-only view of step h of the version's table."""
        _check_step(h, self.H)
        return self._table()[h]


# ---------------------------------------------------------------------------
# Linear estimator
# ---------------------------------------------------------------------------

class LinearCostModel(_CostModel):
    """Per-step ridge regression of observed costs on features, queried as
    mean minus tilde_beta-width.  Incremental updates are algebraically
    identical to a batch refit.

    stats, when given, are the learner's statistics over the same feature
    map (LsviLearner.stats): the learner ingests every episode and this
    model adds only its cost sums, so its estimates include an episode once
    the learner has ingested it.  Without stats the model keeps and updates
    statistics of its own.
    """

    def __init__(self, feature_map: FeatureMap, horizon: int, lam: float = 1.0,
                 p: float = 0.1, width_scale: float = 1.0,
                 stats: Optional[GramState] = None):
        super().__init__(feature_map, horizon, p, width_scale)
        # Checked here too: shared statistics would compare True as 1.0.
        _check_scale("lam", lam, positive=True)
        self._owns_stats = stats is None
        if stats is None:
            stats = GramState(feature_map, lam, horizon)
        elif stats.H != horizon or stats.lam != lam or stats.fmap is not feature_map:
            raise ValueError("shared statistics must match the cost model's "
                             "horizon, lam and feature map")
        self.stats = stats
        self.b = np.zeros((horizon, feature_map.dim))  # sum phi * cost, per step
        self.count = 0  # episodes observed

    def observe(self, rows, costs) -> None:
        """Add one episode's costs: costs[h] observed at row rows[h] of the
        feature map."""
        rows, costs = _cost_episode(self.H, rows, costs)
        phi = self.fmap.row(rows)
        if self._owns_stats:
            self.stats.update(rows)
        self.b += phi * costs[:, None]
        self.count += 1

    def _version(self) -> tuple[int, int]:
        # Shared statistics change with the learner's ingest alone.
        return self.stats.count, self.count

    def _mean_width(self) -> tuple[np.ndarray, np.ndarray]:
        """Ridge means, one solve and product per step, and widths
        tilde_beta * ||phi||_{Lambda_h^{-1}}, per column or distinct row."""
        mean = np.stack([self.fmap.dot(self.stats.solve(h, self.b[h]))
                         for h in range(self.H)])
        k = self.stats.count + 1  # episode index: data through k-1
        beta = tilde_beta(self.stats.lam, self.fmap.dim, k, self.p / self.H)
        return mean, self.width_scale * beta * self.stats.roots()


# ---------------------------------------------------------------------------
# Gaussian-process estimator
# ---------------------------------------------------------------------------

class GpCostModel(_CostModel):
    """Per-step GP regression over the feature set (the S*A feature rows),
    with lower-confidence queries.  Costs are observed and queried only at
    rows of the feature map, by index: the posterior is the one over its
    rows, held once per column (one-hot) or distinct row (dense) and read
    as (S, A) tables through the map's index, lcb_table(h).

    The regularizer is 1 + 2/K with K declared up front.  Each episode adds
    one observation to every step, and the model holds at most K episodes
    (count).  The state takes one of two forms, chosen once from the
    feature map, as GramState chooses its storage:

    * One-hot map: the rows are unit vectors e_j, between which the kernel
      is k(e_i, e_j) = a*[i = j] + c, so the posterior depends on the data
      only through the counts n[h] and cost sums G[h] of each column (both
      (H, d)); a and c are read from one kernel call at construction.  An
      episode adds to one entry of each per step, elementwise over the
      steps.  One O(H*d) pass over the (H, d) arrays yields the posterior
      mean and variance of every column and step and, by the matrix
      determinant lemma, each step's information gain; the tables add one
      O(H*S*A) gather, without a kernel call or a solve.  Nothing is sized
      by K.
    * Dense map: over the map's U distinct rows F, the cross factor
      Z = L^-1 K(X, F) (H, K, U), for L the Cholesky factor of
      K(X, X) + lam*I over the n rows X observed so far, beside logdet[h]
      of K(X, X) + lam*I and the posterior over F, mean[h] = Z^T L^-1 g
      and var[h] = diag k(F, F) - colsum(Z^2) (both (H, U)), in arrays
      allocated once.  An episode, step by step, appends one row to Z for
      its row y: the pivot sqrt(var + lam) and the innovation
      cost - mean are read from the cached posterior at y, and
      L^-1 K(X, y) from Z's column index[y] enters the one product with
      Z, O(n * U) per step.  The pivot is at least sqrt(lam) > 1, repeated
      rows included.  Neither L nor L^-1 g is needed, so neither is kept.
      The pass reads the (H, U) mean and var whole, O(H*U) plus one
      O(H*S*A) gather, without a kernel call or a solve.
    """

    def __init__(self, kernel: str, total_episodes: int, horizon: int,
                 lengthscale: float = 1.0, p: float = 0.1,
                 width_scale: float = 1.0, *, feature_map: FeatureMap):
        _check_count("total_episodes", total_episodes)
        super().__init__(feature_map, horizon, p, width_scale)
        self._k = _pointwise_kernel(kernel, lengthscale)
        self.K = total_episodes
        self.lam = 1.0 + 2.0 / total_episodes
        self.count = 0  # episodes observed
        d = feature_map.dim
        if feature_map.one_hot:
            # k(e_i, e_j) between two distinct unit vectors: a + c on the
            # diagonal, c off it, from one call of the registry's kernel.
            kk = make_kernel(kernel, lengthscale)(np.eye(2), np.eye(2))
            self._c = float(kk[0, 1])
            self._a = float(kk[0, 0]) - self._c
            self.n = np.zeros((horizon, d), dtype=int)
            self.G = np.zeros((horizon, d))
            return
        K, m = total_episodes, len(feature_map.distinct)
        f_sq = feature_map.distinct_sq_norms
        prior = self._k(f_sq, f_sq, f_sq)  # diag k(F, F)
        self.logdet = np.zeros(horizon)
        self.mean = np.zeros((horizon, m))
        self.var = np.tile(prior, (horizon, 1))
        self.Z = np.zeros((horizon, K, m))

    def observe(self, rows, costs) -> None:
        """Add one episode's costs: costs[h] observed at row rows[h] of the
        feature map."""
        rows, costs = _cost_episode(self.H, rows, costs)
        if self.count == self.K:
            raise ValueError(f"the model already holds K={self.K} episodes")
        y = self.fmap.row(rows)  # the type and range check
        cols = self.fmap.index[rows]
        if self.fmap.one_hot:
            steps = np.arange(self.H)
            self.n[steps, cols] += 1
            self.G[steps, cols] += costs
        else:
            self._observe_dense(cols, y, costs)
        self.count += 1

    def _observe_dense(self, cols: np.ndarray, y: np.ndarray,
                       costs: np.ndarray) -> None:
        """Append distinct row cols[h] (feature y[h]) with cost costs[h] to
        step h's dense state as its n-th observation, n = count.

        With z = L^-1 K(X, y), Z's column cols[h], the new pivot of
        K(X, X) + lam*I is sqrt(k(y, y) + lam - z^T z) = sqrt(var + lam) and
        the innovation is cost - z^T alpha = cost - mean, for var and mean the
        cached posterior at y.  The pivot is thus at least sqrt(lam) > 1 for
        any positive semi-definite kernel, repeated rows included, and only
        the new cross-factor row r = (k(y, F) - z^T Z) / pivot takes a
        product with Z.
        """
        n, f_sq = self.count, self.fmap.distinct_sq_norms
        for h, i in enumerate(cols):
            diag = math.sqrt(float(self.var[h, i]) + self.lam)
            a = (float(costs[h]) - float(self.mean[h, i])) / diag
            kyf = self._k(f_sq[i], f_sq, self.fmap.distinct @ y[h])  # k(y, F)
            r = (kyf - self.Z[h, :n, i] @ self.Z[h, :n]) / diag
            self.Z[h, n] = r
            self.mean[h] += a * r
            self.var[h] -= r * r
            self.logdet[h] += 2.0 * math.log(diag)

    def _moments(self) -> tuple[np.ndarray, np.ndarray, list]:
        """Posterior mean and variance per column (one-hot) or per distinct
        row (dense), (H, d) or (H, U), and the realized information gain
        0.5 * ln det(I + lam^-1 KER) of every step, all in one pass.

        On the count path, over the observed columns, K(X, X) + lam*I pushes
        through to M = diag(a + lam/n_j) + c*11^T acting on the column means
        G_j/n_j.  Sherman-Morrison inverts M without dividing by a: with
        w_j = 1/(a n_j + lam), g_j = G_j w_j, t = c*sum_j n_j w_j,
        s = c/(1 + t) and e_j = lam w_j, the query e_j gets

            mean_j = a g_j + s*e_j*sum_i g_i,   var_j = a e_j + s e_j^2,

        in closed form, free of cancellation, and the matrix determinant
        lemma gives the gain 0.5 * [sum_j ln(1 + a n_j/lam) + ln(1 + t)].
        The sums run over all d columns of a step (an unobserved one has
        n_j = G_j = 0), a row of the (H, d) arrays each, and t, s and the
        gain are one scalar per step.
        """
        if not self.fmap.one_hot:
            # ln det(I + lam^-1 KER) >= 0, but observations that add nothing
            # (k(y, y) = 0) leave the difference of logs a rounding off 0.
            offset = self.count * math.log(self.lam)
            gains = [max(0.5 * (float(logdet) - offset), 0.0) for logdet in self.logdet]
            return self.mean, self.var, gains
        a, c, n = self._a, self._c, self.n
        w = 1.0 / (a * n + self.lam)
        g = self.G * w
        t = c * (n * w).sum(axis=1)
        s = c / (1.0 + t)
        e = self.lam * w
        logs = np.log1p(n * (a / self.lam)).sum(axis=1)
        gains = [0.5 * (float(lg) + math.log1p(float(th))) for lg, th in zip(logs, t)]
        mean = a * g + (s * g.sum(axis=1))[:, None] * e
        return mean, a * e + s[:, None] * e * e, gains

    def _mean_width(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and widths beta_h * sigma per column or distinct
        row, beta_h from step h's information gain."""
        mean, var, gains = self._moments()
        scales = np.array([self.width_scale * gp_beta(gain, self.p / self.H)
                           for gain in gains])
        return mean, scales[:, None] * np.sqrt(np.maximum(var, 0.0))
