"""Optimistic (lower-confidence) cost estimation.

Two estimators share one interface: a ridge regressor with a
dimension-dependent confidence width, and a Gaussian-process regressor whose
width scales with the accumulated information gain.  Both subtract their
width from the posterior mean, so an action looks safe until the data says
otherwise.  A run observes and queries costs only at (s, a) pairs, the rows
of the feature map, so both models take a row index s*A + a and nothing
else: observe(h, row, cost), predict(h, row) and lcb_table(h), the (S, A)
table of lower-confidence costs.  Both serve it from state they update per
observation, kept per column of a one-hot (tabular) feature map or per
distinct row of a dense one and gathered once over the S*A rows: the ridge
model from the shared design statistics; the GP, over a one-hot map, from
per-column observation counts and cost sums (O(1) to add, O(d) to query,
through Sherman-Morrison and the matrix determinant lemma), and over a
dense map from a cross factor L^-1 K(X, F) over the U distinct rows F that
grows one row per observation (O(n * U) to add, O(U) to query).  A row's
predict(h, row).value is its entry of lcb_table(h), bit for bit: both read
the same per-column or per-distinct-row arrays.  The GP holds at most K
observations per step, one per episode; nothing of its one-hot state is
sized by K, and its dense state lives in arrays allocated once, linear in
K.  Widths spend p/H of the model's own p (one union-bound share per step),
and width_scale is a practical multiplier on the theoretical width (1.0
reproduces the closed forms; benchmark configs shrink it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .envs import FeatureMap
from .lsvi import GramState

@dataclass
class CostEstimate:
    """Lower-confidence estimate: value = mean - width, width >= 0."""

    value: float
    mean: float
    width: float

    @property
    def width_two_sided(self) -> float:
        """Error radius bounding |true - lcb| with the stated confidence."""
        return 2.0 * self.width


def tilde_beta(lam: float, d: int, k: int, p: float) -> float:
    """Ridge confidence width sqrt(lam*d) + sqrt(d*log((1+k/lam)/p))."""
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    arg = (1.0 + k / lam) / p
    if arg <= 1.0:
        raise ValueError("(1 + k/lam)/p must exceed 1")
    return math.sqrt(lam * d) + math.sqrt(d * math.log(arg))


def gp_beta(gamma: float, p: float) -> float:
    """GP confidence multiplier 1 + sqrt(2*(gamma + 1 + ln(2/p)))."""
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if gamma < 0:
        raise ValueError("information gain must be nonnegative")
    return 1.0 + math.sqrt(2.0 * (gamma + 1.0 + math.log(2.0 / p)))


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
    evaluation of it."""
    if name == "linear":
        return lambda aa, bb, ab: ab
    if name == "sqexp":
        if lengthscale <= 0:
            raise ValueError("lengthscale must be positive")
        inv2 = 1.0 / (2.0 * lengthscale ** 2)
        # At a = b the squared distance is 0, or nan at a non-finite point.
        return lambda aa, bb, ab: np.exp(-np.maximum(aa + bb - 2.0 * ab, 0.0)
                                         * inv2)
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
# Linear estimator
# ---------------------------------------------------------------------------

class LinearCostModel:
    """Per-step ridge regression of observed costs on features, queried as
    mean minus tilde_beta-width.  Incremental updates are algebraically
    identical to a batch refit.

    stats, when given, are the learner's per-step statistics over the same
    feature map (LsviLearner.stats): the learner ingests every step and this
    model adds only its cost sums, so its estimates include a step once the
    learner has ingested the episode.  Without stats the model keeps and
    updates statistics of its own.
    """

    def __init__(self, feature_map: FeatureMap, horizon: int, lam: float = 1.0,
                 p: float = 0.1, width_scale: float = 1.0,
                 stats: Optional[list] = None):
        self.fmap = feature_map
        self.H = horizon
        self.d = feature_map.dim
        self.lam = lam
        self.p = p
        self.width_scale = width_scale
        self._owns_stats = stats is None
        if stats is None:
            stats = [GramState(feature_map, lam) for _ in range(horizon)]
        elif len(stats) != horizon or any(g.lam != lam or g.fmap is not feature_map
                                          for g in stats):
            raise ValueError("shared statistics must match the cost model's "
                             "horizon, lam and feature map")
        self.stats = stats
        self.b = [np.zeros(self.d) for _ in range(horizon)]  # sum phi * cost

    def observe(self, h: int, row: int, cost: float) -> None:
        """Add the cost observed at row `row` of the feature map."""
        if not abs(cost) <= 1.0:
            raise ValueError(f"observed cost {cost} outside [-1, 1]")
        phi = self.fmap.row(row)
        if self._owns_stats:
            self.stats[h].update(row)
        self.b[h] += phi * cost

    def theta(self, h: int) -> np.ndarray:
        return self.stats[h].solve(self.b[h])

    def _beta(self, h: int) -> float:
        k = self.stats[h].count + 1  # episode index: data through k-1
        return self.width_scale * tilde_beta(self.lam, self.d, k, self.p / self.H)

    def predict(self, h: int, row: int) -> CostEstimate:
        """The estimate at row `row` of the feature map: its entry of
        lcb_table(h), from the same arrays."""
        self.fmap.row(row)  # the type and range check
        mean, root = self.stats[h].terms(self.theta(h))
        i = self.stats[h].index[row]
        mean, width = float(mean[i]), self._beta(h) * float(root[i])
        return CostEstimate(value=mean - width, mean=mean, width=width)

    def lcb_table(self, h: int) -> np.ndarray:
        """Lower-confidence costs over all (state, action) pairs, shape (S, A)."""
        S, A, _ = self.fmap.table.shape
        return self.stats[h].bounds(self.theta(h), -self._beta(h)).reshape(S, A)


# ---------------------------------------------------------------------------
# Gaussian-process estimator
# ---------------------------------------------------------------------------

class GpCostModel:
    """Per-step GP regression over the feature set (the S*A feature rows),
    with lower-confidence queries.  Costs are observed and queried only at
    rows of the feature map, by index: the posterior is the one over its
    rows, held once per column (one-hot) or distinct row (dense) and read
    through index[row].

    The regularizer is 1 + 2/K with K declared up front.  A run feeds each
    step one observation per episode, so a step holds at most K of them
    (count[h]).  The state takes one of two forms, chosen once from the
    feature map, as GramState chooses its storage:

    * One-hot map: the rows are unit vectors e_j, between which the kernel
      is k(e_i, e_j) = a*[i = j] + c, so the posterior depends on the data
      only through the counts n[h] and cost sums G[h] of each column (both
      (H, d)); a and c are read from one kernel call at construction.  An
      observation is O(1).  lcb_table is O(d) plus an O(S*A) gather,
      without a kernel call or a solve; the information gain follows from
      the matrix determinant lemma in O(d).  Nothing is sized by K.
    * Dense map: over the map's U distinct rows F, alpha = L^-1 g (H, K)
      and the cross factor Z = L^-1 K(X, F) (H, K, U), for L the Cholesky
      factor of K(X, X) + lam*I over the n rows X observed so far, beside
      logdet[h] of K(X, X) + lam*I and the posterior over F,
      mean[h] = Z^T alpha and var[h] = diag k(F, F) - colsum(Z^2) (both
      (H, U)), in arrays allocated once.  An observation of row y reads
      L^-1 K(X, y) from Z's column index[y] and appends one entry to alpha
      and one row to Z, with a pivot of at least lam, repeated rows
      included: O(n * U).  L itself is never needed, so it is not kept.
      lcb_table is O(U) plus an O(S*A) gather, without a kernel call or a
      solve.
    """

    def __init__(self, kernel: str, total_episodes: int, horizon: int,
                 lengthscale: float = 1.0, p: float = 0.1,
                 width_scale: float = 1.0, *, feature_map: FeatureMap):
        if total_episodes < 1:
            raise ValueError("total_episodes must be >= 1")
        self.kern = make_kernel(kernel, lengthscale)
        self._k = _pointwise_kernel(kernel, lengthscale)
        self.H = horizon
        self.K = total_episodes
        self.lam = 1.0 + 2.0 / total_episodes
        self.p = p
        self.width_scale = width_scale
        self.fmap = feature_map
        self.one_hot = feature_map.unit_columns is not None
        self.index = feature_map.unit_columns if self.one_hot else \
            feature_map.distinct_index
        self.count = np.zeros(horizon, dtype=int)  # observations per step
        d = feature_map.dim
        if self.one_hot:
            # k(e_i, e_j) between two distinct unit vectors: a + c on the
            # diagonal, c off it.  Read through the model's kernel, like
            # every other kernel value it uses.
            kk = self.kern(np.eye(2), np.eye(2))
            self._c = float(kk[0, 1])
            self._a = float(kk[0, 0]) - self._c
            if not (0.0 <= self._a < math.inf and 0.0 <= self._c < math.inf):
                raise ValueError("kernel is not finite and positive semi-definite "
                                 "on the unit vectors")
            self.n = np.zeros((horizon, d), dtype=int)
            self.G = np.zeros((horizon, d))
            return
        K, m = total_episodes, len(feature_map.distinct)
        f_sq = feature_map.distinct_sq_norms
        prior = self._k(f_sq, f_sq, f_sq)  # diag k(F, F)
        if not ((0.0 <= prior) & (prior < math.inf)).all():
            raise ValueError("kernel is not finite and nonnegative on the "
                             "feature set")
        self.logdet = np.zeros(horizon)
        self.mean = np.zeros((horizon, m))
        self.var = np.tile(prior, (horizon, 1))
        self.alpha = np.zeros((horizon, K))
        self.Z = np.zeros((horizon, K, m))

    def num_obs(self, h: int) -> int:
        return int(self.count[h])

    def observe(self, h: int, row: int, cost: float) -> None:
        """Add the cost observed at row `row` of the feature map."""
        if not abs(cost) <= 1.0:
            raise ValueError(f"observed cost {cost} outside [-1, 1]")
        n = int(self.count[h])
        if n == self.K:
            raise ValueError(f"step {h} already holds K={n} observations, "
                             "one per episode")
        y = self.fmap.row(row)  # the type and range check
        i = int(self.index[row])  # one row: int() rejects an array of them
        if self.one_hot:
            self.n[h, i] += 1
            self.G[h, i] += cost
        else:
            self._observe_dense(h, n, i, y, cost)
        self.count[h] = n + 1

    def _observe_dense(self, h: int, n: int, i: int, y: np.ndarray,
                       cost: float) -> None:
        """Append distinct row i (feature y), the n-th observation of step h,
        to the dense state."""
        alpha, Z = self.alpha[h], self.Z[h]
        f_sq = self.fmap.distinct_sq_norms
        yy = f_sq[i]
        z = Z[:n, i]  # L^-1 K(X, y)
        # The new pivot is a Schur complement of K(X, X) + lam*I, at least
        # lam > 1 for any positive semi-definite kernel, repeated rows
        # included, so only a broken kernel fails this check.
        diag2 = float(self._k(yy, yy, yy)) + self.lam - float(z @ z)
        if not diag2 > 0.0:
            raise RuntimeError("kernel matrix is not positive definite")
        diag = math.sqrt(diag2)
        a = (float(cost) - float(z @ alpha[:n])) / diag
        kyf = self._k(yy, f_sq, self.fmap.distinct @ y)  # k(y, F)
        r = (kyf - z @ Z[:n]) / diag
        alpha[n] = a
        Z[n] = r
        self.mean[h] += a * r
        self.var[h] -= r * r
        self.logdet[h] += 2.0 * math.log(diag)

    def info_gain(self, h: int) -> float:
        """Realized information gain 0.5 * ln det(I + lam^-1 KER).  On the
        count path, by the matrix determinant lemma,
        0.5 * [sum_j ln(1 + a n_j/lam) + ln(1 + c * sum_j n_j/(a n_j + lam))]."""
        if not self.one_hot:
            # ln det(I + lam^-1 KER) >= 0, but observations that add nothing
            # (k(y, y) = 0) leave the difference of logs a rounding off 0.
            return max(0.5 * (float(self.logdet[h])
                              - int(self.count[h]) * math.log(self.lam)), 0.0)
        n = self.n[h]
        return 0.5 * (float(np.log1p(n * (self._a / self.lam)).sum())
                      + math.log1p(self._c * float((n / (self._a * n + self.lam)).sum())))

    def _count_posterior(self, h: int):
        """Posterior mean and variance at the d unit vectors, on the count
        path.

        Over the observed columns, K(X, X) + lam*I pushes through to
        M = diag(a + lam/n_j) + c*11^T acting on the column means G_j/n_j.
        Sherman-Morrison inverts M without dividing by a: with
        w_j = 1/(a n_j + lam), g_j = G_j w_j, s = c/(1 + c*sum_j n_j w_j)
        and e_j = lam w_j, the query e_j gets

            mean_j = a g_j + s*e_j*sum_i g_i,   var_j = a e_j + s e_j^2,

        in closed form, free of cancellation.  The sums run over all d
        columns: an unobserved one has n_j = G_j = 0.
        """
        a, c, n = self._a, self._c, self.n[h]
        w_hat = 1.0 / (a * n + self.lam)
        g = self.G[h] * w_hat
        s = c / (1.0 + c * float((n * w_hat).sum()))
        e = self.lam * w_hat
        return a * g + (s * float(g.sum())) * e, a * e + s * e * e

    def _moments(self, h: int):
        """Posterior mean and variance per column (one-hot) or per distinct
        row (dense)."""
        return self._count_posterior(h) if self.one_hot else (self.mean[h], self.var[h])

    def posterior(self, h: int, row: int) -> tuple[float, float]:
        """Posterior mean and standard deviation at row `row` of the map."""
        self.fmap.row(row)  # the type and range check
        mean, var = self._moments(h)
        i = self.index[row]
        return float(mean[i]), math.sqrt(max(float(var[i]), 0.0))

    def _beta(self, h: int) -> float:
        return self.width_scale * gp_beta(self.info_gain(h), self.p / self.H)

    def predict(self, h: int, row: int) -> CostEstimate:
        mean, sigma = self.posterior(h, row)
        width = self._beta(h) * sigma
        return CostEstimate(value=mean - width, mean=mean, width=width)

    def lcb_table(self, h: int) -> np.ndarray:
        """Lower-confidence costs over all (state, action) pairs, shape
        (S, A): per column from the counts, or from the cached posterior per
        distinct row, gathered once through index."""
        S, A, _ = self.fmap.table.shape
        mean, var = self._moments(h)
        sigma = np.sqrt(np.maximum(var, 0.0))
        return (mean - self._beta(h) * sigma)[self.index].reshape(S, A)
