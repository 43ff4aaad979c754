"""Optimistic (lower-confidence) cost estimation.

Two estimators share one interface: a ridge regressor with a
dimension-dependent confidence width, and a Gaussian-process regressor whose
width scales with the accumulated information gain.  Both subtract their
width from the posterior mean, so an action looks safe until the data says
otherwise.  Both serve the (S, A) table of lower-confidence costs from state
they update per observation: the ridge model from the shared design
statistics; the GP, over a one-hot (tabular) feature map, from per-column
observation counts and cost sums (O(1) to add, O(d) to query, through
Sherman-Morrison and the matrix determinant lemma), and over a dense map
from a cross factor L^-1 K(X, F) over the feature set F that grows one row
per observation (O(n * S*A) to add, O(S*A) to query).  The GP holds at most
K observations per step, one per episode; nothing of its one-hot state is
sized by K, and its dense state lives in arrays allocated once.
Observations are observe(h, row, cost), row being the index s*A + a of a
feature-map row (a GP over a dense map also takes a point off the map; over
a one-hot map it observes rows only); queries are predict(h, point) and
lcb_table(h).  Widths spend p/H of the model's own p (one union-bound share
per step), and width_scale is a practical multiplier on the theoretical
width (1.0 reproduces the closed forms; benchmark configs shrink it).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

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

    def predict(self, h: int, phi: np.ndarray) -> CostEstimate:
        phi = np.asarray(phi, dtype=float)
        mean = float(phi @ self.theta(h))
        width = self._beta(h) * math.sqrt(self.stats[h].quad_form(phi))
        return CostEstimate(value=mean - width, mean=mean, width=width)

    def lcb_table(self, h: int) -> np.ndarray:
        """Lower-confidence costs over all (state, action) pairs, shape (S, A)."""
        S, A, _ = self.fmap.table.shape
        mean = self.stats[h].feature_dot(self.theta(h))
        width = self._beta(h) * np.sqrt(
            np.maximum(self.stats[h].quad_forms(), 0.0))
        return (mean - width).reshape(S, A)


# ---------------------------------------------------------------------------
# Gaussian-process estimator
# ---------------------------------------------------------------------------

class GpCostModel:
    """Per-step GP regression over the feature set F (the S*A feature rows),
    with lower-confidence queries.

    The regularizer is 1 + 2/K with K declared up front.  A run feeds each
    step one observation per episode, so a step holds at most K of them
    (count[h]).  The state takes one of two forms, chosen once from the
    feature map, as GramState chooses its storage:

    * One-hot map: the rows are unit vectors e_j, between which the kernel
      is k(e_i, e_j) = a*[i = j] + c, so the posterior depends on the data
      only through the counts n[h] and cost sums G[h] of each column (both
      (H, d)); a and c are read from one kernel call at construction.  Only
      rows of the map are observed, by index, in O(1).  lcb_table is O(d)
      plus an O(S*A) gather, without a kernel call or a solve; the
      information gain follows from the matrix determinant lemma in O(d).
      Nothing is sized by K.
    * Dense map: per step, the points X[h], the Cholesky factor L[h] of
      K(X, X) + lam*I, alpha[h] = L^-1 g, the cross factor
      Z[h] = L^-1 K(X, F), logdet[h] of K(X, X) + lam*I and the posterior
      over F, mean[h] = Z^T alpha and var[h] = diag k(F, F) - colsum(Z^2),
      in arrays allocated once.  An observation (a row index, or a point
      off the map) appends one row to X, L, alpha and Z, with a pivot of at
      least lam, repeated points included: O(n^2) for the triangular solve
      plus O(n * S*A) for the cross-factor row (n points so far).
      lcb_table is O(S*A), without a kernel call or a solve.

    predict and posterior at other points are O(d) per point on the count
    path and solve against L, O(n^2) per point, on the dense one.
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
        self._cols = feature_map.unit_columns
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
        K, m = total_episodes, len(feature_map.flat)
        f_sq = feature_map.sq_norms
        self.logdet = np.zeros(horizon)
        self.mean = np.zeros((horizon, m))
        self.var = np.tile(self._k(f_sq, f_sq, f_sq), (horizon, 1))  # diag k(F, F)
        self.X = [np.zeros((K, d)) for _ in range(horizon)]
        self.L = [np.zeros((K, K)) for _ in range(horizon)]
        self.alpha = [np.zeros(K) for _ in range(horizon)]
        self.Z = [np.zeros((K, m)) for _ in range(horizon)]

    @property
    def one_hot(self) -> bool:
        return self._cols is not None

    @property
    def chol(self) -> list:
        """The n x n Cholesky factor of each step (views into its array);
        dense maps only."""
        return [L[:n, :n] for L, n in zip(self.L, self.count)]

    def num_obs(self, h: int) -> int:
        return int(self.count[h])

    def observe(self, h: int, y, cost: float) -> None:
        """Add the cost observed at y: a row index of the feature map, or,
        over a dense map, a point (the kernel is defined off the map too)."""
        if not abs(cost) <= 1.0:
            raise ValueError(f"observed cost {cost} outside [-1, 1]")
        n = int(self.count[h])
        if n == self.K:
            raise ValueError(f"step {h} already holds K={n} observations, "
                             "one per episode")
        if not self.one_hot:
            self._observe_point(h, n, y, cost)
        elif not isinstance(y, numbers.Integral):
            raise TypeError("a GP over a one-hot feature map observes rows of "
                            "the map by index, not points")
        else:
            self.fmap.row(y)  # the range check
            j = self._cols[y]
            self.n[h, j] += 1
            self.G[h, j] += cost
        self.count[h] = n + 1

    def _observe_point(self, h: int, n: int, y, cost: float) -> None:
        """Append y, the n-th point of step h, to the dense state."""
        L, alpha = self.L[h], self.alpha[h]
        y = self.fmap.row(y) if isinstance(y, numbers.Integral) else \
            np.asarray(y, dtype=float)
        yy = float(y @ y)
        kyy = float(self._k(yy, yy, yy))
        if not math.isfinite(kyy):
            raise ValueError("kernel does not evaluate finitely at the new point")
        if n == 0:
            z = np.zeros(0)
        else:
            kvec = self.kern(self.X[h][:n], y[None, :])[:, 0]
            # L holds only finite entries: a non-finite kvec makes z
            # non-finite, which fails the pivot check below before it is
            # stored.  So the (O(n^2)) finiteness scan of L is skipped.
            z = solve_triangular(L[:n, :n], kvec, lower=True,
                                 check_finite=False)
        # The new pivot is a Schur complement of K(X, X) + lam*I, at least
        # lam > 1 for any positive semi-definite kernel, repeated points
        # included, so only a broken or non-finite kernel fails this check.
        diag2 = kyy + self.lam - float(z @ z)
        if not diag2 > 0.0:
            raise RuntimeError("kernel matrix is not positive definite")
        diag = math.sqrt(diag2)
        a = (float(cost) - float(z @ alpha[:n])) / diag
        kyf = self._k(yy, self.fmap.sq_norms, self.fmap.flat @ y)  # k(y, F)
        r = (kyf - z @ self.Z[h][:n]) / diag
        self.X[h][n] = y
        L[n, :n] = z
        L[n, n] = diag
        alpha[n] = a
        self.Z[h][n] = r
        self.mean[h] += a * r
        self.var[h] -= r * r
        self.logdet[h] += 2.0 * math.log(diag)

    def info_gain(self, h: int) -> float:
        """Realized information gain 0.5 * ln det(I + lam^-1 KER).  On the
        count path, by the matrix determinant lemma,
        0.5 * [sum_j ln(1 + a n_j/lam) + ln(1 + c * sum_j n_j/(a n_j + lam))]."""
        if not self.one_hot:
            return 0.5 * (float(self.logdet[h]) - int(self.count[h]) * math.log(self.lam))
        n = self.n[h]
        return 0.5 * (float(np.log1p(n * (self._a / self.lam)).sum())
                      + math.log1p(self._c * float((n / (self._a * n + self.lam)).sum())))

    def _count_posterior(self, h: int, r=None, kyy=None):
        """Posterior mean and variance on the count path.

        Over the observed columns, K(X, X) + lam*I pushes through to
        M = diag(a + lam/n_j) + c*11^T acting on the column means G_j/n_j,
        and a query's kernel vector splits as k(y, e_j) = c + r_j.
        Sherman-Morrison inverts M without dividing by a: with
        w_j = n_j/(a n_j + lam), T = sum_j G_j/(a n_j + lam),
        s = c/(1 + c*sum_j w_j) and e = 1 - sum_j w_j r_j,

            mean = sum_j r_j G_j/(a n_j + lam) + s*T*e,
            var = k(y, y) - c - sum_j w_j r_j^2 + s*e^2.

        The sums run over all d columns: an unobserved one has
        w_j = G_j = 0.  With r None the queries are the d unit vectors,
        r = a*e_j, for which e = lam/(a n_j + lam) and
        var = a*e + s*e^2 in closed form, free of cancellation.
        """
        a, c, n = self._a, self._c, self.n[h]
        w_hat = 1.0 / (a * n + self.lam)
        g = self.G[h] * w_hat
        s = c / (1.0 + c * float((n * w_hat).sum()))
        if r is None:
            e = self.lam * w_hat
            return a * g + (s * float(g.sum())) * e, a * e + s * e * e
        w = n * w_hat
        e = 1.0 - r @ w
        return r @ g + (s * float(g.sum())) * e, kyy - c - (r * r) @ w + s * e * e

    def posterior(self, h: int, y: np.ndarray) -> tuple[float, float]:
        """Posterior mean and standard deviation at one query point."""
        mean, sigma = self.posterior_batch(h, np.asarray(y, dtype=float)[None, :])
        return float(mean[0]), float(sigma[0])

    def posterior_batch(self, h: int, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the rows of Y: from the
        counts over a one-hot map, solved against the Cholesky factor over
        a dense one."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        sq = _sq_norms(Y)
        kyy = self._k(sq, sq, sq)
        n = int(self.count[h])
        if n == 0:
            return np.zeros(len(Y)), np.sqrt(np.maximum(kyy, 0.0))
        if self.one_hot:
            r = self._k(sq[:, None], 1.0, Y) - self._c  # k(y, e_j) - c
            mean, var = self._count_posterior(h, r, kyy)
        else:
            kmat = self.kern(self.X[h][:n], Y)  # (n, m)
            zmat = solve_triangular(self.L[h][:n, :n], kmat, lower=True)
            mean = zmat.T @ self.alpha[h][:n]
            var = kyy - np.einsum("nm,nm->m", zmat, zmat)
        return mean, np.sqrt(np.maximum(var, 0.0))

    def _beta(self, h: int) -> float:
        return self.width_scale * gp_beta(self.info_gain(h), self.p / self.H)

    def predict(self, h: int, y: np.ndarray) -> CostEstimate:
        mean, sigma = self.posterior(h, y)
        width = self._beta(h) * sigma
        return CostEstimate(value=mean - width, mean=mean, width=width)

    def lcb_table(self, h: int) -> np.ndarray:
        """Lower-confidence costs over all (state, action) pairs, shape
        (S, A): per column from the counts, gathered through the map's
        columns, or read from the cached posterior over the feature set."""
        S, A, _ = self.fmap.table.shape
        if self.one_hot:
            mean, var = self._count_posterior(h)  # var >= 0 in closed form
            return (mean - self._beta(h) * np.sqrt(var))[self._cols].reshape(S, A)
        sigma = np.sqrt(np.maximum(self.var[h], 0.0))
        return (self.mean[h] - self._beta(h) * sigma).reshape(S, A)
