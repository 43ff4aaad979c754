"""Optimistic (lower-confidence) cost estimation.

Two estimators share one interface: a ridge regressor with a
dimension-dependent confidence width, and a Gaussian-process regressor whose
width scales with the accumulated information gain.  Both subtract their
width from the posterior mean, so an action looks safe until the data says
otherwise.  Both serve the (S, A) table of lower-confidence costs from state
they update per observation: the ridge model from the shared design
statistics, the GP from a cross factor L^-1 K(X, F) over the feature set F
that grows one row per observation (O(n * S*A) to add, O(S*A) to query).
Widths consume p/H internally (one union-bound share per step), and
width_scale is a practical multiplier on the theoretical width (1.0
reproduces the closed forms; benchmark configs shrink it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .envs import FeatureMap
from .lsvi import step_statistics

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


def _sqexp(d2: np.ndarray, inv2: float) -> np.ndarray:
    """Squared-exponential kernel values from squared distances."""
    return np.exp(-np.maximum(d2, 0.0) * inv2)


def make_kernel(name: str, lengthscale: float = 1.0) -> Callable:
    """Kernel registry: 'linear' (dot product) or 'sqexp' (squared
    exponential with the given lengthscale).  Returns k(A, B) -> (n, m)."""
    if name == "linear":
        def kern(a, b):
            return np.atleast_2d(a) @ np.atleast_2d(b).T
        return kern
    if name == "sqexp":
        if lengthscale <= 0:
            raise ValueError("lengthscale must be positive")
        inv2 = 1.0 / (2.0 * lengthscale ** 2)

        def kern(a, b):
            a, b = np.atleast_2d(a), np.atleast_2d(b)
            return _sqexp(_sq_norms(a)[:, None] + _sq_norms(b)[None, :]
                          - 2.0 * a @ b.T, inv2)
        return kern
    raise ValueError(f"unknown kernel {name!r} (choose 'linear' or 'sqexp')")


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
            stats = step_statistics(feature_map.flat, lam, horizon)
        elif len(stats) != horizon or any(g.lam != lam or g.d != self.d
                                          for g in stats):
            raise ValueError("shared statistics must match the cost model's "
                             "horizon, lam and feature dimension")
        self.stats = stats
        self.b = [np.zeros(self.d) for _ in range(horizon)]  # sum phi * cost

    def observe(self, h: int, phi: np.ndarray, cost: float) -> None:
        if abs(cost) > 1.0:
            raise ValueError(f"observed cost {cost} outside [-1, 1]")
        phi = np.asarray(phi, dtype=float)
        if self._owns_stats:
            self.stats[h].update(phi)
        self.b[h] += phi * cost

    def theta(self, h: int) -> np.ndarray:
        return self.stats[h].solve(self.b[h])

    def _beta(self, h: int, k: Optional[int], p: Optional[float],
              beta_value: Optional[float]) -> float:
        if beta_value is not None:
            return beta_value
        if k is None:
            k = self.stats[h].count + 1  # episode index: data through k-1
        p = self.p if p is None else p
        return self.width_scale * tilde_beta(self.lam, self.d, k, p / self.H)

    def predict(self, h: int, phi: np.ndarray, k: Optional[int] = None,
                p: Optional[float] = None,
                beta_value: Optional[float] = None) -> CostEstimate:
        phi = np.asarray(phi, dtype=float)
        mean = float(phi @ self.theta(h))
        width = self._beta(h, k, p, beta_value) * math.sqrt(self.stats[h].quad_form(phi))
        return CostEstimate(value=mean - width, mean=mean, width=width)

    def lcb_table(self, h: int, k: Optional[int] = None,
                  p: Optional[float] = None) -> np.ndarray:
        """Lower-confidence costs over all (state, action) pairs, shape (S, A)."""
        S, A, _ = self.fmap.table.shape
        mean = self.stats[h].feature_dot(self.theta(h))
        width = self._beta(h, k, p, None) * np.sqrt(
            np.maximum(self.stats[h].quad_forms(), 0.0))
        return (mean - width).reshape(S, A)


# ---------------------------------------------------------------------------
# Gaussian-process estimator
# ---------------------------------------------------------------------------

class _GpStep:
    """One step's GP data: the observed points X, log det, and in buffers
    that double when full the Cholesky factor L of K(X, X) + lam*I and
    alpha = L^-1 g.

    Given the prior variances diag k(F, F) of a feature set F, it also keeps
    the cross factor Z = L^-1 K(X, F) and the posterior over F it implies:
    mean = Z^T alpha and var = diag k(F, F) - colsum(Z^2).  L is lower
    triangular, so an observation appends one row to L, Z and alpha and
    leaves the earlier rows as they are.
    """

    def __init__(self, prior_var: Optional[np.ndarray], capacity: int):
        self.n = 0
        self.capacity = capacity  # rows allocated at the first observation
        self.logdet = 0.0  # log det(K(X, X) + lam I)
        # References, not copies: the bench passes rows of the feature
        # table, and a copied (n, d) buffer per step would add to peak RSS.
        self.X: list[np.ndarray] = []
        self.L = np.zeros((0, 0))
        self.alpha = np.zeros(0)
        self.Z = None if prior_var is None else np.zeros((0, len(prior_var)))
        self.mean = None if prior_var is None else np.zeros(len(prior_var))
        self.var = prior_var

    def append(self, y: np.ndarray, z: np.ndarray, diag: float, a: float,
               r: Optional[np.ndarray]) -> None:
        """Add the point y with factor row (z, diag), alpha entry a and,
        with a feature set, cross-factor row r."""
        n = self.n
        if n == len(self.alpha):
            cap = max(self.capacity, 2 * n)
            self.L = _grown(self.L, (cap, cap))
            self.alpha = _grown(self.alpha, (cap,))
            if self.Z is not None:
                self.Z = _grown(self.Z, (cap, self.Z.shape[1]))
        self.X.append(y)
        self.L[n, :n] = z
        self.L[n, n] = diag
        self.alpha[n] = a
        if r is not None:
            self.Z[n] = r
            self.mean += a * r
            self.var -= r * r
        self.logdet += 2.0 * math.log(diag)
        self.n = n + 1


def _grown(buf: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.zeros(shape)
    out[tuple(map(slice, buf.shape))] = buf
    return out


class GpCostModel:
    """Per-step GP regression with lower-confidence queries.

    The regularizer is 1 + 2/K with K declared up front.  A Cholesky factor
    L of (KER + lam*I) is extended one row per observation; the
    log-determinant (hence the information gain) is maintained from the new
    diagonal entry, and alpha = L^-1 g one entry at a time.  The
    regularizer keeps every pivot at least lam, repeated points included.

    With a feature map F (S*A points) each step also caches the cross factor
    L^-1 K(X, F) and the running posterior mean and variance over F.  An
    observation costs O(n^2) for the triangular solve plus O(n * S*A) for
    the new cross-factor row (n observations so far), and lcb_table is
    O(S*A): no kernel call and no solve.  predict and posterior at other
    points solve against L: O(n^2) per point.
    """

    def __init__(self, kernel: str, total_episodes: int, horizon: int,
                 lengthscale: float = 1.0, p: float = 0.1,
                 width_scale: float = 1.0,
                 feature_map: Optional[FeatureMap] = None):
        if total_episodes < 1:
            raise ValueError("total_episodes must be >= 1")
        self.kernel_name = kernel
        self.kern = make_kernel(kernel, lengthscale)
        self._inv2 = 1.0 / (2.0 * lengthscale ** 2) if kernel == "sqexp" else None
        self.H = horizon
        self.lam = 1.0 + 2.0 / total_episodes
        self.p = p
        self.width_scale = width_scale
        self.fmap = feature_map
        prior_var = None
        if feature_map is not None:
            self._f_sq = _sq_norms(feature_map.flat)
            prior_var = self._diag(self._f_sq)
        # Each step sees one observation per episode in a run, so buffers of
        # K rows are allocated once and never regrown there.
        self._steps = [_GpStep(None if prior_var is None else prior_var.copy(),
                               total_episodes) for _ in range(horizon)]

    @property
    def chol(self) -> list:
        """The n x n Cholesky factor of each step (views into its buffer)."""
        return [st.L[:st.n, :st.n] for st in self._steps]

    def num_obs(self, h: int) -> int:
        return self._steps[h].n

    def _diag(self, sq):
        """k(y, y) from the squared norm |y|^2 (a scalar or an array)."""
        if self.kernel_name == "linear":
            return sq
        return _sqexp(sq - sq, self._inv2)  # 1, or nan at a non-finite point

    def _feature_row(self, y: np.ndarray) -> np.ndarray:
        """k(y, F) over the feature set, from the cached squared norms of F."""
        feats = self.fmap.flat
        if self.kernel_name == "linear":
            return feats @ y
        return _sqexp(float(y @ y) + self._f_sq - 2.0 * (feats @ y), self._inv2)

    def observe(self, h: int, y: np.ndarray, cost: float) -> None:
        if abs(cost) > 1.0:
            raise ValueError(f"observed cost {cost} outside [-1, 1]")
        y = np.asarray(y, dtype=float)
        kyy = float(self._diag(float(y @ y)))
        if not math.isfinite(kyy):
            raise ValueError("kernel does not evaluate finitely at the new point")
        st = self._steps[h]
        n = st.n
        if n == 0:
            z = np.zeros(0)
        else:
            kvec = self.kern(np.array(st.X), y[None, :])[:, 0]
            # L holds only finite entries: a non-finite kvec makes z
            # non-finite, which fails the pivot check below before it is
            # stored.  So the (O(n^2)) finiteness scan of L is skipped.
            z = solve_triangular(st.L[:n, :n], kvec, lower=True,
                                 check_finite=False)
        # The new pivot is a Schur complement of K(X, X) + lam*I, at least
        # lam > 1 for any positive semi-definite kernel, repeated points
        # included, so only a broken or non-finite kernel fails this check.
        diag2 = kyy + self.lam - float(z @ z)
        if not diag2 > 0.0:
            raise RuntimeError("kernel matrix is not positive definite")
        diag = math.sqrt(diag2)
        a = (float(cost) - float(z @ st.alpha[:n])) / diag
        r = None
        if st.Z is not None:
            r = (self._feature_row(y) - z @ st.Z[:n]) / diag
        st.append(y, z, diag, a, r)

    def info_gain(self, h: int) -> float:
        """Realized information gain 0.5 * ln det(I + lam^-1 KER)."""
        st = self._steps[h]
        return 0.5 * (st.logdet - st.n * math.log(self.lam))

    def posterior(self, h: int, y: np.ndarray) -> tuple[float, float]:
        """Posterior mean and standard deviation at one query point."""
        mean, sigma = self.posterior_batch(h, np.asarray(y, dtype=float)[None, :])
        return float(mean[0]), float(sigma[0])

    def posterior_batch(self, h: int, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the rows of Y, solved
        against the Cholesky factor."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        kyy = self._diag(_sq_norms(Y))
        st = self._steps[h]
        n = st.n
        if n == 0:
            return np.zeros(len(Y)), np.sqrt(np.maximum(kyy, 0.0))
        kmat = self.kern(np.array(st.X), Y)  # (n, m)
        zmat = solve_triangular(st.L[:n, :n], kmat, lower=True)
        mean = zmat.T @ st.alpha[:n]
        var = kyy - np.einsum("nm,nm->m", zmat, zmat)
        return mean, np.sqrt(np.maximum(var, 0.0))

    def _beta(self, h: int, p: Optional[float],
              beta_value: Optional[float]) -> float:
        if beta_value is not None:
            return beta_value
        p = self.p if p is None else p
        return self.width_scale * gp_beta(self.info_gain(h), p / self.H)

    def predict(self, h: int, y: np.ndarray, p: Optional[float] = None,
                beta_value: Optional[float] = None) -> CostEstimate:
        mean, sigma = self.posterior(h, y)
        width = self._beta(h, p, beta_value) * sigma
        return CostEstimate(value=mean - width, mean=mean, width=width)

    def lcb_table(self, h: int, k: Optional[int] = None,
                  p: Optional[float] = None) -> np.ndarray:
        """Lower-confidence costs over all (state, action) pairs, shape
        (S, A), read from the cached posterior over the feature set."""
        if self.fmap is None:
            raise ValueError("lcb_table needs a feature map at construction")
        S, A, _ = self.fmap.table.shape
        st = self._steps[h]
        sigma = np.sqrt(np.maximum(st.var, 0.0))
        return (st.mean - self._beta(h, p, None) * sigma).reshape(S, A)
