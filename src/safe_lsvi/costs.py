"""Optimistic (lower-confidence) cost estimation.

Two estimators share one interface: a ridge regressor with a
dimension-dependent confidence width, and a Gaussian-process regressor whose
width scales with the accumulated information gain.  Both subtract their
width from the posterior mean, so an action looks safe until the data says
otherwise.  Widths consume p/H internally (one union-bound share per step),
and width_scale is a practical multiplier on the theoretical width (1.0
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

JITTER_START = 1e-10
JITTER_MAX = 1e-6


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
            d2 = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
                  - 2.0 * a @ b.T)
            return np.exp(-np.maximum(d2, 0.0) * inv2)
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

class GpCostModel:
    """Per-step GP regression with lower-confidence queries.

    The regularizer is 1 + 2/K with K declared up front.  A Cholesky factor
    of (KER + lam*I) is extended one row per observation; the log-determinant
    (hence the information gain) is maintained from the new diagonal entry.
    Near-duplicate points are absorbed by escalating jitter before a non-PD
    kernel becomes a hard error.
    """

    def __init__(self, kernel: str, total_episodes: int, horizon: int,
                 lengthscale: float = 1.0, p: float = 0.1,
                 width_scale: float = 1.0,
                 feature_map: Optional[FeatureMap] = None):
        if total_episodes < 1:
            raise ValueError("total_episodes must be >= 1")
        self.kernel_name = kernel
        self.kern = make_kernel(kernel, lengthscale)
        self.H = horizon
        self.lam = 1.0 + 2.0 / total_episodes
        self.p = p
        self.width_scale = width_scale
        self.fmap = feature_map
        self.points: list[list[np.ndarray]] = [[] for _ in range(horizon)]
        self.costs: list[list[float]] = [[] for _ in range(horizon)]
        self.chol: list[Optional[np.ndarray]] = [None] * horizon
        self._logdet = [0.0] * horizon  # log det(KER + lam I)
        self._alpha: list[Optional[np.ndarray]] = [None] * horizon

    def num_obs(self, h: int) -> int:
        return len(self.points[h])

    def observe(self, h: int, y: np.ndarray, cost: float) -> None:
        if abs(cost) > 1.0:
            raise ValueError(f"observed cost {cost} outside [-1, 1]")
        y = np.asarray(y, dtype=float)
        kyy = float(self.kern(y[None, :], y[None, :])[0, 0])
        if not math.isfinite(kyy):
            raise ValueError("kernel does not evaluate finitely at the new point")
        n = self.num_obs(h)
        if n == 0:
            z = np.zeros(0)
        else:
            kvec = self.kern(np.array(self.points[h]), y[None, :])[:, 0]
            z = solve_triangular(self.chol[h], kvec, lower=True)
        diag2 = kyy + self.lam - float(z @ z)
        if diag2 <= 0.0:
            jitter = JITTER_START
            while diag2 + jitter <= 0.0 and jitter < JITTER_MAX:
                jitter *= 10.0
            diag2 += jitter
            if diag2 <= 0.0:
                raise RuntimeError("kernel matrix is not positive definite")
        diag = math.sqrt(diag2)
        new_chol = np.zeros((n + 1, n + 1))
        if n:
            new_chol[:n, :n] = self.chol[h]
            new_chol[n, :n] = z
        new_chol[n, n] = diag
        self.chol[h] = new_chol
        self._logdet[h] += 2.0 * math.log(diag)
        self.points[h].append(y)
        self.costs[h].append(float(cost))
        self._alpha[h] = None

    def info_gain(self, h: int) -> float:
        """Realized information gain 0.5 * ln det(I + lam^-1 KER)."""
        n = self.num_obs(h)
        return 0.5 * (self._logdet[h] - n * math.log(self.lam))

    def _solved_costs(self, h: int) -> np.ndarray:
        # L^{-1} g, cached between observations
        if self._alpha[h] is None:
            self._alpha[h] = solve_triangular(self.chol[h],
                                              np.array(self.costs[h]), lower=True)
        return self._alpha[h]

    def posterior(self, h: int, y: np.ndarray) -> tuple[float, float]:
        """Posterior mean and standard deviation at one query point."""
        mean, sigma = self.posterior_batch(h, np.asarray(y, dtype=float)[None, :])
        return float(mean[0]), float(sigma[0])

    def posterior_batch(self, h: int, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        kyy = np.array([float(self.kern(y[None, :], y[None, :])[0, 0]) for y in Y])
        n = self.num_obs(h)
        if n == 0:
            return np.zeros(len(Y)), np.sqrt(np.maximum(kyy, 0.0))
        kmat = self.kern(np.array(self.points[h]), Y)  # (n, m)
        zmat = solve_triangular(self.chol[h], kmat, lower=True)
        mean = zmat.T @ self._solved_costs(h)
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
        if self.fmap is None:
            raise ValueError("lcb_table needs a feature map at construction")
        S, A, _ = self.fmap.table.shape
        mean, sigma = self.posterior_batch(h, self.fmap.flat)
        return (mean - self._beta(h, p, None) * sigma).reshape(S, A)
