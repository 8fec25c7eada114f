"""Analytic score oracles in the network convention S(x,t) = -sqrt(nu) grad log p.

With a known data distribution the noised marginal is a Gaussian or a Gaussian
mixture, so S can be computed in closed form.  All solvers consume this sign
and scale convention: for a single data point x0 the oracle returns
(x - sqrt(1-nu) x0)/sqrt(nu), which grows like x/sqrt(nu) near t=0.

The one softmax over squared distances is the kernel ``_gmm_logits`` with its
reductions ``_gmm_posterior`` and ``_gmm_log_density``; the mixture oracle,
``spa`` and the ``fpe`` potential all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import logsumexp, softmax

from difftaylor.schedules import NoiseSchedule, eval_schedule


@dataclass(frozen=True)
class PointCloudData:
    """Discrete data distribution: support points and optional weights."""

    points: np.ndarray  # (n, d)
    weights: Optional[np.ndarray] = None  # (n,), sums to 1

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", pts)
        if pts.shape[0] == 0:
            raise ValueError("point cloud must be nonempty")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (pts.shape[0],):
                raise ValueError("weights must have one entry per point")
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("weights must be nonnegative and sum to 1")
            object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def log_weights(self) -> np.ndarray:
        n = self.points.shape[0]
        if self.weights is None:
            return np.full(n, -np.log(n))
        with np.errstate(divide="ignore"):
            return np.log(self.weights)


def _nu(sched: NoiseSchedule, t: float) -> float:
    nu = eval_schedule(sched, t).nu
    if nu <= 0.0:
        raise ZeroDivisionError(f"score undefined at nu(t)={nu} (t={t})")
    return nu


def score_delta(x: np.ndarray, t: float, x0: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Score for a point mass at x0: (x - sqrt(1-nu) x0)/sqrt(nu)."""
    nu = _nu(sched, t)
    x = np.asarray(x, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    return (x - np.sqrt(1.0 - nu) * x0) / np.sqrt(nu)


def score_gaussian(
    x: np.ndarray, t: float, mean: np.ndarray, var: float, sched: NoiseSchedule
) -> np.ndarray:
    """Score for N(mean, var I) data: sqrt(nu)(x - sqrt(1-nu) mean)/((1-nu)var + nu)."""
    if var < 0:
        raise ValueError(f"var must be nonnegative, got {var}")
    nu = _nu(sched, t)
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    return np.sqrt(nu) * (x - np.sqrt(1.0 - nu) * mean) / ((1.0 - nu) * var + nu)


def _gmm_logits(x: np.ndarray, centers: np.ndarray, var: float, log_weights=0.0) -> np.ndarray:
    """log w_i - |x - c_i|^2 / (2 var) over the centers c_i, shape (..., n)."""
    diff = np.asarray(x, dtype=np.float64)[..., None, :] - centers  # (..., n, d)
    return -0.5 * np.sum(diff * diff, axis=-1) / var + log_weights


def _gmm_posterior(logits: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax weights over the centers and the posterior mean sum_i w_i c_i."""
    w = softmax(logits, axis=-1)
    return w, w @ centers


def _gmm_log_density(x: np.ndarray, centers: np.ndarray, var: float) -> np.ndarray:
    """log sum_i exp(-|x - c_i|^2 / (2 var)), shape (...)."""
    return logsumexp(_gmm_logits(x, centers, var), axis=-1)


def _log_posterior(x: np.ndarray, nu: float, data: PointCloudData) -> np.ndarray:
    """Unnormalized log posterior weights over data points, shape (..., n)."""
    return _gmm_logits(x, np.sqrt(1.0 - nu) * data.points, nu, data.log_weights)


def _mixture_posterior(x: np.ndarray, nu: float, data: PointCloudData):
    """(posterior weights, exact mixture score) of x at noise level nu."""
    w, mean_center = _gmm_posterior(_log_posterior(x, nu, data), np.sqrt(1.0 - nu) * data.points)
    return w, (x - mean_center) / np.sqrt(nu)


def posterior_weights(
    x: np.ndarray, t: float, data: PointCloudData, sched: NoiseSchedule
) -> np.ndarray:
    """Softmax responsibilities of each data point for the noised sample x."""
    return _mixture_posterior(x, _nu(sched, t), data)[0]


def score_mixture_exact(
    x: np.ndarray, t: float, data: PointCloudData, sched: NoiseSchedule
) -> np.ndarray:
    """Exact mixture score: the posterior-weighted average of per-point scores."""
    return _mixture_posterior(x, _nu(sched, t), data)[1]


@dataclass(frozen=True)
class ScoreField:
    """Callable score source with dimension metadata.

    ``fn(x, t, sched)`` must be pure and vectorized over leading axes of x.
    External evaluators (e.g. a trained network wrapper) plug in through the
    same slot.
    """

    d: int
    kind: str
    fn: Callable[[np.ndarray, float, NoiseSchedule], np.ndarray] = field(repr=False)

    def score(self, x: np.ndarray, t: float, sched: NoiseSchedule) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.d:
            raise ValueError(f"score field expects dimension {self.d}, got {x.shape[-1]}")
        out = self.fn(x, t, sched)
        if out.shape != x.shape:
            raise ValueError("score field returned wrong shape")
        return out


def delta_field(x0: Sequence[float]) -> ScoreField:
    x0 = np.asarray(x0, dtype=np.float64)
    return ScoreField(d=x0.shape[-1], kind="delta",
                      fn=lambda x, t, sched: score_delta(x, t, x0, sched))


def gaussian_field(mean: Sequence[float], var: float) -> ScoreField:
    mean = np.asarray(mean, dtype=np.float64)
    return ScoreField(d=mean.shape[-1], kind="gaussian",
                      fn=lambda x, t, sched: score_gaussian(x, t, mean, var, sched))


def mixture_field(data: PointCloudData) -> ScoreField:
    return ScoreField(d=data.d, kind="mixture",
                      fn=lambda x, t, sched: score_mixture_exact(x, t, data, sched))


def load_point_cloud_csv(path: str) -> PointCloudData:
    """Load a point cloud from CSV, one point per row."""
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    return PointCloudData(points=pts)
