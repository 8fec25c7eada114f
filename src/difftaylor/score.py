"""Analytic score oracles in the network convention S(x,t) = -sqrt(nu) grad log p.

With a known data distribution the noised marginal is a Gaussian or a Gaussian
mixture, so S can be computed in closed form.  All solvers consume this sign
and scale convention: for a single data point x0 the oracle returns
(x - sqrt(1-nu) x0)/sqrt(nu), which grows like x/sqrt(nu) near t=0.

The one softmax over squared distances is the kernel ``_gmm_logits`` with its
reduction ``_gmm_posterior``; the mixture oracle and ``spa`` call it.  The
mixture posterior builds the logits a block of rows at a time, so its (rows,
n, d) difference tensor stays near ``BLOCK_BYTES``, then takes the softmax and
the mean over all rows at once; its bits do not depend on the block size.  The
``fpe`` potential computes the same softmax well-major for its five wells, and
a test holds its gradient to this kernel's bits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import softmax

from difftaylor.schedules import NoiseSchedule, eval_schedule

# size of the difference tensor of one row block of the mixture posterior
BLOCK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class PointCloudData:
    """Discrete data distribution: support points and optional weights."""

    points: np.ndarray  # (n, d)
    weights: Optional[np.ndarray] = None  # (n,), sums to 1

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", pts)
        if pts.size == 0:
            raise ValueError("point cloud must be nonempty")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise ValueError(f"point cloud row {bad[0]} holds a nan or inf")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (pts.shape[0],):
                raise ValueError("weights must have one entry per point")
            if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
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


# big-endian IDX magic of unsigned-byte data -> number of dimensions
IDX_MAGICS = {0x00000801: 1, 0x00000803: 3}


def load_idx(path: str) -> PointCloudData:
    """Load an IDX file of unsigned bytes (3-dim images or a 1-dim vector) as
    points in [0,1]: each image is flattened and scaled by 1/255."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise ValueError(f"truncated IDX file: {len(raw)} bytes, need at least 8")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic not in IDX_MAGICS:
        raise ValueError(f"bad IDX magic 0x{magic:08x} at byte offset 0")
    ndim = IDX_MAGICS[magic]
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ValueError(f"truncated IDX header at byte offset {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count, per_item = dims[0], int(np.prod(dims[1:]))
    expected = header + count * per_item
    if len(raw) < expected:
        raise ValueError(f"truncated IDX data at byte offset {len(raw)}, expected {expected}")
    data = np.frombuffer(raw[header:expected], dtype=np.uint8).reshape(count, per_item)
    return PointCloudData(points=data / 255.0)


def load_point_cloud(path: str) -> PointCloudData:
    """Load a dataset by its content: IDX if it starts with an IDX magic, else CSV."""
    with open(path, "rb") as f:
        head = f.read(4)
    if len(head) == 4 and struct.unpack(">I", head)[0] in IDX_MAGICS:
        return load_idx(path)
    return PointCloudData(points=np.loadtxt(path, delimiter=",", ndmin=2))


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
    return (x - math.sqrt(1.0 - nu) * x0) / math.sqrt(nu)


def score_gaussian(
    x: np.ndarray, t: float, mean: np.ndarray, var: float, sched: NoiseSchedule
) -> np.ndarray:
    """Score for N(mean, var I) data: sqrt(nu)(x - sqrt(1-nu) mean)/((1-nu)var + nu)."""
    if var < 0:
        raise ValueError(f"var must be nonnegative, got {var}")
    nu = _nu(sched, t)
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    return math.sqrt(nu) * (x - math.sqrt(1.0 - nu) * mean) / ((1.0 - nu) * var + nu)


def _gmm_logits(x: np.ndarray, centers: np.ndarray, var: float, log_weights=0.0) -> np.ndarray:
    """log w_i - |x - c_i|^2 / (2 var) over the centers c_i, shape (..., n)."""
    diff = np.asarray(x, dtype=np.float64)[..., None, :] - centers  # (..., n, d)
    np.multiply(diff, diff, out=diff)
    return -0.5 * np.sum(diff, axis=-1) / var + log_weights


def _gmm_posterior(logits: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax weights over the centers and the posterior mean sum_i w_i c_i."""
    w = softmax(logits, axis=-1)
    return w, w @ centers


def _log_posterior(x: np.ndarray, nu: float, data: PointCloudData) -> np.ndarray:
    """Unnormalized log posterior weights over data points, shape (..., n)."""
    return _gmm_logits(x, np.sqrt(1.0 - nu) * data.points, nu, data.log_weights)


def _mixture_posterior(x: np.ndarray, nu: float, data: PointCloudData):
    """(posterior weights, exact mixture score) of x at noise level nu.

    The logits are built one block of rows at a time; they are row-invariant,
    and the softmax and the mean see all rows, so the bits match one call.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
    step = max(1, BLOCK_BYTES // data.points.nbytes)
    logits = np.concatenate([_log_posterior(rows[i:i + step], nu, data)
                             for i in range(0, max(len(rows), 1), step)])
    w, mean_center = _gmm_posterior(logits.reshape(x.shape[:-1] + logits.shape[-1:]),
                                    np.sqrt(1.0 - nu) * data.points)
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
    fn: Callable[[np.ndarray, float, NoiseSchedule], np.ndarray] = field(repr=False)

    def score(self, x: np.ndarray, t: float, sched: NoiseSchedule) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.d:
            raise ValueError(f"score field expects dimension {self.d}, got {x.shape[-1]}")
        out = self.fn(x, t, sched)
        if out.shape != x.shape:
            raise ValueError("score field returned wrong shape")
        return out


def _finite_center(center: Sequence[float], name: str) -> np.ndarray:
    c = np.asarray(center, dtype=np.float64)
    if not np.isfinite(c).all():
        raise ValueError(f"{name} must be finite, got {c.tolist()}")
    return c


def delta_field(x0: Sequence[float]) -> ScoreField:
    x0 = _finite_center(x0, "delta point x0")
    return ScoreField(d=x0.shape[-1], fn=lambda x, t, sched: score_delta(x, t, x0, sched))


def gaussian_field(mean: Sequence[float], var: float) -> ScoreField:
    mean = _finite_center(mean, "gaussian mean")
    if not 0.0 <= var < math.inf:
        raise ValueError(f"gaussian var must be finite and nonnegative, got {var}")
    return ScoreField(d=mean.shape[-1],
                      fn=lambda x, t, sched: score_gaussian(x, t, mean, var, sched))


def mixture_field(data: PointCloudData) -> ScoreField:
    return ScoreField(d=data.d, fn=lambda x, t, sched: score_mixture_exact(x, t, data, sched))
