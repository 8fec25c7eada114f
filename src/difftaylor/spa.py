"""Single-point approximation diagnostics.

The samplers replace the exact mixture score by the score of a single data
point.  This module measures how good that replacement is as a function of the
noise level nu: relative L2 error, cosine similarity, and the entropy of the
posterior over data points, together with the closed-form worst-case bounds
rel_l2 <= sqrt((1-nu)/nu) for data in a unit box.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import entr

from difftaylor import rng
from difftaylor.score import PointCloudData, _mixture_posterior


@dataclass(frozen=True)
class SpaReport:
    nu: float
    rel_l2: float
    cossim: float
    entropy_nats: float
    bound_rel_l2: float
    bound_cossim: float


def bounds(nu: float) -> tuple[float, float]:
    """Worst-case (rel_l2, cossim) bounds for unit-box data at noise level nu."""
    r = math.sqrt((1.0 - nu) / nu)
    return r, 1.0 - 0.5 * (1.0 + r) * (1.0 - nu) / nu


def load_idx(path: str) -> PointCloudData:
    """Load an IDX file of unsigned bytes (images or labels) as points in [0,1].

    Big-endian magic 0x00000803 (3-dim: count x rows x cols) or 0x00000801
    (1-dim vector); each image is flattened and scaled by 1/255.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise ValueError(f"truncated IDX file: {len(raw)} bytes, need at least 8")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == 0x00000803:
        ndim = 3
    elif magic == 0x00000801:
        ndim = 1
    else:
        raise ValueError(f"bad IDX magic 0x{magic:08x} at byte offset 0")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ValueError(f"truncated IDX header at byte offset {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = dims[0]
    per_item = int(np.prod(dims[1:])) if ndim > 1 else 1
    expected = header + count * per_item
    if len(raw) < expected:
        raise ValueError(f"truncated IDX data at byte offset {len(raw)}, expected {expected}")
    data = np.frombuffer(raw[header:expected], dtype=np.uint8)
    pts = data.reshape(count, per_item).astype(np.float64) / 255.0
    return PointCloudData(points=pts)


def _metrics_batch(
    data: PointCloudData, indices: np.ndarray, nu: float, seed: int, trial0: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (rel_l2, cossim, entropy) for noised draws of chosen points."""
    trials = np.arange(trial0, trial0 + len(indices), dtype=np.uint64)
    g = rng.counter_normal(seed, rng.PURPOSE_TRIAL, trials[:, None],
                           np.arange(data.d, dtype=np.uint64))
    x0 = data.points[indices]
    x = math.sqrt(1.0 - nu) * x0 + math.sqrt(nu) * g  # (trials, d)

    single = (x - math.sqrt(1.0 - nu) * x0) / math.sqrt(nu)  # equals sqrt(nu) g / sqrt(nu)
    w, mix = _mixture_posterior(x, nu, data)  # (trials, n), (trials, d)

    sn = np.linalg.norm(single, axis=-1)
    mn = np.linalg.norm(mix, axis=-1)
    if np.any(sn == 0.0):
        raise ZeroDivisionError("degenerate zero single-point score")
    rel_l2 = np.linalg.norm(mix - single, axis=-1) / sn
    cossim = np.sum(single * mix, axis=-1) / (sn * np.maximum(mn, 1e-300))
    return rel_l2, cossim, entr(w).sum(axis=-1)


def spa_point_metrics(
    data: PointCloudData, index: int, nu: float, seed: int = 0, trial: int = 0
) -> SpaReport:
    """Metrics for one noised draw of data point ``index`` at noise level nu."""
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0,1), got {nu}")
    if not (0 <= index < len(data.points)):
        raise ValueError(f"index {index} out of range for {len(data.points)} points")
    rel_l2, cossim, ent = _metrics_batch(
        data, np.asarray([index]), nu, seed, trial0=trial
    )
    b_rel, b_cos = bounds(nu)
    return SpaReport(
        nu=nu, rel_l2=float(rel_l2[0]), cossim=float(cossim[0]),
        entropy_nats=float(ent[0]), bound_rel_l2=b_rel, bound_cossim=b_cos,
    )


def spa_sweep(
    data: PointCloudData,
    nu_grid,
    trials: int,
    seed: int = 0,
    subsample_cap: int = 10_000,
    raw: bool = False,
):
    """Aggregate SPA metrics over a grid of noise levels.

    Returns a list of row dicts matching the sweep CSV columns; with
    ``raw=True`` additionally returns per-trial rows.  Datasets larger than
    ``subsample_cap`` points are deterministically subsampled for runtime.
    """
    nu_grid = list(nu_grid)
    if not nu_grid:
        raise ValueError("nu grid must be nonempty")
    if any(not (0.0 < nu < 1.0) for nu in nu_grid):
        raise ValueError("nu grid values must lie in (0,1)")
    pts = data.points
    if len(pts) > subsample_cap:
        sel = (
            rng.counter_bits(seed, 97, np.arange(subsample_cap, dtype=np.uint64))
            % np.uint64(len(pts))
        ).astype(np.int64)
        data = PointCloudData(points=pts[sel])
        pts = data.points
    rows = []
    raw_rows = []
    for gi, nu in enumerate(nu_grid):
        idx_bits = rng.counter_bits(seed, 11, gi, np.arange(trials, dtype=np.uint64))
        indices = (idx_bits % np.uint64(len(pts))).astype(np.int64)
        rel_l2, cossim, ent = _metrics_batch(
            data, indices, nu, seed, trial0=gi * trials
        )
        b_rel, b_cos = bounds(nu)
        rows.append({
            "nu": nu,
            "rel_l2_mean": float(rel_l2.mean()),
            "rel_l2_p5": float(np.percentile(rel_l2, 5)),
            "rel_l2_p95": float(np.percentile(rel_l2, 95)),
            "cossim_mean": float(cossim.mean()),
            "cossim_p5": float(np.percentile(cossim, 5)),
            "cossim_p95": float(np.percentile(cossim, 95)),
            "entropy_mean": float(ent.mean()),
            "bound_rel_l2": b_rel,
            "bound_cossim": b_cos,
        })
        if raw:
            for j in range(trials):
                raw_rows.append({
                    "nu": nu, "trial": j, "rel_l2": float(rel_l2[j]),
                    "cossim": float(cossim[j]), "entropy": float(ent[j]),
                })
    return (rows, raw_rows) if raw else rows
