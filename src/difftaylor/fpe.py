"""Langevin particles versus an explicit Fokker-Planck solver in 2-D.

The potential is a negative log Gaussian mixture with five wells on the unit
circle; grad U is the posterior pull (x - sum_k w_k c_k) / sigma^2 toward the
wells.  Both are computed well-major, one pass per well over the coordinate
columns: for five wells in 2-D that is several times faster than a
(rows, wells, 2) difference tensor, with the same bits.  Particles follow
dx = -grad U dt + sqrt(2D) dB; the density follows
dp/dt = div(grad U p + D grad p).  Both start from N(0, I) and should agree,
which is checked by total-variation distance after binning the particles on
the solver grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from difftaylor import rng

# conservative explicit stencil is stable for h <= _CFL_CONST * cell^2 / D
_CFL_CONST = 0.2


@dataclass(frozen=True)
class GmmPotential:
    """U(x) = -log sum_k exp(-|x - c_k|^2 / (2 sigma^2)), five unit-circle wells."""

    sigma: float = 0.1
    D: float = 5.0
    centers: np.ndarray = field(init=False)

    def __post_init__(self):
        # the wells divide by sigma**2, a Python float power that raises on overflow
        if not 0.0 < self.sigma * self.sigma < math.inf:
            raise ValueError(f"sigma={self.sigma} is out of range: its square "
                             "overflows or underflows to 0")
        ang = 2.0 * math.pi * np.arange(5) / 5.0
        object.__setattr__(self, "centers", np.stack([np.cos(ang), np.sin(ang)], axis=1))

    def _logits(self, xy: np.ndarray) -> np.ndarray:
        """-|x - c_k|^2 / (2 sigma^2) for each well k, well-major: shape (k, ...).

        The squares are summed in column order, as ``np.sum`` does over a short
        last axis, and ``+ 0.0`` stands for the kernel's zero log weights, so
        the bits match the score module's (..., k, d) kernel.
        """
        cols = [xy[..., j] for j in range(xy.shape[-1])]
        return np.stack([-0.5 * sum((x - cj) ** 2 for x, cj in zip(cols, c)) / self.sigma**2
                         + 0.0 for c in self.centers])

    def energy(self, xy: np.ndarray) -> np.ndarray:
        """U at points of shape (..., 2)."""
        return -logsumexp(self._logits(np.asarray(xy, dtype=np.float64)), axis=0)

    def grad(self, xy: np.ndarray) -> np.ndarray:
        """grad U = (x - sum_k w_k c_k) / sigma^2, the posterior pull toward the wells."""
        xy = np.asarray(xy, dtype=np.float64)
        w = self._logits(xy)
        w -= w.max(axis=0)
        np.exp(w, out=w)
        w /= w.sum(axis=0)
        return (xy - np.moveaxis(w, 0, -1) @ self.centers) / self.sigma**2


@dataclass
class DensityGrid:
    """Cell-centered density on the square [-L, L]^2 with n x n cells."""

    L: float
    n: int
    values: np.ndarray  # (n, n), axis 0 = x, axis 1 = y

    @property
    def cell(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def centers(self) -> np.ndarray:
        return -self.L + (np.arange(self.n) + 0.5) * self.cell

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.cell**2)


def gaussian_grid(L: float = 2.0, n: int = 64, var: float = 1.0) -> DensityGrid:
    """Standard-normal-ish initial density, normalized on the grid."""
    c = -L + (np.arange(n) + 0.5) * (2.0 * L / n)
    with np.errstate(over="ignore"):  # c * c may overflow; exp(-inf) = 0 is then right
        gx = np.exp(-0.5 * c * c / var)
    vals = np.outer(gx, gx)
    if not vals.any():
        raise ValueError(f"grid extent L={L} is too wide for {n} cells: the initial "
                         "density underflows to 0 in every cell")
    grid = DensityGrid(L=L, n=n, values=vals)
    grid.values /= grid.mass
    return grid


def stationary_grid(pot: GmmPotential, L: float = 2.0, n: int = 64) -> DensityGrid:
    """Normalized e^{-U/D} on the grid (the stationary density)."""
    c = -L + (np.arange(n) + 0.5) * (2.0 * L / n)
    X, Y = np.meshgrid(c, c, indexing="ij")
    vals = np.exp(-pot.energy(np.stack([X, Y], axis=-1)) / pot.D)
    grid = DensityGrid(L=L, n=n, values=vals)
    grid.values /= grid.mass
    return grid


def langevin_simulate(
    pot: GmmPotential,
    n_particles: int,
    h: float,
    n_steps: int,
    seed: int = 0,
    snapshot_every: int = 50,
) -> list[tuple[int, np.ndarray]]:
    """Euler-Maruyama particles for dx = -grad U dt + sqrt(2D) dB from N(0, I).

    The particles are checked to be finite at each snapshot; a step that
    throws them past the float range (a tiny sigma makes grad U huge) is a
    ValueError naming sigma, h and the snapshot step.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    stream = rng.TrajectoryStream(seed, rng.PURPOSE_PARTICLE,
                                  np.arange(n_particles, dtype=np.uint64))
    x = stream.normals(0, 2)
    amp = math.sqrt(2.0 * pot.D * h)
    snaps = [(0, x.copy())]
    for i in range(1, n_steps + 1):
        w = stream.normals(i, 2)
        x = x - h * pot.grad(x) + amp * w
        if i % snapshot_every == 0 or i == n_steps:
            if not np.isfinite(x).all():
                raise ValueError(f"Langevin particles are not finite at step {i} with "
                                 f"sigma={pot.sigma}, h={h}; lower h or raise sigma")
            snaps.append((i, x.copy()))
    return snaps


def max_stable_h(grid: DensityGrid, D: float) -> float:
    return _CFL_CONST * grid.cell**2 / D


def fpe_evolve(
    pot: GmmPotential,
    grid: DensityGrid,
    h: float,
    n_steps: int,
    snapshot_every: int = 50,
) -> tuple[list[tuple[int, DensityGrid]], dict]:
    """Explicit conservative update of dp/dt = div(grad U p + D grad p).

    Fluxes are evaluated on cell faces with zero-flux boundaries, so the total
    mass is conserved to roundoff.  Negative cells (stencil undershoot) are
    clamped to zero followed by mass renormalization; the per-step clamp
    magnitude is reported in the stats dict and stays tiny in the default
    configuration.
    """
    hmax = max_stable_h(grid, pot.D)
    if h > hmax:
        raise ValueError(f"step size h={h} unstable; need h <= {hmax:.3e} for this grid")
    n, dx = grid.n, grid.cell
    c = grid.centers
    X, Y = np.meshgrid(c, c, indexing="ij")
    U = pot.energy(np.stack([X, Y], axis=-1))
    # face-centered dU along each axis: (n-1, n) and (n, n-1)
    dUx = (U[1:, :] - U[:-1, :]) / dx
    dUy = (U[:, 1:] - U[:, :-1]) / dx
    p = grid.values.copy()
    mass0 = p.sum()
    snaps = [(0, DensityGrid(L=grid.L, n=n, values=p.copy()))]
    max_clamp = 0.0
    for i in range(1, n_steps + 1):
        Jx = dUx * 0.5 * (p[1:, :] + p[:-1, :]) + pot.D * (p[1:, :] - p[:-1, :]) / dx
        Jy = dUy * 0.5 * (p[:, 1:] + p[:, :-1]) + pot.D * (p[:, 1:] - p[:, :-1]) / dx
        div = np.zeros_like(p)
        div[:-1, :] += Jx / dx
        div[1:, :] -= Jx / dx
        div[:, :-1] += Jy / dx
        div[:, 1:] -= Jy / dx
        p = p + h * div
        neg = p < 0.0
        if neg.any():
            clamp = -p[neg].sum() / mass0
            max_clamp = max(max_clamp, float(clamp))
            p[neg] = 0.0
            p *= mass0 / p.sum()
        if i % snapshot_every == 0 or i == n_steps:
            snaps.append((i, DensityGrid(L=grid.L, n=n, values=p.copy())))
    stats = {"max_clamp_fraction": max_clamp}
    return snaps, stats


def bin_particles(particles: np.ndarray, L: float, n: int) -> np.ndarray:
    """Histogram particles onto the grid as a density (cell mass / cell area)."""
    edges = np.linspace(-L, L, n + 1)
    hist, _, _ = np.histogram2d(particles[:, 0], particles[:, 1], bins=(edges, edges))
    inside = hist.sum()
    if inside == 0:
        raise ValueError("no particles inside the grid extent")
    cell = 2.0 * L / n
    return hist / (inside * cell * cell)


def tv_distance(density_a: np.ndarray, density_b: np.ndarray, cell: float) -> float:
    """Total-variation distance between two grid densities."""
    pa = density_a * cell * cell
    pb = density_b * cell * cell
    return 0.5 * float(np.abs(pa / pa.sum() - pb / pb.sum()).sum())
