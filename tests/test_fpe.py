"""Langevin particles against the explicit Fokker-Planck solver."""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from difftaylor import rng, samplers
from difftaylor.fpe import (
    DensityGrid,
    GmmPotential,
    bin_particles,
    fpe_evolve,
    gaussian_grid,
    langevin_simulate,
    max_stable_h,
    stationary_grid,
    tv_distance,
)
from difftaylor.score import _gmm_logits, _gmm_posterior


def test_potential_gradient_vanishes_at_origin():
    # the five wells are symmetric about the origin
    pot = GmmPotential()
    g = pot.grad(np.zeros(2))
    assert np.allclose(g, 0.0, atol=1e-12)


@pytest.mark.parametrize("sigma", [1e155, 1e-200])
def test_potential_refuses_a_sigma_whose_square_is_out_of_range(sigma):
    with pytest.raises(ValueError, match=re.escape(f"sigma={sigma} is out of range")):
        GmmPotential(sigma=sigma)


def test_potential_gradient_matches_finite_difference():
    pot = GmmPotential()
    rng_local = np.random.default_rng(0)
    for _ in range(20):
        x = rng_local.uniform(-1.5, 1.5, size=2)
        g = pot.grad(x)
        d = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = d
            fd = (pot.energy(x + e) - pot.energy(x - e)) / (2 * d)
            assert abs(fd - g[j]) < 1e-6 * max(1.0, abs(fd))


def test_potential_matches_loop_reference():
    # the per-well loop forms: max-shifted log-sum-exp and sum_i w_i (x - c_i) / sigma^2
    pot = GmmPotential()
    xy = np.random.default_rng(3).uniform(-1.5, 1.5, size=(1000, 2))
    a = np.stack([-0.5 * np.sum((xy - c) ** 2, axis=-1) / pot.sigma**2
                  for c in pot.centers], axis=-1)
    amax = a.max(axis=-1, keepdims=True)
    e = np.exp(a - amax)
    energy = -(amax[:, 0] + np.log(e.sum(axis=-1)))
    w = e / e.sum(axis=-1, keepdims=True)
    grad = sum(w[:, i, None] * (xy - c) for i, c in enumerate(pot.centers)) / pot.sigma**2
    np.testing.assert_allclose(pot.energy(xy), energy, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pot.grad(xy), grad, rtol=1e-12, atol=0)


def test_potential_frozen_bits():
    # one sha256 over Langevin snapshots, a Fokker-Planck run that clamps, and
    # energy and grad on a mesh: any reordering of the potential arithmetic moves it
    pot = GmmPotential()
    h = hashlib.sha256()
    for step, x in langevin_simulate(pot, 2000, 5e-5, 50, seed=3, snapshot_every=25):
        h.update(step.to_bytes(4, "little"))
        h.update(x.tobytes())
    grid = gaussian_grid(L=2.0, n=16)
    snaps, stats = fpe_evolve(pot, grid, 0.5 * max_stable_h(grid, pot.D), 50,
                              snapshot_every=25)
    for step, g in snaps:
        h.update(step.to_bytes(4, "little"))
        h.update(g.values.tobytes())
    h.update(np.float64(stats["max_clamp_fraction"]).tobytes())
    c = np.linspace(-1.5, 1.5, 9)
    mesh = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1)
    h.update(pot.energy(mesh).tobytes())
    h.update(pot.grad(mesh).tobytes())
    assert h.hexdigest() == (
        "e9fc7f4a2e5df9d5c65540b445e41c4f604b3fbc9aa3c29a0b776d80d48d2eea")


@pytest.mark.parametrize("sigma", [0.1, 0.3])
@pytest.mark.parametrize("rows", [None, 1, 3, 7, 8, 10_000])
def test_potential_grad_matches_posterior_kernel_bits(sigma, rows):
    # the gradient is the score module's posterior pull, byte for byte, at every
    # row count (BLAS takes other paths below 8 rows) and at a 1-D point
    pot = GmmPotential(sigma=sigma)
    xy = np.zeros(2) if rows is None else (
        np.random.default_rng(rows).uniform(-1.5, 1.5, size=(rows, 2)))
    var = sigma**2
    _, mean = _gmm_posterior(_gmm_logits(xy, pot.centers, var), pot.centers)
    assert pot.grad(xy).tobytes() == ((xy - mean) / var).tobytes()


def test_energy_minimum_near_wells():
    pot = GmmPotential()
    at_well = pot.energy(pot.centers[0])
    off_well = pot.energy(pot.centers[0] + np.array([0.3, 0.0]))
    assert at_well < off_well


def test_langevin_zero_diffusion_falls_into_well():
    # with D ~ 0 a particle started at a well stays near it
    pot = GmmPotential(D=1e-12)
    snaps = langevin_simulate(pot, 4, h=1e-4, n_steps=100, seed=0)
    final = snaps[-1][1]
    dists = np.linalg.norm(final[:, None, :] - pot.centers, axis=-1).min(axis=1)
    # particles start from N(0, I); they move downhill, never uphill past wells
    start = snaps[0][1]
    start_d = np.linalg.norm(start[:, None, :] - pot.centers, axis=-1).min(axis=1)
    assert np.all(dists <= start_d + 1e-9)


def test_langevin_rejects_bad_step():
    with pytest.raises(ValueError, match="h"):
        langevin_simulate(GmmPotential(), 1, h=0.0, n_steps=1)


def test_fpe_mass_conserved_every_step():
    pot = GmmPotential()
    grid = gaussian_grid(L=2.0, n=32)
    h = max_stable_h(grid, pot.D) * 0.5
    snaps, stats = fpe_evolve(pot, grid, h, 40, snapshot_every=1)
    m0 = snaps[0][1].mass
    for _, g in snaps:
        assert abs(g.mass - m0) < 1e-6
    # the coarse 32-cell grid undershoots slightly; the clamp stays small
    assert stats["max_clamp_fraction"] < 1e-3


@pytest.mark.parametrize("snapshot_every,n_steps", [(1, 3), (50, 2)])
def test_langevin_refuses_particles_that_are_not_finite(snapshot_every, n_steps):
    # grad U ~ 1e200 at sigma=1e-100: step 1 throws the particles to ~1e196,
    # step 2 overflows them; caught at a snapshot, or at the last step
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"not finite at step 2 with sigma=1e-100, h=5e-05"):
        langevin_simulate(GmmPotential(sigma=1e-100), 10, 5e-5, n_steps,
                          snapshot_every=snapshot_every)


def _block_rows(monkeypatch, rows):
    # blocks of `rows` particles: TRAJECTORY_BLOCK_BYTES holds (x, y) in float64
    monkeypatch.setattr(samplers, "TRAJECTORY_BLOCK_BYTES", rows * 2 * 8)


@pytest.mark.parametrize("rows", [5, 64, 1000])
def test_langevin_blocks_keep_the_bits(monkeypatch, rows):
    # 2001 particles are one block by default; in blocks of a few rows every
    # snapshot is byte-equal
    pot = GmmPotential()
    whole = langevin_simulate(pot, 2001, 5e-5, 12, seed=4, snapshot_every=5)
    _block_rows(monkeypatch, rows)
    blocked = langevin_simulate(pot, 2001, 5e-5, 12, seed=4, snapshot_every=5)
    assert [s for s, _ in blocked] == [s for s, _ in whole] == [0, 5, 10, 12]
    for (_, a), (_, b) in zip(blocked, whole):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("snapshot_every,n_steps", [(1, 3), (50, 2)])
def test_langevin_refusal_names_the_first_bad_step_across_blocks(
        monkeypatch, snapshot_every, n_steps):
    # the 10 particles of the refusal test in blocks of 3: still step 2
    _block_rows(monkeypatch, 3)
    test_langevin_refuses_particles_that_are_not_finite(snapshot_every, n_steps)


class _IndexStream:
    # particle j starts at (j, 0) and draws no noise
    def __init__(self, seed, purpose, traj):
        self.traj = traj

    def normals(self, step, d):
        z = np.zeros((self.traj.size, d))
        if step == 0:
            z[:, 0] = self.traj
        return z


class _PoisonedPotential(GmmPotential):
    # pushes y up by h each step, so at step i particle j sits at (j, i - 1) and
    # the gradient can throw chosen particles to -inf at chosen steps
    def __init__(self, bad_at):
        super().__init__()
        self.bad_at = bad_at  # {particle: step}

    def grad(self, xy):
        g = np.zeros_like(xy)
        g[:, 1] = -1.0
        for j, step in self.bad_at.items():
            g[(xy[:, 0] == j) & (xy[:, 1] == step - 1)] = np.inf
        return g


@pytest.mark.parametrize("bad_at,step", [
    ({0: 3, 9: 1}, 1),  # the last block goes bad before the first one
    ({0: 2, 5: 3}, 2),  # a later block goes bad only past the first block's step
])
def test_langevin_refusal_names_the_earliest_step_over_all_blocks(monkeypatch, bad_at, step):
    # 10 particles in blocks of 3 rows: [0, 2), [2, 5), [5, 7), [7, 10)
    _block_rows(monkeypatch, 3)
    monkeypatch.setattr(rng, "TrajectoryStream", _IndexStream)
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=rf"not finite at step {step} with sigma=0.1, h=1.0;"):
        langevin_simulate(_PoisonedPotential(bad_at), 10, 1.0, 4, snapshot_every=1)


def test_fpe_pure_diffusion_widens_gaussian():
    # with a flat potential the equation is the heat equation: variance grows 2Dh per unit time
    pot = GmmPotential(sigma=1e6, D=1.0)  # enormous sigma flattens the wells
    grid = gaussian_grid(L=6.0, n=96, var=0.5)
    h = max_stable_h(grid, pot.D) * 0.5
    n_steps = 200
    snaps, _ = fpe_evolve(pot, grid, h, n_steps, snapshot_every=n_steps)
    c = grid.centers
    X, _ = np.meshgrid(c, c, indexing="ij")

    def var_x(g):
        w = g.values / g.values.sum()
        return float((w * X * X).sum())

    v0 = var_x(snaps[0][1])
    v1 = var_x(snaps[-1][1])
    assert v1 - v0 == pytest.approx(2.0 * pot.D * h * n_steps, rel=0.05)


def test_fpe_stationary_density_is_fixed_point():
    pot = GmmPotential()
    grid = stationary_grid(pot, L=2.0, n=48)
    h = max_stable_h(grid, pot.D) * 0.5
    snaps, _ = fpe_evolve(pot, grid, h, 1, snapshot_every=1)
    before = grid.values
    after = snaps[-1][1].values
    resid = np.abs(after - before).sum() / before.sum()
    assert resid < 1e-3


def test_fpe_refuses_unstable_step():
    pot = GmmPotential()
    grid = gaussian_grid(L=2.0, n=64)
    hmax = max_stable_h(grid, pot.D)
    with pytest.raises(ValueError, match="unstable"):
        fpe_evolve(pot, grid, hmax * 2, 1)


def test_particles_and_density_agree_increasingly():
    # TV distance to the solver decreases along matched checkpoints
    pot = GmmPotential()
    grid = gaussian_grid(L=2.0, n=32)
    h = max_stable_h(grid, pot.D) * 0.5
    checkpoints = 60
    snaps_p = langevin_simulate(pot, 40_000, h, checkpoints, seed=0,
                                snapshot_every=checkpoints)
    snaps_d, _ = fpe_evolve(pot, grid, h, checkpoints, snapshot_every=checkpoints)
    dens_p = bin_particles(snaps_p[-1][1], 2.0, 32)
    tv = tv_distance(dens_p, snaps_d[-1][1].values, grid.cell)
    assert tv < 0.1


def test_bin_particles_normalized_density():
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1000, 2))
    dens = bin_particles(pts, 2.0, 16)
    cell = 4.0 / 16
    assert dens.sum() * cell * cell == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="inside"):
        bin_particles(np.full((5, 2), 100.0), 2.0, 16)


def test_tv_distance_properties():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert tv_distance(a, a, 1.0) == 0.0
    assert tv_distance(a, b, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert tv_distance(a, b, 1.0) == tv_distance(b, a, 1.0)
