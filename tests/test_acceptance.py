"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints ``PASS``/``FAIL <name>: <measurement>`` (visible with
``pytest -s``) and asserts the stated tolerance.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from difftaylor import rng
from difftaylor.orders import deterministic_order, stochastic_order
from difftaylor.samplers import sample_finals, taylor_flat_coeffs, taylor_sharp_step
from difftaylor.schedules import eval_schedule, fit_tanh_schedule, make_step_schedule
from difftaylor.score import PointCloudData, delta_field
from difftaylor.spa import spa_sweep
from difftaylor.symderiv import (
    HSeries,
    eval_series,
    expand_ddim,
    gen_flat_coefficients,
    gen_sharp_coefficients,
    operator_table,
)

COND_I = fit_tanh_schedule(5e-4, 0.995, 1.0)
COND_II = fit_tanh_schedule(1e-4, 0.99, 1.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_ddim_delta_exactness():
    t0 = time.time()
    score = delta_field([0.0])
    worst = 0.0
    for n in (1, 4, 8, 30):
        steps = make_step_schedule("exponential", n, 1.0)
        finals = sample_finals("ddim", COND_II, steps, score, 1, 8, seed=0)
        x_T = rng.step_normals(0, rng.PURPOSE_START, np.arange(8, dtype=np.uint64), 0, 1)
        expected = math.sqrt(1e-4 / 0.99) * x_T
        rel = float(np.max(np.abs(finals - expected) / np.maximum(np.abs(expected), 1e-300)))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report("ddim-delta-exactness", worst < 1e-10 and elapsed < 1.0,
           f"max rel err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (<1s)")


def test_criterion_2_deterministic_orders():
    t0 = time.time()
    bands = {"euler": (0.8, 1.2), "heun": (1.7, 2.3), "taylor2": (1.7, 2.3),
             "taylor3": (2.6, 3.4), "rk4": (3.5, 4.5)}
    slopes = {}
    ok = True
    for solver, (lo, hi) in bands.items():
        est = deterministic_order(solver, COND_II, n0=8, halvings=6)
        slopes[solver] = est.slope
        ok = ok and lo <= est.slope <= hi
    elapsed = time.time() - t0
    detail = " ".join(f"{k}={v:.2f}" for k, v in slopes.items())
    report("deterministic-orders", ok and elapsed < 10.0,
           f"{detail}, {elapsed:.1f}s (<10s)")


def test_criterion_3_stochastic_weak_orders():
    t0 = time.time()
    sched = fit_tanh_schedule(1e-4, 0.8, 1.0)
    em = stochastic_order("euler_maruyama", sched, batch=1_000_000,
                          workers=os.cpu_count() or 1)
    it = stochastic_order("ito_taylor", sched, batch=1_000_000,
                          workers=os.cpu_count() or 1)
    elapsed = time.time() - t0
    ok = (0.7 <= em["mean"].slope <= 1.3
          and 1.5 <= it["mean"].slope <= 2.5
          and 1.5 <= it["var"].slope <= 2.5
          and elapsed < 120.0)
    report("stochastic-weak-orders", ok,
           f"em_mean={em['mean'].slope:.2f} [0.7,1.3], "
           f"it_mean={it['mean'].slope:.2f} it_var={it['var'].slope:.2f} [1.5,2.5], "
           f"{elapsed:.0f}s (<120s)")


def test_criterion_4_symbolic_vs_hand_coded():
    t0 = time.time()
    rho2, mu2 = gen_flat_coefficients(2)
    rho3, mu3 = gen_flat_coefficients(3)
    rho_s, mu_s, _ = gen_sharp_coefficients()
    rand = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        t = float(rand.uniform(0.02, 0.98))
        h = float(rand.uniform(1e-4, 0.12))
        s = eval_schedule(COND_II, t)
        bind = {"nu": s.nu, "beta": s.beta, "beta_d1": s.beta_d1,
                "beta_d2": s.beta_d2}
        c2 = taylor_flat_coeffs(s, h, 2)
        c3 = taylor_flat_coeffs(s, h, 3)
        sh = taylor_sharp_step(s, h)
        for got, series in ((c2.rho, rho2), (c2.mu, mu2), (c3.rho, rho3),
                            (c3.mu, mu3), (sh.rho, rho_s), (sh.mu, mu_s)):
            want = eval_series(series, h, bind)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    table = operator_table()
    zeros = ["Gsharp(g)", "GsharpGsharp(-fsharp)", "LsharpGsharp(g)",
             "GsharpLsharp(g)", "GsharpGsharp(g)"]
    structural = all(table[k].is_zero() for k in zeros) and len(table) == 14
    elapsed = time.time() - t0
    report("symbolic-oracle-equality",
           worst < 1e-12 and structural and elapsed < 5.0,
           f"max rel dev {worst:.2e} (tol 1e-12), table entries {len(table)}, "
           f"{elapsed:.1f}s (<5s)")


def test_criterion_5_ddim_equals_taylor3_symbolically():
    rho_d, mu_d = expand_ddim(3)
    rho_f, mu_f = gen_flat_coefficients(3)
    zero = HSeries(3, {})
    ok = (rho_d - rho_f) == zero and (mu_d - mu_f) == zero
    report("ddim-taylor3-series-identity", ok,
           "series difference exactly zero through h^3" if ok
           else f"rho diff {rho_d - rho_f}, mu diff {mu_d - mu_f}")


def test_criterion_6_correlated_noise_covariance():
    t0 = time.time()
    h = 0.01
    tr = np.arange(1_000_000, dtype=np.uint64)
    w, z = rng.correlated_pair(rng.TrajectoryStream(0, rng.PURPOSE_STEP_W, tr),
                               rng.TrajectoryStream(0, rng.PURPOSE_STEP_U, tr), 1, 1)
    wt = math.sqrt(h) * w[:, 0]
    zt = h * math.sqrt(h) * z[:, 0]
    devs = (abs(np.mean(wt * wt) / h - 1.0),
            abs(np.mean(wt * zt) / (h * h / 2) - 1.0),
            abs(np.mean(zt * zt) / (h**3 / 3) - 1.0))
    elapsed = time.time() - t0
    report("correlated-noise-covariance",
           max(devs) < 0.01 and elapsed < 10.0,
           f"rel devs {devs[0]:.4f}/{devs[1]:.4f}/{devs[2]:.4f} (tol 0.01), "
           f"{elapsed:.1f}s (<10s)")


def test_criterion_7_schedule_self_consistency():
    rand = np.random.default_rng(1)
    d = 1e-6
    worst_fd = 0.0
    for t in rand.uniform(0.01, 0.99, size=100):
        s = eval_schedule(COND_II, float(t))
        sp = eval_schedule(COND_II, float(t) + d)
        sm = eval_schedule(COND_II, float(t) - d)
        nu_dot = (sp.nu - sm.nu) / (2 * d)
        b_dot = (sp.beta - sm.beta) / (2 * d)
        b_ddot = (sp.beta_d1 - sm.beta_d1) / (2 * d)
        worst_fd = max(
            worst_fd,
            abs(nu_dot - (1 - s.nu) * s.beta) / max(abs(nu_dot), 1e-12),
            abs(b_dot - s.beta_d1) / max(abs(b_dot), 1e-12),
            abs(b_ddot - s.beta_d2) / max(abs(b_ddot), 1e-12),
        )
    endpoints = max(abs(eval_schedule(COND_II, 0.0).nu - 1e-4),
                    abs(eval_schedule(COND_II, 1.0).nu - 0.99))
    worst_lip = 0.0
    for t in rand.uniform(0.0, 1.0, size=100):
        s = eval_schedule(COND_II, float(t))
        worst_lip = max(worst_lip,
                        abs(s.beta / math.sqrt(s.nu) - s.lam_d1) / abs(s.lam_d1))
    ok = worst_fd < 1e-5 and endpoints < 1e-12 and worst_lip < 1e-10
    report("schedule-self-consistency", ok,
           f"fd {worst_fd:.2e} (tol 1e-5), endpoints {endpoints:.2e} (tol 1e-12), "
           f"beta/sqrt(nu)=lam_dot {worst_lip:.2e} (tol 1e-10)")


def test_criterion_8_spa_bound_suite():
    t0 = time.time()
    pts = rng.counter_uniform(
        0, 1234, np.arange(100, dtype=np.uint64)[:, None],
        np.arange(32, dtype=np.uint64),
    )
    data = PointCloudData(points=pts)
    fracs = []
    ok = True
    for nu in (0.5, 0.9, 0.99):
        _, raw = spa_sweep(data, [nu], trials=1000, seed=0, raw=True)
        bound = math.sqrt((1 - nu) / nu)
        frac = float(np.mean([r["rel_l2"] <= bound for r in raw]))
        fracs.append(frac)
        ok = ok and frac >= 0.99
    # well-separated data for the entropy check: scaled-up lattice corners
    sep = PointCloudData(points=np.eye(8) * 4.0)
    rows = spa_sweep(sep, [1e-3], trials=1000, seed=0)
    ent = rows[0]["entropy_mean"]
    elapsed = time.time() - t0
    ok = ok and ent < 0.05 and elapsed < 30.0
    report("spa-bound-suite", ok,
           f"bound fracs {fracs[0]:.3f}/{fracs[1]:.3f}/{fracs[2]:.3f} (>=0.99), "
           f"entropy {ent:.4f} nats (<0.05), {elapsed:.1f}s (<30s)")


def test_criterion_9_fpe_langevin_cross_validation():
    t0 = time.time()
    from difftaylor import fpe

    pot = fpe.GmmPotential()
    grid = fpe.gaussian_grid(L=2.0, n=64)
    h, n_steps = 5e-5, 400
    snaps_p = fpe.langevin_simulate(pot, 100_000, h, n_steps,
                                    snapshot_every=n_steps)
    snaps_d, _ = fpe.fpe_evolve(pot, grid, h, n_steps, snapshot_every=1)
    masses = [g.mass for _, g in snaps_d]
    mass_drift = max(abs(m - masses[0]) for m in masses)
    binned = fpe.bin_particles(snaps_p[-1][1], 2.0, 64)
    tv = fpe.tv_distance(binned, snaps_d[-1][1].values, grid.cell)
    elapsed = time.time() - t0
    ok = tv < 0.1 and mass_drift < 1e-6 and elapsed < 60.0
    report("fpe-langevin-cross-validation", ok,
           f"tv {tv:.3f} (<0.1), max mass drift {mass_drift:.1e} (<1e-6/step), "
           f"{elapsed:.0f}s (<60s)")


def test_criterion_10_byte_identical_csv_determinism(tmp_path):
    cases = [
        (["sample", "--solver", "ito_taylor", "--preset", "cond-ii",
          "--steps", "8", "--batch", "32", "--seed", "5"], "sample.csv"),
        (["schedule-dump", "--preset", "cond-i", "--grid", "21"], "sched.csv"),
        (["spa-sweep", "--nu-grid", "0.5,0.9", "--trials", "50"], "spa.csv"),
        (["order", "--solver", "heun", "--preset", "cond-ii",
          "--halvings", "3"], "order.csv"),
    ]
    ok = True
    for argv, name in cases:
        blobs = []
        for threads in ("1", "3"):
            out = tmp_path / f"{threads}_{name}"
            env = dict(os.environ, DSL_THREADS=threads)
            r = subprocess.run(
                [sys.executable, "-m", "difftaylor.cli", *argv, "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert r.returncode == 0, (argv, r.stderr)
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    report("csv-determinism", ok,
           f"{len(cases)} subcommands byte-identical across pool sizes")
