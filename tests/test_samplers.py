"""Solvers: frozen coefficient values, toy-ODE accuracy, determinism."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from difftaylor import rng, samplers
from difftaylor.samplers import (
    HEUN,
    RK4,
    SOLVERS,
    StartSpec,
    ddim_coeffs,
    pf_ode_drift,
    rk_step,
    sample,
    sample_finals,
    step_table,
    taylor_flat_coeffs,
    taylor_sharp_step,
)
from difftaylor.schedules import (
    Linear,
    NoiseSchedule,
    ScheduleSample,
    StepSchedule,
    eval_schedule,
    fit_tanh_schedule,
    make_step_schedule,
)
from difftaylor.score import ScoreField, delta_field

# Linear schedule with beta identically 1; at t=ln(4/3), nu = 1 - 3/4 = 1/4.
LIN1 = NoiseSchedule(kind=Linear(beta0=1.0, beta1=0.0), T=1.0)
T_QUARTER = math.log(4.0 / 3.0)


def synthetic_sample(beta, beta_d1=0.0, beta_d2=0.0, nu=0.5, t=0.5):
    return ScheduleSample(
        t=t, lam=2 * math.atanh(math.sqrt(nu)), lam_d1=beta / math.sqrt(nu),
        nu=nu, beta=beta, beta_d1=beta_d1, beta_d2=beta_d2,
    )


def test_pf_ode_drift_frozen_value():
    # beta=1, nu=1/4, delta data at origin: drift = x/2 - 2x = -3x/2
    score = delta_field([0.0])
    d = pf_ode_drift(np.array([1.0]), T_QUARTER, score, LIN1)
    assert d[0] == pytest.approx(-1.5, abs=1e-12)


def test_taylor_sharp_frozen_values():
    s = synthetic_sample(beta=1.0, beta_d1=0.5, nu=0.5)
    step = taylor_sharp_step(s, 0.1)
    assert step.rho == pytest.approx(1.05, abs=1e-14)
    assert step.mu == pytest.approx(-0.0975, abs=1e-14)
    h32 = 0.1 * math.sqrt(0.1)
    assert step.c_w == pytest.approx(math.sqrt(0.1), abs=1e-14)
    assert step.c_wz == pytest.approx(-h32 * 0.25, abs=1e-14)
    assert step.c_z == pytest.approx(h32 * (0.5 - 2.0) / (2 * 0.5), abs=1e-14)


def test_ddim_coeffs_frozen_values():
    rho, mu = ddim_coeffs(0.5, 0.25)
    assert rho == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert mu == pytest.approx(-0.3660254037844386, abs=1e-12)


def test_ddim_coeffs_rejects_bad_ordering():
    with pytest.raises(ValueError):
        ddim_coeffs(0.25, 0.5)
    with pytest.raises(ValueError):
        ddim_coeffs(0.5, 0.0)


def test_taylor_flat_constant_beta_truncates_exponential():
    # with beta frozen, rho through h^3 matches exp(beta h / 2) to O(h^4)
    beta, h = 2.0, 0.05
    s = synthetic_sample(beta=beta)
    c = taylor_flat_coeffs(s, h, 3)
    exact = math.exp(0.5 * beta * h)
    series = 1 + beta * h / 2 + (beta * h) ** 2 / 8 + (beta * h) ** 3 / 48
    assert c.rho == pytest.approx(series, abs=1e-15)
    assert abs(c.rho - exact) < (0.5 * beta * h) ** 4


def test_taylor_flat_rejects_bad_order_and_clamped():
    s = synthetic_sample(beta=1.0)
    with pytest.raises(ValueError, match="order"):
        taylor_flat_coeffs(s, 0.1, 4)
    clamped = ScheduleSample(
        t=0.9, lam=1.0, lam_d1=1.0, nu=0.5,
        beta=20.0, beta_d1=0.0, beta_d2=0.0, clamped=True,
    )
    with pytest.raises(ValueError, match="clamped"):
        taylor_flat_coeffs(clamped, 0.1, 2)
    with pytest.raises(ValueError, match="clamped"):
        taylor_sharp_step(clamped, 0.1)


def test_taylor_coeffs_match_symbolic_generators():
    from difftaylor.symderiv import (
        eval_expr,
        eval_series,
        gen_flat_coefficients,
        gen_sharp_coefficients,
    )

    sched = fit_tanh_schedule(1e-3, 0.95, 1.0)
    rho3, mu3 = gen_flat_coefficients(3)
    rho_s, mu_s, noise = gen_sharp_coefficients()
    rng_local = np.random.default_rng(5)
    for _ in range(50):
        t = float(rng_local.uniform(0.05, 0.95))
        h = float(rng_local.uniform(0.001, 0.1))
        s = eval_schedule(sched, t)
        bind = {"x": 0.0, "S": 0.0, "nu": s.nu, "beta": s.beta,
                "beta_d1": s.beta_d1, "beta_d2": s.beta_d2, "h": h}
        flat = taylor_flat_coeffs(s, h, 3)
        assert flat.rho == pytest.approx(eval_series(rho3, h, bind), rel=1e-12)
        assert flat.mu == pytest.approx(eval_series(mu3, h, bind), rel=1e-12)
        sharp = taylor_sharp_step(s, h)
        assert sharp.rho == pytest.approx(eval_series(rho_s, h, bind), rel=1e-12)
        assert sharp.mu == pytest.approx(eval_series(mu_s, h, bind), rel=1e-12)
        assert sharp.c_w == pytest.approx(
            math.sqrt(h) * eval_expr(noise["c_w"], bind), rel=1e-12)
        assert sharp.c_wz == pytest.approx(
            h * math.sqrt(h) * eval_expr(noise["c_wz"], bind), rel=1e-12)
        assert sharp.c_z == pytest.approx(
            h * math.sqrt(h) * eval_expr(noise["c_z"], bind), rel=1e-12)


def toy_drift_field(f):
    """Score field that makes the probability-flow drift equal f(x, t)."""

    def fn(x, t, sched):
        s = eval_schedule(sched, t)
        return ((0.5 * s.beta) * x - f(x, t)) * 2.0 * math.sqrt(s.nu) / s.beta

    return ScoreField(d=1, fn=fn)


TOY_SCHED = fit_tanh_schedule(0.1, 0.9, 1.0)


def test_rk4_solves_toy_ode_to_high_accuracy():
    # reversed-time dynamics dx/ds = x sin(T - s); exact factor exp(1 - cos T)
    field = toy_drift_field(lambda x, t: x * np.sin(t))
    x = np.array([1.0])
    t, n = 1.0, 20
    h = t / n
    exact = math.exp(1.0 - math.cos(1.0))
    x_rk = x.copy()
    tt = t
    for _ in range(n):
        x_rk = rk_step(RK4, x_rk, tt, h, field, TOY_SCHED)
        tt -= h
    x_eu = x.copy()
    tt = t
    for _ in range(n):
        x_eu = x_eu + h * pf_ode_drift(x_eu, tt, field, TOY_SCHED)
        tt -= h
    assert abs(x_rk[0] - exact) < 1e-7
    assert abs(x_eu[0] - exact) > 1e-3
    assert abs(x_rk[0] - exact) < 1e-3 * abs(x_eu[0] - exact)


def test_heun_step_on_linear_drift():
    # drift = c x gives one Heun step of exactly (1 + ch + c^2 h^2 / 2) x
    c, h = -0.7, 0.2
    field = toy_drift_field(lambda x, t: c * x)
    out = rk_step(HEUN, np.array([2.0]), 0.8, h, field, TOY_SCHED)
    assert out[0] == pytest.approx(2.0 * (1 + c * h + c * c * h * h / 2), abs=1e-13)


@pytest.mark.parametrize("n", [1, 4, 8, 30])
def test_ddim_delta_data_telescopes_exactly(n):
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    steps = make_step_schedule("exponential", n, 1.0)
    score = delta_field([0.0])
    finals = sample_finals("ddim", sched, steps, score, 1, 4, seed=3)
    x_T = rng.step_normals(3, rng.PURPOSE_START, np.arange(4, dtype=np.uint64), 0, 1)
    expected = math.sqrt(1e-4 / 0.99) * x_T
    assert np.max(np.abs(finals - expected)) < 1e-10


def test_exact_marginal_start_moments():
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    steps = make_step_schedule("constant", 1, 1.0)
    start = StartSpec(kind="exact_marginal", x0=np.array([2.0]))
    from difftaylor.samplers import _initial_state

    x = _initial_state(start, sched, 1, np.arange(200_000, dtype=np.uint64), 0)
    assert abs(x.mean() - math.sqrt(1 - 0.99) * 2.0) < 0.01
    assert abs(x.var() - 0.99) < 0.02


def test_ito_taylor_one_step_noise_variance():
    # single-step variance from a deterministic start must match the exact
    # quadratic form in the correlated pair covariances
    sched = fit_tanh_schedule(0.3, 0.7, 1.0)
    steps = make_step_schedule("constant", 1, 1.0)
    score = delta_field([0.0])
    start = StartSpec(kind="exact_marginal", x0=np.array([0.0]))
    finals = sample_finals("ito_taylor", sched, steps, score, 1, 400_000, seed=1,
                           start=start, final_noise=True)
    s = eval_schedule(sched, 1.0)
    step = taylor_sharp_step(s, 1.0)
    a = step.rho + step.mu / s.nu  # multiplies the N(0, nu_T) start
    cw, cwz, cz = step.c_w, step.c_wz, step.c_z
    noise_var = (cw + cwz) ** 2 + (cz - cwz) ** 2 / 3 + (cw + cwz) * (cz - cwz)
    exact = a * a * s.nu + noise_var
    assert abs(finals.var() - exact) / exact < 0.01


def test_sample_determinism_and_worker_invariance():
    sched = fit_tanh_schedule(1e-3, 0.9, 1.0)
    steps = make_step_schedule("constant", 6, 1.0)
    score = delta_field([0.5, -0.5])
    for solver in SOLVERS:
        a = sample_finals(solver, sched, steps, score, 2, 64, seed=7, workers=1)
        b = sample_finals(solver, sched, steps, score, 2, 64, seed=7, workers=5)
        assert np.array_equal(a, b), solver


def test_sample_runs_metadata_and_trajectory():
    sched = fit_tanh_schedule(1e-3, 0.9, 1.0)
    steps = make_step_schedule("constant", 4, 1.0)
    score = delta_field([0.0])
    finals, trajectory, nfe = sample("heun", sched, steps, score, 1, 3, seed=0,
                                     record_trajectory=True, workers=2)
    assert finals.shape == (3, 1)
    assert trajectory.shape == (5, 3, 1)
    assert trajectory[-1].tobytes() == finals.tobytes()
    assert nfe == 4 * HEUN.stages
    assert sample("heun", sched, steps, score, 1, 3, seed=0)[1] is None
    stages = {"heun": 2, "rk4": 4}
    for solver in SOLVERS:
        assert sample(solver, sched, steps, score, 1, 3, seed=0)[2] == 4 * stages.get(solver, 1)


# grid times at which step_table evaluates the schedule on a 5-step plan: one
# per step, DDIM also at the next grid time, Heun and RK4 also at t = 0
STEP_TABLE_EVALS = {"ddim": 10, "heun": 6, "rk4": 6}


@pytest.mark.parametrize("solver", SOLVERS)
def test_step_table_schedule_evaluations(solver, monkeypatch):
    calls = []

    def counting(sched, t):
        calls.append(t)
        return eval_schedule(sched, t)

    monkeypatch.setattr(samplers, "eval_schedule", counting)
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    assert len(step_table(solver, sched, make_step_schedule("exponential", 5, 1.0))) == 5
    assert len(calls) == STEP_TABLE_EVALS.get(solver, 5)


def test_clip_is_applied_every_step():
    sched = fit_tanh_schedule(1e-3, 0.9, 1.0)
    steps = make_step_schedule("constant", 4, 1.0)
    score = delta_field([0.0])
    finals, _, _ = sample("euler", sched, steps, score, 1, 32, seed=0, clip=(-0.01, 0.01))
    assert np.all(np.abs(finals) <= 0.01)


def test_unknown_solver_rejected():
    sched = fit_tanh_schedule(1e-3, 0.9, 1.0)
    steps = make_step_schedule("constant", 2, 1.0)
    with pytest.raises(ValueError, match="solver"):
        sample_finals("leapfrog", sched, steps, delta_field([0.0]), 1, 1, 0)


def test_dimension_mismatch_rejected():
    sched = fit_tanh_schedule(1e-3, 0.9, 1.0)
    steps = make_step_schedule("constant", 2, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        sample_finals("euler", sched, steps, delta_field([0.0, 0.0]), 1, 1, 0)


# Finals of every solver on cond-ii, 6 constant steps, delta data at
# (0.5, -0.5), batch 4, seed 7, recorded from the per-step solver chain that
# the step table replaced.  Heun and RK4 still evaluate stages and DDIM uses
# the same coefficients, so those stay bit-identical; the other rows fold
# 1/sqrt(nu) into mu, which moves the last few bits.
FROZEN_FINALS = {
    "euler": [
        [0.5070625762229314, -0.4639080757180851],
        [0.468367169557, -0.4275088523223123],
        [0.5158485911909328, -0.49964624222509],
        [0.5716043348639597, -0.42750475434562896],
    ],
    "heun": [
        [0.4991543062665147, -0.3955284360955156],
        [0.40623595150702635, -0.3081238513173421],
        [0.5202519539218813, -0.48134564077358977],
        [0.6541368879972911, -0.30811401094392155],
    ],
    "rk4": [
        [0.5029173178234798, -0.486040414397332],
        [0.4877842810904257, -0.4718053712187356],
        [0.5063533609796045, -0.5000169308141673],
        [0.5281583706637523, -0.471803768578086],
    ],
    "ddim": [
        [0.5022803642498984, -0.4915523863170852],
        [0.4926608931876224, -0.48250373413033265],
        [0.504464520562483, -0.5004367032981913],
        [0.5183251001255497, -0.4825027153952549],
    ],
    "taylor2": [
        [0.4970034874824644, -0.4695767322536842],
        [0.4724107002948239, -0.4464432796840861],
        [0.5025874214672111, -0.49229005145901117],
        [0.5380228712216809, -0.4464406752233205],
    ],
    "taylor3": [
        [0.5026746731966225, -0.49634546698577586],
        [0.49699945496130205, -0.49100701588354034],
        [0.5039632641860564, -0.5015869649239807],
        [0.5121406175331555, -0.4910064148584057],
    ],
    "euler_maruyama": [
        [1.5558110208683784, 1.3657360960561922],
        [-2.2600030853826185, -3.1856316641832723],
        [2.3954882646839017, -0.012060223838419648],
        [0.056948393128012476, 4.116253715560547],
    ],
    "ito_taylor": [
        [-0.08799013307594866, -1.6494625197791848],
        [-0.1518078839394616, -0.18507584514567565],
        [0.8193093345298283, 1.1366743015643737],
        [4.388000093090666, -4.157042151118848],
    ],
}


@pytest.mark.parametrize("solver", SOLVERS)
def test_frozen_finals(solver):
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    steps = make_step_schedule("constant", 6, 1.0)
    finals = sample_finals(solver, sched, steps, delta_field([0.5, -0.5]), 2, 4, seed=7)
    expected = np.array(FROZEN_FINALS[solver])
    if solver in ("heun", "rk4", "ddim"):
        assert np.array_equal(finals, expected)
    else:
        assert finals == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", [fit_tanh_schedule(1e-4, 0.99, 1.0).kind,
                                  Linear(beta0=0.1, beta1=9.95)])
@pytest.mark.parametrize("solver", ["euler", "euler_maruyama", "ddim", "taylor2",
                                    "taylor3", "ito_taylor"])
def test_step_rows_match_reference_updates(kind, solver):
    x = np.array([0.7, -1.3, 2.1])
    S = np.array([-0.4, 0.9, 1.6])
    fixed = ScoreField(d=3, fn=lambda x, t, sched: S)
    if solver == "ddim" and isinstance(kind, Linear):
        # nu(0) = 0 on the linear schedule, so no DDIM table reaches t = 0
        with pytest.raises(ValueError, match="nu_prev"):
            step_table(solver, NoiseSchedule(kind=kind, T=1.0),
                       make_step_schedule("constant", 4, 1.0))
        return
    for t, h in [(1.0, 0.1), (0.6, 0.05), (0.3, 0.2)]:
        # the first row of a two-step plan starting at t steps to t - h
        sched = NoiseSchedule(kind=kind, T=t)
        row = step_table(solver, sched, StepSchedule(2, t, (h, t - h)))[0]
        s = eval_schedule(sched, t)
        noise = (0.0, 0.0, 0.0)
        if solver == "euler":
            ref = x + h * pf_ode_drift(x, t, fixed, sched)
        elif solver == "euler_maruyama":
            # the reverse-SDE drift (beta/2) x - (beta/sqrt(nu)) S
            ref = x + h * (0.5 * s.beta * x - s.beta / math.sqrt(s.nu) * S)
            noise = (math.sqrt(h * s.beta), 0.0, 0.0)
        elif solver == "ddim":
            rho, mu = ddim_coeffs(s.nu, eval_schedule(sched, t - h).nu)
            ref = rho * x + mu * S
        elif solver == "ito_taylor":
            st = taylor_sharp_step(s, h)
            ref = st.rho * x + st.mu * S / math.sqrt(s.nu)
            noise = (st.c_w, st.c_wz, st.c_z)
        else:
            c = taylor_flat_coeffs(s, h, int(solver[-1]))
            ref = c.rho * x + c.mu * S / math.sqrt(s.nu)
        assert (row.t, row.h) == (t, h)
        assert row.rho * x + row.mu * S == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert (row.c_w, row.c_wz, row.c_z) == noise


def test_trajectories_join_across_chunks(monkeypatch):
    # with blocks of 3 rows, 10 trajectories run as blocks of 3, 3, 2 and 2
    # rows at either pool size, and every solver's finals and trajectory
    # equal the one-block run byte for byte
    sched = fit_tanh_schedule(1e-3, 0.9, 1.0)
    steps = make_step_schedule("constant", 4, 1.0)
    score = delta_field([0.5, -0.5])
    run = partial(sample, sched=sched, steps=steps, score=score, d=2, batch=10, seed=4,
                  record_trajectory=True)
    whole = {solver: run(solver) for solver in SOLVERS}
    sizes = []
    chunk = samplers._sample_chunk
    monkeypatch.setattr(samplers, "TRAJECTORY_BLOCK_BYTES", 3 * 8 * 2)
    monkeypatch.setattr(samplers, "_sample_chunk",
                        lambda *a, **kw: sizes.append(len(a[5])) or chunk(*a, **kw))
    for solver, (finals, trajectory, _) in whole.items():
        assert trajectory.shape == (5, 10, 2)
        for workers in (1, 3):
            sizes.clear()
            blocked = run(solver, workers=workers)
            assert sorted(sizes) == [2, 2, 3, 3]
            assert blocked[0].tobytes() == finals.tobytes()
            assert blocked[1].tobytes() == trajectory.tobytes()


def test_step_plan_must_span_the_schedule():
    # a plan over [0, 0.5] on a schedule over [0, 1] would end in one jump to 0
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    with pytest.raises(ValueError, match=r"T=0\.5.*T=1\.0"):
        step_table("taylor3", sched, make_step_schedule("constant", 4, 0.5))


@pytest.mark.parametrize("kind", ["constant", "exponential"])
def test_step_times_walk_the_table(kind):
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    steps = make_step_schedule(kind, 7, 1.0)
    times = steps.times
    assert len(times) == steps.N + 1
    assert times[0] == 1.0 and times[-1] == 0.0
    assert list(times[:-1]) == [row.t for row in step_table("euler", sched, steps)]


# sha256 of the (1000, 2) float64 finals of the stochastic solvers with the
# final-step noise kept: cond-ii, 16 constant steps, exact-marginal start at
# (2, -1), seed 5.  Pins every noise draw bit for bit at both pool sizes.
FROZEN_STOCHASTIC_SHA256 = {
    "euler_maruyama": "d0e2596096e2554475d95c3bd4c0d2a5554c354609b5a1ecc925dccb9e2f724c",
    "ito_taylor": "ba85b3a16e56998038587d0ab706f0272d9a8dace0729a4c7c3c149d840c7f8b",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("solver", sorted(FROZEN_STOCHASTIC_SHA256))
def test_stochastic_finals_frozen_sha256(solver, workers):
    x0 = np.array([2.0, -1.0])
    finals = sample_finals(solver, fit_tanh_schedule(1e-4, 0.99, 1.0),
                           make_step_schedule("constant", 16, 1.0), delta_field(x0), 2,
                           1000, seed=5, start=StartSpec(kind="exact_marginal", x0=x0),
                           workers=workers, final_noise=True)
    assert finals.shape == (1000, 2)
    assert hashlib.sha256(finals.tobytes()).hexdigest() == FROZEN_STOCHASTIC_SHA256[solver]


def test_stochastic_sampling_peak_memory():
    # the Ito-Taylor loop holds the state, the two stream prefixes and one
    # step's noise; a 100k-row run must peak under 8.5 (batch, d) arrays
    batch = 100_000
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    steps = make_step_schedule("constant", 4, 1.0)
    run = partial(sample_finals, "ito_taylor", sched, steps, delta_field([0.0]), 1,
                  seed=0, workers=1, final_noise=True)
    run(batch=16)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        run(batch=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * batch) < 8.5


def test_large_batch_peak_memory_is_bounded_by_blocks():
    # beyond one block per worker the sampler holds the finals, the pool's
    # blocks and their per-step temporaries, not worker-sized chunks
    batch, d, workers = 200_000, 1, 2
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    steps = make_step_schedule("constant", 4, 1.0)
    run = partial(sample_finals, "ito_taylor", sched, steps, delta_field([0.0]), d,
                  seed=0, workers=workers)
    run(batch=16)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        run(batch=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * batch * d * 8 + 8 * workers * samplers.TRAJECTORY_BLOCK_BYTES


@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_build_their_own_trajectory_indices(workers):
    # each block draws from an index range of its own, so past the finals one
    # call holds per-block arrays only, not a batch-sized index array
    batch = 500_000
    run = partial(sample_finals, "euler", fit_tanh_schedule(1e-4, 0.99, 1.0),
                  make_step_schedule("constant", 2, 1.0), delta_field([0.0]), 1,
                  seed=0, workers=workers)
    run(batch=16)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        run(batch=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * batch + 8 * workers * samplers.TRAJECTORY_BLOCK_BYTES
