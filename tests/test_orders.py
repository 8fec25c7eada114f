"""Convergence-order estimation machinery."""

from __future__ import annotations

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from difftaylor import orders, rng, samplers
from difftaylor.orders import (
    ERROR_FLOOR,
    closed_form_final,
    deterministic_order,
    fit_order,
    stochastic_order,
)
from difftaylor.samplers import StartSpec, sample_finals
from difftaylor.schedules import eval_schedule, fit_tanh_schedule, make_step_schedule
from difftaylor.score import delta_field

SCHED = fit_tanh_schedule(1e-4, 0.8, 1.0)  # criterion 3's schedule


def test_fit_order_recovers_power_law():
    hs = [0.1 / 2**j for j in range(5)]
    errs = [3.0 * h**2 for h in hs]
    est = fit_order("x", "path", hs, errs)
    assert est.slope == pytest.approx(2.0, abs=1e-10)
    assert est.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_order_drops_floor_points():
    hs = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    errs = [h**1.5 for h in hs[:4]] + [ERROR_FLOOR / 10]
    est = fit_order("x", "path", hs, errs)
    assert len(est.h_list) == 4
    assert est.slope == pytest.approx(1.5, abs=1e-10)


def test_fit_order_requires_three_points():
    with pytest.raises(ValueError, match="insufficient"):
        fit_order("x", "path", [0.1, 0.05], [1e-20, 1e-20])


@pytest.mark.parametrize("halvings", [0, 1])
@pytest.mark.parametrize("study,solver", [(deterministic_order, "rk4"),
                                          (stochastic_order, "ito_taylor")])
def test_too_few_halvings_rejected_before_the_first_grid(monkeypatch, study, solver,
                                                         halvings):
    calls = []
    monkeypatch.setattr(orders, "sample_finals_on_plans", lambda *a, **k: calls.append(a))
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    with pytest.raises(ValueError, match="halvings"):
        study(solver, sched, halvings=halvings)
    assert calls == []


def test_closed_form_final_scaling():
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    x = np.array([2.0, -1.0])
    out = closed_form_final(sched, x)
    assert np.allclose(out, math.sqrt(1e-4 / 0.99) * x, atol=1e-15)


def test_deterministic_orders_land_in_expected_bands():
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    bands = {"euler": (0.8, 1.2), "heun": (1.7, 2.3), "taylor2": (1.7, 2.3),
             "taylor3": (2.6, 3.4), "rk4": (3.5, 4.5)}
    for solver, (lo, hi) in bands.items():
        est = deterministic_order(solver, sched, n0=8, halvings=6)
        assert lo <= est.slope <= hi, (solver, est.slope)



@pytest.mark.parametrize("solver", ["euler_maruyama", "ito_taylor"])
def test_stochastic_order_equals_grid_by_grid_reference(solver):
    # the lockstep study gives the very estimates of one sample_finals call
    # per grid, each followed by numpy's mean and var of its finals
    x0, batch, seed = 1000.0, 3000, 11
    got = stochastic_order(solver, SCHED, x0=x0, n0=8, halvings=2, batch=batch, seed=seed,
                           workers=2)
    nu0 = eval_schedule(SCHED, 0.0).nu
    start = StartSpec(kind="exact_marginal", x0=np.asarray([x0]))
    h_list, mean_errs, var_errs = [], [], []
    for n in (8, 16, 32):
        finals = sample_finals(solver, SCHED, make_step_schedule("constant", n, 1.0),
                               delta_field([x0]), 1, batch, seed, start=start,
                               final_noise=True)[:, 0]
        h_list.append(1.0 / n)
        mean_errs.append(abs(float(finals.mean()) - math.sqrt(1.0 - nu0) * x0))
        var_errs.append(abs(float(finals.var()) - nu0))
    assert got == {"mean": fit_order(solver, "mean", h_list, mean_errs),
                   "var": fit_order(solver, "var", h_list, var_errs)}


def test_lockstep_study_draws_each_step_once(monkeypatch):
    # one block runs the 4-, 8- and 16-step grids together: one start draw
    # (step 0) and steps 1-16 of the w and u streams each; grid by grid that
    # was 3 start draws and 4 + 8 + 16 = 28 steps per stream
    steps = []
    normals = rng.TrajectoryStream.normals
    monkeypatch.setattr(rng.TrajectoryStream, "normals",
                        lambda self, step, d: steps.append(step) or normals(self, step, d))
    stochastic_order("ito_taylor", SCHED, n0=4, halvings=2, batch=64)
    assert sorted(steps) == [0] + sorted(2 * list(range(1, 17)))


def test_stochastic_order_peak_memory():
    # the study holds every grid's finals at once, plus numpy's one
    # batch-sized temporary of var and each worker's block temporaries
    batch, workers, grids = 200_000, 2, 3
    run = partial(stochastic_order, "ito_taylor", SCHED, n0=4, halvings=grids - 1, seed=0,
                  workers=workers)
    run(batch=64)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        run(batch=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (grids + 1) * batch * 8 + 8 * workers * samplers.TRAJECTORY_BLOCK_BYTES
