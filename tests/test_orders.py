"""Convergence-order estimation machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest

from difftaylor import orders
from difftaylor.orders import (
    ERROR_FLOOR,
    closed_form_final,
    deterministic_order,
    fit_order,
    stochastic_order,
)
from difftaylor.schedules import fit_tanh_schedule


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
    monkeypatch.setattr(orders, "sample_finals", lambda *a, **k: calls.append(a))
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

