"""Noise schedules: closed-form fits, exact derivatives, step plans."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftaylor import schedules
from difftaylor.config import FIELD_NAMES
from difftaylor.schedules import (
    Cosine,
    Linear,
    NoiseSchedule,
    TanhSoftplus,
    eval_schedule,
    fit_tanh_schedule,
    make_step_schedule,
)


def test_fit_equal_endpoints_constant():
    # equal endpoints force k=0 and a time-independent nu; tanh(log(3)/2)=1/2
    sched = fit_tanh_schedule(0.25, 0.25, 1.0)
    assert sched.kind.A == pytest.approx(2.0, abs=1e-14)
    assert sched.kind.k == pytest.approx(0.0, abs=1e-14)
    for t in (0.0, 0.3, 1.0):
        assert eval_schedule(sched, t).nu == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("nu0,nuT", [(5e-4, 0.995), (1e-4, 0.99)])
def test_fit_endpoint_round_trip(nu0, nuT):
    sched = fit_tanh_schedule(nu0, nuT, 1.0)
    assert abs(eval_schedule(sched, 0.0).nu - nu0) < 1e-12
    assert abs(eval_schedule(sched, 1.0).nu - nuT) < 1e-12


@pytest.mark.parametrize(
    "nu0,nuT,T,field",
    [(0.0, 0.5, 1.0, "nu0"), (1.0, 0.5, 1.0, "nu0"), (0.1, 1.0, 1.0, "nuT"),
     (0.5, 0.1, 1.0, "nu0"), (0.1, 0.5, 0.0, "T")],
)
def test_fit_rejects_bad_arguments(nu0, nuT, T, field):
    with pytest.raises(ValueError, match=field):
        fit_tanh_schedule(nu0, nuT, T)


def test_eval_constant_schedule_kills_time_variation():
    sched = NoiseSchedule(kind=TanhSoftplus(A=2.0, k=0.0), T=1.0)
    s = eval_schedule(sched, 0.5)
    assert s.lam == pytest.approx(math.log(3.0), abs=1e-15)
    assert s.nu == pytest.approx(0.25, abs=1e-15)
    assert s.beta == 0.0
    assert s.beta_d1 == 0.0


def test_eval_linear_at_zero():
    sched = NoiseSchedule(kind=Linear(beta0=0.1, beta1=9.95), T=1.0)
    s = eval_schedule(sched, 0.0)
    assert s.beta == pytest.approx(0.1, abs=1e-15)
    assert s.nu == 0.0
    assert s.beta_d1 == pytest.approx(2 * 9.95, abs=1e-15)
    assert s.beta_d2 == 0.0


def test_eval_tanh_matches_high_precision_oracle():
    # independent 50-digit evaluation of lam = log(1+A e^{kt}) and descendants
    sched = fit_tanh_schedule(5e-4, 0.995, 1.0)
    A, k = sched.kind.A, sched.kind.k
    with mpmath.workdps(50):
        mA, mk, t = mpmath.mpf(A), mpmath.mpf(k), mpmath.mpf("0.5")
        lam = mpmath.log(1 + mA * mpmath.e**(mk * t))
        nu = mpmath.tanh(lam / 2) ** 2
        lam_d1 = mk * mA * mpmath.e**(mk * t) / (mA * mpmath.e**(mk * t) + 1)
        beta = lam_d1 * mpmath.tanh(lam / 2)
        s = eval_schedule(sched, 0.5)
        assert abs(s.lam - float(lam)) < 1e-13
        assert abs(s.nu - float(nu)) < 1e-13
        assert abs(s.beta - float(beta)) < 1e-12


def test_eval_rejects_out_of_domain():
    sched = fit_tanh_schedule(0.1, 0.9, 1.0)
    with pytest.raises(ValueError, match="domain"):
        eval_schedule(sched, 1.5)
    with pytest.raises(ValueError, match="domain"):
        eval_schedule(sched, -0.5)


def test_cosine_schedule_values_and_clamp():
    sched = NoiseSchedule(kind=Cosine(threshold=20.0), T=1.0)
    s = eval_schedule(sched, 0.5)
    assert s.nu == pytest.approx(math.sin(math.pi / 4) ** 2, abs=1e-15)
    assert s.beta == pytest.approx(math.pi, abs=1e-12)
    assert not s.clamped
    late = eval_schedule(sched, 0.999)
    assert late.beta == 20.0
    assert late.clamped


def test_step_schedule_constant():
    plan = make_step_schedule("constant", 4, 1.0)
    assert plan.steps == (0.25, 0.25, 0.25, 0.25)


def test_step_schedule_exponential_single_step():
    plan = make_step_schedule("exponential", 1, 1.0)
    assert plan.steps == pytest.approx((1.0,), abs=1e-15)


def test_step_schedule_exponential_two_steps():
    # r = 0.1^{1/2}, h1 = (1-r)/(1-r^2) = 1/(1+r)
    plan = make_step_schedule("exponential", 2, 1.0)
    r = 0.1**0.5
    assert plan.steps[0] == pytest.approx(1.0 / (1.0 + r), abs=1e-12)
    assert plan.steps[0] == pytest.approx(0.759747, abs=1e-6)
    assert plan.steps[1] == pytest.approx(0.240253, abs=1e-6)
    assert sum(plan.steps) == pytest.approx(1.0, abs=1e-12)


def test_step_schedule_rejects_zero_steps():
    with pytest.raises(ValueError, match="N"):
        make_step_schedule("constant", 0, 1.0)


def test_step_plans_are_named_once():
    assert FIELD_NAMES["step_schedule"] is schedules.STEP_PLANS
    with pytest.raises(ValueError, match="unknown step schedule kind 'geometric'"):
        make_step_schedule("geometric", 4, 1.0)


@pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
def test_horizon_must_be_positive_and_finite(T):
    with pytest.raises(ValueError, match="T must be positive and finite"):
        make_step_schedule("constant", 4, T)
    for kind in (Linear(beta0=0.1, beta1=9.95), Cosine()):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            NoiseSchedule(kind=kind, T=T)


@pytest.mark.parametrize("kind,T,message", [
    (Cosine(), 1.0 + 1e-15, "exceeds 1"), (Cosine(), 3.0, "exceeds 1"),
    (Cosine(), 1e-200, "nu\\(T\\) rounds to 0"),
    (Linear(beta0=0.1, beta1=9.95), 1e-30, "nu\\(T\\) rounds to 0")])
def test_schedule_refuses_a_horizon_its_nu_cannot_reach(kind, T, message):
    with pytest.raises(ValueError, match=f"T={T} .*{message}"):
        NoiseSchedule(kind=kind, T=T)
    # the largest cosine horizon and a tiny linear one whose nu(T) is positive run
    assert eval_schedule(NoiseSchedule(kind=Cosine(), T=1.0), 1.0).nu == 1.0
    assert eval_schedule(NoiseSchedule(kind=kind, T=1e-10), 1e-10).nu > 0.0


@pytest.mark.parametrize("kwargs,field", [
    (dict(beta0=-5.0, beta1=9.95), "beta0"), (dict(beta0=0.1, beta1=-1.0), "beta1"),
    (dict(beta0=math.nan, beta1=1.0), "beta0"), (dict(beta0=0.1, beta1=math.inf), "beta1"),
    (dict(beta0=0.0, beta1=0.0), "beta0 \\+ beta1")])
def test_linear_rates_must_be_finite_nonnegative_and_not_both_zero(kwargs, field):
    with pytest.raises(ValueError, match=field):
        Linear(**kwargs)
    assert Linear(beta0=0.0, beta1=1.0).beta0 == 0.0


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.inf, math.nan])
def test_cosine_threshold_must_be_positive_and_finite(threshold):
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        Cosine(threshold=threshold)


@pytest.mark.parametrize("T", [1e-300, 5e-324])
def test_tanh_fit_refuses_a_horizon_whose_rate_overflows(T):
    with pytest.raises(ValueError, match=f"T={T} is too small"):
        fit_tanh_schedule(1e-4, 0.99, T)
    # the smallest horizons that run keep running: k**3 stays finite
    sched = fit_tanh_schedule(1e-4, 0.99, 1e-100)
    assert math.isfinite(eval_schedule(sched, 1e-100).beta_d2)


@given(
    t=st.floats(min_value=0.01, max_value=0.99),
    n=st.integers(min_value=1, max_value=64),
    T=st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_step_schedules_sum_to_total_time(t, n, T):
    for kind in ("constant", "exponential"):
        plan = make_step_schedule(kind, n, T)
        assert abs(sum(plan.steps) - T) / T < 1e-12
        assert all(h > 0 for h in plan.steps)


@given(t=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_nu_dot_identity_finite_difference(t):
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    d = 1e-6
    s = eval_schedule(sched, t)
    fd = (eval_schedule(sched, t + d).nu - eval_schedule(sched, t - d).nu) / (2 * d)
    assert abs(fd - (1 - s.nu) * s.beta) <= 1e-6 * abs(fd)


@given(t=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_beta_derivatives_finite_difference(t):
    for sched in (fit_tanh_schedule(1e-4, 0.99, 1.0),
                  NoiseSchedule(kind=Linear(beta0=0.1, beta1=9.95), T=1.0)):
        d = 1e-6
        s = eval_schedule(sched, t)
        sp, sm = eval_schedule(sched, t + d), eval_schedule(sched, t - d)
        fd1 = (sp.beta - sm.beta) / (2 * d)
        fd2 = (sp.beta_d1 - sm.beta_d1) / (2 * d)
        assert abs(fd1 - s.beta_d1) <= 1e-5 * max(abs(fd1), 1e-12)
        assert abs(fd2 - s.beta_d2) <= 1e-5 * max(abs(fd2), 1e-12)


@given(t=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_lipschitz_form_beta_over_sqrt_nu_is_lam_dot(t):
    sched = fit_tanh_schedule(5e-4, 0.995, 1.0)
    s = eval_schedule(sched, t)
    assert abs(s.beta / math.sqrt(s.nu) - s.lam_d1) <= 1e-10 * abs(s.lam_d1)


def test_tanh_nu_monotone_and_in_range():
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    last = -1.0
    for i in range(101):
        nu = eval_schedule(sched, i / 100).nu
        assert 0.0 < nu < 1.0
        assert nu > last
        last = nu


UNCACHED = {TanhSoftplus: schedules._eval_tanh_softplus, Linear: schedules._eval_linear,
            Cosine: schedules._eval_cosine}


@pytest.mark.parametrize("sched", [
    fit_tanh_schedule(1e-4, 0.99, 1.0),
    NoiseSchedule(kind=Linear(beta0=0.1, beta1=9.95), T=1.0),
    NoiseSchedule(kind=Cosine(threshold=20.0), T=1.0),
], ids=["tanh", "linear", "cosine"])
def test_memoized_samples_equal_the_uncached_evaluation(sched):
    T = sched.T
    # (asked, evaluated): both ends, -0.0, the int 1 after the float 1.0, a
    # clamped cosine time, just outside the domain on either side, and one
    # time asked twice
    cases = [(0.0, 0.0), (T, T), (-0.0, -0.0), (1, 1), (0.999, 0.999), (-1e-13, 0.0),
             (T + 1e-13, T), (0.37, 0.37), (0.37, 0.37)]
    for asked, at in cases:
        got = eval_schedule(sched, asked)
        want = UNCACHED[type(sched.kind)](sched.kind, at)
        # repr tells -0.0 from 0.0 and matches nan with nan
        assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want)), asked
    assert eval_schedule(sched, 0.37) is eval_schedule(sched, 0.37)


def test_schedule_memo_stays_bounded():
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    n = schedules._evaluate.cache_info().maxsize + 100
    for i in range(n):
        eval_schedule(sched, (i + 1) / (n + 1))
    info = schedules._evaluate.cache_info()
    assert info.currsize <= info.maxsize


def test_shared_samples_are_frozen():
    s = eval_schedule(fit_tanh_schedule(1e-4, 0.99, 1.0), 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.nu = 0.0


def test_eval_rejects_unknown_kind():
    for t in (0.0, 0.5):
        with pytest.raises(TypeError, match="unknown schedule kind"):
            eval_schedule(NoiseSchedule(kind="bogus", T=1.0), t)
