"""Term rewriting engine: rule examples, operator normal forms, exact series."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from difftaylor.schedules import eval_schedule, fit_tanh_schedule
from difftaylor.symderiv import (
    FFLAT,
    FSHARP,
    G,
    Expr,
    HSeries,
    apply_operator,
    differentiate,
    divide_one_minus_nu,
    eval_expr,
    eval_series,
    expand_ddim,
    gen_flat_coefficients,
    gen_sharp_coefficients,
    nu_backward_series,
    operator_table,
    _factors,
)

HALF = Fraction(1, 2)


def test_space_derivative_of_score():
    assert differentiate(Expr.s(), "x") == Expr.nu(Fraction(-1, 2))


def test_time_derivative_of_score():
    expected = (
        Expr.x() * Expr.beta() * Expr.nu(-HALF) * HALF
        - Expr.s() * Expr.beta() * Expr.nu(-1) * HALF
    )
    assert differentiate(Expr.s(), "t") == expected


def test_time_derivative_of_nu_power():
    # d nu^p = p beta (nu^{p-1} - nu^p)
    p = Fraction(3, 2)
    expected = (Expr.nu(p - 1) - Expr.nu(p)) * Expr.beta() * p
    assert differentiate(Expr.nu(p), "t") == expected


def test_time_derivative_bumps_beta_order():
    assert differentiate(Expr.beta(), "t") == Expr.beta(1)
    assert differentiate(Expr.beta(2), "t") == Expr.beta(3)
    # product rule: d(beta^2) = 2 beta beta_d1
    assert differentiate(Expr.beta(0, 2), "t") == 2 * Expr.beta() * Expr.beta(1)


def test_constants_are_annihilated():
    assert differentiate(Expr.const(7), "x").is_zero()
    assert differentiate(Expr.const(7), "t").is_zero()


def test_mixed_partials_commute():
    for e in (Expr.s(), FFLAT, FSHARP, FFLAT * FSHARP, Expr.s() * Expr.s()):
        xt = differentiate(differentiate(e, "x"), "t")
        tx = differentiate(differentiate(e, "t"), "x")
        assert xt == tx


def test_grammar_stays_closed_under_operators():
    allowed_prefixes = ("x", "S", "nu", "beta")
    e = -FSHARP
    for _ in range(4):
        e = apply_operator("Lsharp", e)
        for name in {name for m in e.terms for name, _ in _factors(m)}:
            assert name.startswith(allowed_prefixes), name


def test_operator_table_normal_forms():
    x, S, b, bd, bdd = Expr.x(), Expr.s(), Expr.beta(), Expr.beta(1), Expr.beta(2)
    rn = Expr.nu(-HALF)  # nu^{-1/2}
    b2, b3 = Expr.beta(0, 2), Expr.beta(0, 3)
    expected = {
        "Lflat(-fflat)": (
            S * rn * bd * HALF - S * Expr.nu(Fraction(-3, 2)) * b2 * Fraction(1, 4)
            + x * b2 * Fraction(1, 4) - x * bd * HALF
        ),
        "Lsharp(-fsharp)": (
            S * rn * bd + x * b2 * Fraction(1, 4) - x * bd * HALF
        ),
        "Gsharp(-fsharp)": (
            Expr.beta(0, Fraction(3, 2)) * HALF
            - Expr.beta(0, Fraction(3, 2)) * Expr.nu(-1)
        ),
        "Lsharp(g)": Expr.beta(0, -HALF) * bd * Fraction(-1, 2),
        "Gsharp(g)": Expr.zero,
        "LflatLflat(-fflat)": (
            S * rn * b3 * Fraction(-1, 8) - S * rn * bdd * HALF
            + S * Expr.nu(Fraction(-3, 2)) * b * bd * Fraction(3, 4)
            + S * Expr.nu(Fraction(-3, 2)) * b3 * Fraction(3, 8)
            - S * Expr.nu(Fraction(-5, 2)) * b3 * Fraction(3, 8)
            - x * b * bd * Fraction(3, 4) + x * b3 * Fraction(1, 8)
            + x * bdd * HALF
        ),
        "LsharpLsharp(-fsharp)": (
            S * rn * b3 * Fraction(-1, 4) - S * rn * bdd
            - x * b * bd * Fraction(3, 4) + x * b3 * Fraction(1, 8)
            + x * bdd * HALF
        ),
        "LsharpGsharp(-fsharp)": (
            Expr.beta(0, HALF) * bd * Fraction(-3, 4)
            + Expr.nu(-1) * Expr.beta(0, HALF) * bd * Fraction(3, 2)
            + Expr.nu(-1) * Expr.beta(0, Fraction(5, 2))
            - Expr.nu(-2) * Expr.beta(0, Fraction(5, 2))
        ),
        "GsharpLsharp(-fsharp)": (
            Expr.beta(0, HALF) * bd * Fraction(-1, 2)
            + Expr.beta(0, Fraction(5, 2)) * Fraction(1, 4)
            + Expr.nu(-1) * Expr.beta(0, HALF) * bd
        ),
        "GsharpGsharp(-fsharp)": Expr.zero,
        "LsharpLsharp(g)": (
            Expr.beta(0, Fraction(-3, 2)) * Expr.beta(1, 2) * Fraction(-1, 4)
            + Expr.beta(0, -HALF) * bdd * HALF
        ),
        "LsharpGsharp(g)": Expr.zero,
        "GsharpLsharp(g)": Expr.zero,
        "GsharpGsharp(g)": Expr.zero,
    }
    table = operator_table()
    assert set(table) == set(expected)
    for key in expected:
        assert table[key] == expected[key], key


# --- independent numeric oracle: finite differences on a concrete realization

SCHED = fit_tanh_schedule(1e-3, 0.9, 1.0)
X0 = 0.3
FD = 1e-3


def num_score(x: float, t: float) -> float:
    nu = eval_schedule(SCHED, t).nu
    return (x - math.sqrt(1.0 - nu) * X0) / math.sqrt(nu)


def realize(e: Expr):
    def f(x: float, t: float) -> float:
        s = eval_schedule(SCHED, t)
        bind = {"x": x, "S": num_score(x, t), "nu": s.nu, "beta": s.beta,
                "beta_d1": s.beta_d1, "beta_d2": s.beta_d2}
        return eval_expr(e, bind)

    return f


def num_operator(op: str, f):
    def a_flat(x, t):
        s = eval_schedule(SCHED, t)
        return -(-0.5 * s.beta * x + 0.5 * s.beta / math.sqrt(s.nu) * num_score(x, t))

    def a_sharp(x, t):
        s = eval_schedule(SCHED, t)
        return -(-0.5 * s.beta * x + s.beta / math.sqrt(s.nu) * num_score(x, t))

    def out(x, t):
        dt = (f(x, t + FD) - f(x, t - FD)) / (2 * FD)
        dx = (f(x + FD, t) - f(x - FD, t)) / (2 * FD)
        s = eval_schedule(SCHED, t)
        if op == "Lflat":
            return -dt + a_flat(x, t) * dx
        if op == "Gsharp":
            return math.sqrt(s.beta) * dx
        dxx = (f(x + FD, t) - 2 * f(x, t) + f(x - FD, t)) / FD**2
        return -dt + a_sharp(x, t) * dx + 0.5 * s.beta * dxx

    return out


@pytest.mark.parametrize("ops,seed_name", [
    (("Lflat",), "a_flat"), (("Lsharp",), "a_sharp"), (("Gsharp",), "a_sharp"),
    (("Lsharp",), "g"), (("Lsharp", "Lsharp"), "a_sharp"),
    (("Gsharp", "Lsharp"), "a_sharp"), (("Lsharp", "Gsharp"), "a_sharp"),
])
def test_operators_match_finite_difference_oracle(ops, seed_name):
    seed_expr = {"a_flat": -FFLAT, "a_sharp": -FSHARP, "g": G}[seed_name]
    sym = seed_expr
    num = realize(seed_expr)
    for op in ops:
        sym = apply_operator(op, sym)
        num = num_operator(op, num)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.2, 0.8))
        exact = realize(sym)(x, t)
        approx = num(x, t)
        assert abs(approx - exact) <= 1e-3 * max(1.0, abs(exact))


def test_nu_backward_series_leading_terms():
    # nu(t-h) = nu - h (1-nu) beta + ...
    s = nu_backward_series(2)
    assert s.coeff(0) == Expr.nu()
    assert s.coeff(1) == Expr.nu() * Expr.beta() - Expr.beta()


def test_ddim_expansion_equals_taylor3_exactly():
    rho_d, mu_d = expand_ddim(3)
    rho_f, mu_f = gen_flat_coefficients(3)
    assert (rho_d - rho_f) == HSeries(3, {})
    assert (mu_d - mu_f) == HSeries(3, {})


def test_flat_series_h1_coefficients():
    rho, mu = gen_flat_coefficients(2)
    assert rho.coeff(0) == Expr.one
    assert rho.coeff(1) == Expr.beta() * HALF
    assert mu.coeff(1) == Expr.beta() * Fraction(-1, 2)


def test_sharp_series_matches_flat_at_h1_for_rho():
    rho_s, mu_s, _ = gen_sharp_coefficients()
    rho_f, _ = gen_flat_coefficients(2)
    assert rho_s.coeff(1) == rho_f.coeff(1)
    assert rho_s.coeff(2) == rho_f.coeff(2)
    assert mu_s.coeff(1) == -Expr.beta()


def test_eval_expr_examples():
    assert eval_expr(Expr.nu(-HALF), {"nu": 0.25}) == pytest.approx(2.0, abs=1e-15)
    e = Expr.x() * Expr.beta(1) * 3
    assert eval_expr(e, {"x": 2.0, "beta_d1": 0.5}) == pytest.approx(3.0, abs=1e-15)


def test_eval_expr_errors():
    with pytest.raises(KeyError, match="beta_d1"):
        eval_expr(Expr.beta(1), {})
    with pytest.raises(ValueError, match="fractional"):
        eval_expr(Expr.nu(HALF), {"nu": -1.0})


def test_eval_series_combines_powers():
    s = HSeries(2, {0: Expr.one, 1: Expr.beta(), 2: Expr.const(3)})
    v = eval_series(s, 0.1, {"beta": 2.0})
    assert v == pytest.approx(1 + 0.2 + 0.03, abs=1e-15)


def test_series_sqrt_requires_unit_constant_term():
    with pytest.raises(ValueError, match="constant term"):
        HSeries(2, {0: Expr.const(2)}).sqrt()


def test_series_sqrt_inverts_square():
    s = HSeries(3, {0: Expr.one, 1: Expr.beta(), 2: Expr.nu()})
    sq = s * s
    assert sq.sqrt() == s


def test_divide_one_minus_nu():
    # (1 - nu^2) = (1 - nu)(1 + nu)
    e = Expr.one - Expr.nu(2)
    assert divide_one_minus_nu(e) == Expr.one + Expr.nu()
    with pytest.raises(ValueError, match="divisible"):
        divide_one_minus_nu(Expr.nu())


def test_rendering_is_deterministic_and_readable():
    e = Expr.x() * Expr.beta(0, 2) * Fraction(1, 4) - Expr.s() * Expr.nu(-HALF)
    assert str(e) == "-S*nu^(-1/2) + 1/4*x*beta^2"
    assert str(Expr.zero) == "0"


def test_unknown_operator_and_variable_rejected():
    with pytest.raises(ValueError, match="operator"):
        apply_operator("Lwrong", Expr.x())
    with pytest.raises(ValueError, match="var"):
        differentiate(Expr.x(), "y")
