"""Term rewriting engine for closed-form score derivatives.

Expressions live in a tiny closed grammar: rational-coefficient sums of
monomials in {x, S} times powers of nu and of beta and its time derivatives.
The derivative rules

    dS/dx -> nu^{-1/2}
    dS/dt -> (beta/(2 sqrt(nu))) (x - S/sqrt(nu))
    d nu/dt -> (1 - nu) beta
    d beta^{(n)}/dt -> beta^{(n+1)}

keep the grammar closed, so differentiation plus polynomial normalization is a
complete simplifier.  Everything is exact rational arithmetic; this module is
the oracle against which the hand-coded sampler coefficients are tested.

Time runs forward here.  The samplers step backward, so their series are
assembled in powers of (-h) at the boundary, not by changing any rule signs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Number = Union[int, Fraction]

# Monomial key: (x_pow, s_pow, nu_pow, betas)
# betas is a sorted tuple of (derivative_order, power) with nonzero powers.
Mono = tuple[int, int, Fraction, tuple]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _mono(x_pow=0, s_pow=0, nu_pow=_ZERO, betas=()) -> Mono:
    return (x_pow, s_pow, Fraction(nu_pow), tuple(sorted(betas)))


def _mul_betas(a, b):
    acc = {}
    for n, p in a:
        acc[n] = acc.get(n, _ZERO) + p
    for n, p in b:
        acc[n] = acc.get(n, _ZERO) + p
    return tuple(sorted((n, p) for n, p in acc.items() if p != 0))


class Expr:
    """Normal-form symbolic expression: {monomial: rational coefficient}."""

    __slots__ = ("terms", "_numeric")

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c != 0}
        self._numeric = None  # float form for eval_expr, filled on first use

    # constructors
    @staticmethod
    def const(c: Number) -> "Expr":
        return Expr({_mono(): Fraction(c)})

    @staticmethod
    def x() -> "Expr":
        return Expr({_mono(x_pow=1): _ONE})

    @staticmethod
    def s() -> "Expr":
        return Expr({_mono(s_pow=1): _ONE})

    @staticmethod
    def nu(p: Number = 1) -> "Expr":
        return Expr({_mono(nu_pow=Fraction(p)): _ONE})

    @staticmethod
    def beta(n: int = 0, p: Number = 1) -> "Expr":
        return Expr({_mono(betas=((n, Fraction(p)),)): _ONE})

    # arithmetic
    def __add__(self, other: "Expr") -> "Expr":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, _ZERO) + c
        return Expr(out)

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __neg__(self) -> "Expr":
        return Expr({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Expr":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Expr({m: c * q for m, c in self.terms.items()})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (
                    m1[0] + m2[0],
                    m1[1] + m2[1],
                    m1[2] + m2[2],
                    _mul_betas(m1[3], m2[3]),
                )
                out[m] = out.get(m, _ZERO) + c1 * c2
        return Expr(out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_sort_key):
            parts.append(_render_term(m, self.terms[m]))
        out = parts[0]
        for p in parts[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out

    __repr__ = __str__


Expr.zero = Expr({})
Expr.one = Expr.const(1)


def _factors(m: Mono):
    """(name, power) of each factor of a monomial: x, S, nu, then the betas."""
    for name, p in zip(("x", "S", "nu"), m[:3]):
        if p:
            yield name, p
    for n, p in m[3]:
        yield ("beta" if n == 0 else f"beta_d{n}"), p


def _sort_key(m: Mono):
    return (-m[1], -m[0], -m[2], m[3])


def _render_pow(name: str, p: Number) -> str:
    if p == 1:
        return name
    if p.denominator == 1:
        return f"{name}^{p.numerator}"
    return f"{name}^({p})"


def _render_term(m: Mono, c: Fraction) -> str:
    factors = [_render_pow(name, p) for name, p in _factors(m)]
    if not factors:
        return str(c)
    body = "*".join(factors)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{c}*{body}"


# dS/dt in forward time: (beta/(2 sqrt(nu))) x - (beta/(2 nu)) S
_DS_DT = (
    Expr.x() * Expr.beta() * Expr.nu(Fraction(-1, 2)) * Fraction(1, 2)
    + Expr.s() * Expr.beta() * Expr.nu(-1) * Fraction(-1, 2)
)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact derivative with the closed-form score rules; var is "x" or "t"."""
    if var not in ("x", "t"):
        raise ValueError(f"var must be 'x' or 't', got {var!r}")
    out = Expr.zero
    for m, c in e.terms.items():
        x_pow, s_pow, nu_pow, betas = m
        if var == "x":
            if x_pow:
                out = out + Expr({_mono(x_pow - 1, s_pow, nu_pow, betas): c * x_pow})
            if s_pow:
                # dS/dx = nu^{-1/2}
                nu_p = nu_pow - Fraction(1, 2)
                out = out + Expr({_mono(x_pow, s_pow - 1, nu_p, betas): c * s_pow})
            continue
        # time derivative: product rule over the S, nu and beta factors
        if s_pow:
            rest = Expr({_mono(x_pow, s_pow - 1, nu_pow, betas): c * s_pow})
            out = out + rest * _DS_DT
        if nu_pow:
            # d nu^p = p nu^{p-1} (1-nu) beta = p beta (nu^{p-1} - nu^p)
            base = Expr({_mono(x_pow, s_pow, nu_pow - 1, betas): c * nu_pow})
            out = out + (base - base * Expr.nu()) * Expr.beta()
        for i, (n, p) in enumerate(betas):
            reduced = list(betas)
            if p == 1:
                del reduced[i]
            else:
                reduced[i] = (n, p - 1)
            bumped = _mul_betas(tuple(reduced), ((n + 1, _ONE),))
            out = out + Expr({_mono(x_pow, s_pow, nu_pow, bumped): c * p})
    return out


# Drifts in forward time and the diffusion amplitude.
FFLAT = (
    Expr.x() * Expr.beta() * Fraction(-1, 2)
    + Expr.s() * Expr.beta() * Expr.nu(Fraction(-1, 2)) * Fraction(1, 2)
)
FSHARP = (
    Expr.x() * Expr.beta() * Fraction(-1, 2)
    + Expr.s() * Expr.beta() * Expr.nu(Fraction(-1, 2))
)
G = Expr.beta(0, Fraction(1, 2))
# The operator-table bases, each with its generator's operators.
_GRAMMAR = (
    ("-fflat", -FFLAT, ("Lflat",)),
    ("-fsharp", -FSHARP, ("Lsharp", "Gsharp")),
    ("g", G, ("Lsharp", "Gsharp")),
)


def apply_operator(op: str, e: Expr) -> Expr:
    """Apply one of the generator operators used in the Taylor expansions.

    Lflat e = -de/dt - fflat de/dx
    Lsharp e = -de/dt - fsharp de/dx + (beta/2) d2e/dx2
    Gsharp e = sqrt(beta) de/dx
    """
    if op == "Lflat":
        return -differentiate(e, "t") - FFLAT * differentiate(e, "x")
    if op == "Lsharp":
        ex = differentiate(e, "x")
        return (
            -differentiate(e, "t")
            - FSHARP * ex
            + Expr.beta() * differentiate(ex, "x") * Fraction(1, 2)
        )
    if op == "Gsharp":
        return G * differentiate(e, "x")
    raise ValueError(f"unknown operator {op!r}")


class HSeries:
    """Truncated power series in the step size h with Expr coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict):
        self.order = order
        self.coeffs = {k: c for k, c in coeffs.items() if k <= order and not c.is_zero()}

    def coeff(self, k: int) -> Expr:
        return self.coeffs.get(k, Expr.zero)

    def __add__(self, other: "HSeries") -> "HSeries":
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Expr.zero) + c
        return HSeries(order, out)

    def __sub__(self, other: "HSeries") -> "HSeries":
        return self + other.map(Expr.__neg__)

    def __mul__(self, other: "HSeries") -> "HSeries":
        order = min(self.order, other.order)
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                if k1 + k2 <= order:
                    out[k1 + k2] = out.get(k1 + k2, Expr.zero) + c1 * c2
        return HSeries(order, out)

    def map(self, fn) -> "HSeries":
        return HSeries(self.order, {k: fn(c) for k, c in self.coeffs.items()})

    def sqrt(self) -> "HSeries":
        """Square root via the binomial series; constant term must equal 1."""
        if self.coeff(0) != Expr.one:
            raise ValueError("series sqrt requires constant term 1")
        u = HSeries(self.order, {k: c for k, c in self.coeffs.items() if k > 0})
        out = upow = HSeries(self.order, {0: Expr.one})
        binom = _ONE
        for j in range(1, self.order + 1):
            binom *= (Fraction(1, 2) - (j - 1)) / j
            upow = upow * u
            if not upow.coeffs:
                break
            out = out + upow.map(lambda c: c * binom)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, HSeries) and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            else:
                parts.append(f"h^{k}*({c})")
        return " + ".join(parts)

    __repr__ = __str__


def divide_one_minus_nu(e: Expr) -> Expr:
    """Exact polynomial division of e by (1 - nu); raises if not divisible."""
    quotient = Expr.zero
    rem = e
    while not rem.is_zero():  # each step lowers the top nu power of one term by 1
        m = max(rem.terms, key=lambda m: m[2])
        if m[2] < 1:
            raise ValueError(f"expression not divisible by (1 - nu): remainder {rem}")
        # leading divisor term is -nu; quotient term = -(term)/nu
        qt = Expr({(m[0], m[1], m[2] - 1, m[3]): -rem.terms[m]})
        quotient = quotient + qt
        rem = rem - qt * (Expr.one - Expr.nu())
    return quotient


def _taylor_displacement(order: int) -> HSeries:
    """Series for x_{t-h} from repeated Lflat application: x + sum h^k/k! e_k."""
    out = HSeries(order, {0: Expr.x()})
    e = -FFLAT
    fact = 1
    for k in range(1, order + 1):
        fact *= k
        out = out + HSeries(order, {k: e * Fraction(1, fact)})
        if k < order:
            e = apply_operator("Lflat", e)
    return out


def _split_rho_mu(series: HSeries) -> tuple[HSeries, HSeries]:
    """Split a displacement series into x and S/sqrt(nu) coefficient series."""

    def x_part(e: Expr) -> Expr:
        return Expr({_mono(m[0] - 1, m[1], m[2], m[3]): c
                     for m, c in e.terms.items() if m[0] == 1 and m[1] == 0})

    def s_part(e: Expr) -> Expr:
        # mu is normalized so the update term is mu * S / sqrt(nu)
        return Expr({_mono(m[0], m[1] - 1, m[2] + Fraction(1, 2), m[3]): c
                     for m, c in e.terms.items() if m[1] == 1 and m[0] == 0})

    for e in series.coeffs.values():
        for m in e.terms:
            if (m[0], m[1]) not in ((1, 0), (0, 1)):
                raise ValueError(f"unexpected monomial {m} in coefficient series")
    return series.map(x_part), series.map(s_part)


def gen_flat_coefficients(order: int) -> tuple[HSeries, HSeries]:
    """Symbolic (rho, mu) series of the deterministic Taylor update."""
    if order not in (2, 3):
        raise ValueError(f"order must be 2 or 3, got {order}")
    return _split_rho_mu(_taylor_displacement(order))


def gen_sharp_coefficients() -> tuple[HSeries, HSeries, dict]:
    """Symbolic pieces of the stochastic Taylor update.

    Returns (rho, mu) series through h^2 plus the noise coefficient table
    {"c_w": sqrt(beta) (times sqrt(h)), "c_wz": coefficient of h^{3/2}(w - z),
    "c_z": coefficient of h^{3/2} z}.
    """
    a = -FSHARP
    la = apply_operator("Lsharp", a)
    det = HSeries(2, {0: Expr.x(), 1: a, 2: la * Fraction(1, 2)})
    rho, mu = _split_rho_mu(det)
    noise = {
        "c_w": G,
        "c_wz": apply_operator("Lsharp", G),
        "c_z": apply_operator("Gsharp", a),
    }
    return rho, mu, noise


def nu_backward_series(order: int) -> HSeries:
    """Series of nu(t-h) in powers of h via repeated nu' -> (1-nu) beta."""
    out = {0: Expr.nu()}
    e = Expr.nu()
    fact = 1
    for k in range(1, order + 1):
        e = differentiate(e, "t")
        fact *= k
        out[k] = e * Fraction((-1) ** k, fact)
    return HSeries(order, out)


def expand_ddim(order: int = 3) -> tuple[HSeries, HSeries]:
    """Taylor-expand the DDIM step coefficients in the step size h.

    Returns (rho, mu) with mu in the same normalization as the Taylor series
    (the update term is mu * S / sqrt(nu)), i.e. sqrt(nu) times the raw DDIM
    S-coefficient.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    nu_prev = nu_backward_series(order)
    one = HSeries(order, {0: Expr.one})
    # (1 - nu_prev)/(1 - nu) has constant term 1: sqrt is a binomial series
    ratio = (one - nu_prev).map(divide_one_minus_nu)
    rho = ratio.sqrt()
    # sqrt(nu) mu = sqrt(nu nu_prev) - nu rho; nu_prev/nu has constant term 1
    nu_ratio = nu_prev.map(lambda e: e * Expr.nu(-1))
    mu = (nu_ratio.sqrt() - rho).map(lambda e: e * Expr.nu())
    return rho, mu


def _numeric_terms(e: Expr) -> tuple:
    """Each term of ``e`` as (float coefficient, ((name, float power,
    fractional?), ...)), converted from the rationals once per Expr."""
    if e._numeric is None:
        e._numeric = tuple(
            (float(c), tuple((name, float(p), p.denominator != 1) for name, p in _factors(m)))
            for m, c in e.terms.items())
    return e._numeric


def eval_expr(e: Expr, bindings: dict) -> float:
    """Numeric evaluation; bindings use keys x, S, nu, beta, beta_d1, ..."""
    total = 0.0
    for val, factors in _numeric_terms(e):
        for name, p, fractional in factors:
            if name not in bindings:
                raise KeyError(f"unbound atom {name!r}")
            base = bindings[name]
            if base < 0 and fractional:
                raise ValueError(f"fractional power of negative {name}={base}")
            val *= float(base) ** p
        total += val
    return total


def eval_series(s: HSeries, h: float, bindings: dict) -> float:
    """Numeric evaluation of a truncated h-series at step size h."""
    return sum(h**k * eval_expr(c, bindings) for k, c in s.coeffs.items())


def operator_table() -> dict:
    """Every first- and second-generation operator application used by the
    second- and third-order updates, in normal form: each base under its
    generator's operators, then each of those under every outer operator."""
    first, second = {}, {}
    for base, e, ops in _GRAMMAR:
        for op in ops:
            first[f"{op}({base})"] = apply_operator(op, e)
        for outer in ops:
            for inner in ops:
                second[f"{outer}{inner}({base})"] = apply_operator(
                    outer, first[f"{inner}({base})"])
    return first | second


def render_report() -> str:
    """Canonical text rendering of the operator table and coefficient series."""
    lines = ["# operator table"]
    for name, e in operator_table().items():
        lines.append(f"{name} = {e}")
    lines.append("")
    lines.append("# deterministic Taylor coefficients (update: rho*x + mu*S/sqrt(nu))")
    for order in (2, 3):
        rho, mu = gen_flat_coefficients(order)
        lines.append(f"rho_flat[{order}] = {rho}")
        lines.append(f"mu_flat[{order}] = {mu}")
    rho_s, mu_s, noise = gen_sharp_coefficients()
    lines.append("")
    lines.append("# stochastic Taylor coefficients")
    lines.append(f"rho_sharp = {rho_s}")
    lines.append(f"mu_sharp = {mu_s}")
    for key in ("c_w", "c_wz", "c_z"):
        lines.append(f"{key} = {noise[key]}")
    rho_d, mu_d = expand_ddim(3)
    lines.append("")
    lines.append("# DDIM coefficient series")
    lines.append(f"rho_ddim = {rho_d}")
    lines.append(f"mu_ddim = {mu_d}")
    rho3, mu3 = gen_flat_coefficients(3)
    lines.append(f"rho_ddim - rho_flat[3] = {rho_d - rho3}")
    lines.append(f"mu_ddim - mu_flat[3] = {mu_d - mu3}")
    return "\n".join(lines) + "\n"
