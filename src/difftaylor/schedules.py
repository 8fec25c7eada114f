"""Noise-level schedules with exact time derivatives.

The central object is a schedule t -> nu(t) in (0,1) describing how much of a
sample's variance has been replaced by noise at time t, together with the rate
beta(t) and its first two derivatives.  The tanh/softplus schedule is
parametrized through lam(t) = log(1 + A e^{k t}) with nu = tanh^2(lam/2) and
beta = lam' tanh(lam/2), which keeps beta/sqrt(nu) = lam' bounded.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Union


@dataclass(frozen=True)
class TanhSoftplus:
    A: float
    k: float


@dataclass(frozen=True)
class Linear:
    beta0: float
    beta1: float

    def __post_init__(self):
        for name, value in (("beta0", self.beta0), ("beta1", self.beta1)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.beta0 + self.beta1 == 0.0:
            raise ValueError("beta0 + beta1 must be positive, got beta0 = beta1 = 0")


@dataclass(frozen=True)
class Cosine:
    # beta is clipped at this value near t=T where tan(pi t/2) blows up
    threshold: float = 20.0

    def __post_init__(self):
        if not 0.0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")


ScheduleKind = Union[TanhSoftplus, Linear, Cosine]


def _check_horizon(T: float) -> None:
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")


@dataclass(frozen=True)
class NoiseSchedule:
    kind: ScheduleKind
    T: float

    def __post_init__(self):
        _check_horizon(self.T)
        if isinstance(self.kind, Cosine) and self.T > 1.0:
            raise ValueError(f"T={self.T} exceeds 1, where the cosine schedule's "
                             "nu = sin^2(pi t/2) stops rising")
        if _evaluate(self.kind, self.T).nu <= 0.0:
            raise ValueError(f"T={self.T} is too small for the {type(self.kind).__name__} "
                             "schedule: nu(T) rounds to 0")


@dataclass(frozen=True, slots=True)
class ScheduleSample:
    """All scalar schedule values at one time t.

    ``clamped`` is set when the cosine beta hit its threshold; the derivative
    fields are then taken from the unclamped expression and must not be fed to
    Taylor-scheme coefficients.  Frozen because ``eval_schedule`` hands the
    same memoized sample to every caller.
    """

    t: float
    lam: float
    lam_d1: float
    nu: float
    beta: float
    beta_d1: float
    beta_d2: float
    clamped: bool = False


@dataclass(frozen=True)
class StepSchedule:
    N: int
    T: float
    steps: tuple[float, ...]

    @property
    def times(self) -> tuple[float, ...]:
        """The N+1 grid times: T, then ``t -= h`` per step, ending at exactly 0."""
        return (*accumulate(self.steps[:-1], operator.sub, initial=self.T), 0.0)


def fit_tanh_schedule(nu0: float, nuT: float, T: float) -> NoiseSchedule:
    """Fit the tanh/softplus schedule hitting nu(0)=nu0 and nu(T)=nuT.

    Closed form: A = 2 sqrt(nu0)/(1 - sqrt(nu0)) and
    k = (1/T) (log(2 sqrt(nuT)/(1 - sqrt(nuT))) - log A).
    """
    if not (0.0 < nu0 < 1.0):
        raise ValueError(f"nu0 must lie in (0,1), got {nu0}")
    if not (0.0 < nuT < 1.0):
        raise ValueError(f"nuT must lie in (0,1), got {nuT}")
    if nu0 > nuT:
        raise ValueError(f"nu0 must not exceed nuT, got nu0={nu0} nuT={nuT}")
    _check_horizon(T)
    r0 = math.sqrt(nu0)
    rT = math.sqrt(nuT)
    A = 2.0 * r0 / (1.0 - r0)
    k = (math.log(2.0 * rT / (1.0 - rT)) - math.log(A)) / T
    try:  # the evaluator cubes k, which overflows for a tiny enough T
        if not math.isfinite(k ** 3):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"T={T} is too small for the tanh schedule: its rate "
                         f"k={k:.3g} overflows the schedule derivatives") from None
    return NoiseSchedule(kind=TanhSoftplus(A=A, k=k), T=T)


def _eval_tanh_softplus(p: TanhSoftplus, t: float) -> ScheduleSample:
    # E = A e^{k t}; lam = log(1+E)
    # tanh(lam/2) = E/(E+2), sech^2(lam/2) = 1 - tanh^2
    E = p.A * math.exp(p.k * t)
    lam = math.log1p(E)
    q = E / (E + 1.0)
    lam_d1 = p.k * q
    lam_d2 = p.k * p.k * q / (E + 1.0)
    lam_d3 = p.k ** 3 * E * (1.0 - E) / (E + 1.0) ** 3
    th = E / (E + 2.0)
    sech2 = 1.0 - th * th
    nu = th * th
    beta = lam_d1 * th
    beta_d1 = lam_d2 * th + 0.5 * lam_d1 * lam_d1 * sech2
    beta_d2 = (
        lam_d3 * th
        + 1.5 * lam_d1 * lam_d2 * sech2
        - 0.5 * lam_d1 ** 3 * th * sech2
    )
    return ScheduleSample(
        t=t, lam=lam, lam_d1=lam_d1,
        nu=nu, beta=beta, beta_d1=beta_d1, beta_d2=beta_d2,
    )


def _lam_fields(nu: float, beta: float) -> tuple[float, float]:
    """lam = 2 artanh(sqrt(nu)) and lam' = beta/sqrt(nu).  Singular at nu=0."""
    if nu <= 0.0:
        return 0.0, math.inf
    rn = math.sqrt(nu)
    lam = 2.0 * math.atanh(min(rn, 1.0 - 1e-16))
    lam_d1 = beta / rn
    return lam, lam_d1


def _eval_linear(p: Linear, t: float) -> ScheduleSample:
    beta = p.beta0 + 2.0 * p.beta1 * t
    nu = 1.0 - math.exp(-p.beta0 * t - p.beta1 * t * t)
    beta_d1 = 2.0 * p.beta1
    beta_d2 = 0.0
    lam, lam_d1 = _lam_fields(nu, beta)
    return ScheduleSample(
        t=t, lam=lam, lam_d1=lam_d1,
        nu=nu, beta=beta, beta_d1=beta_d1, beta_d2=beta_d2,
    )


def _eval_cosine(p: Cosine, t: float) -> ScheduleSample:
    half = 0.5 * math.pi * t
    s, c = math.sin(half), math.cos(half)
    nu = s * s
    raw = math.pi * s / c if c > 0.0 else math.inf
    clamped = raw > p.threshold
    beta = min(p.threshold, raw)
    # derivatives of the unclamped pi*tan(pi t/2); invalid once clamped
    sec2 = 1.0 / (c * c) if c > 0.0 else math.inf
    beta_d1 = 0.5 * math.pi ** 2 * sec2
    beta_d2 = 0.5 * math.pi ** 3 * sec2 * (s / c if c > 0.0 else math.inf)
    lam, lam_d1 = _lam_fields(nu, beta)
    return ScheduleSample(
        t=t, lam=lam, lam_d1=lam_d1,
        nu=nu, beta=beta, beta_d1=beta_d1, beta_d2=beta_d2, clamped=clamped,
    )


def eval_schedule(sched: NoiseSchedule, t: float) -> ScheduleSample:
    """Evaluate every schedule quantity at time t in [0, T].

    Samples are memoized per (kind, t) in a bounded cache, so repeated times
    (every RK stage, every trajectory of a study) cost a lookup.
    """
    if not (-1e-12 <= t <= sched.T + 1e-12):
        raise ValueError(f"t={t} outside schedule domain [0, {sched.T}]")
    t = min(max(t, 0.0), sched.T)
    if t == 0.0:  # 0.0 and -0.0 are one cache key; each keeps its own sign uncached
        return _evaluate.__wrapped__(sched.kind, t)
    return _evaluate(sched.kind, t)


# typed: an int or numpy t gets its own entry, so the sample keeps its type
@functools.lru_cache(maxsize=4096, typed=True)
def _evaluate(kind: ScheduleKind, t: float) -> ScheduleSample:
    if isinstance(kind, TanhSoftplus):
        return _eval_tanh_softplus(kind, t)
    if isinstance(kind, Linear):
        return _eval_linear(kind, t)
    if isinstance(kind, Cosine):
        return _eval_cosine(kind, t)
    raise TypeError(f"unknown schedule kind {kind!r}")


def _constant_steps(N: int, T: float, terminal_ratio: float) -> tuple[float, ...]:
    return tuple(T / N for _ in range(N))


def _exponential_steps(N: int, T: float, terminal_ratio: float) -> tuple[float, ...]:
    if not (0.0 < terminal_ratio < 1.0):
        raise ValueError(f"terminal_ratio must lie in (0,1), got {terminal_ratio}")
    r = terminal_ratio ** (1.0 / N)
    h1 = T * (1.0 - r) / (1.0 - r ** N)
    return tuple(h1 * r ** i for i in range(N))


# The step sizes h_1..h_N of each step plan name, from (N, T, terminal_ratio).
STEP_PLANS = {"constant": _constant_steps, "exponential": _exponential_steps}


def make_step_schedule(
    kind: str, N: int, T: float, terminal_ratio: float = 0.1
) -> StepSchedule:
    """Build a step-size sequence h_1..h_N summing to T.

    "constant" gives h_i = T/N.  "exponential" gives h_i = r^{i-1} h_1 with
    r = terminal_ratio^{1/N}, so the last step is about terminal_ratio times
    the first while the sum still equals T.
    """
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    _check_horizon(T)
    if kind not in STEP_PLANS:
        raise ValueError(f"unknown step schedule kind {kind!r}")
    return StepSchedule(N=N, T=T, steps=STEP_PLANS[kind](N, T, terminal_ratio))
