"""Convergence-order estimation for the solvers.

For delta data at the origin the probability-flow ODE has the closed-form
solution x(0) = sqrt(nu(0)/nu(T)) x(T), so deterministic global errors can be
measured exactly.  Stochastic solvers are judged by weak error: the distance
of terminal sample moments from the analytic marginal N(sqrt(1-nu0) x0, nu0).
Orders are the least-squares slope of log error against log step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from difftaylor import rng
from difftaylor.samplers import StartSpec, sample_finals_on_plans
from difftaylor.schedules import NoiseSchedule, eval_schedule, make_step_schedule
from difftaylor.score import delta_field

ERROR_FLOOR = 1e-12


@dataclass(frozen=True)
class OrderEstimate:
    solver: str
    moment: str  # "path" for deterministic error, "mean"/"var" for weak error
    h_list: tuple[float, ...]
    error_list: tuple[float, ...]
    slope: float
    r2: float


def fit_order(solver: str, moment: str, h_list, error_list) -> OrderEstimate:
    """Log-log least-squares slope, excluding errors at the rounding floor."""
    pairs = [(h, e) for h, e in zip(h_list, error_list) if e > ERROR_FLOOR]
    if len(pairs) < 3:
        raise ValueError(
            f"insufficient usable points ({len(pairs)}) for an order fit; "
            "errors at or below the rounding floor are excluded"
        )
    lh = np.log([p[0] for p in pairs])
    le = np.log([p[1] for p in pairs])
    slope, intercept = np.polyfit(lh, le, 1)
    pred = slope * lh + intercept
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return OrderEstimate(
        solver=solver, moment=moment,
        h_list=tuple(h for h, _ in pairs), error_list=tuple(e for _, e in pairs),
        slope=float(slope), r2=r2,
    )


def closed_form_final(sched: NoiseSchedule, x_T: np.ndarray) -> np.ndarray:
    """Exact terminal state for delta data at the origin: sqrt(nu0/nuT) x_T."""
    nu0 = eval_schedule(sched, 0.0).nu
    nuT = eval_schedule(sched, sched.T).nu
    return math.sqrt(nu0 / nuT) * np.asarray(x_T)


def _step_counts(n0: int, halvings: int) -> list[int]:
    """The grids n0 * 2^j, j = 0..halvings; an order fit needs three of them."""
    if halvings < 2:
        raise ValueError(f"halvings must be at least 2 for an order fit, got {halvings}")
    return [n0 * 2**j for j in range(halvings + 1)]


def deterministic_order(
    solver: str,
    sched: NoiseSchedule,
    d: int = 1,
    n0: int = 8,
    halvings: int = 6,
    seed: int = 0,
) -> OrderEstimate:
    """Global-error order of a deterministic solver on delta data at the origin.

    The reference is ``closed_form_final`` of the run's own start draw x_T, the
    exact PF-ODE solution, so the measured errors are the solver's alone.
    """
    n_list = _step_counts(n0, halvings)
    plans = [make_step_schedule("constant", n, sched.T) for n in n_list]
    finals = sample_finals_on_plans(solver, sched, plans, delta_field(np.zeros(d)), d, 1,
                                    seed)[:, 0]
    x_T = rng.step_normals(seed, rng.PURPOSE_START, np.arange(1, dtype=np.uint64), 0, d)[0]
    ref = closed_form_final(sched, x_T)
    h_list = [sched.T / n for n in n_list]
    errors = [float(np.linalg.norm(f - ref)) for f in finals]
    return fit_order(solver, "path", h_list, errors)


def stochastic_order(
    solver: str,
    sched: NoiseSchedule,
    x0: float = 1000.0,
    n0: int = None,
    halvings: int = 4,
    batch: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, OrderEstimate]:
    """Weak-error orders (terminal mean and variance) on 1-dim delta data.

    Trajectories start from the exact noised marginal of the data point, so
    the continuous-time reverse dynamics would end exactly at the analytic
    terminal law N(sqrt(1-nu0) x0, nu0); any moment deviation is solver bias
    plus Monte Carlo noise.  The measurement keeps the final-step noise
    injection (the sampling default drops it, which adds an O(h) variance
    deficit that would mask the schemes' weak order), and uses a large x0 so
    the mean bias stays well above the Monte Carlo noise floor across the
    step grid.  The default coarsest step counts start past each scheme's
    stability boundary for steep schedules.

    All grids run in one lockstep pass (``sample_finals_on_plans``), so each
    start draw and step-k normal is made once for every grid with a step k:
    n0 * 2^halvings draws per trajectory and stream, where grid-by-grid runs
    made (2^(halvings+1) - 1) n0.  Every grid's finals are byte-identical to
    a ``sample_finals`` call of its own.  The trade is memory: the study holds
    all halvings + 1 grids' finals at once, halvings * batch * 8 bytes more
    than one grid at a time (numpy's mean and var need each grid's whole
    array to keep their bits).
    """
    if n0 is None:
        n0 = 32 if solver == "euler_maruyama" else 16
    score = delta_field([x0])
    nu0 = eval_schedule(sched, 0.0).nu
    exact_mean = math.sqrt(1.0 - nu0) * x0
    start = StartSpec(kind="exact_marginal", x0=np.asarray([x0]))
    n_list = _step_counts(n0, halvings)
    plans = [make_step_schedule("constant", n, sched.T) for n in n_list]
    finals = sample_finals_on_plans(
        solver, sched, plans, score, 1, batch, seed, start=start,
        workers=workers, final_noise=True,
    )[:, :, 0]
    h_list = [sched.T / n for n in n_list]
    mean_errs = [abs(float(f.mean()) - exact_mean) for f in finals]
    var_errs = [abs(float(f.var()) - nu0) for f in finals]
    return {
        "mean": fit_order(solver, "mean", h_list, mean_errs),
        "var": fit_order(solver, "var", h_list, var_errs),
    }
