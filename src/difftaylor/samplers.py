"""Refinement-step integrators for the reverse diffusion dynamics.

Deterministic solvers (Euler, Heun, RK4, DDIM, Taylor2, Taylor3) integrate the
probability-flow ODE; stochastic solvers (Euler-Maruyama, Ito-Taylor) simulate
the reverse SDE.  All of them consume a score field in the convention
S = -sqrt(nu) grad log p and step time downward from T to 0.

Except Heun and RK4, which evaluate Runge-Kutta stages, every solver is one
affine update per step, x <- rho x + mu S + c_w w + c_wz (w - z) + c_z z, with
scalars that depend only on the time grid (the Taylor ones through closed-form
score derivatives valid for near-delta data).  A solver is defined in one place,
its ``Solver`` record in ``SOLVERS``: its step-row builder, tableau and noise.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest
from typing import Callable, NamedTuple, Optional

import numpy as np

from difftaylor import rng
from difftaylor.schedules import NoiseSchedule, ScheduleSample, StepSchedule, eval_schedule
from difftaylor.score import ScoreField

# Batches of more than one block per worker run in blocks of at most this many
# bytes of (rows, d) float64 state, so per-step temporaries stay cache-sized and
# sampler memory does not grow with the batch beyond the outputs.
TRAJECTORY_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class TaylorStep:
    """One Taylor update x <- rho x + mu S/sqrt(nu) + noise, with
    noise = c_w w + c_wz (w - z) + c_z z over correlated normals (w, z);
    the deterministic steps carry no noise."""

    rho: float
    mu: float
    c_w: float = 0.0
    c_wz: float = 0.0
    c_z: float = 0.0


@dataclass(frozen=True)
class ButcherTableau:
    c: tuple[float, ...]
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]

    @property
    def stages(self) -> int:
        return len(self.b)


HEUN = ButcherTableau(c=(0.0, 1.0), a=((), (1.0,)), b=(0.5, 0.5))
RK4 = ButcherTableau(c=(0.0, 0.5, 0.5, 1.0), a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
                     b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0))


class StepRow(NamedTuple):
    """x <- rho x + mu S(x, t) + noise from t to t - h, the noise as in
    ``TaylorStep``; rho and mu are None for the Runge-Kutta solvers.  A named
    tuple: a study builds tens of thousands of rows, at a third of the cost
    of a frozen dataclass each."""
    t: float
    h: float
    rho: Optional[float] = None
    mu: Optional[float] = None
    c_w: float = 0.0
    c_wz: float = 0.0
    c_z: float = 0.0


def pf_ode_drift(x: np.ndarray, t: float, score: ScoreField, sched: NoiseSchedule) -> np.ndarray:
    """Reversed-time probability-flow drift: x_{t-h} ~ x + h * drift(x, t).

    Equals (beta/2) x - (beta/(2 sqrt(nu))) S(x, t).
    """
    s = eval_schedule(sched, t)
    S = score.score(x, t, sched)
    return 0.5 * s.beta * x - (0.5 * s.beta / math.sqrt(s.nu)) * S


def _require_taylor_ready(s: ScheduleSample) -> None:
    if s.clamped:
        raise ValueError(
            "Taylor coefficients need differentiable beta; the cosine schedule "
            f"is clamped at t={s.t}"
        )


def taylor_flat_coeffs(s: ScheduleSample, h: float, order: int) -> TaylorStep:
    """Deterministic Taylor update coefficients through h^order (order 2 or 3)."""
    if order not in (2, 3):
        raise ValueError(f"order must be 2 or 3, got {order}")
    _require_taylor_ready(s)
    b, bd, bdd, nu = s.beta, s.beta_d1, s.beta_d2, s.nu
    rho = 1.0 + 0.5 * b * h + 0.25 * h * h * (0.5 * b * b - bd)
    mu = -0.5 * b * h + 0.25 * h * h * (bd - b * b / (2.0 * nu))
    if order == 3:
        h3 = 0.25 * h ** 3
        rho += h3 * (b ** 3 / 12.0 - 0.5 * b * bd + bdd / 3.0)
        mu += h3 * (
            b ** 3 * (-nu * nu + 3.0 * nu - 3.0) / (12.0 * nu * nu)
            + 0.5 * b * bd / nu
            - bdd / 3.0
        )
    return TaylorStep(rho=rho, mu=mu)


def taylor_sharp_step(s: ScheduleSample, h: float) -> TaylorStep:
    """Stochastic Taylor update coefficients (weak order 2)."""
    _require_taylor_ready(s)
    b, bd, nu = s.beta, s.beta_d1, s.nu
    rho = 1.0 + 0.5 * b * h + 0.25 * h * h * (0.5 * b * b - bd)
    mu = -b * h + 0.5 * bd * h * h
    rb = math.sqrt(b)
    h32 = h * math.sqrt(h)
    return TaylorStep(
        rho=rho,
        mu=mu,
        c_w=rb * math.sqrt(h),
        c_wz=-h32 * bd / (2.0 * rb) if b > 0 else 0.0,
        c_z=h32 * rb ** 3 * (nu - 2.0) / (2.0 * nu),
    )


def ddim_coeffs(nu_t: float, nu_prev: float) -> tuple[float, float]:
    """DDIM step coefficients: x <- rho x + mu S (mu multiplies S directly)."""
    if not (0.0 < nu_prev <= nu_t < 1.0):
        raise ValueError(f"need 0 < nu_prev <= nu_t < 1, got nu_t={nu_t} nu_prev={nu_prev}")
    rho = math.sqrt((1.0 - nu_prev) / (1.0 - nu_t))
    mu = (math.sqrt((1.0 - nu_t) * nu_prev) - math.sqrt((1.0 - nu_prev) * nu_t)) / math.sqrt(
        1.0 - nu_t
    )
    return rho, mu


def rk_step(
    tableau: ButcherTableau,
    x: np.ndarray,
    t: float,
    h: float,
    score: ScoreField,
    sched: NoiseSchedule,
) -> np.ndarray:
    """One reversed-time Runge-Kutta step of the probability-flow ODE."""
    ks: list[np.ndarray] = []
    for i in range(tableau.stages):
        xi = x
        for j, aij in enumerate(tableau.a[i]):
            if aij != 0.0:
                xi = xi + h * aij * ks[j]
        ks.append(pf_ode_drift(xi, t - h * tableau.c[i], score, sched))
    out = x
    for bi, ki in zip(tableau.b, ks):
        out = out + h * bi * ki
    return out


@dataclass(frozen=True)
class Solver:
    """``row(s, h, sched, t_next)``: the ``StepRow`` fields after (t, h) from the
    schedule sample ``s`` at t, or () for Runge-Kutta, which steps by ``tableau``.
    ``noise``: "" (none), "w" (Euler-Maruyama) or "wz" (``rng.correlated_pair``)."""

    row: Callable[[ScheduleSample, float, NoiseSchedule, float], tuple]
    tableau: Optional[ButcherTableau] = None
    noise: str = ""


def _taylor_row(step: TaylorStep, s: ScheduleSample) -> tuple:
    """The ``StepRow`` fields of ``step``, its mu rescaled to multiply S."""
    return step.rho, step.mu / math.sqrt(s.nu), step.c_w, step.c_wz, step.c_z


SOLVERS = {
    "euler": Solver(lambda s, h, sched, t_next: (
        1.0 + 0.5 * h * s.beta, -0.5 * h * s.beta / math.sqrt(s.nu))),
    "heun": Solver(lambda *_: (), HEUN),
    "rk4": Solver(lambda *_: (), RK4),
    "ddim": Solver(lambda s, h, sched, t_next: ddim_coeffs(s.nu, eval_schedule(sched, t_next).nu)),
    "taylor2": Solver(lambda s, h, *_: _taylor_row(taylor_flat_coeffs(s, h, 2), s)),
    "taylor3": Solver(lambda s, h, *_: _taylor_row(taylor_flat_coeffs(s, h, 3), s)),
    "euler_maruyama": Solver(lambda s, h, sched, t_next: (
        1.0 + 0.5 * h * s.beta, -h * s.beta / math.sqrt(s.nu), math.sqrt(h * s.beta)), noise="w"),
    "ito_taylor": Solver(lambda s, h, *_: _taylor_row(taylor_sharp_step(s, h), s), noise="wz"),
}


def step_table(solver: str, sched: NoiseSchedule, steps: StepSchedule) -> list[StepRow]:
    """Per-step rows of ``solver`` at the grid times ``steps.times``."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {tuple(SOLVERS)}")
    spec = SOLVERS[solver]
    if steps.T != sched.T:
        raise ValueError(f"step plan spans T={steps.T} but the schedule spans T={sched.T}")
    if spec.tableau is not None and eval_schedule(sched, 0.0).nu <= 0.0:
        # the c = 1 stage of the last step evaluates the score at t = 0
        raise ValueError(f"solver {solver!r} needs the score at t=0, but nu(0)=0 there")
    times = steps.times
    table = []
    try:
        for t, t_next, h in zip(times, times[1:], steps.steps):
            fields = spec.row(eval_schedule(sched, t), h, sched, t_next)
            if not all(map(math.isfinite, fields)):
                raise OverflowError(f"row {fields}")
            table.append(StepRow(t, h, *fields))
    except (OverflowError, ValueError) as exc:
        # a row builder's refusal (DDIM at nu=0, clamped cosine beta) names the step too
        what = "overflows" if isinstance(exc, OverflowError) else "is refused"
        raise ValueError(f"solver {solver!r} with T={sched.T}: the step from t={t} "
                         f"{what} ({exc})") from None
    return table


@dataclass(frozen=True)
class StartSpec:
    """Initial condition: pure noise, or the exact noised marginal of a point."""

    kind: str = "standard_normal"  # "standard_normal" | "exact_marginal"
    x0: Optional[np.ndarray] = None


def _initial_state(
    start: StartSpec, sched: NoiseSchedule, d: int, traj: np.ndarray, seed: int
) -> np.ndarray:
    g = rng.step_normals(seed, rng.PURPOSE_START, traj, 0, d)
    if start.kind == "standard_normal":
        return g
    if start.kind == "exact_marginal":
        if start.x0 is None:
            raise ValueError("exact_marginal start requires x0")
        sT = eval_schedule(sched, sched.T)
        return math.sqrt(1.0 - sT.nu) * np.asarray(start.x0, dtype=np.float64) + math.sqrt(
            sT.nu
        ) * g
    raise ValueError(f"unknown start kind {start.kind!r}")


def _sample_chunk(
    solver: Solver,
    sched: NoiseSchedule,
    steps: StepSchedule,
    score: ScoreField,
    d: int,
    traj: np.ndarray,
    seed: int,
    clip: Optional[tuple[float, float]],
    start: StartSpec,
    final_noise: bool,
    tables: tuple[list[StepRow], ...],
    states: list[np.ndarray],
    paths: Optional[list[np.ndarray]],
) -> None:
    """Step trajectories ``traj`` through every table of ``tables`` in lockstep.

    ``states[g]`` is table g's (rows, d) output; it receives the start state
    and is stepped in place, so it ends as the finals.  ``paths[g]``, if
    given, receives the (len(tables[g]) + 1, rows, d) states.  The step-i
    normals are drawn once, for every table that has a step i; ``steps`` is
    the longest plan, whose length bounds those draws.
    """
    x0 = _initial_state(start, sched, d, traj, seed)
    noise, tableau = solver.noise, solver.tableau
    if noise:
        w_stream = rng.TrajectoryStream(seed, rng.PURPOSE_STEP_W, traj)
    if noise == "wz":
        u_stream = rng.TrajectoryStream(seed, rng.PURPOSE_STEP_U, traj)
    # table g adds noise at its steps i < its noisy count: not at its last step
    # by default, and none without noise; the longest table draws the most
    last = 0 if final_noise else 1
    n_draws = steps.N - last if noise else 0
    grids = [(x, len(table) - last if noise else 0, path)
             for x, table, path in zip(states, tables, paths or [None] * len(tables))]
    for x, _, path in grids:
        x[...] = x0
        if path is not None:
            path[0] = x0
    rho_x = x0  # the affine update's scratch array
    for i, rows in enumerate(zip_longest(*tables)):
        if i < n_draws:
            w = z = wz = None  # free the last step's normals before drawing
            if noise == "w":
                w = w_stream.normals(i + 1, d)
            else:
                w, z = rng.correlated_pair(w_stream, u_stream, i + 1, d)
                wz = w - z
        for (x, noisy, path), row in zip(grids, rows):
            if row is None:
                continue
            if tableau is not None:
                x[...] = rk_step(tableau, x, row.t, row.h, score, sched)
            else:
                # rho x + mu S into x; rho x goes through a scratch array, as an
                # update in place is slower on few rows (numpy's overlap check)
                np.multiply(x, row.rho, out=rho_x)
                np.add(rho_x, row.mu * score.score(x, row.t, sched), out=x)
            if i < noisy:
                # term by term in the order of x + c_w w + c_wz (w - z) + c_z z
                x += row.c_w * w
                if noise == "wz":
                    x += row.c_wz * wz
                    x += row.c_z * z
            if clip is not None:
                np.clip(x, clip[0], clip[1], out=x)
            if path is not None:
                path[i + 1] = x


def _run_chunks(
    solver: str,
    sched: NoiseSchedule,
    plans: tuple[StepSchedule, ...],
    score: ScoreField,
    d: int,
    batch: int,
    seed: int,
    clip: Optional[tuple[float, float]],
    record_trajectory: bool,
    start: StartSpec,
    workers: int,
    final_noise: bool = False,
):
    """``(tables, trajectories, finals)`` of ``batch`` trajectories on each
    plan, stepped in lockstep.  ``finals`` is (len(plans) * batch, d), plan g
    in rows g * batch to (g + 1) * batch, so a block's slice of each plan is
    contiguous and every row is one sampled trajectory (as the benchmark's
    trace counts them); ``trajectories`` is None unless ``record_trajectory``,
    else plan g's (N + 1, batch, d) states at index g."""
    tables = tuple(step_table(solver, sched, steps) for steps in plans)
    if batch < 1 or d < 1:
        raise ValueError(f"batch and dimension d must be at least 1, got batch={batch} d={d}")
    if score.d != d:
        raise ValueError(f"score field dimension {score.d} does not match d={d}")
    n_chunks = workers if workers > 1 and batch >= 2 * workers else 1
    # at most one block per worker keeps the worker split; larger batches run
    # in blocks of at most TRAJECTORY_BLOCK_BYTES of state per plan each, cut
    # at the boundaries np.array_split gives (the first batch % n_blocks one
    # row longer)
    rows = max(1, TRAJECTORY_BLOCK_BYTES // (8 * d))
    n_blocks = max(n_chunks, -(-batch // rows))
    size, longer = divmod(batch, n_blocks)
    bounds = [i * size + min(i, longer) for i in range(n_blocks + 1)]
    run = partial(_sample_chunk, SOLVERS[solver], sched, max(plans, key=lambda p: p.N),
                  score, d, seed=seed, clip=clip, start=start, final_noise=final_noise,
                  tables=tables)
    finals = np.empty((len(plans) * batch, d))
    trajectories = [np.empty((steps.N + 1, batch, d)) for steps in plans] \
        if record_trajectory else None
    offsets = range(0, len(finals), batch)

    def run_block(lo: int, hi: int) -> None:
        run(np.arange(lo, hi, dtype=np.uint64),
            states=[finals[off + lo:off + hi] for off in offsets],
            paths=[path[:, lo:hi] for path in trajectories] if record_trajectory else None)

    threads = min(workers, n_blocks)
    if threads == 1:
        for block in zip(bounds, bounds[1:]):
            run_block(*block)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, bounds, bounds[1:]))
    return tables, trajectories, finals


def sample_finals(
    solver: str,
    sched: NoiseSchedule,
    steps: StepSchedule,
    score: ScoreField,
    d: int,
    batch: int,
    seed: int,
    start: Optional[StartSpec] = None,
    workers: int = 1,
    final_noise: bool = False,
) -> np.ndarray:
    """The (batch, d) final states of ``sample``, without a trajectory.

    ``final_noise=True`` keeps the last-step noise injection of the stochastic
    solvers; the sampling default drops it, which costs O(h) in the terminal
    variance and would mask the schemes' weak order in convergence studies.
    """
    return sample_finals_on_plans(solver, sched, (steps,), score, d, batch, seed, start,
                                  workers, final_noise)[0]


def sample_finals_on_plans(
    solver: str,
    sched: NoiseSchedule,
    plans: tuple[StepSchedule, ...],
    score: ScoreField,
    d: int,
    batch: int,
    seed: int,
    start: Optional[StartSpec] = None,
    workers: int = 1,
    final_noise: bool = False,
) -> np.ndarray:
    """The (len(plans), batch, d) finals of ``sample_finals`` on each plan.

    Plan g's finals equal ``sample_finals`` on that plan byte for byte, but
    the plans run in lockstep: a normal is a pure function of (seed, purpose,
    trajectory, step, dim), so the start draw and the step-i normals are the
    same for every plan, and each is drawn once for all plans that have a
    step i.  The price is memory: all plans' finals are held at once.
    """
    finals = _run_chunks(
        solver, sched, tuple(plans), score, d, batch, seed, None, False,
        start or StartSpec(), workers, final_noise,
    )[2]
    return finals.reshape(len(plans), batch, d)


def sample(
    solver: str,
    sched: NoiseSchedule,
    steps: StepSchedule,
    score: ScoreField,
    d: int,
    batch: int,
    seed: int,
    clip: Optional[tuple[float, float]] = None,
    record_trajectory: bool = False,
    workers: int = 1,
) -> tuple[np.ndarray, Optional[np.ndarray], int]:
    """Run ``batch`` trajectories of ``solver`` from standard normals at t=T to t=0.

    Returns ``(finals, trajectory, nfe)``: the (batch, d) final states, the
    (N+1, batch, d) states at ``steps.times`` (None unless
    ``record_trajectory``), and the score evaluations per trajectory.
    Results are bit-identical for a fixed seed regardless of ``workers`` or
    batch partitioning, because every random draw is keyed by the global
    trajectory index; the mixture oracle on chunks of fewer than 8 rows is
    the known exception (its posterior mean takes other bits there).
    """
    (table,), trajectories, finals = _run_chunks(
        solver, sched, (steps,), score, d, batch, seed, clip, record_trajectory,
        StartSpec(), workers,
    )
    tableau = SOLVERS[solver].tableau
    return (finals, trajectories[0] if record_trajectory else None,
            len(table) * (tableau.stages if tableau else 1))
