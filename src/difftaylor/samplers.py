"""Refinement-step integrators for the reverse diffusion dynamics.

Deterministic solvers (Euler, Heun, RK4, DDIM, Taylor2, Taylor3) integrate the
probability-flow ODE; stochastic solvers (Euler-Maruyama, Ito-Taylor) simulate
the reverse SDE.  All of them consume a score field in the convention
S = -sqrt(nu) grad log p and step time downward from T to 0.

Except Heun and RK4, which evaluate Runge-Kutta stages, every solver is one
affine update per step, x <- rho x + mu S + c_w w + c_wz (w - z) + c_z z, with
scalars that depend only on the time grid (the Taylor ones through closed-form
score derivatives valid for near-delta data); ``step_table`` builds them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union

import numpy as np

from difftaylor import rng
from difftaylor.schedules import NoiseSchedule, ScheduleSample, StepSchedule, eval_schedule
from difftaylor.score import ScoreField

SOLVERS = ("euler", "heun", "rk4", "ddim", "taylor2", "taylor3",
           "euler_maruyama", "ito_taylor")


@dataclass(frozen=True)
class FlatCoefficients:
    rho: float
    mu: float
    order: int


@dataclass(frozen=True)
class SharpStep:
    """Stochastic Taylor update pieces: x <- rho x + mu S/sqrt(nu) + noise,
    noise = c_w w + c_wz (w - z) + c_z z with correlated normals (w, z)."""

    rho: float
    mu: float
    c_w: float
    c_wz: float
    c_z: float


@dataclass(frozen=True)
class ButcherTableau:
    name: str
    c: tuple[float, ...]
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]

    @property
    def stages(self) -> int:
        return len(self.b)


HEUN = ButcherTableau(name="heun", c=(0.0, 1.0), a=((), (1.0,)), b=(0.5, 0.5))
RK4 = ButcherTableau(
    name="rk4",
    c=(0.0, 0.5, 0.5, 1.0),
    a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
    b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
)
RK_TABLEAUX = {"heun": HEUN, "rk4": RK4}


@dataclass(frozen=True)
class StepRow:
    """x <- rho x + mu S(x, t) + noise from t to t - h, the noise as in
    ``SharpStep``; rho and mu are None for the Runge-Kutta solvers."""
    t: float
    h: float
    rho: Optional[float] = None
    mu: Optional[float] = None
    c_w: float = 0.0
    c_wz: float = 0.0
    c_z: float = 0.0


@dataclass(frozen=True)
class SampleRun:
    solver: str
    final: np.ndarray
    nfe: int
    seed: int
    run_id: int
    trajectory: Optional[list] = field(default=None, repr=False)


def pf_ode_drift(x: np.ndarray, t: float, score: ScoreField, sched: NoiseSchedule) -> np.ndarray:
    """Reversed-time probability-flow drift: x_{t-h} ~ x + h * drift(x, t).

    Equals (beta/2) x - (beta/(2 sqrt(nu))) S(x, t).
    """
    s = eval_schedule(sched, t)
    S = score.score(x, t, sched)
    return 0.5 * s.beta * x - (0.5 * s.beta / math.sqrt(s.nu)) * S


def rsde_drift(x: np.ndarray, t: float, score: ScoreField, sched: NoiseSchedule) -> np.ndarray:
    """Reversed-time reverse-SDE drift: (beta/2) x - (beta/sqrt(nu)) S(x, t)."""
    s = eval_schedule(sched, t)
    S = score.score(x, t, sched)
    return 0.5 * s.beta * x - (s.beta / math.sqrt(s.nu)) * S


def _require_taylor_ready(s: ScheduleSample) -> None:
    if s.clamped:
        raise ValueError(
            "Taylor coefficients need differentiable beta; the cosine schedule "
            f"is clamped at t={s.t}"
        )


def taylor_flat_coeffs(s: ScheduleSample, h: float, order: int) -> FlatCoefficients:
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
    return FlatCoefficients(rho=rho, mu=mu, order=order)


def taylor_sharp_step(s: ScheduleSample, h: float) -> SharpStep:
    """Stochastic Taylor update coefficients (weak order 2)."""
    _require_taylor_ready(s)
    b, bd, nu = s.beta, s.beta_d1, s.nu
    rho = 1.0 + 0.5 * b * h + 0.25 * h * h * (0.5 * b * b - bd)
    mu = -b * h + 0.5 * bd * h * h
    rb = math.sqrt(b)
    h32 = h * math.sqrt(h)
    return SharpStep(
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


def step_table(solver: str, sched: NoiseSchedule, steps: StepSchedule) -> list[StepRow]:
    """Per-step rows of ``solver``; t runs down from T by ``t -= h`` to exactly 0."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if solver in RK_TABLEAUX and eval_schedule(sched, 0.0).nu <= 0.0:
        # the c = 1 stage of the last step evaluates the score at t = 0
        raise ValueError(f"solver {solver!r} needs the score at t=0, but nu(0)=0 there")
    rows, t = [], sched.T
    for i, h in enumerate(steps.steps):
        t_next = 0.0 if i == steps.N - 1 else t - h
        s = eval_schedule(sched, t)
        if solver in RK_TABLEAUX:
            row = StepRow(t, h)
        elif solver == "euler":
            row = StepRow(t, h, 1.0 + 0.5 * h * s.beta, -0.5 * h * s.beta / math.sqrt(s.nu))
        elif solver == "euler_maruyama":
            row = StepRow(t, h, 1.0 + 0.5 * h * s.beta, -h * s.beta / math.sqrt(s.nu),
                          c_w=math.sqrt(h * s.beta))
        elif solver == "ddim":
            row = StepRow(t, h, *ddim_coeffs(s.nu, eval_schedule(sched, t_next).nu))
        elif solver == "ito_taylor":
            st = taylor_sharp_step(s, h)
            row = StepRow(t, h, st.rho, st.mu / math.sqrt(s.nu), st.c_w, st.c_wz, st.c_z)
        else:
            c = taylor_flat_coeffs(s, h, 2 if solver == "taylor2" else 3)
            row = StepRow(t, h, c.rho, c.mu / math.sqrt(s.nu))
        rows.append(row)
        t = t_next
    return rows


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
    solver: str,
    sched: NoiseSchedule,
    steps: StepSchedule,
    score: ScoreField,
    d: int,
    traj: np.ndarray,
    seed: int,
    clip: Optional[tuple[float, float]],
    record_trajectory: bool,
    start: StartSpec,
    final_noise: bool,
    table: list[StepRow],
) -> tuple[np.ndarray, list]:
    x = _initial_state(start, sched, d, traj, seed)
    snapshots = [x.copy()] if record_trajectory else []
    for i, row in enumerate(table):
        if solver in RK_TABLEAUX:
            x = rk_step(RK_TABLEAUX[solver], x, row.t, row.h, score, sched)
        else:
            x = row.rho * x + row.mu * score.score(x, row.t, sched)
        if final_noise or i < steps.N - 1:  # default: no noise at the final step
            if solver == "euler_maruyama":
                x = x + row.c_w * rng.step_normals(seed, rng.PURPOSE_STEP_W, traj, i + 1, d)
            elif solver == "ito_taylor":
                w, z = rng.correlated_pair(seed, traj, i + 1, d)
                x = x + row.c_w * w + row.c_wz * (w - z) + row.c_z * z
        if clip is not None:
            x = np.clip(x, clip[0], clip[1])
        if record_trajectory:
            snapshots.append(x.copy())
    return x, list(zip([row.t for row in table] + [0.0], snapshots))


def _run_chunks(
    solver: str,
    sched: NoiseSchedule,
    steps: StepSchedule,
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
    table = step_table(solver, sched, steps)
    if batch < 1 or d < 1:
        raise ValueError(f"batch and dimension d must be at least 1, got batch={batch} d={d}")
    if score.d != d:
        raise ValueError(f"score field dimension {score.d} does not match d={d}")
    n_chunks = workers if workers > 1 and batch >= 2 * workers else 1
    chunks = np.array_split(np.arange(batch, dtype=np.uint64), n_chunks)
    run = partial(_sample_chunk, solver, sched, steps, score, d, seed=seed, clip=clip,
                  record_trajectory=record_trajectory, start=start,
                  final_noise=final_noise, table=table)
    if n_chunks == 1:
        results = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            results = list(pool.map(run, chunks))
    finals = np.concatenate([r[0] for r in results], axis=0)
    return chunks, results, finals


def sample_finals(
    solver: str,
    sched: NoiseSchedule,
    steps: StepSchedule,
    score: ScoreField,
    d: int,
    batch: int,
    seed: int,
    clip: Optional[tuple[float, float]] = None,
    start: Union[StartSpec, None] = None,
    workers: int = 1,
    final_noise: bool = False,
) -> np.ndarray:
    """Batch-array variant of ``sample``: returns the (batch, d) final states.

    ``final_noise=True`` keeps the last-step noise injection of the stochastic
    solvers; the sampling default drops it, which costs O(h) in the terminal
    variance and would mask the schemes' weak order in convergence studies.
    """
    return _run_chunks(
        solver, sched, steps, score, d, batch, seed, clip, False,
        start or StartSpec(), workers, final_noise,
    )[2]


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
    start: Union[StartSpec, None] = None,
    workers: int = 1,
) -> list[SampleRun]:
    """Run ``batch`` independent trajectories of ``solver`` from t=T to t=0.

    Results are bit-identical for a fixed seed regardless of ``workers`` or
    batch partitioning, because every random draw is keyed by the global
    trajectory index.
    """
    _, results, finals = _run_chunks(
        solver, sched, steps, score, d, batch, seed, clip, record_trajectory,
        start or StartSpec(), workers,
    )
    # per step: (t, the states of all chunks joined in trajectory order)
    stacked = [(pairs[0][0], np.concatenate([snap for _, snap in pairs]))
               for pairs in zip(*(traj for _, traj in results))]
    nfe = steps.N * (RK_TABLEAUX[solver].stages if solver in RK_TABLEAUX else 1)
    return [SampleRun(solver=solver, final=finals[b], nfe=nfe, seed=seed, run_id=b,
                      trajectory=[(t, snap[b]) for t, snap in stacked] if record_trajectory
                      else None)
            for b in range(batch)]
