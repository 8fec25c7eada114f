"""The four benchmark workloads, each one fixed study driven through difftaylor.

Every workload is a closed loop: one client in one process runs the study,
waits for it, checks it, and starts the next.  The program's own thread pool
uses ``WORKERS`` threads; the benchmark starts no other threads.

A study returns raw results; an operation that raised is kept as its
exception.  ``check`` turns them into an ``Outcome``: operations attempted,
operations failed (crashed, exited non-zero or failed a check) and the
correctness problems found.  Checks are chosen to hold on any workload seed
and to survive legitimate floating-point changes: bands and tolerances, never
byte hashes of numerical output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from difftaylor import cli, fpe, orders, rng, samplers, score, spa, symderiv
from difftaylor.schedules import eval_schedule, fit_tanh_schedule, make_step_schedule

import layers

WORKERS = os.cpu_count() or 1
COND_II = fit_tanh_schedule(1e-4, 0.99, 1.0)
# Slope tolerance in standard errors of the Monte Carlo noise: each weak-order
# check may fail at random with probability about 6e-5 per seed.
SLOPE_Z = 4.0
# Grid points whose weak error is below this many standard errors are noise.
RESOLVED_Z = 4.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # tallies seen at the CLI boundary
    fingerprint: str = ""  # identical on every repeat of one run

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}")

    def crashed(self, what: str, value) -> bool:
        """Record a failed check if ``value`` is an exception; True if it is."""
        if isinstance(value, Exception):
            self.check(what, False, f"raised {type(value).__name__}: {value}")
            return True
        return False


def require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"warm-up failed: {what}")


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the check records it as a failed operation
        return exc


def fingerprint(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
    return h.hexdigest()[:16]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``difftaylor`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def resolved_slope(h_list, errors, ses):
    """Log-log least-squares slope over grid points that stand above the noise.

    Returns (slope, standard error) or (None, None) when fewer than two points
    remain.  Points whose error is below ``RESOLVED_Z`` standard errors are
    dropped; the slope's standard error propagates each point's relative
    noise se/error through the least-squares weights.
    """
    pts = [(math.log(h), math.log(e), s / e)
           for h, e, s in zip(h_list, errors, ses) if e >= RESOLVED_Z * s]
    if len(pts) < 2:
        return None, None
    xm = sum(x for x, _, _ in pts) / len(pts)
    sxx = sum((x - xm) ** 2 for x, _, _ in pts)
    slope = sum((x - xm) * y for x, y, _ in pts) / sxx
    se = math.sqrt(sum(((x - xm) / sxx * r) ** 2 for x, _, r in pts))
    return slope, se


def check_band(out: Outcome, what: str, slope, lo: float, hi: float, tol: float = 0.0):
    out.check(what, slope is not None and lo - tol <= slope <= hi + tol,
              f"slope {slope} outside [{lo}, {hi}] widened by {tol:.3f}")


class Workload:
    """A fixed study; sizes are class attributes, overridable per instance."""

    name = ""
    unit = ""
    SIZE_FIELDS: tuple = ()

    def __init__(self, **overrides):
        for key, value in overrides.items():
            if key not in self.SIZE_FIELDS:
                raise TypeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)

    @property
    def sizes(self) -> dict:
        return {key.lower(): getattr(self, key) for key in self.SIZE_FIELDS}


class SdeWeak(Workload):
    """Criterion 3 scaled down: weak orders of Euler-Maruyama and Ito-Taylor.

    Each moment gets the step grid on which it is resolved at a reduced batch:
    the Ito-Taylor mean converges faster than order 2 below 32 steps, and its
    variance error falls into the Monte Carlo noise above 64 steps unless the
    batch is large, so the two are measured by separate studies.
    """

    name = "sde_weak"
    unit = "trajectory-steps"
    # label -> (solver, stochastic_order sizes, {moment: slope band})
    STUDIES = {
        "em": ("euler_maruyama", {"n0": 64, "halvings": 2, "batch": 25_000},
               {"mean": (0.7, 1.3)}),
        "it_mean": ("ito_taylor", {"n0": 32, "halvings": 2, "batch": 25_000},
                    {"mean": (1.5, 2.5)}),
        "it_var": ("ito_taylor", {"n0": 16, "halvings": 2, "batch": 200_000},
                   {"var": (1.5, 2.5)}),
    }
    X0 = 1000.0
    SIZE_FIELDS = ("STUDIES", "X0")

    def setup(self, seed: int) -> dict:
        sched = fit_tanh_schedule(1e-4, 0.8, 1.0)
        warm = samplers.sample_finals(
            "ito_taylor", sched, make_step_schedule("constant", 2, 1.0),
            score.delta_field([self.X0]), 1, 4 * WORKERS, seed,
            start=samplers.StartSpec(kind="exact_marginal", x0=np.asarray([self.X0])),
            workers=WORKERS, final_noise=True)
        require(np.isfinite(warm).all(), "ito_taylor sample")
        return {"seed": seed, "sched": sched, "nu0": eval_schedule(sched, 0.0).nu}

    def work(self, ctx) -> float:
        return sum(p["batch"] * sum(p["n0"] * 2**j for j in range(p["halvings"] + 1))
                   for _, p, _ in self.STUDIES.values())

    def study(self, ctx) -> dict:
        return {
            label: attempt(orders.stochastic_order, solver, ctx["sched"], x0=self.X0,
                           seed=ctx["seed"], workers=WORKERS, **p)
            for label, (solver, p, _) in self.STUDIES.items()
        }

    def check(self, ctx, res) -> Outcome:
        out = Outcome()
        nu0 = ctx["nu0"]
        prints = []
        for label, (solver, p, bands) in self.STUDIES.items():
            est = res[label]
            if out.crashed(f"{label} weak order", est):
                continue
            var_err = dict(zip(est["var"].h_list, est["var"].error_list))
            for moment, (lo, hi) in bands.items():
                oe = est[moment]
                # The terminal law is Gaussian, so the Monte Carlo standard
                # error of the sample mean is sqrt(var/B) and of the sample
                # variance var*sqrt(2/(B-1)), with var <= nu0 + |var error|.
                ses = []
                for h in oe.h_list:
                    var = nu0 + var_err.get(h, 0.0)
                    ses.append(math.sqrt(var / p["batch"]) if moment == "mean"
                               else var * math.sqrt(2.0 / (p["batch"] - 1)))
                slope, se = resolved_slope(oe.h_list, oe.error_list, ses)
                check_band(out, f"{label} {moment} weak order", slope, lo, hi,
                           SLOPE_Z * se if se else 0.0)
                prints.append((oe.slope, oe.error_list))
        out.fingerprint = fingerprint(prints)
        return out


class OdeSmall(Workload):
    """Small batch, many steps: deterministic orders, DDIM exactness, symbolic
    identities, the solver x schedule CLI matrix and one determinism pair.

    One pass takes 0.3-0.5 s and single passes flip between a fast and a slow
    speed on a shared host, so the study is ``PASSES`` passes, each on its own
    seed derived from the workload seed.
    """

    name = "ode_small"
    unit = "score-evaluation rows"
    PASSES = 8
    ORDER_BANDS = {"euler": (0.8, 1.2), "heun": (1.7, 2.3), "taylor2": (1.7, 2.3),
                   "taylor3": (2.6, 3.4), "rk4": (3.5, 4.5)}
    ORDER = {"n0": 8, "halvings": 6}  # criterion 2, on cond-ii with d=1
    SYMBOLIC_POINTS = 200
    DDIM_STEPS = (1, 4, 8, 30)
    DDIM_BATCH = 8
    PAIR_BATCH = 32
    SCHEDULES = ("tanh", "linear", "cosine")
    STRUCTURAL_ZEROS = ("Gsharp(g)", "GsharpGsharp(-fsharp)", "LsharpGsharp(g)",
                        "GsharpLsharp(g)", "GsharpGsharp(g)")
    SIZE_FIELDS = ("PASSES", "ORDER", "SYMBOLIC_POINTS", "DDIM_STEPS", "DDIM_BATCH",
                   "SCHEDULES", "PAIR_BATCH")

    def setup(self, seed: int) -> dict:
        code, _, _ = run_cli(["sample", "--solver", "euler", "--seed", str(seed)])
        require(code == 0, "cli sample")
        return {"passes": [self._pass_inputs((seed * self.PASSES + k) % 2**63)
                           for k in range(self.PASSES)]}

    def _pass_inputs(self, seed: int) -> dict:
        rand = np.random.default_rng(seed)
        x_T = rng.step_normals(seed, rng.PURPOSE_START,
                               np.arange(self.DDIM_BATCH, dtype=np.uint64), 0, 1)
        return {
            "seed": seed,
            "points": [(float(rand.uniform(0.02, 0.98)), float(rand.uniform(1e-4, 0.12)))
                       for _ in range(self.SYMBOLIC_POINTS)],
            "ddim_expected": math.sqrt(1e-4 / 0.99) * x_T,
        }

    def work(self, ctx) -> float:
        """Score-evaluation rows of one study: one traced pass, times the
        passes (step counts, and so rows, do not depend on a pass's seed)."""
        rec = layers.recorder()
        uninstall = layers.install_all(rec)
        try:
            self._one_pass(ctx["passes"][0])
        finally:
            uninstall()
        return rec.counters["score.rows"] * self.PASSES

    def study(self, ctx) -> list:
        return [self._one_pass(p) for p in ctx["passes"]]

    def _one_pass(self, p) -> dict:
        seed = p["seed"]
        res = {"orders": {s: attempt(orders.deterministic_order, s, COND_II,
                                     **self.ORDER, seed=seed)
                          for s in self.ORDER_BANDS}}
        res["ddim"] = attempt(lambda: [
            samplers.sample_finals("ddim", COND_II, make_step_schedule("exponential", n, 1.0),
                                   score.delta_field([0.0]), 1, self.DDIM_BATCH, seed)
            for n in self.DDIM_STEPS])
        res["symbolic"] = attempt(self._symbolic, p["points"])
        res["matrix"] = {(solver, sched): run_cli(["sample", "--solver", solver,
                                                   "--schedule", sched, "--seed", str(seed)])
                         for solver in samplers.SOLVERS for sched in self.SCHEDULES}
        pair = ["sample", "--solver", "ito_taylor", "--preset", "cond-ii", "--steps", "8",
                "--batch", str(self.PAIR_BATCH), "--seed", str(seed)]
        res["pair"] = [run_cli(pair + ["--workers", str(w)]) for w in (1, WORKERS)]
        return res

    @staticmethod
    def _symbolic(points) -> dict:
        rho2, mu2 = symderiv.gen_flat_coefficients(2)
        rho3, mu3 = symderiv.gen_flat_coefficients(3)
        rho_s, mu_s, _ = symderiv.gen_sharp_coefficients()
        worst = 0.0
        for t, h in points:
            s = eval_schedule(COND_II, t)
            bind = {"nu": s.nu, "beta": s.beta, "beta_d1": s.beta_d1, "beta_d2": s.beta_d2}
            c2 = samplers.taylor_flat_coeffs(s, h, 2)
            c3 = samplers.taylor_flat_coeffs(s, h, 3)
            sh = samplers.taylor_sharp_step(s, h)
            for got, series in ((c2.rho, rho2), (c2.mu, mu2), (c3.rho, rho3),
                                (c3.mu, mu3), (sh.rho, rho_s), (sh.mu, mu_s)):
                want = symderiv.eval_series(series, h, bind)
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        table = symderiv.operator_table()
        rho_d, mu_d = symderiv.expand_ddim(3)
        zero = symderiv.HSeries(3, {})
        return {
            "worst": worst,
            "table_size": len(table),
            "zeros": all(table[k].is_zero() for k in OdeSmall.STRUCTURAL_ZEROS),
            "ddim_is_taylor3": (rho_d - rho3) == zero and (mu_d - mu3) == zero,
        }

    def check(self, ctx, res) -> Outcome:
        out = Outcome()
        codes = {0: 0, 1: 0, 2: 0}
        bytes_out = 0
        prints = []
        for p, r in zip(ctx["passes"], res):
            for solver, est in r["orders"].items():
                if not out.crashed(f"{solver} order", est):
                    lo, hi = self.ORDER_BANDS[solver]
                    check_band(out, f"{solver} order", est.slope, lo, hi)
                    prints.append(est.error_list)
            if not out.crashed("ddim exactness", r["ddim"]):
                want = p["ddim_expected"]
                rel = max(float(np.max(np.abs(f - want) / np.maximum(np.abs(want), 1e-300)))
                          for f in r["ddim"])
                out.check("ddim exactness", rel < 1e-10, f"max rel err {rel:.2e} (tol 1e-10)")
            sym = r["symbolic"]
            if not out.crashed("symbolic identities", sym):
                out.check("symbolic identities",
                          sym["worst"] < 1e-12 and sym["table_size"] == 14 and sym["zeros"]
                          and sym["ddim_is_taylor3"], repr(sym))
            for (solver, sched), (code, text, err) in r["matrix"].items():
                bytes_out += len(text.encode())
                codes[code] = codes.get(code, 0) + 1
                if code != 0:
                    # crashes and rejections are failed operations, not wrong output
                    out.attempted += 1
                    out.failed += 1
                    continue
                lines = text.splitlines()
                ok = (len(lines) == 3 and lines[0] == "run_id,solver,N,nfe,final_norm"
                      and math.isfinite(float(lines[1].split(",")[-1])))
                out.check(f"cli sample {solver}/{sched}", ok, repr(text[:200]))
            (c1, t1, e1), (c2, t2, e2) = r["pair"]
            bytes_out += len(t1.encode()) + len(t2.encode())
            for code in (c1, c2):
                codes[code] = codes.get(code, 0) + 1
            out.check("cli byte determinism", c1 == c2 == 0 and t1 == t2,
                      f"exit {c1}/{c2}, equal={t1 == t2}, stderr {e1.strip()!r} {e2.strip()!r}")
            prints.append((sorted(r["matrix"].items()), t1))
        out.counts = {"cli.bytes_out": bytes_out,
                      **{f"cli.exit{c}": n for c, n in codes.items()}}
        out.fingerprint = fingerprint(prints)
        return out


class MixtureScore(Workload):
    """Exact mixture oracle: SPA sweep and PF-ODE sampling on a synthetic cloud."""

    name = "mixture_score"
    unit = "scored rows x cloud points"
    N, D = 2000, 64
    TRIALS = 100
    NU_GRID = (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999)  # the spa-sweep CLI default
    SOLVERS = ("ddim", "taylor3")
    STEPS, BATCH = 16, 16
    REF_TIMES, REF_ROWS = (0.05, 0.3, 0.9), 8
    SIZE_FIELDS = ("N", "D", "TRIALS", "NU_GRID", "SOLVERS", "STEPS", "BATCH",
                   "REF_TIMES", "REF_ROWS")

    def setup(self, seed: int) -> dict:
        pts = rng.counter_uniform(seed, 1234, np.arange(self.N, dtype=np.uint64)[:, None],
                                  np.arange(self.D, dtype=np.uint64))
        data = score.PointCloudData(points=pts)
        field_ = score.mixture_field(data)
        probe = rng.counter_normal(seed, 7, np.arange(self.REF_ROWS, dtype=np.uint64)[:, None],
                                   np.arange(self.D, dtype=np.uint64))
        require(np.isfinite(field_.score(probe, 0.5, COND_II)).all(), "mixture score")
        return {"seed": seed, "data": data, "field": field_, "probe": probe,
                "ref_nus": [eval_schedule(COND_II, t).nu for t in self.REF_TIMES]}

    def work(self, ctx) -> float:
        rows = (len(self.NU_GRID) * self.TRIALS + len(self.SOLVERS) * self.STEPS * self.BATCH
                + len(self.REF_TIMES) * self.REF_ROWS)
        return rows * self.N

    def study(self, ctx) -> dict:
        seed = ctx["seed"]
        steps = make_step_schedule("constant", self.STEPS, 1.0)
        return {
            "spa": attempt(spa.spa_sweep, ctx["data"], self.NU_GRID, self.TRIALS,
                           seed=seed, raw=True),
            "pf": {s: attempt(samplers.sample_finals, s, COND_II, steps, ctx["field"],
                              self.D, self.BATCH, seed, workers=WORKERS)
                   for s in self.SOLVERS},
            "scores": [attempt(score.score_mixture_exact, ctx["probe"], t, ctx["data"], COND_II)
                       for t in self.REF_TIMES],
        }

    @staticmethod
    def reference_score(x, nu, points):
        """Mixture score from an independent logsumexp normalisation."""
        centers = math.sqrt(1.0 - nu) * points
        logp = -0.5 * np.sum((x[:, None, :] - centers) ** 2, axis=-1) / nu
        w = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
        return (x - w @ centers) / math.sqrt(nu)

    def check(self, ctx, res) -> Outcome:
        out = Outcome()
        sweep = res["spa"]
        if not out.crashed("spa sweep", sweep):
            rows, raw = sweep
            fracs = []
            for nu in self.NU_GRID:
                bound = math.sqrt((1.0 - nu) / nu)
                vals = [r["rel_l2"] for r in raw if r["nu"] == nu]
                fracs.append(sum(v <= bound for v in vals) / max(len(vals), 1))
            out.check("spa bound fractions",
                      len(rows) == len(self.NU_GRID) and len(raw) == len(self.NU_GRID) * self.TRIALS
                      and min(fracs) >= 0.99, f"fractions {fracs} (>= 0.99)")
        for solver, finals in res["pf"].items():
            if not out.crashed(f"pf-ode {solver}", finals):
                out.check(f"pf-ode {solver}",
                          finals.shape == (self.BATCH, self.D) and np.isfinite(finals).all(),
                          f"shape {finals.shape}, finite {np.isfinite(finals).all()}")
        if not any(out.crashed("mixture score reference", got) for got in res["scores"]):
            worst = 0.0
            for nu, got in zip(ctx["ref_nus"], res["scores"]):
                want = self.reference_score(ctx["probe"], nu, ctx["data"].points)
                worst = max(worst, float(np.max(np.abs(got - want)))
                            / (1.0 + float(np.max(np.abs(want)))))
            out.check("mixture score reference", worst < 1e-7,
                      f"max scaled deviation {worst:.2e} (tol 1e-7)")
        out.fingerprint = fingerprint(
            *res["pf"].values(), sweep if isinstance(sweep, Exception) else sweep[0])
        return out


class FpeLangevin(Workload):
    """Criterion 9 scaled down: Langevin particles against the Fokker-Planck grid."""

    name = "fpe_langevin"
    unit = "particle-steps"
    PARTICLES, STEPS, H = 10_000, 400, 5e-5
    GRID, EXTENT = 32, 2.0
    SIZE_FIELDS = ("PARTICLES", "STEPS", "H", "GRID", "EXTENT")

    def setup(self, seed: int) -> dict:
        pot = fpe.GmmPotential()
        grid = fpe.gaussian_grid(L=self.EXTENT, n=self.GRID)
        require(np.isfinite(pot.grad(np.zeros((4, 2)))).all(), "potential gradient")
        return {"seed": seed, "pot": pot, "grid": grid}

    def work(self, ctx) -> float:
        return self.PARTICLES * self.STEPS

    def study(self, ctx) -> dict:
        pot, grid = ctx["pot"], ctx["grid"]
        particles = attempt(fpe.langevin_simulate, pot, self.PARTICLES, self.H, self.STEPS,
                            seed=ctx["seed"], snapshot_every=self.STEPS)
        density = attempt(fpe.fpe_evolve, pot, grid, self.H, self.STEPS, snapshot_every=1)
        tv = None
        if not isinstance(particles, Exception) and not isinstance(density, Exception):
            binned = attempt(fpe.bin_particles, particles[-1][1], self.EXTENT, self.GRID)
            tv = binned if isinstance(binned, Exception) else attempt(
                fpe.tv_distance, binned, density[0][-1][1].values, grid.cell)
        return {"particles": particles, "density": density, "tv": tv}

    def check(self, ctx, res) -> Outcome:
        out = Outcome()
        particles, density, tv = res["particles"], res["density"], res["tv"]
        if not out.crashed("langevin", particles):
            final = particles[-1][1]
            out.check("langevin", final.shape == (self.PARTICLES, 2) and np.isfinite(final).all(),
                      f"shape {final.shape}")
        if not out.crashed("fokker-planck", density):
            masses = [g.mass for _, g in density[0]]
            drift = max(abs(m - masses[0]) for m in masses)
            out.check("fokker-planck mass drift", drift < 1e-6, f"{drift:.2e} (< 1e-6)")
        if tv is None or not out.crashed("tv distance", tv):
            out.check("tv distance", tv is not None and tv < 0.1, f"tv {tv} (< 0.1)")
        out.fingerprint = fingerprint(tv)
        return out


WORKLOADS = {w.name: w for w in (SdeWeak(), OdeSmall(), MixtureScore(), FpeLangevin())}
