"""Command-line harness: sampling, convergence studies, and diagnostics.

Subcommands: sample, order, schedule-dump, spa-sweep, symdiff-dump, fpe-demo.
Every command writes CSV (or plain text for symdiff-dump) and prints a one
line summary.  Exit codes: 0 success, 2 configuration error, 1 runtime error.
Worker-pool size comes from --workers, overridden by the DSL_THREADS
environment variable; results never depend on it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

import numpy as np

from difftaylor import fpe, spa, symderiv
from difftaylor.config import PRESETS, ExperimentConfig
from difftaylor.orders import deterministic_order, stochastic_order
from difftaylor.samplers import SOLVERS, sample
from difftaylor.schedules import eval_schedule
from difftaylor.score import PointCloudData


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_lines(path: Optional[str], lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _workers(args) -> int:
    env = os.environ.get("DSL_THREADS")
    if env is not None:
        return max(1, int(env))
    if args.workers is not None:
        return max(1, args.workers)
    return os.cpu_count() or 1


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg = ExperimentConfig.from_json(f.read())
    if getattr(args, "preset", None):
        cfg.apply_preset(args.preset)
    for attr, name in [
        ("solver", "solver"), ("schedule", "schedule"), ("nu0", "nu0"),
        ("nuT", "nuT"), ("T", "T"), ("steps", "steps"),
        ("step_schedule", "step_schedule"), ("oracle", "oracle"),
        ("dataset", "dataset"), ("dim", "d"), ("batch", "batch"),
        ("seed", "seed"), ("out", "out"),
    ]:
        val = getattr(args, attr, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "clip", None):
        lo, hi = (float(v) for v in args.clip.split(","))
        cfg.clip = [lo, hi]
    return cfg


def _cmd_sample(args) -> int:
    cfg = _config_from_args(args)
    sched = cfg.noise_schedule()
    steps = cfg.step_plan()
    score = cfg.score_field()
    runs = sample(
        cfg.solver, sched, steps, score, cfg.d, cfg.batch, cfg.seed,
        clip=cfg.clip_tuple(), record_trajectory=args.record_trajectory,
        workers=_workers(args),
    )
    lines = ["run_id,solver,N,nfe,final_norm"]
    for run in runs:
        lines.append(
            f"{run.run_id},{run.solver},{steps.N},{run.nfe},"
            f"{_fmt(float(np.linalg.norm(run.final)))}"
        )
    _write_lines(cfg.out, lines)
    if args.record_trajectory and args.trajectory_out:
        dims = ",".join(f"dim{i}" for i in range(cfg.d))
        tlines = [f"run_id,step,t,h,{dims}"]
        hs = (0.0,) + steps.steps
        for run in runs:
            for step_idx, (t, x) in enumerate(run.trajectory):
                vals = ",".join(_fmt(float(v)) for v in np.atleast_1d(x))
                tlines.append(f"{run.run_id},{step_idx},{_fmt(t)},{_fmt(hs[step_idx])},{vals}")
        _write_lines(args.trajectory_out, tlines)
    print(f"sample: solver={cfg.solver} N={steps.N} batch={cfg.batch} "
          f"nfe={runs[0].nfe} seed={cfg.seed}")
    return 0


def _cmd_order(args) -> int:
    cfg = _config_from_args(args)
    sched = cfg.noise_schedule()
    lines = ["solver,moment,h,error,slope,r2"]
    if cfg.solver in ("euler_maruyama", "ito_taylor"):
        est = stochastic_order(
            cfg.solver, sched, n0=args.base_steps, halvings=args.halvings,
            batch=args.order_batch, seed=cfg.seed, workers=_workers(args),
        )
        summaries = []
        for moment, oe in est.items():
            for h, e in zip(oe.h_list, oe.error_list):
                lines.append(f"{oe.solver},{moment},{_fmt(h)},{_fmt(e)},"
                             f"{_fmt(oe.slope)},{_fmt(oe.r2)}")
            summaries.append(f"{moment} slope={oe.slope:.3f}")
        summary = " ".join(summaries)
    else:
        reference = args.reference.replace("-", "_")
        oe = deterministic_order(
            cfg.solver, sched, d=cfg.d, n0=args.base_steps,
            halvings=args.halvings, seed=cfg.seed, reference=reference,
        )
        for h, e in zip(oe.h_list, oe.error_list):
            lines.append(f"{oe.solver},path,{_fmt(h)},{_fmt(e)},"
                         f"{_fmt(oe.slope)},{_fmt(oe.r2)}")
        summary = f"slope={oe.slope:.3f} r2={oe.r2:.5f}"
    _write_lines(cfg.out, lines)
    print(f"order: solver={cfg.solver} halvings={args.halvings} {summary}")
    return 0


def _cmd_schedule_dump(args) -> int:
    cfg = _config_from_args(args)
    sched = cfg.noise_schedule()
    n = args.grid
    if n < 2:
        raise ConfigError(f"grid must have at least 2 points, got {n}")
    lines = ["t,lambda,nu,beta,beta_d1,beta_d2"]
    for i in range(n):
        t = cfg.T * i / (n - 1)
        s = eval_schedule(sched, t)
        lines.append(",".join(_fmt(v) for v in
                              (t, s.lam, s.nu, s.beta, s.beta_d1, s.beta_d2)))
    _write_lines(cfg.out, lines)
    print(f"schedule-dump: kind={cfg.schedule} points={n}")
    return 0


def _synthetic_cloud(seed: int = 0, n: int = 100, d: int = 32) -> PointCloudData:
    from difftaylor import rng

    pts = rng.counter_uniform(
        seed, 1234, np.arange(n, dtype=np.uint64)[:, None], np.arange(d, dtype=np.uint64)
    )
    return PointCloudData(points=pts)


def _cmd_spa_sweep(args) -> int:
    cfg = _config_from_args(args)
    if cfg.dataset:
        data = cfg.point_cloud()
    else:
        data = _synthetic_cloud(seed=cfg.seed)
    nu_grid = [float(v) for v in args.nu_grid.split(",")]
    result = spa.spa_sweep(data, nu_grid, args.trials, seed=cfg.seed,
                           raw=bool(args.raw_out))
    rows, raw_rows = result if args.raw_out else (result, None)
    cols = ["nu", "rel_l2_mean", "rel_l2_p5", "rel_l2_p95", "cossim_mean",
            "cossim_p5", "cossim_p95", "entropy_mean", "bound_rel_l2", "bound_cossim"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    _write_lines(cfg.out, lines)
    if raw_rows is not None:
        rcols = ["nu", "trial", "rel_l2", "cossim", "entropy"]
        rlines = [",".join(rcols)]
        for row in raw_rows:
            rlines.append(",".join(
                str(row[c]) if c == "trial" else _fmt(row[c]) for c in rcols))
        _write_lines(args.raw_out, rlines)
    print(f"spa-sweep: points={len(data.points)} grid={len(nu_grid)} trials={args.trials}")
    return 0


def _cmd_symdiff_dump(args) -> int:
    text = symderiv.render_report()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
    print("symdiff-dump: ok")
    return 0


def _cmd_fpe_demo(args) -> int:
    pot = fpe.GmmPotential(sigma=args.sigma, D=args.D)
    grid0 = fpe.gaussian_grid(L=args.extent, n=args.grid)
    hmax = fpe.max_stable_h(grid0, pot.D)
    if args.h > hmax:
        raise ConfigError(f"step size h={args.h} unstable; use h <= {hmax:.3e}")
    snaps = fpe.langevin_simulate(pot, args.particles, args.h, args.fpe_steps,
                                  seed=args.seed, snapshot_every=args.fpe_steps)
    grids, stats = fpe.fpe_evolve(pot, grid0, args.h, args.fpe_steps,
                                  snapshot_every=args.fpe_steps)
    particles = snaps[-1][1]
    density = grids[-1][1]
    binned = fpe.bin_particles(particles, args.extent, args.grid)
    tv = fpe.tv_distance(binned, density.values, density.cell)
    prefix = args.out or "fpe"
    glines = [",".join(_fmt(v) for v in row) for row in density.values]
    _write_lines(f"{prefix}_grid.csv", glines)
    plines = ["x,y"] + [f"{_fmt(p[0])},{_fmt(p[1])}" for p in particles]
    _write_lines(f"{prefix}_particles.csv", plines)
    print(f"fpe-demo: steps={args.fpe_steps} particles={args.particles} "
          f"tv={tv:.4f} max_clamp={stats['max_clamp_fraction']:.2e}")
    return 0


class ConfigError(ValueError):
    pass


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--schedule", choices=("tanh", "linear", "cosine"))
    p.add_argument("--nu0", type=float)
    p.add_argument("--nuT", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--step-schedule", dest="step_schedule",
                   choices=("constant", "exponential"))
    p.add_argument("--oracle", choices=("delta", "gaussian", "mixture", "idx"))
    p.add_argument("--dataset")
    p.add_argument("--dim", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--clip", help="lo,hi clipping interval")
    p.add_argument("--out")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--workers", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difftaylor",
        description="Taylor-scheme diffusion sampler lab with analytic score oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run a sampler and write a summary CSV")
    _add_common(p)
    p.add_argument("--record-trajectory", action="store_true")
    p.add_argument("--trajectory-out")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("order", help="estimate a solver's convergence order")
    _add_common(p)
    p.add_argument("--halvings", type=int, default=6)
    p.add_argument("--base-steps", type=int, default=8)
    p.add_argument("--reference", choices=("closed-form", "fine-step"),
                   default="closed-form")
    p.add_argument("--order-batch", type=int, default=1_000_000,
                   help="trajectories per grid point for stochastic solvers")
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("schedule-dump", help="dump schedule curves as CSV")
    _add_common(p)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(fn=_cmd_schedule_dump)

    p = sub.add_parser("spa-sweep", help="single-point approximation metrics sweep")
    _add_common(p)
    p.add_argument("--nu-grid", default="0.001,0.01,0.1,0.5,0.9,0.99,0.999")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--raw-out", help="per-trial CSV output path")
    p.set_defaults(fn=_cmd_spa_sweep)

    p = sub.add_parser("symdiff-dump", help="print the symbolic operator table")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_symdiff_dump)

    p = sub.add_parser("fpe-demo", help="Langevin vs Fokker-Planck cross-check")
    p.add_argument("--particles", type=int, default=100_000)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--extent", type=float, default=2.0)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--D", type=float, default=5.0)
    p.add_argument("--h", type=float, default=5e-5)
    p.add_argument("--fpe-steps", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file prefix")
    p.set_defaults(fn=_cmd_fpe_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
