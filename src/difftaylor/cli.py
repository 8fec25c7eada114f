"""Command-line harness: sampling, convergence studies, and diagnostics.

Subcommands: sample, order, schedule-dump, spa-sweep, symdiff-dump, fpe-demo.
Each accepts only the options it reads (``difftaylor <command> --help`` lists
them); any other flag exits 2.  The names a flag takes (solver, schedule, step
plan, oracle) come from ``config.FIELD_NAMES``, and ``--dataset`` is CSV or IDX
by content, read by the mixture oracle and spa-sweep only.
Every command writes CSV through ``_write_csv`` (plain text for symdiff-dump)
and prints a one line summary; ``sample --trajectory-out`` adds the states at
every grid time.
Exit codes: 0 success, 2 configuration error, 1 runtime error.
Worker-pool size comes from --workers, overridden by the DSL_THREADS
environment variable; either must be at least 1, and results do not depend
on it, except for the mixture oracle on chunks of fewer than 8 rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from typing import Optional

import numpy as np

from difftaylor import fpe, rng, spa, symderiv
from difftaylor.config import FIELD_NAMES, PRESETS, ExperimentConfig
from difftaylor.orders import deterministic_order, stochastic_order
from difftaylor.samplers import SOLVERS, sample
from difftaylor.schedules import eval_schedule
from difftaylor.score import PointCloudData, load_point_cloud


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_lines(path: Optional[str], lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _write_csv(path: Optional[str], header: Optional[list[str]], rows) -> None:
    """Write CSV to ``path`` (stdout when None): the header line unless None,
    then one line per row.  ``str`` cells are written as they are, numbers as
    ``_fmt`` gives them, joined by a plain "," with no quoting."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows]
    _write_lines(path, lines)


def _numbers(text: str) -> list[float]:
    """argparse type for a comma-separated list of numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _seed(text: str) -> int:
    """argparse type for a seed, an integer in [0, 2**64)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _positive(kind):
    """argparse type for a positive finite number of ``kind`` (int or float)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    return parse


def _workers(args) -> int:
    env = os.environ.get("DSL_THREADS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"DSL_THREADS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ConfigError(f"DSL_THREADS must be at least 1, got {env!r}")
        return workers
    if args.workers is not None:
        return args.workers
    return os.cpu_count() or 1


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg = ExperimentConfig.from_json(f.read())
    if getattr(args, "preset", None):
        cfg.apply_preset(args.preset)
    for f in dataclasses.fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


def _cmd_sample(args) -> int:
    cfg = _config_from_args(args)
    sched = cfg.noise_schedule()
    steps = cfg.step_plan()
    score = cfg.score_field()
    if score.d != cfg.d:
        source = f"dataset {cfg.dataset}" if cfg.dataset else "x0"
        raise ConfigError(f"--dim {cfg.d} does not match the dimension {score.d} of the "
                          f"{cfg.oracle} oracle's {source}; pass --dim {score.d}")
    finals, trajectory, nfe = sample(
        cfg.solver, sched, steps, score, cfg.d, cfg.batch, cfg.seed,
        clip=cfg.clip_tuple(), record_trajectory=args.trajectory_out is not None,
        workers=_workers(args),
    )
    _write_csv(cfg.out, ["run_id", "solver", "N", "nfe", "final_norm"],
               ((b, cfg.solver, steps.N, nfe, np.linalg.norm(x))
                for b, x in enumerate(finals)))
    if trajectory is not None:
        hs = (0.0,) + steps.steps
        _write_csv(args.trajectory_out,
                   ["run_id", "step", "t", "h"] + [f"dim{i}" for i in range(cfg.d)],
                   ((b, i, t, h, *x)
                    for b, path in enumerate(trajectory.swapaxes(0, 1))
                    for i, (t, h, x) in enumerate(zip(steps.times, hs, path))))
    print(f"sample: solver={cfg.solver} N={steps.N} batch={cfg.batch} "
          f"nfe={nfe} seed={cfg.seed}")
    return 0


def _cmd_order(args) -> int:
    cfg = _config_from_args(args)
    sched = cfg.noise_schedule()
    # only the sizes given on the command line; each study keeps its own defaults
    sizes = {k: v for k, v in (("n0", args.base_steps), ("halvings", args.halvings))
             if v is not None}
    if SOLVERS[cfg.solver].noise:
        if cfg.d != 1:
            raise ConfigError(f"--dim {cfg.d}: the weak-order study of solver "
                              f"{cfg.solver!r} runs 1-dim delta data only")
        if args.order_batch is not None:
            sizes["batch"] = args.order_batch
        est = stochastic_order(cfg.solver, sched, seed=cfg.seed, workers=_workers(args),
                               **sizes)
        summary = " ".join(f"{moment} slope={oe.slope:.3f}" for moment, oe in est.items())
    else:
        for flag, value in (("--order-batch", args.order_batch), ("--workers", args.workers)):
            if value is not None:
                raise ConfigError(f"{flag}: the order study of deterministic solver "
                                  f"{cfg.solver!r} runs one trajectory; the flag is for "
                                  "the stochastic solvers only")
        oe = deterministic_order(cfg.solver, sched, d=cfg.d, seed=cfg.seed, **sizes)
        est = {"path": oe}
        summary = f"slope={oe.slope:.3f} r2={oe.r2:.5f}"
    _write_csv(cfg.out, ["solver", "moment", "h", "error", "slope", "r2"],
               ((oe.solver, moment, h, e, oe.slope, oe.r2)
                for moment, oe in est.items() for h, e in zip(oe.h_list, oe.error_list)))
    halvings = "" if args.halvings is None else f" halvings={args.halvings}"
    print(f"order: solver={cfg.solver}{halvings} {summary}")
    return 0


def _cmd_schedule_dump(args) -> int:
    cfg = _config_from_args(args)
    sched = cfg.noise_schedule()
    n = args.grid
    if n < 2:
        raise ConfigError(f"grid must have at least 2 points, got {n}")
    # each row reads the time its sample was taken at, which eval_schedule
    # clamps to [0, T] (T * i / (n - 1) can round past T)
    samples = [eval_schedule(sched, cfg.T * i / (n - 1)) for i in range(n)]
    _write_csv(cfg.out, ["t", "lambda", "nu", "beta", "beta_d1", "beta_d2"],
               ((s.t, s.lam, s.nu, s.beta, s.beta_d1, s.beta_d2) for s in samples))
    print(f"schedule-dump: kind={cfg.schedule} points={n}")
    return 0


def _cmd_spa_sweep(args) -> int:
    cfg = _config_from_args(args)
    if cfg.dataset:
        data = load_point_cloud(cfg.dataset)
    else:  # a synthetic cloud of 100 points in 32 dims, drawn by seed
        pts = rng.counter_uniform(cfg.seed, 1234, np.arange(100, dtype=np.uint64)[:, None],
                                  np.arange(32, dtype=np.uint64))
        data = PointCloudData(points=pts)
    result = spa.spa_sweep(data, args.nu_grid, args.trials, seed=cfg.seed,
                           raw=bool(args.raw_out))
    rows, raw_rows = result if args.raw_out else (result, None)
    # spa_sweep's row keys, in order, are each CSV's columns
    _write_csv(cfg.out, list(rows[0]), (row.values() for row in rows))
    if raw_rows is not None:
        _write_csv(args.raw_out, list(raw_rows[0]), (row.values() for row in raw_rows))
    print(f"spa-sweep: points={len(data.points)} grid={len(args.nu_grid)} trials={args.trials}")
    return 0


def _cmd_symdiff_dump(args) -> int:
    _write_lines(args.out, symderiv.render_report().splitlines())
    print("symdiff-dump: ok")
    return 0


def _cmd_fpe_demo(args) -> int:
    try:
        pot = fpe.GmmPotential(sigma=args.sigma, D=args.D)
    except ValueError as exc:
        raise ConfigError(f"--sigma: {exc}") from None
    # the grid first: its stability check fires before any particle moves
    grids, stats = fpe.fpe_evolve(pot, fpe.gaussian_grid(L=args.extent, n=args.grid),
                                  args.h, args.fpe_steps, snapshot_every=args.fpe_steps)
    snaps = fpe.langevin_simulate(pot, args.particles, args.h, args.fpe_steps,
                                  seed=args.seed, snapshot_every=args.fpe_steps)
    particles = snaps[-1][1]
    density = grids[-1][1]
    binned = fpe.bin_particles(particles, args.extent, args.grid)
    tv = fpe.tv_distance(binned, density.values, density.cell)
    prefix = args.out or "fpe"
    _write_csv(f"{prefix}_grid.csv", None, density.values)
    _write_csv(f"{prefix}_particles.csv", ["x", "y"], particles)
    print(f"fpe-demo: steps={args.fpe_steps} particles={args.particles} "
          f"tv={tv:.4f} max_clamp={stats['max_clamp_fraction']:.2e}")
    return 0


class ConfigError(ValueError):
    pass


# One definition per config flag; each subcommand adds only the ones it reads.
_CONFIG_FLAGS = {
    "--solver": dict(choices=FIELD_NAMES["solver"]),
    "--schedule": dict(choices=FIELD_NAMES["schedule"]),
    "--nu0": dict(type=float),
    "--nuT": dict(type=float),
    "--T": dict(type=_positive(float)),
    "--steps": dict(type=_positive(int)),
    "--step-schedule": dict(dest="step_schedule", choices=FIELD_NAMES["step_schedule"]),
    "--oracle": dict(choices=FIELD_NAMES["oracle"]),
    "--dataset": dict(help="CSV or IDX point cloud, told apart by content"),
    "--dim": dict(dest="d", type=_positive(int)),
    "--batch": dict(type=_positive(int)),
    "--seed": dict(type=_seed),
    "--clip": dict(type=_numbers, help="lo,hi clipping interval"),
    "--preset": dict(choices=sorted(PRESETS)),
    "--workers": dict(type=_positive(int)),
}


def _add_config_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--out")
    for flag in flags:
        p.add_argument(flag, **_CONFIG_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difftaylor",
        description="Taylor-scheme diffusion sampler lab with analytic score oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run a sampler and write a summary CSV")
    _add_config_flags(p, *_CONFIG_FLAGS)
    p.add_argument("--trajectory-out", help="per-step trajectory CSV output path")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("order", help="estimate a solver's convergence order")
    _add_config_flags(p, "--solver", "--schedule", "--nu0", "--nuT", "--T", "--dim",
                      "--seed", "--preset", "--workers")
    p.add_argument("--halvings", type=int,
                   help="step-count doublings after the first grid (default: 6 for "
                        "deterministic solvers, 4 for stochastic ones)")
    p.add_argument("--base-steps", type=_positive(int),
                   help="steps of the coarsest grid (default: 8 for deterministic "
                        "solvers, 32 for euler_maruyama, 16 for ito_taylor)")
    p.add_argument("--order-batch", type=_positive(int),
                   help="trajectories per grid point, stochastic solvers only "
                        "(default 1000000)")
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("schedule-dump", help="dump schedule curves as CSV")
    _add_config_flags(p, "--schedule", "--nu0", "--nuT", "--T", "--preset")
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(fn=_cmd_schedule_dump)

    p = sub.add_parser("spa-sweep", help="single-point approximation metrics sweep")
    _add_config_flags(p, "--dataset", "--seed")
    p.add_argument("--nu-grid", type=_numbers, default="0.001,0.01,0.1,0.5,0.9,0.99,0.999")
    p.add_argument("--trials", type=_positive(int), default=200)
    p.add_argument("--raw-out", help="per-trial CSV output path")
    p.set_defaults(fn=_cmd_spa_sweep)

    p = sub.add_parser("symdiff-dump", help="print the symbolic operator table")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_symdiff_dump)

    p = sub.add_parser("fpe-demo", help="Langevin vs Fokker-Planck cross-check")
    p.add_argument("--particles", type=_positive(int), default=100_000)
    p.add_argument("--grid", type=_positive(int), default=64)
    p.add_argument("--extent", type=_positive(float), default=2.0)
    p.add_argument("--sigma", type=_positive(float), default=0.1)
    p.add_argument("--D", type=_positive(float), default=5.0)
    p.add_argument("--h", type=_positive(float), default=5e-5)
    p.add_argument("--fpe-steps", type=_positive(int), default=400)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="output file prefix")
    p.set_defaults(fn=_cmd_fpe_demo)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then kept, because
    parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
