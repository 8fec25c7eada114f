"""Benchmark for difftaylor: four study workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sde_weak --seed 1 --seconds 25 --trace 0

The workload's fixed study runs again and again, in one client thread, for
``--seconds``; each repeat is checked.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json: ``setup_s`` (median over fresh processes started
from this file), ``wall_s`` (median study time), ``work_per_s`` (work of one
study over that median), ``peak_rss_mb`` and ``ok_frac`` (one minus the
fraction of operations that failed).
``--trace 1`` runs half the time untraced and half with span wrappers on every
difftaylor layer, and reports the per-layer metrics plus the tracing overhead;
the spans kept are written to ``.perfbench_out/``.

The last line of standard output is the result object; the line before it is
the run record (versions, commit, seed, workers, sizes, detail).  The program
is imported from ``src/`` of the checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sde_weak", "ode_small", "mixture_score", "fpe_langevin")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
WARMUP_SHARE = 0.2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set the workload up, print 'ready' and exit")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error(f"--seed must lie in [0, 2^63), got {args.seed}")
    if not args.seconds > 0:
        p.error(f"--seconds must be positive, got {args.seconds}")
    return args


def import_program():
    """Put the checkout's ``src`` first on the path; fail if it is missing."""
    if not (SRC / "difftaylor" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no difftaylor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import difftaylor

    if Path(difftaylor.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported difftaylor from {difftaylor.__file__}, not {SRC}")


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Seconds from starting a fresh process to the workload being ready."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: exit {code}, said {line!r}")
        times.append(elapsed)
    return times


def measure(w, ctx, seconds: float, min_repeats: int = 1):
    """Run the study for about ``seconds``; returns (walls, outcomes).

    Studies that start in the first ``WARMUP_SHARE`` of the time (at least
    one) are warm-up: checked and counted, but not timed.  On the reference
    host the first one or two studies of a fresh process ran 10-40% slower
    (most on fpe_langevin), which would shift the median of a short run.
    """
    walls, outcomes = [], []
    start = time.perf_counter()
    warm_until = start + WARMUP_SHARE * seconds
    deadline = start + seconds
    while True:
        gc.collect()
        t0 = time.perf_counter()
        res = w.study(ctx)
        t1 = time.perf_counter()
        outcomes.append(w.check(ctx, res))
        if len(outcomes) > 1 and t0 >= warm_until:
            walls.append(t1 - t0)
        # stop once less than half a study remains before the deadline
        if len(walls) >= min_repeats and time.perf_counter() + (t1 - t0) / 2 >= deadline:
            return walls, outcomes


def tail(walls: list[float]):
    """Highest listed percentile with at least ten repeats beyond it."""
    n = len(walls)
    ordered = sorted(walls)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1]}
    return None


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def stamp(w, args, workers) -> dict:
    import numpy
    import scipy

    return {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(), "workers": workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(), "sizes": w.sizes,
        "work_unit": w.unit,
    }


def tally(outcomes) -> dict:
    problems = [p for o in outcomes for p in o.problems]
    prints = {o.fingerprint for o in outcomes}
    if len(prints) > 1:
        problems.append(f"repeats disagree: {len(prints)} distinct results")
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "problems": problems,
    }


def run_workload(w, seed: int, seconds: float, trace: int, probes: int = SETUP_PROBES):
    """Measure one workload; returns (result object, run record)."""
    import layers

    setup_times = setup_probes(w.name, seed, probes) if trace == 0 else []
    ctx = w.setup(seed)
    work = w.work(ctx)
    record = {"work_per_study": work}
    if trace == 0:
        walls, outcomes = measure(w, ctx, seconds, min_repeats=3)
        t = tally(outcomes)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "work_per_s": work / statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - t["failed"] / t["attempted"],
        }
        units = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
                 "peak_rss_mb": "MB", "ok_frac": "ratio"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        record.update(setup_samples=setup_times, walls=walls, repeats=len(walls),
                      wall_tail=tail(walls))
    else:
        walls, outcomes = measure(w, ctx, seconds / 2)
        rec = layers.recorder()
        uninstall = layers.install_all(rec)
        try:
            traced, traced_outcomes = measure(w, ctx, seconds / 2)
        finally:
            uninstall()
        boundary = {}
        for o in traced_outcomes:
            for k, v in o.counts.items():
                boundary[k] = boundary.get(k, 0.0) + v / len(traced_outcomes)
        overhead = statistics.median(traced) - statistics.median(walls)
        # every traced study counts, warm-up included
        metrics = layers.per_layer_metrics(rec, len(traced_outcomes), boundary, overhead)
        outcomes = outcomes + traced_outcomes
        t = tally(outcomes)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{w.name}-seed{seed}.jsonl"
        rec.write(spans_file)
        record.update(untraced_walls=walls, traced_walls=traced,
                      spans_file=str(spans_file.relative_to(ROOT)),
                      spans_kept=len(rec.spans), spans_dropped=rec.dropped)
    record.update(fail_frac=t["failed"] / t["attempted"], problems=t["problems"][:20])
    result = {"correct": not t["problems"], "attempted": t["attempted"],
              "failed": t["failed"], "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("DSL_THREADS", None)  # the worker count is the benchmark's
    import_program()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        w.setup(args.seed)
        print("ready", flush=True)
        return 0
    result, record = run_workload(w, args.seed, args.seconds, args.trace)
    record = {**stamp(w, args, workloads.WORKERS), **record}
    for name, m in result["metrics"].items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{w.name} fail_frac = {record['fail_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    if args.trace == 0:
        tail_p = record["wall_tail"]
        print(f"{w.name} wall_s is the median of {record['repeats']} repeats"
              + (f"; p{tail_p['percentile']} = {tail_p['value']:.6g} s" if tail_p else ""))
    for problem in record["problems"]:
        print(f"{w.name} problem: {problem}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
