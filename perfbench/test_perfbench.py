"""Self-tests of the benchmark: span arithmetic, wrappers, checks, BENCHMARK.json.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import run

run.import_program()

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from difftaylor import samplers, schedules, score  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Sizes small enough to run each workload in about a second.
TINY = {
    "sde_weak": {"STUDIES": {
        "em": ("euler_maruyama", {"n0": 8, "halvings": 2, "batch": 200}, {"mean": (0.7, 1.3)}),
        "it_var": ("ito_taylor", {"n0": 8, "halvings": 2, "batch": 400}, {"var": (1.5, 2.5)}),
    }},
    "ode_small": {"PASSES": 1, "SYMBOLIC_POINTS": 5},
    "mixture_score": {"N": 50, "D": 8, "TRIALS": 10, "STEPS": 4, "BATCH": 4},
    "fpe_langevin": {"PARTICLES": 500, "STEPS": 20, "GRID": 16},
}


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_merged_length():
    assert spans.merged_length([]) == 0.0
    assert spans.merged_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_self_time_on_synthetic_span_tree():
    """Client C runs a root with one child, then fans out to pool threads A, B.

    root 0..11 (C)
      schedules.eval_schedule 1..2 (C)
      samplers._run_chunks 3..10 (C)
        samplers._sample_chunk 3..9 (A)
          rng.counter_bits 5..6 (A)
        samplers._sample_chunk 4..10 (B)
    """
    clock = Clock()
    rec = spans.SpanRecorder(clock=clock, client="C")

    def at(t):
        clock.now = t

    at(0); root = rec.begin("samplers.sample_finals", tid="C")
    at(1); ev = rec.begin("schedules.eval_schedule", tid="C")
    at(2); rec.end(ev)
    at(3); fan = rec.begin("samplers._run_chunks", tid="C")
    ca = rec.begin("samplers._sample_chunk", tid="A")
    at(4); cb = rec.begin("samplers._sample_chunk", tid="B")
    at(5); bits = rec.begin("rng.counter_bits", tid="A")
    at(6); rec.end(bits)
    at(9); rec.end(ca)
    at(10); rec.end(cb)
    rec.end(fan)
    at(11); rec.end(root)

    assert ca.parent is fan and cb.parent is fan and bits.parent is ca
    assert bits.self_time == 1.0
    assert ca.self_time == 5.0  # 6 s minus the 1 s hash
    assert cb.self_time == 6.0
    assert fan.self_time == 0.0  # 3..10 covered by the union of 3..9 and 4..10
    assert fan.child_busy == 12.0
    assert root.self_time == 3.0  # 11 s minus 1 s and 7 s of same-thread children
    assert rec.stats["samplers._sample_chunk"] == [2, 12.0, 11.0]
    assert rec.self_time("samplers.") == 14.0
    assert dict(rec.entries) == {"samplers": 1, "schedules": 1, "rng": 1}
    assert [s[2] for s in rec.spans] == ["schedules.eval_schedule", "rng.counter_bits",
                                         "samplers._sample_chunk", "samplers._sample_chunk",
                                         "samplers._run_chunks", "samplers.sample_finals"]


def test_wrappers_cover_aliases_and_uninstall():
    originals = (schedules.eval_schedule, samplers.eval_schedule, score.ScoreField.score)
    rec = layers.recorder()
    uninstall = layers.install_all(rec)
    try:
        assert samplers.eval_schedule is schedules.eval_schedule
        assert samplers.eval_schedule.__wrapped_span__ == "schedules.eval_schedule"
        field = score.delta_field([0.0])
        sched = schedules.fit_tanh_schedule(1e-4, 0.99, 1.0)
        steps = schedules.make_step_schedule("constant", 3, 1.0)
        samplers.sample_finals("euler", sched, steps, field, 1, 4, 0)
    finally:
        uninstall()
    assert (schedules.eval_schedule, samplers.eval_schedule,
            score.ScoreField.score) == originals
    assert rec.count("samplers.sample_finals") == 1
    assert rec.counters["samplers.nfe"] == 3
    assert rec.counters["score.rows"] == 12
    assert rec.counters["samplers.traj_steps"] == 12
    # pf_ode_drift and score._nu each evaluate the schedule once per step
    assert rec.count("schedules.eval_schedule") == 6


def test_memory_span_peak():
    rec = layers.recorder()
    data = score.PointCloudData(points=np.zeros((100, 50)))
    x = np.zeros((40, 50))
    uninstall = layers.install_all(rec)
    try:
        score._log_posterior(x, 0.5, data)
    finally:
        uninstall()
    tensor_mb = 40 * 100 * 50 * 8 / 2**20
    assert tensor_mb <= rec.maxima["score.peak_alloc_mb"] < 4 * tensor_mb
    assert rec.counters["score.bytes_computed"] == 40 * 100 * 50 * 8
    assert not tracemalloc.is_tracing()


def test_resolved_slope_drops_noise_and_propagates_error():
    h = [0.1, 0.05, 0.025, 0.0125]
    errors = [2.0 * v**2 for v in h]
    slope, se = workloads.resolved_slope(h, errors, [e / 100 for e in errors])
    assert slope == pytest.approx(2.0) and se > 0
    # the last point is within the noise, so the fit uses the first three
    slope3, _ = workloads.resolved_slope(h, errors[:3] + [1.0], [e / 100 for e in errors[:3]] + [1.0])
    assert slope3 == pytest.approx(2.0)
    assert workloads.resolved_slope(h, errors, [1.0] * 4) == (None, None)


def test_tail_percentile_needs_ten_repeats_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20))) == {"percentile": 50, "value": 9}
    assert run.tail(list(range(100)))["percentile"] == 90


def test_benchmark_json_format():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"] and BENCH["command"][1] == "perfbench/run.py"
    assert 1 <= BENCH["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_tiny_workload_emits_benchmark_metrics(name, trace):
    w = type(workloads.WORKLOADS[name])(**TINY[name])
    result, record = run.run_workload(w, seed=3, seconds=0.01, trace=trace, probes=1)
    json.dumps(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 0:
        assert all(result["metrics"][m]["value"] > 0 for m in ("setup_s", "wall_s", "work_per_s"))
    elif name == "ode_small":  # per-study counts: 24 matrix cells + the pair, 5 orders
        assert result["metrics"]["cli.calls"]["value"] == 26
        assert result["metrics"]["orders.studies"]["value"] == 5


def test_ode_small_records_every_cli_exit():
    w = workloads.OdeSmall(PASSES=2, SYMBOLIC_POINTS=5)
    ctx = w.setup(0)
    out = w.check(ctx, w.study(ctx))
    assert not out.problems
    # per pass: 24 matrix cells plus the determinism pair, each with its exit code
    assert sum(out.counts[f"cli.exit{c}"] for c in (0, 1, 2)) == 2 * 26
    assert out.failed == out.counts["cli.exit1"] + out.counts["cli.exit2"]


def test_mixture_reference_matches_oracle():
    rand = np.random.default_rng(0)
    pts = rand.uniform(size=(30, 5))
    x = rand.normal(size=(4, 5))
    sched = schedules.fit_tanh_schedule(1e-4, 0.99, 1.0)
    nu = schedules.eval_schedule(sched, 0.3).nu
    got = score.score_mixture_exact(x, 0.3, score.PointCloudData(points=pts), sched)
    want = workloads.MixtureScore.reference_score(x, nu, pts)
    assert np.max(np.abs(got - want)) < 1e-9 * (1 + np.max(np.abs(want)))


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ode_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
