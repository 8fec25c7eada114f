"""Per-layer metrics of the traced run, one layer per difftaylor module.

Counts are taken by hooks on the wrapped calls, at the layer boundary where
the work happens; times are self times from the span recorder.  Counts and
times are per study (divided by the traced repeats), so runs of different
lengths compare.  A ratio or rate whose base is zero on a workload (the layer
did no such work there) reads 0.
"""

from __future__ import annotations

import importlib

import numpy as np

from spans import SpanRecorder, install

LAYERS = ("rng", "schedules", "samplers", "score", "spa", "fpe", "orders", "symderiv", "cli")
MEMORY_SPANS = ("score._log_posterior", "spa.spa_sweep")
# Private helpers that carry per-layer counts; everything public is wrapped.
PRIVATE_WRAPPED = ("_log_posterior", "_run_chunks", "_sample_chunk")

# name -> unit, in the order they are reported
PER_LAYER = {
    "rng.calls": "count", "rng.variates": "count", "rng.hash_s": "s", "rng.ndtri_s": "s",
    "rng.variates_per_s": "1/s", "rng.share": "ratio",
    "schedules.eval_calls": "count", "schedules.eval_us": "us", "schedules.share": "ratio",
    "samplers.traj_steps": "count", "samplers.nfe": "count", "samplers.self_s": "s",
    "samplers.fanout_eff": "ratio", "samplers.finite_ratio": "ratio",
    "score.evals": "count", "score.rows": "count", "score.self_s": "s",
    "score.posterior_s": "s", "score.bytes_computed": "B", "score.peak_alloc_mb": "MB",
    "score.share": "ratio",
    "spa.trials": "count", "spa.self_s": "s", "spa.peak_alloc_mb": "MB",
    "fpe.grad_calls": "count", "fpe.grad_s": "s", "fpe.particle_grads_per_s": "1/s",
    "fpe.stencil_s": "s", "fpe.cell_steps_per_s": "1/s", "fpe.bin_s": "s",
    "fpe.max_clamp_fraction": "ratio",
    "orders.studies": "count", "orders.self_s": "s", "orders.fit_points_used_ratio": "ratio",
    "symderiv.calls": "count", "symderiv.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.bytes_out": "B",
    "cli.exit0": "count", "cli.exit1": "count", "cli.exit2": "count",
    "trace.overhead_s": "s",
}


def modules() -> dict:
    return {name: importlib.import_module(f"difftaylor.{name}") for name in LAYERS}


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _rows(x) -> int:
    x = np.asarray(x)
    return x.size // x.shape[-1] if x.ndim else 1


def _is_entry(frame) -> bool:
    return frame.parent is None or frame.parent.layer != frame.layer


def _variates(rec, frame, args, kwargs, result):
    if result is not None:
        rec.add("rng.variates", result.size)


def _score_rows(x_index):
    def hook(rec, frame, args, kwargs, result):
        if _is_entry(frame):
            rec.add("score.rows", _rows(_arg(args, kwargs, x_index, "x")))
        if frame.name == "score.ScoreField.score" and frame.parent is not None \
                and frame.parent.layer == "samplers":
            rec.add("samplers.nfe", 1)
    return hook


def _posterior(rec, frame, args, kwargs, result):
    _score_rows(0)(rec, frame, args, kwargs, result)
    n, d = _arg(args, kwargs, 2, "data").points.shape
    rec.add("score.bytes_computed", 8 * _rows(_arg(args, kwargs, 0, "x")) * n * d)


def _chunk(rec, frame, args, kwargs, result):
    traj = _arg(args, kwargs, 5, "traj")
    rec.add("samplers.traj_steps", len(traj) * _arg(args, kwargs, 2, "steps").N)


def _fanout(rec, frame, args, kwargs, result):
    workers = max(1, _arg(args, kwargs, 10, "workers") or 1)
    rec.add("samplers.fanout_busy", frame.child_busy)
    rec.add("samplers.fanout_capacity", workers * frame.duration)
    if result is None:
        rec.add("samplers.rows", _arg(args, kwargs, 5, "batch") or 0)
    else:
        finals = result[2]
        rec.add("samplers.rows", len(finals))
        rec.add("samplers.finite_rows", int(np.isfinite(finals).all(axis=-1).sum()))


def _grad(rec, frame, args, kwargs, result):
    rec.add("fpe.particle_grads", _rows(_arg(args, kwargs, 1, "xy")))


def _stencil(rec, frame, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    rec.add("fpe.cell_steps", grid.n * grid.n * _arg(args, kwargs, 3, "n_steps"))
    if result is not None:
        rec.observe_max("fpe.max_clamp_fraction", result[1]["max_clamp_fraction"])


def _spa(rec, frame, args, kwargs, result):
    rec.add("spa.trials", len(_arg(args, kwargs, 1, "nu_grid")) * _arg(args, kwargs, 2, "trials"))


def _fit(rec, frame, args, kwargs, result):
    rec.add("orders.fit_points", len(_arg(args, kwargs, 2, "h_list")))
    if result is not None:
        rec.add("orders.fit_points_used", len(result.h_list))


HOOKS = {
    "rng.counter_bits": _variates,
    "score.ScoreField.score": _score_rows(1),
    "score.score_mixture_exact": _score_rows(0),
    "score.score_delta": _score_rows(0),
    "score.score_gaussian": _score_rows(0),
    "score.posterior_weights": _score_rows(0),
    "score._log_posterior": _posterior,
    "samplers._sample_chunk": _chunk,
    "samplers._run_chunks": _fanout,
    "fpe.GmmPotential.grad": _grad,
    "fpe.fpe_evolve": _stencil,
    "spa.spa_sweep": _spa,
    "orders.fit_order": _fit,
}


def recorder() -> SpanRecorder:
    rec = SpanRecorder(memory_spans=MEMORY_SPANS)
    rec.hooks.update(HOOKS)
    return rec


def install_all(rec: SpanRecorder):
    """Wrap every layer; returns the function that removes the wrappers."""
    mods = modules()
    aliases = [importlib.import_module(m) for m in ("difftaylor", "difftaylor.config")]
    return install(rec, mods, alias_modules=aliases, private=PRIVATE_WRAPPED)


def per_layer_metrics(rec: SpanRecorder, repeats: int, boundary_counts: dict,
                      overhead_s: float) -> dict:
    """The per-layer metrics, per study.

    A layer's share is its self time over the self time of all layers, so the
    shares sum to 1 even when pool threads overlap.  Self times are wall-clock:
    on a pool thread they include waiting for the interpreter lock.
    ``boundary_counts`` holds the CLI tallies the workload saw per study.
    """
    c, mx = rec.counters, rec.maxima

    def per(v):
        return v / repeats

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: rec.self_time(layer + ".") for layer in LAYERS}
    total_self = sum(layer_self.values())
    m = {
        "rng.calls": per(rec.entries["rng"]),
        "rng.variates": per(c["rng.variates"]),
        "rng.hash_s": per(rec.stats["rng.counter_bits"][2]),
        "rng.ndtri_s": per(rec.stats["rng.counter_normal"][2]),
        "rng.variates_per_s": ratio(c["rng.variates"], layer_self["rng"]),
        "rng.share": ratio(layer_self["rng"], total_self),
        "schedules.eval_calls": per(rec.count("schedules.eval_schedule")),
        "schedules.eval_us": 1e6 * ratio(rec.stats["schedules.eval_schedule"][2],
                                         rec.count("schedules.eval_schedule")),
        "schedules.share": ratio(layer_self["schedules"], total_self),
        "samplers.traj_steps": per(c["samplers.traj_steps"]),
        "samplers.nfe": per(c["samplers.nfe"]),
        "samplers.self_s": per(layer_self["samplers"]),
        "samplers.fanout_eff": ratio(c["samplers.fanout_busy"], c["samplers.fanout_capacity"]),
        "samplers.finite_ratio": ratio(c["samplers.finite_rows"], c["samplers.rows"]),
        "score.evals": per(rec.entries["score"]),
        "score.rows": per(c["score.rows"]),
        "score.self_s": per(layer_self["score"]),
        "score.posterior_s": per(rec.stats["score._log_posterior"][2]),
        "score.bytes_computed": per(c["score.bytes_computed"]),
        "score.peak_alloc_mb": mx["score.peak_alloc_mb"],
        "score.share": ratio(layer_self["score"], total_self),
        "spa.trials": per(c["spa.trials"]),
        "spa.self_s": per(layer_self["spa"]),
        "spa.peak_alloc_mb": mx["spa.peak_alloc_mb"],
        "fpe.grad_calls": per(rec.count("fpe.GmmPotential.grad")),
        "fpe.grad_s": per(rec.stats["fpe.GmmPotential.grad"][2]),
        "fpe.particle_grads_per_s": ratio(c["fpe.particle_grads"],
                                          rec.stats["fpe.GmmPotential.grad"][2]),
        "fpe.stencil_s": per(rec.stats["fpe.fpe_evolve"][2]),
        "fpe.cell_steps_per_s": ratio(c["fpe.cell_steps"], rec.stats["fpe.fpe_evolve"][2]),
        "fpe.bin_s": per(rec.stats["fpe.bin_particles"][2]),
        "fpe.max_clamp_fraction": mx["fpe.max_clamp_fraction"],
        "orders.studies": per(rec.count("orders.deterministic_order")
                              + rec.count("orders.stochastic_order")),
        "orders.self_s": per(layer_self["orders"]),
        "orders.fit_points_used_ratio": ratio(c["orders.fit_points_used"],
                                              c["orders.fit_points"]),
        "symderiv.calls": per(rec.entries["symderiv"]),
        "symderiv.self_s": per(layer_self["symderiv"]),
        "cli.calls": per(rec.count("cli.main")),
        "cli.self_s": per(layer_self["cli"]),
        "cli.bytes_out": boundary_counts.get("cli.bytes_out", 0.0),
        "cli.exit0": boundary_counts.get("cli.exit0", 0.0),
        "cli.exit1": boundary_counts.get("cli.exit1", 0.0),
        "cli.exit2": boundary_counts.get("cli.exit2", 0.0),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in PER_LAYER.items()}
