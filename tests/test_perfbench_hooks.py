"""The benchmark's per-layer hooks name difftaylor functions that it wraps.

``perfbench/layers.py`` counts work through hooks keyed by span name.  A hook
whose function was renamed or removed is never called, and its metrics read 0
without an error, so this test resolves every hooked name here.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The positional arguments the hooks in layers.py read, by index (``self``
# counts for a method).
HOOKED_ARGS = {
    "rng.counter_bits": {},
    "score.ScoreField.score": {1: "x"},
    "score.score_mixture_exact": {0: "x"},
    "score.score_delta": {0: "x"},
    "score.score_gaussian": {0: "x"},
    "score.posterior_weights": {0: "x"},
    "score._log_posterior": {0: "x", 2: "data"},
    "samplers._sample_chunk": {2: "steps", 5: "traj"},
    "samplers._run_chunks": {5: "batch", 10: "workers"},
    "fpe.GmmPotential.grad": {1: "xy"},
    "fpe.fpe_evolve": {1: "grid", 3: "n_steps"},
    "spa.spa_sweep": {1: "nu_grid", 2: "trials"},
    "orders.fit_order": {2: "h_list"},
}


@pytest.fixture(scope="module")
def perfbench():
    """(layers, spans) loaded from their files; layers imports spans by name."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                      PERFBENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        yield layers, importlib.import_module("spans")


def _resolve(name: str):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"difftaylor.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_hooked_name_is_a_wrapped_function(perfbench):
    layers, spans = perfbench
    wrapped = {name for layer, module in layers.modules().items()
               for _, _, name, _ in spans._targets(module, layer, layers.PRIVATE_WRAPPED)}
    hooked = set(layers.HOOKS) | set(layers.MEMORY_SPANS)
    assert hooked <= wrapped, sorted(hooked - wrapped)
    for private in layers.PRIVATE_WRAPPED:
        assert any(name.endswith(f".{private}") for name in wrapped), private
    assert set(layers.HOOKS) == set(HOOKED_ARGS)


@pytest.mark.parametrize("name", sorted(HOOKED_ARGS))
def test_hooked_arguments_keep_their_positions(name):
    fn = _resolve(name)
    assert inspect.isfunction(fn)
    params = list(inspect.signature(fn).parameters)
    assert {i: params[i] for i in HOOKED_ARGS[name]} == HOOKED_ARGS[name]
