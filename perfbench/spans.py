"""In-memory span recorder and run-time wrappers for the traced benchmark run.

A span is one call of a wrapped function: name, start, end, parent span and
thread id.  Self time is a span's duration minus the part of it covered by its
children.  Children on the span's own thread run one after another, so their
durations add; children started on pool threads while the client thread waits
may overlap each other, so their intervals are merged before subtracting.

Only the standard library is used.  Wrappers replace module and class
attributes at run time and are removed again by ``uninstall``; no source file
is touched.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import tracemalloc
import types
from collections import defaultdict

KEEP_SPANS = 20_000  # spans kept for writing out; aggregates cover them all


def merged_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Frame:
    """An open span."""

    __slots__ = ("id", "name", "tid", "start", "end", "parent",
                 "child_sum", "cross", "mem_base", "mem_peak")

    def __init__(self, span_id, name, tid, start, parent):
        self.id = span_id
        self.name = name
        self.tid = tid
        self.start = start
        self.end = None
        self.parent = parent
        self.child_sum = 0.0  # durations of same-thread children
        self.cross = None  # (start, end) of children on other threads
        self.mem_base = None
        self.mem_peak = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def child_busy(self) -> float:
        """Summed busy time of all direct children, on any thread."""
        cross = sum(e - s for s, e in self.cross) if self.cross else 0.0
        return self.child_sum + cross

    @property
    def self_time(self) -> float:
        covered = self.child_sum
        if self.cross:
            covered += merged_length(self.cross)
        return max(0.0, self.duration - covered)


class SpanRecorder:
    """Collects spans; aggregates per-name count, total and self time.

    ``client`` is the thread that drives the workload.  A span opened on any
    other thread with nothing open there is parented to the client's innermost
    open span: with one client, that is the call that started the pool.
    Spans named in ``memory_spans`` also record the peak of memory allocated
    while they are open, from ``tracemalloc``, which runs only while such a
    span is open so that it slows nothing else.  The counter is process-wide,
    so allocations by concurrent threads count too.
    """

    def __init__(self, clock=time.perf_counter, client=None, memory_spans=()):
        self.clock = clock
        self.client = threading.get_ident() if client is None else client
        self.memory_spans = frozenset(memory_spans)
        self.hooks = {}  # name -> fn(recorder, frame, args, kwargs, result)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.entries = defaultdict(int)  # calls entering a layer from outside
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.spans = []  # (id, parent_id, name, tid, start, end), first KEEP_SPANS
        self.dropped = 0
        self._stacks = {}
        self._open_mem = []
        self._lock = threading.Lock()
        self._next_id = 0

    # --- span lifecycle -------------------------------------------------
    def begin(self, name: str, tid=None) -> Frame:
        tid = threading.get_ident() if tid is None else tid
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        elif tid != self.client and self._stacks.get(self.client):
            parent = self._stacks[self.client][-1]
        else:
            parent = None
        with self._lock:
            self._next_id += 1
            frame = Frame(self._next_id, name, tid, None, parent)
            if name in self.memory_spans:
                if not self._open_mem:
                    tracemalloc.start()
                self._fold_memory_peak()
                frame.mem_base = tracemalloc.get_traced_memory()[0]
                self._open_mem.append(frame)
        stack.append(frame)
        frame.start = self.clock()
        return frame

    def end(self, frame: Frame) -> None:
        frame.end = self.clock()
        self._stacks[frame.tid].pop()  # wrappers close spans in LIFO order
        parent = frame.parent
        with self._lock:
            if parent is not None:
                if parent.tid == frame.tid:
                    parent.child_sum += frame.duration
                else:
                    if parent.cross is None:
                        parent.cross = []
                    parent.cross.append((frame.start, frame.end))
            if frame.mem_base is not None:
                self._fold_memory_peak()
                self._open_mem.remove(frame)
                if not self._open_mem:
                    tracemalloc.stop()
                peak_mb = (frame.mem_peak - frame.mem_base) / 2**20
                key = f"{frame.layer}.peak_alloc_mb"
                self.maxima[key] = max(self.maxima[key], peak_mb)
            st = self.stats[frame.name]
            st[0] += 1
            st[1] += frame.duration
            st[2] += frame.self_time
            if parent is None or parent.layer != frame.layer:
                self.entries[frame.layer] += 1
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((frame.id, parent.id if parent else None,
                                   frame.name, frame.tid, frame.start, frame.end))
            else:
                self.dropped += 1

    def _fold_memory_peak(self) -> None:
        """Fold the peak since the last reset into every open memory span.

        Every memory span resets the peak when it opens, so each open memory
        span has been open since the last reset and the fold is exact.
        """
        peak = tracemalloc.get_traced_memory()[1]
        for f in self._open_mem:
            if peak > f.mem_peak:
                f.mem_peak = peak
        tracemalloc.reset_peak()

    # --- aggregation helpers ---------------------------------------------
    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def observe_max(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    def self_time(self, prefix: str) -> float:
        """Summed self time of spans whose name starts with ``prefix``."""
        return sum(st[2] for name, st in self.stats.items() if name.startswith(prefix))

    def count(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, pid, name, tid, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": pid, "name": name,
                                    "tid": tid, "start": start, "end": end}) + "\n")

    # --- wrapping ------------------------------------------------------------
    def wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(frame)
                if hook is not None:
                    hook(self, frame, args, kwargs, result)

        wrapper.__wrapped_span__ = name
        return wrapper


def _targets(module, prefix: str, private):
    """(owner, attribute, span name, function) for the module's own code."""
    for attr, obj in list(vars(module).items()):
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            if not attr.startswith("_") or attr in private:
                yield module, attr, f"{prefix}.{attr}", obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for mname, member in list(vars(obj).items()):
                if isinstance(member, types.FunctionType) and not mname.startswith("_"):
                    yield obj, mname, f"{prefix}.{obj.__name__}.{mname}", member


def install(recorder: SpanRecorder, modules: dict, alias_modules=(), private=()):
    """Wrap every public function and method of ``modules`` ({layer: module}),
    and the module-level functions named in ``private``.

    Names imported into other modules (``samplers.eval_schedule``,
    ``spa._log_posterior``, ``cli.sample`` ...) are replaced by the same
    wrapper, so a call is recorded whichever module it goes through.
    Returns a function that restores every replaced attribute.
    """
    saved = []
    wrappers = {}
    for layer, module in modules.items():
        for owner, attr, name, fn in _targets(module, layer, private):
            wrapper = recorder.wrap(name, fn)
            wrappers[id(fn)] = wrapper
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
    for module in list(modules.values()) + list(alias_modules):
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    return uninstall
