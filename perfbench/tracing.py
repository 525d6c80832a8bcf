"""Spans and counters recorded from outside the program, by wrapping its
public calls at their definitions.

Methods are replaced on their class, so calls made from inside the
program are seen too.  Module-level functions are replaced in every
loaded ``repro`` module that holds them, so names bound by
``from x import f`` are covered as well.  Spans are kept in memory as
``(id, name, start, end, parent)`` tuples and written out by the caller.

Only the process that installed the wrappers records: forked pool
workers inherit the wrappers but call straight through, because spans
inside workers are out of scope for this benchmark.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

#: (layer metric, module, class or None, attribute names).  A metric's
#: value is the summed self time of its spans.  ``resolve`` is counted,
#: never spanned: it runs ~100k times per cold validate.
SPANNED = (
    ("scenarios.grid_cells", "repro.scenarios.grid", "DesignGrid", ("cells",)),
    ("core.plan_build", "repro.core.stacked", "StackedModel", ("from_specs", "__init__")),
    (
        "core.stacked_solve",
        "repro.core.stacked",
        "StackedModel",
        (
            "saturation_load",
            "saturation_loads",
            "binding_resources",
            "zero_load_latencies",
            "knee_loads",
            "loads_at_budget",
            "evaluate_latencies",
            "auto_load_grids",
        ),
    ),
    (
        "core.batched",
        "repro.core.batch",
        "BatchedModel",
        (
            "__init__",
            "from_model",
            "evaluate_many",
            "evaluate",
            "zero_load_latency",
            "resource_utilizations",
            "saturation_loads",
            "saturation_load",
            "binding_resource",
        ),
    ),
    ("core.scalar_eval", "repro.core.model", "AnalyticalModel", ("evaluate",)),
    ("simulation.session_build", "repro.simulation.runner", "SimulationSession", ("__init__",)),
    ("simulation.run", "repro.simulation.runner", "SimulationSession", ("run",)),
    ("io.cache_key", "repro.experiments.explore", None, ("cell_cache_key",)),
    ("io.cache_key", "repro.io.cache", None, ("content_key",)),
    ("io.cache_get", "repro.io.cache", "ResultCache", ("get_many", "get")),
    ("io.cache_put", "repro.io.cache", "ResultCache", ("put",)),
    ("exec.journal", "repro.exec.journal", "RunJournal", ("record",)),
    ("exec.supervised", "repro.exec.supervisor", None, ("run_supervised",)),
    ("experiments.self", "repro.experiments.explore", None, ("explore_grid",)),
    ("experiments.self", "repro.experiments.calibrate", None, ("calibrate_options",)),
    ("experiments.self", "repro.experiments.experiment", "Experiment", ("validate",)),
    ("validation.self", "repro.validation.compare", None, ("run_validation",)),
)

#: Layers in report order; a span's layer is its name up to the first dot.
LAYERS = ("import", "scenarios", "core", "simulation", "io", "exec", "experiments", "validation")


class Recorder:
    """In-memory span list and counters of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._open: dict[int, tuple] = {}
        self.recording = True

    def active(self) -> bool:
        return self.recording and os.getpid() == self.pid

    def open(self, name: str) -> int:
        sid = len(self.spans) + len(self._open)
        parent = self._stack[-1] if self._stack else None
        self._open[sid] = (name, time.perf_counter(), parent)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter()
        name, start, parent = self._open.pop(sid)
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec, self.name, self.sid = rec, name, None

    def __enter__(self):
        if self.rec.active():
            self.sid = self.rec.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.sid is not None:
            self.rec.close(self.sid)


def _wrap(func, name, rec: Recorder, after=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not rec.active():
            return func(*args, **kwargs)
        sid = rec.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            rec.close(sid)
        if after is not None:
            after(rec, result, args)
        return result

    return wrapper


def _observe(func, rec: Recorder, after):
    """Call *after* on each result without recording a span."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        if rec.active():
            after(rec, result, args)
        return result

    return wrapper


# -- counters taken from results -------------------------------------------------


def _after_resolve(rec, result, args):
    rec.counters["simulation.resolve_calls"] += 1


def _after_run(rec, result, args):
    rec.counters["simulation.events"] += int(result.events)


def _after_get_many(rec, result, args):
    hits = sum(1 for entry in result if entry is not None)
    rec.counters["io.cache_hits"] += hits
    rec.counters["io.cache_misses"] += len(result) - hits


def _after_get(rec, result, args):
    rec.counters["io.cache_hits" if result is not None else "io.cache_misses"] += 1


def _after_put(rec, result, args):
    rec.counters["io.cache_bytes_written"] += os.stat(result).st_size


def _after_supervised(rec, result, args):
    rec.counters["exec.items"] += len(result)
    rec.counters["exec.attempts"] += sum(int(o.attempts) for o in result)
    rec.counters["exec.failed_items"] += sum(1 for o in result if not o.ok)


def _after_stack(rec, result, args):
    stack = args[0]  # wraps __init__: the stack is self
    rec.counters["core.cells"] += int(stack.cells)
    rec.counters["core.groups"] += len(stack.plan.groups)


_AFTER = {
    ("SimulationSession", "run"): _after_run,
    ("ResultCache", "get_many"): _after_get_many,
    ("ResultCache", "get"): _after_get,
    ("ResultCache", "put"): _after_put,
    (None, "run_supervised"): _after_supervised,
    ("StackedModel", "__init__"): _after_stack,
}


def _replace_function(original, wrapper) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every call in :data:`SPANNED` (and count ``resolve``) for *rec*."""
    import importlib

    for metric, module_name, class_name, attrs in SPANNED:
        module = importlib.import_module(module_name)
        for attr in attrs:
            after = _AFTER.get((class_name, attr))
            if class_name is None:
                original = getattr(module, attr)
                _replace_function(original, _wrap(original, metric, rec, after))
                continue
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_wrap(raw.__func__, metric, rec, after)))
            else:
                setattr(cls, attr, _wrap(raw, metric, rec, after))
    fabric = importlib.import_module("repro.simulation.fabric").ResolvedFabric
    fabric.resolve = _observe(fabric.__dict__["resolve"], rec, _after_resolve)


def watch_supervisor(rec: Recorder) -> None:
    """Count ``run_supervised`` items and attempts without recording spans.

    Untraced runs install only this, so a supervisor that retried (more
    attempts than items) fails the run instead of being timed.
    """
    import repro.exec.supervisor as supervisor

    original = supervisor.run_supervised
    _replace_function(original, _observe(original, rec, _after_supervised))


def supervisor_failures(counters) -> "list[str]":
    items, attempts = counters.get("exec.items", 0), counters.get("exec.attempts", 0)
    out = []
    if attempts > items:
        out.append(f"supervisor made {attempts} attempts for {items} items")
    if counters.get("exec.failed_items", 0):
        out.append(f"{counters['exec.failed_items']} supervised items failed")
    return out


# -- analysis ------------------------------------------------------------------


def self_times(spans: list) -> dict:
    """Per span id: duration minus the durations of its direct children."""
    out = {sid: end - start for sid, _, start, end, _ in spans}
    for sid, _, start, end, parent in spans:
        if parent is not None and parent in out:
            out[parent] -= end - start
    return out


def summarize(spans: list, roots: "dict[str, str]") -> dict:
    """Self time per span name, per root phase and in total.

    *roots* maps a root span name (a timed benchmark call) to its phase
    label.  Returns ``{"total": {name: s}, "phases": {phase: {name: s}}}``.
    """
    selfs = self_times(spans)
    parent_of = {sid: parent for sid, _, _, _, parent in spans}
    name_of = {sid: name for sid, name, _, _, _ in spans}

    def root_of(sid):
        while parent_of.get(sid) is not None:
            sid = parent_of[sid]
        return sid

    total: dict = defaultdict(float)
    phases: dict = defaultdict(lambda: defaultdict(float))
    for sid, name, *_ in spans:
        phase = roots.get(name_of[root_of(sid)], "other")
        total[name] += selfs[sid]
        phases[phase][name] += selfs[sid]
    return {"total": dict(total), "phases": {p: dict(v) for p, v in phases.items()}}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
