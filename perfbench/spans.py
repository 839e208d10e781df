"""Span tracing for the traced run, from outside the program.

The benchmark never edits ``src/repro``: :func:`install` replaces the
public entry points of each layer with thin wrappers that record a span
(name, start, end, parent, run id) around the original call, and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory
and are written once, as JSON lines, when a process is done with them; a
forked shard child writes its own file.

A layer's self time is the total duration of its spans minus the part of
each span that its same-process child spans cover.  Per-layer metrics are
totalled over the spans of work the workload seed fixes (set-up and the
first pass, round or block, by run id), so they measure the cost of a
fixed amount of work, not how much work fitted into the run's time.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (module path, attribute, layer) for module-level functions.  A function
#: imported by name into another module is wrapped there too, so callers
#: that bound the name at import time are traced as well.
FUNCTIONS = (
    ("repro.workloads.registry", "compile_source", "frontend.compile"),
    ("repro.frontend.driver", "parse_source", "frontend.parse"),
    ("repro.frontend.driver", "analyze", "frontend.sema"),
    ("repro.frontend.driver", "generate_module", "frontend.codegen"),
    ("repro.frontend.driver", "verify_module", "ir.verify"),
    ("repro.frontend.driver", "optimize", "passes.optimize"),
    ("repro.core.campaign", "run_campaigns", "core.campaign"),
    ("repro.service.workers", "run_campaigns", "core.campaign"),
    ("repro.core.campaign", "run_batch", "core.campaign"),
    ("repro.core.cluster", "run_sharded", "cluster.run_sharded"),
    ("repro.store.merge", "merge_shards", "store.merge"),
    ("repro.store.verify", "verify_store", "store.verify"),
    ("repro.analysis.report", "rebuild_report", "report.rebuild"),
)


def _sites(args, kwargs, result):
    return len(args[0].sites)


def _golden_insns(args, kwargs, result):
    return result.dynamic_instructions


def _faulty_insns(args, kwargs, result):
    return result.faulty_dynamic_instructions


#: (module path, class, method, layer, value) for methods; ``value``
#: extracts a number the span carries (sites built, instructions run).
METHODS = (
    ("repro.core.injector", "FaultInjector", "__init__", "core.injector_build", _sites),
    ("repro.core.injector", "FaultInjector", "warm", "vm.warm", None),
    ("repro.core.injector", "FaultInjector", "golden", "core.golden", _golden_insns),
    ("repro.core.injector", "FaultInjector", "faulty", "core.faulty", _faulty_insns),
    ("repro.store.store", "CampaignStore", "record_experiment", "store.record", None),
    ("repro.store.store", "CampaignStore", "flush", "store.flush", None),
)


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        #: Tags every span begun from now on: the pass, round or
        #: submission the work belongs to.
        self.run_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        span = {
            "id": span_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "run": self.run_id,
            "pid": os.getpid(),
            "n": None,
        }
        stack.append(span_id)
        return span

    def end(self, span: dict, value=None) -> None:
        span["end"] = time.perf_counter()
        span["n"] = value
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float, run: str) -> None:
        """A span measured elsewhere (e.g. between two SSE events)."""
        span = self.begin(name)
        self._stack().pop()
        span.update(start=start, end=end, run=run)
        with self._lock:
            self.spans.append(span)

    # -- patching --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, value=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                raise
            tracer.end(span, value(args, kwargs, result) if value else None)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path, since: int = 0) -> None:
        """Write spans ``since`` onwards as JSON lines (one write at exit)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans[since:]:
                f.write(json.dumps(span, sort_keys=True) + "\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point in :data:`FUNCTIONS` and :data:`METHODS`.

    A tracer that is already installed stays as it is, so a workload can
    switch tracing on and off between blocks with :func:`install` and
    :meth:`Tracer.uninstall`.
    """
    import importlib

    if tracer._patches:
        return tracer
    # Import everything first: a module imported mid-way would bind an
    # already wrapped function under its own name and be wrapped twice.
    modules = {
        path: importlib.import_module(path)
        for path, *_ in (*FUNCTIONS, *METHODS)
    }
    for module_path, attr, name in FUNCTIONS:
        tracer.wrap(modules[module_path], attr, name)
    for module_path, cls, method, name, value in METHODS:
        tracer.wrap(getattr(modules[module_path], cls), method, name, value)
    return tracer


def load(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per layer: span count, self seconds, and the sum of span values.

    Self time subtracts the union of each span's same-process children, so
    a shard child running beside its parent never eats the parent's time.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(span)
    totals: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "self_s": 0.0, "value": 0}
    )
    for span in spans:
        covered, cursor = 0.0, span["start"]
        kids = sorted(
            children.get((span["pid"], span["id"]), ()), key=lambda s: s["start"]
        )
        for kid in kids:
            lo, hi = max(kid["start"], cursor), min(kid["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = totals[span["name"]]
        entry["count"] += 1
        entry["self_s"] += (span["end"] - span["start"]) - covered
        if span["n"] is not None:
            entry["value"] += span["n"]
    return dict(totals)
