"""Benchmark-side tracing: spans around the program's public entry points.

The program itself is never edited.  :func:`instrument` replaces each
entry point listed in :data:`TARGETS` *at the module or class attribute
its caller looks up* with a wrapper that records one :class:`Span`
(name, layer, start, end, parent) per call, and returns a function that
puts every original back.  Spans stay in memory until the run ends.

A layer's self time is the time its spans cover minus the part their
child spans cover.  Spans nest per thread: a span's parent is the span
open on the same thread when it started.

Worker processes forked by the parallel engine inherit the wrappers; the
tracer switches itself off in a forked child, so workers run the
original code paths and their time is read from the engine's own
``repro_parallel_chunk_seconds`` histogram instead.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps

#: The program's layers, named after its top-level modules.
LAYERS = (
    "storage", "reduce", "core", "kernel", "parallel",
    "index", "service", "live", "dynamic",
)

#: ``(owner, attribute, span name, layer, materialize)``.  ``owner`` is a
#: module path or ``module:Class``.  ``materialize`` marks generator
#: functions whose work happens before their first item (the kernels
#: collect every clique first): the wrapper drains them inside the span.
TARGETS = (
    ("repro.storage.convert", "edge_list_to_disk_graph", "storage.convert", "storage", False),
    ("repro.storage.partitions:HnbPartitionStore", "build", "storage.partition_build", "storage", False),
    ("repro.storage.partitions:HnbPartitionStore", "induced_subgraph", "storage.partition_read", "storage", False),
    ("repro.storage.diskgraph:DiskGraph", "rewrite_without", "storage.residual_rewrite", "storage", False),
    ("repro.storage.diskgraph:DiskGraph", "to_adjacency_graph", "storage.load", "storage", False),
    ("repro.storage.diskgraph:DiskGraph", "create", "storage.create", "storage", False),
    ("repro.reduce", "reduce_graph", "reduce.reduce_graph", "reduce", False),
    ("repro.core.extmce", "extract_hstar_graph", "core.hstar", "core", False),
    ("repro.core.extmce", "extract_lstar_graph", "core.lstar", "core", False),
    ("repro.core.extmce", "estimate_tree_size", "core.estimate", "core", False),
    ("repro.core.extmce", "shrink_core_to_budget", "core.estimate", "core", False),
    ("repro.core.extmce", "build_clique_tree", "core.tree_build", "core", False),
    ("repro.parallel.driver", "assemble_clique_tree", "core.tree_build", "core", False),
    ("repro.core.extmce", "compute_core_plus_max_cliques", "core.lift", "core", False),
    ("repro.parallel.driver", "compute_core_plus_max_cliques", "core.lift", "core", False),
    ("repro.kernel.compact:CompactGraph", "from_adjacency", "kernel.pack", "kernel", False),
    ("repro.kernel", "maximal_cliques_bitset", "kernel.bitset", "kernel", True),
    ("repro.kernel", "subproblem_bitset", "kernel.bitset", "kernel", True),
    ("repro.parallel.scheduler:ParallelEngine", "__init__", "parallel.pool_start", "parallel", False),
    ("repro.parallel.scheduler:ParallelEngine", "close", "parallel.pool_stop", "parallel", False),
    ("repro.parallel.scheduler:ParallelEngine", "publish_star", "parallel.publish", "parallel", False),
    ("repro.parallel.executor:StepExecutor", "map_tree", "parallel.map", "parallel", False),
    ("repro.parallel.executor:StepExecutor", "map_lift", "parallel.map", "parallel", False),
    ("repro.parallel.driver", "merge_tree_results", "parallel.merge", "parallel", False),
    ("repro.parallel.driver", "merge_lift_results", "parallel.merge", "parallel", False),
    ("repro.index.reader:CliqueIndex", "postings", "index.postings", "index", False),
    ("repro.index.reader:CliqueIndex", "clique", "index.record", "index", False),
    ("repro.index.reader:CliqueIndex", "top_k_largest", "index.top_k", "index", False),
    ("repro.live.store", "build_index", "index.build", "index", False),
    ("repro.service.server:CliqueQueryServer", "engine_respond", "service.respond", "service", False),
    ("repro.service.engine:CliqueQueryEngine", "query", "service.query", "service", False),
    ("repro.live.store:LiveCliqueStore", "apply_deltas", "live.apply", "live", False),
    ("repro.live.store:LiveCliqueStore", "compact", "live.compact", "live", False),
    ("repro.live.wal:DeltaLogWriter", "append", "live.wal_append", "live", False),
    ("repro.live.ingest", "insert_edge_deltas", "live.delta", "live", False),
    ("repro.live.ingest", "delete_edge_deltas", "live.delta", "live", False),
    ("repro.dynamic.maintainer:HStarMaintainer", "insert_edge", "dynamic.insert_edge", "dynamic", False),
    ("repro.dynamic.maintainer:HStarMaintainer", "delete_edge", "dynamic.delete_edge", "dynamic", False),
)


@dataclass(slots=True)
class Span:
    """One timed call: ids are unique per tracer, ``parent`` 0 at a root."""

    id: int
    parent: int
    name: str
    layer: str
    thread: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Forked workers must not record into a copy nobody reads.
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _disable(ref))

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str) -> "_Scope":
        """A context manager recording one span on the calling thread."""
        return _Scope(self, name, layer)

    def dump(self, path) -> None:
        """Write every span as one JSON line (start/end relative to the first)."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "layer": span.layer, "thread": span.thread,
                    "start": round(span.start - origin, 9),
                    "end": round(span.end - origin, 9),
                }) + "\n")


def _disable(ref) -> None:
    tracer = ref()
    if tracer is not None:
        tracer.active = False


class _Scope:
    __slots__ = ("_tracer", "_name", "_layer", "_span")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer
        self._span: Span | None = None

    def __enter__(self) -> "_Scope":
        tracer = self._tracer
        if tracer.active:
            stack = tracer._stack()
            span = Span(
                next(tracer._ids), stack[-1].id if stack else 0, self._name,
                self._layer, threading.get_ident(), time.perf_counter(),
            )
            stack.append(span)
            self._span = span
        return self

    def __exit__(self, *exc_info: object) -> None:
        span = self._span
        if span is not None:
            span.end = time.perf_counter()
            self._tracer._stack().pop()
            self._tracer.spans.append(span)


def _wrap(tracer: Tracer, function, name: str, layer: str, materialize: bool):
    if materialize:
        @wraps(function)
        def drained(*args, **kwargs):
            with tracer.span(name, layer):
                items = list(function(*args, **kwargs))
            return iter(items)
        return drained

    @wraps(function)
    def timed(*args, **kwargs):
        with tracer.span(name, layer):
            return function(*args, **kwargs)
    return timed


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def instrument(tracer: Tracer):
    """Install a wrapper at every :data:`TARGETS` entry; returns the undo."""
    installed = []
    for owner_path, attribute, name, layer, materialize in TARGETS:
        owner = _owner(owner_path)
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        if isinstance(original, classmethod):
            replacement = classmethod(
                _wrap(tracer, original.__func__, name, layer, materialize)
            )
        else:
            replacement = _wrap(tracer, original, name, layer, materialize)
        setattr(owner, attribute, replacement)
        installed.append((owner, attribute, original))

    def restore() -> None:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)

    return restore


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            covered[span.parent] += span.seconds
    return {span.id: span.seconds - covered[span.id] for span in spans}


def layer_self_seconds(spans: list[Span], within: Span | None = None) -> dict[str, float]:
    """Self seconds per layer, optionally only for descendants of ``within``."""
    chosen = spans if within is None else descendants(spans, within)
    own = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in chosen:
        totals[span.layer] += own[span.id]
    return dict(totals)


def descendants(spans: list[Span], root: Span) -> list[Span]:
    """Every span below ``root`` (same thread, by parent links)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    found: list[Span] = []
    pending = list(children[root.id])
    while pending:
        span = pending.pop()
        found.append(span)
        pending.extend(children[span.id])
    return found


def inclusive_seconds(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, counting only the outermost of nested repeats."""
    by_id = {span.id: span for span in spans}
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            totals[span.name] += span.seconds
    return dict(totals)
