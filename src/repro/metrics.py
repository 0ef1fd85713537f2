"""Process-wide metrics: counters, gauges, histograms, phase timers.

ExtMCE runs are long, external-memory, parallel and fault-tolerant; the
JSON-lines trace (:mod:`repro.telemetry`) records *events*, but nothing
aggregated where time, I/O and memory actually go.  This module is the
missing layer: a low-overhead metrics registry threaded through the hot
paths — storage (page reads/writes, buffer-pool hits, checksum
failures), the enumeration kernels (subproblem counts and sizes), the
driver (emitted/suppressed cliques, M1/M2/M3 category counts, per-phase
wall time) and the parallel executor (chunk latencies, retries, payload
bytes).

Design constraints, in order:

1. **Near-free when disabled.**  The default registry is
   :data:`NULL_REGISTRY`; every metric it hands out is a shared no-op
   singleton, and :func:`bound` caches the per-module metric bundle so a
   disabled hot path pays one identity check plus one no-op call.  The
   CI smoke benchmark asserts the whole instrumentation layer adds <5%
   to a small enumeration.
2. **Deterministic snapshots.**  A snapshot is a plain JSON-able dict
   whose metric list is sorted by ``(name, labels)``; counter totals are
   pure functions of the work performed, never of scheduling (wall-clock
   quantities live only in histogram *values*, not in series identity).
3. **Worker snapshots travel with results.**  A parallel worker records
   each metered chunk into a fresh registry and returns its snapshot in
   the chunk's result envelope, next to the chunk's trace event; the
   driver folds it in with :meth:`MetricsRegistry.absorb` as it harvests
   the chunk — counters and histograms sum, gauges keep their maximum.
   No worker writes a metrics file, so nothing stale can be read back.

Exposition: :func:`render_prometheus` emits the Prometheus text format
(``# HELP`` / ``# TYPE`` / cumulative ``_bucket`` series), and
:func:`render_metrics_table` a human table (``repro-mce stats``).
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left
from pathlib import Path
from typing import Callable

#: Snapshot schema identifier; bump on incompatible layout changes.
SNAPSHOT_SCHEMA = "repro.metrics/1"

#: Default histogram bounds for set/subproblem sizes (powers of two).
SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: Default histogram bounds for wall-clock durations, in seconds.
TIME_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_TYPES = ("counter", "gauge", "histogram")


# ---------------------------------------------------------------------------
# Live instruments
# ---------------------------------------------------------------------------
class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative by convention)."""
        self.value += amount


class Gauge:
    """A point-in-time level (resident pages, hashtable entries, ...)."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0
        self.high_water = 0

    def set(self, value: int | float) -> None:
        """Replace the level, tracking the high-water mark."""
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: int | float = 1) -> None:
        """Raise the level by ``amount``."""
        self.set(self.value + amount)

    def dec(self, amount: int | float = 1) -> None:
        """Lower the level by ``amount``."""
        self.value -= amount


class Histogram:
    """Fixed-bound bucketed distribution (Prometheus-style ``le`` semantics).

    ``counts[i]`` holds observations ``<= bounds[i]`` exclusive of earlier
    buckets (non-cumulative storage); ``counts[-1]`` is the overflow
    bucket.  Rendering cumulates, matching the exposition format.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: int | float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Average observed value (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class _NullInstrument:
    """Shared no-op stand-in for every instrument type."""

    __slots__ = ()
    value = 0
    high_water = 0
    sum = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: int | float = 1) -> None:  # noqa: ARG002
        pass

    def dec(self, amount: int | float = 1) -> None:  # noqa: ARG002
        pass

    def set(self, value: int | float) -> None:  # noqa: ARG002
        pass

    def observe(self, value: int | float) -> None:  # noqa: ARG002
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullTimer:
    """No-op context manager; never touches the clock."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_TIMER = _NullTimer()


class _Timer:
    """Scoped phase timer: observes elapsed seconds into a histogram."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------
def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Holds every live metric of one process (or one worker)."""

    def __init__(self) -> None:
        # (name, label items) -> instrument
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        # name -> (type, help, bucket bounds or None)
        self._meta: dict[str, tuple[str, str, tuple[float, ...] | None]] = {}
        self._bindings: dict[object, object] = {}

    # -- creation ------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        """Get or create the counter ``name`` (one series per label set)."""
        return self._get(name, "counter", help, labels, None)

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, "gauge", help, labels, None)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = SIZE_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``name`` with fixed ``buckets``."""
        return self._get(name, "histogram", help, labels, tuple(buckets))

    def timer(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> _Timer:
        """A context manager timing a phase into ``name`` (seconds)."""
        return _Timer(self.histogram(name, help, labels, buckets=TIME_BUCKETS))

    def bind(self, factory: Callable[["MetricsRegistry"], object]) -> object:
        """Memoize ``factory(self)`` — one metric bundle per module."""
        bundle = self._bindings.get(factory)
        if bundle is None:
            bundle = factory(self)
            self._bindings[factory] = bundle
        return bundle

    def _get(self, name, kind, help, labels, buckets):
        meta = self._meta.get(name)
        if meta is None:
            self._meta[name] = (kind, help, buckets)
        else:
            if meta[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {meta[0]}, not {kind}"
                )
            if kind == "histogram" and buckets != meta[2]:
                raise ValueError(f"metric {name!r} registered with other buckets")
            if help and not meta[1]:
                self._meta[name] = (kind, help, meta[2])
        key = (name, _label_key(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            if kind == "counter":
                instrument = Counter()
            elif kind == "gauge":
                instrument = Gauge()
            else:
                instrument = Histogram(buckets)
            self._metrics[key] = instrument
        return instrument

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict:
        """A deterministic, JSON-able view of every series."""
        entries = []
        for (name, label_items), instrument in sorted(self._metrics.items()):
            kind, help_text, _ = self._meta[name]
            entry: dict = {
                "name": name,
                "type": kind,
                "help": help_text,
                "labels": dict(label_items),
            }
            if kind == "histogram":
                entry["buckets"] = list(instrument.bounds)
                entry["counts"] = list(instrument.counts)
                entry["sum"] = instrument.sum
                entry["count"] = instrument.count
            elif kind == "gauge":
                entry["value"] = instrument.value
                entry["high_water"] = instrument.high_water
            else:
                entry["value"] = instrument.value
            entries.append(entry)
        return {"schema": SNAPSHOT_SCHEMA, "metrics": entries}

    def absorb(self, snapshot: dict) -> None:
        """Fold a snapshot (e.g. one worker chunk's) into this registry.

        Counters and histograms sum, gauges keep the maximum of the two
        levels.  Unknown series are created on the fly, so absorbing into
        an empty registry reproduces the snapshot exactly.
        """
        for entry in _validated(snapshot)["metrics"]:
            name = entry["name"]
            kind = entry["type"]
            labels = entry.get("labels") or None
            help_text = entry.get("help", "")
            if kind == "counter":
                self.counter(name, help_text, labels).inc(entry["value"])
            elif kind == "gauge":
                gauge = self.gauge(name, help_text, labels)
                if entry["value"] > gauge.value:
                    gauge.set(entry["value"])
                if entry.get("high_water", 0) > gauge.high_water:
                    gauge.high_water = entry["high_water"]
            elif kind == "histogram":
                bounds = tuple(entry["buckets"])
                histogram = self.histogram(name, help_text, labels, buckets=bounds)
                if histogram.bounds != bounds:
                    raise ValueError(f"histogram {name!r} bucket bounds differ")
                for index, count in enumerate(entry["counts"]):
                    histogram.counts[index] += count
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")


class NullRegistry:
    """The disabled registry: every request returns a shared no-op."""

    def counter(self, name, help="", labels=None):  # noqa: ARG002
        """No-op counter."""
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labels=None):  # noqa: ARG002
        """No-op gauge."""
        return _NULL_INSTRUMENT

    def histogram(self, name, help="", labels=None, buckets=SIZE_BUCKETS):  # noqa: ARG002
        """No-op histogram."""
        return _NULL_INSTRUMENT

    def timer(self, name, help="", labels=None):  # noqa: ARG002
        """No-op timer (never reads the clock)."""
        return _NULL_TIMER

    def bind(self, factory):
        """Build the bundle once against the null registry and share it."""
        bundle = self._bindings.get(factory)
        if bundle is None:
            bundle = factory(self)
            self._bindings[factory] = bundle
        return bundle

    def __init__(self) -> None:
        self._bindings: dict[object, object] = {}


#: The process-wide disabled registry (the default active registry).
NULL_REGISTRY = NullRegistry()

_ACTIVE: MetricsRegistry | NullRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The currently active registry (the null registry when disabled)."""
    return _ACTIVE


def set_registry(registry: MetricsRegistry | NullRegistry) -> None:
    """Install ``registry`` as the process-wide active registry."""
    global _ACTIVE
    _ACTIVE = registry


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Switch metrics on; idempotent when already enabled.

    Returns the active live registry (``registry`` if given, the existing
    live one if already enabled, a fresh one otherwise).  Call *before*
    constructing the objects you want metered — instrument bundles bound
    while disabled re-resolve automatically, so ordering only matters for
    code that captures instruments directly.
    """
    global _ACTIVE
    if registry is not None:
        _ACTIVE = registry
    elif not enabled():
        _ACTIVE = MetricsRegistry()
    return _ACTIVE  # type: ignore[return-value]


def disable() -> None:
    """Switch metrics off (reinstall the null registry)."""
    set_registry(NULL_REGISTRY)


def enabled() -> bool:
    """Whether a live registry is active."""
    return isinstance(_ACTIVE, MetricsRegistry)


def bound(factory: Callable[[MetricsRegistry | NullRegistry], object]):
    """A zero-argument accessor for a module's metric bundle.

    ``factory(registry)`` builds the bundle (any object holding
    instruments); the returned closure re-invokes it only when the active
    registry changes identity, so steady-state cost is one ``is`` check.
    This is what keeps the disabled path near-free *and* lets
    :func:`enable` take effect at any moment — no construction-order
    coupling between instrumented objects and the registry.
    """
    cached_registry: object | None = None
    cached_bundle: object | None = None

    def accessor():
        nonlocal cached_registry, cached_bundle
        registry = _ACTIVE
        if registry is not cached_registry:
            cached_bundle = registry.bind(factory)
            cached_registry = registry
        return cached_bundle

    return accessor


# ---------------------------------------------------------------------------
# Snapshot plumbing
# ---------------------------------------------------------------------------
def _validated(snapshot: dict) -> dict:
    schema = snapshot.get("schema") if isinstance(snapshot, dict) else None
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(f"not a metrics snapshot (schema={schema!r})")
    return snapshot


def is_snapshot(payload: object) -> bool:
    """Whether ``payload`` looks like a metrics snapshot dict."""
    return isinstance(payload, dict) and payload.get("schema") == SNAPSHOT_SCHEMA


def load_snapshot(path: str | Path) -> dict:
    """Read and validate a snapshot JSON file."""
    return _validated(json.loads(Path(path).read_text(encoding="ascii")))


def dump_snapshot(snapshot: dict, path: str | Path) -> None:
    """Atomically write a snapshot as JSON (write-temp-then-rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(snapshot, sort_keys=True), encoding="ascii")
    os.replace(tmp, path)


def write_exposition_files(snapshot: dict, path: str | Path) -> tuple[Path, Path]:
    """Write ``path`` (JSON snapshot) and ``path + '.prom'`` (Prometheus).

    This is what ``repro-mce enumerate --metrics-out PATH`` produces;
    returns the two paths written.
    """
    path = Path(path)
    dump_snapshot(snapshot, path)
    prom = path.with_name(path.name + ".prom")
    prom.write_text(render_prometheus(snapshot), encoding="ascii")
    return path, prom


def metric_names(snapshot: dict) -> set[str]:
    """The distinct metric names in a snapshot (schema checks)."""
    return {entry["name"] for entry in _validated(snapshot)["metrics"]}


def counter_value(
    snapshot: dict, name: str, labels: dict[str, str] | None = None
) -> int | float:
    """Sum of a counter's series across all label sets that include
    ``labels`` (every series when ``None``; 0 when absent)."""
    wanted = (labels or {}).items()
    return sum(
        entry["value"]
        for entry in _validated(snapshot)["metrics"]
        if entry["name"] == name
        and entry["type"] == "counter"
        and wanted <= entry["labels"].items()
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: int | float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _series(name: str, labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    items = {**labels, **(extra or {})}
    if not items:
        return name
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in sorted(items.items()))
    return f"{name}{{{body}}}"


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    announced: set[str] = set()
    for entry in _validated(snapshot)["metrics"]:
        name, kind, labels = entry["name"], entry["type"], entry.get("labels", {})
        if name not in announced:
            announced.add(name)
            if entry.get("help"):
                lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
            lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            cumulative = 0
            for bound_value, count in zip(entry["buckets"], entry["counts"]):
                cumulative += count
                lines.append(
                    f"{_series(name + '_bucket', labels, {'le': _format_value(float(bound_value))})}"
                    f" {cumulative}"
                )
            lines.append(
                f"{_series(name + '_bucket', labels, {'le': '+Inf'})} {entry['count']}"
            )
            lines.append(f"{_series(name + '_sum', labels)} {_format_value(entry['sum'])}")
            lines.append(f"{_series(name + '_count', labels)} {entry['count']}")
        else:
            lines.append(f"{_series(name, labels)} {_format_value(entry['value'])}")
    return "\n".join(lines) + "\n"


def render_metrics_table(snapshot: dict) -> str:
    """Render a snapshot as the human table behind ``repro-mce stats``."""
    from repro.analysis.tables import render_table

    rows = []
    for entry in _validated(snapshot)["metrics"]:
        series = _series(entry["name"], entry.get("labels", {}))
        if entry["type"] == "histogram":
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            rows.append(
                (series, "histogram",
                 f"count={entry['count']} sum={entry['sum']:.6g} mean={mean:.6g}")
            )
        elif entry["type"] == "gauge":
            rows.append(
                (series, "gauge",
                 f"{_format_value(entry['value'])} (high water "
                 f"{_format_value(entry.get('high_water', entry['value']))})")
            )
        else:
            rows.append((series, "counter", _format_value(entry["value"])))
    return render_table("Metrics snapshot", ["metric", "type", "value"], rows)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SIZE_BUCKETS",
    "SNAPSHOT_SCHEMA",
    "TIME_BUCKETS",
    "bound",
    "counter_value",
    "disable",
    "dump_snapshot",
    "enable",
    "enabled",
    "get_registry",
    "is_snapshot",
    "load_snapshot",
    "metric_names",
    "render_metrics_table",
    "render_prometheus",
    "set_registry",
    "write_exposition_files",
]
