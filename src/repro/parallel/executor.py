"""Step execution on the persistent pool: descriptors, harvest, recovery.

One :class:`StepExecutor` lives for one recursion step, but the pool it
uses belongs to the run-scoped
:class:`~repro.parallel.scheduler.ParallelEngine` — workers stay warm
across steps and receive the step's graph as a tiny *descriptor* (a
shared-memory segment name + generation, or a pickled in-band payload
when shm is unavailable) that they resolve through a per-process
attachment cache.

Chunks are submitted eagerly, each runs to completion on the worker
that took it, and they are harvested as they complete (not in
submission order — the merge orders by task index, so completion order
is free).  The chunk count the driver's cost model picks is the only
load balancing.  Harvest is callback-driven: each ``apply_async``
callback and error callback queues its submission's ticket and sets an
event, and the driver sleeps on that event with a timeout running to
the nearest chunk deadline — no idle polling, and a finished chunk is
harvested as soon as its result arrives.  Results travel back through
the pool's result pipe, pickled once, whatever their size.

Recovery semantics are unchanged from the per-step-pool era — the unit
of loss is one chunk, never the step:

* a chunk that errors (worker raised, payload unpicklable, shm attach
  failed) is retried up to ``max_retries`` times, then recomputed inline;
* a chunk that times out marks the pool broken — ``multiprocessing.Pool``
  never reports an abruptly dead worker, so the per-chunk deadline *is*
  the death detector — the engine's pool is rebuilt (bounded) and only
  unfinished chunks are resubmitted;
* when the pool cannot be (re)created, or never was, the executor
  degrades to in-process execution for everything still pending
  (``fell_back``).

Tasks are pure functions of (graph, task), so recomputation is safe and
every recovery path yields results identical by construction.  Each
retry, timeout, error, rebuild, inline fallback and degradation is
recorded once, by :meth:`StepExecutor._emit`: it increments the event's
``repro_parallel_*`` series and forwards the event through the
``on_event`` hook into the run's trace.

An optional :class:`~repro.faults.FaultPlan` injects faults at
submission time (operations ``"chunk"`` and ``"shm"``): the driver wraps
the submitted task with a directive the worker executes on arrival —
kill yourself, raise, stall, fail the attach, validate a stale
generation — so worker processes never hold the plan itself.  Inline
recomputation always runs the *raw* chunk: injection exercises the pool
path, and degradation must converge to the correct answer.

Workers never share file handles with the driver: each worker process
opens its own spill files (read-only, parsed into a per-step LRU no
larger than the driver store's ``max_resident``, so a file is read once
per worker per step).

Telemetry travels on the one channel results already use: the chunk
envelope.  When the submission asks for metrics, a pooled chunk records
into a fresh registry whose snapshot rides back next to its results;
every envelope also carries the worker's label and the fields of its
``tree_chunk_completed``/``lift_chunk_completed`` event.  The driver
absorbs the snapshot and emits the event through ``on_event`` when it
harvests the chunk, so worker telemetry lands in the main trace inside
its own step, and a chunk whose result is discarded contributes
nothing.  Workers never record into the registry they inherited at fork
and write no telemetry files.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from repro import metrics
from repro.errors import InjectedFaultError, SharedMemoryError
from repro.kernel import CompactGraph, induced_maximal_cliques
from repro.parallel.scheduler import ParallelEngine
from repro.parallel.shm import attach_compact
from repro.storage.pagestore import PAGE_SIZE_BYTES
from repro.storage.partitions import read_partition_file

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan
    from repro.parallel.partition import LiftChunk, TreeTask

Clique = frozenset

#: Grace period for salvaging completed chunks off a pool already declared
#: broken (their workers may have finished before the breakage).
_SALVAGE_TIMEOUT_SECONDS = 0.05

#: Executor metrics.  Chunk counts, latencies and attach counts are
#: observed in whatever process runs the chunk (a pooled chunk's snapshot
#: is absorbed into the driver's registry at harvest); the recovery
#: series, keyed by the event each one counts, are always driver-side.
_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        chunks={
            phase: registry.counter(
                "repro_parallel_chunks_total",
                "task chunks executed (including retries and inline reruns)",
                labels={"phase": phase},
            )
            for phase in ("tree", "lift")
        },
        latency={
            phase: registry.histogram(
                "repro_parallel_chunk_seconds",
                "per-chunk wall time",
                labels={"phase": phase},
                buckets=metrics.TIME_BUCKETS,
            )
            for phase in ("tree", "lift")
        },
        recovery={
            "chunk_retry": registry.counter(
                "repro_parallel_chunk_retries_total", "chunk resubmissions"
            ),
            "chunk_timeout": registry.counter(
                "repro_parallel_chunk_timeouts_total", "chunk deadline expiries"
            ),
            "chunk_error": registry.counter(
                "repro_parallel_chunk_errors_total", "chunk attempts that raised"
            ),
            "pool_rebuild": registry.counter(
                "repro_parallel_pool_rebuilds_total",
                "worker-pool teardown/recreate cycles",
            ),
            "chunk_inline_fallback": registry.counter(
                "repro_parallel_inline_chunks_total",
                "chunks recomputed in-process after exhausting retries",
            ),
            "executor_degraded": registry.counter(
                "repro_parallel_fallback_steps_total",
                "steps whose executor fell back to in-process execution",
            ),
        },
        payload_bytes=registry.counter(
            "repro_parallel_payload_bytes_total",
            "pickled task-descriptor bytes shipped through the pool",
        ),
        shm_attach=registry.counter(
            "repro_parallel_shm_attach_total",
            "worker attachments to shared-memory graph segments",
        ),
    )
)


class _GraphHandle:
    """One resolved graph descriptor living in a worker's cache."""

    __slots__ = ("compact", "shm")

    def __init__(self, compact, shm=None):
        self.compact = compact
        self.shm = shm

    def release(self) -> None:
        """Drop the graph ref, then unmap the segment (order matters: the
        CSR memoryviews pin the buffer until they are collected)."""
        self.compact = None
        shm, self.shm = self.shm, None
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # a stray view still pins the buffer
                pass


def _load_graph(descriptor: dict) -> _GraphHandle:
    """Resolve a descriptor into the step's core CSR (attach or rehydrate)."""
    spec = descriptor.get("shm")
    if spec is not None:
        compact, shm = attach_compact(spec["name"], spec["generation"])
        _METRICS().shm_attach.inc()
        return _GraphHandle(compact, shm=shm)
    payload = descriptor["inband"]
    return _GraphHandle(
        CompactGraph.from_csr(payload["labels"], payload["indptr"], payload["indices"])
    )


class WorkerContext:
    """Per-process state installed by the pool initializer.

    Everything cached here belongs to one step, named by its descriptor
    token: a new token releases the old step's state first.  Two caches
    live side by side — the descriptor→graph attachment (unmapping the
    old segment on release) and the step's spill partitions, an LRU of
    at most the driver store's ``max_resident`` parsed files, so each
    worker reads a spill file once per step (pages are counted per
    actual read) and never holds more than the paper's memory bound
    ``N`` of partitions.  ``label`` names the process in the chunk
    events the driver emits for it (``"inline"`` for the driver's own
    context).
    """

    def __init__(self, label: str = "inline") -> None:
        self._token: str | None = None
        self._handle: _GraphHandle | None = None
        self._spill: OrderedDict[str, dict[int, frozenset[int]]] = OrderedDict()
        #: Spill files actually read by this process, and their pages.
        self.partition_loads = 0
        self.pages_read = 0
        self.label = label

    def _enter_step(self, token: str) -> None:
        if token != self._token:
            self.release_graphs()
            self._token = token

    def graph_for(self, descriptor: dict) -> _GraphHandle:
        self._enter_step(descriptor["token"])
        if self._handle is None:
            self._handle = _load_graph(descriptor)
        return self._handle

    def spill_partition(
        self, token: str, path: str, max_resident: int
    ) -> dict[int, frozenset[int]]:
        """One spill file's adjacency, read at most once per step while
        it stays among the ``max_resident`` most recently used."""
        self._enter_step(token)
        partition = self._spill.get(path)
        if partition is not None:
            self._spill.move_to_end(path)
            return partition
        while self._spill and len(self._spill) >= max_resident:
            self._spill.popitem(last=False)
        partition = read_partition_file(path)
        self._spill[path] = partition
        self.partition_loads += 1
        self.pages_read += (os.path.getsize(path) + PAGE_SIZE_BYTES - 1) // PAGE_SIZE_BYTES
        return partition

    def release_graphs(self) -> None:
        """Drop the current step's graph attachment and spill partitions."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.release()
        self._spill.clear()
        self._token = None


_CONTEXT: WorkerContext | None = None


def _init_worker() -> None:
    global _CONTEXT
    # A forked child inherits the driver's live registry; recording into
    # that copy would be lost at best.  Metered chunks install their own.
    metrics.disable()
    _CONTEXT = WorkerContext(label=f"worker_{os.getpid():08d}")


def _solve_tree_task(compact: CompactGraph, task: "TreeTask"):
    from repro.core.clique_tree import anchor_cliques
    from repro.kernel import subproblem_bitset

    if task.kind == "core":
        cliques = subproblem_bitset(compact, task.vertex)
    else:
        cliques = anchor_cliques(compact, task.anchors)
    return tuple(tuple(sorted(clique)) for clique in cliques)


def _seal(payload, event: dict) -> dict:
    """Wrap results in the envelope that travels back through the pool pipe.

    ``{"results", "event", "worker", "metrics"}`` —
    ``event`` holds the fields of the chunk's completion event and
    ``metrics`` the chunk's registry snapshot (filled in by
    :func:`_dispatch_chunk` for metered submissions, else ``None``).
    """
    assert _CONTEXT is not None
    return {
        "results": payload,
        "event": event,
        "worker": _CONTEXT.label,
        "metrics": None,
    }


def _run_tree_chunk(descriptor: dict, chunk) -> dict:
    """Solve every tree subproblem of a chunk; results keyed by index.

    Clique vertex tuples are sorted, but the *list* order within a task
    preserves the pivoted enumeration order — the merger relies on task
    indices alone for determinism.
    """
    assert _CONTEXT is not None, "worker used before initialization"
    started = time.perf_counter()
    compact = _CONTEXT.graph_for(descriptor).compact
    results = [(task.index, _solve_tree_task(compact, task)) for task in chunk]
    elapsed = time.perf_counter() - started
    bundle = _METRICS()
    bundle.chunks["tree"].inc()
    bundle.latency["tree"].observe(elapsed)
    event = {
        "seconds": round(elapsed, 6),
        "tasks": len(results),
        "cliques": sum(len(found) for _, found in results),
    }
    return _seal(results, event)


def _run_lift_chunk(descriptor: dict, chunk: "LiftChunk") -> dict:
    """Resolve a chunk's ``HNB`` sets against the spill files.

    Each task looks its members' neighbour sets up in the worker's spill
    cache and hands them to :func:`~repro.kernel.induced_maximal_cliques`,
    the serial resolver's function.  The envelope payload is ``(per-task
    maxCL lists, pages read)`` so the driver can fold worker I/O back
    into its metered totals; the completion event also reports the spill
    files this chunk actually loaded.
    """
    context = _CONTEXT
    assert context is not None, "worker used before initialization"
    token = descriptor["token"]
    loads_before, pages_before = context.partition_loads, context.pages_read
    results: list[tuple[int, tuple[tuple[int, ...], ...]]] = []
    started = time.perf_counter()
    for task in chunk.tasks:
        adjacency: dict[int, frozenset[int]] = {}
        for pindex in task.partition_indices:
            partition = context.spill_partition(
                token, chunk.paths[pindex], chunk.max_resident
            )
            for v in task.shared:
                if v in partition:
                    adjacency[v] = partition[v]
        cliques = induced_maximal_cliques(adjacency, task.shared)
        results.append(
            (task.index, tuple(tuple(sorted(clique)) for clique in cliques))
        )
    elapsed = time.perf_counter() - started
    pages_read = context.pages_read - pages_before
    bundle = _METRICS()
    bundle.chunks["lift"].inc()
    bundle.latency["lift"].observe(elapsed)
    event = {
        "seconds": round(elapsed, 6),
        "tasks": len(results),
        "partitions_loaded": context.partition_loads - loads_before,
        "pages_read": pages_read,
    }
    return _seal((results, pages_read), event)


class _Poison:
    """A wrapper whose pickling always fails — the ``poison`` fault."""

    def __init__(self, chunk: object) -> None:
        self.chunk = chunk

    def __reduce__(self):
        raise TypeError("injected unpicklable payload")


def _dispatch_chunk(blob: bytes):
    """Worker-side entry point: obey the fault directive, then run.

    ``blob`` is the pickled ``(directive, phase, descriptor, chunk,
    metered)`` (pickled once, driver-side, which also measures it).  The
    directive is attached driver-side by :meth:`StepExecutor._submit` so
    workers never hold a :class:`~repro.faults.FaultPlan`; ``None`` means
    run normally.  A metered submission (set from
    :func:`repro.metrics.enabled` at submit time) runs against a fresh
    registry whose snapshot is returned in the envelope.
    """
    directive, phase, descriptor, chunk, metered = pickle.loads(blob)
    if directive is not None:
        kind = directive[0]
        if kind == "worker_kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "worker_error":
            raise InjectedFaultError("injected worker error")
        elif kind == "sleep":
            time.sleep(directive[1])
        elif kind == "shm_attach_fail":
            raise SharedMemoryError("injected shared-memory attach failure")
        elif kind == "shm_stale":
            spec = descriptor.get("shm")
            if spec is None:
                raise SharedMemoryError("injected stale shared-memory segment")
            # Re-validate against a generation the segment cannot hold:
            # exercises the real header check, raises SharedMemoryError.
            doctored = {
                "token": descriptor["token"] + "?stale",
                "shm": {**spec, "generation": spec["generation"] + 1},
            }
            assert _CONTEXT is not None
            _CONTEXT.graph_for(doctored)
    run = _run_tree_chunk if phase == "tree" else _run_lift_chunk
    if not metered:
        return run(descriptor, chunk)
    registry = metrics.enable(metrics.MetricsRegistry())
    try:
        envelope = run(descriptor, chunk)
    finally:
        metrics.disable()
    envelope["metrics"] = registry.snapshot()
    return envelope


@dataclass
class MapStats:
    """One ``map_tree``/``map_lift`` call as the cost model sees it: wall
    seconds, the chunks mapped (one result each, wherever it ran), each
    worker's summed chunk seconds (the driver's ``"inline"`` context
    included), and whether any recovery engaged — a retry, timeout,
    error, rebuild or degradation, or a map that ran without a pool — so
    that its timings measured the fault, not the engine."""

    seconds: float = 0.0
    chunks: int = 0
    busy: dict[str, float] = field(default_factory=dict)
    recovered: bool = False


class _Pending:
    """One schedulable chunk: queue identity, payload, charged attempts."""

    __slots__ = ("chunk_id", "chunk", "attempts")

    def __init__(self, chunk_id, chunk):
        self.chunk_id = chunk_id
        self.chunk = chunk
        self.attempts = 0


class StepExecutor:
    """Run task chunks for one recursion step, in parallel if possible.

    ``map_tree`` / ``map_lift`` return one result payload per chunk,
    unordered — callers merge by the global task indices every result row
    carries, so the stream downstream is worker-count- and
    schedule-independent: retries, pool rebuilds and inline fallbacks
    never reorder or change results, only delay them.

    ``engine`` is the run's :class:`~repro.parallel.scheduler.ParallelEngine`
    (shared across steps, never closed here) and ``descriptor`` the
    step's task descriptor from :meth:`ParallelEngine.publish_star` or
    :meth:`ParallelEngine.step_token`.
    """

    def __init__(
        self,
        engine: ParallelEngine,
        descriptor: dict,
        task_timeout: float | None = None,
        max_retries: int = 2,
        fault_plan: "FaultPlan | None" = None,
        on_event: Callable[..., None] | None = None,
    ) -> None:
        self._engine = engine
        self._payload = descriptor
        self._task_timeout = task_timeout
        self._max_retries = max(0, int(max_retries))
        self._faults = fault_plan
        self._on_event = on_event
        self._inline_context: WorkerContext | None = None
        # Lifetime cap on rebuilds: enough to outlast max_retries worth of
        # worker deaths, but bounded so a persistently hostile environment
        # degrades to inline execution instead of thrashing.
        self._max_rebuilds = max(3, self._max_retries + 1)
        self._rebuilds_used = 0
        self._chunk_seq = 0
        # Completion signalling: pool callbacks queue their submission's
        # ticket and set the event the harvest loop waits on.
        self._tickets = itertools.count()
        self._finished: deque[int] = deque()
        self._wake = threading.Event()
        # This step's pickled task bytes, for its step event; the run
        # total is the repro_parallel_payload_bytes_total series.
        self._step_payload_bytes = 0
        #: The latest map's timings, for the cost model.
        self.last_map = MapStats()
        self.fell_back = False
        if self._engine.workers > 1 and self._engine.pool is None:
            self._degrade("no worker pool")

    @property
    def engine(self) -> ParallelEngine:
        return self._engine

    def step_fields(self) -> dict:
        """This step's share of the driver's ``parallel_step_completed``
        event: pickled task bytes shipped, shared-memory bytes behind the
        descriptor, and whether the step fell back in-process."""
        spec = self._payload.get("shm")
        return {
            "payload_bytes": self._step_payload_bytes,
            "shm_bytes": 0 if spec is None else int(spec["nbytes"]),
            "fell_back": self.fell_back,
        }

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_tree(self, chunks):
        """Run tree chunks; one result list per executed chunk."""
        return self._map("tree", chunks)

    def map_lift(self, chunks):
        """Run lift chunks; one ``(results, pages)`` pair per chunk."""
        return self._map("lift", chunks)

    def _map(self, phase, chunks):
        """Run every chunk to completion, whatever the pool does.

        Event-driven loop: submit everything pending, sleep on the
        completion event until a pool callback fires or the nearest
        chunk deadline passes, harvest whatever finished, classify
        failures (retry, timeout → pool rebuild, retries exhausted →
        inline).  The loop terminates because every failure either
        charges an attempt against a chunk (bounded by ``max_retries``
        before the chunk goes inline) or consumes a pool rebuild
        (bounded by the lifetime cap before the executor degrades to
        inline entirely).
        """
        started = time.perf_counter()
        self.last_map = MapStats()
        pending: deque[_Pending] = deque(
            _Pending(self._next_chunk_id(), chunk) for chunk in chunks
        )
        if not pending:
            return []
        collected: list = []
        outstanding: dict[int, tuple] = {}  # ticket -> (handle, item, deadline)
        while pending or outstanding:
            if self._engine.pool is None or self.fell_back:
                self.last_map.recovered = True
                while pending:
                    item = pending.popleft()
                    collected.append(self._run_chunk_inline(phase, item.chunk))
                continue  # outstanding is empty whenever the pool is gone
            submit_failed = False
            while pending:
                item = pending.popleft()
                ticket = next(self._tickets)
                handle = self._submit(phase, item, ticket)
                if handle is None:
                    pending.appendleft(item)
                    submit_failed = True
                    break
                deadline = (
                    None
                    if self._task_timeout is None
                    else time.monotonic() + self._task_timeout
                )
                outstanding[ticket] = (handle, item, deadline)
            broken = submit_failed or self._await_finished(
                phase, outstanding, pending, collected
            )
            if broken:
                self._salvage(phase, outstanding, pending, collected)
                self._rebuild_pool()
        self.last_map.seconds = time.perf_counter() - started
        self.last_map.chunks = len(collected)
        return collected

    def _notify(self, ticket: int, _outcome) -> None:
        """``apply_async`` callback and error callback (pool result thread)."""
        self._finished.append(ticket)
        self._wake.set()

    def _harvest_finished(self, phase, outstanding, pending, collected) -> bool:
        """Harvest every outstanding chunk whose callback has fired.

        Tickets of abandoned submissions (salvaged or timed out) are not
        in ``outstanding`` and are dropped.  The callback runs just before
        the result's own ready flag is set, so ``get()`` may block for
        that instant, never longer.
        """
        self._wake.clear()
        harvested = False
        while self._finished:
            entry = outstanding.pop(self._finished.popleft(), None)
            if entry is not None:
                handle, item, _ = entry
                self._harvest(phase, item, handle, pending, collected)
                harvested = True
        return harvested

    def _await_finished(self, phase, outstanding, pending, collected) -> bool:
        """Harvest finished chunks, first waiting — until a callback fires
        or the nearest chunk deadline passes — if none has finished.

        Returns whether an expired deadline broke the pool.
        """
        if not self._harvest_finished(phase, outstanding, pending, collected):
            deadlines = [d for _, _, d in outstanding.values() if d is not None]
            self._wake.wait(
                max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            )
            self._harvest_finished(phase, outstanding, pending, collected)
        now = time.monotonic()
        for ticket, (_, item, deadline) in list(outstanding.items()):
            if deadline is not None and now >= deadline:
                # The only way to learn a worker died mid-task: the pool
                # never surfaces abrupt worker death, so the deadline is
                # the death detector and it breaks the pool.
                del outstanding[ticket]
                self._emit("chunk_timeout", phase=phase, chunk_index=item.chunk_id)
                self._fail(phase, item, pending, collected)
                return True
        return False

    def _harvest(self, phase, item, handle, pending, collected):
        """Unwrap one completed handle: envelope and telemetry."""
        try:
            envelope = handle.get()
        except Exception as error:
            self._emit(
                "chunk_error", phase=phase, chunk_index=item.chunk_id,
                error=repr(error),
            )
            self._fail(phase, item, pending, collected)
            return
        self._record(phase, item.chunk_id, envelope)
        collected.append(envelope["results"])

    def _record(self, phase, chunk_id, envelope) -> None:
        """Fold one finished chunk's telemetry into the driver: absorb its
        metrics snapshot (metered pool chunks only) and emit its
        completion event."""
        snapshot = envelope["metrics"]
        if snapshot is not None and metrics.enabled():
            metrics.get_registry().absorb(snapshot)
        worker = envelope["worker"]
        busy = self.last_map.busy
        busy[worker] = busy.get(worker, 0.0) + envelope["event"]["seconds"]
        self._emit(
            f"{phase}_chunk_completed", chunk_index=chunk_id,
            worker=worker, **envelope["event"],
        )

    def _submit(self, phase, item, ticket):
        """Submit one chunk; returns ``None`` when the pool is unusable.

        The fault plan is consulted here (operations ``"chunk"`` and —
        when the graph travels through shared memory — ``"shm"``), once
        per submission, so a transient rule fires on the first attempt
        and lets the retry through.
        """
        directive = None
        payload_chunk = item.chunk
        if self._faults is not None:
            fault = self._faults.draw("chunk")
            if fault is not None:
                if fault.kind == "worker_kill":
                    directive = ("worker_kill",)
                elif fault.kind == "worker_error":
                    directive = ("worker_error",)
                elif fault.kind == "poison":
                    payload_chunk = _Poison(item.chunk)
                elif fault.kind in ("timeout", "latency"):
                    stall = fault.latency_seconds
                    if fault.kind == "timeout" and self._task_timeout is not None:
                        # Guarantee the stall outlasts the chunk deadline.
                        stall = max(stall, self._task_timeout * 4)
                    directive = ("sleep", stall)
            if directive is None and self._payload.get("shm") is not None:
                shm_fault = self._faults.draw(
                    "shm", path=self._payload["shm"]["name"]
                )
                if shm_fault is not None:
                    if shm_fault.kind == "attach_fail":
                        directive = ("shm_attach_fail",)
                    elif shm_fault.kind == "stale_segment":
                        directive = ("shm_stale",)
        task = (directive, phase, self._payload, payload_chunk, metrics.enabled())
        try:
            blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
            shipped = len(blob)
        except Exception:
            # An injected poison payload refuses to pickle: hand the pool
            # the object itself, whose own pickling then fails the chunk
            # through its error callback like any unpicklable submission.
            blob, shipped = task, 0
        try:
            notify = partial(self._notify, ticket)
            handle = self._engine.pool.apply_async(
                _dispatch_chunk, (blob,), callback=notify, error_callback=notify
            )
        except Exception:
            return None
        self._step_payload_bytes += shipped
        _METRICS().payload_bytes.inc(shipped)
        return handle

    def _salvage(self, phase, outstanding, pending, collected):
        """Give a broken pool's survivors one short grace window.

        Chunks behind a breakage may have finished before it — harvest
        whatever becomes ready within the window; everything else goes
        back to pending *without* being charged an attempt: they were
        collateral, not the fault.
        """
        deadline = time.monotonic() + _SALVAGE_TIMEOUT_SECONDS
        self._harvest_finished(phase, outstanding, pending, collected)
        while outstanding and time.monotonic() < deadline:
            self._wake.wait(deadline - time.monotonic())
            self._harvest_finished(phase, outstanding, pending, collected)
        for handle, item, _ in outstanding.values():
            pending.append(item)
        outstanding.clear()

    def _fail(self, phase, item, pending, collected):
        """Charge a failed attempt; retry on the pool or degrade inline."""
        item.attempts += 1
        if item.attempts > self._max_retries:
            self._emit(
                "chunk_inline_fallback",
                phase=phase,
                chunk_index=item.chunk_id,
                attempts=item.attempts,
            )
            collected.append(self._run_chunk_inline(phase, item.chunk))
        else:
            self._emit(
                "chunk_retry", phase=phase, chunk_index=item.chunk_id,
                attempt=item.attempts,
            )
            pending.append(item)

    def _rebuild_pool(self) -> None:
        """Have the engine replace its broken pool (bounded per step)."""
        if self._rebuilds_used >= self._max_rebuilds:
            self._engine.stop_pool(terminate=True)
            self._degrade("pool rebuild limit reached")
            return
        self._rebuilds_used += 1
        if self._engine.rebuild_pool():
            self._emit("pool_rebuild", rebuilds=self._rebuilds_used)
        else:
            self._degrade("pool recreation failed")

    def _degrade(self, reason: str) -> None:
        """Run everything still pending in-process (recorded once a step)."""
        if not self.fell_back:
            self.fell_back = True
            self._emit("executor_degraded", reason=reason)

    def _run_chunk_inline(self, phase, chunk):
        """Recompute one raw chunk in-process (no fault directives).

        The inline context resolves the same descriptor the workers see
        — attaching the shared segment in-driver when one is published.
        It records straight into the driver's registry and emits its completion
        event through the same hook as pooled chunks.
        """
        global _CONTEXT
        if self._inline_context is None:
            self._inline_context = WorkerContext()
        previous = _CONTEXT
        _CONTEXT = self._inline_context
        run = _run_tree_chunk if phase == "tree" else _run_lift_chunk
        try:
            envelope = run(self._payload, chunk)
        finally:
            _CONTEXT = previous
        self._record(phase, self._next_chunk_id(), envelope)
        return envelope["results"]

    def _next_chunk_id(self) -> int:
        self._chunk_seq += 1
        return self._chunk_seq

    def _emit(self, event: str, **fields: object) -> None:
        """Record one executor event: a recovery or degradation event
        increments its series and marks the current map as recovered;
        every event then goes to ``on_event``."""
        series = _METRICS().recovery.get(event)
        if series is not None:
            series.inc()
            self.last_map.recovered = True
        if self._on_event is not None:
            self._on_event(event, **fields)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release step-scoped state (the engine outlives its steps)."""
        if self._inline_context is not None:
            self._inline_context.release_graphs()
            self._inline_context = None

    def __enter__(self) -> "StepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["MapStats", "StepExecutor", "WorkerContext"]
