"""Supervision for the live store's background workers.

A live deployment has two threads whose silent death turns the store
into a slowly rotting snapshot: the **ingest worker** (edge events stop
being applied, acked updates stop flowing) and the **background
compactor** (the delta tail grows without bound).  Nothing in a Python
process restarts a dead thread for you — this module is that nothing.

:class:`LiveSupervisor` polls worker liveness and restarts the dead:

* A dead ingest worker is restarted *through WAL replay*: the store's
  :meth:`~repro.live.store.LiveCliqueStore.resync` drops the in-memory
  overlay and rebuilds it from the manifest + logs (disk is
  authoritative — WAL-first writes mean exactly the acknowledged batches
  are on it), then a fresh worker re-applies any event the dead one had
  taken but not acked, idempotently
  (:meth:`~repro.live.ingest.LiveIngestor.reapply_event`).  Zero acked
  updates lost, no update applied twice.
* A dead compactor is restarted with
  :meth:`~repro.live.store.LiveCliqueStore.start_compactor`.
* Restarts back off exponentially (a crash-*loop* must not become a busy
  loop), and after ``max_consecutive_failures`` straight failures the
  supervisor gives up on that worker and latches ``degraded`` — which
  the server surfaces through its ``health``/``ready`` probes so an
  orchestrator can rotate the replica out.

:class:`SupervisedIngestor` is the restartable ingest worker itself: a
bounded event queue drained by one thread, acking each event only after
the store apply returns.  The queue *blocks* producers when full —
ingest backpressure, same philosophy as the server's admission control.

Everything here is cooperative threading (no signals, no subprocesses),
so the chaos suite can kill workers deterministically by injecting
exceptions and assert the restart ladder metric by metric.
"""

from __future__ import annotations

import queue
import threading
import time
from types import SimpleNamespace
from typing import Callable

from repro import metrics
from repro.errors import ReproError
from repro.live.ingest import LiveIngestor
from repro.live.store import LiveCliqueStore

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        restarts={
            worker: registry.counter(
                "repro_supervisor_restarts_total",
                "dead workers restarted, by worker",
                labels={"worker": worker},
            )
            for worker in ("ingest", "compactor")
        },
        deaths=registry.counter(
            "repro_supervisor_worker_deaths_total", "worker deaths observed"
        ),
        gave_up=registry.counter(
            "repro_supervisor_gave_up_total",
            "workers abandoned after the crash-loop budget",
        ),
        degraded=registry.gauge(
            "repro_supervisor_degraded", "1 while any worker is down or abandoned"
        ),
        resync_deltas=registry.counter(
            "repro_supervisor_resync_deltas_total",
            "tail deltas replayed during restart resyncs",
        ),
        reapplied=registry.counter(
            "repro_supervisor_reapplied_events_total",
            "unacked events re-applied idempotently after a restart",
        ),
        dropped=registry.counter(
            "repro_supervisor_dropped_events_total",
            "poison events dropped during restart re-apply",
        ),
        acked=registry.counter(
            "repro_supervisor_acked_events_total",
            "events durably applied and acknowledged by the ingest worker",
        ),
    )
)


class SupervisedIngestor:
    """A restartable ingest worker: bounded queue, one drain thread.

    :meth:`submit` blocks when the queue is full (backpressure) and
    returns once the event is *queued*, not applied; :meth:`wait_idle`
    barriers on full application.  ``acked_events`` counts events whose
    store apply returned — the durability line the supervisor must never
    lose across a crash.

    The drain thread applies events via ``ingestor.apply_event``; an
    event that was taken off the queue but whose apply raised is pushed
    *back to the front* before the thread dies, so the replacement
    worker re-applies it (idempotently) instead of losing it.
    """

    def __init__(
        self,
        ingestor: LiveIngestor,
        queue_limit: int = 1024,
        fail_hook: Callable[[tuple], None] | None = None,
    ) -> None:
        self._ingestor = ingestor
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, queue_limit))
        self._pending_retry: tuple | None = None
        self._retry_lock = threading.Lock()
        self._stop = threading.Event()
        self._fail_hook = fail_hook
        self.acked_events = 0
        self.last_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="live-ingest-worker", daemon=True
        )
        self._thread.start()

    @property
    def ingestor(self) -> LiveIngestor:
        """The wrapped ingestor (swapped on restart by the supervisor)."""
        return self._ingestor

    @property
    def queue_size(self) -> int:
        """Events waiting to be applied."""
        return self._queue.qsize()

    def is_alive(self) -> bool:
        """Whether the drain thread is running."""
        return self._thread.is_alive()

    def submit(self, event: tuple, timeout: float | None = None) -> bool:
        """Queue one event; blocks (backpressure) while the queue is full.

        Returns ``False`` if the worker is stopped or the timeout
        elapsed with the queue still full.
        """
        if self._stop.is_set():
            return False
        try:
            self._queue.put(event, timeout=timeout)
        except queue.Full:
            return False
        return True

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until every submitted event is applied (or timeout).

        A dead worker is never idle: once the supervisor has drained its
        queue and retry slot into the handoff, both look empty.  The
        queue is read before the retry slot because a failing event is
        parked there before its ``task_done``.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            drained = self._queue.empty() and self._queue.unfinished_tasks == 0
            with self._retry_lock:
                retrying = self._pending_retry is not None
            if not self.is_alive():
                return False
            if drained and not retrying:
                return True
            time.sleep(0.005)
        return False

    def stop(self) -> None:
        """Stop the drain thread after the current event."""
        self._stop.set()
        try:
            self._queue.put_nowait(None)  # wake a blocked get
        except queue.Full:
            pass
        self._thread.join(timeout=10.0)

    # -- restart handoff ----------------------------------------------
    def take_unacked(self) -> list[tuple]:
        """Drain everything the dead worker left behind, retry-slot first.

        Only meaningful once the thread is dead; the supervisor feeds
        the result to the replacement worker for idempotent re-apply.
        """
        events: list[tuple] = []
        with self._retry_lock:
            if self._pending_retry is not None:
                events.append(self._pending_retry)
                self._pending_retry = None
        while True:
            try:
                event = self._queue.get_nowait()
            except queue.Empty:
                break
            if event is not None:
                events.append(event)
            self._queue.task_done()
        return events

    def _run(self) -> None:
        while not self._stop.is_set():
            event = self._queue.get()
            if event is None:
                self._queue.task_done()
                continue
            try:
                if self._fail_hook is not None:
                    self._fail_hook(event)  # chaos harness: raises to kill us
                self._ingestor.apply_event(event)
            except BaseException as exc:
                # Park the in-flight event for the replacement worker,
                # then die loudly — the supervisor notices the corpse.
                self.last_error = exc
                with self._retry_lock:
                    self._pending_retry = event
                self._queue.task_done()
                if not isinstance(exc, Exception):
                    raise
                return
            self.acked_events += 1
            _METRICS().acked.inc()
            self._queue.task_done()


class LiveSupervisor:
    """Watchdog restarting the live store's dead background workers."""

    def __init__(
        self,
        store: LiveCliqueStore,
        make_ingestor: Callable[[], LiveIngestor] | None = None,
        *,
        poll_interval_seconds: float = 0.05,
        backoff_base_seconds: float = 0.05,
        backoff_max_seconds: float = 2.0,
        max_consecutive_failures: int = 5,
        queue_limit: int = 1024,
        compactor_tail_threshold: int | None = None,
        fail_hook: Callable[[tuple], None] | None = None,
    ) -> None:
        self._store = store
        self._make_ingestor = make_ingestor
        self._poll = poll_interval_seconds
        self._backoff_base = backoff_base_seconds
        self._backoff_max = backoff_max_seconds
        self._budget = max(1, max_consecutive_failures)
        self._queue_limit = queue_limit
        self._compactor_threshold = compactor_tail_threshold
        self._fail_hook = fail_hook
        self._lock = threading.Lock()
        self._worker: SupervisedIngestor | None = None
        self._handoff: list[tuple] | None = None
        self._acked_before = 0
        self._consecutive = {"ingest": 0, "compactor": 0}
        self._gave_up: set[str] = set()
        self.restarts = {"ingest": 0, "compactor": 0}
        self.dropped_events = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if make_ingestor is not None:
            self._worker = SupervisedIngestor(
                make_ingestor(), queue_limit=queue_limit, fail_hook=fail_hook
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LiveSupervisor":
        """Start the watchdog thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="live-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the watchdog and the supervised ingest worker."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        worker = self._worker
        if worker is not None:
            worker.stop()

    def __enter__(self) -> "LiveSupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Ingest surface
    # ------------------------------------------------------------------
    def submit(self, event: tuple, timeout: float | None = None) -> bool:
        """Queue one edge event for the supervised worker.

        Blocks through worker restarts: while the watchdog is replacing
        a dead worker the event simply waits for the replacement.  Once
        the watchdog has *given up* on ingest there is no replacement to
        wait for — submit returns ``False`` immediately rather than
        stalling the producer until its timeout.
        """
        if self._make_ingestor is None:
            raise ReproError("this supervisor was built without an ingestor factory")
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._stop.is_set():
            if "ingest" in self._gave_up:
                return False
            worker = self._worker
            if worker is not None and worker.is_alive():
                step = 0.25
                if deadline is not None:
                    step = max(0.0, min(step, deadline - time.monotonic()))
                if worker.submit(event, timeout=step):
                    return True
            else:
                time.sleep(0.01)  # the watchdog is mid-restart
            if deadline is not None and time.monotonic() >= deadline:
                return False
        return False

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until the ingest queue fully drains (or timeout)."""
        if self._make_ingestor is None:
            return True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if "ingest" in self._gave_up:
                return False
            worker = self._worker
            if worker is not None and worker.is_alive():
                if worker.wait_idle(timeout=0.25):
                    return True
            else:
                time.sleep(0.01)  # wait for the watchdog to restart it
        return False

    @property
    def acked_events(self) -> int:
        """Events durably applied across every worker incarnation."""
        with self._lock:
            worker = self._worker
            return self._acked_before + (worker.acked_events if worker else 0)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while a worker is down, restarting, or abandoned."""
        if self._gave_up:
            return True
        worker = self._worker
        if self._make_ingestor is not None and (
            worker is None or not worker.is_alive()
        ):
            return True
        compactor = self._store._compactor
        return compactor is not None and not compactor.is_alive()

    @property
    def gave_up(self) -> frozenset[str]:
        """Workers abandoned after ``max_consecutive_failures`` crashes."""
        return frozenset(self._gave_up)

    def to_payload(self) -> dict:
        """JSON-able status (the server's ``health`` embeds this)."""
        worker = self._worker
        return {
            "degraded": self.degraded,
            "restarts": dict(self.restarts),
            "gave_up": sorted(self._gave_up),
            "ingest_alive": bool(worker is not None and worker.is_alive()),
            "ingest_queue": worker.queue_size if worker is not None else 0,
            "acked_events": self.acked_events,
            "dropped_events": self.dropped_events,
        }

    # ------------------------------------------------------------------
    # The watchdog loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self._poll):
            _METRICS().degraded.set(1 if self.degraded else 0)
            self._check_ingest()
            self._check_compactor()
        _METRICS().degraded.set(1 if self.degraded else 0)

    def _backoff(self, worker: str) -> float:
        exponent = max(0, self._consecutive[worker] - 1)
        return min(
            self._backoff_max, self._backoff_base * (2.0 ** exponent)
        )

    def _check_ingest(self) -> None:
        if self._make_ingestor is None or "ingest" in self._gave_up:
            return
        worker = self._worker
        if worker is not None:
            if worker.is_alive():
                return
            # Harvest the corpse exactly once: the unacked backlog and
            # the final ack count must survive any number of failed
            # restart attempts without double counting.
            _METRICS().deaths.inc()
            self._handoff = (self._handoff or []) + worker.take_unacked()
            with self._lock:
                self._acked_before += worker.acked_events
                self._worker = None
        self._consecutive["ingest"] += 1
        if self._consecutive["ingest"] > self._budget:
            self._gave_up.add("ingest")
            _METRICS().gave_up.inc()
            return
        if self._stop.wait(self._backoff("ingest")):
            return
        unacked = list(self._handoff or [])
        try:
            # Disk is authoritative: rebuild the overlay from the WAL,
            # then hand the unacked backlog to a fresh worker.
            replayed = self._store.resync()
            _METRICS().resync_deltas.inc(replayed)
            fresh = self._make_ingestor()
            applied = 0
            for event in unacked:
                try:
                    fresh.reapply_event(event)
                except ReproError:
                    # A typed error from re-apply is deterministic: the
                    # event itself can never be applied (a self-loop, an
                    # unknown vertex — poison).  Retrying the restart
                    # would fail identically forever and take the whole
                    # ingest pipeline down with it, so drop the event,
                    # loudly, and keep the pipeline alive.  It was never
                    # acked, and now never will be.
                    self.dropped_events += 1
                    _METRICS().dropped.inc()
                    continue
                applied += 1
                _METRICS().reapplied.inc()
            replacement = SupervisedIngestor(
                fresh, queue_limit=self._queue_limit, fail_hook=self._fail_hook
            )
            # Re-applied events were never acked by the old worker; they
            # are acked now, by hand, on the replacement's counter.
            # Dropped poison events are not: acked means applied.
            replacement.acked_events = applied
            with self._lock:
                self._handoff = None
                self._worker = replacement
        except Exception:
            # The restart itself failed; the next poll retries with a
            # longer backoff until the budget runs out.  Re-applied
            # events stay in the handoff — re-applying them again is
            # idempotent by construction.
            return
        self._consecutive["ingest"] = 0
        self.restarts["ingest"] += 1
        _METRICS().restarts["ingest"].inc()

    def _check_compactor(self) -> None:
        compactor = self._store._compactor
        if (
            compactor is None
            or compactor.is_alive()
            or "compactor" in self._gave_up
        ):
            return
        _METRICS().deaths.inc()
        self._consecutive["compactor"] += 1
        if self._consecutive["compactor"] > self._budget:
            self._gave_up.add("compactor")
            _METRICS().gave_up.inc()
            return
        if self._stop.wait(self._backoff("compactor")):
            return
        threshold = (
            self._compactor_threshold
            if self._compactor_threshold is not None
            else compactor.tail_threshold
        )
        try:
            self._store._compactor = None
            self._store.start_compactor(tail_threshold=threshold)
        except Exception:
            return
        self._consecutive["compactor"] = 0
        self.restarts["compactor"] += 1
        _METRICS().restarts["compactor"].inc()
