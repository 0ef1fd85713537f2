"""Stdlib TCP/JSON-lines server over a :class:`CliqueQueryEngine`.

Wire protocol — one JSON object per ``\\n``-terminated line, both ways::

    -> {"id": 7, "op": "cliques_containing", "args": {"v": 12}}
    <- {"id": 7, "ok": true, "result": [0, 3, 19], "degraded": false,
        "stale": false, "elapsed_ms": 0.41}

    -> {"id": 8, "op": "nonsense", "args": {}}
    <- {"id": 8, "ok": false, "error": "unknown operation 'nonsense'..."}

Operations mirror :data:`repro.service.engine.OPERATIONS`; an optional
``"timeout"`` field (seconds) overrides the engine default for that
request.  Errors — bad JSON, oversized request lines, unknown ops,
timeouts, storage failures that even the degraded path could not absorb
— are *responses*, never dropped connections: every request gets exactly
one reply, which is what the concurrent contract test in
``tests/service/`` holds the server to.

Overload safety (the serving-tier robustness issue):

* **Bounded admission** — at most ``max_in_flight`` query operations
  execute at once; excess requests are *shed* with a typed reply
  (``"overloaded": true`` plus a ``retry_after_ms`` hint the client's
  backoff honours) instead of queueing without bound.
* **Bounded request lines** — a line longer than ``max_request_bytes``
  is discarded incrementally (never buffered whole) and answered with a
  typed error; the connection survives.
* **Bounded event queues** — subscription events are pushed through a
  per-connection bounded queue drained by a dedicated sender thread, so
  a slow consumer can never block the store's writer; a consumer whose
  queue overflows is disconnected (the slow-consumer policy every
  production pub/sub converges on).
* **``health`` / ``ready``** — admission-exempt probe operations
  reporting in-flight load, drain state, and the live-store supervisor's
  ``degraded`` flag.
* **Graceful drain** — :meth:`CliqueQueryServer.drain` stops accepting,
  sheds new requests with a ``draining`` reply, waits up to
  ``drain_timeout`` for in-flight requests, flushes the live store's
  WAL, and closes cleanly (``repro-mce serve``/``live`` wire this to
  SIGTERM).

A :class:`~repro.faults.FaultPlan` with ``"net"`` rules makes the
network misbehave deterministically: connection resets mid-line, slow
writes, accept stalls (see :mod:`repro.faults`).

The server is a :class:`socketserver.ThreadingTCPServer` (one daemon
thread per connection); the engine underneath provides the thread
safety, deadlines and degradation.
"""

from __future__ import annotations

import json
import queue
import socket
import socketserver
import struct
import threading
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING

from repro import metrics
from repro.errors import QueryTimeoutError, ReproError
from repro.service.engine import OPERATIONS, CliqueQueryEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

#: Server-level operations answered without touching the engine's
#: admission-controlled query path.
PROBE_OPERATIONS = ("health", "ready")

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        connections=registry.counter(
            "repro_server_connections_total", "client connections accepted"
        ),
        requests=registry.counter(
            "repro_server_requests_total", "request lines received"
        ),
        responses_ok=registry.counter(
            "repro_server_responses_ok_total", "successful responses sent"
        ),
        responses_error=registry.counter(
            "repro_server_responses_error_total", "error responses sent"
        ),
        shed=registry.counter(
            "repro_server_shed_total",
            "requests shed by admission control (overload or drain)",
        ),
        oversized=registry.counter(
            "repro_server_oversized_requests_total",
            "request lines rejected for exceeding max_request_bytes",
        ),
        in_flight=registry.gauge(
            "repro_server_in_flight_requests", "query operations currently executing"
        ),
        subscriptions=registry.counter(
            "repro_server_subscriptions_total", "change subscriptions accepted"
        ),
        events_pushed=registry.counter(
            "repro_server_events_pushed_total",
            "subscription event lines pushed to clients",
        ),
        slow_consumers=registry.counter(
            "repro_server_slow_consumer_disconnects_total",
            "connections dropped because their event queue overflowed",
        ),
        net_faults=registry.counter(
            "repro_server_net_faults_total", "injected network faults fired"
        ),
        drains=registry.counter(
            "repro_server_drains_total", "graceful drains completed"
        ),
    )
)

#: Sentinel telling a connection's event-sender thread to exit.
_SENDER_STOP = object()


class _Handler(socketserver.StreamRequestHandler):
    """One connection: request/response lines plus pushed event lines.

    Responses are written by the connection thread; subscription events
    by a per-connection sender thread draining a bounded queue.  Both
    share ``_write_lock`` so each line stays atomic on the socket.
    """

    def setup(self) -> None:  # pragma: no cover — exercised via the server
        super().setup()
        self._write_lock = threading.Lock()
        self._tokens: dict[int, int] = {}
        self._next_subscription = 0
        self._closing = False
        self._events: queue.Queue = queue.Queue(
            maxsize=self.server.event_queue_limit  # type: ignore[attr-defined]
        )
        self._sender: threading.Thread | None = None
        self.server._track_handler(self)  # type: ignore[attr-defined]

    # -- outbound ------------------------------------------------------
    def _write_line(self, data: bytes) -> bool:
        """One framed line onto the socket; returns whether it was taken."""
        try:
            with self._write_lock:
                self.wfile.write(data)
                self.wfile.flush()
        except (OSError, ValueError):
            return False
        return True

    def push(self, payload: dict) -> bool:
        """Enqueue one event line for the sender thread.

        Called from the live store's writer thread, so it must never
        block: a full queue marks this connection a slow consumer and
        disconnects it instead of stalling the writer.
        """
        if self._closing:
            return False
        try:
            self._events.put_nowait(payload)
        except queue.Full:
            _METRICS().slow_consumers.inc()
            self.disconnect()
            return False
        if self._sender is None:
            # First event for this connection: start its sender thread.
            with self._write_lock:
                if self._sender is None:
                    self._sender = threading.Thread(
                        target=self._drain_events,
                        name="clique-event-sender",
                        daemon=True,
                    )
                    self._sender.start()
        return True

    def _drain_events(self) -> None:
        while True:
            payload = self._events.get()
            if payload is _SENDER_STOP:
                return
            data = json.dumps(payload).encode("utf-8") + b"\n"
            if not self._write_line(data):
                return
            _METRICS().events_pushed.inc()

    def disconnect(self) -> None:
        """Force the connection shut (drain, slow consumer, net fault)."""
        self._closing = True
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.connection.close()
        except OSError:
            pass

    def stop_reading(self) -> None:
        """Drain's close: end the read side only.

        A reply already computed still goes out; the handler then reads
        EOF and closes the connection itself.
        """
        self._closing = True
        try:
            self.connection.shutdown(socket.SHUT_RD)
        except OSError:
            pass

    def reset_connection(self) -> None:
        """Close with an RST (SO_LINGER 0) — the injected ``conn_reset``."""
        self._closing = True
        try:
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        try:
            self.connection.close()
        except OSError:
            pass

    # -- inbound -------------------------------------------------------
    def _read_bounded_line(self) -> bytes | None:
        """One request line of at most ``max_request_bytes`` bytes.

        Returns ``None`` at EOF and ``b""`` for an oversized line (whose
        remainder has been consumed in bounded chunks, never buffered
        whole).
        """
        limit = self.server.max_request_bytes  # type: ignore[attr-defined]
        line = self.rfile.readline(limit + 1)
        if not line:
            return None
        if len(line) <= limit or line.endswith(b"\n"):
            return line
        # Oversized: discard the rest of the line chunk by chunk.
        while True:
            chunk = self.rfile.readline(65536)
            if not chunk or chunk.endswith(b"\n"):
                return b""

    def handle(self) -> None:  # pragma: no cover — exercised via the server
        _METRICS().connections.inc()
        server: "CliqueQueryServer" = self.server  # type: ignore[assignment]
        fault = server._draw_net_fault("accept")
        if fault is not None and fault.kind == "accept_stall":
            time.sleep(fault.latency_seconds)
        while True:
            try:
                line = self._read_bounded_line()
            except OSError:
                return
            if line is None:
                return
            if line == b"":
                _METRICS().oversized.inc()
                response = server.format_error(
                    None,
                    f"request line exceeds {server.max_request_bytes} bytes",
                )
            elif not line.strip():
                continue
            else:
                response = server.engine_respond(line, connection=self)
            if not self._send_response(response):
                return

    def _send_response(self, response: bytes) -> bool:
        """Write one response line, applying any armed ``net`` fault."""
        server: "CliqueQueryServer" = self.server  # type: ignore[assignment]
        fault = server._draw_net_fault(f"write:{self.client_address}")
        if fault is not None:
            if fault.kind == "conn_reset":
                self.reset_connection()
                return False
            if fault.kind == "partial_line":
                cut = max(1, min(len(response) - 1, int(fault.fraction * len(response))))
                self._write_line(response[:cut])
                self.reset_connection()
                return False
            if fault.kind == "slow_write":
                # Server-side slow loris: the reply completes, slowly.  At
                # most 8 ceil-sized pieces, each preceded by its share of
                # the latency, so the last byte leaves only after all of it.
                step = -(-len(response) // 8)
                starts = range(0, len(response), step)
                pause = fault.latency_seconds / len(starts)
                for start in starts:
                    time.sleep(pause)
                    if not self._write_line(response[start : start + step]):
                        return False
                return True
        return self._write_line(response)

    def finish(self) -> None:  # pragma: no cover — exercised via the server
        self._closing = True
        # A vanished connection takes its subscriptions with it.
        for token in self._tokens.values():
            try:
                self.server.engine.unsubscribe(token)  # type: ignore[attr-defined]
            except ReproError:
                pass
        self._tokens.clear()
        if self._sender is not None:
            try:
                self._events.put_nowait(_SENDER_STOP)
            except queue.Full:
                pass  # the sender dies on its next failed write
        self.server._untrack_handler(self)  # type: ignore[attr-defined]
        super().finish()


class CliqueQueryServer(socketserver.ThreadingTCPServer):
    """Serve one :class:`CliqueQueryEngine` over TCP JSON-lines."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver listens with a backlog of 5; a burst of connects beyond
    # it has SYNs dropped and retried a second later.  Admission control,
    # not the kernel queue, is what should turn excess load away.
    request_queue_size = socket.SOMAXCONN

    def __init__(
        self,
        engine: CliqueQueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 64,
        retry_after_ms: float = 50.0,
        max_request_bytes: int = 1 << 20,
        event_queue_limit: int = 256,
        drain_timeout_seconds: float = 10.0,
        fault_plan: "FaultPlan | None" = None,
        supervisor=None,
    ) -> None:
        self.engine = engine
        self.max_in_flight = max(1, int(max_in_flight))
        self.retry_after_ms = float(retry_after_ms)
        self.max_request_bytes = max(64, int(max_request_bytes))
        self.event_queue_limit = max(1, int(event_queue_limit))
        self.drain_timeout_seconds = float(drain_timeout_seconds)
        self._faults = fault_plan
        self._supervisor = supervisor
        self._thread: threading.Thread | None = None
        self._admission_lock = threading.Lock()
        self._in_flight = 0
        self._draining = False
        self._drained = threading.Event()
        self._handlers: set[_Handler] = set()
        self._handlers_lock = threading.Lock()
        super().__init__((host, port), _Handler)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when 0 was requested)."""
        return self.server_address[0], self.server_address[1]

    @property
    def in_flight(self) -> int:
        """Query operations currently executing."""
        with self._admission_lock:
            return self._in_flight

    @property
    def draining(self) -> bool:
        """Whether a graceful drain has started."""
        with self._admission_lock:
            return self._draining

    def start(self) -> "CliqueQueryServer":
        """Serve on a background daemon thread; returns self."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self.serve_forever, name="clique-query-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the serve loop down and close the listening socket."""
        self.shutdown()
        self.server_close()
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.disconnect()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def drain(self, timeout_seconds: float | None = None) -> bool:
        """Gracefully drain: stop accepting, finish in-flight, flush, close.

        New requests on existing connections are shed with a
        ``draining`` reply while in-flight ones run to completion (up to
        ``timeout_seconds``, default ``drain_timeout_seconds``).  A live
        store's WAL is flushed before the sockets close, so an operator
        SIGTERM never loses an acknowledged update.  Returns whether
        every in-flight request finished inside the timeout.
        """
        timeout = (
            self.drain_timeout_seconds if timeout_seconds is None else timeout_seconds
        )
        with self._admission_lock:
            already = self._draining
            self._draining = True
            idle = self._in_flight == 0
        if idle:
            self._drained.set()
        if not already:
            self.shutdown()  # stop accepting new connections
            self._accept_backlog()
        completed = self._drained.wait(timeout)
        flush = getattr(self.engine.index, "flush_wal", None)
        if callable(flush):
            flush()
        # The last in-flight request releases its slot before its reply is
        # written, so connections are closed from the read side only.
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.stop_reading()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        _METRICS().drains.inc()
        return completed

    def _accept_backlog(self) -> None:
        """Hand connections the kernel completed before the serve loop
        stopped to handlers, so they get a ``draining`` reply, not silence."""
        self.socket.setblocking(False)
        while True:
            try:
                request, client_address = self.get_request()
            except OSError:
                return
            self.process_request(request, client_address)

    def __enter__(self) -> "CliqueQueryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self) -> str | None:
        """Reserve one in-flight slot; returns a shed reason when full."""
        with self._admission_lock:
            if self._draining:
                return "draining"
            if self._in_flight >= self.max_in_flight:
                return "overloaded"
            self._in_flight += 1
        _METRICS().in_flight.set(self._in_flight)
        return None

    def _release(self) -> None:
        with self._admission_lock:
            self._in_flight -= 1
            drained = self._draining and self._in_flight <= 0
        _METRICS().in_flight.set(max(0, self._in_flight))
        if drained:
            self._drained.set()

    def _shed_payload(self, request_id, reason: str) -> dict:
        _METRICS().shed.inc()
        return {
            "id": request_id,
            "ok": False,
            "error": (
                "server is draining; retry against a replica"
                if reason == "draining"
                else f"server overloaded: {self.max_in_flight} requests in flight"
            ),
            "overloaded": True,
            "draining": reason == "draining",
            "retry_after_ms": self.retry_after_ms,
        }

    # ------------------------------------------------------------------
    # Connection bookkeeping and fault injection
    # ------------------------------------------------------------------
    def _track_handler(self, handler: _Handler) -> None:
        with self._handlers_lock:
            self._handlers.add(handler)

    def _untrack_handler(self, handler: _Handler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)

    def _draw_net_fault(self, path: str):
        if self._faults is None:
            return None
        fault = self._faults.draw("net", path=path)
        if fault is not None:
            _METRICS().net_faults.inc()
        return fault

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    @staticmethod
    def format_error(request_id, message: str, **extra) -> bytes:
        """One error response line (shared with the oversized-line path)."""
        _METRICS().responses_error.inc()
        payload = {"id": request_id, "ok": False, "error": message, **extra}
        return json.dumps(payload).encode("utf-8") + b"\n"

    def health_payload(self) -> dict:
        """The ``health`` probe: engine, store, admission, supervisor."""
        with self._admission_lock:
            in_flight = self._in_flight
            draining = self._draining
        payload = {
            "draining": draining,
            "in_flight": in_flight,
            "max_in_flight": self.max_in_flight,
        }
        payload.update(self.engine.health())
        degraded = False
        if self._supervisor is not None:
            supervisor = self._supervisor.to_payload()
            payload["supervisor"] = supervisor
            degraded = bool(supervisor.get("degraded"))
        payload["degraded"] = degraded
        payload["status"] = (
            "draining" if draining else ("degraded" if degraded else "ok")
        )
        return payload

    def ready_payload(self) -> dict:
        """The ``ready`` probe: can this process take new traffic?"""
        health = self.health_payload()
        reason = None
        if health["draining"]:
            reason = "draining"
        elif health["degraded"]:
            reason = "degraded: supervisor restarting a dead worker"
        return {"ready": reason is None, "reason": reason}

    def engine_respond(self, line: bytes, connection: "_Handler | None" = None) -> bytes:
        """Answer one request line with one response line (never raises).

        ``connection`` carries the per-connection subscription state; the
        stateless query operations ignore it, so tests may call this
        method directly without a socket.
        """
        bundle = _METRICS()
        bundle.requests.inc()
        request_id = None
        admitted = False
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op")
            args = request.get("args") or {}
            if not isinstance(args, dict):
                raise ValueError("'args' must be a JSON object")
            if op in PROBE_OPERATIONS:
                # Probes bypass admission: an overloaded or draining
                # server must still answer its health checks.
                value = (
                    self.health_payload() if op == "health" else self.ready_payload()
                )
                payload = {"id": request_id, "ok": True, "result": value}
                bundle.responses_ok.inc()
                return json.dumps(payload).encode("utf-8") + b"\n"
            if op in ("subscribe", "unsubscribe"):
                payload = self._respond_subscription(
                    op, args, request_id, connection
                )
                bundle.responses_ok.inc()
                return json.dumps(payload).encode("utf-8") + b"\n"
            if not isinstance(op, str) or op not in OPERATIONS:
                raise ValueError(
                    f"unknown operation {op!r}; choose from "
                    f"{list(OPERATIONS) + list(PROBE_OPERATIONS) + ['subscribe', 'unsubscribe']}"
                )
            shed_reason = self._admit()
            if shed_reason is not None:
                payload = self._shed_payload(request_id, shed_reason)
                bundle.responses_error.inc()
                return json.dumps(payload).encode("utf-8") + b"\n"
            admitted = True
            timeout = request.get("timeout")
            result = self.engine.query(
                op,
                timeout_seconds=float(timeout) if timeout is not None else None,
                **args,
            )
            payload = {
                "id": request_id,
                "ok": True,
                "result": result.value,
                "degraded": result.degraded,
                "stale": result.stale,
                "elapsed_ms": round(result.elapsed_seconds * 1000.0, 3),
            }
            bundle.responses_ok.inc()
        except QueryTimeoutError as exc:
            payload = {"id": request_id, "ok": False, "error": str(exc), "timeout": True}
            bundle.responses_error.inc()
        except (ReproError, ValueError, TypeError) as exc:
            payload = {"id": request_id, "ok": False, "error": str(exc)}
            bundle.responses_error.inc()
        finally:
            if admitted:
                self._release()
        return json.dumps(payload).encode("utf-8") + b"\n"

    def _respond_subscription(
        self, op: str, args: dict, request_id, connection: "_Handler | None"
    ) -> dict:
        """Handle the connection-scoped subscription operations."""
        if connection is None:
            raise ValueError(f"{op!r} needs a persistent client connection")
        if op == "subscribe":
            if "v" not in args:
                raise ValueError("subscribe needs args {'v': <vertex>}")
            vertex = int(args["v"])
            connection._next_subscription += 1
            subscription = connection._next_subscription

            def deliver(event, _sid=subscription, _conn=connection) -> None:
                _conn.push({"subscription": _sid, **event.to_payload()})

            token = self.engine.subscribe(vertex, deliver)
            connection._tokens[subscription] = token
            _METRICS().subscriptions.inc()
            return {
                "id": request_id,
                "ok": True,
                "result": subscription,
                "subscription": subscription,
            }
        if "subscription" not in args:
            raise ValueError("unsubscribe needs args {'subscription': <id>}")
        subscription = int(args["subscription"])
        token = connection._tokens.pop(subscription, None)
        cancelled = token is not None and self.engine.unsubscribe(token)
        return {"id": request_id, "ok": True, "result": bool(cancelled)}
