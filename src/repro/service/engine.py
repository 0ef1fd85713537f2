"""Thread-safe query engine over a :class:`CliqueIndex`.

The ROADMAP's north star is *serving* clique results, not just producing
them.  :class:`CliqueQueryEngine` is the layer that makes the persisted
index servable:

* **Thread safety** — the underlying :class:`~repro.storage.bufferpool.BufferPool`
  caches are single-threaded, so all index access funnels through one
  reentrant lock; the engine, not each caller, owns that discipline.
  Those page pools are the only cache: every query is a direct read of
  the index, so an answer can never be older than the index it reads.
* **Per-query timeout** — a deadline is checked at every I/O step; a
  stalled read surfaces as :class:`~repro.errors.QueryTimeoutError`
  rather than a hung service thread.
* **Graceful degradation** — when a paged read fails
  (:class:`~repro.errors.StorageError`, including injected faults and
  CRC mismatches), the engine retries the query as a sequential
  cold-path scan of the record file and flags the answer ``degraded``.
* **Live overlay** — the engine also serves a
  :class:`~repro.live.store.LiveCliqueStore` (detected by its
  ``subscribe`` attribute): answers then reflect every applied update,
  ``stale`` becomes the precise "delta-overlaid" signal, and change
  subscriptions (:meth:`subscribe`) become available.

Every decision emits :mod:`repro.metrics` series under
``repro_service_*`` — queries by type, degradations, timeouts, errors,
stale answers, and a per-query latency histogram.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace

from repro import metrics
from repro.errors import GraphError, QueryTimeoutError, ServiceError
from repro.index.reader import CliqueIndex

#: Query operations the engine (and the wire protocol) understands.
OPERATIONS = (
    "cliques_containing",
    "cliques_containing_edge",
    "clique",
    "membership",
    "top_k_largest",
    "stats",
)

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        queries={
            op: registry.counter(
                "repro_service_queries_total",
                "queries answered by the engine, by operation",
                labels={"op": op},
            )
            for op in OPERATIONS
        },
        degraded=registry.counter(
            "repro_service_degraded_total",
            "queries answered via the cold-path record scan",
        ),
        timeouts=registry.counter(
            "repro_service_timeouts_total", "queries that exceeded their deadline"
        ),
        errors=registry.counter(
            "repro_service_errors_total", "queries that raised a non-timeout error"
        ),
        stale_answers=registry.counter(
            "repro_service_stale_answers_total",
            "answers touching vertices marked stale by graph updates",
        ),
        latency=registry.histogram(
            "repro_service_query_seconds",
            "end-to-end per-query latency",
            buckets=metrics.TIME_BUCKETS,
        ),
    )
)


@dataclass(frozen=True)
class QueryResult:
    """One answered query, with how it was answered."""

    op: str
    value: object
    degraded: bool = False
    stale: bool = False
    elapsed_seconds: float = 0.0


class _Deadline:
    """A per-query budget checked at every I/O step."""

    __slots__ = ("_expires",)

    def __init__(self, timeout_seconds: float | None) -> None:
        self._expires = (
            time.monotonic() + timeout_seconds if timeout_seconds else None
        )

    def check(self, what: str) -> None:
        if self._expires is not None and time.monotonic() > self._expires:
            raise QueryTimeoutError(f"query deadline exceeded during {what}")


class CliqueQueryEngine:
    """Concurrent query front-end over one :class:`CliqueIndex`."""

    def __init__(
        self, index: CliqueIndex, timeout_seconds: float | None = None
    ) -> None:
        self._index = index
        self._timeout = timeout_seconds
        self._io_lock = threading.RLock()
        self._live = hasattr(index, "subscribe")

    @property
    def index(self) -> CliqueIndex:
        """The index this engine serves."""
        return self._index

    @property
    def live(self) -> bool:
        """Whether the served index is a continuously maintained live store."""
        return self._live

    # ------------------------------------------------------------------
    # Public query API
    # ------------------------------------------------------------------
    def query(
        self, op: str, timeout_seconds: float | None = None, **args
    ) -> QueryResult:
        """Answer one query; see :data:`OPERATIONS` for the vocabulary.

        Raises :class:`~repro.errors.ServiceError` for unknown operations
        or bad arguments, :class:`~repro.errors.QueryTimeoutError` past
        the deadline.
        """
        if op not in OPERATIONS:
            raise ServiceError(f"unknown operation {op!r}; choose from {OPERATIONS}")
        bundle = _METRICS()
        deadline = _Deadline(
            timeout_seconds if timeout_seconds is not None else self._timeout
        )
        started = time.perf_counter()
        degraded = False
        try:
            try:
                value, stale = self._fast_path(op, args, deadline)
            except QueryTimeoutError:
                raise
            except (GraphError, ServiceError):
                raise  # caller errors: no fallback will fix a bad argument
            except Exception:
                # Paged read failed (I/O error, CRC mismatch, injected
                # fault): answer from the sequential cold path instead.
                degraded = True
                bundle.degraded.inc()
                value, stale = self._cold_path(op, args, deadline)
        except QueryTimeoutError:
            bundle.timeouts.inc()
            raise
        except (GraphError, ServiceError):
            bundle.errors.inc()
            raise
        except Exception as exc:
            bundle.errors.inc()
            raise ServiceError(f"{op} query failed on both paths: {exc}") from exc
        elapsed = time.perf_counter() - started
        bundle.queries[op].inc()
        bundle.latency.observe(elapsed)
        if stale:
            bundle.stale_answers.inc()
        return QueryResult(
            op=op, value=value, degraded=degraded, stale=stale,
            elapsed_seconds=elapsed,
        )

    # Convenience wrappers mirroring the index API ----------------------
    def cliques_containing(self, v: int) -> QueryResult:
        """Clique ids containing vertex ``v``."""
        return self.query("cliques_containing", v=v)

    def cliques_containing_edge(self, u: int, v: int) -> QueryResult:
        """Clique ids containing the edge ``(u, v)``."""
        return self.query("cliques_containing_edge", u=u, v=v)

    def clique(self, clique_id: int) -> QueryResult:
        """The vertex tuple of one clique id."""
        return self.query("clique", clique_id=clique_id)

    def membership(self, vertices) -> QueryResult:
        """Clique ids containing every vertex of ``vertices``."""
        return self.query("membership", vertices=tuple(sorted(set(vertices))))

    def top_k_largest(self, k: int) -> QueryResult:
        """The ``k`` largest cliques as vertex tuples."""
        return self.query("top_k_largest", k=k)

    def stats(self) -> QueryResult:
        """Index statistics (never touches the data files)."""
        return self.query("stats")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _get_postings(self, vertex: int, deadline: _Deadline) -> tuple[int, ...]:
        deadline.check(f"postings lookup for vertex {vertex}")
        return self._index.postings(vertex)

    def _fast_path(self, op: str, args: dict, deadline: _Deadline):
        with self._io_lock:
            if op == "stats":
                return self._index.stats(), bool(self._index.stale_vertices)
            if op == "cliques_containing":
                v = int(args["v"])
                return list(self._get_postings(v, deadline)), self._index.is_stale(v)
            if op == "cliques_containing_edge":
                u, v = int(args["u"]), int(args["v"])
                if u == v:
                    raise GraphError(f"edge endpoints must differ, got ({u}, {v})")
                first = self._get_postings(u, deadline)
                second = self._get_postings(v, deadline)
                if len(first) > len(second):
                    first, second = second, first
                other = set(second)
                return (
                    [cid for cid in first if cid in other],
                    self._index.is_stale(u, v),
                )
            if op == "membership":
                vertices = sorted(set(int(v) for v in args["vertices"]))
                if not vertices:
                    raise GraphError("membership query needs at least one vertex")
                result: set[int] | None = None
                for v in vertices:
                    postings = self._get_postings(v, deadline)
                    if not postings:
                        return [], self._index.is_stale(*vertices)
                    result = set(postings) if result is None else result & set(postings)
                    if not result:
                        break
                return sorted(result or ()), self._index.is_stale(*vertices)
            if op == "clique":
                cid = int(args["clique_id"])
                deadline.check(f"record read for clique {cid}")
                return list(self._index.clique(cid)), False
            if op == "top_k_largest":
                k = int(args["k"])
                deadline.check("top-k size-order walk")
                value = [list(c) for c in self._index.top_k_largest(k)]
                return value, bool(self._index.stale_vertices)
            raise ServiceError(f"unhandled operation {op!r}")  # pragma: no cover

    def _cold_path(self, op: str, args: dict, deadline: _Deadline):
        """Answer by sequentially scanning the record file.

        Slower but independent of the offsets/postings files and the
        page caches — the paths a fault just broke.
        """
        if op == "stats":
            return self._index.stats(), bool(self._index.stale_vertices)
        stale_set = self._index.stale_vertices

        def records():
            for count, (clique_id, vertices) in enumerate(self._index.scan_cliques()):
                if count % 1024 == 0:
                    deadline.check("cold-path record scan")
                yield clique_id, vertices

        if op == "cliques_containing":
            v = int(args["v"])
            return (
                [cid for cid, vs in records() if v in vs],
                v in stale_set,
            )
        if op == "cliques_containing_edge":
            u, v = int(args["u"]), int(args["v"])
            if u == v:
                raise GraphError(f"edge endpoints must differ, got ({u}, {v})")
            return (
                [cid for cid, vs in records() if u in vs and v in vs],
                bool({u, v} & stale_set),
            )
        if op == "membership":
            wanted = set(int(v) for v in args["vertices"])
            if not wanted:
                raise GraphError("membership query needs at least one vertex")
            return (
                [cid for cid, vs in records() if wanted <= set(vs)],
                bool(wanted & stale_set),
            )
        if op == "clique":
            cid = int(args["clique_id"])
            # A live store's id space is sparse (tombstones, overlay adds
            # past the base); ``id_space`` bounds it, num_cliques does not.
            bound = getattr(self._index, "id_space", self._index.num_cliques)
            if not 0 <= cid < bound:
                raise GraphError(f"clique id {cid} out of range [0, {bound})")
            for found, vertices in records():
                if found == cid:
                    return list(vertices), False
            raise ServiceError(f"clique {cid} missing from the record file")
        if op == "top_k_largest":
            k = int(args["k"])
            if k <= 0:
                raise GraphError(f"k must be positive, got {k}")
            winners = heapq.nsmallest(
                k, (((-len(vs), cid), vs) for cid, vs in records())
            )
            return [list(vs) for _key, vs in winners], bool(stale_set)
        raise ServiceError(f"unhandled operation {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cheap liveness facts for the server's ``health`` probe.

        Never touches the data files: everything here comes from
        in-memory state (plus the live store's own :meth:`health` when
        it offers one), so the probe stays answerable under the exact
        I/O faults that would fail a real query.
        """
        payload = {
            "live": self._live,
            "generation": getattr(self._index, "generation_number", 0),
        }
        store_health = getattr(self._index, "health", None)
        if callable(store_health):
            payload["store"] = store_health()
        return payload

    # ------------------------------------------------------------------
    # Change subscriptions (live stores only)
    # ------------------------------------------------------------------
    def subscribe(self, vertex: int, callback) -> int:
        """Notify ``callback(event)`` when a clique containing ``vertex``
        appears or dies; returns a token for :meth:`unsubscribe`.

        Only a live store can change under the engine, so this raises
        :class:`~repro.errors.ServiceError` over a frozen index.
        Callbacks fire on the writer thread after the triggering delta is
        durable and visible to queries.
        """
        if not self._live:
            raise ServiceError(
                "change subscriptions need a live store; this engine serves "
                "a frozen index"
            )
        return self._index.subscribe(int(vertex), callback)

    def unsubscribe(self, token: int) -> bool:
        """Cancel one subscription; returns whether it existed."""
        if not self._live:
            raise ServiceError(
                "change subscriptions need a live store; this engine serves "
                "a frozen index"
            )
        return self._index.unsubscribe(token)
