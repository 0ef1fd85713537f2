"""Edge-stream ingestion: maintainer updates → clique deltas → live store.

:class:`LiveIngestor` closes the loop the ROADMAP calls "from stale
flags to incremental index maintenance".  It hangs off
:meth:`~repro.dynamic.maintainer.HStarMaintainer.register_update_hook`,
so every edge event flows through the paper's Section 5 maintenance of
``T_H*`` first; the hook then computes the event's effect on the *full*
maximal-clique set (:mod:`repro.live.deltas`) and applies it to the
:class:`~repro.live.store.LiveCliqueStore` — durably logged, overlay
applied, subscribers notified — before the next event is admitted.

The hook fires after the maintainer mutates the graph and before the
store applies the deltas.  The delta rules read only the updated
adjacency around the endpoints; the store's (not yet updated) clique
set is consulted solely when an inserted edge's endpoint was isolated,
to tell a stored singleton clique from a vertex the event created — one
postings read on a rare event instead of two per update.  The store then
finds each delta's clique by fingerprint (one page and one record read),
and the maintainer moves single vertices when the core changes, so no
step of an update scales with the base index or the star.  Events come
in the ``(timestamp, u, v)`` shape
:mod:`repro.generators.streams` produces, optionally extended with an
operation tag for deletions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.dynamic.maintainer import HStarMaintainer
from repro.errors import GraphError
from repro.live.deltas import delete_edge_deltas, insert_edge_deltas
from repro.live.store import LiveCliqueStore


@dataclass
class IngestReport:
    """Counters for one ingestion session."""

    edges_applied: int = 0
    insertions: int = 0
    deletions: int = 0
    deltas_emitted: int = 0
    cliques_added: int = 0
    cliques_removed: int = 0
    seconds: float = 0.0

    extra: dict = field(default_factory=dict)

    @property
    def updates_per_second(self) -> float:
        """Sustained edge-update throughput of the session."""
        if self.seconds <= 0.0:
            return 0.0
        return self.edges_applied / self.seconds

    def to_payload(self) -> dict:
        """JSON-able summary."""
        return {
            "edges_applied": self.edges_applied,
            "insertions": self.insertions,
            "deletions": self.deletions,
            "deltas_emitted": self.deltas_emitted,
            "cliques_added": self.cliques_added,
            "cliques_removed": self.cliques_removed,
            "seconds": self.seconds,
            "updates_per_second": self.updates_per_second,
            **self.extra,
        }


class LiveIngestor:
    """Drives a maintainer and mirrors every update into a live store.

    Examples
    --------
    >>> import tempfile
    >>> from repro.dynamic.maintainer import HStarMaintainer
    >>> from repro.live.store import LiveCliqueStore
    >>> directory = tempfile.mkdtemp()
    >>> store = LiveCliqueStore.initialize(directory)
    >>> ingestor = LiveIngestor(HStarMaintainer(), store)
    >>> ingestor.ingest([(0, 1, 2), (1, 2, 3), (2, 1, 3)])
    3
    >>> sorted(store.live_cliques())
    [(1, 2, 3)]
    >>> store.close()
    """

    def __init__(self, maintainer: HStarMaintainer, store: LiveCliqueStore) -> None:
        self._maintainer = maintainer
        self._store = store
        self.report = IngestReport()
        maintainer.register_update_hook(self._on_update)

    @property
    def maintainer(self) -> HStarMaintainer:
        """The driven maintainer (its graph is the source of truth)."""
        return self._maintainer

    @property
    def store(self) -> LiveCliqueStore:
        """The live store mirroring the maintainer's clique set."""
        return self._store

    # ------------------------------------------------------------------
    # The maintainer hook: one applied edge → one delta batch
    # ------------------------------------------------------------------
    def _on_update(self, kind: str, u: int, v: int) -> None:
        if kind == "insert":
            deltas = insert_edge_deltas(self._maintainer.graph, u, v, self._lookup)
            self.report.insertions += 1
        elif kind == "delete":
            deltas = delete_edge_deltas(self._maintainer.graph, u, v, self._lookup)
            self.report.deletions += 1
        else:
            raise GraphError(f"unknown maintainer update kind {kind!r}")
        self.report.edges_applied += 1
        if not deltas:
            return
        stamped = self._store.apply_deltas(deltas)
        self.report.deltas_emitted += len(stamped)
        for delta in stamped:
            if delta.kind == "add":
                self.report.cliques_added += 1
            else:
                self.report.cliques_removed += 1

    def _lookup(self, vertex: int) -> list[tuple[int, ...]]:
        """Current maximal cliques containing ``vertex`` (pre-update view;
        asked only about a formerly isolated insert endpoint)."""
        return self._store.vertex_cliques(vertex)

    # ------------------------------------------------------------------
    # Stream entry points
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Apply one edge insertion end to end."""
        self._maintainer.insert_edge(u, v)

    def delete_edge(self, u: int, v: int) -> None:
        """Apply one edge deletion end to end."""
        self._maintainer.delete_edge(u, v)

    def apply_event(self, event: tuple) -> None:
        """Apply one stream event (the unit :meth:`ingest` loops over)."""
        if len(event) == 3:
            _, u, v = event
            self._maintainer.insert_edge(u, v)
        elif len(event) == 4:
            _, op, u, v = event
            if op == "insert":
                self._maintainer.insert_edge(u, v)
            elif op == "delete":
                self._maintainer.delete_edge(u, v)
            else:
                raise GraphError(f"unknown stream operation {op!r}")
        else:
            raise GraphError(
                f"stream events are (ts, u, v) or (ts, op, u, v); got {event!r}"
            )

    def reapply_event(self, event: tuple) -> None:
        """Idempotently re-apply an event a crashed worker may have half-done.

        The hazard: the maintainer mutates its graph *before* the update
        hook logs the store deltas, so a worker that died in between
        leaves the edge in the graph with the clique set not yet updated
        — and a naive retry is a no-op, because the maintainer never
        fires the hook for an edge it already holds.  This path closes
        that window: when the graph already reflects the event, the
        deltas are recomputed from the post-update adjacency and applied
        with ``idempotent=True`` (already-applied ones drop out); when it
        does not, the event simply applies normally.  Either way the
        store converges to exactly-once effects from at-least-once
        delivery.
        """
        if len(event) == 3:
            op, u, v = "insert", event[1], event[2]
        elif len(event) == 4:
            _, op, u, v = event
            if op not in ("insert", "delete"):
                raise GraphError(f"unknown stream operation {op!r}")
        else:
            raise GraphError(
                f"stream events are (ts, u, v) or (ts, op, u, v); got {event!r}"
            )
        graph = self._maintainer.graph
        present = u in graph and v in graph and graph.has_edge(u, v)
        if op == "insert":
            if not present:
                self._maintainer.insert_edge(u, v)
                return
            deltas = insert_edge_deltas(graph, u, v, self._lookup)
        else:
            if present:
                self._maintainer.delete_edge(u, v)
                return
            if u not in graph or v not in graph:
                return  # the deletion fully landed before the crash
            deltas = delete_edge_deltas(graph, u, v, self._lookup)
        stamped = self._store.apply_deltas(deltas, idempotent=True)
        self.report.deltas_emitted += len(stamped)
        for delta in stamped:
            if delta.kind == "add":
                self.report.cliques_added += 1
            else:
                self.report.cliques_removed += 1

    def ingest(self, events: Iterable[tuple]) -> int:
        """Replay a timestamped event stream; returns edges applied.

        Events are ``(timestamp, u, v)`` insertions (the
        :mod:`repro.generators.streams` shape) or
        ``(timestamp, op, u, v)`` with ``op`` in ``{"insert", "delete"}``
        for mixed workloads.  Duplicate insertions are silently skipped
        (the maintainer never fires the hook for them).
        """
        before = self.report.edges_applied
        started = time.perf_counter()
        for event in events:
            self.apply_event(event)
        self.report.seconds += time.perf_counter() - started
        return self.report.edges_applied - before


def maintainer_from_store(store: LiveCliqueStore) -> HStarMaintainer:
    """A maintainer whose graph mirrors the store's current clique set.

    The supervisor's restart factory: after a WAL resync the store is
    the source of truth, and since every edge lies in some maximal
    clique (and every isolated vertex is a size-1 clique), the live
    cliques reconstruct the exact graph.
    """
    from repro.graph.adjacency import AdjacencyGraph

    graph = AdjacencyGraph()
    for clique in store.live_cliques():
        for v in clique:
            if v not in graph:
                graph.add_vertex(v)
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                graph.add_edge(u, v)
    return HStarMaintainer(graph)


def bootstrap_live_store(
    directory,
    graph,
    workdir,
    **store_kwargs,
) -> LiveCliqueStore:
    """Initialise a live store from a fresh enumeration of ``graph``.

    Runs ExtMCE over a disk snapshot (the enumerate-once pipeline) and
    seeds generation 0 with the result, so ingestion starts from a base
    index instead of an all-overlay tail.
    """
    from pathlib import Path

    from repro.core.extmce import ExtMCE, ExtMCEConfig
    from repro.storage.diskgraph import DiskGraph

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    disk = DiskGraph.create(workdir / "bootstrap.bin", graph)
    algo = ExtMCE(disk, ExtMCEConfig(workdir=workdir))
    try:
        cliques = [tuple(sorted(clique)) for clique in algo.enumerate_cliques()]
    finally:
        disk.delete()
    return LiveCliqueStore.initialize(directory, cliques, **store_kwargs)
