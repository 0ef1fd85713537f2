"""Generational live clique store: base index + WAL delta tail.

:class:`LiveCliqueStore` turns the one-shot :mod:`repro.index` snapshot
into a continuously maintained serving structure.  State on disk::

    live_dir/
      LIVE_MANIFEST.json    commit point (schema repro.live/1)
      gen-000000/           a full repro.index directory (the *base*)
      wal-000000.log        CRC32 delta log(s) newer than the base

and in memory, the *delta tail*: every logged delta not yet folded into
the base generation, indexed for overlay reads (added cliques with their
live ids, tombstoned base ids, per-vertex overlay postings).  Applying
a delta looks its clique up exactly: an added clique by its vertex
tuple in memory, a base clique with
:meth:`~repro.index.reader.CliqueIndex.find` (one fingerprint page plus
one record read), so the write path never scales with the base.

Reads present the :class:`~repro.index.reader.CliqueIndex` surface —
``postings`` / ``clique`` / ``clique_size`` / ``top_k_largest`` /
``scan_cliques`` / ``stats`` / ``is_stale`` — so
:class:`~repro.service.engine.CliqueQueryEngine` serves a live store the
same way it serves a frozen index.  ``is_stale`` keeps its name but
flips meaning: it is now the *precise* "this vertex's answer is
delta-overlaid" signal, not a "possibly outdated" apology.

Writes (:meth:`apply_deltas`) are WAL-first: deltas are stamped with
monotonically increasing sequence numbers, durably appended (fsync),
and only then applied to the overlay — a crash after the append replays
them; a crash during it leaves a torn tail the recovery truncates.

Compaction folds the tail into a fresh index generation without ever
blocking readers:

1. **rotate** — create the next WAL, commit a manifest listing *both*
   logs, and move the writer over; the old log is now frozen.
2. **build** — outside the store lock, :func:`~repro.index.builder.merge_index`
   the base generation's files (never the serving reader) with the
   overlay as it stood at rotation — tombstoned base ids out, added
   cliques in — into the next generation directory, or
   :func:`~repro.index.builder.build_index` the additions when there is
   no base.  Surviving records are copied as CRC-checked bytes, so a
   fold costs one pass over the base files plus its tail, never a
   re-encode of unchanged records.  A crash here leaves a directory
   without an index manifest, which recovery deletes.
3. **commit** — atomically swap the live manifest to the new generation
   and single WAL, then (under the lock, briefly) swap the in-memory
   base and drop the folded tail entries.
4. **cleanup** — delete the previous generation and frozen log.

A crash between any two steps recovers to a consistent store: the
manifest is the single commit point, and everything it does not
reference is garbage to collect.  Fault injection reaches each step
through the plan's ``"compaction"`` operation site.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import shutil
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro import metrics
from repro.errors import GraphError, StorageError, StorageIOError
from repro.index.builder import build_index, merge_index
from repro.index.reader import CliqueIndex
from repro.live.deltas import ADD, REMOVE, CliqueDelta
from repro.live.wal import DeltaLogWriter, ReplayReport, replay_delta_log
from repro.storage.iostats import IOStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

#: Live-store manifest filename and schema (bump on layout changes).
LIVE_MANIFEST_FILENAME = "LIVE_MANIFEST.json"
LIVE_MANIFEST_SCHEMA = "repro.live/1"

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        deltas={
            kind: registry.counter(
                "repro_live_deltas_applied_total",
                "clique deltas applied to the overlay, by kind",
                labels={"kind": kind},
            )
            for kind in (ADD, REMOVE)
        },
        tail=registry.gauge(
            "repro_live_tail_deltas", "unfolded deltas overlaying the base index"
        ),
        compactions=registry.counter(
            "repro_live_compactions_total", "completed compactions"
        ),
        compaction_failures=registry.counter(
            "repro_live_compaction_failures_total", "compactions aborted by errors"
        ),
        compaction_seconds=registry.histogram(
            "repro_live_compaction_seconds",
            "wall time per compaction",
            buckets=metrics.TIME_BUCKETS,
        ),
        recovered=registry.counter(
            "repro_live_recovered_deltas_total", "deltas replayed during open()"
        ),
        events=registry.counter(
            "repro_live_subscription_events_total", "events delivered to subscribers"
        ),
    )
)


def _commit_json(directory: Path, filename: str, payload: dict) -> None:
    """Durably commit a JSON file (scratch → fsync → rename → dir fsync)."""
    target = directory / filename
    scratch = directory / (filename + ".tmp")
    try:
        with open(scratch, "w", encoding="ascii") as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=2))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, target)
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise StorageError(f"failed to commit {target}: {exc}") from exc


class SubscriptionEvent:
    """One delivered change notification."""

    __slots__ = ("vertex", "kind", "vertices", "seq")

    def __init__(self, vertex: int, kind: str, vertices: tuple[int, ...], seq: int) -> None:
        self.vertex = vertex
        #: ``"clique_added"`` or ``"clique_removed"``.
        self.kind = kind
        self.vertices = vertices
        self.seq = seq

    def to_payload(self) -> dict:
        """JSON-able wire form (the server pushes exactly this)."""
        return {
            "vertex": self.vertex,
            "event": self.kind,
            "clique": list(self.vertices),
            "seq": self.seq,
        }


class LiveCliqueStore:
    """Continuously maintained clique index: base generation + delta tail."""

    def __init__(
        self,
        directory: str | Path,
        cache_pages: int = 64,
        verify_checksums: bool = True,
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
        fsync: bool = True,
    ) -> None:
        self._directory = Path(directory)
        self._cache_pages = cache_pages
        self._verify = verify_checksums
        self._io = io_stats if io_stats is not None else IOStats()
        self._faults = fault_plan
        self._fsync = fsync
        self._lock = threading.RLock()
        self._base: CliqueIndex | None = None
        self._retired: list[CliqueIndex] = []
        self._tombstones: set[int] = set()
        self._added: dict[int, tuple[int, ...]] = {}
        self._added_ids: dict[tuple[int, ...], int] = {}
        self._overlay_postings: dict[int, set[int]] = {}
        self._overlaid: set[int] = set()
        self._tail: list[CliqueDelta] = []
        self._next_seq = 1
        self._next_id = 0
        self._generation_number = 0
        self._wal_number = 0
        self._wal: DeltaLogWriter | None = None
        self._subscribers: dict[int, dict[int, Callable]] = {}
        self._next_subscription = 1
        self._closed = False
        self._compactor: _BackgroundCompactor | None = None
        self._load()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def initialize(
        cls,
        directory: str | Path,
        cliques: Iterable[frozenset | tuple] = (),
        **kwargs,
    ) -> "LiveCliqueStore":
        """Create a fresh live store, optionally seeded with a clique set.

        With ``cliques`` (a full enumeration of the starting graph) the
        base generation is built immediately; without, the store starts
        empty and every clique arrives through deltas.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / LIVE_MANIFEST_FILENAME).exists():
            raise StorageError(f"{directory} already holds a live store")
        ordered = sorted({tuple(sorted(clique)) for clique in cliques})
        generation = None
        if ordered:
            generation = "gen-000000"
            build_index(ordered, directory / generation)
        DeltaLogWriter.create(directory / "wal-000000.log").close()
        _commit_json(directory, LIVE_MANIFEST_FILENAME, {
            "schema": LIVE_MANIFEST_SCHEMA,
            "generation": generation,
            "generation_number": 0,
            "wals": ["wal-000000.log"],
            "wal_number": 0,
            "base_seq": 0,
        })
        return cls(directory, **kwargs)

    @classmethod
    def open(cls, directory: str | Path, **kwargs) -> "LiveCliqueStore":
        """Open an existing live store (alias for the constructor)."""
        return cls(directory, **kwargs)

    def _load(self) -> None:
        """Recover to the manifest's consistent state.

        Strays — generation directories and WALs the manifest does not
        reference, scratch files, half-built generations — are deleted;
        referenced WALs are replayed (the newest may carry a torn tail,
        which is truncated); the tail overlay is rebuilt in memory.
        """
        manifest_path = self._directory / LIVE_MANIFEST_FILENAME
        if not manifest_path.exists():
            raise StorageError(
                f"{self._directory} is not a live clique store "
                f"(missing {LIVE_MANIFEST_FILENAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except (ValueError, UnicodeError) as exc:
            raise StorageError(
                f"malformed live manifest at {manifest_path}: {exc}"
            ) from exc
        if manifest.get("schema") != LIVE_MANIFEST_SCHEMA:
            raise StorageError(
                f"unsupported live-store schema {manifest.get('schema')!r} "
                f"(expected {LIVE_MANIFEST_SCHEMA})"
            )
        generation = manifest["generation"]
        wals = list(manifest["wals"])
        self._generation_number = int(manifest["generation_number"])
        self._wal_number = int(manifest["wal_number"])
        base_seq = int(manifest["base_seq"])

        # Garbage-collect everything the manifest does not reference.
        referenced = set(wals) | ({generation} if generation else set())
        for entry in sorted(self._directory.iterdir()):
            if entry.name in referenced or entry.name == LIVE_MANIFEST_FILENAME:
                continue
            if entry.name.startswith("gen-") and entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            elif entry.name.startswith("wal-") or entry.name.endswith(".tmp"):
                if entry.is_file():
                    entry.unlink(missing_ok=True)

        if generation is not None:
            self._base = CliqueIndex(
                self._directory / generation,
                cache_pages=self._cache_pages,
                verify_checksums=self._verify,
                io_stats=self._io,
                fault_plan=self._faults,
            )
            self._next_id = self._base.num_cliques
        self._next_seq = base_seq + 1

        # Replay the referenced logs, oldest first; only the newest may
        # legitimately end in a torn tail (older ones were frozen whole).
        recovered = 0
        for position, name in enumerate(wals):
            last = position == len(wals) - 1
            path = self._directory / name
            if last:
                writer, deltas = DeltaLogWriter.open_for_append(
                    path, io_stats=self._io, fault_plan=self._faults,
                    fsync=self._fsync,
                )
                self._wal = writer
            else:
                report = ReplayReport()
                deltas = list(replay_delta_log(
                    path, recover_tail=False, io_stats=self._io, report=report,
                ))
            for delta in deltas:
                if delta.seq <= base_seq:
                    continue  # already folded into the base generation
                self._apply_to_overlay(delta)
                self._tail.append(delta)
                self._next_seq = max(self._next_seq, delta.seq + 1)
                recovered += 1
        if recovered:
            _METRICS().recovered.inc(recovered)
        _METRICS().tail.set(len(self._tail))
        self._wal_names = wals

    def close(self) -> None:
        """Stop the background compactor and release every reader."""
        compactor = self._compactor
        if compactor is not None:
            compactor.stop()
            self._compactor = None
        with self._lock:
            self._closed = True
            if self._wal is not None:
                self._wal.close()
            if self._base is not None:
                self._base.close()
                self._base = None
            for index in self._retired:
                index.close()
            self._retired = []

    def __enter__(self) -> "LiveCliqueStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The live-store directory on disk."""
        return self._directory

    @property
    def io_stats(self) -> IOStats:
        """The I/O counters the store's readers and logs report to."""
        return self._io

    @property
    def generation(self) -> str | None:
        """Name of the current base generation (``None`` when empty)."""
        with self._lock:
            return (
                f"gen-{self._generation_number:06d}" if self._base is not None else None
            )

    @property
    def generation_number(self) -> int:
        """Monotonic counter bumped at every compaction swap.

        Read without the lock (a plain int read is atomic); the query
        engine's ``health`` probe reports it.  Clique ids are scoped to
        one generation: a swap renumbers them.
        """
        return self._generation_number

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently applied delta."""
        with self._lock:
            return self._next_seq - 1

    @property
    def tail_length(self) -> int:
        """Deltas applied but not yet folded into a generation."""
        with self._lock:
            return len(self._tail)

    @property
    def num_cliques(self) -> int:
        """Maximal cliques currently live (base minus tombstones plus adds)."""
        with self._lock:
            base = self._base.num_cliques if self._base is not None else 0
            return base - len(self._tombstones) + len(self._added)

    @property
    def id_space(self) -> int:
        """Exclusive upper bound of ever-assigned live clique ids.

        Live ids are *generation-scoped* and non-contiguous: base ids
        keep their ranks, added cliques extend past them, removals leave
        holes.  Compaction re-ranks everything.
        """
        with self._lock:
            return self._next_id

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def apply_deltas(
        self, deltas: Iterable[CliqueDelta], idempotent: bool = False
    ) -> list[CliqueDelta]:
        """Durably log and apply a batch of deltas; returns them stamped.

        WAL-first: the batch is sequence-stamped and fsynced before the
        overlay mutates, so an acknowledged batch survives a crash and a
        failed append changes nothing in memory.

        With ``idempotent=True``, adds for already-live cliques and
        removes for unknown ones are silently dropped *before* the WAL
        append (so the log never carries no-op records) instead of
        raising :class:`~repro.errors.StorageError`.  This is the
        supervisor's re-apply mode: after a crashed ingest worker is
        restarted through :meth:`resync`, recomputed deltas may overlap
        what the WAL already holds, and replaying them must converge
        rather than fail.
        """
        events: list[SubscriptionEvent] = []
        callbacks: list[tuple[Callable, SubscriptionEvent]] = []
        with self._lock:
            self._check_writable()
            effective = list(deltas)
            if idempotent:
                kept = []
                pending: dict[tuple[int, ...], bool] = {}  # intra-batch liveness
                for delta in effective:
                    vertices = tuple(delta.vertices)
                    live = pending.get(
                        vertices, self._live_id_of(vertices) is not None
                    )
                    if (delta.kind == ADD) == live:
                        continue  # add of a live clique / remove of a dead one
                    pending[vertices] = delta.kind == ADD
                    kept.append(delta)
                effective = kept
            stamped = []
            for delta in effective:
                stamped.append(delta.stamped(self._next_seq + len(stamped)))
            if not stamped:
                return []
            assert self._wal is not None
            self._wal.append(stamped)
            self._next_seq += len(stamped)
            bundle = _METRICS()
            for delta in stamped:
                self._apply_to_overlay(delta)
                self._tail.append(delta)
                bundle.deltas[delta.kind].inc()
                events.extend(self._events_for(delta))
            bundle.tail.set(len(self._tail))
            for event in events:
                for callback in self._subscribers.get(event.vertex, {}).values():
                    callbacks.append((callback, event))
            compactor = self._compactor
        if compactor is not None and len(self._tail) >= compactor.tail_threshold:
            compactor.poke()
        # Subscriber callbacks run outside the store lock: a callback
        # that re-enters the engine or the store must never deadlock
        # against a concurrent reader.
        delivered = 0
        for callback, event in callbacks:
            callback(event)
            delivered += 1
        if delivered:
            _METRICS().events.inc(delivered)
        return stamped

    def _check_writable(self) -> None:
        if self._closed:
            raise StorageError(f"live store {self._directory} is closed")

    def _apply_to_overlay(self, delta: CliqueDelta) -> None:
        vertices = tuple(delta.vertices)
        if delta.kind == ADD:
            if self._live_id_of(vertices) is not None:
                raise StorageError(
                    f"add delta (seq {delta.seq}) for already-live clique "
                    f"{list(vertices)}"
                )
            clique_id = self._next_id
            self._next_id += 1
            self._added[clique_id] = vertices
            self._added_ids[vertices] = clique_id
            for v in vertices:
                self._overlay_postings.setdefault(v, set()).add(clique_id)
            self._overlaid.update(vertices)
            return
        live_id = self._live_id_of(vertices)
        if live_id is None:
            raise StorageError(
                f"remove delta (seq {delta.seq}) for unknown clique {list(vertices)}"
            )
        if live_id in self._added:
            del self._added[live_id]
            del self._added_ids[vertices]
            for v in vertices:
                postings = self._overlay_postings.get(v)
                if postings is not None:
                    postings.discard(live_id)
                    if not postings:
                        del self._overlay_postings[v]
        else:
            self._tombstones.add(live_id)
        self._overlaid.update(vertices)

    def _live_id_of(self, vertices: tuple[int, ...]) -> int | None:
        """The live id of exactly this clique, or ``None``.

        An overlay add answers from memory; a base clique costs one
        fingerprint-page read plus one record read (:meth:`CliqueIndex.find`).
        """
        overlay = self._added_ids.get(vertices)
        if overlay is not None:
            return overlay
        if self._base is None:
            return None
        clique_id = self._base.find(vertices)
        if clique_id is None or clique_id in self._tombstones:
            return None
        return clique_id

    def _events_for(self, delta: CliqueDelta) -> list[SubscriptionEvent]:
        if not self._subscribers:
            return []
        kind = "clique_added" if delta.kind == ADD else "clique_removed"
        return [
            SubscriptionEvent(v, kind, tuple(delta.vertices), delta.seq)
            for v in delta.vertices
            if v in self._subscribers
        ]

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, vertex: int, callback: Callable) -> int:
        """Notify ``callback(event)`` when a clique containing ``vertex``
        appears or dies; returns a subscription id for :meth:`unsubscribe`.

        Callbacks run on the writer thread, outside the store lock, after
        the triggering delta is durable and visible to reads.
        """
        with self._lock:
            token = self._next_subscription
            self._next_subscription += 1
            self._subscribers.setdefault(int(vertex), {})[token] = callback
            return token

    def unsubscribe(self, token: int) -> bool:
        """Cancel one subscription; returns whether it existed."""
        with self._lock:
            for vertex, subs in list(self._subscribers.items()):
                if token in subs:
                    del subs[token]
                    if not subs:
                        del self._subscribers[vertex]
                    return True
            return False

    @property
    def subscription_count(self) -> int:
        """Active subscriptions across all vertices."""
        with self._lock:
            return sum(len(subs) for subs in self._subscribers.values())

    # ------------------------------------------------------------------
    # Reads (CliqueIndex-compatible surface)
    # ------------------------------------------------------------------
    def postings(self, vertex: int) -> tuple[int, ...]:
        """Live clique ids containing ``vertex``, ascending."""
        with self._lock:
            base_ids: Iterable[int] = ()
            if self._base is not None:
                base_ids = self._base.postings(vertex)
            live = [cid for cid in base_ids if cid not in self._tombstones]
            live.extend(self._overlay_postings.get(vertex, ()))
            return tuple(sorted(live))

    def vertex_cliques(self, vertex: int) -> list[tuple[int, ...]]:
        """The live cliques containing ``vertex``, read under one lock hold.

        A compaction swap renumbers clique ids, so :meth:`postings`
        followed by :meth:`clique` may not straddle one.
        """
        with self._lock:
            return [self.clique(cid) for cid in self.postings(vertex)]

    def cliques_containing(self, vertex: int) -> tuple[int, ...]:
        """Alias of :meth:`postings` (mirrors :class:`CliqueIndex`)."""
        return self.postings(vertex)

    def clique(self, clique_id: int) -> tuple[int, ...]:
        """The sorted vertex tuple of live clique ``clique_id``."""
        with self._lock:
            added = self._added.get(clique_id)
            if added is not None:
                return added
            base = self._base.num_cliques if self._base is not None else 0
            if not 0 <= clique_id < base or clique_id in self._tombstones:
                raise GraphError(f"clique id {clique_id} is not live")
            assert self._base is not None
            return self._base.clique(clique_id)

    def clique_size(self, clique_id: int) -> int:
        """Cardinality of live clique ``clique_id``."""
        with self._lock:
            added = self._added.get(clique_id)
            if added is not None:
                return len(added)
            base = self._base.num_cliques if self._base is not None else 0
            if not 0 <= clique_id < base or clique_id in self._tombstones:
                raise GraphError(f"clique id {clique_id} is not live")
            assert self._base is not None
            return self._base.clique_size(clique_id)

    def top_k_largest(self, k: int) -> list[tuple[int, ...]]:
        """The ``k`` largest live cliques (ties by canonical live order).

        Merges the base's size-ordered walk, tombstones skipped, with the
        overlay additions keyed the same way, ``(-size, id)``, and stops
        after ``k``.  Added ids lie past every base id, so on a size tie
        a base clique comes first, as in live id order.
        """
        if k <= 0:
            raise GraphError(f"k must be positive, got {k}")
        with self._lock:
            base: Iterable[tuple[int, int]] = ()
            if self._base is not None:
                base = (
                    key for key in self._base.size_ranked()
                    if key[1] not in self._tombstones
                )
            added = sorted((-len(vs), cid) for cid, vs in self._added.items())
            winners = itertools.islice(heapq.merge(base, added), k)
            return [self.clique(cid) for _neg, cid in winners]

    def scan_cliques(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Stream every live ``(clique_id, vertices)`` pair.

        Base records come off the generation's record file (tombstones
        skipped), then the overlay additions in id order.  Taken as a
        whole snapshot under the lock so a concurrent writer cannot tear
        the stream.
        """
        with self._lock:
            results: list[tuple[int, tuple[int, ...]]] = []
            if self._base is not None:
                for clique_id, vertices in self._base.scan_cliques():
                    if clique_id not in self._tombstones:
                        results.append((clique_id, vertices))
            for clique_id in sorted(self._added):
                results.append((clique_id, self._added[clique_id]))
        return iter(results)

    def live_cliques(self) -> set[tuple[int, ...]]:
        """The current maximal-clique set as vertex tuples."""
        return {vertices for _cid, vertices in self.scan_cliques()}

    def stats(self) -> dict:
        """Store-wide statistics: base manifest counts plus overlay state."""
        with self._lock:
            if self._base is not None:
                payload = self._base.stats()
            else:
                payload = {
                    "num_cliques": 0, "num_vertices": 0, "num_postings": 0,
                    "max_clique_size": 0, "size_histogram": {},
                    "stale_vertices": 0, "bytes_by_file": {},
                }
            payload["live"] = {
                "generation": self.generation,
                "num_cliques": self.num_cliques,
                "tail_deltas": len(self._tail),
                "added": len(self._added),
                "tombstones": len(self._tombstones),
                "overlaid_vertices": len(self._overlaid),
                "last_seq": self._next_seq - 1,
                "subscriptions": self.subscription_count,
            }
            payload["num_cliques"] = payload["live"]["num_cliques"]
            payload["stale_vertices"] = len(self._overlaid)
            return payload

    # Delta-overlay signal (the engine reads these as "stale") ----------
    @property
    def stale_vertices(self) -> frozenset[int]:
        """Vertices whose answers are overlaid by unfolded deltas."""
        with self._lock:
            return frozenset(self._overlaid)

    def is_stale(self, *vertices: int) -> bool:
        """Whether any of ``vertices`` is delta-overlaid.

        Unlike a frozen index's stale flag this is *precise*: the answer
        served for an overlaid vertex already reflects every applied
        update; the flag only says the base generation alone would have
        been wrong.
        """
        with self._lock:
            return any(v in self._overlaid for v in vertices)

    def flush_wal(self) -> None:
        """Force the WAL durable now.

        Graceful drain calls this before the process exits, so an
        acknowledged update survives SIGTERM even on a store opened with
        ``fsync=False`` for ingest throughput.
        """
        with self._lock:
            if self._wal is not None and not self._closed:
                self._wal.sync()

    def resync(self) -> int:
        """Rebuild the in-memory state from disk; returns the tail length.

        The supervisor's recovery primitive: after an ingest worker died
        mid-call, the in-memory overlay may be mid-batch, but the disk is
        authoritative — WAL-first writes mean exactly the acknowledged
        batches are logged.  Dropping the overlay and replaying the
        manifest + WALs restores exactly that state.  Subscriptions and
        the background compactor survive the resync.
        """
        with self._lock:
            self._check_writable()
            if self._base is not None:
                # A degraded cold-path reader may still hold a scan
                # generator over the old base; retire instead of closing.
                self._retired.append(self._base)
                self._base = None
            if self._wal is not None:
                self._wal.close()
                self._wal = None
            self._tombstones = set()
            self._added = {}
            self._added_ids = {}
            self._overlay_postings = {}
            self._overlaid = set()
            self._tail = []
            self._next_seq = 1
            self._next_id = 0
            self._load()
            return len(self._tail)

    def health(self) -> dict:
        """Cheap liveness facts (feeds the server's ``health`` probe)."""
        with self._lock:
            compactor = self._compactor
            return {
                "closed": self._closed,
                "generation_number": self._generation_number,
                "tail_deltas": len(self._tail),
                "last_seq": self._next_seq - 1,
                "wal_files": len(self._wal_names),
                "compactor_alive": bool(
                    compactor is not None and compactor.is_alive()
                ),
                "compactions": compactor.compactions if compactor is not None else 0,
                "compaction_errors": compactor.errors if compactor is not None else 0,
            }

    def verify(self) -> dict:
        """Audit the base generation and the overlay's cross-consistency."""
        with self._lock:
            summary = {"records_verified": 0, "vertices_verified": 0,
                       "postings_verified": 0}
            if self._base is not None:
                summary = self._base.verify()
            for clique_id, vertices in self._added.items():
                for v in vertices:
                    if clique_id not in self._overlay_postings.get(v, ()):
                        raise StorageError(
                            f"overlay clique {clique_id} missing from postings "
                            f"of vertex {v}"
                        )
            for v, ids in self._overlay_postings.items():
                for clique_id in ids:
                    if v not in self._added.get(clique_id, ()):
                        raise StorageError(
                            f"overlay postings of vertex {v} reference clique "
                            f"{clique_id} that does not contain it"
                        )
            base = self._base.num_cliques if self._base is not None else 0
            for clique_id in self._tombstones:
                if not 0 <= clique_id < base:
                    raise StorageError(f"tombstone {clique_id} outside the base")
            summary["tail_deltas"] = len(self._tail)
            summary["overlay_cliques"] = len(self._added)
            return summary

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> str | None:
        """Fold the delta tail into a fresh generation; returns its name.

        Readers are never blocked: the build runs outside the store lock,
        merging the base generation's files with a snapshot of the
        overlay; only the final swap takes the lock, briefly.  Returns
        ``None`` when there was nothing to fold.  On any error the store
        keeps serving from the current generation and tail unchanged.
        """
        with self._lock:
            self._check_writable()
            if not self._tail:
                return None
            folded_seq = self._next_seq - 1
            # The overlay is exactly the folded tail's effect on the base.
            removed = frozenset(self._tombstones)
            added = sorted(self._added.values())
            live_count = self.num_cliques
            old_generation = self.generation
            old_wals = list(self._wal_names)
            old_generation_number = self._generation_number
            new_generation_number = self._generation_number + 1
            new_wal_number = self._wal_number + 1
            new_wal_name = f"wal-{new_wal_number:06d}.log"
            generation_name = f"gen-{new_generation_number:06d}"

            # Step 1: rotate.  After this commit the old log is frozen and
            # every new delta lands in the fresh one.
            self._draw_compaction_fault("rotate")
            new_wal = DeltaLogWriter.create(
                self._directory / new_wal_name,
                io_stats=self._io, fault_plan=self._faults, fsync=self._fsync,
            )
            _commit_json(self._directory, LIVE_MANIFEST_FILENAME, {
                "schema": LIVE_MANIFEST_SCHEMA,
                "generation": old_generation,
                "generation_number": old_generation_number,
                "wals": old_wals + [new_wal_name],
                "wal_number": new_wal_number,
                "base_seq": self._base_seq(),
                "compacting": True,
            })
            if self._wal is not None:
                self._wal.close()
            self._wal = new_wal
            self._wal_names = old_wals + [new_wal_name]
            self._wal_number = new_wal_number

        started = time.perf_counter()
        try:
            # Step 2: build the next generation, lock-free.  The serving
            # base reader is never touched: the merge reads the generation
            # directory's files itself, so bufferpool state cannot race.
            self._draw_compaction_fault("build")
            new_generation: str | None = None
            if live_count:
                new_generation = generation_name
                target = self._directory / generation_name
                if old_generation is None:
                    build_index(added, target, io_stats=self._io)
                else:
                    merge_index(
                        self._directory / old_generation, removed, added, target,
                        io_stats=self._io, verify_checksums=self._verify,
                    )

            # Step 3: commit — the manifest swap is the only moment the
            # new generation becomes real.
            self._draw_compaction_fault("commit")
            _commit_json(self._directory, LIVE_MANIFEST_FILENAME, {
                "schema": LIVE_MANIFEST_SCHEMA,
                "generation": new_generation,
                "generation_number": new_generation_number,
                "wals": [new_wal_name],
                "wal_number": new_wal_number,
                "base_seq": folded_seq,
            })
        except BaseException:
            _METRICS().compaction_failures.inc()
            raise

        new_base = None
        if new_generation is not None:
            new_base = CliqueIndex(
                self._directory / new_generation,
                cache_pages=self._cache_pages,
                verify_checksums=self._verify,
                io_stats=self._io,
                fault_plan=self._faults,
            )
        with self._lock:
            old_base = self._base
            self._base = new_base
            if old_base is not None:
                # Readers snapshot nothing across queries — every read
                # re-enters under the lock — but a degraded cold path may
                # still hold a scan generator; retire instead of closing.
                self._retired.append(old_base)
            self._generation_number = new_generation_number
            self._wal_names = [new_wal_name]
            self._tombstones = set()
            remaining = [d for d in self._tail if d.seq > folded_seq]
            self._rebuild_overlay(new_base, remaining)

        # Step 4: cleanup — pure garbage collection; a crash here only
        # leaves strays for the next open() to sweep.
        self._draw_compaction_fault("cleanup")
        if old_generation is not None:
            shutil.rmtree(self._directory / old_generation, ignore_errors=True)
        for name in old_wals:
            (self._directory / name).unlink(missing_ok=True)
        bundle = _METRICS()
        bundle.compactions.inc()
        bundle.compaction_seconds.observe(time.perf_counter() - started)
        bundle.tail.set(self.tail_length)
        return generation_name

    def _base_seq(self) -> int:
        manifest = json.loads(
            (self._directory / LIVE_MANIFEST_FILENAME).read_text(encoding="ascii")
        )
        return int(manifest["base_seq"])

    def _rebuild_overlay(
        self, base: CliqueIndex | None, remaining: list[CliqueDelta]
    ) -> None:
        """Re-derive every overlay structure from a new base + tail."""
        self._added = {}
        self._added_ids = {}
        self._overlay_postings = {}
        self._overlaid = set()
        self._tombstones = set()
        self._tail = []
        self._next_id = base.num_cliques if base is not None else 0
        for delta in remaining:
            self._apply_to_overlay(delta)
            self._tail.append(delta)

    def _draw_compaction_fault(self, stage: str) -> None:
        """Consult the fault plan at a named compaction stage."""
        if self._faults is None:
            return
        fault = self._faults.draw("compaction", path=stage)
        if fault is None:
            return
        if fault.kind == "latency":
            time.sleep(fault.latency_seconds)
            return
        if fault.kind == "io_error":
            raise StorageIOError(
                "compaction", self._directory, f"injected fault at stage {stage!r}"
            )

    # ------------------------------------------------------------------
    # Background compaction
    # ------------------------------------------------------------------
    def start_compactor(
        self,
        tail_threshold: int = 1024,
        interval_seconds: float = 0.05,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> "_BackgroundCompactor":
        """Run :meth:`compact` on a daemon thread whenever the tail grows
        past ``tail_threshold`` deltas.  Errors are counted and reported
        through ``on_error`` (the store keeps serving either way)."""
        if self._compactor is not None:
            return self._compactor
        self._compactor = _BackgroundCompactor(
            self, tail_threshold, interval_seconds, on_error
        )
        self._compactor.start()
        return self._compactor


class _BackgroundCompactor:
    """Daemon thread folding the delta tail when it grows too long."""

    def __init__(
        self,
        store: LiveCliqueStore,
        tail_threshold: int,
        interval_seconds: float,
        on_error: Callable[[BaseException], None] | None,
    ) -> None:
        self._store = store
        self.tail_threshold = max(1, tail_threshold)
        self._interval = interval_seconds
        self._on_error = on_error
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="live-compactor", daemon=True
        )
        self.compactions = 0
        self.errors = 0

    def start(self) -> None:
        self._thread.start()

    def is_alive(self) -> bool:
        """Whether the compactor thread is still running (supervision)."""
        return self._thread.is_alive()

    def poke(self) -> None:
        """Ask the compactor to re-check the tail immediately."""
        self._wake.set()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=30.0)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self._interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                if self._store.tail_length >= self.tail_threshold:
                    if self._store.compact() is not None:
                        self.compactions += 1
            except Exception as exc:
                # Exception, not BaseException: a raised SystemExit (the
                # chaos harness's thread kill) must terminate the thread
                # so the supervisor can observe the death and restart it.
                self.errors += 1
                if self._on_error is not None:
                    self._on_error(exc)
