"""Disk-resident adjacency-list graph with sequential-scan access.

This is the ``G`` that ExtMCE reads: records sorted by vertex id, one per
vertex, streamed start-to-end.  The paper's algorithm touches it in exactly
three ways, all provided here:

* a full sequential scan (Algorithm 1's single pass, Section 4.2.3's
  partition-building pass);
* a rewrite dropping a vertex set and its incident edges (Algorithm 3,
  Line 15: "Remove ``G_H*`` (or ``G_L*``) from ``G``"), whose read can
  also feed a per-record visitor;
* targeted adjacency loads for a known vertex subset, implemented as one
  sequential pass rather than per-vertex seeks, which is the
  external-memory discipline the paper insists on.

Integrity: new files are written in format v2 (``HSTARGR2``), which adds
a CRC32 to every record; a flipped bit on disk is reported as a typed
:class:`~repro.errors.CorruptDataError` at scan time instead of flowing
into the clique stream as a wrong neighbor list.  v1 files open and scan
unchanged.  ``verify_checksums=False`` skips the check (for metered runs
where the CRC cost would distort timings); residual rewrites inherit the
source graph's verify setting and fault plan.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import CorruptDataError, StorageError, StorageFormatError
from repro.graph.adjacency import AdjacencyGraph
from repro.storage.format import (
    FILE_MAGIC,
    FILE_MAGIC_V2,
    VertexRecord,
    count_checksum_failure,
    decode_record,
    decode_records,
    encode_record,
    record_size,
)
from repro.storage.iostats import IOStats
from repro.storage.pagestore import PageStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

_COUNTS = struct.Struct("<QQ")
_CRC = struct.Struct("<I")


def _pack_counts(num_vertices: int, num_edges: int, checksum: bool) -> bytes:
    """The header's count block, with a trailing CRC32 in format v2."""
    counts = _COUNTS.pack(num_vertices, num_edges)
    if not checksum:
        return counts
    return counts + _CRC.pack(zlib.crc32(counts))
_HEADER_BYTES_V1 = len(FILE_MAGIC) + _COUNTS.size
#: The v2 header appends a CRC32 over the vertex/edge counts, so a
#: corrupted header block fails typed instead of yielding a wrong size.
_HEADER_BYTES_V2 = _HEADER_BYTES_V1 + _CRC.size


class DiskGraph:
    """An undirected graph stored on disk as sorted adjacency records."""

    def __init__(
        self,
        store: PageStore,
        num_vertices: int,
        num_edges: int,
        checksummed: bool = True,
        verify_checksums: bool = True,
    ) -> None:
        self._store = store
        self._num_vertices = num_vertices
        self._num_edges = num_edges
        self._checksummed = checksummed
        self._verify = verify_checksums

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        graph: AdjacencyGraph,
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
        verify_checksums: bool = True,
    ) -> "DiskGraph":
        """Write an in-memory graph to ``path`` and return a handle.

        Vertex ids must be non-negative integers (enforced by the record
        codec).  Original degrees are captured from the graph as given.
        """
        records = (
            (v, sorted(graph.neighbors(v)), graph.degree(v))
            for v in sorted(graph.vertices())
        )
        return cls.from_records(
            path, records, io_stats=io_stats,
            fault_plan=fault_plan, verify_checksums=verify_checksums,
        )

    @classmethod
    def from_records(
        cls,
        path: str | Path,
        records: Iterable[tuple[int, list[int], int]],
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
        verify_checksums: bool = True,
        checksum: bool = True,
    ) -> "DiskGraph":
        """Stream ``(vertex, sorted neighbors, original degree)`` records.

        Records must arrive in ascending vertex order; counts are patched
        into the header after the stream ends so nothing is buffered.
        ``checksum=False`` writes the legacy v1 layout (no per-record
        CRC) for compatibility tooling.
        """
        encoded = (
            (vertex, len(neighbors),
             encode_record(vertex, neighbors, original_degree, checksum=checksum))
            for vertex, neighbors, original_degree in records
        )
        return cls._write(
            path, encoded, io_stats=io_stats, fault_plan=fault_plan,
            verify_checksums=verify_checksums, checksum=checksum,
        )

    @classmethod
    def _write(
        cls,
        path: str | Path,
        encoded: Iterable[tuple[int, int, bytes]],
        io_stats: IOStats | None,
        fault_plan: "FaultPlan | None",
        verify_checksums: bool,
        checksum: bool,
    ) -> "DiskGraph":
        """The one write loop: ``(vertex, degree, record bytes)`` items,
        already encoded in the layout ``checksum`` selects, streamed to
        ``path`` behind a header patched with the final counts."""
        store = PageStore(path, io_stats, fault_plan=fault_plan)
        magic = FILE_MAGIC_V2 if checksum else FILE_MAGIC
        store.write_all(magic + _pack_counts(0, 0, checksum))
        num_vertices = 0
        directed_degree_total = 0
        previous_vertex = -1
        buffer = bytearray()
        for vertex, degree, data in encoded:
            if vertex <= previous_vertex:
                raise StorageError(
                    f"records out of order: vertex {vertex} after {previous_vertex}"
                )
            previous_vertex = vertex
            num_vertices += 1
            directed_degree_total += degree
            buffer += data
            if len(buffer) >= 1 << 20:
                store.append(bytes(buffer))
                buffer.clear()
        if buffer:
            store.append(bytes(buffer))
        if directed_degree_total % 2 != 0:
            raise StorageError("adjacency records are not symmetric: odd degree total")
        num_edges = directed_degree_total // 2
        store.patch(len(magic), _pack_counts(num_vertices, num_edges, checksum))
        return cls(
            store, num_vertices, num_edges,
            checksummed=checksum, verify_checksums=verify_checksums,
        )

    @classmethod
    def open(
        cls,
        path: str | Path,
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
        verify_checksums: bool = True,
    ) -> "DiskGraph":
        """Open an existing graph file, validating its header.

        Accepts both the checksummed v2 format and legacy v1 files.
        """
        store = PageStore(path, io_stats, fault_plan=fault_plan)
        header = store.read_at(0, _HEADER_BYTES_V1)
        magic = header[: len(FILE_MAGIC)]
        if magic not in (FILE_MAGIC, FILE_MAGIC_V2):
            raise StorageFormatError(f"{path} is not a DiskGraph file")
        counts = header[len(magic) :]
        num_vertices, num_edges = _COUNTS.unpack(counts)
        checksummed = magic == FILE_MAGIC_V2
        if checksummed and verify_checksums:
            (stored,) = _CRC.unpack(store.read_at(_HEADER_BYTES_V1, _CRC.size))
            computed = zlib.crc32(counts)
            if stored != computed:
                count_checksum_failure()
                raise CorruptDataError(
                    f"header checksum mismatch in {path}: "
                    f"stored {stored:#010x}, computed {computed:#010x}"
                )
        return cls(
            store, num_vertices, num_edges,
            checksummed=checksummed,
            verify_checksums=verify_checksums,
        )

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """Backing file path."""
        return self._store.path

    @property
    def io_stats(self) -> IOStats:
        """I/O counters for this graph's storage stack."""
        return self._store.io_stats

    @property
    def fault_plan(self) -> "FaultPlan | None":
        """The fault plan threaded through this graph's stores, if any."""
        return self._store.fault_plan

    @property
    def num_vertices(self) -> int:
        """Number of vertex records."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (the paper's ``|G|``)."""
        return self._num_edges

    @property
    def size_pages(self) -> int:
        """On-disk size in accounting pages."""
        return self._store.size_pages()

    @property
    def header_bytes(self) -> int:
        """Byte offset of the first vertex record."""
        return _HEADER_BYTES_V2 if self._checksummed else _HEADER_BYTES_V1

    @property
    def page_store(self) -> PageStore:
        """The underlying metered page store (for buffer-pool layering)."""
        return self._store

    @property
    def format_version(self) -> int:
        """On-disk format: 2 for checksummed records, 1 for legacy."""
        return 2 if self._checksummed else 1

    @property
    def verify_checksums(self) -> bool:
        """Whether v2 record checksums are verified on read."""
        return self._verify

    @verify_checksums.setter
    def verify_checksums(self, value: bool) -> None:
        self._verify = bool(value)

    def record_nbytes(self, degree: int) -> int:
        """On-disk size of a record with ``degree`` neighbors, this format."""
        return record_size(degree, checksum=self._checksummed)

    def decode_one(self, buffer: bytes, offset: int = 0) -> tuple[VertexRecord, int]:
        """Decode one record in this graph's format (verify per setting)."""
        return decode_record(
            buffer, offset, checksum=self._checksummed, verify=self._verify
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def scan(self, raw: bool = False) -> Iterator[VertexRecord]:
        """Stream all records in vertex order (one metered sequential scan).

        With ``raw``, each item is ``(record, encoded)``: the record and
        a copy of the bytes that encode it in this graph's format.
        """
        self._store.io_stats.record_scan()
        pending = bytearray()
        chunks = self._store.scan_chunks()
        # Drop the fixed-size header from the first chunk.
        to_skip = self.header_bytes
        for chunk in chunks:
            if to_skip:
                skip = min(to_skip, len(chunk))
                chunk = chunk[skip:]
                to_skip -= skip
                if not chunk:
                    continue
            pending += chunk
            if raw:
                # The last span's end is where the next chunk resumes.
                offset = 0
                for record, start, offset in decode_records(
                    pending, self._checksummed, self._verify, spans=True
                ):
                    yield record, pending[start:offset]
            else:
                offset = yield from decode_records(
                    pending, self._checksummed, self._verify
                )
            del pending[:offset]
        if pending:
            raise StorageFormatError(f"{len(pending)} trailing bytes after final record")

    def load_adjacency(self, vertices: Iterable[int]) -> dict[int, tuple[int, ...]]:
        """Adjacency lists for a vertex subset, via one sequential pass."""
        return {record.vertex: record.neighbors for record in self._records_of(vertices)}

    def original_degrees(self, vertices: Iterable[int]) -> dict[int, int]:
        """Original-graph degrees for a vertex subset (one pass)."""
        return {
            record.vertex: record.original_degree
            for record in self._records_of(vertices)
        }

    def rewrite_without(
        self,
        removed: Iterable[int],
        new_path: str | Path,
        visit: Callable[[VertexRecord, Sequence[int] | None], None] | None = None,
    ) -> "DiskGraph":
        """Write the residual graph after deleting a vertex set.

        Removes every vertex in ``removed`` and all incident edges — the
        per-recursion shrink step of Algorithm 3 — in one sequential read
        of this file and one sequential write of the new one.  Original
        degrees, the verify setting and any fault plan carry over.  A
        surviving record that loses no neighbor is copied as its original
        bytes; only records that lose one are re-encoded.  The residual
        is always format v2, so a v1 source re-encodes every record.

        ``visit(record, survivors)``, when given, sees every record of
        this graph during the same read, in vertex order: ``survivors`` is
        the record's neighbor list in the residual, or ``None`` when the
        vertex is removed.  ExtMCE's step pass hangs the h-neighbor spill
        and the next L*-sample on it, so one scan does all three.
        """
        removed_set = set(removed)
        copy = self._checksummed

        def residual_records() -> Iterator[tuple[int, int, bytes]]:
            for record, data in self.scan(raw=True):
                vertex = record.vertex
                if vertex in removed_set:
                    if visit is not None:
                        visit(record, None)
                    continue
                survivors: Sequence[int] = record.neighbors
                if not (copy and removed_set.isdisjoint(survivors)):
                    survivors = [u for u in survivors if u not in removed_set]
                    data = encode_record(
                        vertex, survivors, record.original_degree, checksum=True
                    )
                if visit is not None:
                    visit(record, survivors)
                yield vertex, len(survivors), data

        return DiskGraph._write(
            new_path, residual_records(), io_stats=self.io_stats,
            fault_plan=self.fault_plan, verify_checksums=self._verify,
            checksum=True,
        )

    def to_adjacency_graph(self) -> AdjacencyGraph:
        """Materialise the whole graph in memory (tests and baselines)."""
        graph = AdjacencyGraph()
        for record in self.scan():
            graph.add_vertex(record.vertex)
            for u in record.neighbors:
                graph.add_edge(record.vertex, u)
        return graph

    def delete(self) -> None:
        """Remove the backing file."""
        self._store.delete()

    def __repr__(self) -> str:
        return (
            f"DiskGraph(path={str(self.path)!r}, n={self._num_vertices}, "
            f"m={self._num_edges})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _records_of(self, vertices: Iterable[int]) -> Iterator[VertexRecord]:
        """Records of a vertex subset, from one scan that stops at the last
        one found; an empty subset reads nothing."""
        wanted = set(vertices)
        if not wanted:
            return
        for record in self.scan():
            if record.vertex in wanted:
                wanted.discard(record.vertex)
                yield record
                if not wanted:
                    return
