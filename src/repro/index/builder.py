"""Deterministic construction of an on-disk clique index.

:func:`build_index` consumes a maximal-clique stream (any iterable of
vertex sets — :meth:`repro.core.extmce.ExtMCE.enumerate_cliques`, a
collector, or a parsed clique file) and materialises the seven-file index
layout of :mod:`repro.index.format`.  Cliques are assigned ids by their
rank in canonical order (sorted vertex tuples, lexicographic), so the
output bytes depend only on the clique *set*: the same graph indexed
from a ``workers=4`` ExtMCE run and the set-based Tomita enumerator
produces byte-identical files.  ``tests/index/`` pins this determinism guarantee.

:func:`merge_index` writes the next generation of an index from its
base plus a change set (removed ids, added cliques) — the live store's
compaction.  Both functions feed one private writer a stream of
``(vertices, record bytes)`` in canonical order; the merge copies the
base's surviving records as bytes instead of re-encoding them, and its
output is byte-identical to :func:`build_index` of the same set.

The manifest is written last, with the checkpoint durability discipline
(scratch file → fsync → atomic rename → directory fsync): a crash
mid-build leaves a directory without a manifest, which
:meth:`repro.index.reader.CliqueIndex.open` rejects — never a
half-readable index.
"""

from __future__ import annotations

import heapq
import json
import os
import zlib
from collections import defaultdict
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from repro import metrics
from repro.core.result import CliqueFileSink
from repro.errors import CorruptDataError, StorageError
from repro.index.format import (
    DIRECTORY_ENTRY,
    DIRECTORY_FILENAME,
    DIRECTORY_MAGIC,
    FINGERPRINT_ENTRY,
    FINGERPRINTS_FILENAME,
    FINGERPRINTS_MAGIC,
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA,
    OFFSET_ENTRY,
    OFFSETS_FILENAME,
    OFFSETS_MAGIC,
    POSTINGS_FILENAME,
    POSTINGS_MAGIC,
    RECORDS_FILENAME,
    RECORDS_MAGIC,
    SIZE_ORDER_FILENAME,
    check_magic,
    clique_fingerprint,
    decode_clique_record,
    encode_clique_record,
    encode_postings,
    encode_size_order,
    encode_table,
)
from repro.index.reader import read_manifest
from repro.storage.iostats import IOStats
from repro.storage.pagestore import PageStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        cliques=registry.counter(
            "repro_index_build_cliques_total", "cliques folded into built indexes"
        ),
        postings=registry.counter(
            "repro_index_build_postings_total", "postings entries written by builds"
        ),
        bytes=registry.counter(
            "repro_index_build_bytes_total", "index bytes written by builds"
        ),
    )
)


@dataclass
class IndexBuildReport:
    """What one :func:`build_index` call produced."""

    directory: Path
    num_cliques: int
    num_vertices: int
    max_clique_size: int
    bytes_by_file: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        """Total bytes across the index files (manifest included)."""
        return sum(self.bytes_by_file.values())


def build_index(
    cliques: Iterable[frozenset | tuple],
    directory: str | Path,
    io_stats: IOStats | None = None,
    fault_plan: "FaultPlan | None" = None,
) -> IndexBuildReport:
    """Build a clique index under ``directory`` from a clique stream.

    The stream is buffered, deduplicated and canonically ordered before
    serialisation — the id assignment must see the whole set.  Raises
    :class:`~repro.errors.StorageError` on an empty stream (an index
    with nothing to serve is almost certainly a wiring bug upstream).
    """
    ordered = sorted({tuple(sorted(clique)) for clique in cliques})
    return _write_generation(
        ((vertices, encode_clique_record(vertices)) for vertices in ordered),
        directory, io_stats, fault_plan,
    )


def merge_index(
    base_directory: str | Path,
    removed_ids: Collection[int],
    added: Iterable[tuple[int, ...]],
    directory: str | Path,
    io_stats: IOStats | None = None,
    verify_checksums: bool = True,
) -> IndexBuildReport:
    """Write the index of ``base − removed_ids + added`` under ``directory``.

    ``added`` holds sorted vertex tuples in ascending order, none of them
    a surviving base clique.  The base's surviving records are copied as
    bytes, in id order, and merged with the encoded additions, so the
    cost is one pass over the base files plus the additions; no
    unchanged record is re-encoded.  Ids stay canonical ranks, so the
    result is byte-identical to :func:`build_index` of the same set.

    ``cliques.idx`` is checked against the base manifest's CRC32 and
    every copied record against its own CRC32 (unless
    ``verify_checksums`` is off): a flipped bit raises
    :class:`~repro.errors.CorruptDataError` before anything is written.
    """
    io_stats = io_stats if io_stats is not None else IOStats()
    survivors = _base_records(
        Path(base_directory), removed_ids, io_stats, verify_checksums
    )
    additions = ((vertices, encode_clique_record(vertices)) for vertices in added)
    return _write_generation(
        heapq.merge(survivors, additions), directory, io_stats, None
    )


def _base_records(
    base: Path,
    removed_ids: Collection[int],
    io_stats: IOStats,
    verify_checksums: bool,
) -> Iterator[tuple[tuple[int, ...], bytes]]:
    """The base's records as ``(vertices, record bytes)``, id order, minus
    ``removed_ids``; each file is read once, metered through PageStore."""
    manifest = read_manifest(base)
    offsets = PageStore(base / OFFSETS_FILENAME, io_stats).read_all()
    declared = manifest["files"][OFFSETS_FILENAME]["crc32"]
    if zlib.crc32(offsets) != declared:
        raise CorruptDataError(
            f"{OFFSETS_FILENAME} CRC32 {zlib.crc32(offsets):#010x} does not "
            f"match manifest {declared:#010x}"
        )
    check_magic(offsets, OFFSETS_MAGIC, OFFSETS_FILENAME)
    records = PageStore(base / RECORDS_FILENAME, io_stats).read_all()
    check_magic(records, RECORDS_MAGIC, RECORDS_FILENAME)
    entries = memoryview(offsets)[len(OFFSETS_MAGIC):]
    if len(entries) != int(manifest["num_cliques"]) * OFFSET_ENTRY.size:
        raise CorruptDataError(
            f"{OFFSETS_FILENAME} holds {len(entries)} entry bytes, manifest "
            f"says {manifest['num_cliques']} cliques"
        )
    expected = len(RECORDS_MAGIC)
    for clique_id, (offset, length, size) in enumerate(OFFSET_ENTRY.iter_unpack(entries)):
        if offset != expected:
            raise CorruptDataError(
                f"{OFFSETS_FILENAME} entry {clique_id} points at bytes "
                f"[{offset}, {offset + length}) of {RECORDS_FILENAME}, "
                f"expected a record at {expected}"
            )
        expected += length
        if clique_id in removed_ids:
            continue
        record = records[offset:offset + length]
        try:
            vertices, end = decode_clique_record(record, verify=verify_checksums)
        except StorageError as exc:
            raise CorruptDataError(
                f"{RECORDS_FILENAME} record {clique_id} at offset {offset}: {exc}"
            ) from exc
        if end != length or len(vertices) != size:
            raise CorruptDataError(
                f"{RECORDS_FILENAME} record {clique_id} at offset {offset} does "
                f"not match its {OFFSETS_FILENAME} entry"
            )
        yield vertices, record
    if expected != len(records):
        raise CorruptDataError(
            f"{RECORDS_FILENAME} ends with {len(records) - expected} bytes "
            f"no {OFFSETS_FILENAME} entry covers"
        )


def _write_generation(
    records: Iterable[tuple[tuple[int, ...], bytes]],
    directory: str | Path,
    io_stats: IOStats | None,
    fault_plan: "FaultPlan | None",
) -> IndexBuildReport:
    """Write the six binary index files and the manifest from
    ``(vertices, record bytes)`` pairs.

    The pairs must come in strictly ascending vertex-tuple order: a
    record's rank in the stream is its clique id.  Both
    :func:`build_index` and :func:`merge_index` feed this one writer.
    """
    # Record file + offsets directory: one pass over the canonical order.
    record_file = bytearray(RECORDS_MAGIC)
    offsets = bytearray(OFFSETS_MAGIC)
    postings_map: defaultdict[int, list[int]] = defaultdict(list)
    # Ids bucketed by clique size: the counting sort behind cliques.sz.
    ids_by_size: defaultdict[int, list[int]] = defaultdict(list)
    fingerprints: list[tuple[int, int]] = []
    previous: tuple[int, ...] = ()
    clique_id = -1
    for clique_id, (vertices, encoded) in enumerate(records):
        if vertices <= previous and clique_id:
            raise StorageError(
                f"index records out of canonical order: {list(vertices)} "
                f"after {list(previous)}"
            )
        previous = vertices
        offsets += OFFSET_ENTRY.pack(len(record_file), len(encoded), len(vertices))
        record_file += encoded
        fingerprints.append((clique_fingerprint(encoded), clique_id))
        ids_by_size[len(vertices)].append(clique_id)
        for v in vertices:
            postings_map[v].append(clique_id)
    num_cliques = clique_id + 1
    if not num_cliques:
        raise StorageError("refusing to build an index from an empty clique stream")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    io_stats = io_stats if io_stats is not None else IOStats()

    # Postings file + vertex directory, ascending by vertex id.
    postings = bytearray(POSTINGS_MAGIC)
    directory_rows = []
    postings_entries = 0
    for vertex in sorted(postings_map):
        clique_ids = postings_map[vertex]
        encoded = encode_postings(clique_ids)
        directory_rows.append((vertex, len(postings), len(encoded), len(clique_ids)))
        postings += encoded
        postings_entries += len(clique_ids)

    # Ids were appended ascending, so a stable sort by fingerprint alone
    # yields the (fingerprint, id) order.
    fingerprints.sort(key=itemgetter(0))
    blobs = {
        RECORDS_FILENAME: bytes(record_file),
        OFFSETS_FILENAME: bytes(offsets),
        FINGERPRINTS_FILENAME: encode_table(
            FINGERPRINTS_MAGIC, FINGERPRINT_ENTRY, fingerprints
        ),
        SIZE_ORDER_FILENAME: encode_size_order(ids_by_size),
        POSTINGS_FILENAME: bytes(postings),
        DIRECTORY_FILENAME: encode_table(
            DIRECTORY_MAGIC, DIRECTORY_ENTRY, directory_rows
        ),
    }
    for name, blob in blobs.items():
        PageStore(directory / name, io_stats, fault_plan).write_all(blob)

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "num_cliques": num_cliques,
        "num_vertices": len(postings_map),
        "num_postings": postings_entries,
        "max_clique_size": max(ids_by_size),
        "size_histogram": {str(size): len(ids) for size, ids in ids_by_size.items()},
        "files": {
            name: {"bytes": len(blob), "crc32": zlib.crc32(blob)}
            for name, blob in sorted(blobs.items())
        },
    }
    _write_manifest(directory, manifest)

    bundle = _METRICS()
    bundle.cliques.inc(num_cliques)
    bundle.postings.inc(postings_entries)
    bytes_by_file = {name: len(blob) for name, blob in blobs.items()}
    bytes_by_file[MANIFEST_FILENAME] = (directory / MANIFEST_FILENAME).stat().st_size
    bundle.bytes.inc(sum(bytes_by_file.values()))
    return IndexBuildReport(
        directory=directory,
        num_cliques=num_cliques,
        num_vertices=len(postings_map),
        max_clique_size=max(ids_by_size),
        bytes_by_file=bytes_by_file,
    )


def _write_manifest(directory: Path, manifest: dict) -> None:
    """Durably commit the manifest (scratch → fsync → rename → dir fsync)."""
    target = directory / MANIFEST_FILENAME
    scratch = directory / (MANIFEST_FILENAME + ".tmp")
    try:
        with open(scratch, "w", encoding="ascii") as handle:
            handle.write(json.dumps(manifest, sort_keys=True, indent=2))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, target)
        directory_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)
    except OSError as exc:
        raise StorageError(f"failed to commit index manifest at {target}: {exc}") from exc


class CliqueIndexSink:
    """A clique-stream sink that builds an index on :meth:`close`.

    Drop-in alongside :class:`~repro.core.result.CliqueFileSink` — the
    ``enumerate --index-out`` path feeds both from one enumeration pass.
    Optionally tees every clique into ``clique_file`` as well.
    """

    def __init__(
        self,
        directory: str | Path,
        clique_file: CliqueFileSink | None = None,
    ) -> None:
        self._directory = Path(directory)
        self._buffer: list[tuple[int, ...]] = []
        self._tee = clique_file
        self._report: IndexBuildReport | None = None
        self.count = 0

    def accept(self, clique: frozenset | tuple) -> None:
        """Buffer one maximal clique (and tee it, when configured)."""
        self._buffer.append(tuple(sorted(clique)))
        if self._tee is not None:
            self._tee.accept(clique)
        self.count += 1

    @property
    def report(self) -> IndexBuildReport | None:
        """The build report (``None`` until :meth:`close`)."""
        return self._report

    def close(self) -> IndexBuildReport:
        """Build the index from everything accepted; idempotent."""
        if self._tee is not None:
            self._tee.close()
        if self._report is None:
            self._report = build_index(self._buffer, self._directory)
            self._buffer = []
        return self._report

    def abort(self) -> None:
        """Discard everything buffered without building an index."""
        if self._tee is not None:
            self._tee.abort()
        self._buffer = []

    def __enter__(self) -> "CliqueIndexSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Only commit the index when the producing enumeration succeeded —
        # a half-streamed index would be silently incomplete.
        if exc_info and exc_info[0] is not None:
            self.abort()
            return
        self.close()
