"""Memory-bounded queries over a persisted clique index.

:class:`CliqueIndex` opens the directory :func:`~repro.index.builder.build_index`
wrote and answers queries through :class:`~repro.storage.bufferpool.BufferPool`
page caches — the resident footprint is the manifest, a page fence per
sorted table and a fixed number of cached pages, never the clique set.
Lookups follow the classic inverted-index shape: the vertex directory's
fence names the one page holding a vertex's postings extent, the
postings list yields clique ids, and the offsets directory turns ids
into record-file extents.  :meth:`CliqueIndex.find` answers "which id
does exactly this clique have" the same way: the fingerprint table's
fence names one page, and each candidate id is confirmed by reading
its record.  :meth:`CliqueIndex.top_k_largest` reads the first
``⌈k / 1022⌉`` pages of the size-ordered id table and then the ``k``
records, never the offsets of the other cliques.

Every payload CRC32 is verified on read (disable with
``verify_checksums=False``); a flipped bit raises
:class:`~repro.errors.CorruptDataError`.  The two fenced tables are read
whole once at open, to build the fence, and checked against the
manifest CRC32 then; so is the size-ordered id table.
:meth:`CliqueIndex.verify` performs the full offline audit — every
record, every postings list, the file CRCs in the manifest, the
record/postings cross-counts, the fingerprint table and the size order.

Staleness: a frozen index is a snapshot of one enumeration and never
changes, so :meth:`~CliqueIndex.is_stale` is always ``False``.  A graph
that changes is served by :class:`~repro.live.store.LiveCliqueStore`,
which keeps this surface and answers ``is_stale`` precisely from its
delta overlay; the query engine reads both the same way.
"""

from __future__ import annotations

import itertools
import json
import struct
import sys
import zlib
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from repro import metrics
from repro.errors import CorruptDataError, GraphError, StorageError
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
    SIZE_ORDER_ENTRY,
    SIZE_ORDER_FILENAME,
    SIZE_ORDER_MAGIC,
    TABLE_PAGE_HEADER,
    check_magic,
    clique_fingerprint,
    decode_clique_record,
    decode_postings,
    encode_clique_record,
    encode_size_order,
    encode_table,
    table_entries_per_page,
    table_size,
)
from repro.storage.bufferpool import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.pagestore import PAGE_SIZE_BYTES, PageStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

#: Default page-cache capacity per index file.
DEFAULT_CACHE_PAGES = 64

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        postings_reads=registry.counter(
            "repro_index_postings_read_total", "postings lists fetched from disk"
        ),
        record_reads=registry.counter(
            "repro_index_records_read_total", "clique records fetched from disk"
        ),
    )
)


def read_manifest(directory: Path) -> dict:
    """Load and schema-check an index directory's manifest."""
    manifest_path = directory / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise StorageError(
            f"{directory} is not a clique index (missing {MANIFEST_FILENAME}); "
            "an interrupted build leaves no manifest and must be rebuilt"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    except (ValueError, UnicodeError) as exc:
        raise StorageError(f"malformed index manifest at {manifest_path}: {exc}") from exc
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise StorageError(
            f"unsupported index schema {manifest.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA})"
        )
    return manifest


class _FencedTable:
    """A sorted fixed-width table: its page fence in memory, pages in a pool.

    The fence holds the smallest and largest key of every page, taken
    from the one read of the file at open.  A lookup bisects it and reads
    only the pages whose key range holds the key: one page, unless a
    run of equal keys straddles a page boundary, and none when the key
    falls between two pages.
    """

    def __init__(
        self,
        name: str,
        blob: bytes,
        magic: bytes,
        entry: struct.Struct,
        count: int,
        pool: BufferPool,
    ) -> None:
        self._name = name
        self._magic = magic
        self._entry = entry
        self._count = count
        self._pool = pool
        self._per_page = table_entries_per_page(entry)
        # The key (first field) as a typed column of every page: the
        # entry viewed as words of the key's width, every stride-th word.
        self._key_code = entry.format[1]
        self._key_stride = entry.size // struct.calcsize(self._key_code)
        self._firsts: list[int] = []
        self._lasts: list[int] = []
        for start in range(0, count, self._per_page):
            base = (start // self._per_page) * PAGE_SIZE_BYTES + TABLE_PAGE_HEADER
            last = min(self._per_page, count - start) - 1
            self._firsts.append(entry.unpack_from(blob, base)[0])
            self._lasts.append(entry.unpack_from(blob, base + last * entry.size)[0])

    def lookup(self, key: int) -> list[tuple]:
        """Every entry whose first field equals ``key``, in table order."""
        entry = self._entry
        rows: list[tuple] = []
        for page in range(bisect_left(self._lasts, key), bisect_right(self._firsts, key)):
            first = page * self._per_page
            count = min(self._per_page, self._count - first)
            raw = self._pool.read(
                page * PAGE_SIZE_BYTES, TABLE_PAGE_HEADER + count * entry.size
            )
            if raw[:TABLE_PAGE_HEADER] != self._magic:
                raise CorruptDataError(f"{self._name} page {page} has no page header")
            keys = self._keys(raw, count)
            position = bisect_left(keys, key)
            while position < count and keys[position] == key:
                rows.append(entry.unpack_from(raw, TABLE_PAGE_HEADER + position * entry.size))
                position += 1
        return rows

    def _keys(self, raw: bytes, count: int):
        """The first field of a page's ``count`` entries, indexable."""
        entries = memoryview(raw)[TABLE_PAGE_HEADER:TABLE_PAGE_HEADER + count * self._entry.size]
        if sys.byteorder == "little":
            return entries.cast(self._key_code)[::self._key_stride]
        return [row[0] for row in self._entry.iter_unpack(entries)]


class CliqueIndex:
    """Read-only query interface over one index directory."""

    def __init__(
        self,
        directory: str | Path,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        verify_checksums: bool = True,
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self._directory = Path(directory)
        self._verify = verify_checksums
        self._io = io_stats if io_stats is not None else IOStats()
        self._manifest = manifest = read_manifest(self._directory)
        self._num_cliques = int(manifest["num_cliques"])
        # (-size, count) runs of cliques.sz, largest size first.
        self._size_runs = sorted(
            (-int(size), count) for size, count in manifest["size_histogram"].items()
        )
        if sum(count for _neg_size, count in self._size_runs) != self._num_cliques:
            raise CorruptDataError(
                f"manifest size histogram does not count {self._num_cliques} cliques"
            )
        self._stores: dict[str, PageStore] = {}
        self._pools: dict[str, BufferPool] = {}
        # Open-time checks read straight off the files, not through the
        # pools: they must not pre-warm the page caches (nor draw from the
        # fault plan's page-read budget).  The three paged tables are read
        # whole by _read_table; the other files are only probed for their
        # magic.
        for name, magic in (
            (RECORDS_FILENAME, RECORDS_MAGIC),
            (OFFSETS_FILENAME, OFFSETS_MAGIC),
            (FINGERPRINTS_FILENAME, None),
            (SIZE_ORDER_FILENAME, None),
            (POSTINGS_FILENAME, POSTINGS_MAGIC),
            (DIRECTORY_FILENAME, None),
        ):
            store = PageStore(self._directory / name, self._io, fault_plan)
            declared = manifest["files"].get(name, {}).get("bytes")
            if not store.exists():
                raise StorageError(f"index file {store.path} is missing")
            if declared is not None and store.size_bytes() != declared:
                raise StorageError(
                    f"index file {store.path} is {store.size_bytes()} bytes, "
                    f"manifest says {declared}"
                )
            if magic is not None:
                with open(store.path, "rb") as handle:
                    check_magic(handle.read(len(magic)), magic, name)
            self._stores[name] = store
            self._pools[name] = BufferPool(store, capacity_pages=cache_pages)
        self._fingerprints = self._fenced_table(
            FINGERPRINTS_FILENAME, FINGERPRINTS_MAGIC, FINGERPRINT_ENTRY,
            self._num_cliques,
        )
        self._vertex_directory = self._fenced_table(
            DIRECTORY_FILENAME, DIRECTORY_MAGIC, DIRECTORY_ENTRY,
            int(manifest["num_vertices"]),
        )
        self._read_table(
            SIZE_ORDER_FILENAME, SIZE_ORDER_MAGIC, SIZE_ORDER_ENTRY, self._num_cliques
        )

    def _fenced_table(
        self, name: str, magic: bytes, entry: struct.Struct, count: int
    ) -> _FencedTable:
        """A sorted table with its fence, built from the one read at open."""
        blob = self._read_table(name, magic, entry, count)
        return _FencedTable(name, blob, magic, entry, count, self._pools[name])

    def _read_table(
        self, name: str, magic: bytes, entry: struct.Struct, count: int
    ) -> bytes:
        """Read a paged table once: magic, size, manifest CRC32."""
        blob = Path(self._stores[name].path).read_bytes()
        check_magic(blob, magic, name)
        if len(blob) != table_size(entry, count):
            raise StorageError(
                f"index file {name} is {len(blob)} bytes, "
                f"{count} entries need {table_size(entry, count)}"
            )
        if self._verify:
            declared = self._manifest["files"][name]["crc32"]
            if zlib.crc32(blob) != declared:
                raise CorruptDataError(
                    f"index file {name} CRC32 {zlib.crc32(blob):#010x} does not "
                    f"match manifest {declared:#010x}"
                )
        return blob

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str | Path, **kwargs) -> "CliqueIndex":
        """Open an index directory (alias for the constructor)."""
        return cls(directory, **kwargs)

    def close(self) -> None:
        """Release every cached page."""
        for pool in self._pools.values():
            pool.drop()

    def __enter__(self) -> "CliqueIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Core lookups
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The index directory on disk."""
        return self._directory

    @property
    def num_cliques(self) -> int:
        """Number of indexed maximal cliques."""
        return self._num_cliques

    @property
    def io_stats(self) -> IOStats:
        """The I/O counters the index's page stores report to."""
        return self._io

    def _directory_entry(self, vertex: int) -> tuple[int, int, int] | None:
        """Look ``vertex`` up in ``postings.dir`` (one page read).

        Returns ``(offset, length, count)`` into ``postings.dat`` or
        ``None`` when the vertex has no postings (not in any clique).
        """
        rows = self._vertex_directory.lookup(vertex)
        return rows[0][1:] if rows else None

    def find(self, vertices: Iterable[int]) -> int | None:
        """The id of the maximal clique with exactly ``vertices``, or ``None``.

        One ``cliques.fp`` page read locates the candidates with the
        clique's fingerprint; each is confirmed by comparing its stored
        record with the clique's encoding (the encoding is canonical, so
        equal bytes mean the same clique, CRC included), so a fingerprint
        collision never returns a wrong id.  A candidate that differs is
        decoded with its CRC checked, so a damaged record still raises.
        """
        wanted = tuple(sorted(set(vertices)))
        if not wanted:
            raise GraphError("find needs at least one vertex")
        encoded = encode_clique_record(wanted)
        for _fingerprint, clique_id in self._fingerprints.lookup(
            clique_fingerprint(encoded)
        ):
            raw = self._record_bytes(clique_id)
            if raw == encoded:
                return clique_id
            decode_clique_record(raw, verify=self._verify)
        return None

    def postings(self, vertex: int) -> tuple[int, ...]:
        """Clique ids containing ``vertex``, ascending (empty when absent)."""
        entry = self._directory_entry(vertex)
        if entry is None:
            return ()
        offset, length, count = entry
        raw = self._pools[POSTINGS_FILENAME].read(offset, length)
        clique_ids, _ = decode_postings(raw, verify=self._verify)
        if len(clique_ids) != count:
            raise CorruptDataError(
                f"postings for vertex {vertex} decoded {len(clique_ids)} ids, "
                f"directory says {count}"
            )
        _METRICS().postings_reads.inc()
        return clique_ids

    def clique(self, clique_id: int) -> tuple[int, ...]:
        """The sorted vertex tuple of clique ``clique_id``."""
        if not 0 <= clique_id < self._num_cliques:
            raise GraphError(
                f"clique id {clique_id} out of range [0, {self._num_cliques})"
            )
        vertices, _ = decode_clique_record(
            self._record_bytes(clique_id), verify=self._verify
        )
        return vertices

    def _record_bytes(self, clique_id: int) -> bytes:
        """Clique ``clique_id``'s encoded record, through the page caches."""
        offset, length, _size = self._offset_entry(clique_id)
        raw = self._pools[RECORDS_FILENAME].read(offset, length)
        _METRICS().record_reads.inc()
        return raw

    def _offset_entry(self, clique_id: int) -> tuple[int, int, int]:
        base = len(OFFSETS_MAGIC)
        raw = self._pools[OFFSETS_FILENAME].read(
            base + clique_id * OFFSET_ENTRY.size, OFFSET_ENTRY.size
        )
        return OFFSET_ENTRY.unpack(raw)

    def clique_size(self, clique_id: int) -> int:
        """Cardinality of clique ``clique_id`` (offsets directory only)."""
        if not 0 <= clique_id < self._num_cliques:
            raise GraphError(
                f"clique id {clique_id} out of range [0, {self._num_cliques})"
            )
        return self._offset_entry(clique_id)[2]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cliques_containing(self, vertex: int) -> tuple[int, ...]:
        """Ids of every maximal clique containing ``vertex``."""
        return self.postings(vertex)

    def cliques_containing_edge(self, u: int, v: int) -> tuple[int, ...]:
        """Ids of every maximal clique containing both endpoints.

        Postings intersection, smaller list probing the larger.
        """
        if u == v:
            raise GraphError(f"edge endpoints must differ, got ({u}, {v})")
        first, second = self.postings(u), self.postings(v)
        if not first or not second:
            return ()
        if len(first) > len(second):
            first, second = second, first
        other = set(second)
        return tuple(cid for cid in first if cid in other)

    def membership(self, vertices: Iterable[int]) -> tuple[int, ...]:
        """Ids of every maximal clique containing *all* of ``vertices``.

        A non-empty result for the full vertex set of a candidate clique
        means the candidate is a subset of some maximal clique.
        """
        wanted = sorted(set(vertices))
        if not wanted:
            raise GraphError("membership query needs at least one vertex")
        result: set[int] | None = None
        for vertex in wanted:
            postings = self.postings(vertex)
            if not postings:
                return ()
            result = set(postings) if result is None else result & set(postings)
            if not result:
                return ()
        return tuple(sorted(result))

    def top_k_largest(self, k: int) -> list[tuple[int, ...]]:
        """The ``k`` largest cliques (ties broken by canonical order).

        Reads the first ``⌈k / 1022⌉`` pages of ``cliques.sz``, then the
        ``k`` winning records.
        """
        if k <= 0:
            raise GraphError(f"k must be positive, got {k}")
        return [
            self.clique(cid) for _neg_size, cid in itertools.islice(self.size_ranked(), k)
        ]

    def size_ranked(self) -> Iterator[tuple[int, int]]:
        """Yield ``(-size, clique_id)`` for every clique in top-k order.

        That is ascending ``(-size, id)``.  ``cliques.sz`` is read a page
        at a time through its page cache, as the walk reaches the page;
        the sizes come from the manifest's size histogram.
        """
        pool = self._pools[SIZE_ORDER_FILENAME]
        per_page = table_entries_per_page(SIZE_ORDER_ENTRY)
        sizes = itertools.chain.from_iterable(
            itertools.repeat(neg_size, count) for neg_size, count in self._size_runs
        )
        for page, first in enumerate(range(0, self._num_cliques, per_page)):
            count = min(per_page, self._num_cliques - first)
            raw = pool.read(
                page * PAGE_SIZE_BYTES, TABLE_PAGE_HEADER + count * SIZE_ORDER_ENTRY.size
            )
            if raw[:TABLE_PAGE_HEADER] != SIZE_ORDER_MAGIC:
                raise CorruptDataError(
                    f"{SIZE_ORDER_FILENAME} page {page} has no page header"
                )
            ids = struct.unpack_from(f"<{count}I", raw, TABLE_PAGE_HEADER)
            yield from zip(itertools.islice(sizes, count), ids)

    def stats(self) -> dict:
        """Index-wide statistics (manifest counts; a frozen index is never stale)."""
        manifest = self._manifest
        return {
            "num_cliques": int(manifest["num_cliques"]),
            "num_vertices": int(manifest["num_vertices"]),
            "num_postings": int(manifest["num_postings"]),
            "max_clique_size": int(manifest["max_clique_size"]),
            "size_histogram": {
                int(size): count for size, count in manifest["size_histogram"].items()
            },
            "stale_vertices": 0,
            "bytes_by_file": {
                name: entry["bytes"] for name, entry in manifest["files"].items()
            },
        }

    # ------------------------------------------------------------------
    # Sequential access (cold path / verification)
    # ------------------------------------------------------------------
    def scan_cliques(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Stream ``(clique_id, vertices)`` pairs straight off the record file.

        Bypasses the page caches — this is the degraded path the query
        engine falls back to when a cached read fails, and the
        brute-force oracle the test suite compares every query against.
        """
        store = self._stores[RECORDS_FILENAME]
        buffer = b""
        offset_base = 0
        clique_id = 0
        first = True
        for chunk in store.scan_chunks():
            buffer += chunk
            if first:
                check_magic(buffer, RECORDS_MAGIC, RECORDS_FILENAME)
                buffer = buffer[len(RECORDS_MAGIC):]
                offset_base = len(RECORDS_MAGIC)
                first = False
            position = 0
            while position < len(buffer):
                try:
                    vertices, position = decode_clique_record(
                        buffer, position, verify=self._verify
                    )
                except StorageError as exc:
                    if isinstance(exc, CorruptDataError):
                        raise
                    break  # truncated mid-record: wait for the next chunk
                yield clique_id, vertices
                clique_id += 1
            buffer = buffer[position:]
            offset_base += position
        if buffer:
            raise CorruptDataError(
                f"{RECORDS_FILENAME} ends with {len(buffer)} trailing bytes "
                f"at offset {offset_base} that decode as no record"
            )
        if clique_id != self._num_cliques:
            raise CorruptDataError(
                f"{RECORDS_FILENAME} holds {clique_id} records, "
                f"manifest says {self._num_cliques}"
            )

    def verify(self) -> dict:
        """Full offline integrity audit; raises on the first defect.

        Checks file CRC32s against the manifest, decodes every record and
        postings list (payload CRCs), cross-checks the postings counts
        against the records, checks that ``cliques.fp`` lists every
        clique id once, under its record's fingerprint, in sorted order,
        and that ``cliques.sz`` and the size histogram match the records.
        Returns a summary dict on success.
        """
        for name, declared in sorted(self._manifest["files"].items()):
            blob = PageStore(self._directory / name, self._io).read_all()
            crc = zlib.crc32(blob)
            if crc != declared["crc32"]:
                raise CorruptDataError(
                    f"index file {name} CRC32 {crc:#010x} does not match "
                    f"manifest {declared['crc32']:#010x}"
                )
        counted_postings: dict[int, int] = {}
        fingerprints: list[int] = []
        ids_by_size: dict[int, list[int]] = {}
        records = 0
        for clique_id, vertices in self.scan_cliques():
            records += 1
            fingerprints.append(clique_fingerprint(encode_clique_record(vertices)))
            ids_by_size.setdefault(len(vertices), []).append(clique_id)
            for v in vertices:
                counted_postings[v] = counted_postings.get(v, 0) + 1
        self._verify_fingerprints(fingerprints)
        self._verify_size_order(ids_by_size)
        directory_total = 0
        for vertex in sorted(counted_postings):
            clique_ids = self.postings(vertex)
            directory_total += len(clique_ids)
            if len(clique_ids) != counted_postings[vertex]:
                raise CorruptDataError(
                    f"vertex {vertex} has {len(clique_ids)} postings, "
                    f"records imply {counted_postings[vertex]}"
                )
        return {
            "records_verified": records,
            "vertices_verified": len(counted_postings),
            "postings_verified": directory_total,
        }

    def _verify_fingerprints(self, fingerprints: list[int]) -> None:
        """``cliques.fp`` must be the table the builder writes for the records."""
        blob = PageStore(self._directory / FINGERPRINTS_FILENAME, self._io).read_all()
        rows = sorted(zip(fingerprints, range(len(fingerprints))))
        if blob != encode_table(FINGERPRINTS_MAGIC, FINGERPRINT_ENTRY, rows):
            raise CorruptDataError(
                f"{FINGERPRINTS_FILENAME} does not list every clique id once "
                "under its record's fingerprint"
            )

    def _verify_size_order(self, ids_by_size: dict[int, list[int]]) -> None:
        """``cliques.sz`` must list the ids in the (-size, id) order the
        records imply, and the manifest's histogram must count them."""
        blob = PageStore(self._directory / SIZE_ORDER_FILENAME, self._io).read_all()
        if blob != encode_size_order(ids_by_size):
            raise CorruptDataError(
                f"{SIZE_ORDER_FILENAME} does not list the clique ids by "
                "descending size"
            )
        histogram = sorted((-size, len(ids)) for size, ids in ids_by_size.items())
        if histogram != self._size_runs:
            raise CorruptDataError(
                "manifest size histogram does not match the records' sizes"
            )

    # ------------------------------------------------------------------
    # Staleness (a frozen snapshot never goes stale)
    # ------------------------------------------------------------------
    @property
    def stale_vertices(self) -> frozenset[int]:
        """Always empty: the snapshot answers exactly what it indexed."""
        return frozenset()

    def is_stale(self, *vertices: int) -> bool:
        """Always ``False``; see the module docstring."""
        return False
