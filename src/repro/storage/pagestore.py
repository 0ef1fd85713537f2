"""Page-granular file access with I/O accounting.

All disk traffic in the library flows through :class:`PageStore`, which
reads and writes real files but meters every operation in 4 KiB pages via
an :class:`~repro.storage.iostats.IOStats`.  Sequential scans stream the
file in large chunks; random reads additionally record a seek, matching the
cost model the paper argues from.

Failure model: every ``OSError`` from the filesystem is wrapped into a
typed :class:`~repro.errors.StorageIOError`, and an optional
:class:`~repro.faults.FaultPlan` can deterministically inject I/O errors,
short reads, torn writes, corrupted bytes and latency at the same sites —
the fault-injection suite drives the hardening above this layer through
exactly these hooks.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from types import SimpleNamespace

from repro import metrics
from repro.errors import StorageError, StorageIOError
from repro.storage.iostats import IOStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import Fault, FaultPlan

#: Page size used for I/O accounting (a common filesystem block size).
PAGE_SIZE_BYTES = 4096

#: Chunk size for sequential streaming (must be a multiple of the page size).
_SCAN_CHUNK_BYTES = 64 * PAGE_SIZE_BYTES


#: Byte-granular traffic counters (the page counters live in IOStats;
#: bytes expose the slack between payload and page-rounded accounting).
_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        bytes_read=registry.counter(
            "repro_storage_bytes_read_total", "payload bytes fetched from disk"
        ),
        bytes_written=registry.counter(
            "repro_storage_bytes_written_total", "payload bytes written to disk"
        ),
    )
)


def _pages(num_bytes: int) -> int:
    """Number of pages touched by ``num_bytes`` of contiguous data."""
    return (num_bytes + PAGE_SIZE_BYTES - 1) // PAGE_SIZE_BYTES


def _span_pages(offset: int, length: int) -> int:
    """Pages spanned by ``length`` bytes at ``offset`` (0 for empty spans)."""
    if length <= 0:
        return 0
    first_page = offset // PAGE_SIZE_BYTES
    last_page = (offset + length - 1) // PAGE_SIZE_BYTES
    return last_page - first_page + 1


class PageStore:
    """A metered file: append-only writes, sequential scans, random reads."""

    def __init__(
        self,
        path: str | Path,
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self._path = Path(path)
        self._io = io_stats if io_stats is not None else IOStats()
        self._faults = fault_plan

    @property
    def path(self) -> Path:
        """Filesystem location of the store."""
        return self._path

    @property
    def io_stats(self) -> IOStats:
        """The counters this store reports to."""
        return self._io

    @property
    def fault_plan(self) -> "FaultPlan | None":
        """The fault plan consulted by this store (``None`` in production)."""
        return self._faults

    def exists(self) -> bool:
        """Whether the backing file exists."""
        return self._path.exists()

    def size_bytes(self) -> int:
        """Current file size in bytes (0 when absent)."""
        return self._path.stat().st_size if self._path.exists() else 0

    def size_pages(self) -> int:
        """Current file size in accounting pages."""
        return _pages(self.size_bytes())

    def write_all(self, data: bytes) -> None:
        """Replace the file contents with ``data`` (counted as page writes)."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        data = self._apply_write_fault("write_all", data)
        try:
            with open(self._path, "wb") as handle:
                handle.write(data)
        except OSError as exc:
            raise StorageIOError("write_all", self._path, str(exc)) from exc
        self._io.record_write(_pages(len(data)))
        _METRICS().bytes_written.inc(len(data))

    def append(self, data: bytes) -> None:
        """Append ``data`` (counted as page writes)."""
        appender = PageAppender(self)
        try:
            appender.write(data)
        finally:
            appender.close()

    def read_all(self) -> bytes:
        """Read the whole file sequentially (one scan)."""
        return b"".join(self.scan_chunks())

    def scan_chunks(self) -> Iterator[bytes]:
        """Stream the file start-to-end in page-aligned chunks.

        Counts the pages read.  The *scan counter* is owned by
        :meth:`repro.storage.diskgraph.DiskGraph.scan`, so that Table 6's
        "scans of G" metric counts passes over the graph, not reads of
        small spill files.
        """
        if not self._path.exists():
            raise StorageError(f"page store {self._path} does not exist")
        fault = self._draw("scan")
        if fault is not None and fault.kind == "io_error":
            raise StorageIOError("scan", self._path, "injected I/O error")
        try:
            with open(self._path, "rb") as handle:
                first = True
                while True:
                    chunk = handle.read(_SCAN_CHUNK_BYTES)
                    if not chunk:
                        break
                    if first and fault is not None:
                        chunk = self._damage(fault, chunk)
                        first = False
                        if not chunk:
                            break
                    self._io.record_read(_pages(len(chunk)))
                    _METRICS().bytes_read.inc(len(chunk))
                    yield chunk
                    if fault is not None and fault.kind == "short_read" and not first:
                        break  # injected truncation: drop the file's tail
        except OSError as exc:
            raise StorageIOError("scan", self._path, str(exc)) from exc

    def read_at(self, offset: int, length: int) -> bytes:
        """Random read: seek to ``offset`` and read ``length`` bytes.

        Counts one seek plus the spanned pages (a read that straddles a
        page boundary touches both pages, as on a real device).  A
        zero-length read touches no device at all and records nothing.
        """
        if offset < 0 or length < 0:
            raise StorageError(f"invalid read at offset={offset} length={length}")
        if not self._path.exists():
            raise StorageError(f"page store {self._path} does not exist")
        if length == 0:
            return b""
        fault = self._draw("read")
        if fault is not None and fault.kind == "io_error":
            raise StorageIOError("read", self._path, "injected I/O error")
        try:
            with open(self._path, "rb") as handle:
                handle.seek(offset)
                data = handle.read(length)
        except OSError as exc:
            raise StorageIOError("read", self._path, str(exc)) from exc
        if fault is not None:
            data = self._damage(fault, data)
        if len(data) < length:
            raise StorageError(
                f"short read at offset {offset}: wanted {length} bytes, got {len(data)}"
            )
        self._io.record_seek()
        self._io.record_read(_span_pages(offset, length))
        _METRICS().bytes_read.inc(length)
        return data

    def patch(self, offset: int, data: bytes) -> None:
        """Overwrite ``len(data)`` bytes in place at ``offset``.

        Used to fix up a file header once streamed record counts are known;
        counts the spanned pages as writes (nothing for an empty patch).
        """
        if not self._path.exists():
            raise StorageError(f"page store {self._path} does not exist")
        if offset < 0 or offset + len(data) > self.size_bytes():
            raise StorageError(
                f"patch at offset {offset} of {len(data)} bytes exceeds file size"
            )
        if not data:
            return
        data = self._apply_write_fault("patch", data)
        try:
            with open(self._path, "r+b") as handle:
                handle.seek(offset)
                handle.write(data)
        except OSError as exc:
            raise StorageIOError("patch", self._path, str(exc)) from exc
        self._io.record_write(_span_pages(offset, len(data)))
        _METRICS().bytes_written.inc(len(data))

    def delete(self) -> None:
        """Remove the backing file if present."""
        if self._path.exists():
            os.remove(self._path)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _draw(self, operation: str) -> "Fault | None":
        """Consult the plan; latency faults are absorbed here."""
        if self._faults is None:
            return None
        fault = self._faults.draw(operation, path=str(self._path))
        if fault is None:
            return None
        if fault.kind == "latency":
            time.sleep(fault.latency_seconds)
            return None
        return fault

    @staticmethod
    def _damage(fault: "Fault", data: bytes) -> bytes:
        """Apply a read-side fault to fetched bytes."""
        if fault.kind == "corrupt":
            from repro.faults import corrupt_bytes

            return corrupt_bytes(data, fault.fraction)
        if fault.kind == "short_read":
            return data[: int(fault.fraction * len(data))]
        return data

    def _apply_write_fault(self, operation: str, data: bytes) -> bytes:
        """Consult the plan before a write; may raise or truncate.

        A torn write persists only a deterministic prefix and *then*
        raises — the on-disk state is the half-written block a crashing
        writer leaves behind, and the caller still learns the write
        failed (crash-without-notice is the integration suite's SIGKILL
        test, not an injectable rule).
        """
        fault = self._draw("write")
        if fault is None:
            return data
        if fault.kind == "io_error":
            raise StorageIOError(operation, self._path, "injected I/O error")
        if fault.kind == "torn_write" and data:
            if operation == "patch":
                # An in-place patch is sub-page; model the tear as a
                # plain failure (nothing persisted) rather than tracking
                # partial offsets.
                raise StorageIOError(operation, self._path, "injected torn write")
            keep = int(fault.fraction * len(data))
            torn = data[:keep]
            try:
                with open(self._path, "ab" if operation == "append" else "wb") as handle:
                    handle.write(torn)
            except OSError as exc:
                raise StorageIOError(operation, self._path, str(exc)) from exc
            self._io.record_write(_pages(len(torn)))
            raise StorageIOError(
                operation, self._path,
                f"injected torn write: {len(torn)} of {len(data)} bytes persisted",
            )
        if fault.kind == "corrupt":
            from repro.faults import corrupt_bytes

            return corrupt_bytes(data, fault.fraction)
        return data


class PageAppender:
    """A page store's file held open for appending.

    The one append path: :meth:`PageStore.append` opens an appender per
    call, a long-lived writer (the WAL) keeps one.  The file is opened
    unbuffered on the first write, so each write is one ``write(2)``
    and a crash never strands bytes in a user-space buffer.  Every write
    passes the store's ``"write"`` fault site and is metered in pages.
    """

    def __init__(self, store: PageStore) -> None:
        store.path.parent.mkdir(parents=True, exist_ok=True)
        self._store = store
        self._handle = None

    def write(self, data: bytes) -> int:
        """Append ``data``; returns the bytes written."""
        store = self._store
        data = store._apply_write_fault("append", data)
        try:
            handle = self._open()
            view = memoryview(data)
            while view:
                view = view[handle.write(view):]
        except OSError as exc:
            raise StorageIOError("append", store.path, str(exc)) from exc
        store.io_stats.record_write(_pages(len(data)))
        _METRICS().bytes_written.inc(len(data))
        return len(data)

    def fileno(self) -> int:
        """The open file descriptor (for ``fsync`` and truncation)."""
        return self._open().fileno()

    def _open(self):
        if self._handle is None:
            self._handle = open(self._store.path, "ab", buffering=0)
        return self._handle

    def close(self) -> None:
        """Close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
