"""CRC32-checksummed write-ahead delta log.

One log file holds an append-only sequence of clique deltas::

    RPXWAL1\\n                                 8-byte magic
    record := varint(seq) kind(u8) varint(n) delta_list(vertices) crc32

The payload codecs are the index codecs (:mod:`repro.index.format`):
LEB128 varints, delta-encoded sorted vertex lists, a trailing CRC32 of
the payload.  Records are self-delimiting, so replay needs no directory.

Durability and failure semantics follow the checkpoint discipline:

* every append goes through the writer's one open
  :class:`~repro.storage.pagestore.PageAppender` (I/O accounting plus
  the ``"write"`` fault-injection site, one unbuffered ``write(2)``)
  and is fsynced before :meth:`DeltaLogWriter.append` returns — an
  acknowledged delta survives a crash;
* a *torn tail* — the file ends mid-record, the signature of a crash
  during an append — is recovered by truncating back to the last whole
  record (:func:`replay_delta_log` with ``recover_tail=True`` reports
  the cut; :meth:`DeltaLogWriter.open_for_append` performs it);
* a CRC32 mismatch on any record that is *not* a truncation is
  corruption, never silently skipped: replay raises
  :class:`~repro.errors.CorruptDataError`, exactly like the index and
  DiskGraph v2 readers.

A failed append (injected or real ``OSError``) leaves the file torn; the
writer repairs it immediately by truncating back to the pre-append
length, so the next append never buries garbage between valid records.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator

from repro import metrics
from repro.errors import CorruptDataError, StorageError, StorageFormatError
from repro.index.format import (
    decode_delta_list,
    decode_varint,
    encode_delta_list,
    encode_varint,
)
from repro.live.deltas import ADD, REMOVE, CliqueDelta
from repro.storage.iostats import IOStats
from repro.storage.pagestore import PageAppender, PageStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

#: Magic bytes opening a delta log (8 bytes, versioned).
WAL_MAGIC = b"RPXWAL1\n"

_CRC = struct.Struct("<I")
_KIND_CODES = {ADD: 0, REMOVE: 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        records=registry.counter(
            "repro_live_wal_records_total", "delta records appended to WALs"
        ),
        bytes=registry.counter(
            "repro_live_wal_bytes_total", "bytes appended to WALs"
        ),
        torn_tails=registry.counter(
            "repro_live_wal_torn_tails_total",
            "torn WAL tails truncated during recovery or append repair",
        ),
        replayed=registry.counter(
            "repro_live_wal_replayed_total", "delta records replayed from WALs"
        ),
    )
)


def encode_delta_record(delta: CliqueDelta) -> bytes:
    """Serialise one delta: seq, kind, vertex count, deltas, CRC32."""
    payload = (
        encode_varint(delta.seq)
        + bytes((_KIND_CODES[delta.kind],))
        + encode_varint(len(delta.vertices))
        + encode_delta_list(delta.vertices)
    )
    return payload + _CRC.pack(zlib.crc32(payload))


def decode_delta_record(
    buffer: bytes, offset: int = 0, verify: bool = True
) -> tuple[CliqueDelta, int]:
    """Decode one delta record at ``offset``; return ``(delta, next_offset)``.

    Raises :class:`~repro.errors.StorageFormatError` on truncation and
    :class:`~repro.errors.CorruptDataError` on a CRC mismatch — callers
    use the distinction to tell a torn tail from a flipped bit.
    """
    seq, cursor = decode_varint(buffer, offset)
    if cursor >= len(buffer):
        raise StorageFormatError(f"truncated delta record kind at offset {offset}")
    code = buffer[cursor]
    cursor += 1
    if code not in _KIND_NAMES:
        raise CorruptDataError(
            f"delta record at offset {offset} has unknown kind byte {code:#04x}"
        )
    count, cursor = decode_varint(buffer, cursor)
    if count == 0:
        raise CorruptDataError(f"empty delta record at offset {offset}")
    vertices, end = decode_delta_list(buffer, count, cursor)
    if end + _CRC.size > len(buffer):
        raise StorageFormatError(f"truncated delta record checksum at offset {offset}")
    if verify:
        (stored,) = _CRC.unpack_from(buffer, end)
        computed = zlib.crc32(buffer[offset:end])
        if stored != computed:
            raise CorruptDataError(
                f"delta record checksum mismatch at offset {offset}: "
                f"stored {stored:#010x}, computed {computed:#010x}"
            )
    return CliqueDelta(kind=_KIND_NAMES[code], vertices=vertices, seq=seq), end + _CRC.size


@dataclass
class ReplayReport:
    """What one :func:`replay_delta_log` pass found."""

    records: int = 0
    valid_bytes: int = 0
    torn_bytes: int = 0

    @property
    def torn(self) -> bool:
        """Whether the log ended in a torn (truncated) record."""
        return self.torn_bytes > 0


def replay_delta_log(
    path: str | Path,
    recover_tail: bool = False,
    verify: bool = True,
    io_stats: IOStats | None = None,
    fault_plan: "FaultPlan | None" = None,
    report: ReplayReport | None = None,
) -> Iterator[CliqueDelta]:
    """Yield every delta in the log, in append order.

    With ``recover_tail=True`` a *final* truncated record — the torn
    tail a crashed append leaves — is dropped (and counted in
    ``report``); without it, truncation raises
    :class:`~repro.errors.StorageFormatError`.  A CRC mismatch always
    raises :class:`~repro.errors.CorruptDataError`: corruption is never
    survivable, only tearing is.
    """
    store = PageStore(path, io_stats, fault_plan)
    data = store.read_all()
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise StorageFormatError(
            f"{path} does not start with {WAL_MAGIC!r} (got {data[:len(WAL_MAGIC)]!r})"
        )
    bundle = _METRICS()
    offset = len(WAL_MAGIC)
    while offset < len(data):
        try:
            delta, offset = decode_delta_record(data, offset, verify=verify)
        except StorageFormatError:
            # Truncation: the record runs past EOF, so nothing valid can
            # follow — this is a torn tail by construction.
            if not recover_tail:
                raise
            bundle.torn_tails.inc()
            if report is not None:
                report.torn_bytes = len(data) - offset
                report.valid_bytes = offset
            return
        bundle.replayed.inc()
        if report is not None:
            report.records += 1
            report.valid_bytes = offset
        yield delta


class DeltaLogWriter:
    """Append-only writer over one WAL file, fsynced per append batch.

    The writer holds one open append handle for its lifetime and tracks
    the log length in memory; :meth:`close` releases the handle.
    """

    def __init__(
        self,
        path: str | Path,
        io_stats: IOStats | None = None,
        fault_plan: "FaultPlan | None" = None,
        fsync: bool = True,
    ) -> None:
        self._store = PageStore(path, io_stats, fault_plan)
        self._path = Path(path)
        self._fsync = fsync
        self._poisoned: str | None = None
        self._appender = PageAppender(self._store)
        self._length = self._store.size_bytes()

    @property
    def path(self) -> Path:
        """Filesystem location of the log."""
        return self._path

    def size_bytes(self) -> int:
        """Current log size in bytes."""
        return self._length

    @classmethod
    def create(cls, path: str | Path, **kwargs) -> "DeltaLogWriter":
        """Create a fresh, empty log (magic only) and return its writer."""
        writer = cls(path, **kwargs)
        if writer._length > 0:
            raise StorageError(f"refusing to create WAL over existing file {path}")
        writer._length = writer._appender.write(WAL_MAGIC)
        writer._sync()
        return writer

    @classmethod
    def open_for_append(
        cls, path: str | Path, **kwargs
    ) -> tuple["DeltaLogWriter", list[CliqueDelta]]:
        """Open an existing log: replay it (truncating any torn tail) and
        return ``(writer, replayed_deltas)``."""
        writer = cls(path, **kwargs)
        report = ReplayReport()
        deltas = list(
            replay_delta_log(
                path,
                recover_tail=True,
                io_stats=writer._store.io_stats,
                report=report,
            )
        )
        if report.torn:
            writer._truncate(report.valid_bytes)
        return writer, deltas

    def append(self, deltas: Iterable[CliqueDelta]) -> int:
        """Durably append ``deltas``; returns the bytes written.

        On failure the file is truncated back to its pre-append length —
        the log never carries garbage between valid records — and the
        error propagates.  A writer whose repair truncation itself failed
        is *poisoned*: every later append raises, because the on-disk
        tail state is unknown.
        """
        if self._poisoned is not None:
            raise StorageError(
                f"WAL writer for {self._path} is poisoned: {self._poisoned}"
            )
        deltas = list(deltas)
        encoded = b"".join(encode_delta_record(delta) for delta in deltas)
        if not encoded:
            return 0
        try:
            written = self._appender.write(encoded)
            self._sync()
        except StorageError:
            try:
                self._truncate(self._length)
            except OSError as exc:  # pragma: no cover — repair path
                self._poisoned = f"tail repair failed: {exc}"
            raise
        self._length += written
        bundle = _METRICS()
        bundle.records.inc(len(deltas))
        bundle.bytes.inc(len(encoded))
        return len(encoded)

    def _truncate(self, length: int) -> None:
        fd = self._appender.fileno()
        if os.fstat(fd).st_size > length:
            _METRICS().torn_tails.inc()
            os.ftruncate(fd, length)
            os.fsync(fd)
        self._length = length

    def sync(self) -> None:
        """Force an fsync now, even when per-append fsync is disabled.

        Graceful drain calls this so an operator SIGTERM never races a
        store opened with ``fsync=False`` for throughput.
        """
        os.fsync(self._appender.fileno())

    def _sync(self) -> None:
        if not self._fsync:
            return
        self.sync()

    def close(self) -> None:
        """Release the append handle (idempotent)."""
        self._appender.close()
