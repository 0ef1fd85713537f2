"""Binary record layout for on-disk adjacency lists.

One record per vertex::

    vertex id        uint64
    current degree   uint32   (degree in the *residual* graph)
    original degree  uint32   (degree in the graph as first written)
    neighbors        current-degree x uint64
    crc32            uint32   (format v2 only; over header + neighbors)

The original degree is persisted because the paper's recursion needs it
long after the residual graph has shed edges: a singleton ``{v}`` is a
maximal clique of ``G`` only when ``d(v) = 0`` *in the original graph*
(Section 4.3).  Keeping it in the record preserves the external-memory
discipline — no in-memory map over all of ``V`` is required.

Format v2 (magic ``HSTARGR2``) appends a CRC32 to every record so a
flipped bit on disk surfaces as a typed
:class:`~repro.errors.CorruptDataError` instead of a silently wrong
neighbor list.  v1 files (``HSTARGR1``) remain readable — they simply
carry no checksums to verify.
"""

from __future__ import annotations

import functools
import struct
import zlib
from collections.abc import Generator, Sequence
from dataclasses import dataclass

from repro import metrics
from repro.errors import CorruptDataError, StorageFormatError

_HEADER = struct.Struct("<QII")
_CRC = struct.Struct("<I")

#: Integrity counters: verified records and detected CRC mismatches.
_CHECKSUM_METRICS = metrics.bound(
    lambda registry: {
        "verified": registry.counter(
            "repro_storage_records_verified_total",
            "records whose CRC32 was checked on read",
        ),
        "failures": registry.counter(
            "repro_storage_checksum_failures_total",
            "record CRC32 mismatches detected on read",
        ),
    }
)

#: Magic bytes identifying a format-v1 DiskGraph file (no checksums).
FILE_MAGIC = b"HSTARGR1"

#: Magic bytes identifying a format-v2 DiskGraph file (per-record CRC32).
FILE_MAGIC_V2 = b"HSTARGR2"


@functools.lru_cache(maxsize=1024)
def _neighbor_block(degree: int) -> struct.Struct:
    """Compiled ``degree``-id neighbor layout: ~2.5x faster than a format string."""
    return struct.Struct(f"<{degree}Q")


@dataclass(slots=True)
class VertexRecord:
    """A decoded on-disk adjacency record."""

    vertex: int
    original_degree: int
    neighbors: tuple[int, ...]

    @property
    def degree(self) -> int:
        """Degree in the residual graph (length of the stored list)."""
        return len(self.neighbors)


def encode_record(
    vertex: int,
    neighbors: Sequence[int],
    original_degree: int,
    checksum: bool = False,
) -> bytes:
    """Serialise one vertex record (format v2 when ``checksum`` is set).

    Raises :class:`~repro.errors.StorageFormatError` for ids that do not
    fit the fixed-width layout.
    """
    if vertex < 0:
        raise StorageFormatError(f"vertex ids must be non-negative, got {vertex}")
    if original_degree < 0:
        raise StorageFormatError(f"original degree must be non-negative, got {original_degree}")
    try:
        header = _HEADER.pack(vertex, len(neighbors), original_degree)
        body = _neighbor_block(len(neighbors)).pack(*neighbors)
    except struct.error as exc:
        raise StorageFormatError(f"record for vertex {vertex} failed to encode: {exc}") from exc
    if not checksum:
        return header + body
    return header + body + _CRC.pack(zlib.crc32(header + body))


def decode_records(
    buffer: bytes | bytearray | memoryview,
    checksum: bool = False,
    verify: bool = True,
    spans: bool = False,
) -> Generator[VertexRecord | tuple[VertexRecord, int, int], None, int]:
    """Yield each complete record in ``buffer``; return the offset of the
    first one it does not hold completely (``len(buffer)`` if none).

    Lazy: a consumer that stops early decodes and verifies nothing past
    the record it stopped at.  ``checksum`` selects the format-v2 layout;
    ``verify`` checks its CRC32, raising
    :class:`~repro.errors.CorruptDataError` on a mismatch.  With
    ``spans``, each item is ``(record, start, end)``: the record and the
    byte span ``buffer[start:end]`` that encodes it.  ``buffer`` cannot
    be resized while the generator is suspended.
    """
    size = len(buffer)
    header_size = _HEADER.size
    crc_size = _CRC.size if checksum else 0
    check = checksum and verify
    neighbor_block = _neighbor_block
    unpack_header = _HEADER.unpack_from
    unpack_crc = _CRC.unpack_from
    crc32 = zlib.crc32
    verified = 0
    offset = 0
    try:
        with memoryview(buffer) as view:
            while offset + header_size <= size:
                vertex, degree, original_degree = unpack_header(view, offset)
                body_end = offset + header_size + 8 * degree
                if body_end + crc_size > size:
                    break
                neighbors = neighbor_block(degree).unpack_from(view, offset + header_size)
                if check:
                    verified += 1
                    (stored,) = unpack_crc(view, body_end)
                    computed = crc32(view[offset:body_end])
                    if stored != computed:
                        _CHECKSUM_METRICS()["failures"].inc()
                        raise CorruptDataError(
                            f"checksum mismatch for vertex {vertex}: "
                            f"stored {stored:#010x}, computed {computed:#010x}"
                        )
                start, offset = offset, body_end + crc_size
                record = VertexRecord(vertex, original_degree, neighbors)
                yield (record, start, offset) if spans else record
    finally:
        # One counter update per buffer, not per record; the failing
        # record of a CRC mismatch counts as verified.
        if verified:
            _CHECKSUM_METRICS()["verified"].inc(verified)
    return offset


def decode_record(
    buffer: bytes,
    offset: int = 0,
    checksum: bool = False,
    verify: bool = True,
) -> tuple[VertexRecord, int]:
    """Decode one record at ``offset``; return it and the next offset.

    Same layout and checks as :func:`decode_records`, plus a
    :class:`~repro.errors.StorageFormatError` when the buffer holds no
    complete record at ``offset``.
    """
    records = decode_records(memoryview(buffer)[offset:], checksum, verify)
    try:
        record = next(records)
    except StopIteration:
        raise StorageFormatError(
            f"truncated record at offset {offset}: {len(buffer) - offset} bytes left"
        ) from None
    records.close()
    return record, offset + record_size(record.degree, checksum)


def count_checksum_failure() -> None:
    """Count a checksum failure detected outside the record codec.

    Used by :meth:`repro.storage.diskgraph.DiskGraph.open` for header CRC
    mismatches, so ``repro_storage_checksum_failures_total`` covers every
    integrity check in the stack.
    """
    _CHECKSUM_METRICS()["failures"].inc()


def record_size(degree: int, checksum: bool = False) -> int:
    """Size in bytes of a record with the given current degree."""
    return _HEADER.size + 8 * degree + (_CRC.size if checksum else 0)
