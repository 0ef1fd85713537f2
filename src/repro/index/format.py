"""Binary layouts for the persisted clique index.

An index directory holds six binary files plus a JSON manifest::

    cliques.dat    clique records, one per maximal clique, in canonical
                   (lexicographic) order; clique ids are implicit ranks
    cliques.idx    fixed 16-byte directory entry per clique id
    cliques.fp     fixed 8-byte (fingerprint, clique id) entry per clique,
                   sorted; the fingerprint is the record's own CRC32
    cliques.sz     fixed 4-byte clique id per clique, ordered by
                   (descending size, ascending id): the top-k order
    postings.dat   per-vertex postings lists (ascending clique ids)
    postings.dir   fixed 24-byte directory entry per vertex, ascending
    manifest.json  counts, per-file CRC32s, size histogram (commit point)

All integers are little-endian; variable-width integers use unsigned
LEB128 ("varint").  Sorted sequences (clique vertices, postings lists)
are delta-encoded — the first element raw, then successive gaps — so
records stay small on the locally-dense id ranges community graphs
produce.  The three fixed-width tables (``postings.dir``, ``cliques.fp``
and ``cliques.sz``) are laid out in pages: every page opens with the
file magic and holds whole entries only.  A reader that keeps the first
and last key of each page of the two sorted tables in memory finds any
key with one page read; entry ``i`` of ``cliques.sz`` lives on page
``i // 1022``, and its size follows from the manifest's size
histogram, so the entries carry none.  Every
variable-length payload carries a trailing CRC32, the same discipline
as DiskGraph format v2: a flipped bit surfaces as a typed
:class:`~repro.errors.CorruptDataError`, never a silently wrong query
answer.

The layouts are fully deterministic: the same clique *set* always
serialises to the same bytes, independent of enumeration order, worker
count, or enumerator.  ``tests/index/test_builder.py`` pins that guarantee.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
import zlib
from typing import Mapping, Sequence

from repro.errors import CorruptDataError, StorageFormatError
from repro.storage.pagestore import PAGE_SIZE_BYTES

#: Magic bytes opening each index file (8 bytes each, versioned).
RECORDS_MAGIC = b"RPXCLQ1\n"
OFFSETS_MAGIC = b"RPXIDX1\n"
POSTINGS_MAGIC = b"RPXPST1\n"
DIRECTORY_MAGIC = b"RPXDIR2\n"
FINGERPRINTS_MAGIC = b"RPXFPR1\n"
SIZE_ORDER_MAGIC = b"RPXSIZ1\n"

#: Manifest schema identifier; bump on incompatible layout changes.
MANIFEST_SCHEMA = "repro.index/3"

#: Filenames inside an index directory.
RECORDS_FILENAME = "cliques.dat"
OFFSETS_FILENAME = "cliques.idx"
FINGERPRINTS_FILENAME = "cliques.fp"
SIZE_ORDER_FILENAME = "cliques.sz"
POSTINGS_FILENAME = "postings.dat"
DIRECTORY_FILENAME = "postings.dir"
MANIFEST_FILENAME = "manifest.json"

#: ``cliques.idx`` entry: byte offset (u64), byte length (u32), clique
#: size in vertices (u32).  The size rides in the directory so
#: ``clique_size`` never touches the record file.
OFFSET_ENTRY = struct.Struct("<QII")

#: ``postings.dir`` entry: vertex (u64), byte offset (u64), byte length
#: (u32), postings count (u32), sorted ascending by vertex.
DIRECTORY_ENTRY = struct.Struct("<QQII")

#: ``cliques.fp`` entry: fingerprint (u32), clique id (u32), sorted
#: ascending by ``(fingerprint, id)``.
FINGERPRINT_ENTRY = struct.Struct("<II")

#: ``cliques.sz`` entry: clique id (u32), in (descending size, ascending
#: id) order.
SIZE_ORDER_ENTRY = struct.Struct("<I")

#: Bytes at the start of every page of a paged table (the file magic).
TABLE_PAGE_HEADER = 8

_CRC = struct.Struct("<I")

#: Values below this encode to one- or two-byte varints.
_VARINT_TABLE_SIZE = 1 << 14


# ---------------------------------------------------------------------------
# Varint + delta codecs
# ---------------------------------------------------------------------------
def encode_varint(value: int) -> bytes:
    """Unsigned LEB128 encoding of a non-negative integer."""
    if value < 0:
        raise StorageFormatError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buffer: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint at ``offset``; return ``(value, next_offset)``.

    Raises :class:`~repro.errors.StorageFormatError` when the buffer ends
    mid-varint (a truncated record).
    """
    value = 0
    shift = 0
    while True:
        if offset >= len(buffer):
            raise StorageFormatError("truncated varint")
        byte = buffer[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


@functools.cache
def _varint_table() -> tuple[bytes, ...]:
    """:func:`encode_varint` of every value below ``2**14`` — all one- and
    two-byte varints — built on first use."""
    return tuple(map(encode_varint, range(_VARINT_TABLE_SIZE)))


def encode_delta_list(values: Sequence[int]) -> bytes:
    """Delta-encode a strictly ascending sequence of non-negative ints.

    The first value and the gaps are looked up in a table of
    :func:`encode_varint` outputs when they all fit two bytes (the
    usual case: vertex ids and clique-id gaps are small), and encoded
    one by one otherwise; the bytes are the same either way.
    """
    if not values:
        return b""
    gaps = list(map(operator.sub, values[1:], values))
    if gaps and min(gaps) <= 0:
        position = next(i for i, gap in enumerate(gaps) if gap <= 0)
        raise StorageFormatError(
            f"delta lists must be strictly ascending, got {values[position + 1]} "
            f"after {values[position]}"
        )
    first = values[0]
    if 0 <= first < _VARINT_TABLE_SIZE and (not gaps or max(gaps) < _VARINT_TABLE_SIZE):
        table = _varint_table()
        return table[first] + b"".join(map(table.__getitem__, gaps))
    return encode_varint(first) + b"".join(map(encode_varint, gaps))


def decode_delta_list(buffer: bytes, count: int, offset: int = 0) -> tuple[tuple[int, ...], int]:
    """Decode ``count`` delta-encoded values; return ``(values, next_offset)``.

    The varints are read in one pass over the bytes; a buffer that ends
    mid-list raises :class:`~repro.errors.StorageFormatError`.
    """
    values: list[int] = []
    append = values.append
    current = value = shift = 0
    remaining = count
    try:
        while remaining:
            byte = buffer[offset]
            offset += 1
            if byte & 0x80:
                value |= (byte & 0x7F) << shift
                shift += 7
                continue
            current += value | (byte << shift)
            append(current)
            value = shift = 0
            remaining -= 1
    except IndexError:
        raise StorageFormatError("truncated varint") from None
    return tuple(values), offset


# ---------------------------------------------------------------------------
# Clique records (cliques.dat)
# ---------------------------------------------------------------------------
def encode_clique_record(vertices: Sequence[int]) -> bytes:
    """Serialise one clique: varint size, delta-encoded vertices, CRC32."""
    if not vertices:
        raise StorageFormatError("cannot encode an empty clique")
    payload = encode_varint(len(vertices)) + encode_delta_list(vertices)
    return payload + _CRC.pack(zlib.crc32(payload))


def decode_clique_record(
    buffer: bytes, offset: int = 0, verify: bool = True
) -> tuple[tuple[int, ...], int]:
    """Decode one clique record at ``offset``; return ``(vertices, next_offset)``.

    Self-delimiting, so a sequential scan can walk the record file
    without the offsets directory.  Raises
    :class:`~repro.errors.StorageFormatError` on truncation and
    :class:`~repro.errors.CorruptDataError` on a CRC mismatch.
    """
    size, body = decode_varint(buffer, offset)
    if size == 0:
        raise StorageFormatError(f"empty clique record at offset {offset}")
    vertices, end = decode_delta_list(buffer, size, body)
    if end + _CRC.size > len(buffer):
        raise StorageFormatError(f"truncated clique record checksum at offset {offset}")
    if verify:
        (stored,) = _CRC.unpack_from(buffer, end)
        computed = zlib.crc32(buffer[offset:end])
        if stored != computed:
            raise CorruptDataError(
                f"clique record checksum mismatch at offset {offset}: "
                f"stored {stored:#010x}, computed {computed:#010x}"
            )
    return vertices, end + _CRC.size


def clique_fingerprint(record: bytes) -> int:
    """The fingerprint ``cliques.fp`` sorts by: an encoded record's CRC32."""
    (crc,) = _CRC.unpack_from(record, len(record) - _CRC.size)
    return crc


# ---------------------------------------------------------------------------
# Paged fixed-width tables (postings.dir, cliques.fp, cliques.sz)
# ---------------------------------------------------------------------------
def table_entries_per_page(entry: struct.Struct) -> int:
    """Whole entries that fit on one page after its magic header."""
    return (PAGE_SIZE_BYTES - TABLE_PAGE_HEADER) // entry.size


def table_size(entry: struct.Struct, count: int) -> int:
    """Byte size of a sorted table of ``count`` entries."""
    per_page = table_entries_per_page(entry)
    pages = max(1, -(-count // per_page))
    last = count - (pages - 1) * per_page
    return (pages - 1) * PAGE_SIZE_BYTES + TABLE_PAGE_HEADER + last * entry.size


def encode_table(magic: bytes, entry: struct.Struct, rows: Sequence[tuple]) -> bytes:
    """Pack sorted ``rows`` page by page: magic, whole entries, zero padding.

    The last page stops after its last entry, so the file size is
    :func:`table_size`.
    """
    per_page = table_entries_per_page(entry)
    fields = entry.format.lstrip("<")
    pages = []
    for start in range(0, max(len(rows), 1), per_page):
        chunk = rows[start:start + per_page]
        packed = struct.pack("<" + fields * len(chunk), *itertools.chain.from_iterable(chunk))
        pages.append(magic + packed)
    return b"".join(page.ljust(PAGE_SIZE_BYTES, b"\0") for page in pages[:-1]) + pages[-1]


def encode_size_order(ids_by_size: Mapping[int, Sequence[int]]) -> bytes:
    """``cliques.sz`` from each clique size's ascending ids.

    Concatenating the buckets largest size first is the counting sort
    into (descending size, ascending id) order.
    """
    order = itertools.chain.from_iterable(
        ids_by_size[size] for size in sorted(ids_by_size, reverse=True)
    )
    return encode_table(SIZE_ORDER_MAGIC, SIZE_ORDER_ENTRY, list(zip(order)))


# ---------------------------------------------------------------------------
# Postings lists (postings.dat)
# ---------------------------------------------------------------------------
def encode_postings(clique_ids: Sequence[int]) -> bytes:
    """Serialise one vertex's postings: varint count, deltas, CRC32."""
    payload = encode_varint(len(clique_ids)) + encode_delta_list(clique_ids)
    return payload + _CRC.pack(zlib.crc32(payload))


def decode_postings(
    buffer: bytes, offset: int = 0, verify: bool = True
) -> tuple[tuple[int, ...], int]:
    """Decode one postings list at ``offset``; return ``(ids, next_offset)``."""
    count, body = decode_varint(buffer, offset)
    clique_ids, end = decode_delta_list(buffer, count, body)
    if end + _CRC.size > len(buffer):
        raise StorageFormatError(f"truncated postings checksum at offset {offset}")
    if verify:
        (stored,) = _CRC.unpack_from(buffer, end)
        computed = zlib.crc32(buffer[offset:end])
        if stored != computed:
            raise CorruptDataError(
                f"postings checksum mismatch at offset {offset}: "
                f"stored {stored:#010x}, computed {computed:#010x}"
            )
    return clique_ids, end + _CRC.size


def check_magic(data: bytes, magic: bytes, filename: str) -> None:
    """Validate a file's opening magic bytes."""
    if data[: len(magic)] != magic:
        raise StorageFormatError(
            f"{filename} does not start with {magic!r} (got {data[:len(magic)]!r})"
        )
