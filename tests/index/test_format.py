"""Codec tests for the index binary layouts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptDataError, StorageFormatError
from repro.index.format import (
    check_magic,
    decode_clique_record,
    decode_delta_list,
    decode_postings,
    decode_varint,
    encode_clique_record,
    encode_delta_list,
    encode_postings,
    encode_varint,
)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**63))
    def test_roundtrip(self, value):
        decoded, end = decode_varint(encode_varint(value))
        assert decoded == value
        assert end == len(encode_varint(value))

    def test_single_byte_values(self):
        for value in (0, 1, 127):
            assert len(encode_varint(value)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(StorageFormatError):
            encode_varint(-1)

    def test_truncated_raises(self):
        encoded = encode_varint(300)
        with pytest.raises(StorageFormatError, match="truncated"):
            decode_varint(encoded[:-1])

    def test_empty_buffer_raises(self):
        with pytest.raises(StorageFormatError, match="truncated"):
            decode_varint(b"")


class TestDeltaList:
    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), unique=True))
    def test_roundtrip(self, values):
        ordered = sorted(values)
        encoded = encode_delta_list(ordered)
        decoded, end = decode_delta_list(encoded, len(ordered))
        assert list(decoded) == ordered
        assert end == len(encoded)

    def test_non_ascending_rejected(self):
        with pytest.raises(StorageFormatError, match="ascending"):
            encode_delta_list([3, 3])
        with pytest.raises(StorageFormatError, match="ascending"):
            encode_delta_list([5, 2])

    @settings(max_examples=200)
    @given(st.lists(
        st.one_of(st.integers(0, 300), st.integers(0, 40_000), st.integers(0, 10**7)),
        unique=True, min_size=1,
    ))
    def test_bytes_are_the_varints_of_first_value_and_gaps(self, values):
        """Whatever path the encoder takes, its bytes are encode_varint of
        the first value followed by encode_varint of each gap, and the
        decoder reads them back from inside a larger buffer."""
        ordered = sorted(values)
        gaps = [b - a for a, b in zip(ordered, ordered[1:])]
        expected = b"".join(map(encode_varint, [ordered[0], *gaps]))
        assert encode_delta_list(ordered) == expected
        assert decode_delta_list(b"\xff" + expected + b"\xff", len(ordered), 1) == (
            tuple(ordered), 1 + len(expected)
        )

    def test_truncated_list_is_format_error(self):
        encoded = encode_delta_list([5, 300, 20_000])
        for cut in range(len(encoded)):
            with pytest.raises(StorageFormatError, match="truncated"):
                decode_delta_list(encoded[:cut], 3)

    def test_dense_run_encodes_one_byte_per_gap(self):
        # 1000 consecutive ids: first varint + 999 single-byte deltas.
        encoded = encode_delta_list(list(range(5000, 6000)))
        assert len(encoded) == len(encode_varint(5000)) + 999


class TestCliqueRecord:
    @settings(max_examples=60)
    @given(st.sets(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40))
    def test_roundtrip(self, vertices):
        ordered = tuple(sorted(vertices))
        encoded = encode_clique_record(ordered)
        decoded, end = decode_clique_record(encoded)
        assert decoded == ordered
        assert end == len(encoded)

    def test_empty_clique_rejected(self):
        with pytest.raises(StorageFormatError):
            encode_clique_record(())

    def test_self_delimiting_in_a_stream(self):
        cliques = [(0, 1, 2), (1, 5), (7,), (2, 3, 9, 11)]
        stream = b"".join(encode_clique_record(c) for c in cliques)
        offset, decoded = 0, []
        while offset < len(stream):
            vertices, offset = decode_clique_record(stream, offset)
            decoded.append(vertices)
        assert decoded == cliques

    def test_flipped_byte_detected(self):
        encoded = bytearray(encode_clique_record((3, 8, 21)))
        for position in range(len(encoded)):
            damaged = bytearray(encoded)
            damaged[position] ^= 0xFF
            with pytest.raises((CorruptDataError, StorageFormatError)):
                decode_clique_record(bytes(damaged))

    def test_verify_false_skips_crc(self):
        encoded = bytearray(encode_clique_record((3, 8, 21)))
        encoded[-1] ^= 0xFF  # damage only the checksum bytes
        vertices, _ = decode_clique_record(bytes(encoded), verify=False)
        assert vertices == (3, 8, 21)


class TestPostings:
    @settings(max_examples=60)
    @given(st.sets(st.integers(min_value=0, max_value=10**6), max_size=200))
    def test_roundtrip(self, ids):
        ordered = tuple(sorted(ids))
        encoded = encode_postings(ordered)
        decoded, end = decode_postings(encoded)
        assert decoded == ordered
        assert end == len(encoded)

    def test_empty_postings_roundtrip(self):
        decoded, _ = decode_postings(encode_postings(()))
        assert decoded == ()

    def test_corruption_detected(self):
        encoded = bytearray(encode_postings((1, 4, 9)))
        encoded[1] ^= 0x55
        with pytest.raises((CorruptDataError, StorageFormatError)):
            decode_postings(bytes(encoded))


class TestMagic:
    def test_accepts_match(self):
        check_magic(b"RPXCLQ1\nrest", b"RPXCLQ1\n", "cliques.dat")

    def test_rejects_mismatch(self):
        with pytest.raises(StorageFormatError, match="cliques.dat"):
            check_magic(b"GARBAGE!", b"RPXCLQ1\n", "cliques.dat")
