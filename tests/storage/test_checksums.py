"""Format-v2 integrity: record CRCs, header CRC, v1 compatibility."""

import pytest

from repro.errors import CorruptDataError, StorageError, StorageFormatError
from repro.graph.adjacency import AdjacencyGraph
from repro.storage.diskgraph import DiskGraph
from repro.storage.format import (
    FILE_MAGIC,
    FILE_MAGIC_V2,
    decode_record,
    encode_record,
    record_size,
)
from repro.storage.partitions import HnbPartitionStore, parse_partition_records

from tests.helpers import seeded_gnp


class TestRecordCodec:
    def test_checksummed_round_trip(self):
        data = encode_record(7, [1, 2, 3], original_degree=5, checksum=True)
        assert len(data) == record_size(3, checksum=True) == record_size(3) + 4
        record, end = decode_record(data, checksum=True)
        assert record.vertex == 7
        assert record.neighbors == (1, 2, 3)
        assert end == len(data)

    def test_flipped_body_byte_detected(self):
        data = bytearray(encode_record(7, [1, 2, 3], 5, checksum=True))
        data[20] ^= 0x01  # inside the neighbor block
        with pytest.raises(CorruptDataError):
            decode_record(bytes(data), checksum=True)

    def test_flipped_header_byte_detected(self):
        data = bytearray(encode_record(7, [1, 2, 3], 5, checksum=True))
        data[0] ^= 0x01  # vertex id
        with pytest.raises(CorruptDataError):
            decode_record(bytes(data), checksum=True)

    def test_verify_off_accepts_damage(self):
        data = bytearray(encode_record(7, [1, 2, 3], 5, checksum=True))
        data[16] ^= 0xFF
        record, _ = decode_record(bytes(data), checksum=True, verify=False)
        assert record.vertex == 7  # header untouched; body wrong, unchecked

    def test_truncated_crc_is_format_error(self):
        data = encode_record(1, [2], 1, checksum=True)
        with pytest.raises(StorageFormatError):
            decode_record(data[:-2], checksum=True)


class TestDiskGraphFormats:
    @pytest.fixture
    def graph(self):
        return seeded_gnp(30, 0.2, seed=7)

    def test_new_files_are_v2(self, tmp_path, graph):
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        assert disk.format_version == 2
        assert (tmp_path / "g.bin").read_bytes()[:8] == FILE_MAGIC_V2
        reopened = DiskGraph.open(disk.path)
        assert reopened.format_version == 2
        assert reopened.to_adjacency_graph().num_edges == graph.num_edges

    def test_v1_files_still_open_and_scan(self, tmp_path, graph):
        records = (
            (v, sorted(graph.neighbors(v)), graph.degree(v))
            for v in sorted(graph.vertices())
        )
        disk = DiskGraph.from_records(tmp_path / "v1.bin", records, checksum=False)
        assert disk.format_version == 1
        assert (tmp_path / "v1.bin").read_bytes()[:8] == FILE_MAGIC
        reopened = DiskGraph.open(disk.path)
        assert reopened.format_version == 1
        assert reopened.to_adjacency_graph().num_edges == graph.num_edges

    def test_v1_and_v2_hold_identical_adjacency(self, tmp_path, graph):
        v2 = DiskGraph.create(tmp_path / "v2.bin", graph)
        records = (
            (v, sorted(graph.neighbors(v)), graph.degree(v))
            for v in sorted(graph.vertices())
        )
        v1 = DiskGraph.from_records(tmp_path / "v1.bin", records, checksum=False)
        assert list(v2.scan()) == list(v1.scan())

    def test_flipped_record_byte_fails_scan(self, tmp_path, graph):
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        raw = bytearray(disk.path.read_bytes())
        raw[disk.header_bytes + 18] ^= 0xFF  # inside the first record
        disk.path.write_bytes(bytes(raw))
        with pytest.raises((CorruptDataError, StorageError)):
            list(DiskGraph.open(disk.path).scan())

    def test_flipped_header_count_fails_open(self, tmp_path, graph):
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        raw = bytearray(disk.path.read_bytes())
        raw[10] ^= 0xFF  # inside the vertex count
        disk.path.write_bytes(bytes(raw))
        with pytest.raises(CorruptDataError):
            DiskGraph.open(disk.path)

    def test_verify_toggle_propagates_to_residual(self, tmp_path, graph):
        disk = DiskGraph.create(tmp_path / "g.bin", graph, verify_checksums=False)
        residual = disk.rewrite_without([0, 1, 2], tmp_path / "r.bin")
        assert residual.verify_checksums is False

    def test_header_bytes_by_version(self, tmp_path, graph):
        v2 = DiskGraph.create(tmp_path / "v2.bin", graph)
        assert v2.header_bytes == 28
        records = (
            (v, sorted(graph.neighbors(v)), graph.degree(v))
            for v in sorted(graph.vertices())
        )
        v1 = DiskGraph.from_records(tmp_path / "v1.bin", records, checksum=False)
        assert v1.header_bytes == 24


def spill_record(vertex, neighbors):
    """One spill-file record: the DiskGraph v2 layout, checksummed."""
    return encode_record(vertex, neighbors, len(neighbors), checksum=True)


class TestPartitionRecords:
    def test_round_trip(self):
        blob = spill_record(5, [1, 2, 9]) + spill_record(6, [])
        loaded = parse_partition_records(blob)
        assert loaded == {5: frozenset({1, 2, 9}), 6: frozenset()}

    def test_flipped_byte_detected(self):
        blob = bytearray(spill_record(5, [1, 2, 9]))
        blob[-7] ^= 0xFF  # inside the neighbor block
        with pytest.raises(CorruptDataError):
            parse_partition_records(bytes(blob))

    def test_verify_off_accepts_damage(self):
        blob = bytearray(spill_record(5, [1, 2, 9]))
        blob[-7] ^= 0x01
        loaded = parse_partition_records(bytes(blob), verify=False)
        assert 5 in loaded

    def test_truncation_is_format_error(self):
        blob = spill_record(5, [1, 2, 9])
        with pytest.raises(StorageFormatError):
            parse_partition_records(blob[:-4])

    def test_flipped_header_bit_never_parses(self, tmp_path):
        # A spill file as the partition builder writes it (records in
        # vertex order); the first record is vertex 5, neighbors {10, 11, 19}.
        graph = AdjacencyGraph.from_edges([(5, 10), (5, 11), (5, 19), (6, 13)])
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        store = HnbPartitionStore.build(
            disk, [5, 6, 10, 11, 13, 19], tmp_path / "spill",
            memory_budget_units=100,
        )
        clean = store.partition_paths()[0].read_bytes()
        assert int.from_bytes(clean[:8], "little") == 5
        assert parse_partition_records(clean)[5] == {10, 11, 19}
        # Bytes 0-7 hold the vertex id, bytes 8-11 the neighbor count.
        for bit in range(12 * 8):
            blob = bytearray(clean)
            blob[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((CorruptDataError, StorageFormatError)):
                parse_partition_records(bytes(blob))
        store.close()
