"""Tests for the disk-resident adjacency graph."""

import bisect
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.errors import CorruptDataError, StorageError, StorageFormatError
from repro.graph.adjacency import AdjacencyGraph
from repro.metrics import counter_value
from repro.storage.diskgraph import DiskGraph
from repro.storage.iostats import IOStats
from repro.storage.pagestore import _SCAN_CHUNK_BYTES

from tests.helpers import seeded_gnp, small_graphs


@pytest.fixture
def triangle_disk(tmp_path):
    g = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    return DiskGraph.create(tmp_path / "g.bin", g)


class TestCreateAndOpen:
    def test_counts_in_header(self, triangle_disk):
        assert triangle_disk.num_vertices == 4
        assert triangle_disk.num_edges == 4

    def test_open_reads_header(self, triangle_disk):
        reopened = DiskGraph.open(triangle_disk.path, IOStats())
        assert reopened.num_vertices == 4
        assert reopened.num_edges == 4

    def test_open_rejects_non_diskgraph_file(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"not a graph file at all....")
        with pytest.raises(StorageFormatError):
            DiskGraph.open(path)

    def test_out_of_order_records_rejected(self, tmp_path):
        records = [(2, [], 0), (1, [], 0)]
        with pytest.raises(StorageError):
            DiskGraph.from_records(tmp_path / "g.bin", records)

    def test_asymmetric_records_rejected(self, tmp_path):
        records = [(0, [1], 1), (1, [], 0)]
        with pytest.raises(StorageError):
            DiskGraph.from_records(tmp_path / "g.bin", records)

    def test_empty_graph(self, tmp_path):
        disk = DiskGraph.create(tmp_path / "e.bin", AdjacencyGraph())
        assert disk.num_vertices == 0
        assert list(disk.scan()) == []


class TestScan:
    def test_records_in_vertex_order(self, triangle_disk):
        vertices = [record.vertex for record in triangle_disk.scan()]
        assert vertices == [0, 1, 2, 3]

    def test_neighbors_sorted_and_complete(self, triangle_disk):
        by_vertex = {r.vertex: r.neighbors for r in triangle_disk.scan()}
        assert by_vertex[2] == (0, 1, 3)
        assert by_vertex[3] == (2,)

    def test_original_degree_captured(self, triangle_disk):
        record = next(r for r in triangle_disk.scan() if r.vertex == 2)
        assert record.original_degree == 3

    def test_scan_counts_one_sequential_scan(self, triangle_disk):
        before = triangle_disk.io_stats.sequential_scans
        list(triangle_disk.scan())
        assert triangle_disk.io_stats.sequential_scans == before + 1

    @settings(max_examples=25)
    @given(small_graphs())
    def test_round_trip_property(self, tmp_path_factory, g):
        tmp = tmp_path_factory.mktemp("dg")
        disk = DiskGraph.create(tmp / "g.bin", g)
        back = disk.to_adjacency_graph()
        assert back.num_vertices == g.num_vertices
        assert back.num_edges == g.num_edges
        for v in g:
            assert back.neighbors(v) == g.neighbors(v)


class TestTargetedLoads:
    def test_load_adjacency_subset(self, triangle_disk):
        loaded = triangle_disk.load_adjacency([1, 3])
        assert loaded == {1: (0, 2), 3: (2,)}

    def test_load_adjacency_missing_vertex_just_absent(self, triangle_disk):
        assert triangle_disk.load_adjacency([99]) == {}

    def test_original_degrees_lookup(self, triangle_disk):
        assert triangle_disk.original_degrees([0, 3]) == {0: 2, 3: 1}

    def test_empty_request_reads_nothing(self, tmp_path):
        path = AdjacencyGraph.from_edges([(v, v + 1) for v in range(1000)])
        disk = DiskGraph.create(tmp_path / "path.bin", path)
        before = replace(disk.io_stats)
        assert disk.load_adjacency([]) == {}
        assert disk.original_degrees([]) == {}
        assert disk.io_stats == before


class TestRewrite:
    def test_rewrite_without_removes_vertices_and_edges(self, triangle_disk, tmp_path):
        residual = triangle_disk.rewrite_without({2}, tmp_path / "r.bin")
        assert residual.num_vertices == 3
        assert residual.num_edges == 1  # only (0, 1) survives

    def test_rewrite_preserves_original_degrees(self, triangle_disk, tmp_path):
        residual = triangle_disk.rewrite_without({2}, tmp_path / "r.bin")
        degrees = residual.original_degrees([3])
        assert degrees[3] == 1  # original degree, though now isolated

    def test_rewrite_with_empty_removal_is_copy(self, triangle_disk, tmp_path):
        residual = triangle_disk.rewrite_without(set(), tmp_path / "r.bin")
        assert residual.num_edges == triangle_disk.num_edges

    def test_rewrite_larger_graph(self, tmp_path):
        g = seeded_gnp(40, 0.2, seed=1)
        disk = DiskGraph.create(tmp_path / "g.bin", g)
        removed = set(range(10))
        residual = disk.rewrite_without(removed, tmp_path / "r.bin")
        expected = g.copy()
        for v in removed:
            expected.remove_vertex(v)
        assert residual.num_edges == expected.num_edges
        assert residual.to_adjacency_graph().num_vertices == expected.num_vertices

    def test_delete_removes_file(self, triangle_disk):
        triangle_disk.delete()
        assert not triangle_disk.path.exists()


#: Degree of the hub in the chunk-boundary graph: its record (16-byte
#: header, 8 bytes per neighbor, 4-byte CRC) outgrows one scan chunk.
HUB_DEGREE = 33_000


@pytest.fixture(scope="module")
def hub_graph(tmp_path_factory):
    """A hub whose record spans two scan chunks, then 33,000 leaves of
    degree 2 (hub plus a partner leaf) whose 36-byte records put later
    chunk boundaries mid-header, mid-neighbors and mid-CRC."""
    adjacency = {0: list(range(1, HUB_DEGREE + 1))}
    for leaf in range(1, HUB_DEGREE + 1, 2):
        adjacency[leaf] = [0, leaf + 1]
        adjacency[leaf + 1] = [0, leaf]
    records = ((v, adjacency[v], len(adjacency[v])) for v in sorted(adjacency))
    path = tmp_path_factory.mktemp("hub") / "hub.bin"
    disk = DiskGraph.from_records(path, records)
    return disk, {v: tuple(neighbors) for v, neighbors in adjacency.items()}


def record_offsets(disk, adjacency):
    """Byte offset of every record in the file, in vertex order."""
    offsets = []
    offset = disk.header_bytes
    for v in sorted(adjacency):
        offsets.append(offset)
        offset += disk.record_nbytes(len(adjacency[v]))
    return offsets


def damaged_copy(disk, tmp_path, *offsets):
    """A copy of ``disk`` with the byte at each of ``offsets`` flipped."""
    raw = bytearray(disk.path.read_bytes())
    for offset in offsets:
        raw[offset] ^= 0xFF
    path = tmp_path / "damaged.bin"
    path.write_bytes(bytes(raw))
    return DiskGraph.open(path)


class TestChunkBoundaries:
    def test_boundaries_fall_in_every_record_part(self, hub_graph):
        disk, adjacency = hub_graph
        assert disk.record_nbytes(HUB_DEGREE) > _SCAN_CHUNK_BYTES
        offsets = record_offsets(disk, adjacency)
        parts = set()
        for boundary in range(_SCAN_CHUNK_BYTES, disk.path.stat().st_size, _SCAN_CHUNK_BYTES):
            vertex = bisect.bisect_right(offsets, boundary) - 1
            within = boundary - offsets[vertex]
            if within < 16:
                parts.add("header")
            elif within < 16 + 8 * len(adjacency[vertex]):
                parts.add("neighbors")
            else:
                parts.add("crc")
        assert parts == {"header", "neighbors", "crc"}

    def test_scan_equals_source(self, hub_graph):
        disk, adjacency = hub_graph
        scanned = {record.vertex: record.neighbors for record in disk.scan()}
        assert scanned == adjacency

    def test_flipped_byte_in_straddling_record_fails(self, hub_graph, tmp_path):
        disk, adjacency = hub_graph
        offsets = record_offsets(disk, adjacency)
        boundary = 2 * _SCAN_CHUNK_BYTES
        start = offsets[bisect.bisect_right(offsets, boundary) - 1]
        assert start < boundary < start + disk.record_nbytes(2)
        damaged = damaged_copy(disk, tmp_path, start + 2)
        with pytest.raises(CorruptDataError):
            list(damaged.scan())

    def test_verified_counter_matches_full_scan(self, hub_graph, live_metrics):
        disk, adjacency = hub_graph
        list(disk.scan())
        snapshot = live_metrics.snapshot()
        assert (
            counter_value(snapshot, "repro_storage_records_verified_total")
            == len(adjacency)
        )

    def test_early_break_verifies_only_consumed_records(
        self, hub_graph, live_metrics, tmp_path
    ):
        disk, adjacency = hub_graph
        consumed = 12_345
        # Damage the record right after the last one consumed (same
        # chunk) and one over a chunk further on: neither may be decoded.
        offsets = record_offsets(disk, adjacency)
        damaged = damaged_copy(
            disk, tmp_path,
            offsets[consumed] + 20, offsets[consumed + 10_000] + 20,
        )
        taken = 0
        for _record in damaged.scan():
            taken += 1
            if taken == consumed:
                break
        snapshot = live_metrics.snapshot()
        assert (
            counter_value(snapshot, "repro_storage_records_verified_total")
            == consumed
        )
        assert counter_value(snapshot, "repro_storage_checksum_failures_total") == 0
