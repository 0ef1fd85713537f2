"""Tests for the h-neighbor partition spill store (Section 4.2.3)."""

import pytest

from repro.errors import StorageError
from repro.graph.adjacency import AdjacencyGraph
from repro.storage.diskgraph import DiskGraph
from repro.storage.memory import MemoryModel
from repro.storage.partitions import HnbPartitionStore

from tests.helpers import seeded_gnp


@pytest.fixture
def disk(tmp_path):
    # 0-3 form a clique; 4, 5 hang off it; edges (4,5) and (2,3) matter.
    g = AdjacencyGraph.from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
    )
    return DiskGraph.create(tmp_path / "g.bin", g)


def build(disk, tmp_path, members, budget=1000, memory=None, max_resident=4):
    return HnbPartitionStore.build(
        disk, members, tmp_path / "parts", budget, memory=memory, max_resident=max_resident
    )


class TestBuild:
    def test_members_partitioned_in_order(self, disk, tmp_path):
        store = build(disk, tmp_path, [2, 3, 4, 5], budget=4)
        assert store.num_partitions >= 2

    def test_single_partition_when_budget_large(self, disk, tmp_path):
        store = build(disk, tmp_path, [4, 5])
        assert store.num_partitions == 1

    def test_zero_budget_rejected(self, disk, tmp_path):
        with pytest.raises(StorageError):
            build(disk, tmp_path, [4, 5], budget=0)

    def test_duplicate_members_collapse(self, disk, tmp_path):
        store = build(disk, tmp_path, [4, 4, 5, 4])
        sub = store.induced_subgraph([4, 5])
        assert sub.has_edge(4, 5)


class TestInducedSubgraph:
    def test_within_member_edges_only(self, disk, tmp_path):
        store = build(disk, tmp_path, [2, 3, 4, 5])
        sub = store.induced_subgraph([4, 5])
        assert sub.has_edge(4, 5)
        assert sub.num_vertices == 2

    def test_edges_to_non_members_excluded(self, disk, tmp_path):
        store = build(disk, tmp_path, [4, 5])
        sub = store.induced_subgraph([4, 5])
        # 4-2 and 5-3 lead outside the member set and must not appear.
        assert sub.num_edges == 1

    def test_subset_query(self, disk, tmp_path):
        store = build(disk, tmp_path, [2, 3, 4, 5])
        sub = store.induced_subgraph([2, 3])
        assert sub.has_edge(2, 3)

    def test_unknown_vertex_raises(self, disk, tmp_path):
        store = build(disk, tmp_path, [4, 5])
        with pytest.raises(StorageError):
            store.induced_subgraph([0])

    def test_isolated_member(self, disk, tmp_path):
        store = build(disk, tmp_path, [4])
        sub = store.induced_subgraph([4])
        assert sub.num_vertices == 1
        assert sub.num_edges == 0

    def test_matches_in_memory_induced_subgraph(self, tmp_path):
        g = seeded_gnp(30, 0.3, seed=7)
        disk = DiskGraph.create(tmp_path / "g.bin", g)
        members = list(range(5, 25))
        store = build(disk, tmp_path, members, budget=30)
        for query in ([5, 6, 7], [10, 20, 24], members):
            got = store.induced_subgraph(query)
            expected = g.induced_subgraph(query)
            assert got.num_edges == expected.num_edges
            for u, v in expected.edges():
                assert got.has_edge(u, v)


class TestResidencyAndMemory:
    def test_memory_charged_while_resident(self, disk, tmp_path):
        memory = MemoryModel()
        store = build(disk, tmp_path, [2, 3, 4, 5], memory=memory)
        store.induced_subgraph([4, 5])
        assert memory.in_use_units > 0
        store.close()
        assert memory.in_use_units == 0

    def test_eviction_respects_max_resident(self, disk, tmp_path):
        memory = MemoryModel()
        store = build(disk, tmp_path, [2, 3, 4, 5], budget=3, max_resident=1)
        assert store.num_partitions >= 2
        store.induced_subgraph([2])
        first_units = memory.in_use_units
        store.induced_subgraph([5])
        # old partition evicted; only one resident at a time
        assert memory.in_use_units <= first_units + 6
        store.close()

    def test_partition_loads_counted(self, disk, tmp_path):
        store = build(disk, tmp_path, [2, 3, 4, 5], budget=3, max_resident=1)
        store.induced_subgraph([2])
        store.induced_subgraph([2])
        assert store.partition_loads == 1  # second query served from cache

    def test_partitions_for_key(self, disk, tmp_path):
        store = build(disk, tmp_path, [2, 3, 4, 5], budget=3)
        key = store.partitions_for([2, 5])
        assert isinstance(key, frozenset)
        assert len(key) >= 1

    def test_close_removes_spill_files(self, disk, tmp_path):
        store = build(disk, tmp_path, [2, 3])
        store.close()
        assert not any((tmp_path / "parts").glob("*.bin"))

    def test_close_removes_the_emptied_directory(self, disk, tmp_path):
        store = build(disk, tmp_path, [2, 3])
        store.close()
        assert not (tmp_path / "parts").exists()

    def test_close_keeps_a_directory_holding_other_files(self, disk, tmp_path):
        store = build(disk, tmp_path, [2, 3])
        (tmp_path / "parts" / "keep.txt").write_text("not a spill file")
        store.close()
        assert [p.name for p in (tmp_path / "parts").iterdir()] == ["keep.txt"]


class TestCallerOwnedWorkdir:
    """A run in a caller-owned workdir leaves no per-step spill directory."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_partition_directories_remain(self, tmp_path, workers):
        from repro import ExtMCE, ExtMCEConfig, ParallelExtMCE

        disk = DiskGraph.create(tmp_path / "g.bin", seeded_gnp(90, 0.12, seed=31))
        workdir = tmp_path / "work"
        workdir.mkdir()
        driver = ParallelExtMCE if workers > 1 else ExtMCE
        algo = driver(disk, ExtMCEConfig(workdir=workdir, workers=workers))
        assert list(algo.enumerate_cliques())
        assert algo.report.num_recursions > 1
        assert sorted(workdir.glob("partitions_*")) == []
