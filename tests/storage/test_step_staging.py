"""The step pass's staging file: one scan of ``G_k`` stages every
member's within-member record, and one streamed read of the staging file
copies those bytes into the partition files.

Pinned here: the partition files and the residual are byte-identical to
references encoded straight from the in-memory graph, damage to the
staging bytes fails typed, and the residual rewrite copies untouched
records without changing a byte.
"""

import pytest

from repro.errors import CorruptDataError, StorageFormatError
from repro.faults import FaultPlan, FaultRule
from repro.storage.diskgraph import DiskGraph
from repro.storage.format import encode_record
from repro.storage.pagestore import PageStore
from repro.storage.partitions import HnbPartitionStore

from tests.helpers import GRAPHS, seeded_gnp


def reference_partitions(graph, members, budget):
    """Each partition file's bytes, encoded from the in-memory graph."""
    ordered = list(dict.fromkeys(members))
    member_set = set(ordered)

    def units(v):
        return 1 + len(graph.neighbors(v) & member_set) if v in graph else 1

    groups, current, used = [], [], 0
    for v in ordered:
        if current and used + units(v) > budget:
            groups.append(current)
            current, used = [], 0
        current.append(v)
        used += units(v)
    if current:
        groups.append(current)
    return [
        b"".join(
            encode_record(
                v,
                [u for u in sorted(graph.neighbors(v)) if u in member_set],
                graph.degree(v),
                checksum=True,
            )
            for v in sorted(group)
            if v in graph
        )
        for group in groups
    ]


def reference_residual(graph, removed, path):
    """The residual's bytes, every record encoded afresh."""
    records = (
        (v, sorted(graph.neighbors(v) - removed), graph.degree(v))
        for v in sorted(graph.vertices())
        if v not in removed
    )
    return DiskGraph.from_records(path, records).path.read_bytes()


def built_files(store):
    return [path.read_bytes() for path in store.partition_paths()]


class TestByteIdentity:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("budget", [16, 64, 10**6])
    def test_partitions_and_residual_match_the_references(
        self, tmp_path, family, budget
    ):
        graph = GRAPHS[family](7)
        vertices = sorted(graph.vertices())
        removed = set(vertices[::5])
        # Duplicates, a vertex absent from G, and a member, ``lonely``,
        # with no edge to any other member.
        lonely = vertices[0]
        odd = [v for v in vertices[1::2] if v not in graph.neighbors(lonely)]
        members = odd + odd[:4] + [10**6, lonely]
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        store = HnbPartitionStore.build(
            disk, members, tmp_path / "parts", budget,
            removed=removed, residual_path=tmp_path / "r.bin",
        )
        assert built_files(store) == reference_partitions(graph, members, budget)
        assert store.residual.path.read_bytes() == reference_residual(
            graph, removed, tmp_path / "ref.bin"
        )
        assert sorted(p.name for p in (tmp_path / "parts").iterdir()) == [
            p.name for p in store.partition_paths()
        ]
        store.close()

    def test_without_residual(self, tmp_path):
        graph = seeded_gnp(60, 0.15, seed=4)
        members = list(range(0, 60, 2)) + [0, 2, 99]
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        scans = disk.io_stats.sequential_scans
        store = HnbPartitionStore.build(disk, members, tmp_path / "parts", 40)
        assert disk.io_stats.sequential_scans == scans + 1
        assert store.residual is None
        assert built_files(store) == reference_partitions(graph, members, 40)
        assert store.neighbor_sets([99]) == {99: frozenset()}

    def test_staging_larger_than_one_flush(self, tmp_path, monkeypatch):
        graph = seeded_gnp(1500, 0.07, seed=1)
        members = sorted(graph.vertices())
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        appended = []
        real_append = PageStore.append

        def spy(store, data):
            appended.append((store.path.name, len(data)))
            return real_append(store, data)

        monkeypatch.setattr(PageStore, "append", spy)
        budget = 4 * graph.num_edges
        store = HnbPartitionStore.build(
            disk, members, tmp_path / "parts", budget,
            removed={0}, residual_path=tmp_path / "r.bin",
        )
        staged = [size for name, size in appended if name == "hnb_staging.bin"]
        assert len(staged) == 2 and staged[0] >= 1 << 20
        assert len([name for name, _ in appended if name == "hnb_part_00000.bin"]) == 2
        assert built_files(store) == reference_partitions(graph, members, budget)
        assert store.residual.path.read_bytes() == reference_residual(
            graph, {0}, tmp_path / "ref.bin"
        )


class TestDamagedStaging:
    @pytest.fixture
    def disk_and_members(self, tmp_path):
        graph = seeded_gnp(80, 0.12, seed=3)
        return DiskGraph.create(tmp_path / "g.bin", graph), list(range(0, 80, 3))

    def test_flipped_byte_fails_when_the_partition_loads(
        self, tmp_path, disk_and_members
    ):
        disk, members = disk_and_members
        # ``after=1`` lets the staging file's creation pass and flips one
        # byte of the records the scan appends.
        plan = FaultPlan(
            [FaultRule("write", "corrupt", after=1, path_contains="hnb_staging")],
            seed=11,
        )
        faulty = DiskGraph.open(disk.path, fault_plan=plan)
        store = HnbPartitionStore.build(faulty, members, tmp_path / "parts", 10**6)
        assert len(plan.firings) == 1
        with pytest.raises(CorruptDataError):
            store.neighbor_sets(members)

    def test_short_staging_read_fails_the_build(self, tmp_path, disk_and_members):
        disk, members = disk_and_members
        plan = FaultPlan(
            [FaultRule("scan", "short_read", path_contains="hnb_staging")], seed=5
        )
        faulty = DiskGraph.open(disk.path, fault_plan=plan)
        with pytest.raises(StorageFormatError, match="staging"):
            HnbPartitionStore.build(faulty, members, tmp_path / "parts", 10**6)
        assert len(plan.firings) == 1
        assert not (tmp_path / "parts" / "hnb_staging.bin").exists()


class TestResidualCopy:
    def test_v1_source_yields_the_v2_residual(self, tmp_path):
        graph = seeded_gnp(70, 0.1, seed=8)
        records = [
            (v, sorted(graph.neighbors(v)), graph.degree(v))
            for v in sorted(graph.vertices())
        ]
        v1 = DiskGraph.from_records(tmp_path / "v1.bin", records, checksum=False)
        v2 = DiskGraph.from_records(tmp_path / "v2.bin", records)
        removed = set(range(0, 70, 4))
        from_v1 = v1.rewrite_without(removed, tmp_path / "r1.bin")
        from_v2 = v2.rewrite_without(removed, tmp_path / "r2.bin")
        assert from_v1.format_version == from_v2.format_version == 2
        expected = reference_residual(graph, removed, tmp_path / "ref.bin")
        assert from_v1.path.read_bytes() == from_v2.path.read_bytes() == expected

    def test_raw_scan_spans_are_the_encoded_records(self, tmp_path):
        graph = seeded_gnp(40, 0.2, seed=2)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        pairs = list(disk.scan(raw=True))
        assert [record for record, _ in pairs] == list(disk.scan())
        assert b"".join(data for _, data in pairs) == (
            disk.path.read_bytes()[disk.header_bytes :]
        )
