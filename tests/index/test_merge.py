"""merge_index: a base generation plus a change set, byte-identical to a build."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.errors import CorruptDataError, StorageError
from repro.generators.communities import defective_clique_communities
from repro.generators.scale_free import powerlaw_cluster_graph
from repro.index import CliqueIndex, build_index, merge_index
from repro.index.format import OFFSETS_FILENAME, RECORDS_FILENAME, RECORDS_MAGIC
from repro.storage.iostats import IOStats

from tests.helpers import INDEX_DIRECTORY_FILES, small_graphs


def canonical(graph):
    return sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))


def file_bytes(directory):
    return {name: (directory / name).read_bytes() for name in INDEX_DIRECTORY_FILES}


def assert_merge_matches_build(root, base, removed, added):
    """Merge ``base - removed + added`` and compare it with a fresh build."""
    base = sorted(set(base))
    build_index(base, root / "base")
    removed_ids = {base.index(clique) for clique in removed}
    final = sorted((set(base) - set(removed)) | set(added))
    stats = IOStats()
    report = merge_index(
        root / "base", removed_ids, sorted(added), root / "merged", io_stats=stats
    )
    build_index(final, root / "fresh")
    assert file_bytes(root / "merged") == file_bytes(root / "fresh")
    assert report.num_cliques == len(final)
    assert stats.pages_read > 0  # the base is read through metered page stores
    with CliqueIndex(root / "merged") as index:
        assert [vertices for _cid, vertices in index.scan_cliques()] == final


def change_set(before, after):
    """``(removed, added)`` turning clique set ``before`` into ``after``."""
    return sorted(set(before) - set(after)), sorted(set(after) - set(before))


def toggled(graph, pairs):
    """A copy of ``graph`` with each ``(u, v)`` edge flipped."""
    changed = graph.copy()
    for u, v in pairs:
        if u == v:
            continue
        if changed.has_edge(u, v):
            changed.remove_edge(u, v)
        else:
            changed.add_edge(u, v)
    return changed


def assert_update_round_trips(root, graph, pairs):
    before = canonical(graph)
    after = canonical(toggled(graph, pairs))
    removed, added = change_set(before, after)
    assert_merge_matches_build(root, before, removed, added)


BASE = [(10, 11, 12), (10, 13), (12, 14, 15), (20, 21), (30, 31, 32)]


class TestChangeSets:
    def test_additions_before_first_and_after_last(self, tmp_path):
        assert_merge_matches_build(
            tmp_path, BASE, [], [(0, 1), (5, 10, 11), (40, 41), (50,)]
        )

    def test_additions_between_every_pair(self, tmp_path):
        added = [(10, 11, 12, 13), (11, 12), (15, 16), (25,), (31, 32)]
        assert_merge_matches_build(tmp_path, BASE, [(20, 21)], added)

    def test_removed_and_readded_in_one_tail(self, tmp_path):
        assert_merge_matches_build(
            tmp_path, BASE, [(10, 13), (20, 21)], [(10, 13), (22, 23)]
        )

    def test_every_base_clique_removed_while_adding(self, tmp_path):
        assert_merge_matches_build(tmp_path, BASE, BASE, [(1, 2), (60, 61, 62)])

    def test_removals_only(self, tmp_path):
        assert_merge_matches_build(tmp_path, BASE, [BASE[0], BASE[-1]], [])

    def test_empty_change_set_copies_the_base(self, tmp_path):
        assert_merge_matches_build(tmp_path, BASE, [], [])

    def test_multi_byte_varints(self, tmp_path):
        """Vertex ids and gaps >= 128 and >= 16,384 (two- and three-byte
        varints), in the base and in the additions."""
        base = [
            (5, 200, 20_000), (127, 128), (129, 16_512, 3_000_000),
            (16_383, 16_384, 16_385), (70_000, 90_000),
        ]
        added = [(0, 128, 16_512), (200, 300), (16_384, 40_000, 2_000_000)]
        assert_merge_matches_build(tmp_path, base, [(127, 128)], added)

    def test_postings_gaps_of_every_width(self, tmp_path):
        """Vertex 20,000's cliques sit over 128 and 16,384 ranks apart."""
        base = [(v,) for v in range(1, 20_000)] + [(1, 20_000)]
        added = [(5, 20_000), (200, 20_000), (17_000, 20_000)]
        assert_merge_matches_build(tmp_path, base, [(200,)], added)

    def test_empty_result_rejected(self, tmp_path):
        build_index(BASE, tmp_path / "base")
        with pytest.raises(StorageError, match="empty"):
            merge_index(tmp_path / "base", range(len(BASE)), [], tmp_path / "merged")
        assert not (tmp_path / "merged").exists()

    def test_addition_of_a_surviving_clique_rejected(self, tmp_path):
        build_index(BASE, tmp_path / "base")
        with pytest.raises(StorageError, match="canonical order"):
            merge_index(tmp_path / "base", set(), [BASE[1]], tmp_path / "merged")

    def test_unsorted_additions_rejected(self, tmp_path):
        build_index(BASE, tmp_path / "base")
        with pytest.raises(StorageError, match="canonical order"):
            merge_index(tmp_path / "base", set(), [(60,), (50,)], tmp_path / "merged")


class TestGraphUpdates:
    """Change sets of real edge updates, as a live fold carries them."""

    @settings(max_examples=40, deadline=None)
    @given(
        small_graphs(),
        st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=6),
    )
    def test_small_graphs(self, tmp_path_factory, graph, pairs):
        if graph.num_vertices == 0:
            return
        n = graph.num_vertices
        pairs = [(u, v) for u, v in pairs if u < n and v < n]
        assert_update_round_trips(tmp_path_factory.mktemp("merge"), graph, pairs)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_power_law_graph(self, tmp_path, seed):
        graph = powerlaw_cluster_graph(400, 4, 0.6, seed=seed)
        rng = random.Random(seed)
        vertices = sorted(graph.vertices())
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(40)]
        assert_update_round_trips(tmp_path, graph, pairs)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_community_graph(self, tmp_path, seed):
        graph = defective_clique_communities(
            120, seed=seed, community_min=10, community_max=16, defects=3
        )
        rng = random.Random(seed)
        vertices = sorted(graph.vertices())
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(30)]
        assert_update_round_trips(tmp_path, graph, pairs)


class TestCorruptBase:
    @pytest.fixture()
    def base(self, tmp_path):
        build_index(canonical(powerlaw_cluster_graph(60, 3, 0.5, seed=9)),
                    tmp_path / "base")
        return tmp_path / "base"

    @pytest.mark.parametrize("name", [RECORDS_FILENAME, OFFSETS_FILENAME])
    def test_every_flipped_byte_raises(self, tmp_path, base, name):
        path = base / name
        original = path.read_bytes()
        # cliques.idx is checked whole against the manifest; cliques.dat
        # record by record, past its magic.
        first = len(RECORDS_MAGIC) if name == RECORDS_FILENAME else 0
        for position in range(first, len(original)):
            damaged = bytearray(original)
            damaged[position] ^= 0x01 << (position % 8)
            path.write_bytes(bytes(damaged))
            with pytest.raises(CorruptDataError):
                merge_index(base, set(), [(500, 501)], tmp_path / "merged")
            assert not (tmp_path / "merged").exists()
        path.write_bytes(original)
        merge_index(base, set(), [(500, 501)], tmp_path / "merged")

    def test_flipped_magic_raises(self, tmp_path, base):
        path = base / RECORDS_FILENAME
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            merge_index(base, set(), [(500, 501)], tmp_path / "merged")

    def test_unverified_merge_copies_a_bad_crc(self, tmp_path, base):
        """With checksum verification off a flipped CRC byte is copied
        as is, the way a reader opened without verification serves it."""
        path = base / RECORDS_FILENAME
        data = bytearray(path.read_bytes())
        with CliqueIndex(base) as index:
            offset, length, _size = index._offset_entry(0)
        data[offset + length - 1] ^= 0xFF
        path.write_bytes(bytes(data))
        merge_index(base, set(), [], tmp_path / "merged", verify_checksums=False)
        assert (tmp_path / "merged" / RECORDS_FILENAME).read_bytes() == bytes(data)
