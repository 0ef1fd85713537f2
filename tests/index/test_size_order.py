"""Top-k from the persisted size order (cliques.sz), frozen and live."""

import json
import math
import random
import zlib
from itertools import islice

import pytest
from hypothesis import given, settings

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.cli import main
from repro.errors import CorruptDataError, StorageError
from repro.generators.communities import defective_clique_communities
from repro.generators.scale_free import powerlaw_cluster_graph
from repro.index import CliqueIndex, build_index
from repro.index.format import (
    MANIFEST_FILENAME,
    OFFSETS_FILENAME,
    SIZE_ORDER_ENTRY,
    SIZE_ORDER_FILENAME,
    TABLE_PAGE_HEADER,
    table_entries_per_page,
)
from repro.live.deltas import ADD, REMOVE, CliqueDelta
from repro.live.store import LiveCliqueStore

from tests.helpers import merges_match_fresh_builds, small_graphs

PER_PAGE = table_entries_per_page(SIZE_ORDER_ENTRY)


def canonical(graph):
    return sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))


def brute_top(pairs, k):
    """The k largest of ``(id, vertices)`` pairs, ranked by (-size, id)."""
    ranked = sorted(pairs, key=lambda pair: (-len(pair[1]), pair[0]))
    return [vertices for _id, vertices in ranked[:k]]


def pool_lookups(index, name):
    pool = index._pools[name]
    return pool.hits + pool.misses


def assert_top_k_matches_brute_force(cliques, directory, ks=None):
    build_index(cliques, directory)
    pairs = list(enumerate(cliques))
    with CliqueIndex(directory) as index:
        assert list(index.size_ranked()) == sorted(
            (-len(vertices), clique_id) for clique_id, vertices in pairs
        )
        for k in ks if ks is not None else range(1, len(cliques) + 6):
            assert index.top_k_largest(k) == brute_top(pairs, k), k


class TestTopK:
    def test_per_page(self):
        assert PER_PAGE == 1022

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_small_graphs(self, tmp_path_factory, graph):
        if graph.num_vertices == 0:
            return  # no cliques, nothing to index
        assert_top_k_matches_brute_force(canonical(graph), tmp_path_factory.mktemp("idx"))

    def test_power_law_graph(self, tmp_path):
        """More than one page of cliques.sz; every page boundary probed."""
        cliques = canonical(powerlaw_cluster_graph(600, 4, 0.6, seed=3))
        n = len(cliques)
        assert n > PER_PAGE
        ks = set(range(1, 40)) | set(range(40, n + 6, 97))
        ks |= {PER_PAGE - 1, PER_PAGE, PER_PAGE + 1, n - 1, n, n + 5}
        assert_top_k_matches_brute_force(cliques, tmp_path / "idx", sorted(ks))

    def test_community_graph(self, tmp_path):
        graph = defective_clique_communities(
            120, seed=5, community_min=10, community_max=16, defects=3
        )
        assert_top_k_matches_brute_force(canonical(graph), tmp_path / "idx")


class TestPageReads:
    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("idx")
        build_index(canonical(powerlaw_cluster_graph(900, 4, 0.6, seed=8)), directory)
        with CliqueIndex(directory) as index:
            yield index

    @pytest.mark.parametrize("k", [1, 10, 1021, 1022, 1023, 2044, 2045, 10**6])
    def test_top_k_reads_ceil_k_over_1022_pages(self, index, k):
        assert index.num_cliques > 2 * PER_PAGE
        before = pool_lookups(index, SIZE_ORDER_FILENAME)
        assert len(index.top_k_largest(k)) == min(k, index.num_cliques)
        pages = math.ceil(min(k, index.num_cliques) / PER_PAGE)
        assert pool_lookups(index, SIZE_ORDER_FILENAME) - before == pages

    @pytest.mark.parametrize("k", [1, 1022, 2000])
    def test_ranking_reads_no_offset_entry(self, index, k, monkeypatch):
        """The ranking reads cliques.sz only; cliques.idx is read for the
        k winners' records and nothing else."""
        before = pool_lookups(index, OFFSETS_FILENAME)
        assert len(list(islice(index.size_ranked(), k))) == k
        assert pool_lookups(index, OFFSETS_FILENAME) == before

        fetched = []
        original = CliqueIndex._record_bytes
        monkeypatch.setattr(
            CliqueIndex, "_record_bytes",
            lambda self, cid: fetched.append(cid) or original(self, cid),
        )
        index.top_k_largest(k)
        assert fetched == [cid for _neg, cid in islice(index.size_ranked(), k)]


def _swap_entries(directory, first, second):
    """Swap two cliques.sz entries and recompute the manifest's CRC32."""
    path = directory / SIZE_ORDER_FILENAME
    data = bytearray(path.read_bytes())
    a = TABLE_PAGE_HEADER + first * SIZE_ORDER_ENTRY.size
    b = TABLE_PAGE_HEADER + second * SIZE_ORDER_ENTRY.size
    data[a:a + 4], data[b:b + 4] = data[b:b + 4], data[a:a + 4]
    path.write_bytes(bytes(data))
    manifest_path = directory / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    manifest["files"][SIZE_ORDER_FILENAME]["crc32"] = zlib.crc32(bytes(data))
    manifest_path.write_text(json.dumps(manifest))


class TestIntegrity:
    CLIQUES = [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 5}),
               frozenset({5, 6})]

    def test_flipped_bit_fails_open_or_verify(self, tmp_path):
        build_index(self.CLIQUES, tmp_path / "idx")
        path = tmp_path / "idx" / SIZE_ORDER_FILENAME
        data = bytearray(path.read_bytes())
        data[TABLE_PAGE_HEADER + 1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptDataError):
            CliqueIndex(tmp_path / "idx")
        with CliqueIndex(tmp_path / "idx", verify_checksums=False) as index:
            with pytest.raises(CorruptDataError):
                index.verify()

    @pytest.mark.parametrize("pair", [(0, 2), (0, 1)], ids=["sizes", "tie-order"])
    def test_wrong_order_with_matching_crc_rejected_by_verify(
        self, tmp_path, capsys, pair
    ):
        """Ids 0 and 2 have size 3, ids 1 and 3 size 2, so the order is
        0, 2, 1, 3: swapping positions 0 and 2 breaks the sizes, swapping
        0 and 1 the id order within a size.  The manifest CRC is
        recomputed, so only the record cross-check can tell."""
        directory = tmp_path / "idx"
        build_index(self.CLIQUES, directory)
        _swap_entries(directory, *pair)
        with CliqueIndex(directory) as index:
            with pytest.raises(CorruptDataError, match="cliques.sz"):
                index.verify()
        assert main(["verify-index", str(directory)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_size_histogram_rejected(self, tmp_path):
        """The sizes of cliques.sz positions come from the histogram: one
        that miscounts the cliques fails open, one that only misplaces a
        size boundary fails verify()."""
        directory = tmp_path / "idx"
        build_index(self.CLIQUES, directory)
        manifest_path = directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["size_histogram"] = {"3": 2, "2": 1}
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptDataError, match="histogram"):
            CliqueIndex(directory)
        manifest["size_histogram"] = {"3": 1, "2": 3}
        manifest_path.write_text(json.dumps(manifest))
        with CliqueIndex(directory) as index:
            with pytest.raises(CorruptDataError, match="histogram"):
                index.verify()

    def test_v2_directory_rejected(self, tmp_path):
        build_index(self.CLIQUES, tmp_path / "idx")
        path = tmp_path / "idx" / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest["schema"] = "repro.index/2"
        path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="schema"):
            CliqueIndex(tmp_path / "idx")


class TestLiveTopK:
    """The live store's merge of the base walk with its overlay."""

    @staticmethod
    def assert_live_top_k(store):
        pairs = list(store.scan_cliques())
        n = len(pairs)
        for k in sorted(set(range(1, 30)) | {n - 1, n, n + 5} - {0}):
            assert store.top_k_largest(k) == brute_top(pairs, k), k

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force_across_compactions(self, tmp_path, seed):
        rng = random.Random(seed)
        base = canonical(powerlaw_cluster_graph(600, 4, 0.6, seed=3))
        sizes = sorted({len(c) for c in base})
        fresh = iter(range(10_000, 10**9))
        with merges_match_fresh_builds():
            store = LiveCliqueStore.initialize(tmp_path / "live", base, fsync=False)
            try:
                for round_number in range(6):
                    live = dict(store.scan_cliques())
                    ranked = sorted(live, key=lambda cid: (-len(live[cid]), cid))
                    # Tombstones on the top ranks, plus a few anywhere.
                    doomed = ranked[:rng.randint(1, 8)] + rng.sample(ranked, 5)
                    deltas = [
                        CliqueDelta(REMOVE, live[cid]) for cid in dict.fromkeys(doomed)
                    ]
                    # Additions that tie base sizes, and one past the largest.
                    for size in rng.choices(sizes, k=6) + [sizes[-1] + 1]:
                        vertices = tuple(sorted(next(fresh) for _ in range(size)))
                        deltas.append(CliqueDelta(ADD, vertices))
                    store.apply_deltas(deltas)
                    self.assert_live_top_k(store)
                    if round_number % 2:
                        assert store.compact() is not None
                        self.assert_live_top_k(store)
                store.verify()
            finally:
                store.close()

    def test_overlay_only_store(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live", fsync=False)
        try:
            store.apply_deltas(
                [CliqueDelta(ADD, (1, 2)), CliqueDelta(ADD, (3, 4, 5)),
                 CliqueDelta(ADD, (6, 7))]
            )
            assert store.top_k_largest(2) == [(3, 4, 5), (1, 2)]
            self.assert_live_top_k(store)
        finally:
            store.close()
