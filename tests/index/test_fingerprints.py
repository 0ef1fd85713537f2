"""Exact-clique lookup through cliques.fp, and the page fence of the sorted tables."""

import json
import zlib
from itertools import combinations

import pytest
from hypothesis import given, settings

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.cli import main
from repro.errors import CorruptDataError, GraphError, StorageError
from repro.generators.communities import defective_clique_communities
from repro.generators.scale_free import powerlaw_cluster_graph
from repro.index import CliqueIndex, build_index
from repro.index import builder, reader
from repro.index.format import (
    DIRECTORY_FILENAME,
    FINGERPRINT_ENTRY,
    FINGERPRINTS_FILENAME,
    MANIFEST_FILENAME,
    TABLE_PAGE_HEADER,
)

from tests.helpers import small_graphs


def canonical(graph):
    return sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))


def brute_find(cliques, vertices):
    wanted = tuple(sorted(set(vertices)))
    return cliques.index(wanted) if wanted in cliques else None


def probes(graph, cliques):
    """Present cliques, their proper subsets and supersets, absent tuples."""
    top = max(graph.vertices(), default=0)
    for clique in cliques:
        yield clique
        for size in {1, 2, len(clique) - 1} - {0, len(clique)}:
            yield from combinations(clique, size)
        yield clique + (top + 1,)
        outside = [v for v in graph.vertices() if v not in clique]
        if outside:
            yield clique + (outside[0],)
    yield (top + 1,)
    yield (top + 1, top + 2)


def assert_find_matches_brute_force(graph, directory):
    cliques = canonical(graph)
    build_index(cliques, directory)
    with CliqueIndex(directory) as index:
        for vertices in probes(graph, cliques):
            assert index.find(vertices) == brute_find(cliques, vertices), vertices


class TestFind:
    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_small_graphs(self, tmp_path_factory, graph):
        if graph.num_vertices == 0:
            return  # no cliques, nothing to index
        assert_find_matches_brute_force(graph, tmp_path_factory.mktemp("idx"))

    def test_power_law_graph(self, tmp_path):
        """Over 511 cliques, so cliques.fp spans several pages."""
        graph = powerlaw_cluster_graph(600, 4, 0.6, seed=3)
        assert len(canonical(graph)) > 1_000
        assert_find_matches_brute_force(graph, tmp_path / "idx")

    def test_community_graph(self, tmp_path):
        graph = defective_clique_communities(
            120, seed=5, community_min=10, community_max=16, defects=3
        )
        assert_find_matches_brute_force(graph, tmp_path / "idx")

    def test_order_and_duplicates_do_not_matter(self, tmp_path):
        build_index([frozenset({3, 1, 2}), frozenset({2, 4})], tmp_path / "idx")
        with CliqueIndex(tmp_path / "idx") as index:
            assert index.find([2, 3, 1]) == 0
            assert index.find((4, 2, 4)) == 1

    def test_empty_rejected(self, tmp_path):
        build_index([frozenset({0, 1})], tmp_path / "idx")
        with CliqueIndex(tmp_path / "idx") as index:
            with pytest.raises(GraphError):
                index.find([])

    def test_forced_collision_never_returns_a_wrong_id(self, tmp_path, monkeypatch):
        """Every clique gets the same fingerprint: the run of equal keys
        spans several pages and the record read picks the right id."""
        for module in (builder, reader):
            monkeypatch.setattr(module, "clique_fingerprint", lambda record: 7)
        graph = powerlaw_cluster_graph(600, 4, 0.6, seed=3)
        cliques = canonical(graph)
        assert len(cliques) > 2 * 511
        build_index(cliques, tmp_path / "idx")
        with CliqueIndex(tmp_path / "idx") as index:
            for clique_id in range(0, len(cliques), 97):
                assert index.find(cliques[clique_id]) == clique_id
            assert index.find(cliques[5][:-1]) is None
            assert index.find((10_000,)) is None


class TestPageFence:
    @pytest.fixture()
    def index(self, tmp_path):
        graph = powerlaw_cluster_graph(900, 4, 0.6, seed=8)
        build_index(canonical(graph), tmp_path / "idx")
        with CliqueIndex(tmp_path / "idx") as index:
            yield index

    def test_postings_lookup_reads_one_directory_page(self, index):
        pool = index._pools[DIRECTORY_FILENAME]
        assert index.stats()["bytes_by_file"][DIRECTORY_FILENAME] > 4 * 4096
        for vertex in range(0, 900, 7):
            before = pool.hits + pool.misses
            assert index.postings(vertex)
            assert pool.hits + pool.misses - before == 1

    def test_absent_key_between_pages_reads_nothing(self, index):
        pool = index._pools[DIRECTORY_FILENAME]
        before = pool.hits + pool.misses
        assert index.postings(-1) == ()
        assert index.postings(10_000) == ()
        assert pool.hits + pool.misses == before

    def test_find_reads_one_fingerprint_page(self, index):
        pool = index._pools[FINGERPRINTS_FILENAME]
        for clique_id in range(0, index.num_cliques, 53):
            before = pool.hits + pool.misses
            assert index.find(index.clique(clique_id)) == clique_id
            assert pool.hits + pool.misses - before == 1

    def test_unpacked_key_column_matches_the_typed_view(self, index, monkeypatch):
        """A big-endian host cannot view the little-endian keys in place
        and unpacks them instead; both give the same rows."""
        vertices = range(-1, 905, 7)
        cliques = [index.clique(cid) for cid in range(0, index.num_cliques, 53)]
        expected = [index.postings(v) for v in vertices], [index.find(c) for c in cliques]
        monkeypatch.setattr(reader.sys, "byteorder", "big")
        got = [index.postings(v) for v in vertices], [index.find(c) for c in cliques]
        assert got == expected

    @pytest.mark.parametrize("name", [FINGERPRINTS_FILENAME, DIRECTORY_FILENAME])
    def test_every_page_opens_with_the_magic(self, index, name):
        blob = (index.directory / name).read_bytes()
        assert len(blob) > 4 * 4096
        magic = blob[:TABLE_PAGE_HEADER]
        for page in range(0, len(blob), 4096):
            assert blob[page:page + TABLE_PAGE_HEADER] == magic


class TestIntegrity:
    @pytest.mark.parametrize("victim", [FINGERPRINTS_FILENAME, DIRECTORY_FILENAME])
    def test_flipped_bit_in_sorted_table_fails_at_open(self, tmp_path, victim):
        build_index([frozenset({0, 1, 2}), frozenset({2, 3, 4})], tmp_path / "idx")
        path = tmp_path / "idx" / victim
        data = bytearray(path.read_bytes())
        data[TABLE_PAGE_HEADER + 1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptDataError):
            CliqueIndex(tmp_path / "idx")
        # Without checksum verification the open proceeds (and the fence
        # is built from the damaged bytes).
        CliqueIndex(tmp_path / "idx", verify_checksums=False).close()

    def test_v1_directory_rejected(self, tmp_path):
        build_index([frozenset({0, 1})], tmp_path / "idx")
        path = tmp_path / "idx" / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest["schema"] = "repro.index/1"
        path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="schema"):
            CliqueIndex(tmp_path / "idx")

    def test_wrong_fingerprint_target_rejected_by_verify(self, tmp_path, capsys):
        """Swap two entries' clique ids and recompute the manifest CRC: the
        file-level check passes, the record cross-check does not."""
        directory = tmp_path / "idx"
        build_index([frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4})],
                    directory)
        path = directory / FINGERPRINTS_FILENAME
        data = bytearray(path.read_bytes())
        first = TABLE_PAGE_HEADER
        second = first + FINGERPRINT_ENTRY.size
        fp_a, id_a = FINGERPRINT_ENTRY.unpack_from(data, first)
        fp_b, id_b = FINGERPRINT_ENTRY.unpack_from(data, second)
        FINGERPRINT_ENTRY.pack_into(data, first, fp_a, id_b)
        FINGERPRINT_ENTRY.pack_into(data, second, fp_b, id_a)
        path.write_bytes(bytes(data))
        manifest_path = directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["files"][FINGERPRINTS_FILENAME]["crc32"] = zlib.crc32(bytes(data))
        manifest_path.write_text(json.dumps(manifest))

        with CliqueIndex(directory) as index:
            with pytest.raises(CorruptDataError, match="fingerprint"):
                index.verify()
        assert main(["verify-index", str(directory)]) == 1
        assert "error:" in capsys.readouterr().err
