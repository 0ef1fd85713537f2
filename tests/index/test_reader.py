"""Query correctness, integrity auditing, and fault behaviour of CliqueIndex."""

import pytest

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.errors import CorruptDataError, GraphError, StorageError
from repro.faults import FaultPlan, FaultRule
from repro.index import CliqueIndex, build_index
from repro.storage.iostats import IOStats

from tests.helpers import figure1_graph, seeded_gnp


@pytest.fixture()
def indexed(tmp_path):
    """A graph, its canonical clique list, and an open index over it."""
    graph = seeded_gnp(40, 0.3, seed=3)
    cliques = sorted(
        tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph))
    )
    build_index(cliques, tmp_path / "idx")
    with CliqueIndex(tmp_path / "idx") as index:
        yield graph, cliques, index


class TestQueriesMatchBruteForce:
    def test_postings_for_every_vertex(self, indexed):
        graph, cliques, index = indexed
        for vertex in graph.vertices():
            expected = tuple(
                cid for cid, c in enumerate(cliques) if vertex in c
            )
            assert index.cliques_containing(vertex) == expected

    def test_absent_vertex_is_empty(self, indexed):
        _graph, _cliques, index = indexed
        assert index.cliques_containing(10_000) == ()

    def test_edge_queries(self, indexed):
        graph, cliques, index = indexed
        for u, v in list(graph.edges())[:50]:
            expected = tuple(
                cid for cid, c in enumerate(cliques) if u in c and v in c
            )
            assert index.cliques_containing_edge(u, v) == expected
            assert index.cliques_containing_edge(v, u) == expected

    def test_membership(self, indexed):
        _graph, cliques, index = indexed
        for cid, clique in enumerate(cliques):
            # A maximal clique's full vertex set belongs to exactly itself.
            assert index.membership(clique) == (cid,)
            # Any two of its vertices select every clique containing both.
            u, v = clique[0], clique[-1]
            if u != v:
                expected = tuple(
                    i for i, c in enumerate(cliques) if u in c and v in c
                )
                assert index.membership([u, v]) == expected

    def test_clique_and_size_lookup(self, indexed):
        _graph, cliques, index = indexed
        for cid, clique in enumerate(cliques):
            assert index.clique(cid) == clique
            assert index.clique_size(cid) == len(clique)

    def test_top_k_largest(self, indexed):
        _graph, cliques, index = indexed
        for k in (1, 3, len(cliques), len(cliques) + 10):
            expected = sorted(cliques, key=lambda c: (-len(c), c))[:k]
            assert index.top_k_largest(k) == expected

    def test_scan_matches_canonical_order(self, indexed):
        _graph, cliques, index = indexed
        assert list(index.scan_cliques()) == list(enumerate(cliques))

    def test_stats(self, indexed):
        _graph, cliques, index = indexed
        stats = index.stats()
        assert stats["num_cliques"] == len(cliques)
        assert stats["max_clique_size"] == max(len(c) for c in cliques)
        assert stats["num_postings"] == sum(len(c) for c in cliques)
        histogram = stats["size_histogram"]
        assert sum(histogram.values()) == len(cliques)

    def test_figure1(self, tmp_path):
        graph = figure1_graph()
        cliques = sorted(
            tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph))
        )
        build_index(cliques, tmp_path / "idx")
        with CliqueIndex(tmp_path / "idx") as index:
            # abcwx is the unique maximum clique of Figure 1.
            assert len(index.top_k_largest(1)[0]) == 5


class TestArgumentValidation:
    def test_clique_id_out_of_range(self, indexed):
        _graph, cliques, index = indexed
        with pytest.raises(GraphError):
            index.clique(len(cliques))
        with pytest.raises(GraphError):
            index.clique(-1)
        with pytest.raises(GraphError):
            index.clique_size(len(cliques))

    def test_edge_same_endpoint_rejected(self, indexed):
        _graph, _cliques, index = indexed
        with pytest.raises(GraphError):
            index.cliques_containing_edge(3, 3)

    def test_membership_empty_rejected(self, indexed):
        _graph, _cliques, index = indexed
        with pytest.raises(GraphError):
            index.membership([])

    def test_top_k_nonpositive_rejected(self, indexed):
        _graph, _cliques, index = indexed
        with pytest.raises(GraphError):
            index.top_k_largest(0)


class TestIntegrity:
    def test_verify_clean_index(self, indexed):
        _graph, cliques, index = indexed
        summary = index.verify()
        assert summary["records_verified"] == len(cliques)
        assert summary["postings_verified"] == sum(len(c) for c in cliques)

    @pytest.mark.parametrize(
        "victim",
        ["cliques.dat", "cliques.idx", "cliques.fp", "cliques.sz", "postings.dat",
         "postings.dir"],
    )
    def test_verify_detects_any_flipped_byte(self, tmp_path, victim):
        build_index(
            [frozenset({0, 1, 2}), frozenset({2, 3, 4})], tmp_path / "idx"
        )
        path = tmp_path / "idx" / victim
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        # A flipped bit in a sorted table already fails the open (see
        # test_flipped_bit_in_sorted_table_fails_at_open); open those
        # unchecked so verify() still has to catch it.
        sorted_table = victim in ("cliques.fp", "cliques.sz", "postings.dir")
        with CliqueIndex(tmp_path / "idx", verify_checksums=not sorted_table) as index:
            with pytest.raises(CorruptDataError):
                index.verify()

    def test_corrupt_postings_surface_on_query(self, tmp_path):
        build_index(
            [frozenset({0, 1, 2}), frozenset({2, 3, 4})], tmp_path / "idx"
        )
        path = tmp_path / "idx" / "postings.dat"
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF  # inside the last list's payload or CRC
        path.write_bytes(bytes(data))
        with CliqueIndex(tmp_path / "idx") as index:
            with pytest.raises(CorruptDataError):
                for v in range(5):
                    index.postings(v)


class TestFaultsAndMetering:
    def test_injected_read_fault_surfaces_typed(self, tmp_path):
        build_index([frozenset({0, 1, 2})], tmp_path / "idx")
        plan = FaultPlan(
            [FaultRule(operation="pool_read", kind="io_error",
                       path_contains="postings.dat")],
            seed=5,
        )
        with CliqueIndex(tmp_path / "idx", fault_plan=plan) as index:
            with pytest.raises(StorageError):
                index.postings(0)
            # The rule's budget (max_firings=1) is spent: retry succeeds.
            assert index.postings(0) == (0,)

    def test_io_is_metered(self, tmp_path):
        build_index([frozenset({0, 1, 2})], tmp_path / "idx")
        io = IOStats()
        with CliqueIndex(tmp_path / "idx", io_stats=io) as index:
            index.postings(1)
            index.clique(0)
        assert io.pages_read > 0

    def test_open_does_not_prewarm_page_caches(self, tmp_path):
        """Open-time magic checks must bypass the pools, or a small index
        gets fully cached at open and query-time fault tests go dark."""
        build_index([frozenset({0, 1, 2})], tmp_path / "idx"
        )
        plan = FaultPlan(
            [FaultRule(operation="pool_read", kind="io_error",
                       path_contains="postings.dat")],
            seed=5,
        )
        index = CliqueIndex(tmp_path / "idx", fault_plan=plan)
        try:
            with pytest.raises(StorageError):
                index.postings(0)  # first pool read: the fault must fire here
        finally:
            index.close()
