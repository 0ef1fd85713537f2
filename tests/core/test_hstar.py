"""Tests for the star-graph structure (Definitions 1-6, paper Example 1)."""

import pytest

from repro.core.hstar import StarGraph, extract_hstar_graph
from repro.errors import GraphError
from repro.storage.diskgraph import DiskGraph

from tests.helpers import FIGURE1_ID, figure1_graph, names_of


@pytest.fixture
def star():
    return extract_hstar_graph(figure1_graph())


class TestExample1:
    """The worked example of Section 3.1 on Figure 1."""

    def test_h_vertices(self, star):
        assert {names_of([v]) for v in star.core} == set("abcde")

    def test_h_neighbors(self, star):
        assert {names_of([v]) for v in star.periphery} == set("rswxyz")

    def test_q_and_t_outside_h_plus(self, star):
        assert FIGURE1_ID["q"] not in star.extended
        assert FIGURE1_ID["t"] not in star.extended

    def test_core_graph_is_gh(self, star):
        core_graph = star.core_graph()
        assert core_graph.num_vertices == 5
        assert core_graph.num_edges == 8

    def test_star_graph_has_no_periphery_edges(self, star):
        sg = star.star_graph()
        w, x = FIGURE1_ID["w"], FIGURE1_ID["x"]
        assert not sg.has_edge(w, x)  # (w,x) is in G but not in G_H*
        assert sg.num_edges == 20

    def test_size_edges(self, star):
        assert star.size_edges == 20
        assert star.core_edge_count == 8


class TestDerivedQueries:
    def test_common_periphery_of_abc(self, star):
        abc = {FIGURE1_ID[c] for c in "abc"}
        assert {names_of([v]) for v in star.common_periphery(abc)} == {"w", "x"}

    def test_common_periphery_of_ac(self, star):
        ac = {FIGURE1_ID[c] for c in "ac"}
        assert {names_of([v]) for v in star.common_periphery(ac)} == {"w", "x", "y"}

    def test_common_periphery_empty_input_gives_whole_periphery(self, star):
        assert star.common_periphery([]) == star.periphery

    def test_adjacent_in_star(self, star):
        a, w, x = FIGURE1_ID["a"], FIGURE1_ID["w"], FIGURE1_ID["x"]
        assert star.adjacent_in_star(a, w)
        assert star.adjacent_in_star(w, a)
        assert not star.adjacent_in_star(w, x)  # periphery-periphery

    def test_original_degree_defaults_to_list_length(self, star):
        a = FIGURE1_ID["a"]
        assert star.original_degree(a) == 5


class TestConstructionAndRestriction:
    def test_neighbor_lists_must_cover_core(self):
        with pytest.raises(GraphError):
            StarGraph(core=frozenset({1, 2}), neighbor_lists={1: frozenset({2})})

    def test_h_defaults_to_core_size(self):
        star = StarGraph(core=frozenset({1}), neighbor_lists={1: frozenset({2})})
        assert star.h == 1

    def test_restricted_to_moves_dropped_vertices_to_periphery(self, star):
        kept = sorted(star.core)[:3]
        smaller = star.restricted_to(kept)
        assert smaller.core == frozenset(kept)
        dropped = star.core - smaller.core
        # Dropped core vertices adjacent to kept ones become periphery.
        for v in dropped:
            if any(v in smaller.neighbor_lists[u] for u in kept):
                assert v in smaller.periphery

    def test_restricted_to_superset_rejected(self, star):
        with pytest.raises(GraphError):
            star.restricted_to(list(star.core) + [999])

    def test_memory_units(self, star):
        expected = sum(1 + len(star.neighbor_lists[v]) for v in star.core)
        assert star.memory_units == expected


class TestDiskExtraction:
    def test_matches_in_memory_extraction(self, tmp_path):
        g = figure1_graph()
        disk = DiskGraph.create(tmp_path / "g.bin", g)
        from_disk = extract_hstar_graph(disk)
        from_memory = extract_hstar_graph(g)
        assert from_disk.core == from_memory.core
        assert from_disk.neighbor_lists == from_memory.neighbor_lists

    def test_extraction_uses_one_scan(self, tmp_path):
        g = figure1_graph()
        disk = DiskGraph.create(tmp_path / "g.bin", g)
        before = disk.io_stats.sequential_scans
        extract_hstar_graph(disk)
        assert disk.io_stats.sequential_scans == before + 1
