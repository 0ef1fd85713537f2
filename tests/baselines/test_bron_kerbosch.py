"""Tests for the Bron-Kerbosch / Tomita in-memory enumerators."""

import pytest
from hypothesis import given, settings

from repro.baselines.bron_kerbosch import (
    bron_kerbosch_maximal_cliques,
    tomita_maximal_cliques,
    tomita_subproblem,
)
from repro.errors import MemoryBudgetExceeded
from repro.graph.adjacency import AdjacencyGraph
from repro.storage.memory import MemoryModel

from tests.helpers import cliques_of, figure1_graph, seeded_gnp, small_graphs


def complete_graph(n):
    return AdjacencyGraph.from_edges([(u, v) for u in range(n) for v in range(u + 1, n)])


class TestKnownGraphs:
    def test_triangle(self):
        g = complete_graph(3)
        assert cliques_of(tomita_maximal_cliques(g)) == {frozenset({0, 1, 2})}

    def test_complete_graph_single_clique(self):
        g = complete_graph(6)
        assert cliques_of(tomita_maximal_cliques(g)) == {frozenset(range(6))}

    def test_path_yields_edges(self):
        g = AdjacencyGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert cliques_of(tomita_maximal_cliques(g)) == {
            frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})
        }

    def test_isolated_vertices_are_singletons(self):
        g = AdjacencyGraph.from_edges([(0, 1)], vertices=[5])
        assert frozenset({5}) in cliques_of(tomita_maximal_cliques(g))

    def test_empty_graph_yields_nothing(self):
        assert list(tomita_maximal_cliques(AdjacencyGraph())) == []

    def test_moon_moser_count(self):
        # The complete tripartite graph K(2,2,2) has 2*2*2 = 8 max cliques.
        parts = [(0, 1), (2, 3), (4, 5)]
        edges = [
            (u, v)
            for i, a in enumerate(parts)
            for b in parts[i + 1 :]
            for u in a
            for v in b
        ]
        g = AdjacencyGraph.from_edges(edges)
        assert len(cliques_of(tomita_maximal_cliques(g))) == 8

    def test_figure1_graph_cliques(self, figure1):
        # Paper Example 2: M_H+ = {abcwx, acy, bcde, cey, drz, esy}; the two
        # cliques outside H+ are {q,r} and {s,t}.
        from tests.helpers import names_of

        names = sorted(names_of(c) for c in tomita_maximal_cliques(figure1))
        assert names == ["abcwx", "acy", "bcde", "cey", "drz", "esy", "qr", "st"]


class TestAgreement:
    @settings(max_examples=60)
    @given(small_graphs())
    def test_pivot_and_plain_agree(self, g):
        assert cliques_of(tomita_maximal_cliques(g)) == cliques_of(
            bron_kerbosch_maximal_cliques(g)
        )

    def test_medium_graph_agreement(self, medium_random):
        assert cliques_of(tomita_maximal_cliques(medium_random)) == cliques_of(
            bron_kerbosch_maximal_cliques(medium_random)
        )

    @settings(max_examples=40)
    @given(small_graphs())
    def test_every_result_is_a_maximal_clique(self, g):
        for clique in tomita_maximal_cliques(g):
            assert g.is_maximal_clique(clique)

    @settings(max_examples=40)
    @given(small_graphs())
    def test_no_duplicates(self, g):
        found = list(tomita_maximal_cliques(g))
        assert len(found) == len(set(found))

    @settings(max_examples=30)
    @given(small_graphs())
    def test_every_vertex_covered(self, g):
        covered = set()
        for clique in tomita_maximal_cliques(g):
            covered |= clique
        assert covered == set(g.vertices())


class TestMemoryCharging:
    def test_footprint_charged_while_running(self):
        g = seeded_gnp(20, 0.3, seed=2)
        memory = MemoryModel()
        for _ in tomita_maximal_cliques(g, memory=memory):
            assert memory.in_use_units >= 2 * g.num_edges + g.num_vertices
        assert memory.in_use_units == 0

    def test_budget_too_small_raises(self):
        g = seeded_gnp(20, 0.3, seed=2)
        memory = MemoryModel(budget=g.num_edges)  # < 2m + n
        with pytest.raises(MemoryBudgetExceeded):
            list(tomita_maximal_cliques(g, memory=memory))


class TestSubproblemSplit:
    """The Par-TTT root split the parallel tree tasks are built on."""

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs())
    def test_subproblems_partition_the_clique_set(self, graph):
        oracle = cliques_of(tomita_maximal_cliques(graph))
        pieces = []
        for v in sorted(graph.vertices()):
            for clique in tomita_subproblem(graph, v):
                assert min(clique) == v
                pieces.append(clique)
        assert len(pieces) == len(oracle)  # no duplicates across subproblems
        assert cliques_of(pieces) == oracle

    def test_figure1_subproblem_of_smallest_vertex(self):
        graph = figure1_graph()
        found = cliques_of(tomita_subproblem(graph, 0))
        assert found == {c for c in cliques_of(tomita_maximal_cliques(graph)) if min(c) == 0}
