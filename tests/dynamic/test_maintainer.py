"""Tests for Section 5's dynamic maintenance of T_H*."""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core.clique_tree import CliqueTree, enumerate_star_cliques
from repro.dynamic.maintainer import HStarMaintainer
from repro.errors import EdgeNotFoundError, GraphError
from repro.graph.adjacency import AdjacencyGraph

from tests.helpers import cliques_of, figure1_graph


def assert_consistent(maintainer):
    """The maintained tree holds exactly M_H* of the maintained star, and
    the maintained core is a valid Definition-1 h-vertex set."""
    expected = cliques_of(enumerate_star_cliques(maintainer.star()))
    assert cliques_of(maintainer.star_cliques()) == expected
    g, h, core = maintainer.graph, maintainer.h, maintainer.core
    assert len(core) == h
    for v in core:
        assert g.degree(v) >= h
    for v in g.vertices():
        if v not in core:
            assert g.degree(v) <= h


class TestBasics:
    def test_empty_start(self):
        maintainer = HStarMaintainer()
        assert maintainer.h == 0
        assert maintainer.star_cliques() == []

    def test_initial_graph_adopted(self):
        maintainer = HStarMaintainer(figure1_graph())
        assert maintainer.h == 5
        assert_consistent(maintainer)

    def test_initial_graph_copied_not_shared(self):
        g = figure1_graph()
        maintainer = HStarMaintainer(g)
        g.add_edge(100, 101)
        assert 100 not in maintainer.graph

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            HStarMaintainer().insert_edge(1, 1)

    def test_delete_missing_edge_raises(self):
        with pytest.raises(EdgeNotFoundError):
            HStarMaintainer(figure1_graph()).delete_edge(0, 100)

    def test_duplicate_insert_not_counted(self):
        maintainer = HStarMaintainer(figure1_graph())
        before = maintainer.stats.updates_total
        maintainer.insert_edge(0, 1)  # (a, b) already present
        assert maintainer.stats.updates_total == before


class TestUpdateRules:
    def test_insertion_outside_star_is_cheap(self):
        maintainer = HStarMaintainer(figure1_graph())
        from tests.helpers import FIGURE1_ID

        before = maintainer.stats.updates_hitting_star
        # (q, t): neither endpoint is an h-vertex, degrees stay below h.
        maintainer.insert_edge(FIGURE1_ID["q"], FIGURE1_ID["t"])
        assert maintainer.stats.updates_hitting_star == before
        assert_consistent(maintainer)

    def test_insertion_touching_core_updates_tree(self):
        from tests.helpers import FIGURE1_ID

        maintainer = HStarMaintainer(figure1_graph())
        # (a, z): a is an h-vertex, z a periphery vertex not adjacent to a.
        maintainer.insert_edge(FIGURE1_ID["a"], FIGURE1_ID["z"])
        assert maintainer.stats.updates_hitting_star >= 1
        assert_consistent(maintainer)

    def test_deletion_touching_core_updates_tree(self):
        from tests.helpers import FIGURE1_ID

        maintainer = HStarMaintainer(figure1_graph())
        maintainer.delete_edge(FIGURE1_ID["a"], FIGURE1_ID["w"])
        assert_consistent(maintainer)

    def test_new_vertex_via_insertion(self):
        maintainer = HStarMaintainer(figure1_graph())
        maintainer.insert_edge(0, 50)
        assert 50 in maintainer.graph
        assert_consistent(maintainer)

    def test_core_change_triggers_rebuild(self):
        # Growing a tiny graph changes h constantly -> rebuilds counted.
        maintainer = HStarMaintainer()
        for u, v in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]:
            maintainer.insert_edge(u, v)
        assert maintainer.stats.core_rebuilds >= 1
        assert_consistent(maintainer)


class TestLocalUpdates:
    """Star-hitting updates resolve ``S_M``/``S'`` from ``G_H*[NB_uv]``:
    no walk of the clique tree, as long as the core stays valid."""

    CORE = range(8)
    PERIPHERY = range(100, 130)

    def graph(self, rng):
        edges = {(u, v) for u in self.CORE for v in self.CORE if u < v}
        degree = dict.fromkeys([*self.CORE, *self.PERIPHERY], 0)
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        for p in self.PERIPHERY:
            for c in rng.sample(self.CORE, rng.randint(1, 4)):
                edges.add((c, p))
                degree[c] += 1
                degree[p] += 1
        return AdjacencyGraph.from_edges(sorted(edges)), degree

    @staticmethod
    @contextlib.contextmanager
    def forbid_tree_walks():
        def walk(*_args, **_kwargs):
            raise AssertionError("a star update walked the clique tree")

        with mock.patch.object(CliqueTree, "cliques", walk), \
                mock.patch.object(CliqueTree, "cliques_containing", walk):
            yield

    @pytest.mark.parametrize("seed", range(4))
    def test_core_hitting_stream_never_walks_the_tree(self, seed):
        rng = random.Random(seed)
        graph, degree = self.graph(rng)
        maintainer = HStarMaintainer(graph)
        assert maintainer.core == frozenset(self.CORE)
        hits = maintainer.stats.updates_hitting_star
        for step in range(120):
            c = rng.choice(self.CORE)
            other = rng.choice([*self.CORE, *self.PERIPHERY])
            if other == c:
                continue
            present = maintainer.graph.has_edge(c, other)
            # Keep h = 8 and the core fixed: core degrees stay >= 9,
            # periphery degrees <= 6.
            if present and degree[c] > 9 and degree[other] > (9 if other in self.CORE else 0):
                with self.forbid_tree_walks():
                    maintainer.delete_edge(c, other)
                step_delta = -1
            elif not present and (other in self.CORE or degree[other] < 6):
                with self.forbid_tree_walks():
                    maintainer.insert_edge(c, other)
                step_delta = 1
            else:
                continue
            degree[c] += step_delta
            degree[other] += step_delta
            if step % 10 == 0:
                assert_consistent(maintainer)
        assert maintainer.stats.core_rebuilds == 0
        assert maintainer.stats.updates_hitting_star > hits
        assert_consistent(maintainer)


class TestCoreMoves:
    """A core change moves single vertices across ``H``; the star is never
    re-enumerated, and ``H`` lands where construction would put it."""

    @staticmethod
    def stream(rng, n, steps):
        present = set()
        for _ in range(steps):
            u, v = rng.sample(range(n), 2)
            edge = (min(u, v), max(u, v))
            if edge in present and rng.random() < 0.5:
                present.discard(edge)
                yield "delete", edge
            elif edge not in present:
                present.add(edge)
                yield "insert", edge

    @pytest.mark.parametrize("seed", range(6))
    def test_core_changes_never_re_enumerate_the_star(self, seed):
        rng = random.Random(seed)
        n = rng.choice([8, 12, 20])
        maintainer = HStarMaintainer()

        def enumerate_forbidden(*_args, **_kwargs):
            raise AssertionError("a core change re-enumerated the star")

        for op, edge in self.stream(rng, n, 150):
            before = maintainer.stats.core_rebuilds
            with mock.patch(
                "repro.dynamic.maintainer.enumerate_star_cliques", enumerate_forbidden
            ):
                if op == "insert":
                    maintainer.insert_edge(*edge)
                else:
                    maintainer.delete_edge(*edge)
            assert_consistent(maintainer)
            if maintainer.stats.core_rebuilds > before:
                # The moved core is the one a fresh construction picks.
                assert maintainer.core == HStarMaintainer(maintainer.graph).core
        assert maintainer.stats.core_rebuilds > 5

    def test_leaving_vertex_drops_out_of_the_star(self):
        """A core vertex whose only neighbours are outside the new core
        leaves ``G_H*`` entirely (no lone-vertex clique stays behind)."""
        maintainer = HStarMaintainer()
        maintainer.insert_edge(0, 1)
        assert maintainer.h == 1
        maintainer.delete_edge(0, 1)
        assert maintainer.h == 0
        assert maintainer.star_cliques() == []
        assert_consistent(maintainer)


class TestPropertyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_random_update_stream_stays_exact(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 20)
        maintainer = HStarMaintainer()
        present = set()
        for _ in range(rng.randint(10, 70)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in present and rng.random() < 0.4:
                maintainer.delete_edge(*edge)
                present.discard(edge)
            elif edge not in present:
                maintainer.insert_edge(*edge)
                present.add(edge)
        assert_consistent(maintainer)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 100_000))
    def test_full_enumeration_matches_oracle(self, tmp_path_factory, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        maintainer = HStarMaintainer()
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not maintainer.graph.has_edge(u, v):
                maintainer.insert_edge(u, v)
        tmp = tmp_path_factory.mktemp("dyn")
        oracle = cliques_of(tomita_maximal_cliques(maintainer.graph))
        with_tree, _ = maintainer.compute_all_max_cliques(tmp / "a", True)
        without_tree, _ = maintainer.compute_all_max_cliques(tmp / "b", False)
        assert cliques_of(with_tree) == oracle
        assert cliques_of(without_tree) == oracle


class TestStats:
    def test_hit_fraction_and_average(self):
        maintainer = HStarMaintainer(figure1_graph())
        from tests.helpers import FIGURE1_ID

        maintainer.insert_edge(FIGURE1_ID["a"], FIGURE1_ID["z"])
        stats = maintainer.stats
        assert 0 < stats.hit_fraction <= 1
        assert stats.average_hit_milliseconds >= 0

    def test_empty_stats(self):
        stats = HStarMaintainer().stats
        assert stats.hit_fraction == 0.0
        assert stats.average_hit_milliseconds == 0.0

    def test_resident_memory_units_positive_after_growth(self):
        maintainer = HStarMaintainer(figure1_graph())
        assert maintainer.resident_memory_units > 0

    def test_apply_stream(self):
        maintainer = HStarMaintainer()
        maintainer.apply_stream([(0, 1, 2), (1, 2, 3), (2, 1, 3)])
        assert maintainer.graph.num_edges == 3
        assert_consistent(maintainer)
