"""Delta rules: one edge update's exact effect on the maximal-clique set."""

import random

import pytest

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core.clique_tree import enumerate_star_cliques
from repro.dynamic.maintainer import HStarMaintainer
from repro.errors import GraphError
from repro.graph.adjacency import AdjacencyGraph
from repro.live.deltas import (
    ADD,
    REMOVE,
    CliqueDelta,
    delete_edge_deltas,
    insert_edge_deltas,
)
from repro.live.ingest import LiveIngestor
from repro.live.store import LiveCliqueStore


def clique_set(graph: AdjacencyGraph) -> set[tuple[int, ...]]:
    return {tuple(sorted(c)) for c in tomita_maximal_cliques(graph)}


def make_lookup(cliques: set[tuple[int, ...]]):
    def lookup(vertex: int):
        return [c for c in cliques if vertex in c]

    return lookup


def apply_deltas(cliques: set[tuple[int, ...]], deltas) -> set[tuple[int, ...]]:
    current = set(cliques)
    for delta in deltas:
        members = tuple(delta.vertices)
        if delta.kind == ADD:
            assert members not in current, f"duplicate add of {members}"
            current.add(members)
        else:
            assert members in current, f"removal of unknown {members}"
            current.remove(members)
    return current


class TestCliqueDelta:
    def test_rejects_unknown_kind(self):
        with pytest.raises(GraphError):
            CliqueDelta("mutate", (1, 2))

    def test_rejects_empty_clique(self):
        with pytest.raises(GraphError):
            CliqueDelta(ADD, ())

    def test_stamped_assigns_seq(self):
        delta = CliqueDelta(ADD, (1, 2))
        assert delta.seq == 0
        assert delta.stamped(7).seq == 7
        assert delta.stamped(7).vertices == (1, 2)


class TestInsert:
    def test_first_edge_between_singletons(self):
        graph = AdjacencyGraph.from_edges([(0, 1)])
        before = {(0,), (1,)}
        deltas = insert_edge_deltas(graph, 0, 1, make_lookup(before))
        assert apply_deltas(before, deltas) == {(0, 1)}

    def test_closing_a_triangle(self):
        graph = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        before = {(0, 1), (1, 2)}  # pre-insert cliques of the path 0-1-2
        deltas = insert_edge_deltas(graph, 0, 2, make_lookup(before))
        assert apply_deltas(before, deltas) == {(0, 1, 2)}

    def test_removals_precede_additions(self):
        graph = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        before = {(0, 1), (1, 2)}
        deltas = insert_edge_deltas(graph, 0, 2, make_lookup(before))
        kinds = [d.kind for d in deltas]
        assert kinds == sorted(kinds, key=(REMOVE, ADD).index)

    def test_bridge_edge_keeps_side_cliques(self):
        # Two triangles joined by the new edge (2, 3): nothing is subsumed.
        graph = AdjacencyGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        before = {(0, 1, 2), (3, 4, 5)}
        deltas = insert_edge_deltas(graph, 2, 3, make_lookup(before))
        assert apply_deltas(before, deltas) == {(0, 1, 2), (3, 4, 5), (2, 3)}


class TestDelete:
    def test_splitting_an_edge(self):
        # Post-delete graph: two isolated vertices.
        post = AdjacencyGraph.from_edges([], vertices=[0, 1])
        before = {(0, 1)}
        deltas = delete_edge_deltas(post, 0, 1, make_lookup(before))
        assert apply_deltas(before, deltas) == {(0,), (1,)}

    def test_breaking_a_triangle(self):
        post = AdjacencyGraph.from_edges([(0, 1), (1, 2)])
        before = {(0, 1, 2)}
        deltas = delete_edge_deltas(post, 0, 2, make_lookup(before))
        assert apply_deltas(before, deltas) == {(0, 1), (1, 2)}

    def test_halves_subsumed_by_surviving_clique_are_dropped(self):
        # K4 minus edge (0, 1): halves {0,2,3} and {1,2,3} both survive.
        post = AdjacencyGraph.from_edges(
            [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        )
        before = {(0, 1, 2, 3)}
        deltas = delete_edge_deltas(post, 0, 1, make_lookup(before))
        assert apply_deltas(before, deltas) == {(0, 2, 3), (1, 2, 3)}


class TestRandomizedSingleStep:
    """Each single edge toggle moves M(G) exactly to the new graph's cliques."""

    @pytest.mark.parametrize("seed", range(8))
    def test_insert_matches_oracle(self, seed):
        rng = random.Random(seed)
        n = 10
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        }
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in edges
        ]
        if not missing:
            pytest.skip("dense draw left no edge to insert")
        u, v = rng.choice(missing)
        before_graph = AdjacencyGraph.from_edges(sorted(edges), vertices=range(n))
        before = clique_set(before_graph)
        after_graph = AdjacencyGraph.from_edges(
            sorted(edges | {(u, v)}), vertices=range(n)
        )
        deltas = insert_edge_deltas(after_graph, u, v, make_lookup(before))
        assert apply_deltas(before, deltas) == clique_set(after_graph)

    @pytest.mark.parametrize("seed", range(8))
    def test_delete_matches_oracle(self, seed):
        rng = random.Random(100 + seed)
        n = 10
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        }
        if not edges:
            pytest.skip("sparse draw left no edge to delete")
        u, v = rng.choice(sorted(edges))
        before_graph = AdjacencyGraph.from_edges(sorted(edges), vertices=range(n))
        before = clique_set(before_graph)
        after_graph = AdjacencyGraph.from_edges(
            sorted(edges - {(u, v)}), vertices=range(n)
        )
        deltas = delete_edge_deltas(after_graph, u, v, make_lookup(before))
        assert apply_deltas(before, deltas) == clique_set(after_graph)


class TestLocality:
    """The deltas come from the endpoints' common neighbourhood, not the
    clique set: only the singleton case may consult ``lookup``."""

    @staticmethod
    def random_graph(rng, n, p):
        return AdjacencyGraph.from_edges(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
            vertices=range(n),
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_insert_asks_only_about_isolated_endpoints(self, seed):
        rng = random.Random(300 + seed)
        graph = self.random_graph(rng, 9, rng.choice((0.1, 0.3, 0.5)))
        missing = [
            (u, v) for u in range(9) for v in range(u + 1, 9)
            if not graph.has_edge(u, v)
        ]
        for u, v in rng.sample(missing, min(6, len(missing))):
            before = clique_set(graph)
            graph.add_edge(u, v)
            asked: list[int] = []

            def lookup(vertex, before=before):
                asked.append(vertex)
                return [c for c in before if vertex in c]

            deltas = insert_edge_deltas(graph, u, v, lookup)
            for vertex in asked:
                other = v if vertex == u else u
                assert graph.neighbors(vertex) == {other}
            assert apply_deltas(before, deltas) == clique_set(graph)

    @pytest.mark.parametrize("seed", range(12))
    def test_delete_never_consults_the_clique_set(self, seed):
        rng = random.Random(400 + seed)
        graph = self.random_graph(rng, 9, rng.choice((0.2, 0.4, 0.7)))
        for u, v in rng.sample(sorted(graph.edges()), min(6, graph.num_edges)):
            before = clique_set(graph)
            graph.remove_edge(u, v)

            def lookup(vertex):
                raise AssertionError(f"delete consulted the clique set for {vertex}")

            deltas = delete_edge_deltas(graph, u, v, lookup)
            assert apply_deltas(before, deltas) == clique_set(graph)

    def test_edge_to_a_brand_new_vertex_removes_no_singleton(self):
        # Vertex 1 is created by this event: the store holds no (1,).
        graph = AdjacencyGraph.from_edges([(0, 1)])
        before = {(0,)}
        deltas = insert_edge_deltas(graph, 0, 1, make_lookup(before))
        assert apply_deltas(before, deltas) == {(0, 1)}

    def test_each_half_is_in_ascending_order(self):
        # NB = {2, 3, 4} has kernels {2, 3} and {4}: two cliques per
        # endpoint are subsumed and two new ones appear.
        graph = AdjacencyGraph.from_edges(
            [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]
        )
        before = clique_set(graph)
        graph.add_edge(0, 1)
        deltas = insert_edge_deltas(graph, 1, 0, make_lookup(before))
        assert [(d.kind, d.vertices) for d in deltas] == [
            (REMOVE, (0, 2, 3)), (REMOVE, (0, 4)), (REMOVE, (1, 2, 3)), (REMOVE, (1, 4)),
            (ADD, (0, 1, 2, 3)), (ADD, (0, 1, 4)),
        ]


class TestIngestSweep:
    """Seeded streams through the whole live path, checked after every event.

    The streams deliberately hit the delta rules' corner cases: edges to
    vertices the event creates, edges between isolated vertices,
    deletions that isolate a vertex, re-insertions of deleted edges, and
    compactions between events.
    """

    @staticmethod
    def stream(rng, length):
        edges: set[tuple[int, int]] = set()
        degree: dict[int, int] = {}
        deleted: list[tuple[int, int]] = []
        fresh = 0
        ts = 0

        def isolated():
            return sorted(w for w, d in degree.items() if d == 0)

        while ts < length:
            kind = rng.choice(("new", "isolated", "isolate", "reinsert", "insert", "delete"))
            if kind == "new" or not degree:
                u = rng.choice(sorted(degree)) if degree else fresh + 1
                v, fresh = fresh, fresh + (2 if not degree else 1)
                op, edge = "insert", (min(u, v), max(u, v))
            elif kind == "isolated" and len(isolated()) >= 2:
                op, edge = "insert", tuple(rng.sample(isolated(), 2))
            elif kind == "isolate" and any(d == 1 for d in degree.values()):
                leaf = rng.choice(sorted(w for w, d in degree.items() if d == 1))
                op, edge = "delete", next(e for e in sorted(edges) if leaf in e)
            elif kind == "reinsert" and deleted:
                op, edge = "insert", deleted.pop(rng.randrange(len(deleted)))
            elif kind == "delete" and edges:
                op, edge = "delete", rng.choice(sorted(edges))
            else:
                op, edge = "insert", tuple(rng.sample(sorted(degree), 2))
            edge = (min(edge), max(edge))
            if op == "insert":
                if edge in edges:
                    continue
                edges.add(edge)
                step = 1
            else:
                edges.discard(edge)
                deleted.append(edge)
                step = -1
            for w in edge:
                degree[w] = degree.get(w, 0) + step
            yield (ts, op, *edge)
            ts += 1

    @pytest.mark.parametrize("seed", range(6))
    def test_store_and_tree_track_the_graph(self, tmp_path, seed):
        rng = random.Random(500 + seed)
        store = LiveCliqueStore.initialize(tmp_path / "live")
        maintainer = HStarMaintainer()
        ingestor = LiveIngestor(maintainer, store)
        try:
            for event in self.stream(rng, 60):
                ingestor.apply_event(event)
                if rng.random() < 0.1:
                    store.compact()
                assert store.live_cliques() == clique_set(maintainer.graph)
                star = {frozenset(c) for c in enumerate_star_cliques(maintainer.star())}
                assert set(maintainer.star_cliques()) == star
        finally:
            store.close()
