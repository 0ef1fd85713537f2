"""Staleness: a frozen index never reports stale vertices, and the
maintainer's update hook reports exactly the applied edges' endpoints —
the signal live ingest turns into the delta overlay a live store serves
as its stale flag."""

from repro.dynamic.maintainer import HStarMaintainer
from repro.graph.adjacency import AdjacencyGraph
from repro.index import CliqueIndex, build_index


def _open(tmp_path):
    build_index(
        [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({4, 5})],
        tmp_path / "idx",
    )
    return CliqueIndex(tmp_path / "idx")


class TestStaleFlags:
    def test_fresh_index_has_no_stale_vertices(self, tmp_path):
        with _open(tmp_path) as index:
            assert index.stale_vertices == frozenset()
            assert not index.is_stale(0, 1, 2)
            assert index.stats()["stale_vertices"] == 0


def _marking(edges):
    """A maintainer over ``edges`` whose update hook marks endpoints."""
    maintainer = HStarMaintainer(AdjacencyGraph.from_edges(edges))
    marked: set[int] = set()
    maintainer.register_update_hook(lambda kind, u, v: marked.update((u, v)))
    return maintainer, marked


class TestMaintainerHook:
    def test_insert_marks_both_endpoints(self):
        maintainer, marked = _marking([(0, 1), (1, 2), (0, 2), (2, 3)])
        maintainer.insert_edge(3, 4)
        assert marked == {3, 4}

    def test_delete_marks_both_endpoints(self):
        maintainer, marked = _marking([(0, 1), (1, 2), (0, 2), (2, 3)])
        maintainer.delete_edge(2, 3)
        assert marked == {2, 3}

    def test_batch_insert_marks_every_applied_edge(self):
        maintainer, marked = _marking([(0, 1), (1, 2), (0, 2)])
        maintainer.insert_batch([(3, 4), (4, 5)])
        assert marked == {3, 4, 5}

    def test_duplicate_insert_does_not_mark(self):
        """Hooks fire only for edges actually applied to the graph."""
        maintainer, marked = _marking([(0, 1), (1, 2), (0, 2)])
        maintainer.insert_edge(0, 1)  # already present
        assert marked == set()
