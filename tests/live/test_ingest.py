"""LiveIngestor: maintainer hook → deltas → store, and bootstrapping."""

import random
import threading

import pytest

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.dynamic.maintainer import HStarMaintainer
from repro.errors import GraphError
from repro.graph.adjacency import AdjacencyGraph
from repro.live.ingest import LiveIngestor, bootstrap_live_store
from repro.live.store import LiveCliqueStore


@pytest.fixture()
def empty(tmp_path):
    store = LiveCliqueStore.initialize(tmp_path / "live")
    yield LiveIngestor(HStarMaintainer(), store)
    store.close()


class TestIngest:
    def test_insert_only_stream(self, empty):
        applied = empty.ingest([(0, 0, 1), (1, 1, 2), (2, 0, 2)])
        assert applied == 3
        assert empty.store.live_cliques() == {(0, 1, 2)}
        assert empty.report.insertions == 3
        assert empty.report.deletions == 0

    def test_mixed_stream_with_deletes(self, empty):
        empty.ingest([
            (0, 0, 1), (1, 1, 2), (2, 0, 2),
            (3, "delete", 0, 2),
        ])
        assert empty.store.live_cliques() == {(0, 1), (1, 2)}
        assert empty.report.deletions == 1

    def test_duplicate_insert_skipped(self, empty):
        applied = empty.ingest([(0, 0, 1), (1, 0, 1), (2, 1, 0)])
        # The maintainer only fires the hook for edges actually applied,
        # so the two duplicates are invisible to the report.
        assert applied == 1
        assert empty.report.insertions == 1
        assert empty.store.live_cliques() == {(0, 1)}

    def test_single_edge_calls(self, empty):
        empty.insert_edge(3, 4)
        assert empty.store.live_cliques() == {(3, 4)}
        empty.delete_edge(3, 4)
        assert empty.store.live_cliques() == {(3,), (4,)}

    def test_malformed_event_rejected(self, empty):
        with pytest.raises(GraphError):
            empty.ingest([(0, 1)])
        with pytest.raises(GraphError):
            empty.ingest([(0, "merge", 1, 2)])

    def test_report_payload(self, empty):
        empty.ingest([(0, 0, 1), (1, 1, 2)])
        payload = empty.report.to_payload()
        assert payload["edges_applied"] == 2
        assert payload["deltas_emitted"] >= 2
        assert payload["updates_per_second"] >= 0.0


class TestCompactionBetweenReads:
    def test_lookup_survives_a_compaction_commit(self, empty, monkeypatch):
        """A compaction swap renumbers clique ids.  One that commits right
        after the lookup's postings read must not change which cliques the
        lookup resolves those ids to."""
        store = empty.store
        empty.ingest([(0, 0, 1), (1, 1, 2), (2, 3, 4), (3, 4, 5), (4, 6, 7)])
        store.compact()
        # Closing two triangles tombstones four base cliques and adds two
        # above the base, so the next compaction packs the survivors
        # below the ids the additions hold now.
        empty.ingest([(5, 0, 2), (6, 3, 5)])
        postings = store.postings
        reads = []

        def postings_then_compact(vertex):
            ids = postings(vertex)
            reads.append(vertex)

            def compact_unless_held():
                # Stands in for the background compactor, which commits
                # whenever the reader does not hold the store lock.
                if store._lock.acquire(blocking=False):
                    store._lock.release()
                    store.compact()

            compactor = threading.Thread(target=compact_unless_held)
            compactor.start()
            compactor.join()
            return ids

        monkeypatch.setattr(store, "postings", postings_then_compact)
        empty.ingest([(7, 5, 8)])
        monkeypatch.undo()
        assert reads
        expected = {
            tuple(sorted(c)) for c in tomita_maximal_cliques(empty.maintainer.graph)
        }
        assert store.live_cliques() == expected
        store.compact()
        assert store.live_cliques() == expected


class TestBootstrap:
    def test_bootstrap_seeds_generation_zero(self, tmp_path):
        graph = AdjacencyGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        )
        store = bootstrap_live_store(
            tmp_path / "live", graph, tmp_path / "work"
        )
        try:
            assert store.generation == "gen-000000"
            assert store.live_cliques() == {(0, 1, 2), (2, 3), (3, 4)}
            # Ingestion continues from the bootstrapped base.
            ingestor = LiveIngestor(HStarMaintainer(graph), store)
            ingestor.ingest([(0, 2, 4)])
            # (2,4) completes the triangle {2,3,4}, subsuming (2,3), (3,4).
            assert store.live_cliques() == {(0, 1, 2), (2, 3, 4)}
        finally:
            store.close()


class TestExactCliqueLookup:
    """Applying a delta finds its clique in the base generation through
    the fingerprint section, never by intersecting postings."""

    @staticmethod
    def stream(graph, rng, count):
        """Inserts and deletes that never leave a vertex isolated, so the
        delta rules never ask the store about an endpoint."""
        vertices = sorted(graph.vertices())
        events = []
        while len(events) < count:
            if rng.random() < 0.3:
                u = rng.choice(vertices)
                v = rng.choice(sorted(graph.neighbors(u)))
                if graph.degree(u) > 1 and graph.degree(v) > 1:
                    graph.remove_edge(u, v)
                    events.append((len(events), "delete", u, v))
            else:
                u, v = rng.sample(vertices, 2)
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v)
                    events.append((len(events), u, v))
        return events

    @pytest.mark.parametrize("seed", range(3))
    def test_ingest_reads_no_postings(self, tmp_path, live_metrics, seed):
        from repro import metrics
        from repro.generators.scale_free import powerlaw_cluster_graph

        rng = random.Random(seed)
        graph = powerlaw_cluster_graph(150, 3, 0.6, seed=seed)
        cliques = sorted(
            tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph))
        )
        events = self.stream(graph.copy(), rng, 400)
        store = LiveCliqueStore.initialize(tmp_path / "live", cliques)
        try:
            maintainer = HStarMaintainer(graph)
            ingestor = LiveIngestor(maintainer, store)
            for position, event in enumerate(events):
                ingestor.apply_event(event)
                if position % 150 == 149:
                    store.compact()
            snapshot = live_metrics.snapshot()
            assert metrics.counter_value(
                snapshot, "repro_index_postings_read_total") == 0
            assert 0 < metrics.counter_value(
                snapshot, "repro_index_records_read_total"
            ) <= ingestor.report.cliques_removed
            oracle = {
                tuple(sorted(c))
                for c in tomita_maximal_cliques(maintainer.graph)
            }
            assert store.live_cliques() == oracle
        finally:
            store.close()
