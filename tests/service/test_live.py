"""CliqueQueryEngine over a LiveCliqueStore: overlay serving, precise
staleness, answers across compaction, change subscriptions end to end,
and monotone answers under concurrent updates."""

import threading

import pytest

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.dynamic.maintainer import HStarMaintainer
from repro.errors import GraphError, ServiceError
from repro.graph.adjacency import AdjacencyGraph
from repro.index import CliqueIndex, build_index
from repro.live import LiveCliqueStore, LiveIngestor
from repro.live.deltas import ADD, REMOVE, CliqueDelta
from repro.service import CliqueQueryClient, CliqueQueryEngine, CliqueQueryServer
from repro.service.engine import _Deadline


def add(*vertices):
    return CliqueDelta(ADD, tuple(sorted(vertices)))


def remove(*vertices):
    return CliqueDelta(REMOVE, tuple(sorted(vertices)))


@pytest.fixture()
def live(tmp_path):
    store = LiveCliqueStore.initialize(
        tmp_path / "live", [(0, 1, 2), (2, 3), (4, 5)]
    )
    yield store
    store.close()


class TestLiveEngine:
    def test_engine_detects_live_store(self, live, tmp_path):
        engine = CliqueQueryEngine(live)
        assert engine.live
        build_index([(0, 1)], tmp_path / "frozen")
        with CliqueIndex(tmp_path / "frozen") as frozen:
            assert not CliqueQueryEngine(frozen).live

    def test_answers_reflect_applied_updates(self, live):
        engine = CliqueQueryEngine(live)
        before = engine.cliques_containing(3)
        assert not before.stale
        live.apply_deltas([remove(2, 3), add(2, 3, 9)])
        after = engine.cliques_containing(3)
        assert after.stale  # precise: this answer is delta-overlaid
        assert [live.clique(cid) for cid in after.value] == [(2, 3, 9)]

    def test_compaction_answers_from_new_id_space(self, live):
        engine = CliqueQueryEngine(live)
        engine.cliques_containing(2)
        live.apply_deltas([add(6, 7), add(2, 40)])
        live.compact()
        # Compaction renumbers clique ids; answers use the new generation's.
        ids = engine.cliques_containing(6).value
        assert [live.clique(cid) for cid in ids] == [(6, 7)]
        assert not engine.cliques_containing(6).stale
        answers = sorted(live.clique(cid) for cid in engine.cliques_containing(2).value)
        assert answers == [(0, 1, 2), (2, 3), (2, 40)]

    def test_cold_path_uses_live_id_space(self, live):
        # Overlay ids live past the base's num_cliques; the degraded
        # cold path must accept them.
        live.apply_deltas([add(8, 9)])
        engine = CliqueQueryEngine(live)
        overlay_id = live.postings(8)[0]
        assert overlay_id >= 3  # past the three base cliques
        value, stale = engine._cold_path(
            "clique", {"clique_id": overlay_id}, _Deadline(None)
        )
        assert value == [8, 9]
        with pytest.raises(GraphError):
            engine._cold_path(
                "clique", {"clique_id": live.id_space}, _Deadline(None)
            )

    def test_subscribe_requires_live_store(self, tmp_path):
        build_index([(0, 1)], tmp_path / "frozen")
        with CliqueIndex(tmp_path / "frozen") as frozen:
            engine = CliqueQueryEngine(frozen)
            with pytest.raises(ServiceError):
                engine.subscribe(0, lambda event: None)
            with pytest.raises(ServiceError):
                engine.unsubscribe(1)

    def test_engine_subscription_round_trip(self, live):
        engine = CliqueQueryEngine(live)
        events = []
        token = engine.subscribe(9, events.append)
        live.apply_deltas([add(9, 10)])
        assert [e.kind for e in events] == ["clique_added"]
        assert engine.unsubscribe(token)


class TestServerSubscriptions:
    def test_subscribe_receives_pushed_events(self, live):
        engine = CliqueQueryEngine(live)
        with CliqueQueryServer(engine) as server:
            host, port = server.address
            with CliqueQueryClient(host, port, timeout_seconds=10.0) as client:
                sid = client.subscribe(7)
                live.apply_deltas([add(7, 8)])
                event = client.next_event(timeout=10.0)
                assert event is not None
                assert event["subscription"] == sid
                assert event["event"] == "clique_added"
                assert event["clique"] == [7, 8]
                assert event["vertex"] == 7
                assert event["seq"] == 1

    def test_events_interleaved_with_requests_never_lost(self, live):
        engine = CliqueQueryEngine(live)
        with CliqueQueryServer(engine) as server:
            host, port = server.address
            with CliqueQueryClient(host, port, timeout_seconds=10.0) as client:
                client.subscribe(7)
                live.apply_deltas([add(7, 8)])
                live.apply_deltas([add(7, 9)])
                # Issue queries while events sit in the socket; the client
                # must route them aside, not misparse them as responses.
                for _ in range(3):
                    assert client.stats().result["num_cliques"] >= 3
                got = {tuple(client.next_event(timeout=10.0)["clique"])
                       for _ in range(2)}
                assert got == {(7, 8), (7, 9)}

    def test_unsubscribe_stops_events(self, live):
        engine = CliqueQueryEngine(live)
        with CliqueQueryServer(engine) as server:
            host, port = server.address
            with CliqueQueryClient(host, port, timeout_seconds=10.0) as client:
                sid = client.subscribe(7)
                assert client.unsubscribe(sid)
                assert not client.unsubscribe(sid)  # unknown now
                live.apply_deltas([add(7, 8)])
                assert client.next_event(timeout=0.3) is None
                assert live.subscription_count == 0

    def test_disconnect_cancels_subscriptions(self, live):
        engine = CliqueQueryEngine(live)
        with CliqueQueryServer(engine) as server:
            host, port = server.address
            client = CliqueQueryClient(host, port, timeout_seconds=10.0)
            client.subscribe(7)
            deadline = threading.Event()
            assert live.subscription_count == 1
            client.close()
            for _ in range(500):
                if live.subscription_count == 0:
                    break
                deadline.wait(0.01)
            assert live.subscription_count == 0

    def test_subscribe_rejected_over_frozen_index(self, tmp_path):
        build_index([(0, 1)], tmp_path / "frozen")
        with CliqueIndex(tmp_path / "frozen") as frozen:
            engine = CliqueQueryEngine(frozen)
            with CliqueQueryServer(engine) as server:
                host, port = server.address
                with CliqueQueryClient(host, port, timeout_seconds=10.0) as client:
                    with pytest.raises(ServiceError):
                        client.subscribe(0)
                    # The connection survives the rejected subscribe.
                    assert client.cliques_containing(0).result == [0]


class TestStaleCacheBypassUnderConcurrentUpdates:
    """Satellite (c): hammer the engine from reader threads while a
    writer applies edge events; no answer may come from a cached posting
    whose vertex went stale.

    The writer only ever *adds* cliques containing the probed vertices
    (each fresh partner vertex creates one new maximal clique and
    removes none), so the number of cliques containing a probe vertex
    grows monotonically.  Clique *ids* are renumbered by compaction, so
    the readers assert monotonicity of the answer count — an answer
    served from a stale cached posting after fresher state was written
    would regress the count.  The final answers reconcile exactly with
    ground truth.
    """

    PROBES = (0, 1, 2)
    ROUNDS = 120

    def test_no_stale_cached_answer_served(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live", [(0, 1, 2)])
        engine = CliqueQueryEngine(store)
        triangle = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        maintainer = HStarMaintainer(triangle)
        ingestor = LiveIngestor(maintainer, store)
        stop = threading.Event()
        failures: list[str] = []

        def reader(vertex: int) -> None:
            high_water = 0
            while not stop.is_set():
                result = engine.cliques_containing(vertex)
                ids = result.value
                if len(set(ids)) != len(ids):
                    failures.append(f"vertex {vertex}: duplicate ids {ids}")
                    return
                if len(ids) < high_water:
                    failures.append(
                        f"vertex {vertex}: answer shrank from {high_water} "
                        f"to {len(ids)} cliques — stale cached posting served"
                    )
                    return
                high_water = len(ids)

        threads = [
            threading.Thread(target=reader, args=(vertex,))
            for vertex in self.PROBES for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            # Writer: fresh vertices pair up with the probed ones, so
            # every event adds a clique containing a probe vertex and
            # flips it stale (until compaction folds the tail).
            fresh = 100
            for round_number in range(self.ROUNDS):
                probe = self.PROBES[round_number % len(self.PROBES)]
                ingestor.insert_edge(probe, fresh)
                fresh += 1
                if round_number % 40 == 39:
                    store.compact()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not failures, failures[0]

        # Final reconciliation: engine answers equal ground truth.
        for probe in self.PROBES:
            ids = engine.cliques_containing(probe).value
            answers = sorted(store.clique(cid) for cid in ids)
            truth = sorted(
                tuple(sorted(c))
                for c in set(tomita_maximal_cliques(maintainer.graph))
                if probe in c
            )
            assert answers == truth
        store.close()
