"""CliqueQueryEngine: direct reads, staleness, timeouts, degradation."""

import pytest

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.errors import GraphError, QueryTimeoutError, ServiceError
from repro.faults import FaultPlan, FaultRule
from repro.index import CliqueIndex, build_index
from repro.live import LiveCliqueStore
from repro.live.deltas import ADD, CliqueDelta
from repro.service import CliqueQueryEngine

from tests.helpers import seeded_gnp


@pytest.fixture()
def fresh_registry():
    previous = metrics.get_registry()
    registry = metrics.MetricsRegistry()
    metrics.set_registry(registry)
    yield registry
    metrics.set_registry(previous)


def _build(tmp_path, seed=3):
    graph = seeded_gnp(30, 0.3, seed=seed)
    cliques = sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))
    build_index(cliques, tmp_path / "idx")
    return cliques


class TestBasicQueries:
    def test_all_operations_answer(self, tmp_path):
        cliques = _build(tmp_path)
        with CliqueIndex(tmp_path / "idx") as index:
            engine = CliqueQueryEngine(index)
            assert engine.cliques_containing(0).value == list(
                index.cliques_containing(0)
            )
            assert engine.clique(0).value == list(cliques[0])
            assert engine.membership(cliques[0]).value == [0]
            assert engine.top_k_largest(2).value == [
                list(c) for c in index.top_k_largest(2)
            ]
            assert engine.stats().value["num_cliques"] == len(cliques)

    def test_unknown_operation_rejected(self, tmp_path):
        _build(tmp_path)
        with CliqueIndex(tmp_path / "idx") as index:
            engine = CliqueQueryEngine(index)
            with pytest.raises(ServiceError, match="unknown operation"):
                engine.query("drop_tables")

    def test_bad_arguments_raise_not_degrade(self, tmp_path):
        _build(tmp_path)
        with CliqueIndex(tmp_path / "idx") as index:
            engine = CliqueQueryEngine(index)
            with pytest.raises(GraphError):
                engine.cliques_containing_edge(4, 4)
            with pytest.raises(GraphError):
                engine.membership([])
            with pytest.raises(GraphError):
                engine.top_k_largest(0)


class TestDirectReads:
    def test_every_lookup_reads_the_store_and_tracks_its_generation(
        self, tmp_path
    ):
        store = LiveCliqueStore.initialize(
            tmp_path / "live", [(0, 1, 2), (2, 3), (4, 5)]
        )
        try:
            engine = CliqueQueryEngine(store)
            calls = []
            original = store.postings

            def counting_postings(vertex):
                calls.append(vertex)
                return original(vertex)

            store.postings = counting_postings
            for _ in range(5):
                engine.cliques_containing(2)
            # No second cache: each answer is one read of the index.
            assert calls == [2] * 5

            store.apply_deltas([CliqueDelta(ADD, (2, 9))])
            store.compact()
            assert engine.cliques_containing(2).value == list(original(2))
            store.apply_deltas([CliqueDelta(ADD, (2, 10))])
            store.resync()
            assert engine.cliques_containing(2).value == list(original(2))
            assert sorted(store.clique(cid) for cid in original(2)) == [
                (0, 1, 2), (2, 3), (2, 9), (2, 10)
            ]
        finally:
            store.close()

    def test_overlaid_vertices_answer_stale(self, tmp_path, fresh_registry):
        store = LiveCliqueStore.initialize(
            tmp_path / "live", [(0, 1, 2), (2, 3), (4, 5)]
        )
        try:
            engine = CliqueQueryEngine(store)
            assert not engine.cliques_containing(1).stale
            store.apply_deltas([CliqueDelta(ADD, (1, 9))])
            # Vertex 1 is now delta-overlaid: every answer for it says so.
            assert engine.cliques_containing(1).stale
            assert engine.cliques_containing(1).stale
        finally:
            store.close()
        snapshot = fresh_registry.snapshot()
        assert metrics.counter_value(snapshot, "repro_service_stale_answers_total") == 2


class TestTimeouts:
    def test_expired_deadline_raises(self, tmp_path, fresh_registry):
        _build(tmp_path)
        with CliqueIndex(tmp_path / "idx") as index:
            engine = CliqueQueryEngine(index)
            with pytest.raises(QueryTimeoutError):
                engine.query("cliques_containing", v=1, timeout_seconds=1e-9)
        snapshot = fresh_registry.snapshot()
        assert metrics.counter_value(snapshot, "repro_service_timeouts_total") >= 1

    def test_engine_default_timeout_applies(self, tmp_path):
        _build(tmp_path)
        with CliqueIndex(tmp_path / "idx") as index:
            engine = CliqueQueryEngine(index, timeout_seconds=1e-9)
            with pytest.raises(QueryTimeoutError):
                engine.cliques_containing(1)
            # A per-query override can relax the default.
            result = engine.query("cliques_containing", v=1, timeout_seconds=30.0)
            assert not result.degraded


class TestDegradation:
    def test_fault_on_postings_read_degrades_with_correct_answer(
        self, tmp_path, fresh_registry
    ):
        cliques = _build(tmp_path)
        plan = FaultPlan(
            [FaultRule(operation="pool_read", kind="io_error",
                       path_contains="postings.dat")],
            seed=5,
        )
        with CliqueIndex(tmp_path / "idx", fault_plan=plan) as index:
            engine = CliqueQueryEngine(index)
            result = engine.cliques_containing(3)
            assert result.degraded
            expected = [cid for cid, c in enumerate(cliques) if 3 in c]
            assert result.value == expected
        snapshot = fresh_registry.snapshot()
        assert metrics.counter_value(snapshot, "repro_service_degraded_total") == 1

    def test_corrupt_page_degrades_with_correct_answer(self, tmp_path):
        cliques = _build(tmp_path)
        plan = FaultPlan(
            [FaultRule(operation="pool_read", kind="corrupt",
                       path_contains="postings.dat")],
            seed=5,
        )
        with CliqueIndex(tmp_path / "idx", fault_plan=plan) as index:
            engine = CliqueQueryEngine(index)
            result = engine.cliques_containing(3)
            expected = [cid for cid, c in enumerate(cliques) if 3 in c]
            assert result.value == expected

    def test_every_operation_survives_a_postings_fault(self, tmp_path):
        cliques = _build(tmp_path)
        for op, args in [
            ("cliques_containing", {"v": 2}),
            ("cliques_containing_edge", {"u": cliques[0][0], "v": cliques[0][1]}),
            ("membership", {"vertices": list(cliques[0])}),
        ]:
            plan = FaultPlan(
                [FaultRule(operation="pool_read", kind="io_error",
                           path_contains="postings.dat")],
                seed=5,
            )
            with CliqueIndex(tmp_path / "idx", fault_plan=plan) as index:
                engine = CliqueQueryEngine(index)
                degraded = engine.query(op, **args)
                assert degraded.degraded
            with CliqueIndex(tmp_path / "idx") as clean_index:
                clean = CliqueQueryEngine(clean_index).query(op, **args)
                assert degraded.value == clean.value
