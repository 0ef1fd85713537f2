"""Ingest supervision: worker death, restart through WAL replay, and the
zero-lost-acked-updates guarantee.

The restart contract under test: when the drain thread dies mid-event,
the supervisor resyncs the store from disk (WAL is authoritative),
rebuilds a fresh ingestor over the surviving maintainer graph, and
idempotently re-applies everything the corpse left behind — so after any
single crash the clique set equals the one an uninterrupted run
produces, and no acked event is lost or double-applied.  A worker that
keeps dying exhausts its restart budget, latches ``gave_up``, and the
supervisor reports itself degraded instead of crash-looping forever.
"""

import threading
import time

import pytest

from repro import metrics
from repro.dynamic.maintainer import HStarMaintainer
from repro.errors import StorageError
from repro.live.deltas import CliqueDelta
from repro.live.ingest import LiveIngestor, maintainer_from_store
from repro.live.store import LiveCliqueStore
from repro.live.supervisor import LiveSupervisor, SupervisedIngestor


@pytest.fixture()
def fresh_registry():
    previous = metrics.get_registry()
    registry = metrics.MetricsRegistry()
    metrics.set_registry(registry)
    yield registry
    metrics.set_registry(previous)


#: A small mixed stream whose end state exercises adds and removes.
STREAM = [
    (0, 1, 2), (1, 2, 3), (2, 1, 3),      # triangle {1,2,3}
    (3, 3, 4), (4, 2, 4),                  # grow towards {2,3,4}
    (5, "delete", 1, 2),                   # break the first triangle
    (6, 4, 5), (7, 1, 4),
]


def _reference_cliques(tmp_path, events=STREAM):
    """The clique set an uninterrupted ingest of ``events`` produces."""
    store = LiveCliqueStore.initialize(tmp_path / "reference")
    try:
        LiveIngestor(HStarMaintainer(), store).ingest(events)
        return store.live_cliques()
    finally:
        store.close()


class TestSupervisedIngestor:
    def test_clean_run_acks_everything(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            worker = SupervisedIngestor(LiveIngestor(HStarMaintainer(), store))
            for event in STREAM:
                assert worker.submit(event, timeout=5.0)
            assert worker.wait_idle(30.0)
            assert worker.acked_events == len(STREAM)
            worker.stop()
            assert store.live_cliques() == _reference_cliques(tmp_path)
        finally:
            store.close()

    def test_crash_parks_the_inflight_event(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            boom = {"armed": True}

            def hook(event):
                if boom["armed"] and event[0] == 3:
                    boom["armed"] = False
                    raise RuntimeError("injected worker death")

            worker = SupervisedIngestor(
                LiveIngestor(HStarMaintainer(), store), fail_hook=hook
            )
            for event in STREAM:
                worker.submit(event, timeout=5.0)
            deadline = time.monotonic() + 10.0
            while worker.is_alive() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert not worker.is_alive()
            assert isinstance(worker.last_error, RuntimeError)
            unacked = worker.take_unacked()
            # The event that killed the worker leads the handoff; nothing
            # submitted after it is lost.
            assert unacked[0][0] == 3
            assert worker.acked_events + len(unacked) == len(STREAM)
            # Drained into the handoff, the dead worker must not read idle:
            # the supervisor's wait_idle would return before the restart.
            assert not worker.wait_idle(timeout=0.05)
        finally:
            store.close()


class TestSupervisorRestart:
    def test_single_crash_restart_loses_nothing(self, tmp_path, fresh_registry):
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            boom = {"armed": True}

            def hook(event):
                if boom["armed"] and event[0] == 4:
                    boom["armed"] = False
                    raise RuntimeError("injected worker death")

            supervisor = LiveSupervisor(
                store,
                lambda: LiveIngestor(maintainer_from_store(store), store),
                poll_interval_seconds=0.02,
                backoff_base_seconds=0.01,
                fail_hook=hook,
            ).start()
            try:
                for event in STREAM:
                    assert supervisor.submit(event, timeout=30.0)
                assert supervisor.wait_idle(60.0)
                assert supervisor.restarts["ingest"] == 1
                assert supervisor.acked_events == len(STREAM)
                assert not supervisor.degraded
                assert store.live_cliques() == _reference_cliques(tmp_path)
                store.verify()
                snapshot = fresh_registry.snapshot()
                assert metrics.counter_value(
                    snapshot, "repro_supervisor_worker_deaths_total"
                ) == 1
            finally:
                supervisor.stop()
        finally:
            store.close()

    def test_crash_at_every_point_still_converges(self, tmp_path):
        """Kill the worker at each successive event of the stream; every
        crash position must recover to the same final clique set."""
        reference = _reference_cliques(tmp_path)
        for crash_at in range(len(STREAM)):
            root = tmp_path / f"crash{crash_at}"
            store = LiveCliqueStore.initialize(root / "live")
            try:
                boom = {"armed": True}

                def hook(event, _at=crash_at):
                    if boom["armed"] and event[0] == _at:
                        boom["armed"] = False
                        raise RuntimeError(f"die at {_at}")

                supervisor = LiveSupervisor(
                    store,
                    lambda store=store: LiveIngestor(
                        maintainer_from_store(store), store
                    ),
                    poll_interval_seconds=0.02,
                    backoff_base_seconds=0.01,
                    fail_hook=hook,
                ).start()
                try:
                    for event in STREAM:
                        assert supervisor.submit(event, timeout=30.0)
                    assert supervisor.wait_idle(60.0)
                    assert supervisor.acked_events == len(STREAM)
                    assert store.live_cliques() == reference, (
                        f"crash at event {crash_at} diverged"
                    )
                finally:
                    supervisor.stop()
            finally:
                store.close()

    def test_crash_loop_exhausts_budget_and_latches_degraded(
        self, tmp_path, fresh_registry
    ):
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            calls = {"n": 0}

            def factory():
                # The first call builds the initial worker; every restart
                # attempt after the crash fails — the persistent-failure
                # mode that must end in gave_up, not an infinite loop.
                calls["n"] += 1
                if calls["n"] == 1:
                    return LiveIngestor(maintainer_from_store(store), store)
                raise RuntimeError("restart always fails")

            def hook(event):
                raise RuntimeError("worker dies")

            supervisor = LiveSupervisor(
                store,
                factory,
                poll_interval_seconds=0.01,
                backoff_base_seconds=0.001,
                backoff_max_seconds=0.01,
                max_consecutive_failures=3,
                fail_hook=hook,
            ).start()
            try:
                supervisor.submit((0, 1, 2), timeout=5.0)
                deadline = time.monotonic() + 30.0
                while "ingest" not in supervisor.gave_up:
                    assert time.monotonic() < deadline, "never gave up"
                    time.sleep(0.01)
                assert supervisor.degraded
                assert supervisor.restarts["ingest"] == 0
                payload = supervisor.to_payload()
                assert payload["degraded"] is True
                assert "ingest" in payload["gave_up"]
                assert metrics.counter_value(
                    fresh_registry.snapshot(), "repro_supervisor_gave_up_total"
                ) == 1
                # Once abandoned there is no replacement to wait for:
                # submit and wait_idle fail fast instead of stalling the
                # producer for their full timeout.
                started = time.monotonic()
                assert supervisor.submit((1, 3, 4), timeout=30.0) is False
                assert supervisor.wait_idle(timeout=30.0) is False
                assert time.monotonic() - started < 2.0
            finally:
                supervisor.stop()
        finally:
            store.close()

    def test_poison_event_is_dropped_not_fatal(self, tmp_path, fresh_registry):
        """A self-loop event kills the worker, and the restart's re-apply
        raises the same GraphError deterministically.  The supervisor
        must drop the poison event (metered, never acked) and keep the
        pipeline alive for the rest of the stream — not crash-loop into
        gave_up over an event that can never succeed."""
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            supervisor = LiveSupervisor(
                store,
                lambda: LiveIngestor(maintainer_from_store(store), store),
                poll_interval_seconds=0.02,
                backoff_base_seconds=0.01,
            ).start()
            poison = (2, "insert", 7, 7)
            stream = [(0, 1, 2), (1, 2, 3), poison, (3, 3, 4), (4, 1, 3)]
            try:
                for event in stream:
                    assert supervisor.submit(event, timeout=30.0)
                assert supervisor.wait_idle(60.0)
                assert supervisor.dropped_events == 1
                assert supervisor.restarts["ingest"] >= 1
                assert supervisor.acked_events == len(stream) - 1
                assert not supervisor.degraded
                assert "ingest" not in supervisor.gave_up
                assert supervisor.to_payload()["dropped_events"] == 1
                assert metrics.counter_value(
                    fresh_registry.snapshot(),
                    "repro_supervisor_dropped_events_total",
                ) == 1
                store.verify()
                # Every non-poison event landed.
                vertices = {v for c in store.live_cliques() for v in c}
                assert {1, 2, 3, 4} <= vertices and 7 not in vertices
            finally:
                supervisor.stop()
        finally:
            store.close()

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_compactor_is_restarted(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            store.start_compactor(tail_threshold=4)
            supervisor = LiveSupervisor(
                store,
                poll_interval_seconds=0.02,
                backoff_base_seconds=0.01,
                compactor_tail_threshold=4,
            ).start()
            try:
                # Kill the compactor thread: SystemExit passes through
                # the worker's ``except Exception`` and ends it.
                original = store.compact

                def lethal(*a, **kw):
                    store.compact = original
                    raise SystemExit("injected compactor death")

                store.compact = lethal
                for n in range(6):
                    store.apply_deltas([CliqueDelta("add", (n, n + 100))])
                deadline = time.monotonic() + 30.0
                while supervisor.restarts["compactor"] < 1:
                    assert time.monotonic() < deadline, "compactor never restarted"
                    time.sleep(0.01)
                # The replacement compactor eventually folds the tail.
                deadline = time.monotonic() + 30.0
                while store.tail_length >= 4:
                    assert time.monotonic() < deadline, "replacement never compacted"
                    time.sleep(0.01)
                assert not supervisor.degraded
            finally:
                supervisor.stop()
        finally:
            store.close()

    def test_submit_blocks_through_a_restart_window(self, tmp_path):
        """Events submitted while the worker is a corpse are not dropped;
        they wait for the replacement."""
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            gate = threading.Event()

            def hook(event):
                if event[0] == 0 and not gate.is_set():
                    gate.set()
                    raise RuntimeError("die on first event")

            supervisor = LiveSupervisor(
                store,
                lambda: LiveIngestor(maintainer_from_store(store), store),
                poll_interval_seconds=0.02,
                backoff_base_seconds=0.2,  # a visible restart window
                fail_hook=hook,
            ).start()
            try:
                supervisor.submit((0, 1, 2), timeout=5.0)
                gate.wait(5.0)
                # The corpse may not be harvested yet; submit must ride
                # through the window regardless.
                assert supervisor.submit((1, 2, 3), timeout=30.0)
                assert supervisor.wait_idle(60.0)
                assert store.live_cliques() == {(1, 2), (2, 3)}
            finally:
                supervisor.stop()
        finally:
            store.close()


class TestResyncAndIdempotence:
    def test_resync_reloads_exactly_the_durable_state(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            LiveIngestor(HStarMaintainer(), store).ingest(STREAM)
            before = store.live_cliques()
            tail = store.resync()
            assert store.live_cliques() == before
            assert tail == store.tail_length
            store.verify()
        finally:
            store.close()

    def test_idempotent_apply_filters_already_live(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            delta = CliqueDelta("add", (1, 2, 3))
            assert len(store.apply_deltas([delta])) == 1
            # A strict re-apply is a stale-delta error...
            with pytest.raises(StorageError):
                store.apply_deltas([CliqueDelta("add", (1, 2, 3))])
            # ...an idempotent one is a filtered no-op.
            assert store.apply_deltas(
                [CliqueDelta("add", (1, 2, 3))], idempotent=True
            ) == []
            assert store.apply_deltas(
                [CliqueDelta("remove", (9, 10))], idempotent=True
            ) == []
            # Intra-batch: add-then-remove of a fresh clique both land.
            stamped = store.apply_deltas(
                [CliqueDelta("add", (4, 5)), CliqueDelta("remove", (4, 5))],
                idempotent=True,
            )
            assert [d.kind for d in stamped] == ["add", "remove"]
            assert store.live_cliques() == {(1, 2, 3)}
        finally:
            store.close()

    def test_reapply_converges_a_half_applied_insert(self, tmp_path):
        """The crash window: graph mutated, store deltas never logged."""
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            maintainer = HStarMaintainer()
            ingestor = LiveIngestor(maintainer, store)
            ingestor.ingest([(0, 1, 2), (1, 2, 3)])
            # Simulate the torn state: the edge lands in the adjacency
            # without the update hook ever firing.
            graph = maintainer.graph
            graph.add_edge(1, 3)
            assert store.live_cliques() == {(1, 2), (2, 3)}  # store lags
            ingestor.reapply_event((2, "insert", 1, 3))
            assert store.live_cliques() == {(1, 2, 3)}
            # Re-delivering the same event again changes nothing.
            ingestor.reapply_event((2, "insert", 1, 3))
            assert store.live_cliques() == {(1, 2, 3)}
        finally:
            store.close()

    def test_reapply_of_a_fully_applied_event_is_a_noop(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live")
        try:
            ingestor = LiveIngestor(HStarMaintainer(), store)
            ingestor.ingest([(0, 1, 2), (1, 2, 3), (2, 1, 3)])
            before = store.live_cliques()
            ingestor.reapply_event((2, 1, 3))
            ingestor.reapply_event((1, "insert", 2, 3))
            assert store.live_cliques() == before
        finally:
            store.close()
