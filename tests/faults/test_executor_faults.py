"""StepExecutor failure paths: retry, pool rebuild, inline degradation.

A dead worker mid-map, a chunk timeout, and an unpicklable payload each
exercise retry-then-degrade at *chunk* granularity, with matching counts
in the ``repro_parallel_*`` recovery series and events through
``on_event``.
"""

from types import SimpleNamespace

import pytest

from repro import metrics
from repro.core.clique_tree import enumerate_star_cliques
from repro.core.hstar import extract_hstar_graph
from repro.faults import FaultPlan, FaultRule
from repro.parallel.executor import StepExecutor
from repro.parallel.merge import merge_tree_results
from repro.parallel.partition import chunk_tree_tasks, tree_tasks

from tests.helpers import cliques_of, recoveries, seeded_gnp, step_executor

pytestmark = pytest.mark.usefixtures("live_metrics")


@pytest.fixture
def star():
    return extract_hstar_graph(seeded_gnp(40, 0.2, seed=17))


@pytest.fixture
def events():
    log = []

    def on_event(event, **fields):
        log.append((event, fields))

    on_event.log = log
    return on_event


def recovery_events(log):
    """Every event but the per-chunk completion reports."""
    return [name for name, _ in log if not name.endswith("_chunk_completed")]


def run_tree(executor, star):
    tasks = tree_tasks(star)
    chunks = chunk_tree_tasks(tasks, 4)
    return merge_tree_results(tasks, executor.map_tree(chunks), star)


def expected_cliques(star):
    return cliques_of(enumerate_star_cliques(star))


def counts():
    """The recovery series of the test's live registry."""
    return SimpleNamespace(**recoveries(metrics.get_registry()))


class TestWorkerError:
    def test_transient_error_is_retried_on_the_pool(self, star, events):
        plan = FaultPlan([FaultRule("chunk", "worker_error")])
        with step_executor(
            2, star, fault_plan=plan, on_event=events
        ) as executor:
            star_cliques, _ = run_tree(executor, star)
            assert counts().chunk_error == 1
            assert counts().chunk_retry == 1
            assert counts().chunk_inline_fallback == 0
            assert counts().pool_rebuild == 0
            assert not executor.fell_back
            assert executor.last_map.recovered
        assert cliques_of(star_cliques) == expected_cliques(star)
        names = [name for name, _ in events.log]
        assert "chunk_error" in names and "chunk_retry" in names

    def test_persistent_error_degrades_only_that_chunk(self, star, events):
        # Every pool submission fails; every chunk exhausts its retries
        # and is recomputed inline.  The executor itself never fell back
        # wholesale — the pool stayed healthy throughout.
        plan = FaultPlan([FaultRule("chunk", "worker_error", max_firings=None)])
        with step_executor(
            2, star, fault_plan=plan, on_event=events,
            max_retries=1,
        ) as executor:
            star_cliques, _ = run_tree(executor, star)
            num_chunks = len(chunk_tree_tasks(tree_tasks(star), 4))
            assert counts().chunk_inline_fallback == num_chunks
            assert counts().chunk_retry == num_chunks  # one retry each
            assert not executor.fell_back
        assert cliques_of(star_cliques) == expected_cliques(star)
        assert any(name == "chunk_inline_fallback" for name, _ in events.log)


class TestWorkerDeath:
    def test_killed_worker_rebuilds_pool_not_whole_step(self, star, events):
        plan = FaultPlan([FaultRule("chunk", "worker_kill")])
        with step_executor(
            2, star, task_timeout=3.0,
            fault_plan=plan, on_event=events,
        ) as executor:
            star_cliques, _ = run_tree(executor, star)
            assert counts().chunk_timeout >= 1
            assert counts().pool_rebuild >= 1
            # Per-chunk recovery: nothing was recomputed inline — the
            # lost chunk went back to a (rebuilt) pool.
            assert counts().chunk_inline_fallback == 0
            assert not executor.fell_back
        assert cliques_of(star_cliques) == expected_cliques(star)
        names = [name for name, _ in events.log]
        assert "chunk_timeout" in names and "pool_rebuild" in names


class TestChunkTimeout:
    def test_stalled_chunk_times_out_and_retry_succeeds(self, star, events):
        plan = FaultPlan(
            [FaultRule("chunk", "timeout", latency_seconds=30.0)]
        )
        with step_executor(
            2, star, task_timeout=1.0,
            fault_plan=plan, on_event=events,
        ) as executor:
            star_cliques, _ = run_tree(executor, star)
            assert counts().chunk_timeout == 1
            assert counts().chunk_retry == 1
            assert counts().pool_rebuild >= 1
            assert counts().chunk_inline_fallback == 0
        assert cliques_of(star_cliques) == expected_cliques(star)


class TestPoisonPayload:
    def test_unpicklable_chunk_degrades_inline(self, star, events):
        plan = FaultPlan([FaultRule("chunk", "poison", max_firings=None)])
        with step_executor(
            2, star, fault_plan=plan, on_event=events,
            max_retries=1,
        ) as executor:
            star_cliques, _ = run_tree(executor, star)
            assert counts().chunk_error >= 1
            assert counts().chunk_inline_fallback >= 1
            assert not executor.fell_back
        assert cliques_of(star_cliques) == expected_cliques(star)
        errors = [f for name, f in events.log if name == "chunk_error"]
        assert errors and all("chunk_index" in f for f in errors)


class TestShmFaults:
    """The "shm" site: attach failures and stale segments are chunk errors."""

    def _run_on_shm(self, star, plan, events):
        from repro.parallel.scheduler import ParallelEngine

        with ParallelEngine(2) as engine:
            descriptor = engine.publish_star(star)
            assert "shm" in descriptor, "shm publication should succeed on Linux"
            with StepExecutor(
                engine, descriptor, fault_plan=plan, on_event=events
            ) as executor:
                star_cliques, _ = run_tree(executor, star)
                stats = counts()
                fell_back = executor.fell_back
        return star_cliques, stats, fell_back

    def test_attach_failure_is_retried(self, star, events):
        plan = FaultPlan([FaultRule("shm", "attach_fail")])
        star_cliques, stats, fell_back = self._run_on_shm(star, plan, events)
        assert stats.chunk_error == 1
        assert stats.chunk_retry == 1
        assert stats.chunk_inline_fallback == 0
        assert not fell_back
        assert cliques_of(star_cliques) == expected_cliques(star)
        names = [name for name, _ in events.log]
        assert "chunk_error" in names and "chunk_retry" in names

    def test_stale_segment_is_retried(self, star, events):
        plan = FaultPlan([FaultRule("shm", "stale_segment")])
        star_cliques, stats, fell_back = self._run_on_shm(star, plan, events)
        assert stats.chunk_error == 1
        assert stats.chunk_retry == 1
        assert not fell_back
        assert cliques_of(star_cliques) == expected_cliques(star)

    def test_shm_faults_never_fire_on_inband_payloads(self, star, events):
        plan = FaultPlan([FaultRule("shm", "attach_fail", max_firings=None)])
        with step_executor(
            2, star, fault_plan=plan, on_event=events
        ) as executor:
            star_cliques, _ = run_tree(executor, star)
            assert not any(vars(counts()).values())
        assert cliques_of(star_cliques) == expected_cliques(star)
        assert recovery_events(events.log) == []


class TestTelemetryShape:
    def test_no_faults_no_events(self, star, events):
        with step_executor(
            2, star, on_event=events
        ) as executor:
            run_tree(executor, star)
            assert not any(vars(counts()).values())
            assert not executor.last_map.recovered
        assert recovery_events(events.log) == []
        # The only events are one completion report per executed chunk.
        completed = [f for name, f in events.log if name == "tree_chunk_completed"]
        assert len(completed) == len(events.log)
        assert len(completed) == len(chunk_tree_tasks(tree_tasks(star), 4))
        assert all(f["worker"].startswith("worker_") for f in completed)

    def test_inline_fallback_reports_its_chunk(self, star, events):
        plan = FaultPlan([FaultRule("chunk", "worker_error", max_firings=None)])
        with step_executor(
            2, star, fault_plan=plan, on_event=events,
            max_retries=0,
        ) as executor:
            run_tree(executor, star)
        names = [name for name, _ in events.log]
        completed = [f for name, f in events.log if name == "tree_chunk_completed"]
        assert completed and all(f["worker"] == "inline" for f in completed)
        assert len(completed) == names.count("chunk_inline_fallback")
        # No worker-side failure event: the driver's chunk_error is the one.
        assert names.count("chunk_error") == len(completed)
        assert not any(name.endswith("_chunk_failed") for name in names)
