"""Executor tests: pool vs inline equivalence, chunk-count invariance,
fallback, worker chunk events, large results and callback-driven
harvest."""

import os
import pickle
import sys
import threading

import pytest

from repro.core.clique_tree import enumerate_star_cliques
from repro.core.hstar import extract_hstar_graph
from repro.graph.adjacency import AdjacencyGraph
from repro.metrics import counter_value
from repro.parallel.executor import StepExecutor
from repro.parallel.merge import merge_tree_results
from repro.parallel.partition import chunk_tree_tasks, tree_tasks
from repro.parallel.scheduler import ParallelEngine

from tests.helpers import cliques_of, recoveries, seeded_gnp, step_executor


@pytest.fixture
def star():
    return extract_hstar_graph(seeded_gnp(50, 0.18, seed=21))


def _run_tree(executor, star, workers=2, oversubscription=4):
    tasks = tree_tasks(star)
    chunks = chunk_tree_tasks(tasks, oversubscription * workers)
    results = executor.map_tree(chunks)
    return merge_tree_results(tasks, results, star)


class TestPoolVersusInline:
    def test_pool_and_inline_agree_with_serial(self, star):
        expected = cliques_of(enumerate_star_cliques(star))
        with step_executor(1, star) as inline:
            inline_cliques, inline_core = _run_tree(inline, star)
        with step_executor(2, star) as pooled:
            pooled_cliques, pooled_core = _run_tree(pooled, star)
        assert cliques_of(inline_cliques) == expected
        assert inline_cliques == pooled_cliques  # order, not just set
        assert inline_core == pooled_core

    def test_workers_one_never_creates_pool(self, star):
        with step_executor(1, star) as executor:
            assert executor.engine.pool is None
            assert not executor.fell_back

    def test_empty_chunk_list(self, star):
        with step_executor(2, star) as executor:
            assert executor.map_tree([]) == []


class TestFallback:
    def test_dead_pool_is_rebuilt_not_abandoned(self, star, live_metrics):
        expected = cliques_of(enumerate_star_cliques(star))
        with step_executor(2, star) as executor:
            # Simulate the pool dying under the driver: terminate it
            # out-of-band, then ask for work.  Submission fails, the
            # executor rebuilds the pool and completes on it.
            executor.engine.pool.terminate()
            executor.engine.pool.join()
            star_cliques, _ = _run_tree(executor, star)
            assert recoveries(live_metrics)["pool_rebuild"] >= 1
            assert not executor.fell_back
            assert executor.engine.pool is not None
        assert cliques_of(star_cliques) == expected

    def test_pool_creation_failure_falls_back(self, star, monkeypatch):
        import multiprocessing

        def boom(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(multiprocessing, "Pool", boom)
        with step_executor(4, star) as executor:
            assert executor.fell_back
            star_cliques, _ = _run_tree(executor, star)
        assert cliques_of(star_cliques) == cliques_of(enumerate_star_cliques(star))


    def test_a_poolless_step_is_one_recorded_fallback(
        self, star, monkeypatch, live_metrics
    ):
        monkeypatch.setattr(ParallelEngine, "_create_pool", lambda self: None)
        events = []
        with step_executor(
            2, star, on_event=lambda event, **fields: events.append((event, fields))
        ) as executor:
            for _ in range(2):
                star_cliques, _ = _run_tree(executor, star)
                # Chunks that ran in the driver measured no pool.
                assert executor.last_map.recovered
            assert executor.step_fields()["fell_back"]
        assert cliques_of(star_cliques) == cliques_of(enumerate_star_cliques(star))
        degraded = [fields for name, fields in events if name == "executor_degraded"]
        assert degraded == [{"reason": "no worker pool"}]
        assert counter_value(
            live_metrics.snapshot(), "repro_parallel_fallback_steps_total"
        ) == 1


class TestEngineSharing:
    def test_engine_pool_persists_across_steps(self, star):
        expected = cliques_of(enumerate_star_cliques(star))
        with ParallelEngine(2) as engine:
            first_pool = engine.pool
            assert first_pool is not None
            for _ in range(2):  # two "steps" against the same warm pool
                descriptor = engine.publish_star(star)
                with StepExecutor(engine, descriptor) as executor:
                    star_cliques, _ = _run_tree(executor, star)
                assert cliques_of(star_cliques) == expected
                engine.retire_segment()
            assert engine.pool is first_pool

    def test_shm_descriptor_ships_no_graph_payload(self, star, live_metrics):
        with ParallelEngine(2) as engine:
            descriptor = engine.publish_star(star)
            assert "shm" in descriptor, "shm publication should succeed on Linux"
            assert "inband" not in descriptor  # the graph stays out of the pipe
            with StepExecutor(engine, descriptor) as executor:
                star_cliques, _ = _run_tree(executor, star)
                assert executor.step_fields()["shm_bytes"] == descriptor["shm"]["nbytes"]
            snapshot = live_metrics.snapshot()
            assert counter_value(
                snapshot, "repro_parallel_shm_bytes_total"
            ) == descriptor["shm"]["nbytes"] > 0
            # Descriptors were accounted.
            assert counter_value(snapshot, "repro_parallel_payload_bytes_total") > 0
        assert cliques_of(star_cliques) == cliques_of(enumerate_star_cliques(star))


class TestSubmission:
    def test_each_submission_pickles_its_task_once(
        self, star, live_metrics, monkeypatch
    ):
        """The bytes the pool ships are the bytes the payload series
        counts: one ``pickle.dumps`` per submission, none to measure."""
        from repro.parallel import executor as executor_module

        real_dumps = pickle.dumps
        dumped: list[int] = []

        def counting_dumps(obj, *args, **kwargs):
            blob = real_dumps(obj, *args, **kwargs)
            dumped.append(len(blob))
            return blob

        with step_executor(2, star) as executor:
            submissions = []
            real_submit = executor.engine.pool.apply_async

            def counting_submit(*args, **kwargs):
                submissions.append(args)
                return real_submit(*args, **kwargs)

            monkeypatch.setattr(executor.engine.pool, "apply_async", counting_submit)
            monkeypatch.setattr(executor_module.pickle, "dumps", counting_dumps)
            star_cliques, _ = _run_tree(executor, star)
            monkeypatch.undo()
            assert not any(recoveries(live_metrics).values())
        assert len(submissions) == executor.last_map.chunks == 8
        assert len(dumped) == len(submissions)
        assert all(isinstance(args[1][0], bytes) for args in submissions)
        assert counter_value(
            live_metrics.snapshot(), "repro_parallel_payload_bytes_total"
        ) == sum(dumped)
        assert cliques_of(star_cliques) == cliques_of(enumerate_star_cliques(star))


class TestChunkCount:
    @pytest.mark.parametrize("count", [1, 2, None], ids=["one", "two", "per_task"])
    def test_every_chunk_count_merges_to_inline(self, star, count, live_metrics):
        with step_executor(1, star) as inline:
            expected_cliques, expected_core = _run_tree(inline, star)
        count = count or len(tree_tasks(star))
        with ParallelEngine(2) as engine:
            descriptor = engine.publish_star(star)
            with StepExecutor(engine, descriptor) as executor:
                # Chunks = workers × oversubscription; workers=1 here
                # only makes the 2-worker pool run exactly ``count``.
                cliques, core = _run_tree(
                    executor, star, workers=1, oversubscription=count
                )
                assert executor.last_map.chunks == count
                assert not any(recoveries(live_metrics).values())
        assert cliques == expected_cliques
        assert core == expected_core


class TestResultChannel:
    def test_big_result_comes_back_through_the_pipe(self, live_metrics):
        # The cocktail-party graph on 15 vertex pairs has 2**15 maximal
        # cliques of 15 vertices; one unsplit chunk returns all of them.
        pairs = 15
        graph = AdjacencyGraph.from_edges(
            (u, v)
            for u in range(2 * pairs)
            for v in range(u + 1, 2 * pairs)
            if u // 2 != v // 2
        )
        star = extract_hstar_graph(graph)
        tasks = tree_tasks(star)
        chunks = chunk_tree_tasks(tasks, 1)
        assert len(chunks) == 1
        with step_executor(2, star) as executor:
            results = executor.map_tree(chunks)
            assert not executor.fell_back
            assert not any(recoveries(live_metrics).values())
        assert len(results) == 1
        assert len(pickle.dumps(results[0])) > 1 << 20
        star_cliques, _ = merge_tree_results(tasks, results, star)
        assert cliques_of(star_cliques) == cliques_of(enumerate_star_cliques(star))
        assert len(star_cliques) == 2**pairs


class TestWorkerTraces:
    def test_worker_chunk_events_arrive_in_worker_order(self, star):
        events = []
        with step_executor(
            2, star,
            on_event=lambda event, **fields: events.append((event, fields)),
        ) as executor:
            _run_tree(executor, star)
        completed = [f for name, f in events if name == "tree_chunk_completed"]
        by_worker: dict[str, list[int]] = {}
        for fields in completed:
            assert fields["worker"].startswith("worker_")
            by_worker.setdefault(fields["worker"], []).append(fields["chunk_index"])
        assert by_worker, "pool workers should have reported their chunks"
        for indices in by_worker.values():
            # Each worker runs its chunks in queue order, and the driver
            # emits them in the order that worker returned them.
            assert indices == sorted(set(indices))
        tasks = tree_tasks(star)
        assert len(completed) == len(chunk_tree_tasks(tasks, 8))
        assert sum(f["tasks"] for f in completed) == len(tasks)


class TestCallbackHarvest:
    def test_many_chunks_on_more_workers_than_cores_lose_no_wakeup(
        self, star, live_metrics
    ):
        with step_executor(1, star) as inline:
            expected = _run_tree(inline, star)
        workers = (os.cpu_count() or 1) + 2
        outcomes = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with step_executor(workers, star, task_timeout=60.0) as executor:

                def drive():
                    for _ in range(5):
                        outcomes.append(
                            _run_tree(executor, star, workers, oversubscription=16)
                        )

                runner = threading.Thread(target=drive, daemon=True)
                runner.start()
                runner.join(timeout=120)
                assert not runner.is_alive(), "harvest stalled"
                # A lost wakeup would sit out the 60 s deadline and then
                # show up as a timeout and a retry.
                assert not any(recoveries(live_metrics).values())
        finally:
            sys.setswitchinterval(switch)
        assert outcomes == [expected] * 5
