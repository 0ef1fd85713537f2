"""End-to-end fault contract for (Parallel)ExtMCE.

The guarantee under every injected schedule: the run either completes
with a clique stream identical to the fault-free run, or raises a typed
:class:`~repro.errors.ReproError` leaving a resumable checkpoint whose
resume produces the exact remaining stream — never silent wrong output.
"""

import contextlib

import pytest

from repro.core.checkpoint import CHECKPOINT_FILENAME, read_checkpoint
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultRule
from repro.metrics import counter_value
from repro.parallel import ParallelExtMCE
from repro.storage.diskgraph import DiskGraph

from tests.helpers import forced_fanout, metered, seeded_gnp

SEED = 3


@pytest.fixture
def graph():
    # Big enough for several recursion steps (same shape the checkpoint
    # suite uses), so mid-run faults land after a checkpoint exists.
    return seeded_gnp(80, 0.2, seed=5)


def baseline_stream(graph, tmp_path, workers=1):
    disk = DiskGraph.create(tmp_path / "baseline.bin", graph)
    work = tmp_path / "baseline_work"
    config = ExtMCEConfig(workdir=work, seed=SEED, workers=workers)
    driver = ParallelExtMCE if workers > 1 else ExtMCE
    return list(driver(disk, config, memory=None).enumerate_cliques())


def faulted_run(graph, tmp_path, *, storage_plan=None, executor_plan=None,
                workers=1, task_timeout=None, max_retries=2):
    """Run with faults armed and metered; return (emitted, error, workdir,
    metrics snapshot)."""
    disk = DiskGraph.create(tmp_path / "input.bin", graph, fault_plan=storage_plan)
    work = tmp_path / "work"
    config = ExtMCEConfig(
        workdir=work, seed=SEED, checkpoint=True, workers=workers,
        max_retries=max_retries, fault_plan=executor_plan,
    )
    driver = ParallelExtMCE if workers > 1 else ExtMCE
    algo = driver(disk, config, memory=None)
    if task_timeout is not None:
        algo.task_timeout_seconds = task_timeout
    emitted = []
    error = None
    with metered() as registry:
        try:
            for clique in algo.enumerate_cliques():
                emitted.append(clique)
        except ReproError as exc:
            error = exc
    return emitted, error, work, registry.snapshot()


def resume_and_splice(emitted, work):
    """The documented consumer protocol: truncate, resume, concatenate."""
    state = read_checkpoint(work)
    kept = emitted[: state.cliques_emitted]
    resumed = ExtMCE.resume(work)
    return kept + list(resumed.enumerate_cliques())


@pytest.mark.usefixtures("force_fanout")
class TestExecutorFaultsEndToEnd:
    def test_transient_worker_error_stream_identical(self, graph, tmp_path):
        expected = baseline_stream(graph, tmp_path, workers=2)
        plan = FaultPlan([FaultRule("chunk", "worker_error")])
        emitted, error, _, snapshot = faulted_run(
            graph, tmp_path, executor_plan=plan, workers=2
        )
        assert error is None
        assert emitted == expected  # order included
        assert counter_value(snapshot, "repro_parallel_chunk_retries_total") >= 1
        assert counter_value(snapshot, "repro_parallel_fallback_steps_total") == 0
        assert counter_value(snapshot, "repro_parallel_chunks_total") > 0

    def test_chunk_timeout_stream_identical(self, graph, tmp_path):
        expected = baseline_stream(graph, tmp_path, workers=2)
        plan = FaultPlan([FaultRule("chunk", "timeout", latency_seconds=30.0)])
        emitted, error, _, snapshot = faulted_run(
            graph, tmp_path, executor_plan=plan, workers=2, task_timeout=2.0
        )
        assert error is None
        assert emitted == expected
        assert counter_value(snapshot, "repro_parallel_chunk_timeouts_total") >= 1
        assert counter_value(snapshot, "repro_parallel_pool_rebuilds_total") >= 1
        assert counter_value(snapshot, "repro_parallel_chunks_total") > 0

    def test_poisoned_chunks_stream_identical(self, graph, tmp_path):
        expected = baseline_stream(graph, tmp_path, workers=2)
        plan = FaultPlan([FaultRule("chunk", "poison", max_firings=3)])
        emitted, error, _, snapshot = faulted_run(
            graph, tmp_path, executor_plan=plan, workers=2, max_retries=0
        )
        assert error is None
        assert emitted == expected
        assert counter_value(snapshot, "repro_parallel_inline_chunks_total") >= 1
        assert counter_value(snapshot, "repro_parallel_chunks_total") > 0


class TestStorageFaultsEndToEnd:
    def test_corrupt_residual_scan_fails_typed_then_resumes(self, graph, tmp_path):
        expected = baseline_stream(graph, tmp_path)
        # Damage a scan of the step-1 residual: fires mid-step-2, after
        # the step-1 checkpoint is durable.
        plan = FaultPlan(
            [FaultRule("scan", "corrupt", path_contains="residual_0001")], seed=9
        )
        emitted, error, work, _ = faulted_run(graph, tmp_path, storage_plan=plan)
        if error is None:
            # The flipped byte landed in the header region the scan skips;
            # the contract still holds: the stream must be exact.
            assert emitted == expected
            return
        assert isinstance(error, ReproError)
        assert (work / CHECKPOINT_FILENAME).exists()
        assert resume_and_splice(emitted, work) == expected

    def test_partition_write_error_resumes_to_identical_stream(self, graph, tmp_path):
        expected = baseline_stream(graph, tmp_path)
        plan = FaultPlan(
            [FaultRule("write", "io_error", path_contains="partitions_0002")]
        )
        emitted, error, work, _ = faulted_run(graph, tmp_path, storage_plan=plan)
        assert error is not None
        assert (work / CHECKPOINT_FILENAME).exists()
        assert resume_and_splice(emitted, work) == expected

    def test_torn_residual_write_resumes_to_identical_stream(self, graph, tmp_path):
        expected = baseline_stream(graph, tmp_path)
        plan = FaultPlan(
            [FaultRule("write", "torn_write", path_contains="residual_0002")],
            seed=2,
        )
        emitted, error, work, _ = faulted_run(graph, tmp_path, storage_plan=plan)
        assert error is not None
        assert (work / CHECKPOINT_FILENAME).exists()
        # The interrupted step re-runs in full (including the torn
        # residual write, which now succeeds: the rule disarmed).
        assert resume_and_splice(emitted, work) == expected

    @pytest.mark.parametrize("fanout", [False, True], ids=["model", "fanout"])
    def test_two_worker_crash_resumes_to_identical_stream(
        self, graph, tmp_path, fanout
    ):
        """The crash → checkpoint → resume oracle at ``workers=2``, with
        the cost model's choice and with every phase on the pool."""
        expected = baseline_stream(graph, tmp_path)
        plan = FaultPlan(
            [FaultRule("write", "torn_write", path_contains="residual_0002")],
            seed=2,
        )
        with forced_fanout() if fanout else contextlib.nullcontext():
            emitted, error, work, snapshot = faulted_run(
                graph, tmp_path, storage_plan=plan, workers=2
            )
        assert error is not None
        assert (work / CHECKPOINT_FILENAME).exists()
        if fanout:
            assert counter_value(snapshot, "repro_parallel_chunks_total") > 0
        assert resume_and_splice(emitted, work) == expected

    def test_latency_only_schedule_is_harmless(self, graph, tmp_path):
        expected = baseline_stream(graph, tmp_path)
        plan = FaultPlan(
            [FaultRule("scan", "latency", latency_seconds=0.001,
                       max_firings=5)]
        )
        emitted, error, _, _ = faulted_run(graph, tmp_path, storage_plan=plan)
        assert error is None
        assert emitted == expected
        assert len(plan.firings) == 5
