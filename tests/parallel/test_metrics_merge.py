"""Worker metrics ride back in chunk envelopes into the driver registry."""

from __future__ import annotations

import pytest

from repro import DiskGraph, ExtMCEConfig, ParallelExtMCE, metrics
from repro.metrics import counter_value
from tests.helpers import metered, seeded_gnp

pytestmark = pytest.mark.usefixtures("force_fanout")


def _run(tmp_path, workers=2, **config_kwargs):
    """One metered run: (stream, its own metrics snapshot)."""
    graph = seeded_gnp(70, 0.15, seed=6)
    disk = DiskGraph.create(tmp_path / "g.bin", graph)
    config = ExtMCEConfig(workdir=tmp_path / "w", workers=workers, **config_kwargs)
    algo = ParallelExtMCE(disk, config)
    with metered() as registry:
        stream = list(algo.enumerate_cliques())
    return stream, registry.snapshot()


class TestWorkerMetricsMerge:
    def test_worker_side_counters_reach_the_driver_snapshot(self, tmp_path):
        stream, snapshot = _run(tmp_path)
        # Chunk execution happens in worker processes; seeing nonzero
        # chunk totals in the driver's snapshot proves the merge ran.
        chunks = counter_value(snapshot, "repro_parallel_chunks_total")
        assert chunks > 0
        latency = [
            e for e in snapshot["metrics"]
            if e["name"] == "repro_parallel_chunk_seconds"
        ]
        assert sum(e["count"] for e in latency) == chunks
        # Kernel subproblems also ran worker-side.
        assert counter_value(snapshot, "repro_kernel_subproblems_total") > 0
        assert counter_value(snapshot, "repro_parallel_payload_bytes_total") > 0

    def test_driver_totals_match_stream(self, tmp_path):
        stream, snapshot = _run(tmp_path)
        assert counter_value(snapshot, "repro_mce_cliques_emitted_total") == len(stream)

    def test_stale_worker_snapshot_files_are_ignored(self, tmp_path):
        """A killed run can leave per-worker files in a workdir that a
        resumed or repeated run reuses; none of them may reach the totals."""
        stale = metrics.MetricsRegistry()
        stale.counter(
            "repro_parallel_chunks_total", labels={"phase": "tree"}
        ).inc(1000)
        metrics.dump_snapshot(
            stale.snapshot(),
            tmp_path / "w" / "worker_metrics" / "worker_00000001.json",
        )
        _stream, planted = _run(tmp_path)
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        _stream, clean = _run(clean_dir)

        chunks = counter_value(clean, "repro_parallel_chunks_total")
        assert counter_value(planted, "repro_parallel_chunks_total") == chunks > 0
        assert counter_value(planted, "repro_parallel_chunks_total") < 1000

    def test_worker_metrics_dir_cleaned_up(self, tmp_path):
        _run(tmp_path)
        assert not (tmp_path / "w" / "worker_metrics").exists()

    def test_disabled_metrics_leave_no_artifacts(self, tmp_path):
        graph = seeded_gnp(50, 0.15, seed=6)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        config = ExtMCEConfig(workdir=tmp_path / "w", workers=2)
        algo = ParallelExtMCE(disk, config)
        assert not metrics.enabled()
        list(algo.enumerate_cliques())
        assert not metrics.enabled()
        assert not (tmp_path / "w" / "worker_metrics").exists()
        assert not (tmp_path / "metrics.json").exists()

    def test_metrics_survive_chunk_faults(self, tmp_path):
        from repro.faults import FaultPlan, FaultRule

        plan = FaultPlan(
            [FaultRule(operation="chunk", kind="worker_error", probability=1.0,
                       max_firings=2)],
            seed=3,
        )
        stream, snapshot = _run(tmp_path, fault_plan=plan, max_retries=2)
        assert counter_value(snapshot, "repro_mce_cliques_emitted_total") == len(stream)
        assert counter_value(snapshot, "repro_parallel_chunk_errors_total") >= 1
        assert counter_value(snapshot, "repro_parallel_chunk_retries_total") >= 1
