"""Parallel telemetry: worker chunk events land in the one driver trace.

Workers write no trace files.  Each chunk's result envelope carries its
completion event, and the step executor emits it into the driver's trace
(with a ``worker`` label) when it harvests the chunk.
"""

import json

import pytest

from repro import DiskGraph, ExtMCEConfig, ParallelExtMCE, load_trace
from repro.faults import FaultPlan, FaultRule
from repro.metrics import counter_value

from tests.helpers import RECOVERY_SERIES, seeded_gnp

CHUNK_EVENTS = ("tree_chunk_completed", "lift_chunk_completed")

pytestmark = pytest.mark.usefixtures("force_fanout")


def _traced_run(tmp_path, **config_kwargs):
    graph = seeded_gnp(60, 0.15, seed=5)
    disk = DiskGraph.create(tmp_path / "g.bin", graph)
    trace = tmp_path / "run.jsonl"
    algo = ParallelExtMCE(
        disk,
        ExtMCEConfig(
            workdir=tmp_path / "w", workers=2, trace_path=trace, **config_kwargs
        ),
    )
    return algo, trace


class TestDriverTraceIntegration:
    def test_parallel_run_produces_single_coherent_trace(self, tmp_path):
        algo, trace = _traced_run(tmp_path)
        list(algo.enumerate_cliques())
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {e["event"] for e in events}
        assert "run_started" in kinds and "run_completed" in kinds
        assert "parallel_step_completed" in kinds
        # Worker events reached the driver's trace, which still has one
        # strictly monotone seq counter.
        assert any("worker" in e for e in events)
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(len(seqs)))
        assert not (tmp_path / "w" / "worker_traces").exists()

    def test_traced_metered_run_creates_no_worker_telemetry_files(
        self, tmp_path, live_metrics
    ):
        algo, _trace = _traced_run(tmp_path)
        workdir = tmp_path / "w"
        seen: set[str] = set()
        for _clique in algo.enumerate_cliques():
            # Checked while the run is live, not only after its cleanup.
            seen.update(path.name for path in workdir.iterdir() if path.is_dir())
        assert "worker_traces" not in seen
        assert "worker_metrics" not in seen
        assert not list(workdir.rglob("worker_*.json*"))

    def test_chunk_events_precede_their_step_completion(self, tmp_path, live_metrics):
        algo, trace = _traced_run(tmp_path)
        list(algo.enumerate_cliques())
        events = load_trace(trace)
        window: list[dict] = []
        steps = 0
        for event in events:
            if event["event"] != "parallel_step_completed":
                window.append(event)
                continue
            steps += 1
            names = [e["event"] for e in window]
            # The base driver's step_completed closes the step's own work;
            # every chunk of the step was harvested before it.
            closing = names.index("step_completed")
            assert window[closing]["step"] == event["step"]
            assert not any(name in CHUNK_EVENTS for name in names[closing:])
            window = []
        assert steps >= 1
        assert not any(e["event"] in CHUNK_EVENTS for e in window)
        # One event per harvested chunk, and one count per event.
        chunk_events = [e for e in events if e["event"] in CHUNK_EVENTS]
        assert chunk_events
        assert all(e["worker"].startswith("worker_") for e in chunk_events)
        snapshot = live_metrics.snapshot()
        assert counter_value(snapshot, "repro_parallel_chunks_total") == len(
            chunk_events
        )

    def test_inline_chunk_events_reach_the_trace(self, tmp_path, live_metrics):
        plan = FaultPlan(
            [FaultRule(operation="chunk", kind="worker_error", max_firings=None)],
            seed=3,
        )
        algo, trace = _traced_run(tmp_path, fault_plan=plan, max_retries=1)
        list(algo.enumerate_cliques())
        events = load_trace(trace)
        fallbacks = [e for e in events if e["event"] == "chunk_inline_fallback"]
        inline = [
            e for e in events
            if e["event"] in CHUNK_EVENTS and e["worker"] == "inline"
        ]
        assert fallbacks
        assert len(inline) == len(fallbacks)
        assert not any(e["event"].endswith("_chunk_failed") for e in events)
        snapshot = live_metrics.snapshot()
        assert counter_value(snapshot, "repro_parallel_chunks_total") == len(inline)

    def test_recovery_events_and_their_series_agree(self, tmp_path, live_metrics):
        plan = FaultPlan(
            [FaultRule(operation="chunk", kind="worker_error", max_firings=3)],
            seed=7,
        )
        algo, trace = _traced_run(tmp_path, fault_plan=plan, max_retries=1)
        list(algo.enumerate_cliques())
        events = load_trace(trace)
        snapshot = live_metrics.snapshot()
        for event, series in RECOVERY_SERIES.items():
            assert counter_value(snapshot, series) == sum(
                e["event"] == event for e in events
            ), event
        assert counter_value(snapshot, "repro_parallel_chunk_retries_total") == 3
        # The step event reports the step, not copies of those counts.
        steps = [e for e in events if e["event"] == "parallel_step_completed"]
        assert steps and all(
            set(e) == {
                "seq", "elapsed", "event", "step", "workers", "payload_bytes",
                "shm_bytes", "fell_back", "pool_elapsed",
            }
            for e in steps
        )
