"""Tests for the JSONL telemetry writer/reader and ExtMCE tracing."""

import json

import pytest

from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.errors import StorageError
from repro.storage.diskgraph import DiskGraph
from repro.telemetry import TraceWriter, load_trace, summarize_trace

from tests.helpers import seeded_gnp


class TestWriterReader:
    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            trace.emit("alpha", value=1)
            trace.emit("beta", nested={"x": [1, 2]})
        events = load_trace(path)
        assert [e["event"] for e in events] == ["alpha", "beta"]
        assert events[0]["seq"] == 0 and events[1]["seq"] == 1
        assert events[1]["nested"] == {"x": [1, 2]}

    def test_elapsed_monotone(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            for i in range(5):
                trace.emit("tick", i=i)
        elapsed = [e["elapsed"] for e in load_trace(path)]
        assert elapsed == sorted(elapsed)

    def test_reopening_truncates_by_default(self, tmp_path):
        """Regression: the writer used to always append, so re-running with
        the same trace path silently concatenated two runs and broke the
        monotone-seq invariant."""
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            trace.emit("first")
        with TraceWriter(path) as trace:
            trace.emit("second")
        events = load_trace(path)
        assert [e["event"] for e in events] == ["second"]
        assert events[0]["seq"] == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_trace(tmp_path / "nope.jsonl")

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "ok", "seq": 0, "elapsed": 0}\nnot json\n')
        with pytest.raises(StorageError, match=":2"):
            load_trace(path)

    def test_close_idempotent(self, tmp_path):
        trace = TraceWriter(tmp_path / "t.jsonl")
        trace.close()
        trace.close()


class TestTraceModes:
    def test_append_continues_seq(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            trace.emit("first")
            trace.emit("second")
        with TraceWriter(path, mode="append") as trace:
            trace.emit("third")
        events = load_trace(path)
        assert [e["event"] for e in events] == ["first", "second", "third"]
        assert [e["seq"] for e in events] == [0, 1, 2]

    def test_append_tolerates_torn_final_line(self, tmp_path):
        """A crash mid-emit leaves a partial line; resume must still work."""
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            trace.emit("first")
        with open(path, "a", encoding="ascii") as handle:
            handle.write('{"event": "torn", "se')
        with TraceWriter(path, mode="append") as trace:
            trace.emit("second")
        # The torn line is still unreadable for load_trace, but the new
        # event landed with the right continuation seq.
        tail = json.loads(path.read_text().splitlines()[-1])
        assert tail["event"] == "second"
        assert tail["seq"] == 1

    def test_append_on_missing_file_starts_fresh(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl", mode="append") as trace:
            trace.emit("only")
        assert load_trace(tmp_path / "t.jsonl")[0]["seq"] == 0

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace mode"):
            TraceWriter(tmp_path / "t.jsonl", mode="overwrite")

    def test_resumed_run_appends_to_trace(self, tmp_path):
        """ExtMCE.resume must continue the interrupted run's trace file,
        not truncate it."""
        g = seeded_gnp(60, 0.2, seed=4)
        disk = DiskGraph.create(tmp_path / "g.bin", g)
        workdir = tmp_path / "w"
        trace_path = tmp_path / "run.jsonl"
        config = ExtMCEConfig(
            workdir=workdir, trace_path=trace_path, checkpoint=True
        )
        algo = ExtMCE(disk, config)
        stream = algo.enumerate_cliques()
        # Interrupt once the first step's checkpoint has been written
        # (cliques flow before the step's checkpoint, so run until the
        # file appears).
        from repro.core.checkpoint import CHECKPOINT_FILENAME

        for _ in stream:
            if (workdir / CHECKPOINT_FILENAME).exists():
                break
        stream.close()
        first_events = load_trace(trace_path)
        resumed = ExtMCE.resume(
            workdir, config=ExtMCEConfig(trace_path=trace_path)
        )
        list(resumed.enumerate_cliques())
        events = load_trace(trace_path)
        assert len(events) > len(first_events)
        assert events[: len(first_events)] == first_events
        starts = [e for e in events if e["event"] == "run_started"]
        assert len(starts) == 2
        assert starts[1]["resumed_from_step"] >= 1
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(len(events)))


class TestExtMCETracing:
    def run_traced(self, tmp_path):
        g = seeded_gnp(50, 0.2, seed=2)
        disk = DiskGraph.create(tmp_path / "g.bin", g)
        trace_path = tmp_path / "run.jsonl"
        config = ExtMCEConfig(workdir=tmp_path / "w", trace_path=trace_path)
        algo = ExtMCE(disk, config)
        count = sum(1 for _ in algo.enumerate_cliques())
        return count, algo, load_trace(trace_path)

    def test_run_bracketed_by_start_and_completion(self, tmp_path):
        _, _, events = self.run_traced(tmp_path)
        assert events[0]["event"] == "run_started"
        assert events[-1]["event"] == "run_completed"

    def test_one_step_event_per_recursion(self, tmp_path):
        _, algo, events = self.run_traced(tmp_path)
        steps = [e for e in events if e["event"] == "step_completed"]
        assert len(steps) == algo.report.num_recursions

    def test_emitted_counts_sum_to_total(self, tmp_path):
        count, _, events = self.run_traced(tmp_path)
        steps = [e for e in events if e["event"] == "step_completed"]
        assert sum(e["emitted"] for e in steps) == count

    def test_summary_renders(self, tmp_path):
        count, _, events = self.run_traced(tmp_path)
        text = summarize_trace(events)
        assert "Trace summary" in text
        assert f"{count} cliques" in text

    def test_checkpoint_events_present_when_enabled(self, tmp_path):
        g = seeded_gnp(50, 0.2, seed=2)
        disk = DiskGraph.create(tmp_path / "g.bin", g)
        config = ExtMCEConfig(
            workdir=tmp_path / "w",
            trace_path=tmp_path / "run.jsonl",
            checkpoint=True,
        )
        algo = ExtMCE(disk, config)
        list(algo.enumerate_cliques())
        events = load_trace(tmp_path / "run.jsonl")
        checkpoints = [e for e in events if e["event"] == "checkpoint_written"]
        assert len(checkpoints) == algo.report.num_recursions
