"""Shared-memory layer tests: CSR codec, segment lifecycle, stale-segment
sweeping, and the no-leaked-segments regression for killed workers."""

import multiprocessing
import os

import pytest

from repro import DiskGraph, ExtMCEConfig
from repro.errors import GraphError, SharedMemoryError, StorageFormatError
from repro.faults import FaultPlan, FaultRule
from repro.kernel.compact import CompactGraph
from repro.metrics import counter_value
from repro.parallel import shm as shm_mod
from repro.parallel.driver import ParallelExtMCE
from repro.parallel.scheduler import ParallelEngine

from tests.helpers import seeded_gnp

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="requires a /dev/shm file view"
)


def _compact() -> CompactGraph:
    return CompactGraph.from_neighbor_lists(
        {0: {1, 2}, 1: {0}, 2: {0, 5}, 5: {2}, 9: set()}
    )


def _same_graph(a: CompactGraph, b: CompactGraph) -> bool:
    return (
        tuple(a.labels) == tuple(b.labels)
        and list(a.indptr) == list(b.indptr)
        and list(a.indices) == list(b.indices)
        and a.masks == b.masks
    )


class TestCodec:
    def test_pack_unpack_roundtrip(self):
        compact = _compact()
        buffer = bytearray(compact.packed_nbytes())
        written = compact.pack_into(buffer, generation=7)
        assert written == compact.packed_nbytes()
        rebuilt = CompactGraph.unpack_from(buffer, generation=7)
        assert _same_graph(compact, rebuilt)

    def test_generation_mismatch_raises(self):
        compact = _compact()
        buffer = bytearray(compact.packed_nbytes())
        compact.pack_into(buffer, generation=7)
        with pytest.raises(SharedMemoryError, match="stale"):
            CompactGraph.unpack_from(buffer, generation=8)
        # generation=None skips the check entirely
        assert _same_graph(compact, CompactGraph.unpack_from(buffer))

    def test_foreign_buffer_raises_format_error(self):
        with pytest.raises(StorageFormatError):
            CompactGraph.unpack_from(bytearray(64))

    def test_truncated_buffer_raises_format_error(self):
        compact = _compact()
        buffer = bytearray(compact.packed_nbytes())
        compact.pack_into(buffer, generation=1)
        with pytest.raises(StorageFormatError):
            CompactGraph.unpack_from(buffer[:-8], generation=1)

    def test_non_integer_labels_are_rejected(self):
        compact = CompactGraph.from_neighbor_lists({"a": {"b"}, "b": {"a"}})
        with pytest.raises(GraphError, match="int64"):
            compact.pack_into(bytearray(compact.packed_nbytes()))


class TestSegments:
    def test_export_attach_roundtrip(self):
        compact = _compact()
        segment = shm_mod.export_star(compact, generation=3)
        try:
            attached, handle = shm_mod.attach_compact(segment.name, 3)
            assert _same_graph(compact, attached)
            del attached  # drop the zero-copy views before closing
            handle.close()
        finally:
            segment.unlink()
        assert not os.path.exists(os.path.join("/dev/shm", segment.name))

    def test_attach_missing_segment_raises(self):
        with pytest.raises(SharedMemoryError, match="attach"):
            shm_mod.attach_compact("repro-shm-0-0-ffffff", 1)

    def test_attach_stale_generation_raises_and_leaves_segment(self):
        segment = shm_mod.export_star(_compact(), generation=2)
        try:
            with pytest.raises(SharedMemoryError, match="stale"):
                shm_mod.attach_compact(segment.name, 9)
            # the failed attach must not have destroyed the segment
            attached, handle = shm_mod.attach_compact(segment.name, 2)
            del attached
            handle.close()
        finally:
            segment.unlink()


class TestEngineLifecycle:
    def test_publish_retires_previous_segment(self):
        star = __import__(
            "repro.core.hstar", fromlist=["extract_hstar_graph"]
        ).extract_hstar_graph(seeded_gnp(30, 0.25, seed=3))
        with ParallelEngine(1) as engine:
            first = engine.publish_star(star)
            assert "shm" in first
            assert os.path.exists(os.path.join("/dev/shm", first["token"]))
            second = engine.publish_star(star)
            assert not os.path.exists(os.path.join("/dev/shm", first["token"]))
            assert os.path.exists(os.path.join("/dev/shm", second["token"]))
        assert not os.path.exists(os.path.join("/dev/shm", second["token"]))

    def test_unpackable_labels_fall_back_to_inband(self, live_metrics):
        from repro.core.hstar import extract_hstar_graph
        from repro.graph.adjacency import AdjacencyGraph

        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d")]
        star = extract_hstar_graph(AdjacencyGraph.from_edges(edges))
        with ParallelEngine(1) as engine:
            descriptor = engine.publish_star(star)
            assert descriptor["token"].startswith("inband-")
            assert "inband" in descriptor and "shm" not in descriptor
            assert counter_value(
                live_metrics.snapshot(), "repro_parallel_inband_payloads_total"
            ) == 1
            assert engine.current_segment is None


    def test_descriptors_carry_one_graph_form(self):
        from repro.core.hstar import extract_hstar_graph
        from repro.graph.adjacency import AdjacencyGraph

        star = extract_hstar_graph(seeded_gnp(30, 0.25, seed=3))
        labelled = extract_hstar_graph(
            AdjacencyGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        )
        with ParallelEngine(1) as engine:
            shm_descriptor = engine.publish_star(star)
            inband_descriptor = engine.publish_star(labelled)
        assert set(shm_descriptor) == {"token", "shm"}
        assert set(inband_descriptor) == {"token", "inband"}
        assert set(inband_descriptor["inband"]) == {"labels", "indptr", "indices"}


class TestSweep:
    def test_dead_creator_segment_is_swept_live_one_kept(self):
        probe = multiprocessing.Process(target=lambda: None)
        probe.start()
        probe.join()
        dead = os.path.join("/dev/shm", f"repro-shm-{probe.pid}-1-abc123")
        live = os.path.join("/dev/shm", f"repro-shm-{os.getpid()}-1-abc123")
        for path in (dead, live):
            with open(path, "wb") as handle:
                handle.write(b"\0" * 8)
        try:
            swept = shm_mod.sweep_stale_segments()
            assert os.path.basename(dead) in swept
            assert not os.path.exists(dead)
            assert os.path.exists(live), "live-owner segments must survive"
        finally:
            for path in (dead, live):
                if os.path.exists(path):
                    os.unlink(path)

    def test_unrelated_names_are_ignored(self):
        decoy = os.path.join("/dev/shm", "repro-shm-not-a-pid")
        with open(decoy, "wb") as handle:
            handle.write(b"\0" * 8)
        try:
            assert os.path.basename(decoy) not in shm_mod.sweep_stale_segments()
            assert os.path.exists(decoy)
        finally:
            os.unlink(decoy)


class TestLeakRegression:
    @pytest.mark.usefixtures("force_fanout")
    def test_killed_worker_run_leaks_no_segments(self, tmp_path, live_metrics):
        """A worker SIGKILLed mid-run must not leave repro-shm-* behind."""
        before = {
            entry
            for entry in os.listdir("/dev/shm")
            if entry.startswith(shm_mod.SEGMENT_PREFIX)
        }
        graph = seeded_gnp(50, 0.18, seed=23)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        plan = FaultPlan([FaultRule("chunk", "worker_kill")])
        config = ExtMCEConfig(
            workdir=tmp_path / "w", workers=2, fault_plan=plan
        )
        algo = ParallelExtMCE(disk, config)
        algo.task_timeout_seconds = 3.0
        cliques = list(algo.enumerate_cliques())
        assert cliques, "faulted run should still enumerate"
        assert counter_value(live_metrics.snapshot(), "repro_parallel_chunks_total") > 0
        after = {
            entry
            for entry in os.listdir("/dev/shm")
            if entry.startswith(shm_mod.SEGMENT_PREFIX)
        }
        assert after <= before, f"leaked segments: {sorted(after - before)}"
