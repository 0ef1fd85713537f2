"""Corruption and fault-injection tests for the reduction map.

The damage contract: a persisted reconstruction map that has been
tampered with — any byte, any field — must surface as a typed
:class:`~repro.errors.ReproError` at load or replay time, never as a
silently wrong clique stream.  The ``"reduce"`` fault site of
:mod:`repro.faults` injects the same failure modes through the official
seam, including into a full ``ExtMCE`` run.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.errors import ReductionError, ReproError, StorageIOError
from repro.faults import FaultPlan, FaultRule
from repro.generators import fringed_clique_communities
from repro.reduce import (
    ReductionMap,
    load_reduction_map,
    reduce_graph,
    save_reduction_map,
)


@pytest.fixture(scope="module")
def reduction():
    graph = fringed_clique_communities(
        80, seed=3, core_fraction=0.6, community_min=12, community_max=16
    )
    result = reduce_graph(graph, "full")
    assert result.reduced.num_vertices > 0
    assert not result.map.is_identity
    assert result.map.folds and result.map.peeled and result.map.direct
    return result


@pytest.fixture()
def saved_map(reduction, tmp_path):
    path = tmp_path / "reduction_map.json"
    save_reduction_map(reduction.map, path)
    return path


def reference_stream(reduction, rmap):
    from repro.baselines.bron_kerbosch import tomita_maximal_cliques

    return list(rmap.reconstruct(tomita_maximal_cliques(reduction.reduced)))


# ---------------------------------------------------------------------------
# Blind byte-flip fuzz: every byte of the file, two flip patterns
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mask", [0x01, 0x20])
def test_every_byte_flip_is_detected_or_harmless(reduction, saved_map, mask):
    pristine = saved_map.read_bytes()
    expected = reference_stream(reduction, load_reduction_map(saved_map))
    undetected = []
    for position in range(len(pristine)):
        damaged = bytearray(pristine)
        damaged[position] ^= mask
        saved_map.write_bytes(bytes(damaged))
        try:
            rmap = load_reduction_map(saved_map)
        except ReproError:
            continue  # typed rejection: the contract holds
        # A flip the loader accepts must be behaviourally invisible.
        try:
            stream = reference_stream(reduction, rmap)
        except ReproError:
            continue
        if stream != expected:
            undetected.append(position)
    saved_map.write_bytes(pristine)
    assert not undetected, f"byte flips changed the stream: {undetected}"


def test_truncation_is_detected(saved_map):
    pristine = saved_map.read_bytes()
    for cut in (0, 1, len(pristine) // 2, len(pristine) - 1):
        saved_map.write_bytes(pristine[:cut])
        with pytest.raises(ReproError):
            load_reduction_map(saved_map)


def test_missing_file_is_typed(tmp_path):
    with pytest.raises(StorageIOError):
        load_reduction_map(tmp_path / "never_written.json")


# ---------------------------------------------------------------------------
# Structured tampering: recompute the CRC so only replay validation stands
# ---------------------------------------------------------------------------
def tamper(path, mutate):
    """Apply ``mutate`` to the document and re-seal it with a fresh CRC."""
    document = json.loads(path.read_text())
    document.pop("crc32")
    mutate(document)
    document["crc32"] = zlib.crc32(
        json.dumps(document, sort_keys=True).encode("utf-8")
    )
    path.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")))


@pytest.mark.parametrize(
    "label, mutate",
    [
        ("version", lambda d: d.update(version=99)),
        ("level", lambda d: d.update(level="turbo")),
        ("double-peel", lambda d: d["peeled"].append(d["peeled"][0])),
        ("self-fold", lambda d: d["folds"].append([5, 5])),
        ("dead-representative", lambda d: d["folds"].append([7, d["folds"][0][0]])),
        ("fold-in-prune", lambda d: d.update(level="prune")),
        ("empty-suppression", lambda d: d["suppressions"].append([])),
        ("empty-direct", lambda d: d["direct"].append([])),
        ("alien-direct", lambda d: d["direct"].append([-1, -2])),
        ("vertex-accounting", lambda d: d.update(reduced_vertices=d["reduced_vertices"] + 1)),
        ("edge-accounting", lambda d: d.update(reduced_edges=d["original_edges"] + 1)),
        ("negative-count", lambda d: d.update(lower_bound=-3)),
        ("missing-field", lambda d: d.pop("peeled")),
        ("wrong-type", lambda d: d.update(folds="nope")),
    ],
)
def test_structural_tampering_is_rejected(saved_map, label, mutate):
    tamper(saved_map, mutate)
    with pytest.raises(ReductionError):
        load_reduction_map(saved_map)


def test_crc_is_actually_checked(saved_map):
    document = json.loads(saved_map.read_text())
    document["crc32"] = (document["crc32"] + 1) & 0xFFFFFFFF
    saved_map.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")))
    with pytest.raises(ReductionError, match="integrity"):
        load_reduction_map(saved_map)


def test_non_object_document_is_rejected(saved_map):
    saved_map.write_text("[1, 2, 3]")
    with pytest.raises(ReductionError, match="JSON object"):
        load_reduction_map(saved_map)


def test_foreign_stream_trips_expansion_guard(reduction):
    # A stream that already contains a folded vertex cannot be expanded;
    # the wrapper must refuse rather than emit a malformed clique.
    record = reduction.map.folds[0]
    poisoned = [frozenset({record.vertex, record.representative})]
    with pytest.raises(ReductionError, match="already contains"):
        list(reduction.map.reconstruct(poisoned, emit_direct=False))


# ---------------------------------------------------------------------------
# The "reduce" fault site
# ---------------------------------------------------------------------------
class TestReduceFaultSite:
    def test_io_error_on_save(self, reduction, tmp_path):
        plan = FaultPlan([FaultRule("reduce", "io_error")], seed=1)
        with pytest.raises(StorageIOError, match="injected"):
            save_reduction_map(reduction.map, tmp_path / "m.json", fault_plan=plan)

    def test_corrupt_on_save_is_caught_at_load(self, reduction, tmp_path):
        path = tmp_path / "m.json"
        plan = FaultPlan([FaultRule("reduce", "corrupt")], seed=2)
        save_reduction_map(reduction.map, path, fault_plan=plan)
        with pytest.raises(ReproError):
            load_reduction_map(path)

    def test_corrupt_on_load(self, reduction, saved_map):
        plan = FaultPlan([FaultRule("reduce", "corrupt")], seed=3)
        with pytest.raises(ReproError):
            load_reduction_map(saved_map, fault_plan=plan)

    def test_io_error_on_load(self, saved_map):
        plan = FaultPlan([FaultRule("reduce", "io_error")], seed=4)
        with pytest.raises(StorageIOError, match="injected"):
            load_reduction_map(saved_map, fault_plan=plan)

    def test_latency_fault_is_harmless(self, reduction, saved_map):
        plan = FaultPlan(
            [FaultRule("reduce", "latency", latency_seconds=0.01, max_firings=None)],
            seed=5,
        )
        rmap = load_reduction_map(saved_map, fault_plan=plan)
        assert reference_stream(reduction, rmap) == reference_stream(
            reduction, load_reduction_map(saved_map)
        )

    def test_extmce_surfaces_save_fault(self, tmp_path):
        from repro.core.extmce import ExtMCE, ExtMCEConfig
        from repro.storage.diskgraph import DiskGraph

        graph = fringed_clique_communities(40, seed=1, community_min=4, community_max=8)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        config = ExtMCEConfig(
            workdir=tmp_path / "run",
            checkpoint=True,
            reduction="full",
            fault_plan=FaultPlan([FaultRule("reduce", "io_error")], seed=6),
        )
        with pytest.raises(StorageIOError, match="injected"):
            list(ExtMCE(disk, config).enumerate_cliques())

    def test_storage_faults_stay_armed_on_the_reduced_graph(self, tmp_path):
        """The reduced DiskGraph must inherit the input's fault plan.

        The rewrite in ``_drive_maybe_reduced`` replaces the enumeration
        source, so a reduced run whose rewritten graph dropped the plan
        would silently disarm every storage fault site for the rest of
        the run.  The contract is the same as unreduced: the fault
        surfaces typed, the checkpoint survives, and a resumed run
        splices to the exact stream.
        """
        from repro.core.extmce import ExtMCE, ExtMCEConfig
        from repro.storage.diskgraph import DiskGraph

        graph = fringed_clique_communities(
            80, seed=3, core_fraction=0.6, community_min=12, community_max=16
        )
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        expected = list(
            ExtMCE(
                disk, ExtMCEConfig(workdir=tmp_path / "ok", reduction="full")
            ).enumerate_cliques()
        )

        # Step 1 makes four spill writes (the staging file and its one
        # partition, each created and appended once) before its
        # checkpoint; the fifth, step 2's first, fails.
        plan = FaultPlan(
            [FaultRule("write", "io_error", after=4, path_contains="partitions")],
            seed=7,
        )
        faulty = DiskGraph.open(tmp_path / "g.bin", fault_plan=plan)
        work = tmp_path / "faulted"
        emitted = []
        with pytest.raises(StorageIOError, match="injected"):
            for clique in ExtMCE(
                faulty,
                ExtMCEConfig(workdir=work, reduction="full", checkpoint=True),
            ).enumerate_cliques():
                emitted.append(clique)
        checkpoint = json.loads((work / "checkpoint.json").read_text())
        resumed = list(
            ExtMCE.resume(
                work, ExtMCEConfig(workdir=work, reduction="full")
            ).enumerate_cliques()
        )
        assert emitted[: checkpoint["cliques_emitted"]] + resumed == expected
