"""The fused step pass: one scan of ``G_k`` writes the step's spill
partitions, the residual ``G_{k+1}`` and step k+1's L*-sample.

The contract pinned here: the sample drawn while the residual is written
is the sample :func:`extract_lstar_graph` draws from the written file, a
run costs one scan per step plus the H* scan, a binding memory budget
redraws a sample whose target the lift moved, a star that disagrees with
the disk graph fails typed, and a crash mid-step resumes to the same
per-step cores.
"""

import pytest

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core import extmce
from repro.core.checkpoint import read_checkpoint
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.hstar import StarGraph, extract_hstar_graph
from repro.core.lstar import LStarSampler, extract_lstar_graph
from repro.errors import StorageError
from repro.generators import powerlaw_cluster_graph
from repro.parallel import ParallelExtMCE
from repro.storage.diskgraph import DiskGraph
from repro.storage.memory import MemoryModel
from repro.storage.partitions import HnbPartitionStore, read_partition_file

from tests.helpers import GRAPHS, forced_fanout, seeded_gnp

#: 0 admits nothing (the first-record fallback); 10**9 takes everything.
TARGETS = (0, 1, 25, 120, 10**9)


def fused_step(disk, star, tmp_path, target, seed):
    """Run the step pass for ``star``; return (store, sampler, predicted m')."""
    predicted = disk.num_edges - star.size_edges
    sampler = LStarSampler(predicted, target, seed=seed)
    store = HnbPartitionStore.build(
        disk,
        sorted(star.periphery),
        tmp_path / "spill",
        64,
        removed=star.core,
        residual_path=tmp_path / "residual.bin",
        on_survivor=sampler.offer,
    )
    return store, sampler, predicted


class TestFusedSampleEqualsResidualSample:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("graph_seed", [1, 2, 3])
    @pytest.mark.parametrize("target", TARGETS)
    def test_same_star_as_extract_lstar(self, tmp_path, family, graph_seed, target):
        graph = GRAPHS[family](graph_seed)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        star = extract_hstar_graph(disk)
        for sample_seed in (0, 7):
            work = tmp_path / f"s{sample_seed}"
            store, sampler, predicted = fused_step(
                disk, star, work, target, sample_seed
            )
            residual = store.residual
            assert residual.num_edges == predicted
            fused = sampler.star()
            scanned = extract_lstar_graph(residual, target, seed=sample_seed)
            assert fused.core == scanned.core
            assert dict(fused.neighbor_lists) == dict(scanned.neighbor_lists)
            assert dict(fused.original_degrees) == dict(scanned.original_degrees)
            if target == 10**9:
                assert fused.core == {r.vertex for r in residual.scan()}
            if target == 0:
                assert fused.core == {next(iter(residual.scan())).vertex}
            store.close()

    def test_pass_writes_the_same_files_as_separate_passes(self, tmp_path):
        graph = seeded_gnp(60, 0.15, seed=4)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        star = extract_hstar_graph(disk)
        members = sorted(star.periphery)
        store, _, _ = fused_step(disk, star, tmp_path / "fused", 40, 0)
        separate = HnbPartitionStore.build(disk, members, tmp_path / "sep", 64)
        rewritten = disk.rewrite_without(star.core, tmp_path / "sep.bin")
        assert store.residual.path.read_bytes() == rewritten.path.read_bytes()
        assert [read_partition_file(p) for p in store.partition_paths()] == [
            read_partition_file(p) for p in separate.partition_paths()
        ]

    def test_members_may_include_removed_vertices(self, tmp_path):
        graph = seeded_gnp(40, 0.2, seed=2)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        members = list(range(0, 40, 3))
        removed = set(range(0, 40, 2))
        store = HnbPartitionStore.build(
            disk, members, tmp_path / "spill", 32,
            removed=removed, residual_path=tmp_path / "r.bin",
        )
        assert store.neighbor_sets(members) == {
            v: frozenset(graph.neighbors(v)) & set(members) for v in members
        }
        assert store.residual.to_adjacency_graph().num_vertices == 20


def run_driver(graph, tmp_path, workers=1, **config):
    disk = DiskGraph.create(tmp_path / "g.bin", graph)
    driver = ParallelExtMCE if workers > 1 else ExtMCE
    algo = driver(
        disk, ExtMCEConfig(workdir=tmp_path / "w", seed=3, workers=workers, **config)
    )
    cliques = list(algo.enumerate_cliques())
    return cliques, algo.report


class TestScanCount:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_one_scan_per_step_plus_hstar(self, tmp_path, family):
        _, report = run_driver(GRAPHS[family](5), tmp_path)
        assert report.num_recursions > 1
        assert report.sequential_scans == report.num_recursions + 1

    def test_one_scan_per_step_at_two_workers(self, tmp_path):
        graph = seeded_gnp(80, 0.2, seed=5)
        serial, serial_report = run_driver(graph, tmp_path / "serial")
        with forced_fanout():
            parallel, report = run_driver(graph, tmp_path / "parallel", workers=2)
        assert parallel == serial
        assert report.num_recursions == serial_report.num_recursions
        assert report.sequential_scans == report.num_recursions + 1


class TestBindingBudget:
    def test_moved_target_redraws_and_fits_the_budget(self, tmp_path):
        """The pass draws step k+1's sample before step k's lift grows
        the hashtable; when that growth moves the headroom target, the
        sample is drawn again, so the run stays inside the budget."""
        graph = powerlaw_cluster_graph(300, 4, 0.6, seed=1)
        budget = int(0.35 * (2 * graph.num_edges + graph.num_vertices))
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        memory = MemoryModel(budget=budget)
        algo = ExtMCE(
            disk, ExtMCEConfig(workdir=tmp_path / "w", memory_budget_units=budget),
            memory=memory,
        )
        cliques = set(algo.enumerate_cliques())
        assert cliques == set(tomita_maximal_cliques(graph))
        assert memory.peak_units <= budget
        report = algo.report
        assert report.sequential_scans > report.num_recursions + 1


class TestStarDisagreesWithDisk:
    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_raises_storage_error(self, tmp_path, monkeypatch, change):
        graph = seeded_gnp(60, 0.15, seed=9)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        honest = extract_hstar_graph(disk)
        vertex = min(honest.core)
        neighbors = set(honest.neighbor_lists[vertex])
        if change == "drop":
            neighbors.discard(min(neighbors - honest.core))
        else:
            neighbors.add(min(set(graph.vertices()) - neighbors - honest.core))
        tampered = StarGraph(
            core=honest.core,
            neighbor_lists={**honest.neighbor_lists, vertex: frozenset(neighbors)},
        )
        monkeypatch.setattr(extmce, "extract_hstar_graph", lambda *a, **k: tampered)
        algo = ExtMCE(disk, ExtMCEConfig(workdir=tmp_path / "w"))
        emitted = []
        with pytest.raises(StorageError, match="residual edges"):
            for clique in algo.enumerate_cliques():
                emitted.append(clique)
        assert emitted == []
        assert not (tmp_path / "w" / "residual_0001.bin").exists()


class CrashingExtMCE(ExtMCE):
    """Raises from the lift of step ``crash_step``."""

    crash_step = 3

    def _compute_categories(self, star, core_maximal, store):
        if len(self.report.steps) + 1 == self.crash_step:
            raise StorageError("injected crash during the lift")
        return super()._compute_categories(star, core_maximal, store)


class TestCrashDuringLift:
    @pytest.mark.parametrize("budget", [None, 800])
    def test_resume_draws_the_same_cores(self, tmp_path, budget):
        # At 800 units each L*-target is cut to the headroom.
        graph = seeded_gnp(120, 0.1, seed=5)

        def config(work):
            return ExtMCEConfig(
                workdir=work, seed=3, checkpoint=True, memory_budget_units=budget
            )

        def memory():
            return MemoryModel(budget=budget) if budget else None

        baseline_disk = DiskGraph.create(tmp_path / "baseline.bin", graph)
        baseline = ExtMCE(baseline_disk, config(tmp_path / "base"), memory=memory())
        expected = list(baseline.enumerate_cliques())
        expected_cores = [s.core_size for s in baseline.report.steps]
        assert len(expected_cores) > CrashingExtMCE.crash_step

        work = tmp_path / "work"
        disk = DiskGraph.create(tmp_path / "input.bin", graph)
        crashing = CrashingExtMCE(disk, config(work), memory=memory())
        emitted = []
        with pytest.raises(StorageError, match="injected"):
            for clique in crashing.enumerate_cliques():
                emitted.append(clique)
        k = CrashingExtMCE.crash_step
        state = read_checkpoint(work)
        assert state.completed_step == k - 1
        # Step k wrote G_{k+1} before its lift; G_k stays until step k ends.
        assert (work / f"residual_{k:04d}.bin").exists()
        assert (work / f"residual_{k - 1:04d}.bin").exists()

        resumed = ExtMCE.resume(work, config=config(work), memory=memory())
        rest = list(resumed.enumerate_cliques())
        assert [s.core_size for s in resumed.report.steps] == expected_cores[k - 1:]
        assert emitted[: state.cliques_emitted] + rest == expected
