"""Parallel-vs-serial equivalence: the subsystem's headline guarantee.

Every test triangulates at least two of: serial ``ExtMCE``,
``ParallelExtMCE`` (various worker counts), and the Bron–Kerbosch
baseline.
"""

import pytest

from repro import (
    AdjacencyGraph,
    CliqueFileSink,
    DiskGraph,
    ExtMCE,
    ExtMCEConfig,
    MemoryModel,
    ParallelExtMCE,
    bron_kerbosch_maximal_cliques,
)
from repro.generators import powerlaw_cluster_graph
from repro.metrics import counter_value

from tests.helpers import cliques_of, figure1_graph, metered, seeded_gnp

# Every parallel run here exercises the pool, whatever the cost model
# would choose for these small graphs.
pytestmark = pytest.mark.usefixtures("force_fanout")


def _enumerate(graph, tmp_path, workers, tag=""):
    disk = DiskGraph.create(tmp_path / f"g{tag}_{workers}.bin", graph)
    config = ExtMCEConfig(workdir=tmp_path / f"w{tag}_{workers}", workers=workers)
    driver = ParallelExtMCE if workers > 1 else ExtMCE
    algo = driver(disk, config)
    with metered() as registry:
        cliques = list(algo.enumerate_cliques())
    if workers > 1 and graph.num_edges:
        assert counter_value(registry.snapshot(), "repro_parallel_chunks_total") > 0
    return cliques


class TestScaleFreeEquivalence:
    @pytest.mark.parametrize("seed", [1, 42])
    def test_parallel_matches_serial_and_baseline(self, tmp_path, seed):
        graph = powerlaw_cluster_graph(220, 4, 0.7, seed=seed)
        serial = _enumerate(graph, tmp_path, workers=1)
        parallel = _enumerate(graph, tmp_path, workers=4)
        oracle = cliques_of(bron_kerbosch_maximal_cliques(graph))
        assert parallel == serial  # identical stream, not just identical set
        assert cliques_of(parallel) == oracle

    def test_gnp_with_memory_budget(self, tmp_path, live_metrics):
        graph = seeded_gnp(80, 0.15, seed=13)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        budget = 2 * graph.num_edges + graph.num_vertices
        algo = ParallelExtMCE(
            disk,
            ExtMCEConfig(
                workdir=tmp_path / "w", workers=2, memory_budget_units=budget
            ),
            memory=MemoryModel(budget=budget),
        )
        assert cliques_of(algo.enumerate_cliques()) == cliques_of(
            bron_kerbosch_maximal_cliques(graph)
        )
        assert counter_value(live_metrics.snapshot(), "repro_parallel_chunks_total") > 0


class TestEdgeCases:
    def test_empty_graph(self, tmp_path):
        graph = AdjacencyGraph()
        assert _enumerate(graph, tmp_path, workers=4) == []

    def test_isolated_vertices_only(self, tmp_path):
        graph = AdjacencyGraph.from_edges([], vertices=range(5))
        result = _enumerate(graph, tmp_path, workers=4)
        assert cliques_of(result) == {frozenset({v}) for v in range(5)}

    def test_single_maximal_clique(self, tmp_path):
        k5 = AdjacencyGraph.from_edges(
            [(u, v) for u in range(5) for v in range(u + 1, 5)]
        )
        result = _enumerate(k5, tmp_path, workers=4)
        assert result == [frozenset(range(5))]

    def test_graph_smaller_than_worker_count(self, tmp_path):
        path3 = AdjacencyGraph.from_edges([(0, 1), (1, 2)])
        result = _enumerate(path3, tmp_path, workers=4)
        assert cliques_of(result) == {frozenset({0, 1}), frozenset({1, 2})}

    def test_figure1(self, tmp_path):
        graph = figure1_graph()
        serial = _enumerate(graph, tmp_path, workers=1)
        parallel = _enumerate(graph, tmp_path, workers=3)
        assert parallel == serial
        assert cliques_of(parallel) == cliques_of(
            bron_kerbosch_maximal_cliques(graph)
        )


class TestWorkerCountInvariance:
    def test_canonical_report_byte_identical(self, tmp_path):
        graph = powerlaw_cluster_graph(150, 3, 0.6, seed=7)
        outputs = []
        for workers in (1, 2, 4):
            cliques = _enumerate(graph, tmp_path, workers, tag="inv")
            out = tmp_path / f"report_{workers}.txt"
            with CliqueFileSink(out, canonical=True) as sink:
                for clique in cliques:
                    sink.accept(clique)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestReportParity:
    def test_per_step_counters_match_serial(self, tmp_path):
        graph = powerlaw_cluster_graph(150, 3, 0.6, seed=9)
        disk_s = DiskGraph.create(tmp_path / "s.bin", graph)
        serial = ExtMCE(disk_s, ExtMCEConfig(workdir=tmp_path / "ws"))
        list(serial.enumerate_cliques())
        disk_p = DiskGraph.create(tmp_path / "p.bin", graph)
        parallel = ParallelExtMCE(
            disk_p, ExtMCEConfig(workdir=tmp_path / "wp", workers=2)
        )
        with metered() as registry:
            list(parallel.enumerate_cliques())
        snapshot = registry.snapshot()
        assert counter_value(snapshot, "repro_parallel_fallback_steps_total") == 0
        assert counter_value(snapshot, "repro_parallel_chunks_total") > 0
        assert serial.report.num_recursions == parallel.report.num_recursions
        for s_step, p_step in zip(serial.report.steps, parallel.report.steps):
            assert s_step.cliques_emitted == p_step.cliques_emitted
            assert s_step.cliques_suppressed == p_step.cliques_suppressed
            assert s_step.tree_nodes == p_step.tree_nodes
            assert s_step.hashtable_entries == p_step.hashtable_entries
