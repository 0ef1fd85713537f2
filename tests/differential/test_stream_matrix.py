"""The differential matrix: byte-identical streams across configurations.

The headline guarantee of this codebase — serial ExtMCE and every
worker count produce *exactly* the same clique stream — is asserted here
as bytes, over the ``workers`` matrix (with and without checksums; the
parallel driver both as its cost model decides and with every phase
forced onto the pool),
together with the metrics invariants that tie each run's counters to its
own stream and a set comparison against the set-based Tomita oracle.
Forced fan-out cuts each phase into several chunks, whose results must
still merge into the canonical order.
"""

from __future__ import annotations

import pytest

from repro.generators import defective_clique_communities, powerlaw_cluster_graph
from tests.differential.harness import (
    assert_pool_used,
    assert_stream_metrics_consistent,
    oracle_cliques,
    run_enumeration,
)
from tests.helpers import figure1_graph

# Ids carry the kernel ExtMCE runs on (bitset, its only one); "-fanout"
# rows force every parallel phase onto the pool.
MATRIX = [
    pytest.param(
        workers, verify, fanout,
        id=f"bitset-w{workers}{'-fanout' if fanout else ''}"
        f"-{'crc' if verify else 'nocrc'}",
    )
    for verify in (True, False)
    for workers, fanout in ((1, False), (2, False), (4, False), (2, True), (4, True))
]


def _graph():
    return powerlaw_cluster_graph(140, 4, 0.6, seed=11)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The baseline stream: serial, checksums on."""
    result = run_enumeration(
        _graph(), tmp_path_factory.mktemp("reference"),
        workers=1, verify_checksums=True,
    )
    assert result.stream, "reference enumeration produced nothing"
    return result


@pytest.fixture(scope="module")
def oracle():
    return oracle_cliques(_graph())


class TestStreamMatrix:
    @pytest.mark.parametrize("workers, verify, fanout", MATRIX)
    def test_byte_identical_stream_and_consistent_metrics(
        self, workers, verify, fanout, reference, oracle, tmp_path
    ):
        result = run_enumeration(
            _graph(), tmp_path, workers=workers, verify_checksums=verify,
            fanout=fanout,
        )
        if fanout:
            assert_pool_used(result)
        # Stronger than canonical-bytes equality: the enumeration *order*
        # itself must match the reference, element by element.
        assert result.stream == reference.stream
        assert result.canonical_bytes == reference.canonical_bytes
        assert set(result.stream) == oracle
        assert_stream_metrics_consistent(result)

    @pytest.mark.parametrize("workers, verify, fanout", MATRIX)
    def test_driver_totals_invariant_across_matrix(
        self, workers, verify, fanout, reference, tmp_path
    ):
        """Emitted/suppressed/category totals are configuration-independent.

        Kernel-level counters legitimately differ (the parallel drivers
        decompose into different subproblems); the driver-level totals
        may not.
        """
        result = run_enumeration(
            _graph(), tmp_path, workers=workers, verify_checksums=verify,
            fanout=fanout,
        )
        for name in (
            "repro_mce_cliques_emitted_total",
            "repro_mce_cliques_suppressed_total",
            "repro_mce_singleton_cliques_total",
            "repro_mce_category_cliques_total",
            "repro_mce_steps_total",
        ):
            assert result.counter(name) == reference.counter(name), name


class TestOtherTopologies:
    """One parallel-vs-serial pass each over structurally different graphs."""

    def test_figure1(self, tmp_path):
        graph = figure1_graph()
        serial = run_enumeration(graph, tmp_path / "serial", workers=1)
        parallel = run_enumeration(graph, tmp_path / "par", workers=2, fanout=True)
        assert serial.stream == parallel.stream
        assert_pool_used(parallel)
        assert_stream_metrics_consistent(serial)
        assert_stream_metrics_consistent(parallel)

    def test_communities_with_isolated_vertices(self, tmp_path):
        graph = defective_clique_communities(
            90, seed=5, community_min=20, community_max=30
        )
        # Isolated vertices exercise the degenerate singleton step.
        graph.add_vertex(10_000)
        graph.add_vertex(10_001)
        serial = run_enumeration(graph, tmp_path / "serial", workers=1)
        parallel = run_enumeration(graph, tmp_path / "par", workers=2, fanout=True)
        assert serial.stream == parallel.stream
        assert_pool_used(parallel)
        assert frozenset((10_000,)) in serial.stream
        assert_stream_metrics_consistent(serial)
        assert_stream_metrics_consistent(parallel)

    def test_edgeless_graph_counts_singletons(self, tmp_path):
        """An all-isolated graph exercises the degenerate h=0 step."""
        from repro.graph.adjacency import AdjacencyGraph

        graph = AdjacencyGraph.from_edges([], vertices=range(7))
        result = run_enumeration(graph, tmp_path, workers=1)
        assert sorted(result.stream) == [frozenset((v,)) for v in range(7)]
        assert result.counter("repro_mce_singleton_cliques_total") == 7
        assert_stream_metrics_consistent(result)
