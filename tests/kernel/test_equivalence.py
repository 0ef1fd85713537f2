"""Byte-identity of the bitset hot path with the set-based reference.

The contract everything downstream relies on: for any graph, the bitset
kernel produces *the same cliques in the same order* as the set-based
pivoted enumerator — not merely the same set.  ExtMCE runs on the bitset
kernel only; the set-based Tomita enumerator is the oracle it is checked
against here, down to the star-clique stream (through
:func:`set_star_cliques`, the set-algebra form of the Lemma-2
construction) and the assembled ``T_H*``.
"""

import tempfile

import pytest

from repro.baselines.bron_kerbosch import (
    tomita_maximal_cliques,
    tomita_subproblem,
)
from repro.core.clique_tree import (
    assemble_clique_tree,
    build_clique_tree,
    enumerate_star_cliques,
)
from repro.core.hstar import extract_hstar_graph
from repro.graph.adjacency import AdjacencyGraph
from repro.storage.diskgraph import DiskGraph

from tests.helpers import figure1_graph, seeded_gnp

GRAPHS = [
    ("figure1", figure1_graph()),
    ("gnp_sparse", seeded_gnp(60, 0.08, seed=21)),
    ("gnp_medium", seeded_gnp(45, 0.25, seed=22)),
    ("gnp_dense", seeded_gnp(30, 0.5, seed=23)),
]


def set_star_cliques(star):
    """The H*-max-cliques by set algebra: maximal cliques of ``G_H`` with
    no common periphery neighbour, then ``K ∪ {w}`` for each maximal
    clique ``K`` of ``G_H[nb(w) ∩ H]``, periphery vertices ascending."""
    core_graph = star.core_graph()
    for core_clique in tomita_maximal_cliques(core_graph):
        if not star.common_periphery(core_clique):
            yield core_clique
    anchors_of: dict[int, set[int]] = {}
    for v in star.core:
        for w in star.periphery_neighbors(v):
            anchors_of.setdefault(w, set()).add(v)
    for w, anchors in sorted(anchors_of.items()):
        induced = core_graph.induced_subgraph(anchors)
        for core_clique in tomita_maximal_cliques(induced):
            yield core_clique | {w}


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestStreamIdentity:
    def test_full_enumeration_stream(self, name, graph):
        set_stream = list(tomita_maximal_cliques(graph, kernel="set"))
        bitset_stream = list(tomita_maximal_cliques(graph, kernel="bitset"))
        assert bitset_stream == set_stream

    def test_subproblem_streams(self, name, graph):
        for start in sorted(graph.vertices()):
            set_stream = list(tomita_subproblem(graph, start, kernel="set"))
            bitset_stream = list(
                tomita_subproblem(graph, start, kernel="bitset")
            )
            assert bitset_stream == set_stream

    def test_star_clique_stream(self, name, graph):
        star = extract_hstar_graph(graph)
        assert list(enumerate_star_cliques(star)) == list(set_star_cliques(star))

    def test_clique_tree_identical(self, name, graph):
        star = extract_hstar_graph(graph)
        mh_set = set(tomita_maximal_cliques(star.core_graph()))
        tree_set = assemble_clique_tree(star, set_star_cliques(star), mh_set)
        tree_bit, mh_bit = build_clique_tree(star)
        assert mh_bit == mh_set
        assert list(tree_bit.cliques()) == list(tree_set.cliques())
        assert tree_bit.num_nodes == tree_set.num_nodes


class TestDriverIdentity:
    """End-to-end: ExtMCE output is worker-count-invariant and enumerates
    exactly the set-based oracle's cliques."""

    @pytest.fixture(scope="class")
    def graph(self):
        return seeded_gnp(90, 0.12, seed=31)

    def _run(self, graph, workers):
        from repro import ExtMCE, ExtMCEConfig, ParallelExtMCE

        with tempfile.TemporaryDirectory() as tmp:
            disk = DiskGraph.create(f"{tmp}/g.bin", graph)
            cls = ParallelExtMCE if workers > 1 else ExtMCE
            config = ExtMCEConfig(workdir=tmp, workers=workers)
            return list(cls(disk, config).enumerate_cliques())

    def test_cross_kernel_cross_worker_streams(self, graph):
        reference = self._run(graph, 1)
        assert set(reference) == set(tomita_maximal_cliques(graph, kernel="set"))
        assert self._run(graph, 2) == reference

    def test_unknown_kernel_rejected(self, graph):
        with pytest.raises(ValueError):
            list(tomita_maximal_cliques(graph, kernel="avx"))

    @pytest.mark.parametrize("kernel", ["set", "avx"])
    def test_extmce_config_accepts_only_bitset(self, kernel):
        from repro import ExtMCEConfig

        assert ExtMCEConfig(kernel="bitset").kernel == "bitset"
        with pytest.raises(ValueError):
            ExtMCEConfig(kernel=kernel)


class TestMeteredRunsUseSetPath:
    def test_metered_enumeration_ignores_bitset(self):
        """With a memory model attached the set path must run (the bitset
        collector would falsify the paper's memory accounting)."""
        from repro.storage.memory import MemoryModel

        graph = seeded_gnp(20, 0.4, seed=5)
        memory = MemoryModel()
        metered = list(
            tomita_maximal_cliques(graph, memory=memory, kernel="bitset")
        )
        assert metered == list(tomita_maximal_cliques(graph, kernel="set"))
        assert memory.peak_units > 0


def test_vertex_labels_survive_the_round_trip():
    """Non-contiguous, non-zero-based labels come back untranslated."""
    g = AdjacencyGraph.from_edges([(100, 205), (205, 309), (100, 309), (309, 400)])
    set_stream = list(tomita_maximal_cliques(g, kernel="set"))
    bitset_stream = list(tomita_maximal_cliques(g, kernel="bitset"))
    assert bitset_stream == set_stream == [
        frozenset({100, 205, 309}),
        frozenset({309, 400}),
    ]
