"""Tests for T_H* (Definition 8, Lemmas 1-2) and its construction."""

import pytest
from hypothesis import given, settings

from repro.core.clique_tree import (
    CliqueTree,
    anchor_cliques,
    build_clique_tree,
    build_clique_tree_from_cliques,
    enumerate_star_cliques,
)
from repro.core.hstar import extract_hstar_graph
from repro.errors import GraphError
from repro.kernel import maximal_cliques_bitset
from repro.storage.memory import MemoryModel

from tests.helpers import GRAPHS, cliques_of, figure1_graph, names_of, small_graphs


@pytest.fixture
def star():
    return extract_hstar_graph(figure1_graph())


class TestEnumeration:
    def test_figure2_star_cliques(self, star):
        # The H*-max-cliques of Figure 1 (the root-to-leaf paths of the
        # paper's Figure 2 tree): one per periphery leaf plus bcde.
        names = sorted(names_of(c) for c in enumerate_star_cliques(star))
        assert names == ["abcw", "abcx", "acy", "bcde", "cey", "dr", "dz", "es"]

    def test_structured_matches_generic(self, star):
        structured = cliques_of(enumerate_star_cliques(star, use_structure=True))
        generic = cliques_of(enumerate_star_cliques(star, use_structure=False))
        assert structured == generic

    @settings(max_examples=50)
    @given(small_graphs())
    def test_structured_matches_generic_property(self, g):
        star = extract_hstar_graph(g)
        assert cliques_of(enumerate_star_cliques(star, True)) == cliques_of(
            enumerate_star_cliques(star, False)
        )

    @settings(max_examples=40)
    @given(small_graphs())
    def test_lemma1_invariants(self, g):
        """Every H*-max-clique has >=1 core vertex and <=1 periphery vertex."""
        star = extract_hstar_graph(g)
        for clique in enumerate_star_cliques(star):
            assert len(clique & star.core) >= 1
            assert len(clique & star.periphery) <= 1


class TestTreeStructure:
    def test_insert_and_contains(self, star):
        tree = CliqueTree.for_star(star)
        clique = frozenset(sorted(star.core)[:2])
        assert tree.insert(clique) is True
        assert tree.insert(clique) is False
        assert clique in tree

    def test_empty_clique_rejected(self, star):
        with pytest.raises(GraphError):
            CliqueTree.for_star(star).insert(frozenset())

    def test_remove_prunes_nodes(self, star):
        tree = CliqueTree.for_star(star)
        a, b = sorted(star.core)[:2]
        tree.insert({a, b})
        nodes_before = tree.num_nodes
        assert tree.remove({a, b}) is True
        assert tree.num_nodes == 1  # only the root remains
        assert nodes_before == 3

    def test_remove_missing_returns_false(self, star):
        tree = CliqueTree.for_star(star)
        assert tree.remove({1, 2}) is False

    def test_shared_prefix_shares_nodes(self, star):
        tree = CliqueTree.for_star(star)
        a, b, c = sorted(star.core)[:3]
        tree.insert({a, b})
        tree.insert({a, c})
        # root + a + b + c = 4 nodes, prefix `a` shared
        assert tree.num_nodes == 4

    def test_remove_keeps_shared_prefix(self, star):
        tree = CliqueTree.for_star(star)
        a, b, c = sorted(star.core)[:3]
        tree.insert({a, b})
        tree.insert({a, c})
        tree.remove({a, b})
        assert {a, c} in tree
        assert tree.num_nodes == 3

    def test_periphery_ranks_after_core(self, star):
        tree = CliqueTree.for_star(star)
        core_vertex = max(star.core)
        periphery_vertex = min(star.periphery)
        assert tree.rank_key(core_vertex) < tree.rank_key(periphery_vertex)

    def test_cliques_containing(self, star):
        tree, _ = build_clique_tree(star)
        a = min(star.core)
        for clique in tree.cliques_containing([a]):
            assert a in clique

    def test_release_returns_memory(self, star):
        memory = MemoryModel()
        tree, _ = build_clique_tree(star, memory=memory)
        assert memory.in_use_units == tree.num_nodes
        tree.release()
        assert memory.in_use_units == 0

    def test_memory_charged_per_node(self, star):
        memory = MemoryModel()
        tree, _ = build_clique_tree(star, memory=memory)
        assert memory.in_use_units == tree.num_nodes


class TestLemma2:
    def test_periphery_only_leaves(self, star):
        tree, _ = build_clique_tree(star)
        for clique in tree.cliques():
            *core_part, leaf = tree.ordered(clique)
            if leaf not in star.core:
                assert leaf in star.periphery
                assert set(core_part) <= star.core

    def test_root_children_are_core(self, star):
        tree, _ = build_clique_tree(star)
        for clique in tree.cliques():
            first = tree.ordered(clique)[0]
            assert first in star.core


class TestPeripheryLeafOrder:
    @staticmethod
    def clique_walk_order(tree, core):
        """The order the per-clique walk gave: each stored clique in DFS
        order, re-sorted by ``≺``, its last vertex kept when it is a
        periphery vertex, first occurrence wins."""
        order: list[int] = []
        for clique in tree.cliques():
            last = tree.ordered(clique)[-1]
            if last not in core and last not in order:
                order.append(last)
        return order

    def test_figure1(self, star):
        tree, _ = build_clique_tree(star)
        assert names_of(tree.periphery_leaf_order()) == names_of(star.periphery)
        assert tree.periphery_leaf_order() == self.clique_walk_order(tree, star.core)

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_node_walk_matches_the_clique_walk(self, family, seed):
        star = extract_hstar_graph(GRAPHS[family](seed))
        tree, _ = build_clique_tree(star)
        order = tree.periphery_leaf_order()
        assert order
        assert order == self.clique_walk_order(tree, star.core)


class TestAnchorCliques:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_the_kernel(self, family, size):
        star = extract_hstar_graph(GRAPHS[family](size))
        compact = star.core_compact()
        core = sorted(star.core)
        for start in range(0, len(core) - size + 1, max(1, len(core) // 12)):
            anchors = set(core[start : start + size])
            expected = list(
                maximal_cliques_bitset(compact, compact.subset_mask(anchors))
            )
            assert list(anchor_cliques(compact, anchors)) == expected

    def test_single_anchor_skips_the_kernel(self, star, live_metrics):
        from repro.metrics import counter_value

        compact = star.core_compact()
        v = min(star.core)
        assert list(anchor_cliques(compact, {v})) == [frozenset({v})]
        assert counter_value(
            live_metrics.snapshot(), "repro_kernel_subproblems_total"
        ) == 0


class TestBuild:
    def test_tree_holds_exactly_the_star_cliques(self, star):
        tree, _ = build_clique_tree(star)
        assert cliques_of(tree.cliques()) == cliques_of(enumerate_star_cliques(star))

    def test_core_maximal_marking(self, star):
        tree, core_maximal = build_clique_tree(star)
        assert {names_of(k) for k in core_maximal} == {"abc", "bcde"}
        for kernel in core_maximal:
            assert tree.is_core_maximal(kernel)

    def test_build_from_cliques_equivalent(self, star):
        built, mh1 = build_clique_tree(star)
        seeded, mh2 = build_clique_tree_from_cliques(star, list(built.cliques()))
        assert cliques_of(seeded.cliques()) == cliques_of(built.cliques())
        assert mh1 == mh2
        assert seeded.num_nodes == built.num_nodes

    def test_ablation_flag_produces_same_tree(self, star):
        fast, _ = build_clique_tree(star, use_structure=True)
        slow, _ = build_clique_tree(star, use_structure=False)
        assert cliques_of(fast.cliques()) == cliques_of(slow.cliques())
