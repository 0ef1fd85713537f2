"""The bitmask lift view against brute-force readings of Eqs. (10)-(11)."""

import pytest
from hypothesis import given, settings

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core.categories import (
    InMemoryPeripheryAdjacency,
    StarMasks,
    compute_core_plus_max_cliques,
    enumerate_x_candidates,
)
from repro.core.clique_tree import build_clique_tree
from repro.core.hstar import extract_hstar_graph
from repro.generators import defective_clique_communities, powerlaw_cluster_graph

from tests.helpers import FIGURE1_ID, figure1_graph, names_of, small_graphs


def core_cliques(star):
    """Every non-empty clique of ``G_H``, by plain recursive growth."""
    core_graph = star.core_graph()
    found = []

    def grow(clique, candidates):
        found.append(frozenset(clique))
        for v in sorted(candidates):
            if v > clique[-1]:
                grow(clique + [v], candidates & core_graph.neighbors(v))

    for v in sorted(star.core):
        grow([v], set(core_graph.neighbors(v)))
    return found


def common_core_neighbors(star, clique):
    """Core vertices adjacent to every member of ``clique``."""
    core_graph = star.core_graph()
    return {
        u for u in star.core - clique
        if all(core_graph.has_edge(u, v) for v in clique)
    }


def brute_force_x(star):
    """Eq. (10) read literally, in ascending sorted-tuple order.

    ``C1`` is a core clique with a non-empty ``HNB`` that is not maximal
    in ``G_H`` and has no proper superset clique with the same ``HNB``.
    """
    cliques = core_cliques(star)
    hnb = {c: star.common_periphery(c) for c in cliques}
    chosen = [
        c for c in cliques
        if hnb[c]
        and common_core_neighbors(star, c)
        and not any(c < d and hnb[d] == hnb[c] for d in cliques)
    ]
    return [(c, hnb[c]) for c in sorted(chosen, key=lambda c: tuple(sorted(c)))]


def check_star(graph):
    star = extract_hstar_graph(graph)
    x = list(enumerate_x_candidates(star))
    assert x == brute_force_x(star)

    masks = StarMasks(star)
    _, core_maximal = build_clique_tree(star)
    cats = compute_core_plus_max_cliques(
        star, core_maximal, InMemoryPeripheryAdjacency(graph)
    )
    expected_m3 = []
    for core_clique, shared in x:
        blockers = common_core_neighbors(star, core_clique)
        blocker_mask = masks.blockers(core_clique)
        assert blocker_mask == sum(
            1 << masks.core_ids.index(u) for u in blockers
        )
        for extension in tomita_maximal_cliques(graph.induced_subgraph(shared)):
            covered = any(extension <= star.periphery_neighbors(u) for u in blockers)
            assert masks.extendable(blocker_mask, extension) == covered
            if not covered:
                expected_m3.append(core_clique | extension)
    assert cats.m3 == expected_m3


class TestStarMasks:
    def test_common_core_neighbors(self):
        star = extract_hstar_graph(figure1_graph())
        masks = StarMasks(star)
        ab = {FIGURE1_ID[c] for c in "ab"}
        blockers = masks.blockers(ab)
        members = [v for i, v in enumerate(masks.core_ids) if blockers >> i & 1]
        assert names_of(members) == "c"

    def test_core_bits_follow_ascending_ids(self):
        star = extract_hstar_graph(figure1_graph())
        assert StarMasks(star).core_ids == sorted(star.core)


class TestXCandidatesAgainstBruteForce:
    def test_figure1(self):
        check_star(figure1_graph())

    @settings(max_examples=80, deadline=None)
    @given(small_graphs())
    def test_small_graphs(self, g):
        check_star(g)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_defective_clique_communities(self, seed):
        check_star(
            defective_clique_communities(
                60, seed=seed, community_min=6, community_max=10, defects=3
            )
        )

    def test_powerlaw_cluster_graph(self):
        check_star(powerlaw_cluster_graph(150, 3, 0.7, seed=4))
