"""Shared test utilities: reference graphs and hypothesis strategies."""

from __future__ import annotations

import contextlib
import random
import weakref

from hypothesis import strategies as st

from repro.graph.adjacency import AdjacencyGraph

# ---------------------------------------------------------------------------
# The paper's running example (Figure 1): 13 vertices, 25 edges.
# Letters map to ints in the order below; h = 5 with H = {a, b, c, d, e}.
# ---------------------------------------------------------------------------
FIGURE1_NAMES = "abcdewxyzrstq"
FIGURE1_ID = {name: index for index, name in enumerate(FIGURE1_NAMES)}
FIGURE1_NAME = {index: name for name, index in FIGURE1_ID.items()}

_FIGURE1_EDGES_BY_NAME = [
    # core (G_H): M_H = {abc, bcde}
    ("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("b", "e"),
    ("c", "d"), ("c", "e"), ("d", "e"),
    # core-periphery (E_HHnb)
    ("a", "w"), ("a", "x"), ("a", "y"),
    ("b", "w"), ("b", "x"),
    ("c", "w"), ("c", "x"), ("c", "y"),
    ("d", "r"), ("d", "z"),
    ("e", "s"), ("e", "y"),
    # periphery-periphery (G_Hnb): exactly these three per the paper
    ("w", "x"), ("s", "y"), ("r", "z"),
    # the two edges incident to q and t (outside H+)
    ("s", "t"), ("r", "q"),
]

FIGURE1_EDGES = [
    (FIGURE1_ID[u], FIGURE1_ID[v]) for u, v in _FIGURE1_EDGES_BY_NAME
]


def figure1_graph() -> AdjacencyGraph:
    """The paper's Figure 1 example graph."""
    return AdjacencyGraph.from_edges(FIGURE1_EDGES)


def names_of(clique) -> str:
    """Render a Figure 1 clique as its letter string (sorted)."""
    return "".join(sorted(FIGURE1_NAME[v] for v in clique))


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------
def seeded_gnp(n: int, p: float, seed: int) -> AdjacencyGraph:
    """Deterministic G(n, p) for tests that need specific shapes."""
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return AdjacencyGraph.from_edges(edges, vertices=range(n))


@st.composite
def small_graphs(draw, max_vertices: int = 14) -> AdjacencyGraph:
    """Hypothesis strategy: arbitrary small graphs (isolated vertices too)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return AdjacencyGraph.from_edges(chosen, vertices=range(n))


def cliques_of(iterable) -> set[frozenset]:
    """Normalise an iterable of cliques to a set of frozensets."""
    return {frozenset(c) for c in iterable}


@contextlib.contextmanager
def maintainers_built_once():
    """Fail any :class:`HStarMaintainer` that re-enumerates its star after
    construction: a core change moves single vertices instead."""
    from repro.dynamic.maintainer import HStarMaintainer

    original = HStarMaintainer._rebuild
    built: weakref.WeakSet = weakref.WeakSet()

    def rebuild_once(self):
        assert self not in built, "HStarMaintainer rebuilt its star after construction"
        built.add(self)
        original(self)

    HStarMaintainer._rebuild = rebuild_once
    try:
        yield
    finally:
        HStarMaintainer._rebuild = original
