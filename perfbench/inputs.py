"""Seeded input generation: the program receives only what is built here.

Every function is a pure function of its arguments, so the same
``--seed`` gives byte-identical edge lists, event streams and query mixes.

The graph structures and the live event stream are pinned
(:data:`POWERLAW_SEED`, :data:`COMMUNITY_SEED`, :data:`STREAM_SEED`);
``--seed`` orders the unordered edge list the converter receives and
drives the read-query streams.
Measured on this code, ExtMCE's cost moves 16x across community graphs
drawn from different generator seeds and about 20% across power-law
graphs, and relabelling one graph's vertices moves it nearly as much
(vertex ids break ties in the h-core and the L*-graph choice).  Run-to-run
spread across seeds would then measure the inputs, not the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.generators.communities import defective_clique_communities
from repro.generators.scale_free import powerlaw_cluster_edges
from repro.graph import AdjacencyGraph


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale."""

    powerlaw_vertices: int  # batch_powerlaw graph (Holme-Kim, m=5, p=0.7)
    memory_budget_units: int  # ExtMCE budget on batch_powerlaw
    sort_runs: int  # external-sort runs the converter spills on batch_powerlaw
    community_vertices: int  # near-clique blocks of batch_communities
    community_min: int
    community_max: int
    fringe_vertices: int  # degree-1/2 preferential fringe of batch_communities
    serve_vertices: int  # serve_read indexed graph (Holme-Kim, m=5, p=0.7)
    live_vertices: int  # live_mixed bootstrap graph (Holme-Kim, m=5, p=0.7)
    live_events: int  # events per live_mixed stream segment


SIZES = {
    "full": Sizes(
        powerlaw_vertices=4_000, memory_budget_units=5_000, sort_runs=6,
        community_vertices=300, community_min=14, community_max=22,
        fringe_vertices=300, serve_vertices=10_000, live_vertices=2_000,
        live_events=3_000,
    ),
    # For the benchmark's own smoke test: every code path, in seconds.
    "tiny": Sizes(
        powerlaw_vertices=600, memory_budget_units=1_500, sort_runs=3,
        community_vertices=80, community_min=8, community_max=12,
        fringe_vertices=40, serve_vertices=600, live_vertices=150,
        live_events=150,
    ),
}

DELETE_SHARE = 0.25
WORKERS = 2
#: Generator seed of every power-law graph (the repository's scaling sweeps use 99).
POWERLAW_SEED = 99
#: Generator seed of the community graph (the index smoke benchmark's graph).
COMMUNITY_SEED = 7
#: Seed of live_mixed's insert/delete stream (its clique deltas set the work).
STREAM_SEED = 11


def shuffled(edges: list[tuple[int, int]], seed: int) -> list[tuple[int, int]]:
    """``edges`` in the order ``seed`` picks: the unordered input edge list."""
    order = list(edges)
    random.Random(seed * 7919 + 1).shuffle(order)
    return order


def powerlaw_edges(num_vertices: int) -> list[tuple[int, int]]:
    """Holme-Kim power-law cluster edges (m=5, p=0.7), creation order."""
    return powerlaw_cluster_edges(num_vertices, 5, 0.7, seed=POWERLAW_SEED)


def community_edges(sizes: Sizes) -> list[tuple[int, int]]:
    """Near-clique blocks over a preferential background, plus a fringe.

    The blocks are the ``defective_clique_communities`` graph the index
    smoke benchmark uses (4 defects, 2 background edges per vertex); the
    fringe of degree-1/2 vertices attaches preferentially, in the style of
    ``fringed_clique_communities``, so that reduction has work to do.
    """
    graph = defective_clique_communities(
        sizes.community_vertices, seed=COMMUNITY_SEED,
        community_min=sizes.community_min, community_max=sizes.community_max,
        defects=4, background_edges=2,
    )
    rng = random.Random(COMMUNITY_SEED)
    urn = [v for v in sorted(graph.vertices()) for _ in range(graph.degree(v))]
    first = sizes.community_vertices
    for v in range(first, first + sizes.fringe_vertices):
        graph.add_vertex(v)
        for u in sorted({rng.choice(urn) for _ in range(rng.randint(1, 2))}):
            graph.add_edge(u, v)
            urn.append(u)
        urn.append(v)
    return sorted(graph.edges())


def edge_stream(graph: AdjacencyGraph, num_events: int) -> list[tuple]:
    """Insert/delete events over ``graph`` in the live-ingest wire format.

    A quarter of the events delete an edge that exists at that point of
    the stream; the rest insert a new edge from a degree-weighted endpoint
    to a uniform one, so hubs keep growing.
    """
    rng = random.Random(STREAM_SEED)
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    present = set(edges)
    urn = [v for v in vertices for _ in range(graph.degree(v))]
    events: list[tuple] = []
    while len(events) < num_events:
        if rng.random() < DELETE_SHARE:
            index = rng.randrange(len(edges))
            edge = edges[index]
            edges[index] = edges[-1]
            edges.pop()
            present.discard(edge)
            events.append((len(events), "delete", *edge))
            continue
        u, v = rng.choice(urn), rng.choice(vertices)
        edge = (min(u, v), max(u, v))
        if u == v or edge in present:
            continue
        present.add(edge)
        edges.append(edge)
        urn.extend(edge)
        events.append((len(events), "insert", *edge))
    return events


#: serve_read's point-query mix: the four point operations, equally often.
SERVE_CYCLE = (
    ("cliques_containing", 1),
    ("cliques_containing_edge", 1),
    ("clique", 1),
    ("membership", 1),
)
#: serve_read's scheduled top-k client.
TOPK_CYCLE = (("top_k_largest", 1),)
#: live_mixed's reader: point lookups only.
LIVE_CYCLE = (("cliques_containing", 1),)


class QueryMix:
    """Skewed read queries: a vertex is asked for in proportion to its degree.

    Operations come in cycles holding each ``(op, count)`` of ``cycle``
    exactly ``count`` times, in a seeded order.  Vertex arguments are the
    endpoints of the graph's edges (the same degree urn :func:`edge_stream`
    draws from), so hubs are hot by the graph's own degree law and no
    skew constant is chosen here.  The urn is drawn without replacement
    and reshuffled when empty, so every seed asks for each vertex equally
    often and differs only in order and in the other arguments.  An edge
    query pairs such a vertex with a uniform neighbour: a uniform edge.
    """

    def __init__(
        self, graph: AdjacencyGraph, cliques: list[tuple[int, ...]], seed: int,
        cycle: tuple[tuple[str, int], ...],
    ) -> None:
        self._cycle = [op for op, count in cycle for _ in range(count)]
        self._pending: list[str] = []
        vertices = sorted(graph.vertices())
        self._urn = [v for v in vertices for _ in range(graph.degree(v))]
        self._pending_urn: list[int] = []
        self._neighbors = {v: sorted(graph.neighbors(v)) for v in vertices}
        self._cliques = cliques
        self._rng = random.Random(seed)

    def vertex(self) -> int:
        if not self._pending_urn:
            self._pending_urn = list(self._urn)
            self._rng.shuffle(self._pending_urn)
        return self._pending_urn.pop()

    def next(self) -> tuple[str, dict]:
        rng = self._rng
        if not self._pending:
            self._pending = list(self._cycle)
            rng.shuffle(self._pending)
        op = self._pending.pop()
        if op == "top_k_largest":
            return op, {"k": rng.randint(1, 10)}
        if op == "cliques_containing":
            return op, {"v": self.vertex()}
        if op == "cliques_containing_edge":
            u = self.vertex()  # drawn from the degree urn: it has a neighbour
            neighbors = self._neighbors[u]
            return op, {"u": u, "v": neighbors[rng.randrange(len(neighbors))]}
        clique_id = rng.randrange(len(self._cliques))
        if op == "clique":
            return op, {"clique_id": clique_id}
        members = self._cliques[clique_id]
        return op, {"vertices": sorted(rng.sample(members, min(2, len(members))))}
