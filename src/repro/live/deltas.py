"""Clique add/remove deltas for single edge updates.

The paper's Section 5 maintains ``T_H*`` — the clique tree of the
H*-graph — under edge updates; serving the *full* maximal-clique result
live additionally needs the update's effect on ``M(G)`` itself.  That
effect is local (Das et al., arXiv 2001.11433, compute it in parallel
from exactly this case analysis).

Both rules read only ``NB = N(u) ∩ N(v)`` in the *updated* graph
(removing or adding the edge itself does not change it) and the
neighbour sets of the endpoints and of ``NB``'s members.  Let
``kernels = maxCL(G[NB])`` — computed by the shared bitmask resolver
:func:`repro.kernel.induced_maximal_cliques` — or the one empty kernel
when ``NB`` is empty.

* **Insertion of (u, v).**  The new maximal cliques are ``K ∪ {u, v}``
  for every kernel ``K``.  The cliques that stop being maximal are the
  ``K ∪ {x}`` (``x`` an endpoint, ``y`` the other) that were maximal
  before the edge: exactly those for which no ``w ∈ N(x) − NB − {y}``
  is adjacent to all of ``K`` (a vertex of ``NB`` cannot extend a
  kernel, and ``y`` was not a neighbour of ``x``).  For the empty
  kernel that reads "``x`` was isolated", i.e. ``N(x) = {y}``; only
  then is the clique set consulted, because an endpoint this very
  event created never had a singleton clique.
* **Deletion of (u, v).**  The dead cliques are ``K ∪ {u, v}`` for every
  kernel, read off ``NB`` without consulting the clique set.  Their
  halves ``K ∪ {u}`` and ``K ∪ {v}`` are the only candidate new maximal
  cliques; ``K ∪ {x}`` survives iff no ``w ∈ N(x) − NB`` is adjacent to
  all of ``K``.

So one update costs time local to the endpoints' neighbourhoods —
never a fresh enumeration and, apart from the singleton case, no
clique-set read.  Removals come first, then additions, each group in
ascending order.  ``tests/live/test_differential.py`` pins the contract:
replaying any stream through these deltas reproduces exactly the
maximal cliques of the final graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import GraphError
from repro.kernel import induced_maximal_cliques

#: Delta kinds, in wire/WAL order.
ADD = "add"
REMOVE = "remove"


@dataclass(frozen=True)
class CliqueDelta:
    """One maximal clique entering (``add``) or leaving (``remove``) ``M(G)``.

    ``seq`` is the store-assigned log sequence number; deltas produced by
    the compute functions below carry ``seq=0`` until the live store
    stamps them during the WAL append.
    """

    kind: str
    vertices: tuple[int, ...]
    seq: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (ADD, REMOVE):
            raise GraphError(f"unknown delta kind {self.kind!r}")
        if not self.vertices:
            raise GraphError("a clique delta needs at least one vertex")

    def stamped(self, seq: int) -> "CliqueDelta":
        """This delta with its log sequence number assigned."""
        return CliqueDelta(kind=self.kind, vertices=self.vertices, seq=seq)


#: Callback answering "which current maximal cliques contain vertex v?"
#: with materialised vertex tuples (the live store's overlay view).
CliqueLookup = Callable[[int], Iterable[Sequence[int]]]


def insert_edge_deltas(
    graph, u: int, v: int, lookup: CliqueLookup
) -> list[CliqueDelta]:
    """Deltas for the insertion of edge ``(u, v)``.

    ``graph`` is the adjacency *after* the insertion (duck-typed:
    ``neighbors(v)`` returning a set); ``lookup`` answers against the
    clique set *before* it and is asked only about an endpoint whose sole
    neighbour is the other endpoint (the singleton case).  Removals
    precede additions, each in ascending order, so a replay never holds
    two copies of a subsumed clique.
    """
    common = graph.neighbors(u) & graph.neighbors(v)
    kernels = _kernels(graph, common)
    removals: list[tuple[int, ...]] = []
    for x, y in ((u, v), (v, u)):
        outside = graph.neighbors(x) - common
        outside.discard(y)
        for kernel in kernels:
            if _extended(graph, outside, kernel):
                continue  # kernel ∪ {x} was not maximal before the edge
            if kernel:
                removals.append(tuple(sorted(kernel | {x})))
            elif any(len(clique) == 1 for clique in lookup(x)):
                removals.append((x,))
    additions = sorted(tuple(sorted(kernel | {u, v})) for kernel in kernels)
    return [CliqueDelta(REMOVE, members) for members in sorted(removals)] + [
        CliqueDelta(ADD, members) for members in additions
    ]


def delete_edge_deltas(
    graph, u: int, v: int, lookup: CliqueLookup
) -> list[CliqueDelta]:
    """Deltas for the deletion of edge ``(u, v)``.

    ``graph`` is the adjacency *after* the deletion.  The dead cliques
    are ``K ∪ {u, v}`` for each kernel ``K`` of the (unchanged) common
    neighbourhood, so ``lookup`` is never consulted; it is accepted for
    symmetry with :func:`insert_edge_deltas`.
    """
    common = graph.neighbors(u) & graph.neighbors(v)
    kernels = _kernels(graph, common)
    dead = sorted(tuple(sorted(kernel | {u, v})) for kernel in kernels)
    survivors: list[tuple[int, ...]] = []
    for x in (u, v):
        outside = graph.neighbors(x) - common
        for kernel in kernels:
            if not _extended(graph, outside, kernel):
                survivors.append(tuple(sorted(kernel | {x})))
    return [CliqueDelta(REMOVE, members) for members in dead] + [
        CliqueDelta(ADD, members) for members in sorted(survivors)
    ]


def _kernels(graph, common: set[int]) -> list[frozenset[int]]:
    """``maxCL(G[common])``, or the one empty kernel when ``common`` is empty."""
    if not common:
        return [frozenset()]
    return induced_maximal_cliques({w: graph.neighbors(w) for w in common}, common)


def _extended(graph, outside: set[int], kernel: frozenset[int]) -> bool:
    """Whether some vertex of ``outside`` is adjacent to all of ``kernel``.

    No vertex of the common neighbourhood can extend a kernel (kernels
    are maximal there), so with ``outside = N(x) − NB`` (less the other
    endpoint) this decides whether ``kernel ∪ {x}`` is maximal.
    """
    candidates = outside
    for w in kernel:
        if not candidates:
            return False
        candidates = candidates & graph.neighbors(w)
    return bool(candidates)
