"""The H*-graph and its relatives (paper Section 3).

A :class:`StarGraph` is the in-memory object ExtMCE keeps per recursion
step: a *core* vertex set (the h-vertices ``H`` in step 1, the random set
``L`` afterwards) together with the full neighbor list of every core
vertex.  Those lists encode exactly the edges of the paper's star graph
``G_H* = (H+, E_HH ∪ E_HHnb)`` — every edge incident to at least one core
vertex — while the edges *among* periphery vertices stay on disk
(Definition 6; they are fetched later through
:class:`~repro.storage.partitions.HnbPartitionStore`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import GraphError
from repro.graph.adjacency import AdjacencyGraph
from repro.core.hindex import HVertexResult, compute_h_vertices_of_disk, compute_h_vertices_of_graph

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.diskgraph import DiskGraph
    from repro.storage.memory import MemoryModel


@dataclass(frozen=True)
class StarGraph:
    """Core vertices plus their complete neighbor lists.

    Attributes
    ----------
    core:
        The paper's ``H`` (or ``L`` in recursive steps).
    neighbor_lists:
        ``nb(v)`` in the (residual) graph for every ``v`` in the core —
        the paper's ``NB_H``, the output of Algorithm 1.
    h:
        The h-index when the core is an h-vertex set; for L*-graphs this
        is simply ``|core|``.
    """

    core: frozenset[int]
    neighbor_lists: Mapping[int, frozenset[int]]
    h: int = field(default=-1)
    original_degrees: Mapping[int, int] | None = field(default=None)

    def __post_init__(self) -> None:
        if set(self.neighbor_lists) != set(self.core):
            raise GraphError("neighbor_lists must cover exactly the core vertices")
        if self.h < 0:
            object.__setattr__(self, "h", len(self.core))

    def original_degree(self, vertex: int) -> int:
        """Degree of a core vertex in the *original* graph ``G``.

        Falls back to the current neighbor-list length, which is exact in
        the first recursion step (nothing has been removed yet).  The
        singleton rule of Section 4.3 — ``{v}`` is maximal only when
        ``d(v) = 0`` in ``G`` — depends on this.
        """
        if self.original_degrees is not None and vertex in self.original_degrees:
            return self.original_degrees[vertex]
        return len(self.neighbor_lists[vertex])

    # ------------------------------------------------------------------
    # Derived vertex sets (Definitions 2-3)
    # ------------------------------------------------------------------
    @property
    def periphery(self) -> frozenset[int]:
        """``Hnb``: neighbors of core vertices that are not core (Def. 2)."""
        members: set[int] = set()
        for neighbors in self.neighbor_lists.values():
            members.update(neighbors)
        return frozenset(members - self.core)

    @property
    def extended(self) -> frozenset[int]:
        """``H+ = H ∪ Hnb`` (Definition 3)."""
        return self.core | self.periphery

    # ------------------------------------------------------------------
    # Derived graphs (Definitions 4-6)
    # ------------------------------------------------------------------
    def core_graph(self) -> AdjacencyGraph:
        """``G_H``: the subgraph induced by the core (Definition 4)."""
        graph = AdjacencyGraph()
        for v in self.core:
            graph.add_vertex(v)
        for v in self.core:
            for u in self.neighbor_lists[v] & self.core:
                graph.add_edge(v, u)
        return graph

    def star_graph(self) -> AdjacencyGraph:
        """``G_H*``: core, periphery, and all edges incident to the core
        (Definition 6).  Periphery-periphery edges are deliberately absent.
        """
        graph = AdjacencyGraph()
        for v in self.core:
            graph.add_vertex(v)
            for u in self.neighbor_lists[v]:
                graph.add_edge(v, u)
        return graph

    def core_compact(self):
        """``G_H`` as a :class:`~repro.kernel.compact.CompactGraph`.

        The bitset construction/enumeration paths build this once per
        step and then carve per-anchor subproblems out of it with subset
        masks, instead of materialising an induced ``AdjacencyGraph`` per
        periphery vertex.  Its CSR arrays are also the parallel engine's
        worker payload (:func:`repro.parallel.partition.serialize_star`).
        """
        from repro.kernel import CompactGraph

        return CompactGraph.from_neighbor_lists(
            {v: self.neighbor_lists[v] & self.core for v in self.core}
        )

    def core_neighbors(self, vertex: int) -> frozenset[int]:
        """``nb(v) ∩ H`` for a core vertex."""
        return self.neighbor_lists[vertex] & self.core

    def periphery_neighbors(self, vertex: int) -> frozenset[int]:
        """``nb(v) \\ H`` for a core vertex: its h-neighbors."""
        return self.neighbor_lists[vertex] - self.core

    def common_periphery(self, core_subset: Iterable[int]) -> frozenset[int]:
        """``HNB(X)``: periphery vertices adjacent to *every* member of
        ``core_subset`` (paper Table 1).  Empty input yields the whole
        periphery, matching the universal-intersection convention.
        """
        members = list(core_subset)
        if not members:
            return self.periphery
        common = set(self.periphery_neighbors(members[0]))
        for v in members[1:]:
            common &= self.periphery_neighbors(v)
            if not common:
                break
        return frozenset(common)

    def adjacent_in_star(self, a: int, b: int) -> bool:
        """Whether ``(a, b)`` is an edge of ``G_H*``.

        Periphery-periphery pairs are never adjacent here even if the edge
        exists in ``G`` — that edge belongs to ``G_Hnb`` and lives on disk.
        """
        if a in self.core:
            return b in self.neighbor_lists[a]
        if b in self.core:
            return a in self.neighbor_lists[b]
        return False

    # ------------------------------------------------------------------
    # Sizes (Section 3.2)
    # ------------------------------------------------------------------
    @property
    def size_edges(self) -> int:
        """``|G_H*|``: number of edges incident to at least one core vertex."""
        directed = sum(len(nbrs) for nbrs in self.neighbor_lists.values())
        internal = self.core_edge_count
        return directed - internal

    @property
    def core_edge_count(self) -> int:
        """``|G_H|``: number of core-core edges."""
        return (
            sum(len(self.neighbor_lists[v] & self.core) for v in self.core) // 2
        )

    @property
    def memory_units(self) -> int:
        """Accounting units to keep this structure resident: one per core
        vertex plus one per stored neighbor id (``O(|G_H*|)``)."""
        return sum(1 + len(nbrs) for nbrs in self.neighbor_lists.values())

    def restricted_to(self, kept_core: Iterable[int]) -> "StarGraph":
        """A smaller star graph on a core subset (the Section 4.1.3 shrink).

        Dropped core vertices leave the core entirely; if they remain
        adjacent to kept core vertices they become periphery, exactly as
        when the paper removes the lowest-degree vertices from ``H``.
        """
        kept = frozenset(kept_core)
        if not kept <= self.core:
            raise GraphError("can only restrict to a subset of the current core")
        original = None
        if self.original_degrees is not None:
            original = {v: self.original_degrees[v] for v in kept if v in self.original_degrees}
        return StarGraph(
            core=kept,
            neighbor_lists={v: self.neighbor_lists[v] for v in kept},
            h=len(kept),
            original_degrees=original,
        )


def extract_hstar_graph(
    source: "AdjacencyGraph | DiskGraph",
    memory: "MemoryModel | None" = None,
) -> StarGraph:
    """Compute the H*-graph of a graph (Algorithm 1 + Definition 6).

    Accepts an in-memory graph or a disk graph; the latter is read with a
    single metered sequential scan.
    """
    if isinstance(source, AdjacencyGraph):
        result = compute_h_vertices_of_graph(source, memory=memory)
    else:
        result = compute_h_vertices_of_disk(source, memory=memory)
    return star_graph_from_result(result)


def star_graph_from_result(result: HVertexResult) -> StarGraph:
    """Wrap Algorithm 1's output as a :class:`StarGraph`."""
    return StarGraph(
        core=result.h_vertices,
        neighbor_lists=dict(result.neighbor_lists),
        h=result.h,
    )
