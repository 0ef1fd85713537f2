"""Algorithm 2: lifting H*-max-cliques to H+-max-cliques (Section 4.2).

An H*-max-clique is maximal only *locally* in ``G_H*``.  The paper proves
(Theorem 2) that the maximal cliques of ``G_H+`` containing at least one
core vertex — the H+-max-cliques — are maximal in the whole graph ``G``,
and computes them from ``T_H*`` in three disjoint categories:

* ``M1`` (Lemma 4): cliques of core vertices only — the members of ``M_H``
  with no common periphery neighbor.
* ``M2`` (Lemma 5): ``C1 ∪ C2`` where ``C1 ∈ M_H`` has common periphery
  neighbors and ``C2`` is a maximal clique of the subgraph induced by
  ``HNB(C1)`` (fetched from the on-disk h-neighbor partitions).
* ``M3`` (Lemma 6): ``C1 ∪ C2`` where ``C1`` is a *non-maximal* core
  clique from the candidate set ``X`` of Eq. (10) and ``C2 ∈ EXT(C1)``
  per Eq. (11).

Two implementation notes, both verified against brute force by the tests:

1. Eq. (10)'s subsumption condition ("no proper superset with the same
   ``HNB``") reduces to a *single-vertex* test: ``C1`` survives iff every
   common core neighbor ``u`` of ``C1`` strictly shrinks the periphery
   intersection (``HNB(C1 ∪ {u}) ⊊ HNB(C1)``).  If a larger superset had
   equal ``HNB``, any intermediate one-vertex extension would too, since
   ``HNB`` is antitone.
2. Eq. (11)'s two maximality clauses are exactly "no core vertex extends
   ``C1 ∪ C2``": a periphery extension is impossible because ``C2`` is
   already maximal within ``HNB(C1)``, so the direct neighborhood test
   against the star graph's lists decides membership.

All three phases read one :class:`StarMasks` view of the step's star
graph, built once per :func:`compute_core_plus_max_cliques` call.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Protocol

from repro.graph.adjacency import AdjacencyGraph
from repro.core.hstar import StarGraph
from repro.kernel import induced_maximal_cliques

Clique = frozenset


class PeripheryAdjacency(Protocol):
    """Provider of adjacency among periphery vertices.

    Satisfied by :class:`~repro.storage.partitions.HnbPartitionStore`
    (disk-backed, the paper's Section 4.2.3 machinery) and by
    :class:`InMemoryPeripheryAdjacency` (tests, dynamic maintenance).
    """

    def neighbor_sets(self, vertices: Iterable[int]) -> Mapping[int, Collection[int]]:
        """``vertex -> neighbours`` for each of ``vertices`` (the phase-2 input)."""
        ...  # pragma: no cover - protocol

    def induced_subgraph(self, vertices: Iterable[int]) -> AdjacencyGraph:
        """Subgraph induced on ``vertices`` by periphery-periphery edges."""
        ...  # pragma: no cover - protocol


class InMemoryPeripheryAdjacency:
    """Periphery adjacency served from an in-memory graph."""

    def __init__(self, graph: AdjacencyGraph) -> None:
        self._graph = graph

    def neighbor_sets(self, vertices: Iterable[int]) -> dict[int, Collection[int]]:
        """Each vertex's neighbours in the graph (raises for unknown ones)."""
        return {v: self._graph.neighbors(v) for v in vertices}

    def induced_subgraph(self, vertices: Iterable[int]) -> AdjacencyGraph:
        """Delegate to :meth:`AdjacencyGraph.induced_subgraph`."""
        return self._graph.induced_subgraph(vertices)


@dataclass
class CategorizedCliques:
    """The three disjoint H+-max-clique categories of Section 4.2.2."""

    m1: list[Clique] = field(default_factory=list)
    m2: list[Clique] = field(default_factory=list)
    m3: list[Clique] = field(default_factory=list)

    def all_cliques(self) -> Iterator[Clique]:
        """Iterate ``M1 ∪ M2 ∪ M3`` — the full ``M_H+`` (Theorem 3)."""
        yield from self.m1
        yield from self.m2
        yield from self.m3

    @property
    def total(self) -> int:
        """``|M_H+|``."""
        return len(self.m1) + len(self.m2) + len(self.m3)


#: Phase-2 strategy: maps the ordered distinct ``HNB`` sets to the maximal
#: cliques of their induced periphery subgraphs.  The default is the serial
#: loop of :func:`resolve_hnb_cliques`; :class:`repro.parallel.driver.
#: ParallelExtMCE` injects a fan-out over a worker pool.
HnbResolver = Callable[
    [list[Clique], PeripheryAdjacency], dict[Clique, list[Clique]]
]


class StarMasks:
    """Bitmask view of one step's star graph, shared by all of Algorithm 2.

    Core vertices get bits in ascending id order, so walking a core mask
    from its low bit up visits them in ``sorted`` order; periphery vertices
    get bits of their own.  ``cm[i]`` is the core-neighbour mask of core
    bit ``i`` and ``pm[i]`` its periphery mask, so every intersection the
    lift needs — ``HNB``, extenders, blockers, Eq. (11) coverage — is one
    ``&`` on Python ints.  Sets are decoded to frozensets only for output.
    """

    def __init__(self, star: StarGraph) -> None:
        self.core_ids = sorted(star.core)
        self.periphery_ids = sorted(star.periphery)
        self._row = {v: i for i, v in enumerate(self.core_ids)}
        self._core_bit = {v: 1 << i for v, i in self._row.items()}
        self._periphery_bit = {v: 1 << i for i, v in enumerate(self.periphery_ids)}
        self.all_core = (1 << len(self.core_ids)) - 1
        self.all_periphery = (1 << len(self.periphery_ids)) - 1
        self.cm = [self._mask(star.neighbor_lists[v], self._core_bit) for v in self.core_ids]
        self.pm = [self._mask(star.neighbor_lists[v], self._periphery_bit) for v in self.core_ids]

    @staticmethod
    def _mask(vertices: Iterable[int], bit_of: dict[int, int]) -> int:
        mask = 0
        for v in vertices:
            mask |= bit_of.get(v, 0)
        return mask

    def _meet(self, core_clique: Iterable[int], masks: list[int], mask: int) -> int:
        for v in core_clique:
            mask &= masks[self._row[v]]
        return mask

    def hnb(self, core_clique: Iterable[int]) -> int:
        """Mask of ``HNB(C)`` (whole periphery for an empty ``C``)."""
        return self._meet(core_clique, self.pm, self.all_periphery)

    def blockers(self, core_clique: Iterable[int]) -> int:
        """Mask of the core vertices adjacent to every member of ``C``."""
        return self._meet(core_clique, self.cm, self.all_core)

    def extendable(self, blockers: int, extension: Iterable[int]) -> bool:
        """Eq. (11): whether a blocker is adjacent to all of ``extension``."""
        wanted = self._mask(extension, self._periphery_bit)
        while blockers:
            bit = blockers.bit_length() - 1
            if wanted & self.pm[bit] == wanted:
                return True
            blockers ^= 1 << bit
        return False

    def x_candidates(self) -> Iterator[tuple[Clique, Clique]]:
        """The set ``X`` of Eq. (10) as ``(C1, HNB(C1))`` pairs.

        Depth-first over core cliques in ascending-id set order: a node
        carries its kernel, ``HNB`` mask, extenders (common core neighbours
        above its last vertex) and blockers (all common core neighbours,
        narrowed incrementally as ``blockers & cm[v]``).  A blocker ``u``
        with ``HNB ⊆ pm[u]`` subsumes the node.  Two kinds of subtree hold
        no candidate and are skipped: one whose ``HNB`` is empty, and one
        with a subsuming blocker adjacent to every extender (so not itself
        an extender) — that blocker stays a blocker of every clique in the
        subtree, whose ``HNB`` only shrinks.  Children are pushed high bit
        first, so the stack pops them in ascending order and the yield
        order is the preorder of the ordered set enumeration.
        """
        cm, pm = self.cm, self.pm
        stack = [(0, self.all_periphery, self.all_core, self.all_core)]
        while stack:
            kernel, shared, extenders, blockers = stack.pop()
            if kernel:
                subsumed = pruned = False
                rest = blockers
                while rest and not pruned:
                    bit = rest.bit_length() - 1
                    rest ^= 1 << bit
                    if shared & pm[bit] == shared:
                        subsumed = True
                        pruned = extenders & cm[bit] == extenders
                if pruned:
                    continue
                if blockers and not subsumed:
                    yield _decode(kernel, self.core_ids), _decode(shared, self.periphery_ids)
            above = 0
            while extenders:
                bit = extenders.bit_length() - 1
                low = 1 << bit
                extenders ^= low
                next_shared = shared & pm[bit]
                if next_shared:
                    stack.append(
                        (kernel | low, next_shared, above & cm[bit], blockers & cm[bit])
                    )
                above |= low


def _decode(mask: int, ids: list[int]) -> Clique:
    members = []
    while mask:
        low = mask & -mask
        members.append(ids[low.bit_length() - 1])
        mask ^= low
    return frozenset(members)


def collect_lift_items(
    masks: StarMasks,
    core_maximal: set[Clique],
) -> tuple[list[Clique], list[tuple[Clique, Clique]], list[tuple[Clique, Clique]]]:
    """Phase 1 of Algorithm 2: the in-memory work items.

    Returns ``(m1, m2_items, m3_items)`` without touching the disk: ``M1``
    is final already (Lemma 4); the item lists pair each kernel with its
    ``HNB`` set for the disk-backed phases (Lemmas 5-6).
    """
    m1: list[Clique] = []
    m2_items: list[tuple[Clique, Clique]] = []
    for kernel in sorted(core_maximal, key=sorted):
        shared = masks.hnb(kernel)
        if not shared:
            m1.append(kernel)
        else:
            m2_items.append((kernel, _decode(shared, masks.periphery_ids)))
    m3_items = list(masks.x_candidates())
    return m1, m2_items, m3_items


def ordered_distinct_hnb(
    items: Iterable[tuple[Clique, Clique]],
    periphery_adjacency: PeripheryAdjacency,
) -> list[Clique]:
    """The distinct ``HNB`` sets of ``items`` in resolution order.

    Sets are grouped by covering partition so each spill file is loaded
    once per batch (the locality the paper gets from ordering h-neighbor
    leaves by DFS traversal, Section 4.2.3); adjacency providers without
    partitions fall back to a plain lexicographic order.  The order is a
    pure function of the work items — never of worker count — which is
    what keeps parallel runs byte-identical to serial ones.
    """
    distinct = {shared for _, shared in items}
    partition_key = getattr(periphery_adjacency, "partitions_for", None)
    if partition_key is not None:
        return sorted(distinct, key=lambda s: (sorted(partition_key(s)), sorted(s)))
    return sorted(distinct, key=sorted)


def resolve_hnb_cliques(
    ordered: list[Clique],
    periphery_adjacency: PeripheryAdjacency,
) -> dict[Clique, list[Clique]]:
    """Phase 2 of Algorithm 2, serial strategy: ``maxCL(G[HNB])`` per set.

    Each set's neighbour sets come straight from the provider (for the
    disk store: the resident partitions, loaded in first-appearance
    order through its LRU) into the bitmask resolver
    :func:`~repro.kernel.induced_maximal_cliques`; the parallel lift
    workers call the same function.  Per-set lists are identical for
    either enumeration kernel, so the step's kernel choice does not
    reach this phase.
    """
    return {
        shared: induced_maximal_cliques(
            periphery_adjacency.neighbor_sets(shared), shared
        )
        for shared in ordered
    }


def assemble_categories(
    masks: StarMasks,
    m1: list[Clique],
    m2_items: list[tuple[Clique, Clique]],
    m3_items: list[tuple[Clique, Clique]],
    max_cliques_of: dict[Clique, list[Clique]],
) -> CategorizedCliques:
    """Phase 3 of Algorithm 2: combine kernels with their extensions."""
    result = CategorizedCliques(m1=list(m1))
    for core_clique, shared in m2_items:
        for extension in max_cliques_of[shared]:
            result.m2.append(core_clique | extension)
    for core_clique, shared in m3_items:
        blockers = masks.blockers(core_clique)
        for extension in max_cliques_of[shared]:
            if not masks.extendable(blockers, extension):
                result.m3.append(core_clique | extension)
    return result


def compute_core_plus_max_cliques(
    star: StarGraph,
    core_maximal: set[Clique],
    periphery_adjacency: PeripheryAdjacency,
    resolver: HnbResolver | None = None,
) -> CategorizedCliques:
    """Compute ``M_H+ = M1 ∪ M2 ∪ M3`` (Algorithm 2).

    Parameters
    ----------
    star:
        The current step's star graph (``G_H*`` or ``G_L*``).
    core_maximal:
        ``M_H``: the maximal cliques of the core graph, as returned by
        :func:`~repro.core.clique_tree.build_clique_tree`.
    periphery_adjacency:
        Access to edges among periphery vertices (on disk in the real
        algorithm; the star graph does not store them).
    resolver:
        Optional phase-2 strategy override (see :data:`HnbResolver`);
        defaults to the serial :func:`resolve_hnb_cliques`.
    """
    masks = StarMasks(star)
    m1, m2_items, m3_items = collect_lift_items(masks, core_maximal)
    ordered = ordered_distinct_hnb(m2_items + m3_items, periphery_adjacency)
    max_cliques_of = (resolver or resolve_hnb_cliques)(ordered, periphery_adjacency)
    return assemble_categories(masks, m1, m2_items, m3_items, max_cliques_of)


def enumerate_x_candidates(star: StarGraph) -> Iterator[tuple[Clique, Clique]]:
    """Enumerate the set ``X`` of Eq. (10) as ``(C1, HNB(C1))`` pairs.

    ``X`` holds the non-maximal core cliques with common periphery
    neighbors that are not subsumed by a one-vertex extension with the
    same ``HNB`` (see the module docstring for why one vertex suffices);
    each candidate is visited exactly once (:meth:`StarMasks.x_candidates`).
    """
    return StarMasks(star).x_candidates()
