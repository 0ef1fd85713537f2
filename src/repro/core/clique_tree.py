"""The H*-max-clique tree ``T_H*`` (paper Section 4.1).

``T_H*`` is a prefix tree over the maximal cliques of the star graph
``G_H*``, laid out along the total order ``≺`` of Definition 8 (core
vertices before periphery vertices, ids ascending within each class).
Root-to-terminal paths correspond one-to-one to H*-max-cliques; by
Lemma 1/2 a periphery vertex can only appear as a leaf and every child of
the root is a core vertex.

Construction exploits the structure the paper's two Lemma-2 optimisations
point at: because the periphery is an independent set in ``G_H*``, the
H*-max-cliques are exactly

* the maximal cliques ``K`` of the core graph ``G_H`` with no common
  periphery neighbor (``HNB(K) = ∅``), plus
* ``K ∪ {w}`` for each periphery vertex ``w`` and each maximal clique
  ``K`` of ``G_H`` restricted to ``nb(w) ∩ H``.

:func:`enumerate_star_cliques` implements that specialised enumeration;
setting ``use_structure=False`` falls back to running the generic pivoted
algorithm on ``G_H*`` (the ablation bench compares the two).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from types import SimpleNamespace
from typing import TYPE_CHECKING

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.errors import GraphError
from repro.core.hstar import StarGraph

#: Per-step ``T_H*`` construction totals (Table 3's tree-size column).
_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        trees=registry.counter(
            "repro_tree_builds_total", "clique trees assembled (one per step)"
        ),
        nodes=registry.counter(
            "repro_tree_nodes_total", "prefix-tree nodes across all assembled trees"
        ),
        cliques=registry.counter(
            "repro_tree_cliques_total", "H*-max-cliques stored across all trees"
        ),
    )
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel import CompactGraph
    from repro.storage.memory import MemoryModel

Clique = frozenset


class _Node:
    """One prefix-tree node; the root carries ``vertex = None``."""

    __slots__ = ("vertex", "children", "is_terminal", "core_maximal")

    def __init__(self, vertex: int | None) -> None:
        self.vertex = vertex
        self.children: dict[int, _Node] = {}
        self.is_terminal = False
        self.core_maximal = False


class CliqueTree:
    """Prefix tree over ranked cliques with metered node count.

    The rank order must place every core vertex before every periphery
    vertex (Definition 8); :meth:`for_star` wires that up from a
    :class:`~repro.core.hstar.StarGraph`.
    """

    def __init__(
        self,
        core: frozenset[int],
        memory: "MemoryModel | None" = None,
    ) -> None:
        self._core = core
        self._root = _Node(None)
        self._num_nodes = 1  # the root λ
        self._num_cliques = 0
        self._memory = memory
        if memory is not None:
            memory.allocate(1, label="clique tree")

    @classmethod
    def for_star(
        cls,
        star: StarGraph,
        memory: "MemoryModel | None" = None,
    ) -> "CliqueTree":
        """A tree whose rank order matches the star graph's core."""
        return cls(star.core, memory=memory)

    # ------------------------------------------------------------------
    # Order ≺ (Definition 8)
    # ------------------------------------------------------------------
    def rank_key(self, vertex: int) -> tuple[int, int]:
        """Sort key realising ``≺``: core first, then ids ascending."""
        return (0 if vertex in self._core else 1, vertex)

    def ordered(self, clique: Iterable[int]) -> list[int]:
        """The members of ``clique`` sorted by ``≺``."""
        return sorted(clique, key=self.rank_key)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, clique: Iterable[int]) -> bool:
        """Insert a clique; returns ``False`` if it was already present."""
        path = self.ordered(clique)
        if not path:
            raise GraphError("cannot insert an empty clique")
        node = self._root
        for vertex in path:
            child = node.children.get(vertex)
            if child is None:
                child = _Node(vertex)
                node.children[vertex] = child
                self._num_nodes += 1
                if self._memory is not None:
                    self._memory.allocate(1, label="clique tree")
            node = child
        if node.is_terminal:
            return False
        node.is_terminal = True
        self._num_cliques += 1
        return True

    def remove(self, clique: Iterable[int]) -> bool:
        """Remove a clique and prune now-useless nodes; ``False`` if absent."""
        path = self.ordered(clique)
        nodes = [self._root]
        for vertex in path:
            child = nodes[-1].children.get(vertex)
            if child is None:
                return False
            nodes.append(child)
        terminal = nodes[-1]
        if not terminal.is_terminal:
            return False
        terminal.is_terminal = False
        self._num_cliques -= 1
        # Prune upward: a node survives if it still ends or routes cliques.
        for index in range(len(nodes) - 1, 0, -1):
            node = nodes[index]
            if node.children or node.is_terminal:
                break
            del nodes[index - 1].children[node.vertex]
            self._num_nodes -= 1
            if self._memory is not None:
                self._memory.release(1, label="clique tree")
        return True

    def rerank(self, vertex: int, cliques: Iterable[Clique]) -> None:
        """Move ``vertex`` across the core boundary of ``≺``.

        ``cliques`` must be every stored clique containing ``vertex``;
        their paths are re-threaded along the new order.  A lone
        periphery vertex is never an H*-max-clique (every child of the
        root is a core vertex), so ``{vertex}`` is dropped when the
        vertex leaves the core.
        """
        cliques = list(cliques)
        for clique in cliques:
            self.remove(clique)
        self._core = self._core ^ {vertex}
        for clique in cliques:
            if len(clique) > 1 or vertex in self._core:
                self.insert(clique)

    def mark_core_maximal(self, core_clique: Iterable[int]) -> None:
        """Flag the node ending ``core_clique`` as a maximal clique of
        ``G_H`` (the marking used by Algorithm 2, Line 7)."""
        node = self._find(core_clique)
        if node is None:
            raise GraphError(f"clique {sorted(core_clique)} is not a path in the tree")
        node.core_maximal = True

    def release(self) -> None:
        """Return all tree nodes to the memory model and detach from it
        (end of a recursion step: "GH* and TH* are discarded", Section
        4.3).  The tree resets to an empty, unaccounted state."""
        if self._memory is not None:
            self._memory.release(self._num_nodes, label="clique tree")
            self._memory = None
        self._root = _Node(None)
        self._num_nodes = 1
        self._num_cliques = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Node count including the root λ — the paper's ``|T_H*|``."""
        return self._num_nodes

    @property
    def num_cliques(self) -> int:
        """Number of stored cliques (terminal paths)."""
        return self._num_cliques

    def __contains__(self, clique: Iterable[int]) -> bool:
        node = self._find(clique)
        return node is not None and node.is_terminal

    def is_core_maximal(self, core_clique: Iterable[int]) -> bool:
        """Whether the path for ``core_clique`` is marked as ``G_H``-maximal."""
        node = self._find(core_clique)
        return node is not None and node.core_maximal

    def cliques(self) -> Iterator[Clique]:
        """Iterate all stored cliques (root-to-terminal paths), DFS order."""
        yield from self._walk(self._root, [])

    def cliques_containing(self, vertices: Iterable[int]) -> Iterator[Clique]:
        """Stored cliques that contain every vertex of ``vertices``.

        This is the traversal behind the paper's update sets ``S`` and
        ``S'`` (Section 5).
        """
        wanted = frozenset(vertices)
        for clique in self.cliques():
            if wanted <= clique:
                yield clique

    def periphery_leaf_order(self) -> list[int]:
        """The distinct periphery vertices that end a stored clique — the
        h-neighbor leaves of Lemma 2 — in DFS order, first occurrence
        kept (Section 4.2.3's partition order).

        One walk over the tree's nodes, children in ``≺`` order: the
        order of the terminals :meth:`cliques` yields, without building
        or re-sorting a clique per path.
        """
        core = self._core
        key = self.rank_key
        order: dict[int, None] = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_terminal and node.vertex not in core:
                order[node.vertex] = None
            children = node.children
            if children:
                stack.extend(
                    children[v] for v in sorted(children, key=key, reverse=True)
                )
        return list(order)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find(self, clique: Iterable[int]) -> _Node | None:
        node = self._root
        for vertex in self.ordered(clique):
            node = node.children.get(vertex)
            if node is None:
                return None
        return node

    def _walk(self, node: _Node, prefix: list[int]) -> Iterator[Clique]:
        if node.is_terminal:
            yield frozenset(prefix)
        for vertex in sorted(node.children, key=self.rank_key):
            prefix.append(vertex)
            yield from self._walk(node.children[vertex], prefix)
            prefix.pop()


def enumerate_star_cliques(
    star: StarGraph,
    use_structure: bool = True,
) -> Iterator[Clique]:
    """Enumerate the maximal cliques of ``G_H*`` (the H*-max-cliques).

    With ``use_structure=True`` (default) the independent-periphery
    structure is exploited as described in the module docstring: the
    core graph is compacted once and each periphery vertex's anchor
    subproblem is carved out of it with a subset mask.  Otherwise the
    generic pivoted enumerator runs on the materialised star graph.
    Both yield the same set — a property the test suite asserts.
    """
    if not use_structure:
        yield from tomita_maximal_cliques(star.star_graph(), kernel="bitset")
        return
    yield from _structured_star_cliques(star, set())


def _structured_star_cliques(star: StarGraph, core_maximal: set[Clique]) -> Iterator[Clique]:
    """The structured enumeration of :func:`enumerate_star_cliques`.

    Its first loop enumerates the core graph's maximal cliques ``M_H``;
    each is added to ``core_maximal`` as it is found, so a caller that
    needs ``M_H`` too holds the whole set once the walk reaches the
    anchor subproblems, without a second enumeration.
    """
    from repro.kernel import maximal_cliques_bitset

    compact = star.core_compact()
    for core_clique in maximal_cliques_bitset(compact):
        core_maximal.add(core_clique)
        if not star.common_periphery(core_clique):
            yield core_clique
    for w, anchors in _anchor_items(star):
        for core_clique in anchor_cliques(compact, anchors):
            yield core_clique | {w}


def anchor_cliques(compact: "CompactGraph", anchors: Collection[int]) -> Iterable[Clique]:
    """``maxCL(G_H[anchors])``: the core parts of one periphery vertex's
    leaves (Lemma 2), from the core graph compacted once per step.

    A single anchor ``v`` is its own and only maximal clique, so it is
    answered without a kernel call; most periphery vertices of a sparse
    graph have exactly one core neighbor.
    """
    if len(anchors) == 1:
        return (frozenset(anchors),)
    from repro.kernel import maximal_cliques_bitset

    return maximal_cliques_bitset(compact, compact.subset_mask(anchors))


def _anchor_items(star: StarGraph) -> list[tuple[int, set[int]]]:
    """``(w, anchors)`` per periphery vertex ``w``, ascending by ``w``.

    The anchors of ``w`` are its core neighbors — the vertex set whose
    induced maximal cliques become ``K ∪ {w}`` leaves (Lemma 2).
    """
    anchors_of: dict[int, set[int]] = {}
    for v in star.core:
        for w in star.periphery_neighbors(v):
            anchors_of.setdefault(w, set()).add(v)
    return sorted(anchors_of.items())


def assemble_clique_tree(
    star: StarGraph,
    cliques: Iterable[Clique],
    core_maximal: Iterable[Clique],
    memory: "MemoryModel | None" = None,
) -> CliqueTree:
    """Build ``T_H*`` from pre-enumerated cliques and mark ``M_H`` paths.

    The shared tail of every construction route: the serial builders below
    and the parallel driver (which enumerates the cliques on a worker pool
    and only assembles here, in the driver process, so tree-node memory is
    charged to the one authoritative :class:`MemoryModel`).
    """
    tree = CliqueTree.for_star(star, memory=memory)
    for clique in cliques:
        tree.insert(clique)
    for kernel in core_maximal:
        node = tree._find(kernel)
        if node is not None:
            node.core_maximal = True
    bundle = _METRICS()
    bundle.trees.inc()
    bundle.nodes.inc(tree.num_nodes)
    bundle.cliques.inc(tree.num_cliques)
    return tree


def build_clique_tree_from_cliques(
    star: StarGraph,
    cliques: Iterable[Clique],
    memory: "MemoryModel | None" = None,
) -> tuple[CliqueTree, set[Clique]]:
    """Construct ``T_H*`` from an already-known H*-max-clique set.

    Used when a dynamically maintained ``M_H*`` is available (Section 5's
    "compute the whole set of maximal cliques on demand"): inserting known
    cliques skips the backtracking enumeration entirely, which is exactly
    the saving Table 7's "Time w/ T_H*" column measures.  ``M_H`` is still
    recomputed from the (small) core graph for the Algorithm 2 markings.
    """
    from repro.kernel import maximal_cliques_bitset

    core_maximal = set(maximal_cliques_bitset(star.core_compact()))
    tree = assemble_clique_tree(star, cliques, core_maximal, memory=memory)
    return tree, core_maximal


def build_clique_tree(
    star: StarGraph,
    memory: "MemoryModel | None" = None,
    use_structure: bool = True,
) -> tuple[CliqueTree, set[Clique]]:
    """Construct ``T_H*`` and the core-maximal clique set ``M_H``.

    Returns the populated tree and ``M_H`` (the maximal cliques of the
    core graph), with the tree's ``M_H`` paths marked per Algorithm 2's
    requirement.  Memory for every tree node is charged to ``memory``.
    With ``use_structure`` the star enumeration's own first loop supplies
    ``M_H``: :func:`assemble_clique_tree` inserts every clique before it
    marks ``M_H``, so the set is complete by then.
    """
    if use_structure:
        core_maximal: set[Clique] = set()
        cliques = _structured_star_cliques(star, core_maximal)
    else:
        from repro.kernel import maximal_cliques_bitset

        core_maximal = set(maximal_cliques_bitset(star.core_compact()))
        cliques = tomita_maximal_cliques(star.star_graph(), kernel="bitset")
    tree = assemble_clique_tree(star, cliques, core_maximal, memory=memory)
    return tree, core_maximal
