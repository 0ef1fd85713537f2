"""Incremental maintenance of ``H``, ``G_H*`` and ``T_H*`` under updates.

The update rules follow Section 5 of the paper:

* **Insertion of (u, v), neither endpoint an h-vertex** — ``G_H*`` is
  untouched; nothing to do unless the insertion changes who the h-vertices
  are.
* **Insertion with an h-vertex endpoint** — the new H*-max-cliques are
  ``C ∪ {u, v}`` for each maximal element ``C`` of
  ``{C' ∩ NB_uv : C' ∈ M_H*}`` (the paper's ``S_M``), where ``NB_uv`` is
  the common ``G_H*``-neighborhood of the endpoints; the subsumed cliques
  ``C ∪ {u}`` / ``C ∪ {v}`` leave the tree.  When ``S`` is empty,
  ``{u, v}`` itself is the new maximal clique.  Every clique of
  ``G_H*[NB_uv]`` lies in some ``C' ∈ M_H*``, so ``S_M`` is exactly
  ``maxCL(G_H*[NB_uv])``, and that is how it is computed: one bitmask
  resolve over the common neighbourhood, never a walk of the tree.
* **Deletion with an h-vertex endpoint** — every clique containing both
  endpoints leaves the tree; those are ``{u, v} ∪ C`` for
  ``C ∈ maxCL(G_H*[NB_uv])`` (the paper's ``S'``), again computed from
  the star graph.  Each one's two "one endpoint removed" halves
  re-enter when still maximal in the updated ``G_H*``.
* **Core change** — when an update changes ``h`` or the membership of
  ``H`` (degree crossings), ``H`` moves one vertex at a time to the set
  the construction picks (every vertex of degree above ``h``, then the
  smallest ids of degree exactly ``h``).  A vertex ``x`` leaving ``H``
  loses its star edges to non-core vertices through the deletion rule
  above, edge by edge; then the cliques through it,
  ``{x} ∪ maxCL(G_H*[N*(x)])``, are re-ranked, because the order ``≺``
  of ``T_H*`` puts the core first.  A vertex entering ``H`` does the
  same in reverse.  Nothing is re-enumerated: each move costs the
  moving vertex's neighbourhood.  The experiment still counts these
  core changes (``core_rebuilds``) because the paper's point is that
  they are rare (Table 7's "% of h-vertices retained" row).

Degrees live in buckets (vertex sets by degree) with the counts of
vertices of degree ``≥ h`` and ``> h`` kept current, so ``h`` itself is
re-derived in O(1) per update.

The maintainer holds the evolving graph in memory — the substitution for
the paper's disk-resident ``G`` — but reports as "memory" only the star
graph and tree units, matching what the paper's maintenance keeps resident.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.core.clique_tree import CliqueTree, enumerate_star_cliques
from repro.core.extmce import ExtMCE, ExtMCEConfig, ExtMCEReport
from repro.core.hstar import StarGraph
from repro.errors import EdgeNotFoundError, GraphError
from repro.graph.adjacency import AdjacencyGraph
from repro.kernel import induced_maximal_cliques
from repro.storage.diskgraph import DiskGraph
from repro.storage.memory import MemoryModel

Clique = frozenset


@dataclass
class UpdateStats:
    """Counters for one maintenance session (feeds Table 7)."""

    updates_total: int = 0
    updates_hitting_star: int = 0
    insertions: int = 0
    deletions: int = 0
    core_rebuilds: int = 0
    hit_seconds_total: float = 0.0

    @property
    def average_hit_milliseconds(self) -> float:
        """Mean time per update that touched ``T_H*`` (Table 7, row 1)."""
        if self.updates_hitting_star == 0:
            return 0.0
        return 1000.0 * self.hit_seconds_total / self.updates_hitting_star

    @property
    def hit_fraction(self) -> float:
        """Share of updates that touched the H*-graph (paper: ~3.8%)."""
        if self.updates_total == 0:
            return 0.0
        return self.updates_hitting_star / self.updates_total


class HStarMaintainer:
    """Keeps ``H``, ``G_H*`` and ``M_H*`` (as ``T_H*``) current.

    Examples
    --------
    >>> maintainer = HStarMaintainer()
    >>> for edge in [(0, 1), (1, 2), (0, 2)]:
    ...     maintainer.insert_edge(*edge)
    >>> sorted(sorted(c) for c in maintainer.star_cliques())
    [[0, 1, 2]]
    """

    def __init__(
        self,
        graph: AdjacencyGraph | None = None,
        memory: MemoryModel | None = None,
    ) -> None:
        self._graph = graph.copy() if graph is not None else AdjacencyGraph()
        self._memory = memory if memory is not None else MemoryModel()
        self.stats = UpdateStats()
        self._update_hooks: list = []
        self._core: set[int] = set()
        self._h = 0
        self._neighbor_lists: dict[int, set[int]] = {}
        self._tree: CliqueTree | None = None
        # Vertices by degree, plus how many have degree >= h and > h.
        self._by_degree: dict[int, set[int]] = {}
        self._at_least_h = 0
        self._above_h = 0
        for w in self._graph.vertices():
            self._enter_bucket(w, self._graph.degree(w))
        self._rebuild()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> AdjacencyGraph:
        """The maintained graph (live reference; mutate via this class)."""
        return self._graph

    @property
    def h(self) -> int:
        """Current h-index of the maintained graph."""
        return self._h

    @property
    def core(self) -> frozenset[int]:
        """Current h-vertex set ``H``."""
        return frozenset(self._core)

    def star(self) -> StarGraph:
        """A frozen snapshot of the current star graph."""
        return StarGraph(
            core=frozenset(self._core),
            neighbor_lists={v: frozenset(nbrs) for v, nbrs in self._neighbor_lists.items()},
            h=self._h,
        )

    def star_cliques(self) -> list[Clique]:
        """The maintained ``M_H*``."""
        assert self._tree is not None
        return list(self._tree.cliques())

    @property
    def tree(self) -> CliqueTree:
        """The maintained ``T_H*``."""
        assert self._tree is not None
        return self._tree

    @property
    def resident_memory_units(self) -> int:
        """Units for the resident state: ``|G_H*| + |T_H*|``."""
        star_units = sum(1 + len(nbrs) for nbrs in self._neighbor_lists.values())
        tree_units = self._tree.num_nodes if self._tree is not None else 0
        return star_units + tree_units

    # ------------------------------------------------------------------
    # Update hooks
    # ------------------------------------------------------------------
    def register_update_hook(self, hook) -> None:
        """Observe every applied edge update as ``hook(kind, u, v)``.

        ``kind`` is ``"insert"`` or ``"delete"``; the hook fires after
        the update is applied, once per edge that actually changed the
        graph (duplicate insertions are silent).  The canonical consumer
        is :class:`repro.live.ingest.LiveIngestor`, which turns each
        update into clique deltas on a live store; that store's delta
        overlay is the staleness signal the query engine serves.
        """
        self._update_hooks.append(hook)

    def _notify_update(self, kind: str, u: int, v: int) -> None:
        for hook in self._update_hooks:
            hook(kind, u, v)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Apply an edge insertion (Section 5, first case analysis)."""
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        for w in (u, v):
            if w not in self._graph:
                self._graph.add_vertex(w)
                self._enter_bucket(w, 0)
        if not self._graph.add_edge(u, v):
            return
        self._bump_degree(u, +1)
        self._bump_degree(v, +1)
        self.stats.updates_total += 1
        self.stats.insertions += 1
        self._notify_update("insert", u, v)
        self._maintain(self._apply_insertion, u, v)

    def delete_edge(self, u: int, v: int) -> None:
        """Apply an edge deletion (Section 5, second case analysis)."""
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._graph.remove_edge(u, v)
        self._bump_degree(u, -1)
        self._bump_degree(v, -1)
        self.stats.updates_total += 1
        self.stats.deletions += 1
        self._notify_update("delete", u, v)
        self._maintain(self._apply_deletion, u, v)

    def _maintain(self, rule, u: int, v: int) -> None:
        """Apply one update's star rule under the current ``H``, then move
        ``H`` when the update invalidated it."""
        core_valid = self._core_still_valid(u, v)
        touches_star = u in self._core or v in self._core
        if core_valid and not touches_star:
            return  # G_H* untouched
        started = time.perf_counter()
        if touches_star:
            rule(u, v)
        if core_valid:
            self._count_hit(started)
        else:
            self._count_core_move(started)

    def _count_hit(self, started: float) -> None:
        """Count one update that touched ``G_H*``, timed from ``started``."""
        self.stats.updates_hitting_star += 1
        self.stats.hit_seconds_total += time.perf_counter() - started

    def _count_core_move(self, started: float) -> None:
        """Move ``H`` to a valid core, counted as one core change and one
        star hit timed from ``started``."""
        self.stats.core_rebuilds += 1
        self._move_core()
        self._count_hit(started)

    def apply_stream(self, edges: Iterable[tuple[int, int, int]]) -> None:
        """Replay a ``(timestamp, u, v)`` stream of insertions."""
        for _, u, v in edges:
            self.insert_edge(u, v)

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Insert many edges with a single core-validity resolution.

        Per-edge maintenance keeps the tree consistent with the *current*
        core throughout; whether that core is still a valid Definition-1
        h-vertex set only matters at the end, so a batch needs at most one
        check — and at most one core change — no matter how many insertions
        it carries.  On bursty streams this collapses the transient
        degree-crossing core changes that per-edge application pays for.
        """
        touched: set[int] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on vertex {u!r} is not allowed")
            for w in (u, v):
                if w not in self._graph:
                    self._graph.add_vertex(w)
                    self._enter_bucket(w, 0)
            if not self._graph.add_edge(u, v):
                continue
            self._bump_degree(u, +1)
            self._bump_degree(v, +1)
            touched.update((u, v))
            self.stats.updates_total += 1
            self.stats.insertions += 1
            self._notify_update("insert", u, v)
            if u in self._core or v in self._core:
                started = time.perf_counter()
                self._apply_insertion(u, v)
                self._count_hit(started)
        if touched and not self._batch_core_still_valid(touched):
            self._count_core_move(time.perf_counter())

    def _batch_core_still_valid(self, touched: set[int]) -> bool:
        """Definition-1 validity after a batch touching ``touched``."""
        if self._current_h_index() != self._h:
            return False
        for w in touched:
            degree = self._graph.degree(w)
            if w in self._core and degree < self._h:
                return False
            if w not in self._core and degree > self._h:
                return False
        return True

    def insert_vertex(self, v: int, neighbors: Iterable[int] = ()) -> None:
        """Insert a vertex with its (possibly empty) initial neighborhood.

        Per Section 5, vertex insertion is "the insertion of an isolated
        vertex" — a trivial operation that cannot change ``H`` — followed
        by a series of edge insertions.
        """
        if v in self._graph:
            raise GraphError(f"vertex {v!r} already exists")
        self._graph.add_vertex(v)
        self._enter_bucket(v, 0)
        for u in neighbors:
            self.insert_edge(v, u)

    def delete_vertex(self, v: int) -> None:
        """Delete a vertex: remove each incident edge, then the vertex.

        The edge deletions carry all the ``T_H*`` maintenance; removing
        the then-isolated vertex only touches the degree histogram (and
        ``h``, which a vanishing zero-degree vertex cannot change).
        """
        if v not in self._graph:
            raise GraphError(f"vertex {v!r} is not in the graph")
        for u in list(self._graph.neighbors(v)):
            self.delete_edge(v, u)
        self._graph.remove_vertex(v)
        self._leave_bucket(v, 0)

    # ------------------------------------------------------------------
    # On-demand full enumeration (Section 5's closing paragraph)
    # ------------------------------------------------------------------
    def compute_all_max_cliques(
        self,
        workdir: str | Path,
        use_maintained_tree: bool = True,
        config: ExtMCEConfig | None = None,
    ) -> tuple[list[Clique], ExtMCEReport]:
        """Enumerate every maximal clique of the current graph.

        With ``use_maintained_tree=True`` the run is seeded with the
        maintained star graph and ``M_H*`` — skipping Algorithm 1's scan
        and the step-1 tree construction (Table 7 "Time w/ T_H*").  With
        ``False`` it recomputes everything from scratch ("Time w/o T_H*").
        """
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        disk = DiskGraph.create(workdir / "snapshot.bin", self._graph)
        run_config = config if config is not None else ExtMCEConfig(workdir=workdir)
        first_step = None
        if use_maintained_tree:
            first_step = (self.star(), self.star_cliques())
        algo = ExtMCE(disk, run_config, first_step=first_step)
        cliques = list(algo.enumerate_cliques())
        disk.delete()
        return cliques, algo.report

    # ------------------------------------------------------------------
    # Core validity (h-index bookkeeping)
    # ------------------------------------------------------------------
    def _core_still_valid(self, u: int, v: int) -> bool:
        """Whether ``H`` remains a valid Definition-1 core after an update
        that changed only the degrees of ``u`` and ``v``."""
        new_h = self._current_h_index()
        if new_h != self._h:
            return False
        for w in (u, v):
            degree = self._graph.degree(w)
            if w in self._core and degree < self._h:
                return False
            if w not in self._core and degree > self._h:
                return False
        return True

    def _enter_bucket(self, w: int, degree: int) -> None:
        self._by_degree.setdefault(degree, set()).add(w)
        self._at_least_h += degree >= self._h
        self._above_h += degree > self._h

    def _leave_bucket(self, w: int, degree: int) -> None:
        bucket = self._by_degree[degree]
        bucket.discard(w)
        if not bucket:
            del self._by_degree[degree]
        self._at_least_h -= degree >= self._h
        self._above_h -= degree > self._h

    def _bump_degree(self, w: int, delta: int) -> None:
        """Move ``w`` to its new degree bucket after one degree change."""
        degree = self._graph.degree(w)
        self._leave_bucket(w, degree - delta)
        self._enter_bucket(w, degree)

    def _h_index_counts(self) -> tuple[int, int, int]:
        """``(h, #degree >= h, #degree > h)`` for the current degrees.

        Starts from the maintained ``h`` and its two counts; each step up
        or down reads one bucket's size, and a single edge update moves
        ``h`` by at most one step.
        """
        h, at_least, above = self._h, self._at_least_h, self._above_h
        while above >= h + 1:
            h += 1
            at_least, above = above, above - len(self._by_degree.get(h, ()))
        while h > 0 and at_least < h:
            h -= 1
            at_least, above = at_least + len(self._by_degree.get(h, ())), at_least
        return h, at_least, above

    def _current_h_index(self) -> int:
        """h-index of the maintained graph."""
        return self._h_index_counts()[0]

    def _ranked_core(self) -> set[int]:
        """The first ``h`` vertices by degree, ties to the smaller id:
        every vertex of degree above ``h``, then the smallest ids of
        degree exactly ``h``."""
        h = self._h
        core = {w for degree, bucket in self._by_degree.items() if degree > h
                for w in bucket}
        core.update(heapq.nsmallest(h - len(core), self._by_degree.get(h, ())))
        return core

    def _rebuild(self) -> None:
        """Compute ``H``, the star lists and ``T_H*`` from the graph
        (construction only; updates move ``H`` with :meth:`_move_core`)."""
        self._h, self._at_least_h, self._above_h = self._h_index_counts()
        self._core = self._ranked_core()
        self._neighbor_lists = {
            w: set(self._graph.neighbors(w)) for w in self._core
        }
        star = self.star()
        self._tree = CliqueTree.for_star(star, memory=self._memory)
        for clique in enumerate_star_cliques(star):
            self._tree.insert(clique)

    # ------------------------------------------------------------------
    # Single-vertex core moves
    # ------------------------------------------------------------------
    def _move_core(self) -> None:
        """Re-derive ``h`` and move ``H`` to :meth:`_ranked_core`, one
        vertex at a time — the set :meth:`_rebuild` would pick."""
        self._h, self._at_least_h, self._above_h = self._h_index_counts()
        target = self._ranked_core()
        for x in sorted(self._core - target):
            self._leave_core(x)
        for y in sorted(target - self._core):
            self._enter_core(y)

    def _leave_core(self, x: int) -> None:
        """Take ``x`` out of ``H``.

        Its star edges to non-core vertices leave ``G_H*`` one by one
        through the deletion rule (``x`` keeps its list meanwhile, so the
        rule still sees it as a core endpoint); then the cliques through
        ``x`` re-rank with ``x`` after the core.
        """
        self._core.discard(x)
        for w in sorted(self._neighbor_lists[x] - self._core):
            self._apply_deletion(x, w)
        cliques = self._cliques_through(x)
        del self._neighbor_lists[x]
        self._tree.rerank(x, cliques)

    def _enter_core(self, y: int) -> None:
        """Put ``y`` into ``H``: re-rank the cliques through it with ``y``
        in the core, then add its edges to non-core vertices to ``G_H*``
        one by one through the insertion rule."""
        cliques = self._cliques_through(y)
        self._core.add(y)
        self._neighbor_lists[y] = self._graph.neighbors(y) & self._core
        self._tree.rerank(y, cliques)
        for w in sorted(self._graph.neighbors(y) - self._core):
            self._apply_insertion(y, w)

    def _cliques_through(self, v: int) -> list[Clique]:
        """The ``M_H*`` members containing ``v`` while its only star edges
        are those to the core: ``{v} ∪ maxCL(G_H*[N(v) ∩ H])``."""
        kernels = induced_maximal_cliques(
            self._neighbor_lists, self._graph.neighbors(v) & self._core
        )
        return [kernel | {v} for kernel in kernels or [frozenset()]]

    # ------------------------------------------------------------------
    # Star-local update rules
    # ------------------------------------------------------------------
    def _star_neighbors(self, w: int) -> set[int]:
        """``G_H*`` neighborhood of ``w`` (core: its list; periphery: its
        core neighbors; outside vertices: empty).  A vertex leaving the
        core keeps its list until its cliques have re-ranked."""
        listed = self._neighbor_lists.get(w)
        if listed is not None:
            return listed
        return self._graph.neighbors(w) & self._core

    def _star_kernels(self, u: int, v: int) -> list[Clique]:
        """``maxCL(G_H*[NB_uv])``, or the one empty kernel when ``NB_uv``
        is empty (the endpoints' common ``G_H*``-neighbourhood).

        ``_neighbor_lists`` is ``G_H*`` seen from the core: a periphery
        member has no entry, so the resolver sees only its (symmetrised)
        core edges and never a periphery–periphery edge.
        """
        common = self._star_neighbors(u) & self._star_neighbors(v)
        return induced_maximal_cliques(self._neighbor_lists, common) or [frozenset()]

    def _apply_insertion(self, u: int, v: int) -> None:
        assert self._tree is not None
        for a, b in ((u, v), (v, u)):
            listed = self._neighbor_lists.get(a)
            if listed is not None:
                listed.add(b)
        for kernel in self._star_kernels(u, v):
            self._tree.insert(kernel | {u, v})
            self._tree.remove(kernel | {u})
            self._tree.remove(kernel | {v})

    def _apply_deletion(self, u: int, v: int) -> None:
        assert self._tree is not None
        for a, b in ((u, v), (v, u)):
            listed = self._neighbor_lists.get(a)
            if listed is not None:
                listed.discard(b)
        kernels = self._star_kernels(u, v)
        for kernel in kernels:
            self._tree.remove(kernel | {u, v})
        for kernel in kernels:
            for survivor in (kernel | {u}, kernel | {v}):
                if self._survivor_is_star_maximal(survivor):
                    self._tree.insert(survivor)

    def _survivor_is_star_maximal(self, survivor: Clique) -> bool:
        members = sorted(survivor)
        if len(members) == 1 and members[0] not in self._neighbor_lists:
            # A lone periphery vertex either left G_H* entirely or still
            # has a core neighbor that extends it; never maximal alone.
            return False
        common = self._star_neighbors(members[0]) - survivor
        for w in members[1:]:
            common &= self._star_neighbors(w)
            if not common:
                break
        return not (common - survivor)
