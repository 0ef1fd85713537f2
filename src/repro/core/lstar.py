"""L*-graph extraction for the recursive steps (paper Definition 10).

After the first step removes ``G_H*``, every residual vertex has degree at
most ``h``, so re-running Algorithm 1 would yield a uselessly tiny core
(``|G'_H*| <= h**2``, Section 4.3).  Instead the paper picks a *random*
vertex set ``L`` whose degree sum approximates ``|G_H*|`` and builds
``G_L*`` the same way ``G_H*`` is built from ``H``.

The selection is one admission rule, :class:`LStarSampler`, fed one
residual record at a time in vertex order: each record is admitted with
probability ``target / (2 * m')`` (so the expected admitted degree mass
matches the target) until the target is reached.  The RNG is seeded,
keeping runs reproducible.  When the entire residual graph fits the
target, every vertex is taken — this is how the recursion terminates and
how zero-degree leftovers get their singleton check (Section 4.3).

The rule has two feeders.  The ExtMCE driver offers every record of
``G_{k+1}`` while step ``k``'s pass writes it
(:meth:`~repro.storage.partitions.HnbPartitionStore.build`), so step
``k+1``'s sample costs no scan of its own.  :func:`extract_lstar_graph`
scans a residual file that already exists: for a resumed run's first
step, and for a step whose memory-budget target the previous step's lift
moved.  Both see the same records in the same order and, for the same
target and seed, draw the same sample.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.errors import GraphError
from repro.core.hstar import StarGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.diskgraph import DiskGraph


class LStarSampler:
    """Definition 10's admission rule over a stream of residual records.

    ``num_edges`` is ``m'`` of the residual graph the records come from;
    it must be known before the first record, since it sets the admission
    probability.  Offer records in ascending vertex order with
    :meth:`offer`; :attr:`full` turns true once the target is reached, and
    later offers are ignored.  :meth:`star` returns the sample.
    """

    def __init__(self, num_edges: int, target_size_edges: int, seed: int = 0) -> None:
        if target_size_edges < 0:
            raise GraphError(
                f"target size must be non-negative, got {target_size_edges}"
            )
        self.target = target_size_edges
        total_degree_mass = 2 * num_edges
        self._take_everything = total_degree_mass <= target_size_edges
        self._probability = 1.0 if self._take_everything else max(
            target_size_edges / total_degree_mass, 1e-9
        )
        self._rng = random.Random(seed)
        self._neighbor_lists: dict[int, frozenset[int]] = {}
        self._original_degrees: dict[int, int] = {}
        self._degree_mass = 0
        self._first: tuple[int, frozenset[int], int] | None = None
        self.full = False

    def offer(self, vertex: int, neighbors, original_degree: int) -> None:
        """Admit or skip one residual record."""
        if self.full:
            return
        if self._first is None:
            self._first = (vertex, frozenset(neighbors), original_degree)
        degree = len(neighbors)
        if not self._take_everything:
            if degree + self._degree_mass > self.target and self._neighbor_lists:
                # The bound b would be breached; the paper keeps |G_i|
                # within |G_H*|, so skip and let a later step take it.
                return
            if self._rng.random() >= self._probability:
                return
            self.full = self._degree_mass + degree >= self.target
        self._neighbor_lists[vertex] = frozenset(neighbors)
        self._original_degrees[vertex] = original_degree
        self._degree_mass += degree

    def star(self) -> StarGraph:
        """The sampled ``G_L*``.

        When random selection admitted nothing (tiny residual, unlucky
        draw), the first offered record is taken so the recursion always
        advances.
        """
        neighbor_lists, original_degrees = self._neighbor_lists, self._original_degrees
        if not neighbor_lists:
            if self._first is None:
                raise GraphError(
                    "cannot extract an L*-graph from an empty residual graph"
                )
            vertex, neighbors, original_degree = self._first
            neighbor_lists = {vertex: neighbors}
            original_degrees = {vertex: original_degree}
        return StarGraph(
            core=frozenset(neighbor_lists),
            neighbor_lists=neighbor_lists,
            original_degrees=original_degrees,
        )


def extract_lstar_graph(
    residual: "DiskGraph",
    target_size_edges: int,
    seed: int = 0,
) -> StarGraph:
    """Select ``L`` and materialise ``G_L*`` from the residual graph.

    Parameters
    ----------
    residual:
        The on-disk residual graph ``G'``.
    target_size_edges:
        The size bound ``b`` of Algorithm 3 — ``|G_H*|`` from step one.
        The selected core's degree sum stays within the bound except that
        at least one vertex is always selected so progress is guaranteed.
    seed:
        Per-step RNG seed (the driver varies it by recursion depth).

    One sequential scan, which stops once the target is reached.  The
    caller (the ExtMCE driver) is responsible for charging the returned
    star graph's :attr:`~repro.core.hstar.StarGraph.memory_units` to its
    memory model for the duration of the step.
    """
    sampler = LStarSampler(residual.num_edges, target_size_edges, seed)
    for record in residual.scan():
        sampler.offer(record.vertex, record.neighbors, record.original_degree)
        if sampler.full:
            break
    return sampler.star()
