"""Work decomposition for the parallel enumeration engine.

Two fan-out shapes, one per dominant step cost:

* **Tree tasks** split the construction of ``T_H*`` at the root of the
  enumeration search tree, the Par-TTT vertex decomposition of Das,
  Sanei-Mehri & Tirthapura (arXiv:1807.09417) composed with this paper's
  Lemma-2 structure: one subproblem per core vertex (the maximal cliques
  of ``G_H`` whose smallest member is that vertex) plus one subproblem
  per periphery anchor ``w`` (the maximal cliques of
  ``G_H[nb(w) ∩ H]``, each extended by ``w``).  The subproblems
  partition the H*-max-clique set, so workers never need to deduplicate
  against each other.

* **Lift tasks** split Algorithm 2's phase 2 — ``maxCL(G[HNB(C1)])``
  over the distinct ``HNB`` sets — along the disk-partition boundaries
  of Section 4.2.3: tasks are chunked *contiguously* in partition order
  so the sets served by one spill file land in the same chunk.  Workers
  keep parsed spill files in a per-step LRU bounded by the driver
  store's ``max_resident`` (shipped on every :class:`LiftChunk`), so a
  file is read at most once per worker per step while it stays
  resident.

The chunk count is the caller's: the driver's cost model
(:mod:`repro.parallel.costmodel`) weighs each chunk's dispatch round
trip against the straggler tail of fewer, larger chunks.  The pool
schedules chunks dynamically, which absorbs skewed per-vertex subtree
costs without giving up the deterministic merge — every task carries
its global ``index``, and the merger orders by it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.hstar import StarGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.partitions import HnbPartitionStore

Clique = frozenset


@dataclass(frozen=True)
class TreeTask:
    """One root-split subproblem of the H*-max-clique enumeration.

    ``kind == "core"``: enumerate the maximal cliques of ``G_H`` whose
    smallest member is ``vertex`` (``anchors`` is empty).
    ``kind == "anchor"``: enumerate the maximal cliques of the core
    subgraph induced by ``anchors``; each extends with the periphery
    vertex ``vertex`` to an H*-max-clique.
    """

    index: int
    kind: str
    vertex: int
    anchors: tuple[int, ...] = ()


@dataclass(frozen=True)
class LiftTask:
    """One ``HNB`` set to resolve against the periphery adjacency."""

    index: int
    shared: tuple[int, ...]
    partition_indices: tuple[int, ...]


@dataclass(frozen=True)
class LiftChunk:
    """A batch of lift tasks plus the spill files they need.

    ``paths`` maps partition index to the file's location so a worker can
    open exactly the partitions its tasks touch, read-only, without ever
    seeing the driver's store handles.  ``max_resident`` is the driver
    store's bound on resident partitions, which caps the worker's
    per-step spill cache too.
    """

    tasks: tuple[LiftTask, ...]
    paths: dict[int, str]
    max_resident: int


def tree_tasks(star: StarGraph) -> list[TreeTask]:
    """The full tree-construction task list, in deterministic order."""
    tasks: list[TreeTask] = []
    for v in sorted(star.core):
        tasks.append(TreeTask(index=len(tasks), kind="core", vertex=v))
    anchors_of: dict[int, set[int]] = {}
    for v in star.core:
        for w in star.periphery_neighbors(v):
            anchors_of.setdefault(w, set()).add(v)
    for w in sorted(anchors_of):
        tasks.append(
            TreeTask(
                index=len(tasks),
                kind="anchor",
                vertex=w,
                anchors=tuple(sorted(anchors_of[w])),
            )
        )
    return tasks


def chunk_tree_tasks(
    tasks: list[TreeTask], num_chunks: int
) -> list[tuple[TreeTask, ...]]:
    """Stripe tree tasks round-robin into ``num_chunks`` chunks (fewer
    when there are fewer tasks).

    Striping (rather than contiguous slicing) spreads the expensive
    low-id core subproblems — whose subtrees are largest because they own
    every clique their vertex minimizes — across chunks.
    """
    if not tasks:
        return []
    num_chunks = min(len(tasks), max(1, num_chunks))
    chunks: list[list[TreeTask]] = [[] for _ in range(num_chunks)]
    for position, task in enumerate(tasks):
        chunks[position % num_chunks].append(task)
    return [tuple(chunk) for chunk in chunks if chunk]


def lift_tasks(
    ordered_shared: list[Clique],
    store: "HnbPartitionStore",
) -> list[LiftTask]:
    """Pair each distinct ``HNB`` set with the partitions covering it.

    ``ordered_shared`` must already be in the deterministic resolution
    order of :func:`repro.core.categories.ordered_distinct_hnb` (grouped
    by partition); task index == resolution position.
    """
    return [
        LiftTask(
            index=index,
            shared=tuple(sorted(shared)),
            partition_indices=tuple(sorted(store.partitions_for(shared))),
        )
        for index, shared in enumerate(ordered_shared)
    ]


def chunk_lift_tasks(
    tasks: list[LiftTask],
    store: "HnbPartitionStore",
    num_chunks: int,
) -> list[LiftChunk]:
    """Slice lift tasks contiguously into at most ``num_chunks`` balanced
    chunks.

    Contiguous slicing preserves the partition-grouped input order, so a
    chunk's tasks cluster on few spill files; balance is by estimated
    cost (the size of each induced vertex set).
    """
    if not tasks:
        return []
    paths = [str(path) for path in store.partition_paths()]
    max_resident = store.max_resident
    num_chunks = min(len(tasks), max(1, num_chunks))
    total_cost = sum(1 + len(task.shared) for task in tasks)
    target = max(1, total_cost // num_chunks)
    chunks: list[LiftChunk] = []
    current: list[LiftTask] = []
    current_cost = 0
    for task in tasks:
        current.append(task)
        current_cost += 1 + len(task.shared)
        if current_cost >= target and len(chunks) < num_chunks - 1:
            chunks.append(_seal_lift_chunk(current, paths, max_resident))
            current = []
            current_cost = 0
    if current:
        chunks.append(_seal_lift_chunk(current, paths, max_resident))
    return chunks


def _packed(values, top: int) -> array:
    """``values`` as the narrowest unsigned array that can hold ``top``.

    Pickled arrays ship their raw buffer, so width is wire size: CSR
    indices are compact ids below ``n`` and usually fit one or two bytes
    each, where pickled Python ints cost two to five.
    """
    for code, limit in (("B", 0xFF), ("H", 0xFFFF), ("I", 0xFFFFFFFF)):
        if top <= limit:
            return array(code, values)
    return array("q", values)


def _seal_lift_chunk(
    tasks: list[LiftTask], paths: list[str], max_resident: int
) -> LiftChunk:
    needed = sorted({index for task in tasks for index in task.partition_indices})
    return LiftChunk(
        tasks=tuple(tasks),
        paths={index: paths[index] for index in needed},
        max_resident=max_resident,
    )


def serialize_star(star: StarGraph) -> dict:
    """A picklable snapshot of the parts of a star graph workers need.

    This is the *in-band fallback* wire format: the primary path
    publishes the core CSR through a shared-memory segment
    (:meth:`~repro.parallel.scheduler.ParallelEngine.publish_star`) and
    ships only a descriptor.  The pickled payload remains for hosts
    without usable shared memory and for labels the int64 codec rejects.

    Only the *core* adjacency travels: core tasks run inside ``G_H`` and
    anchor tasks inside induced subgraphs of it.  Periphery neighbor
    lists — the bulk of ``G_H*`` — stay in the driver, which keeps the
    per-worker footprint at ``O(|G_H|) = O(h²)`` instead of
    ``O(|G_H*|)``.  The payload is the compact CSR form — three flat
    arrays, each packed to its narrowest width — which workers rehydrate
    via :meth:`CompactGraph.from_csr` without any re-sorting.
    """
    compact = star.core_compact()
    labels = compact.labels
    packed_labels: "tuple | array" = labels
    if labels and all(isinstance(v, int) and 0 <= v for v in labels):
        packed_labels = _packed(labels, labels[-1])
    return {
        "labels": packed_labels,
        "indptr": _packed(compact.indptr, len(compact.indices)),
        "indices": _packed(compact.indices, max(compact.num_vertices - 1, 0)),
    }


__all__ = [
    "LiftChunk",
    "LiftTask",
    "TreeTask",
    "chunk_lift_tasks",
    "chunk_tree_tasks",
    "lift_tasks",
    "serialize_star",
    "tree_tasks",
]
