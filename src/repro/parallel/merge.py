"""Deterministic merging of worker results.

The invariant the whole subsystem is built around: **merged output is a
pure function of the task list, never of scheduling**.  Tasks carry
global indices; workers return ``(index, payload)`` pairs; the mergers
here re-order by index and reconstruct exactly the stream the serial
code would have produced.  Combined with the driver-side hashtable
filter (which consumes that stream in order), ``workers=1`` and
``workers=4`` runs are byte-identical.

Any chunk count composes for free: chunks hold disjoint task indices by
construction, and the mergers never look at chunk boundaries — only at
indices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.hstar import StarGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.partition import LiftTask, TreeTask

Clique = frozenset


def flatten_indexed(chunk_results) -> dict[int, tuple]:
    """Collect ``(index, payload)`` pairs from per-chunk result lists.

    Duplicate indices would mean the partitioner emitted overlapping
    tasks — a programming error worth failing loudly on, since silent
    overwrites could mask lost work.
    """
    by_index: dict[int, tuple] = {}
    for chunk in chunk_results:
        for index, payload in chunk:
            if index in by_index:
                raise ValueError(f"duplicate task index {index} in worker results")
            by_index[index] = payload
    return by_index


def merge_tree_results(
    tasks: "list[TreeTask]",
    chunk_results,
    star: StarGraph,
) -> tuple[list[Clique], set[Clique]]:
    """Reassemble the H*-max-clique set and ``M_H`` from worker output.

    Walking tasks in index order reconstructs the serial structured
    enumeration: core subproblems contribute ``M_H`` members (and, when
    their ``HNB`` is empty, H*-max-cliques — the Lemma-2 first family),
    anchor subproblems contribute ``kernel ∪ {w}`` cliques (the second
    family).  The ``HNB``-emptiness filter runs here in the driver, which
    owns the periphery lists workers never see.
    """
    by_index = flatten_indexed(chunk_results)
    missing = [task.index for task in tasks if task.index not in by_index]
    if missing:
        raise ValueError(f"worker results missing task indices {missing[:5]}")
    star_cliques: list[Clique] = []
    core_maximal: set[Clique] = set()
    for task in tasks:
        for members in by_index[task.index]:
            clique = frozenset(members)
            if task.kind == "core":
                core_maximal.add(clique)
                if not star.common_periphery(clique):
                    star_cliques.append(clique)
            else:
                star_cliques.append(clique | {task.vertex})
    return star_cliques, core_maximal


def merge_lift_results(
    tasks: "list[LiftTask]",
    chunk_results,
) -> tuple[dict[Clique, list[Clique]], int]:
    """Reassemble Algorithm 2's ``maxCL(G[HNB])`` table from worker output.

    Returns the ``HNB -> maximal cliques`` mapping (per-set list order
    preserved from the worker's pivoted enumeration, which is itself
    deterministic) plus the total pages workers read, for the driver's
    I/O accounting.
    """
    results_with_pages = list(chunk_results)
    pages_read = sum(pages for _, pages in results_with_pages)
    by_index = flatten_indexed(results for results, _ in results_with_pages)
    max_cliques_of: dict[Clique, list[Clique]] = {}
    for task in tasks:
        if task.index not in by_index:
            raise ValueError(f"worker results missing lift task {task.index}")
        max_cliques_of[frozenset(task.shared)] = [
            frozenset(members) for members in by_index[task.index]
        ]
    return max_cliques_of, pages_read


__all__ = ["flatten_indexed", "merge_lift_results", "merge_tree_results"]
