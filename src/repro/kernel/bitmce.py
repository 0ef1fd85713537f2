"""Bitset rewrite of the pivoted Tomita expansion.

The hot loop of maximal-clique enumeration is the candidate-set algebra
of Tomita, Tanaka & Takahashi (2006): intersecting candidate and excluded
sets with neighborhoods, scoring pivots, and iterating extensions in
ascending vertex order.  Here every set is a Python big-int over the
compact vertex indices of a :class:`~repro.kernel.compact.CompactGraph`:

* ``candidates & nb(v)`` is one ``&`` over machine words,
* pivot scores are ``(candidates & masks[u]).bit_count()``,
* ascending-order iteration is the lowest-set-bit loop
  (``mask & -mask``), and
* frame state is two ints, so no per-recursion set copies exist at all.

On top of the representation change, the expansion eliminates whole
recursion frames that the set-based path pays for:

* ``candidates | excluded`` is invariant across a node's extension loop
  (each processed vertex moves from one side to the other), so one
  ``union & nb(v)`` per child detects the ``yield``-leaf case outright;
* a child with a single candidate ``w`` is resolved inline — the subtree
  below it emits ``current + [v, w]`` iff no excluded vertex is adjacent
  to ``w`` (any such vertex survives into ``w``'s own subproblem and
  blocks the only possible leaf), which is one ``&`` instead of a
  recursive call, a pivot scan, and an extension loop.

Determinism contract (asserted by the test suite): for any graph whose
vertex ids are mutually orderable, every generator in this module yields
*exactly* the clique stream of its set-based counterpart in
:mod:`repro.baselines.bron_kerbosch` — same cliques, same order.  The
argument is spelled out in ``docs/ALGORITHMS.md``; in short, compact
indices are assigned in ascending label order, lowest-bit iteration
therefore equals ``sorted()`` iteration, and both paths resolve pivot
ties toward the smallest vertex id (with early exit once a pivot covers
every candidate, which empties the extension regardless of which
covering pivot wins).

Memory tradeoff: the recursive worker collects each (sub)problem's
cliques into a list before the public generators yield them, trading
``O(output)`` transient memory for the elimination of per-frame generator
machinery.  Callers that must stream cliques lazily under a tight memory
budget keep using the set-based path — see ``docs/ALGORITHMS.md``.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping
from types import SimpleNamespace

from repro import metrics
from repro.errors import GraphError, VertexNotFoundError
from repro.kernel.compact import CompactGraph

Clique = frozenset

#: Per-subproblem aggregates (never per recursion frame — the hot loop
#: stays untouched).  Labeled ``kernel="bitset"``; the set path in
#: :mod:`repro.baselines.bron_kerbosch` reports the same families.
_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        subproblems=registry.counter(
            "repro_kernel_subproblems_total",
            "root subproblems expanded by the enumeration kernels",
            labels={"kernel": "bitset"},
        ),
        cliques=registry.counter(
            "repro_kernel_cliques_total",
            "maximal cliques produced by kernel subproblems",
            labels={"kernel": "bitset"},
        ),
        sizes=registry.histogram(
            "repro_kernel_subproblem_size",
            "candidate-set size at each subproblem root",
            labels={"kernel": "bitset"},
            buckets=metrics.SIZE_BUCKETS,
        ),
    )
)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_cliques_bitset(
    graph: CompactGraph,
    subset_mask: int | None = None,
    reduction: str = "off",
) -> Iterator[Clique]:
    """Enumerate maximal cliques with max-pivoting over bitmasks.

    With ``subset_mask`` given, enumeration is confined to the induced
    subgraph on those compact indices *without materialising it*: seeding
    ``candidates = subset_mask`` keeps every candidate/excluded mask
    inside the subset, so the full graph's adjacency masks apply
    unchanged.  The stream equals running the set-based enumerator on
    ``induced_subgraph(subset)`` — same cliques, same order.

    ``reduction`` (``"off"``/``"prune"``/``"full"``) applies the exact
    :mod:`repro.reduce` preprocessing before the CSR repack: the reduced
    adjacency graph is what gets packed and enumerated, and the stream
    is lifted back through the reconstruction map.  Incompatible with
    ``subset_mask`` (the mask addresses the unreduced index space).
    """
    if reduction != "off":
        from repro.reduce import reduce_graph, validate_reduction

        validate_reduction(reduction)
        if subset_mask is not None:
            raise GraphError(
                "reduction cannot be combined with subset_mask: the mask "
                "addresses compact indices of the unreduced graph"
            )
        reduced = reduce_graph(graph.to_adjacency_graph(), reduction)
        inner: Iterator[Clique] = (
            maximal_cliques_bitset(CompactGraph.from_adjacency(reduced.reduced))
            if reduced.reduced.num_vertices
            else iter(())
        )
        yield from reduced.map.reconstruct(inner)
        return
    candidates = graph.full_mask if subset_mask is None else subset_mask
    bundle = _METRICS()
    bundle.subproblems.inc()
    bundle.sizes.observe(candidates.bit_count())
    out: list[Clique] = []
    _run(graph.masks, graph.labels, [], candidates, 0, out)
    bundle.cliques.inc(len(out))
    yield from out


def induced_maximal_cliques(
    adjacency: Mapping[int, Collection[int]],
    members: Iterable[int],
) -> list[Clique]:
    """``maxCL(G[members])`` with neighbours looked up in ``adjacency``.

    Algorithm 2's phase-2 resolver.  The induced subgraph is never
    materialised: members get bits in ascending id order (a member with
    no ``adjacency`` entry is isolated; neighbours outside ``members``
    are ignored; edges are symmetrised), and the masks go straight into
    the Tomita expansion.  The list equals
    ``list(tomita_maximal_cliques(G[members], kernel=k))`` in order for
    either kernel ``k`` — the labels, masks and pivot rule are exactly
    those :meth:`CompactGraph.from_adjacency` would produce.
    """
    labels = sorted(set(members))
    wanted = frozenset(labels)
    index_of = {v: i for i, v in enumerate(labels)}
    masks = [0] * len(labels)
    for i, v in enumerate(labels):
        for u in wanted.intersection(adjacency.get(v, ())):
            j = index_of[u]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    bundle = _METRICS()
    bundle.subproblems.inc()
    bundle.sizes.observe(len(labels))
    out: list[Clique] = []
    _run(masks, tuple(labels), [], (1 << len(labels)) - 1, 0, out)
    bundle.cliques.inc(len(out))
    return out


def subproblem_bitset(graph: CompactGraph, start) -> Iterator[Clique]:
    """Maximal cliques whose smallest member is ``start`` (original id).

    The bitmask form of :func:`repro.baselines.bron_kerbosch.
    tomita_subproblem` — the Par-TTT root split: larger neighbors are the
    candidates, smaller neighbors are permanently excluded.
    """
    index = graph.index_of.get(start)
    if index is None:
        raise VertexNotFoundError(start)
    neighbors = graph.masks[index]
    low_bits = (1 << index) - 1
    bundle = _METRICS()
    bundle.subproblems.inc()
    bundle.sizes.observe((neighbors & ~low_bits).bit_count())
    out: list[Clique] = []
    _run(
        graph.masks,
        graph.labels,
        [graph.labels[index]],
        neighbors & ~low_bits,
        neighbors & low_bits,
        out,
    )
    bundle.cliques.inc(len(out))
    yield from out


def _run(
    masks: list[int],
    labels: tuple,
    current: list,
    candidates: int,
    excluded: int,
    out: list,
) -> None:
    """Entry guard around :func:`_collect` (which requires candidates)."""
    if not candidates:
        if not excluded and current:
            out.append(frozenset(current))
        return
    _collect(masks, labels, current, candidates, candidates | excluded, out.append)


def _collect(
    masks: list[int],
    labels: tuple,
    current: list,
    candidates: int,
    union: int,
    out,
) -> None:
    """One Tomita node; ``union`` is ``candidates | excluded`` (nonzero).

    ``excluded`` is carried implicitly as ``union ^ candidates``: the
    extension loop moves each processed vertex from candidates to
    excluded, leaving their union unchanged, so only ``candidates``
    needs updating per child.
    """
    # Pivot: the smallest-id vertex of candidates | excluded maximising
    # |candidates & nb(u)|.  Ascending iteration makes "first strict
    # maximum" equal the set path's tie-break toward the smallest id, and
    # lets the scan stop early once no later vertex could score higher.
    target = candidates.bit_count()
    best_score = -1
    pivot_neighbors = 0
    scan = union
    while scan:
        low = scan & -scan
        neighbors = masks[low.bit_length() - 1]
        score = (candidates & neighbors).bit_count()
        if score > best_score:
            best_score = score
            pivot_neighbors = neighbors
            if score == target:
                break
        scan ^= low
    extension = candidates & ~pivot_neighbors
    while extension:
        low = extension & -extension
        index = low.bit_length() - 1
        neighbors = masks[index]
        new_union = union & neighbors
        if new_union:
            new_candidates = candidates & neighbors
            if new_candidates:
                if new_candidates & (new_candidates - 1):
                    current.append(labels[index])
                    _collect(masks, labels, current, new_candidates, new_union, out)
                    current.pop()
                else:
                    # Single candidate w: the child emits current+[v, w]
                    # iff no excluded vertex of the child is adjacent to
                    # w, and nothing otherwise.
                    w = new_candidates.bit_length() - 1
                    if not (masks[w] & (new_union ^ new_candidates)):
                        current.append(labels[index])
                        current.append(labels[w])
                        out(frozenset(current))
                        current.pop()
                        current.pop()
        else:
            # Child candidates and excluded both empty: a maximal clique.
            current.append(labels[index])
            out(frozenset(current))
            current.pop()
        candidates ^= low
        extension ^= low


__all__ = [
    "induced_maximal_cliques",
    "iter_bits",
    "maximal_cliques_bitset",
    "subproblem_bitset",
]
