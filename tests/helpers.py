"""Shared test utilities: reference graphs and hypothesis strategies."""

from __future__ import annotations

import contextlib
import random
import weakref

from hypothesis import strategies as st

from repro.generators import (
    fringed_clique_communities,
    powerlaw_cluster_graph,
    random_gnp_graph,
)
from repro.graph.adjacency import AdjacencyGraph

# ---------------------------------------------------------------------------
# The paper's running example (Figure 1): 13 vertices, 25 edges.
# Letters map to ints in the order below; h = 5 with H = {a, b, c, d, e}.
# ---------------------------------------------------------------------------
FIGURE1_NAMES = "abcdewxyzrstq"
FIGURE1_ID = {name: index for index, name in enumerate(FIGURE1_NAMES)}
FIGURE1_NAME = {index: name for name, index in FIGURE1_ID.items()}

_FIGURE1_EDGES_BY_NAME = [
    # core (G_H): M_H = {abc, bcde}
    ("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("b", "e"),
    ("c", "d"), ("c", "e"), ("d", "e"),
    # core-periphery (E_HHnb)
    ("a", "w"), ("a", "x"), ("a", "y"),
    ("b", "w"), ("b", "x"),
    ("c", "w"), ("c", "x"), ("c", "y"),
    ("d", "r"), ("d", "z"),
    ("e", "s"), ("e", "y"),
    # periphery-periphery (G_Hnb): exactly these three per the paper
    ("w", "x"), ("s", "y"), ("r", "z"),
    # the two edges incident to q and t (outside H+)
    ("s", "t"), ("r", "q"),
]

FIGURE1_EDGES = [
    (FIGURE1_ID[u], FIGURE1_ID[v]) for u, v in _FIGURE1_EDGES_BY_NAME
]


def figure1_graph() -> AdjacencyGraph:
    """The paper's Figure 1 example graph."""
    return AdjacencyGraph.from_edges(FIGURE1_EDGES)


def names_of(clique) -> str:
    """Render a Figure 1 clique as its letter string (sorted)."""
    return "".join(sorted(FIGURE1_NAME[v] for v in clique))


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------
def seeded_gnp(n: int, p: float, seed: int) -> AdjacencyGraph:
    """Deterministic G(n, p) for tests that need specific shapes."""
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return AdjacencyGraph.from_edges(edges, vertices=range(n))


#: Seeded graph families, one per shape the recursion meets: power-law,
#: uniform random, and dense communities with a sparse fringe.
GRAPHS = {
    "powerlaw": lambda seed: powerlaw_cluster_graph(120, 3, 0.6, seed=seed),
    "gnp": lambda seed: random_gnp_graph(70, 0.12, seed=seed),
    "communities": lambda seed: fringed_clique_communities(90, seed=seed),
}


@st.composite
def small_graphs(draw, max_vertices: int = 14) -> AdjacencyGraph:
    """Hypothesis strategy: arbitrary small graphs (isolated vertices too)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return AdjacencyGraph.from_edges(chosen, vertices=range(n))


def cliques_of(iterable) -> set[frozenset]:
    """Normalise an iterable of cliques to a set of frozensets."""
    return {frozenset(c) for c in iterable}


@contextlib.contextmanager
def forced_fanout():
    """Make every ``ParallelExtMCE`` phase that has work fan out to the pool.

    Patches the cost model's decision (never an option): each phase with
    work runs on the pool in two chunks per worker, whatever the model
    would have chosen, so the engine itself stays under test.
    """
    from unittest import mock

    from repro.parallel import driver
    from repro.parallel.costmodel import FANOUT, INLINE, Plan

    def fan_out(rates, units, workers, engine_running):
        if units <= 0:
            return Plan(INLINE, 0, None, None)
        return Plan(FANOUT, 2 * workers, None, None)

    with mock.patch.object(driver, "plan_phase", fan_out):
        yield


@contextlib.contextmanager
def metered():
    """A fresh live metrics registry for the block; the registry that was
    active before is reinstated afterwards."""
    from repro import metrics

    previous = metrics.get_registry()
    registry = metrics.enable(metrics.MetricsRegistry())
    try:
        yield registry
    finally:
        metrics.set_registry(previous)


#: Each executor recovery event and the one series that counts it.
RECOVERY_SERIES = {
    "chunk_retry": "repro_parallel_chunk_retries_total",
    "chunk_timeout": "repro_parallel_chunk_timeouts_total",
    "chunk_error": "repro_parallel_chunk_errors_total",
    "pool_rebuild": "repro_parallel_pool_rebuilds_total",
    "chunk_inline_fallback": "repro_parallel_inline_chunks_total",
    "executor_degraded": "repro_parallel_fallback_steps_total",
}


def recoveries(registry) -> dict[str, int]:
    """The recovery counts a live registry holds, by event name."""
    from repro.metrics import counter_value

    snapshot = registry.snapshot()
    return {
        event: counter_value(snapshot, series)
        for event, series in RECOVERY_SERIES.items()
    }


@contextlib.contextmanager
def step_executor(workers: int, star, **kwargs):
    """A :class:`~repro.parallel.executor.StepExecutor` over ``star``'s
    pickled in-band graph, on a private engine of ``workers`` that the
    block owns (closed, terminating its pool on error, at exit)."""
    from repro.parallel.executor import StepExecutor
    from repro.parallel.partition import serialize_star
    from repro.parallel.scheduler import ParallelEngine

    with ParallelEngine(workers) as engine:
        descriptor = {**engine.step_token(), "inband": serialize_star(star)}
        with StepExecutor(engine, descriptor, **kwargs) as executor:
            yield executor


@contextlib.contextmanager
def maintainers_built_once():
    """Fail any :class:`HStarMaintainer` that re-enumerates its star after
    construction: a core change moves single vertices instead."""
    from repro.dynamic.maintainer import HStarMaintainer

    original = HStarMaintainer._rebuild
    built: weakref.WeakSet = weakref.WeakSet()

    def rebuild_once(self):
        assert self not in built, "HStarMaintainer rebuilt its star after construction"
        built.add(self)
        original(self)

    HStarMaintainer._rebuild = rebuild_once
    try:
        yield
    finally:
        HStarMaintainer._rebuild = original


#: Every file of an index directory, the manifest included.
INDEX_DIRECTORY_FILES = (
    "cliques.dat", "cliques.idx", "cliques.fp", "cliques.sz", "postings.dat",
    "postings.dir", "manifest.json",
)


@contextlib.contextmanager
def merges_match_fresh_builds():
    """Fail any live compaction whose merged generation differs, in any
    byte of any file, from a fresh :func:`build_index` of the same clique
    set (the base's records minus the removed ids plus the additions)."""
    import tempfile
    from pathlib import Path

    from repro.index import CliqueIndex, build_index
    from repro.live import store as live_store

    original = live_store.merge_index

    def checked_merge(base_directory, removed_ids, added, directory, **kwargs):
        added = list(added)
        report = original(base_directory, removed_ids, added, directory, **kwargs)
        with CliqueIndex(base_directory) as base:
            expected = {
                vertices for clique_id, vertices in base.scan_cliques()
                if clique_id not in removed_ids
            }
        expected.update(added)
        with tempfile.TemporaryDirectory() as scratch:
            build_index(expected, scratch)
            for name in INDEX_DIRECTORY_FILES:
                fresh = (Path(scratch) / name).read_bytes()
                assert (Path(directory) / name).read_bytes() == fresh, (
                    f"merged {name} differs from a fresh build of the same set"
                )
        return report

    live_store.merge_index = checked_merge
    try:
        yield
    finally:
        live_store.merge_index = original
