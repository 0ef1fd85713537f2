"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from tests.helpers import figure1_graph, forced_fanout, metered, seeded_gnp


@pytest.fixture
def figure1():
    """The paper's Figure 1 example graph (13 vertices, 25 edges)."""
    return figure1_graph()


@pytest.fixture
def triangle_plus_tail():
    """A triangle {0,1,2} with a pendant edge (2,3)."""
    from repro.graph.adjacency import AdjacencyGraph

    return AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.fixture
def medium_random():
    """A deterministic 60-vertex random graph with varied clique sizes."""
    return seeded_gnp(60, 0.15, seed=9)


@pytest.fixture
def force_fanout():
    """Every ``ParallelExtMCE`` phase with work fans out (see
    :func:`tests.helpers.forced_fanout`)."""
    with forced_fanout():
        yield


@pytest.fixture
def live_metrics():
    """A fresh live metrics registry, restored to disabled afterwards.

    Tests that assert on metric totals need per-test isolation (the
    registry is process-wide and cumulative); everything else runs with
    metrics disabled, which doubles as a regression guard for the
    near-free null path.
    """
    with metered() as registry:
        yield registry
