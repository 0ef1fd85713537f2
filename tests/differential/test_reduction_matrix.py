"""The reduction axis of the differential matrix.

Reduction changes what the engine *sees* (a peeled/folded graph) but
must never change what the consumer *gets*: for every workers ×
reduction combination the delivered clique stream is the same set of
maximal cliques — the set the set-based Tomita oracle enumerates — and
each run's metrics reconcile with its own stream through the reduce
counters.  Two extra properties pin the semantics:

* within one reduction level the stream is deterministic across worker
  counts, element by element;
* with ``reduction="off"`` the stream is *byte-identical* to the
  historical reference, so the new axis is provably a no-op when
  disabled.
"""

from __future__ import annotations

import pytest

from repro.core.result import render_clique_lines
from repro.generators import fringed_clique_communities
from tests.differential.harness import (
    assert_pool_used,
    assert_stream_metrics_consistent,
    oracle_cliques,
    run_enumeration,
)

# Ids carry the kernel ExtMCE runs on (bitset, its only one); "-fanout"
# rows force every parallel phase onto the pool, the others let the cost
# model decide.
MATRIX = [
    pytest.param(
        workers, reduction, fanout,
        id=f"bitset-w{workers}{'-fanout' if fanout else ''}-{reduction}",
    )
    for workers, fanout in ((1, False), (2, False), (4, False), (2, True), (4, True))
    for reduction in ("off", "prune", "full")
]


def _graph():
    # Dense near-clique communities with a peelable preferential fringe:
    # both rules fire, and the reduced graph still drives a multi-step
    # H*-recursion (so reduction composes with checkpoint-bearing steps).
    return fringed_clique_communities(
        220, seed=5, core_fraction=0.7,
        community_min=14, community_max=20, defects=5,
    )


def canonical(stream) -> bytes:
    return render_clique_lines(sorted(stream)).encode("ascii")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The baseline stream: serial, reduction off."""
    result = run_enumeration(
        _graph(), tmp_path_factory.mktemp("reference"),
        workers=1, reduction="off",
    )
    assert result.stream, "reference enumeration produced nothing"
    return result


@pytest.fixture(scope="module")
def oracle():
    return oracle_cliques(_graph())


@pytest.fixture(scope="module")
def per_level_streams():
    """Collected streams per reduction level, for within-level determinism."""
    return {}


class TestReductionMatrix:
    @pytest.mark.parametrize("workers, reduction, fanout", MATRIX)
    def test_same_cliques_and_consistent_metrics(
        self, workers, reduction, fanout, reference, oracle, per_level_streams,
        tmp_path,
    ):
        result = run_enumeration(
            _graph(), tmp_path, workers=workers, reduction=reduction,
            fanout=fanout,
        )
        if fanout:
            assert_pool_used(result)
        if reduction == "off":
            # The new axis defaults to a provable no-op.
            assert result.stream == reference.stream
            assert result.canonical_bytes == reference.canonical_bytes
        else:
            # Reduction reorders (direct emissions come first) but must
            # deliver exactly the same set of maximal cliques.
            assert len(result.stream) == len(set(result.stream))
            assert canonical(result.stream) == canonical(reference.stream)
        assert set(result.stream) == oracle
        # Within one level, the stream order is deterministic across
        # worker counts.
        previous = per_level_streams.setdefault(reduction, result.stream)
        assert result.stream == previous
        assert_stream_metrics_consistent(result)

    @pytest.mark.parametrize("workers, reduction, fanout", MATRIX)
    def test_reduce_counters_reconcile(
        self, workers, reduction, fanout, reference, tmp_path
    ):
        result = run_enumeration(
            _graph(), tmp_path, workers=workers, reduction=reduction,
            fanout=fanout,
        )
        direct = result.counter("repro_reduce_cliques_direct_total")
        suppressed = result.counter("repro_reduce_cliques_suppressed_total")
        removed = result.counter("repro_reduce_vertices_removed_total")
        if reduction == "off":
            assert direct == suppressed == removed == 0
        else:
            # The benchmark graph is built so both counters are live.
            assert direct > 0
            assert removed > 0
            assert result.counter("repro_reduce_runs_total") == 1
        assert (
            result.counter("repro_mce_cliques_emitted_total")
            + direct - suppressed
            == len(result.stream)
        )
        # Whatever the engine saw, the consumer got the reference count.
        assert len(result.stream) == len(reference.stream)
