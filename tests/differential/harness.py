"""Shared driver for the differential suite.

One function, :func:`run_enumeration`, runs ExtMCE under any
workers/verify_checksums/reduction combination — the parallel driver
either as its cost model decides or with every phase forced onto the
pool (``fanout=True``) — with a fresh metrics registry
and returns everything the differential assertions need: the raw clique
stream (enumeration order), its canonical byte rendering, and the final
metrics snapshot.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.result import render_clique_lines
from repro.parallel import ParallelExtMCE
from repro.storage.diskgraph import DiskGraph
from tests.helpers import forced_fanout, metered

Clique = frozenset


@dataclass
class RunResult:
    """Everything one enumeration run produced."""

    stream: list[Clique]
    canonical_bytes: bytes
    snapshot: dict

    def counter(self, name: str) -> int | float:
        """Sum of ``name`` across label sets in this run's snapshot."""
        return metrics.counter_value(self.snapshot, name)


def run_enumeration(
    graph,
    workdir: str | Path,
    *,
    workers: int = 1,
    verify_checksums: bool = True,
    trace: bool = False,
    reduction: str = "off",
    fanout: bool = False,
) -> RunResult:
    """Enumerate ``graph`` once under the given configuration.

    ``fanout`` forces every parallel phase with work onto the pool;
    otherwise the cost model decides.

    A fresh registry is installed for the run (and the previous one
    restored afterwards), so snapshot totals are per-run, not
    process-cumulative.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    with metered() as registry:
        disk = DiskGraph.create(
            workdir / "graph.bin", graph, verify_checksums=verify_checksums
        )
        config = ExtMCEConfig(
            workdir=workdir,
            workers=workers,
            reduction=reduction,
            verify_checksums=verify_checksums,
            trace_path=workdir / "trace.jsonl" if trace else None,
        )
        driver_cls = ParallelExtMCE if workers > 1 else ExtMCE
        with forced_fanout() if fanout else contextlib.nullcontext():
            stream = list(driver_cls(disk, config).enumerate_cliques())
    return RunResult(
        stream=stream,
        canonical_bytes=render_clique_lines(stream).encode("ascii"),
        snapshot=registry.snapshot(),
    )


def oracle_cliques(graph) -> set[Clique]:
    """The clique set of the set-based Tomita enumerator — the in-memory
    reference every ExtMCE configuration is checked against."""
    return set(tomita_maximal_cliques(graph))


def assert_pool_used(result: RunResult) -> None:
    """A forced fan-out run really ran chunks on the pool, one decision
    per fanned-out phase."""
    assert result.counter("repro_parallel_chunks_total") > 0
    assert metrics.counter_value(
        result.snapshot, "repro_parallel_phases_total", {"mode": "fanout"}
    ) > 0


def assert_stream_metrics_consistent(result: RunResult) -> None:
    """The driver-counter invariants every configuration must satisfy.

    With reduction enabled the engine enumerates the *reduced* graph, so
    its own emitted total reconciles with the delivered stream through
    the reconstruction counters: direct emissions are added by the map,
    non-maximal lifts are dropped by the suppression set.  With
    reduction off both reduce counters are zero and the relation
    collapses to the historical ``emitted == len(stream)``.
    """
    emitted = result.counter("repro_mce_cliques_emitted_total")
    suppressed = result.counter("repro_mce_cliques_suppressed_total")
    singletons = result.counter("repro_mce_singleton_cliques_total")
    categories = result.counter("repro_mce_category_cliques_total")
    reduce_direct = result.counter("repro_reduce_cliques_direct_total")
    reduce_suppressed = result.counter("repro_reduce_cliques_suppressed_total")
    assert emitted + reduce_direct - reduce_suppressed == len(result.stream)
    assert categories == emitted + suppressed - singletons
    # A reduction can peel the graph away entirely; only a run whose
    # engine actually emitted something must have recursed.
    if emitted > 0:
        assert result.counter("repro_mce_steps_total") >= 1
