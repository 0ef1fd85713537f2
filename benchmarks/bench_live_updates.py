"""Smoke benchmark: live store update throughput and serving latency.

Drives a randomized insert/delete edge stream through the full live
stack (``HStarMaintainer`` → ``LiveIngestor`` → ``LiveCliqueStore``)
and records three things to ``BENCH_live.json`` at the repository root
(in the ``{bench, schema, host, git_sha, headline, runs}`` envelope):

1. sustained ingestion throughput (edge updates/second and clique
   deltas/second) over the whole stream;
2. query latency (p50/p95 of ``cliques_containing`` through
   :class:`CliqueQueryEngine`) over the idle store; and
3. the same latency *while a compaction is running* — the build stage
   is artificially stretched with an injected ``latency`` fault so the
   measurement window is real; and
4. seconds per compaction: the stream replayed into a fresh store that
   folds its tail every ``COMPACTION_TAIL`` deltas, each fold (a merge
   of the previous generation with the tail) timed on its own.

The non-blocking-compaction contract is asserted, making this a
pass/fail smoke: p95 during compaction must stay within 2x the idle
p95 (plus a 2 ms absolute grace so microsecond-scale noise on shared
CI boxes cannot flip the verdict).  The raw quantiles land in the JSON
either way, so the regression signal lives in its committed history.

Run directly (as CI does)::

    PYTHONPATH=src python benchmarks/bench_live_updates.py
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

from repro.dynamic.maintainer import HStarMaintainer
from repro.faults import FaultPlan, FaultRule
from repro.live import LiveCliqueStore, LiveIngestor
from repro.service import CliqueQueryEngine

try:  # pytest collection from the repository root
    from benchmarks.common import git_sha, host_shape, quantiles, random_edge_stream
except ImportError:  # executed directly: benchmarks/ itself is sys.path[0]
    from common import git_sha, host_shape, quantiles, random_edge_stream

NUM_VERTICES = 60
NUM_EVENTS = 1_500
DELETE_SHARE = 0.25
SEED = 11
IDLE_SAMPLES = 400
COMPACTION_WINDOW_SECONDS = 2.0
COMPACTION_TAIL = 512
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_live.json"


def _sample_queries(engine: CliqueQueryEngine, rng: random.Random,
                    count: int, stop: threading.Event | None = None,
                    ) -> list[float]:
    samples: list[float] = []
    while len(samples) < count:
        vertex = rng.randrange(NUM_VERTICES)
        started = time.perf_counter()
        result = engine.cliques_containing(vertex)
        samples.append(time.perf_counter() - started)
        assert not result.degraded, "query degraded during the benchmark"
        if stop is not None and stop.is_set():
            break
    return samples


def _time_compactions(directory: Path, events: list[tuple]) -> list[float]:
    """Replay ``events`` into a fresh store, folding every
    ``COMPACTION_TAIL`` deltas; returns the seconds of each fold."""
    store = LiveCliqueStore.initialize(directory)
    ingestor = LiveIngestor(HStarMaintainer(), store)
    seconds = []
    try:
        for event in events:
            ingestor.apply_event(event)
            if store.tail_length >= COMPACTION_TAIL:
                started = time.perf_counter()
                store.compact()
                seconds.append(time.perf_counter() - started)
        store.verify()
    finally:
        store.close()
    return seconds


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="bench_live_"))
    directory = tmp / "live"
    try:
        rng = random.Random(SEED)
        events = random_edge_stream(NUM_VERTICES, NUM_EVENTS, DELETE_SHARE, rng)

        store = LiveCliqueStore.initialize(directory)
        ingestor = LiveIngestor(HStarMaintainer(), store)
        ingestor.ingest(events)
        report = ingestor.report
        store.close()

        # Reopen with a stretched compaction build stage: readers get a
        # guaranteed measurement window while the fold runs.
        plan = FaultPlan([
            FaultRule(operation="compaction", kind="latency",
                      path_contains="build",
                      latency_seconds=COMPACTION_WINDOW_SECONDS),
        ])
        store = LiveCliqueStore.open(directory, fault_plan=plan)
        engine = CliqueQueryEngine(store)
        num_cliques = store.num_cliques

        idle = _sample_queries(engine, rng, IDLE_SAMPLES)

        done = threading.Event()
        compactor = threading.Thread(
            target=lambda: (store.compact(), done.set()), daemon=True
        )
        compactor.start()
        time.sleep(0.2)  # let the thread park inside the build stage
        during = _sample_queries(engine, rng, 100_000, stop=done)
        compactor.join(timeout=60.0)
        assert done.is_set(), "compaction never finished"
        assert store.tail_length == 0

        store.verify()
        store.close()

        folds = _time_compactions(tmp / "folds", events)

        idle_q = quantiles(idle, include_count=True)
        during_q = quantiles(during, include_count=True)
        grace_us = 2_000.0
        non_blocking = during_q["p95_us"] <= 2 * idle_q["p95_us"] + grace_us

        payload = {
            "bench": "live_updates",
            "schema": 1,
            "host": host_shape(),
            "git_sha": git_sha(),
            "headline": {
                "updates_per_second": report.updates_per_second,
                "idle_p95_us": idle_q["p95_us"],
                "during_compaction_p95_us": during_q["p95_us"],
                "non_blocking_compaction": non_blocking,
            },
            "stream": {
                "vertices": NUM_VERTICES,
                "events": len(events),
                "delete_share": DELETE_SHARE,
                "seed": SEED,
            },
            "runs": {
                "ingest": {
                    "edges_applied": report.edges_applied,
                    "insertions": report.insertions,
                    "deletions": report.deletions,
                    "deltas_emitted": report.deltas_emitted,
                    "seconds": report.seconds,
                    "updates_per_second": report.updates_per_second,
                    "num_cliques": num_cliques,
                },
                "latency_idle": idle_q,
                "latency_during_compaction": {
                    **during_q,
                    "compaction_window_seconds": COMPACTION_WINDOW_SECONDS,
                    "non_blocking_p95_grace_us": grace_us,
                },
                "compaction": {
                    "tail_deltas": COMPACTION_TAIL,
                    "compactions": len(folds),
                    "seconds_per_compaction": statistics.median(folds),
                    "max_seconds": max(folds),
                    "total_seconds": sum(folds),
                },
            },
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

        print("live update smoke benchmark")
        print(f"  stream           : {len(events)} events over "
              f"{NUM_VERTICES} vertices ({report.insertions} inserts, "
              f"{report.deletions} deletes)")
        print(f"  sustained ingest : {report.updates_per_second:9.0f} updates/s "
              f"({report.deltas_emitted} clique deltas)")
        print(f"  live cliques     : {num_cliques}")
        print(f"  idle queries     : p50 {idle_q['p50_us']:8.1f} us   "
              f"p95 {idle_q['p95_us']:8.1f} us")
        print(f"  during compaction: p50 {during_q['p50_us']:8.1f} us   "
              f"p95 {during_q['p95_us']:8.1f} us "
              f"({during_q['samples']} samples)")
        print(f"  compaction       : {statistics.median(folds) * 1e3:8.2f} ms per fold "
              f"(median of {len(folds)}, every {COMPACTION_TAIL} deltas)")
        print(f"  results written  : {RESULT_PATH}")
        assert non_blocking, (
            f"compaction blocked readers: p95 {during_q['p95_us']:.1f} us "
            f"during vs {idle_q['p95_us']:.1f} us idle"
        )
        print("PASS")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
