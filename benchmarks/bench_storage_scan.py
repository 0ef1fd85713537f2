"""Storage micro-benchmark: records decoded per second on every adjacency scan.

ExtMCE's cost model is sequential passes over the on-disk graph ``G``:
each recursion step scans it once.  That scan, the step pass, stages the
h-neighbors' within-``Hnb`` records (whose sizes place the
spill-partition boundaries, Section 4.2.3), writes the residual graph
and feeds the next step's L*-sampler; one streamed read of the staging
file then fills the partition files.  This script times the record
decoder behind all of them on the standard power-law workload
(``common.scaling_graph(4000)``):

* ``scan`` — one full ``DiskGraph.scan``;
* ``rewrite_without`` — one residual rewrite dropping every tenth vertex
  (one scan of ``G`` plus the write of the residual);
* ``partition_build`` — ``HnbPartitionStore.build`` over the neighbors of
  the 100 highest-degree vertices (one scan of ``G``, the staging write
  and read, and the spill writes);
* ``step_pass`` — the step's pass as ExtMCE runs it: the same build,
  whose scan also writes the ``rewrite_without`` residual and offers
  every surviving record to an L*-sampler (one scan of ``G`` plus the
  staging, spill and residual writes);
* ``partition_read`` — reading every spill file of that store back.

Each run reports records decoded per second (median and best of
``REPEATS``, metrics disabled).  A separate checked pass with a live
metrics registry asserts that the decoded adjacency equals the source
graph and that ``repro_storage_records_verified_total`` grew by exactly
the number of records decoded.  Speed is reported, not asserted.

Results go to ``BENCH_storage.json`` at the repository root.  Run
directly (as CI does)::

    PYTHONPATH=src python benchmarks/bench_storage_scan.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import metrics
from repro.core.lstar import LStarSampler
from repro.storage.diskgraph import DiskGraph
from repro.storage.partitions import HnbPartitionStore, read_partition_file

try:  # pytest collection from the repository root
    from benchmarks.common import ROOT, git_sha, host_shape, scaling_graph
except ImportError:  # executed directly: benchmarks/ itself is sys.path[0]
    from common import ROOT, git_sha, host_shape, scaling_graph

NUM_VERTICES = 4000
REPEATS = 5
HUBS = 100
PARTITION_BUDGET_UNITS = 5000
RESULT_PATH = ROOT / "BENCH_storage.json"


def timed(operation, repeats: int) -> list[float]:
    """Wall seconds of ``repeats`` calls of ``operation``."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        operation()
        walls.append(time.perf_counter() - started)
    return walls


def verified_delta(registry, operation):
    """Run ``operation``; return its result and the verified-record count."""
    before = metrics.counter_value(
        registry.snapshot(), "repro_storage_records_verified_total"
    )
    result = operation()
    after = metrics.counter_value(
        registry.snapshot(), "repro_storage_records_verified_total"
    )
    return result, after - before


def main() -> int:
    graph = scaling_graph(NUM_VERTICES)
    adjacency = {v: tuple(sorted(graph.neighbors(v))) for v in graph.vertices()}
    removed = set(sorted(adjacency)[::10])
    residual = {
        v: tuple(u for u in neighbors if u not in removed)
        for v, neighbors in adjacency.items()
        if v not in removed
    }
    hubs = sorted(adjacency, key=lambda v: (-len(adjacency[v]), v))[:HUBS]
    members = sorted({u for hub in hubs for u in adjacency[hub]})
    member_set = set(members)
    residual_edges = sum(map(len, residual.values())) // 2
    # The step's L*-target: the hubs' star size, as ExtMCE's step 1 sets it.
    sample_target = sum(len(adjacency[hub]) for hub in hubs)

    tmp = Path(tempfile.mkdtemp(prefix="bench_storage_"))
    failures = []
    try:
        disk = DiskGraph.create(tmp / "graph.bin", graph)
        n = disk.num_vertices

        def scan():
            return {record.vertex: record.neighbors for record in disk.scan()}

        def rewrite():
            return disk.rewrite_without(removed, tmp / "residual.bin")

        def build():
            return HnbPartitionStore.build(
                disk, members, tmp / "spill", PARTITION_BUDGET_UNITS
            )

        def step_pass():
            sampler = LStarSampler(residual_edges, sample_target, seed=1)
            return HnbPartitionStore.build(
                disk, members, tmp / "step_spill", PARTITION_BUDGET_UNITS,
                removed=removed, residual_path=tmp / "step_residual.bin",
                on_survivor=sampler.offer,
            )

        store = build()

        def read_back():
            loaded = {}
            for path in store.partition_paths():
                loaded.update(read_partition_file(path))
            return loaded

        # Records decoded by one call of each operation.
        runs = {
            "scan": {"operation": scan, "records": n},
            "rewrite_without": {"operation": rewrite, "records": n},
            "partition_build": {"operation": build, "records": n},
            "step_pass": {"operation": step_pass, "records": n},
            "partition_read": {"operation": read_back, "records": len(members)},
        }

        # Checked pass: decoded adjacency and the verified counter.
        registry = metrics.MetricsRegistry()
        previous = metrics.get_registry()
        metrics.set_registry(registry)
        try:
            checked = {name: verified_delta(registry, run["operation"])
                       for name, run in runs.items()}
        finally:
            metrics.set_registry(previous)
        rewritten = checked["rewrite_without"][0]
        rescanned = {record.vertex: record.neighbors for record in rewritten.scan()}
        stepped = checked["step_pass"][0]
        step_rescanned = {
            record.vertex: record.neighbors for record in stepped.residual.scan()
        }
        step_spilled = {}
        for path in stepped.partition_paths():
            step_spilled.update(read_partition_file(path))
        # Every build writes the same spill files, so the read-back
        # checks what the checked build wrote.
        spilled = checked["partition_read"][0]
        expected_spill = {
            v: frozenset(u for u in adjacency[v] if u in member_set) for v in members
        }
        for name, ok in (
            ("scan", checked["scan"][0] == adjacency),
            ("rewrite_without", rescanned == residual),
            ("partition_build", spilled == expected_spill),
            ("step_pass",
             step_rescanned == residual and step_spilled == expected_spill),
            ("partition_read", spilled == expected_spill),
        ):
            if not ok:
                failures.append(f"{name}: decoded adjacency differs from the source")
        for name, run in runs.items():
            if checked[name][1] != run["records"]:
                failures.append(
                    f"{name}: verified counter moved by {checked[name][1]}, "
                    f"expected {run['records']}"
                )

        # Timed passes, metrics disabled.
        for run in runs.values():
            run["operation"]()  # warm-up, discarded
            walls = timed(run.pop("operation"), REPEATS)
            run["seconds_median"] = statistics.median(walls)
            run["seconds_best"] = min(walls)
            run["records_per_s_median"] = run["records"] / run["seconds_median"]
            run["records_per_s_best"] = run["records"] / run["seconds_best"]
        store.close()

        document = {
            "bench": "storage_scan",
            "schema": 1,
            "host": host_shape(),
            "git_sha": git_sha(),
            "headline": {
                f"{name}_records_per_s": run["records_per_s_median"]
                for name, run in runs.items()
            },
            "graph": {
                "model": "powerlaw_cluster_graph",
                "n": graph.num_vertices,
                "edges": graph.num_edges,
                "spill_members": len(members),
                "spill_partitions": store.num_partitions,
            },
            "repeats": REPEATS,
            "runs": runs,
        }
        RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")

        print("storage scan micro-benchmark")
        print(f"  graph               : {graph.num_vertices} vertices, "
              f"{graph.num_edges} edges, format v{disk.format_version}")
        for name, run in runs.items():
            print(f"  {name:19s} : {run['records_per_s_median']:>10,.0f} records/s "
                  f"(median of {REPEATS}; best {run['records_per_s_best']:,.0f})")
        print(f"  results             : {RESULT_PATH.name}")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("PASS")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
