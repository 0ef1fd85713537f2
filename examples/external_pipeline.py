"""The full production pipeline: raw edge list to verified clique file.

Everything a real deployment needs, end to end:

1. **convert** an unordered text edge list to the sorted on-disk format
   with a bounded-memory external sort;
2. **enumerate** with ExtMCE under a memory budget, with per-step
   checkpoints (crash-resumable) and a JSONL telemetry trace;
3. **re-enumerate** on a 2-worker process pool (``ParallelExtMCE``) and
   check the parallel stream is identical to the serial one;
4. **verify** the output file against the graph.

Run with::

    python examples/external_pipeline.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro import (
    CliqueFileSink,
    ExtMCE,
    ExtMCEConfig,
    MemoryModel,
    ParallelExtMCE,
    edge_list_file_to_disk_graph,
    load_trace,
    metrics,
    summarize_trace,
    verify_clique_set,
)
from repro.generators import DATASETS
from repro.storage.edgelist import write_edge_list


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # --- 0. A raw dataset, as it would arrive: shuffled text edges.
        edges = DATASETS["protein"].edges()
        random.Random(0).shuffle(edges)
        raw = root / "edges.txt"
        write_edge_list(raw, edges)
        print(f"raw input       : {raw.name}, {len(edges)} unordered edges")

        # --- 1. External-sort conversion (bounded memory).
        disk = edge_list_file_to_disk_graph(
            raw, root / "graph.bin", root / "sort", run_pairs=4096
        )
        print(
            f"converted       : {disk.path.name}, {disk.num_vertices} vertices, "
            f"{disk.num_edges} edges (4096-pair sort runs)"
        )

        # --- 2. Budgeted, checkpointed, traced enumeration.
        budget = (2 * disk.num_edges + disk.num_vertices) // 2
        memory = MemoryModel(budget=budget)
        config = ExtMCEConfig(
            workdir=root / "work",
            memory_budget_units=budget,
            checkpoint=True,
            trace_path=root / "run.jsonl",
        )
        algo = ExtMCE(disk, config, memory=memory)
        out = root / "cliques.txt"
        with CliqueFileSink(out) as sink:
            algo.run(sink=sink)
        print(
            f"enumerated      : {sink.count} maximal cliques under a "
            f"{budget}-unit budget (peak {memory.peak_units})"
        )

        # --- 3. The same run on a 2-worker pool: identical stream.
        parallel = ParallelExtMCE(
            disk,
            ExtMCEConfig(
                workdir=root / "work_par",
                memory_budget_units=budget,
                workers=2,
            ),
            memory=MemoryModel(budget=budget),
        )
        registry = metrics.enable(metrics.MetricsRegistry())
        try:
            parallel_cliques = list(parallel.enumerate_cliques())
        finally:
            metrics.disable()
        fallbacks = metrics.counter_value(
            registry.snapshot(), "repro_parallel_fallback_steps_total"
        )
        assert parallel_cliques == [
            frozenset(int(x) for x in line.split())
            for line in out.read_text().splitlines()
        ]
        print(
            f"parallel        : 2 workers re-enumerated the same "
            f"{len(parallel_cliques)} cliques, in the same order "
            f"({fallbacks} pool fallbacks)"
        )

        # --- 4. Trace summary.
        print()
        print(summarize_trace(load_trace(root / "run.jsonl")))

        # --- 5. Verification of the output file.
        graph = disk.to_adjacency_graph()
        cliques = (
            frozenset(int(x) for x in line.split())
            for line in out.read_text().splitlines()
        )
        report = verify_clique_set(graph, cliques)
        print()
        print(f"verification    : {report.summary()}")
        assert report.ok


if __name__ == "__main__":
    main()
