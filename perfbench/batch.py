"""Batch workloads: unordered edge list → converter → (reduce →) ExtMCE.

One pipeline run starts from the in-memory edge list and ends when the
last clique has been delivered to the consumer.  Every run is checked:
its canonical clique stream must equal in-memory Tomita on the same
graph (computed in set-up), and the driver's clique total must match
the stream it delivered.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import repro.storage.convert
from repro import metrics
from repro.baselines import tomita_maximal_cliques
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.graph import AdjacencyGraph
from repro.parallel import ParallelExtMCE

import inputs
import spans
from hostprobe import AS_MEASURED, HostProbe, HostSpeed
from measure import Snapshot, fresh_registry, median, median_layers, percentile, ratio


@dataclass
class BatchInput:
    """What set-up hands a pipeline run: the inputs and the oracle."""

    edges: list[tuple[int, int]]
    num_vertices: int
    run_pairs: int
    config: dict
    oracle: list[tuple[int, ...]]
    tomita_s: float


def canonical(cliques) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(clique)) for clique in cliques)


def _with_oracle(edges, num_vertices, run_pairs, config) -> BatchInput:
    graph = AdjacencyGraph.from_edges(edges)
    started = time.perf_counter()
    oracle = canonical(tomita_maximal_cliques(graph, kernel="bitset"))
    tomita_s = time.perf_counter() - started
    return BatchInput(edges, num_vertices, run_pairs, config, oracle, tomita_s)


def setup_powerlaw(sizes: inputs.Sizes, seed: int, _workdir: Path) -> BatchInput:
    edges = inputs.shuffled(inputs.powerlaw_edges(sizes.powerlaw_vertices), seed)
    return _with_oracle(
        edges, sizes.powerlaw_vertices,
        run_pairs=max(2, 2 * len(edges) // sizes.sort_runs + 1),
        config={"memory_budget_units": sizes.memory_budget_units,
                "kernel": "bitset", "reduction": "off", "workers": 1},
    )


def setup_communities(sizes: inputs.Sizes, seed: int, _workdir: Path) -> BatchInput:
    edges = inputs.shuffled(inputs.community_edges(sizes), seed)
    return _with_oracle(
        edges, sizes.community_vertices + sizes.fringe_vertices,
        run_pairs=max(2, len(edges) // 2),
        config={"kernel": "bitset", "reduction": "full",
                "workers": inputs.WORKERS},
    )


@dataclass
class PipelineRun:
    started: float  # perf_counter at the start
    seconds: float
    cliques: int
    delivery_p50_s: float
    delivery_p99_s: float
    correct: bool
    report: object


def run_pipeline(inp: BatchInput, workdir: Path, tracer: spans.Tracer | None = None) -> PipelineRun:
    """One full pipeline run, checked against the oracle afterwards."""
    workdir.mkdir(parents=True)
    driver = ParallelExtMCE if inp.config["workers"] > 1 else ExtMCE
    def scope(name: str, layer: str):
        return tracer.span(name, layer) if tracer is not None else nullcontext()

    delivered = []
    stamps = []
    try:
        started = time.perf_counter()
        with scope("bench.pipeline", "other"):
            disk = repro.storage.convert.edge_list_to_disk_graph(
                iter(inp.edges), workdir / "graph.bin", workdir / "sort",
                run_pairs=inp.run_pairs,
            )
            algo = driver(disk, ExtMCEConfig(workdir=workdir / "run", **inp.config))
            with scope("core.driver", "core"):
                for clique in algo.enumerate_cliques():
                    delivered.append(clique)
                    stamps.append(time.perf_counter())
        seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    offsets = [stamp - started for stamp in stamps]
    correct = (
        canonical(delivered) == inp.oracle
        and algo.report.total_cliques == len(delivered)
    )
    return PipelineRun(
        started=started, seconds=seconds, cliques=len(delivered),
        delivery_p50_s=percentile(offsets, 0.50) if offsets else seconds,
        delivery_p99_s=percentile(offsets, 0.99) if offsets else seconds,
        correct=correct, report=algo.report,
    )


def _summary(runs: list[PipelineRun], speed: HostSpeed) -> dict:
    """Medians over runs, with each run's times in ``speed``'s seconds."""
    def seconds(run: PipelineRun, offset: float) -> float:
        return speed.reference_seconds(run.started, run.started + offset)

    return {
        "throughput_per_s": median(
            [run.cliques / seconds(run, run.seconds) for run in runs]),
        "latency_p50_ms": median(
            [seconds(run, run.delivery_p50_s) for run in runs]) * 1e3,
        "latency_p99_ms": median(
            [seconds(run, run.delivery_p99_s) for run in runs]) * 1e3,
    }


def measure(inp: BatchInput, _seed: int, workdir: Path, seconds: float,
            probe: HostProbe) -> tuple[dict, int, int, dict]:
    """Untraced pipeline runs for ``seconds``; end-to-end metrics at
    reference host speed, and the same metrics uncorrected, with each
    run's slowdown."""
    runs: list[PipelineRun] = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        runs.append(run_pipeline(inp, workdir / f"run{len(runs)}"))
    raw = {**_summary(runs, AS_MEASURED),
           "slowdowns": [_slowdown(probe, run) for run in runs]}
    return (_summary(runs, probe.speed()), len(runs),
            sum(not run.correct for run in runs), raw)


def _slowdown(probe: HostProbe, run: PipelineRun) -> float:
    return probe.slowdown(run.started, run.started + run.seconds)


def trace(inp: BatchInput, _seed: int, workdir: Path, seconds: float,
          probe: HostProbe) -> tuple[dict, int, int, spans.Tracer]:
    """Alternate untraced and traced runs; per-layer metrics of the traced ones."""
    plain: list[PipelineRun] = []
    traced: list[tuple[PipelineRun, dict]] = []
    failed = 0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        run = run_pipeline(inp, workdir / f"plain{len(plain)}")
        plain.append(run)
        failed += not run.correct
        tracer = spans.Tracer()
        registry = fresh_registry()
        restore = spans.instrument(tracer)
        try:
            run = run_pipeline(inp, workdir / f"traced{len(traced)}", tracer)
        finally:
            restore()
            metrics.disable()
        values, reconciled = _layer_metrics(inp, run, tracer, Snapshot(registry.snapshot()))
        traced.append((run, values))
        failed += not (run.correct and reconciled)
    per_layer = median_layers([values for _run, values in traced])
    per_layer["trace.overhead_frac"] = median(
        [run.seconds / _slowdown(probe, run) for run, _ in traced]
    ) / median([run.seconds / _slowdown(probe, run) for run in plain]) - 1.0
    per_layer["ref.tomita_s"] = inp.tomita_s
    return per_layer, len(plain) + len(traced), failed, tracer


def _layer_metrics(inp: BatchInput, run: PipelineRun, tracer: spans.Tracer,
                   snap: Snapshot) -> tuple[dict, bool]:
    """Per-layer metrics of one traced run, and whether the counters
    reconcile: ``emitted + direct - suppressed == len(stream)``."""
    recorded = tracer.spans
    root = next(span for span in recorded if span.name == "bench.pipeline")
    own = spans.self_seconds(recorded)
    self_by_layer = spans.layer_self_seconds(recorded, within=root)
    inclusive = spans.inclusive_seconds(recorded)
    emitted = snap.counter("repro_mce_cliques_emitted_total")
    suppressed = snap.counter("repro_mce_cliques_suppressed_total")
    direct = snap.counter("repro_reduce_cliques_direct_total")
    dropped = snap.counter("repro_reduce_cliques_suppressed_total")
    kernel_cliques = snap.counter("repro_kernel_cliques_total")
    hits = snap.counter("repro_bufferpool_hits_total")
    lookups = hits + snap.counter("repro_bufferpool_misses_total")
    chunk_s = snap.histogram_sum("repro_parallel_chunk_seconds")
    fanned_s = inclusive.get("parallel.map", 0.0)
    num_edges = len(inp.edges)
    values = {
        "storage.convert_s": inclusive.get("storage.convert", 0.0),
        "storage.partition_build_s": inclusive.get("storage.partition_build", 0.0),
        "storage.residual_rewrite_s": inclusive.get("storage.residual_rewrite", 0.0),
        "storage.random_reads": snap.counter("repro_storage_random_reads_total"),
        "storage.sequential_scans": snap.counter("repro_storage_sequential_scans_total"),
        "storage.pages_read": snap.counter("repro_storage_pages_read_total"),
        "storage.pages_written": snap.counter("repro_storage_pages_written_total"),
        "storage.io_pages": run.report.pages_read + run.report.pages_written,
        "storage.bufferpool_hit_ratio": ratio(hits, lookups),
        "storage.bufferpool_lookups": lookups,
        "reduce.s": self_by_layer.get("reduce", 0.0),
        "reduce.vertices_removed_frac": ratio(
            snap.counter("repro_reduce_vertices_removed_total"), inp.num_vertices),
        "reduce.edges_removed_frac": ratio(
            snap.counter("repro_reduce_edges_removed_total"), num_edges),
        "core.hstar_s": inclusive.get("core.hstar", 0.0),
        "core.lstar_s": inclusive.get("core.lstar", 0.0),
        "core.tree_build_s": inclusive.get("core.tree_build", 0.0),
        "core.lift_s": inclusive.get("core.lift", 0.0),
        "core.steps": snap.counter("repro_mce_steps_total"),
        "core.suppressed_ratio": ratio(suppressed, emitted + suppressed),
        "core.lifted": emitted + suppressed,
        "core.driver_self_s": sum(
            own[span.id] for span in recorded if span.name == "core.driver"),
        "core.hashtable_high_water": snap.high_water("repro_mce_hashtable_entries"),
        "core.peak_mem_units": run.report.peak_memory_units,
        "kernel.s": self_by_layer.get("kernel", 0.0),
        "kernel.subproblems": snap.counter("repro_kernel_subproblems_total"),
        "kernel.cliques": kernel_cliques,
        "kernel.useful_ratio": ratio(emitted, kernel_cliques),
        "parallel.pool_start_s": inclusive.get("parallel.pool_start", 0.0),
        "parallel.wait_s": fanned_s,
        "parallel.chunks": snap.counter("repro_parallel_chunks_total"),
        "parallel.chunk_s": chunk_s,
        "parallel.busy_frac": ratio(chunk_s, inp.config["workers"] * fanned_s),
        "parallel.payload_bytes": snap.counter("repro_parallel_payload_bytes_total"),
        "parallel.shm_bytes": snap.counter("repro_parallel_shm_bytes_total"),
        "parallel.tasks_split": snap.counter("repro_parallel_tasks_split_total"),
        "parallel.tasks_stolen": snap.counter("repro_parallel_tasks_stolen_total"),
        "parallel.retries": snap.counter("repro_parallel_chunk_retries_total"),
        "parallel.inline_chunks": snap.counter("repro_parallel_inline_chunks_total"),
        "trace.window_s": root.seconds,
        "trace.unattributed_frac": ratio(own[root.id], root.seconds),
    }
    for layer in spans.LAYERS:
        values[f"share.{layer}"] = ratio(self_by_layer.get(layer, 0.0), root.seconds)
    values["share.other"] = values["trace.unattributed_frac"]
    return values, emitted + direct - dropped == run.cliques
