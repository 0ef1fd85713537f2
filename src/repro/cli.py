"""Command-line interface: ``repro-mce``.

Subcommands::

    repro-mce convert edges.txt graph.bin      # edge list -> disk graph
    repro-mce stats graph.bin                  # n, m, h, H*-graph sizes
    repro-mce enumerate graph.bin -o out.txt   # ExtMCE over a disk graph
    repro-mce enumerate graph.bin --index-out idx/   # + build a query index
    repro-mce serve idx/ --port 7777           # query service over an index
    repro-mce live store/ --stream stream.txt  # continuously maintained serving
    repro-mce verify-index idx/                # offline index integrity audit
    repro-mce generate blogs edges.txt         # synthesize a dataset
    repro-mce maintain graph.bin stream.txt    # replay a dynamic stream
    repro-mce experiments table4 figure3       # paper tables

``enumerate`` accepts either a binary DiskGraph or a plain text edge list
(converted on the fly); memory budgets are expressed in accounting units
(8 bytes each, see ``repro.storage.memory``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.tables import render_table
from repro.core.estimator import estimate_tree_size
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.hstar import extract_hstar_graph
from repro.core.result import CliqueCounter, CliqueFileSink
from repro.dynamic.maintainer import HStarMaintainer
from repro.errors import ReproError, StorageError
from repro.parallel import ParallelExtMCE
from repro.generators.datasets import DATASETS
from repro.graph.powerlaw import fit_rank_exponent
from repro.storage.convert import edge_list_file_to_disk_graph
from repro.storage.diskgraph import DiskGraph
from repro.storage.edgelist import (
    read_timestamped_edge_list,
    write_edge_list,
)
from repro.storage.memory import MemoryModel


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-mce`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-mce",
        description="External-memory maximal clique enumeration (SIGMOD 2010 H*-graph).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert a text edge list to a DiskGraph")
    convert.add_argument("edge_list", type=Path)
    convert.add_argument("output", type=Path)
    convert.add_argument("--run-pairs", type=int, default=1 << 18,
                         help="external-sort buffer size in directed pairs")

    stats = sub.add_parser(
        "stats",
        help="summarise a graph and its H*-graph, or render a metrics snapshot",
    )
    stats.add_argument("graph", type=Path,
                       help="DiskGraph (.bin), text edge list, or a metrics "
                            "snapshot JSON written by enumerate --metrics-out")

    enumerate_ = sub.add_parser("enumerate", help="run ExtMCE over a graph")
    enumerate_.add_argument("graph", type=Path,
                            help="DiskGraph (.bin) or text edge list")
    enumerate_.add_argument("-o", "--output", type=Path,
                            help="write cliques here (one sorted line each)")
    enumerate_.add_argument("--budget", type=int,
                            help="memory budget in accounting units")
    enumerate_.add_argument("--min-size", type=int, default=1,
                            help="only output cliques of at least this size")
    enumerate_.add_argument("--seed", type=int, default=0)
    enumerate_.add_argument("--checkpoint-dir", type=Path,
                            help="persist a resumable checkpoint after every "
                                 "recursion step into this directory")
    enumerate_.add_argument("--resume", action="store_true",
                            help="resume an interrupted run from "
                                 "--checkpoint-dir instead of starting over")
    enumerate_.add_argument("--trace", type=Path,
                            help="append JSONL run telemetry to this file "
                                 "and print a per-step summary")
    enumerate_.add_argument("--workers", type=int, default=1,
                            help="worker processes for the parallel engine "
                                 "(1 = serial driver; output is identical "
                                 "for every worker count)")
    enumerate_.add_argument("--canonical", action="store_true",
                            help="write the output file in canonical sorted "
                                 "order (byte-identical across runs and "
                                 "worker counts; buffers all cliques)")
    enumerate_.add_argument("--reduction", choices=("off", "prune", "full"),
                            default="off",
                            help="exact graph reduction before enumeration "
                                 "(repro.reduce): 'prune' peels low-degree "
                                 "vertices against a greedy clique lower "
                                 "bound, 'full' adds true-twin folding; the "
                                 "clique set is identical at every level")
    enumerate_.add_argument("--max-retries", type=int, default=2,
                            help="per-chunk resubmissions before the parallel "
                                 "engine recomputes a failing chunk inline")
    enumerate_.add_argument("--verify-checksums",
                            action=argparse.BooleanOptionalAction, default=True,
                            help="verify per-record CRC32s when reading "
                                 "checksummed (v2) disk graphs")
    enumerate_.add_argument("--fault-plan", type=Path,
                            help="JSON fault-injection spec (testing only; "
                                 "see repro.faults.FaultPlan.to_spec)")
    enumerate_.add_argument("--metrics-out", type=Path,
                            help="enable the metrics registry and write its "
                                 "final snapshot here (JSON), plus the "
                                 "Prometheus text exposition at PATH.prom")
    enumerate_.add_argument("--index-out", type=Path,
                            help="also build a persisted clique query index "
                                 "(repro.index) in this directory")

    serve = sub.add_parser(
        "serve", help="answer clique queries over a persisted index (TCP/JSON lines)"
    )
    serve.add_argument("index", type=Path,
                       help="index directory built by enumerate --index-out")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: any free port, printed at start)")
    serve.add_argument("--cache-pages", type=int, default=64,
                       help="buffer-pool page cache capacity per index file")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-query timeout in seconds")
    serve.add_argument("--max-in-flight", type=int, default=64,
                       help="admission limit: requests past this many "
                            "concurrently executing queries are shed with a "
                            "typed overloaded reply")
    serve.add_argument("--max-request-bytes", type=int, default=1 << 20,
                       help="request lines longer than this are rejected with "
                            "a typed error instead of buffered")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="SIGTERM grace: seconds to wait for in-flight "
                            "requests before closing")
    serve.add_argument("--metrics-out", type=Path,
                       help="write a metrics snapshot here (JSON, plus "
                            "PATH.prom) on shutdown")

    live = sub.add_parser(
        "live",
        help="continuously maintained clique serving over an update stream",
    )
    live.add_argument("store", type=Path,
                      help="live store directory (created when missing)")
    live.add_argument("--graph", type=Path,
                      help="starting graph (DiskGraph or edge list); enumerated "
                           "into generation 0 when the store is created, and "
                           "used to seed the in-memory maintainer either way")
    live.add_argument("--stream", type=Path,
                      help="update stream: 'timestamp u v' insertion lines or "
                           "'timestamp op u v' with op in {insert, delete}")
    live.add_argument("--serve", action=argparse.BooleanOptionalAction,
                      default=False,
                      help="answer queries over TCP/JSON lines while (and "
                           "after) the stream is ingested")
    live.add_argument("--host", default="127.0.0.1")
    live.add_argument("--port", type=int, default=0,
                      help="TCP port (default: any free port, printed at start)")
    live.add_argument("--cache-pages", type=int, default=64,
                      help="buffer-pool page cache capacity per index file")
    live.add_argument("--timeout", type=float, default=None,
                      help="default per-query timeout in seconds")
    live.add_argument("--compact-threshold", type=int, default=256,
                      help="background compaction folds the delta tail once it "
                           "exceeds this many deltas")
    live.add_argument("--compact-on-exit",
                      action=argparse.BooleanOptionalAction, default=True,
                      help="fold any remaining delta tail into a fresh "
                           "generation before exiting")
    live.add_argument("--max-in-flight", type=int, default=64,
                      help="admission limit: requests past this many "
                           "concurrently executing queries are shed with a "
                           "typed overloaded reply")
    live.add_argument("--max-request-bytes", type=int, default=1 << 20,
                      help="request lines longer than this are rejected with "
                           "a typed error instead of buffered")
    live.add_argument("--drain-timeout", type=float, default=10.0,
                      help="SIGTERM grace: seconds to wait for in-flight "
                           "requests before flushing the WAL and closing")
    live.add_argument("--supervise", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="run the watchdog that restarts dead ingest / "
                           "compaction workers through WAL replay (serving "
                           "mode only)")
    live.add_argument("--metrics-out", type=Path,
                      help="write a metrics snapshot here (JSON, plus "
                           "PATH.prom) on shutdown")

    verify_index = sub.add_parser(
        "verify-index",
        help="offline integrity audit of a clique index or live store",
    )
    verify_index.add_argument("index", type=Path,
                              help="index directory (enumerate --index-out) or "
                                   "live store directory (repro-mce live)")

    generate = sub.add_parser("generate", help="synthesize a dataset stand-in")
    generate.add_argument("dataset", choices=sorted(DATASETS))
    generate.add_argument("output", type=Path, help="edge list destination")

    maintain = sub.add_parser("maintain", help="replay a timestamped update stream")
    maintain.add_argument("graph", type=Path, help="initial DiskGraph (.bin)")
    maintain.add_argument("stream", type=Path, help="'timestamp u v' lines")

    verify = sub.add_parser("verify", help="audit a clique file against a graph")
    verify.add_argument("graph", type=Path, help="DiskGraph (.bin) or text edge list")
    verify.add_argument("cliques", type=Path,
                        help="clique file (one space-separated clique per line)")
    verify.add_argument("--soundness-only", action="store_true",
                        help="skip the completeness check (no full enumeration)")

    experiments = sub.add_parser("experiments", help="print the paper's tables")
    experiments.add_argument("names", nargs="*",
                             help="table2..table7, figure3 (default: all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    handler = {
        "convert": _cmd_convert,
        "stats": _cmd_stats,
        "enumerate": _cmd_enumerate,
        "generate": _cmd_generate,
        "maintain": _cmd_maintain,
        "serve": _cmd_serve,
        "live": _cmd_live,
        "verify": _cmd_verify,
        "verify-index": _cmd_verify_index,
        "experiments": _cmd_experiments,
    }[args.command]
    try:
        with _metrics_out(getattr(args, "metrics_out", None)):
            return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


@contextlib.contextmanager
def _metrics_out(path: Path | None):
    """``--metrics-out``: meter the command into a fresh registry and
    write its snapshot once, when the command ends, even if it raised
    (JSON at ``path``, the Prometheus exposition at ``path.prom``).  The
    previous registry is reinstated afterwards."""
    if path is None:
        yield
        return
    from repro import metrics

    previous = metrics.get_registry()
    registry = metrics.enable(metrics.MetricsRegistry())
    try:
        yield
    finally:
        metrics.set_registry(previous)
        metrics.write_exposition_files(registry.snapshot(), path)
        print(f"metrics written : {path} (+ {path.name}.prom)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_convert(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix="repro_convert_") as tmp:
        disk = edge_list_file_to_disk_graph(
            args.edge_list, args.output, tmp, run_pairs=args.run_pairs
        )
    print(f"wrote {args.output}: {disk.num_vertices} vertices, {disk.num_edges} edges")
    return 0


def _open_graph(path: Path, fault_plan=None, verify_checksums: bool = True) -> DiskGraph:
    """Open a DiskGraph, converting a text edge list transparently."""
    try:
        return DiskGraph.open(
            path, fault_plan=fault_plan, verify_checksums=verify_checksums
        )
    except StorageError:
        converted = path.with_suffix(path.suffix + ".converted.bin")
        with tempfile.TemporaryDirectory(prefix="repro_convert_") as tmp:
            disk = edge_list_file_to_disk_graph(path, converted, tmp)
        if fault_plan is None and verify_checksums:
            return disk
        return DiskGraph.open(
            disk.path, fault_plan=fault_plan, verify_checksums=verify_checksums
        )


def _cmd_stats(args: argparse.Namespace) -> int:
    snapshot = _try_load_metrics_snapshot(args.graph)
    if snapshot is not None:
        from repro.metrics import render_metrics_table
        from repro.service.stats import summarize_query_metrics

        summary = summarize_query_metrics(snapshot)
        if summary is not None:
            print(summary)
            print()
        print(render_metrics_table(snapshot))
        return 0
    disk = _open_graph(args.graph)
    star = extract_hstar_graph(disk)
    graph = disk.to_adjacency_graph()
    fit = fit_rank_exponent(graph) if graph.num_edges else None
    estimate = estimate_tree_size(star) if star.core else 1.0
    rows = [
        ("vertices (n)", disk.num_vertices),
        ("edges (m = |G|)", disk.num_edges),
        ("h-index (|H|)", star.h),
        ("h-neighbors (|Hnb|)", len(star.periphery)),
        ("|G_H| edges", star.core_edge_count),
        ("|G_H*| edges", star.size_edges),
        ("|G_H*| / |G|", f"{star.size_edges / disk.num_edges:.1%}" if disk.num_edges else "-"),
        ("rank exponent R", f"{fit.rank_exponent:.3f}" if fit else "-"),
        ("estimated |T_H*| nodes", f"{estimate:.0f}"),
    ]
    print(render_table(f"Graph statistics: {args.graph}", ["metric", "value"], rows))
    return 0


def _try_load_metrics_snapshot(path: Path):
    """The parsed snapshot if ``path`` holds one, else ``None``.

    Sniffing by content (the ``schema`` key), not extension, keeps
    ``stats`` backward compatible: anything that is not a metrics
    snapshot falls through to the graph-statistics path untouched.
    """
    import json

    from repro.metrics import is_snapshot

    try:
        payload = json.loads(path.read_text(encoding="ascii"))
    except (OSError, UnicodeError, ValueError):
        return None
    return payload if is_snapshot(payload) else None


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan is not None:
        import json

        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_spec(json.loads(args.fault_plan.read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read fault plan {args.fault_plan}: {exc}",
                  file=sys.stderr)
            return 2
    memory = MemoryModel(budget=args.budget)
    counter = CliqueCounter()
    sink = CliqueFileSink(args.output, canonical=args.canonical) if args.output else None
    index_sink = None
    if args.index_out is not None:
        from repro.index import CliqueIndexSink

        args.index_out.mkdir(parents=True, exist_ok=True)
        index_sink = CliqueIndexSink(args.index_out)
    driver_cls = ParallelExtMCE if args.workers > 1 else ExtMCE
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro_mce_") as tmp:
        if args.resume:
            algo = driver_cls.resume(
                args.checkpoint_dir,
                config=ExtMCEConfig(
                    memory_budget_units=args.budget, trace_path=args.trace,
                    workers=args.workers, reduction=args.reduction,
                    verify_checksums=args.verify_checksums,
                    max_retries=args.max_retries, fault_plan=fault_plan,
                ),
                memory=memory,
            )
        else:
            disk = _open_graph(
                args.graph,
                fault_plan=fault_plan,
                verify_checksums=args.verify_checksums,
            )
            workdir = args.checkpoint_dir if args.checkpoint_dir else tmp
            config = ExtMCEConfig(
                workdir=workdir,
                seed=args.seed,
                memory_budget_units=args.budget,
                checkpoint=args.checkpoint_dir is not None,
                trace_path=args.trace,
                workers=args.workers,
                reduction=args.reduction,
                verify_checksums=args.verify_checksums,
                max_retries=args.max_retries,
                fault_plan=fault_plan,
            )
            algo = driver_cls(disk, config, memory=memory)
        try:
            for clique in algo.enumerate_cliques():
                if len(clique) < args.min_size:
                    continue
                counter.accept(clique)
                if sink is not None:
                    sink.accept(clique)
                if index_sink is not None:
                    index_sink.accept(clique)
        except BaseException:
            # A failed run must not commit partial output as the result.
            if sink is not None:
                sink.abort()
            if index_sink is not None:
                index_sink.abort()
            raise
        if sink is not None:
            sink.close()
        if index_sink is not None:
            index_sink.close()
    elapsed = time.perf_counter() - started
    print(f"maximal cliques : {counter.total}"
          + (f" (size >= {args.min_size})" if args.min_size > 1 else ""))
    print(f"largest clique  : {counter.max_size}")
    print(f"time            : {elapsed:.2f} s")
    print(f"peak memory     : {memory.peak_units} units ({memory.peak_megabytes:.3f} MB)")
    print(f"recursions      : {algo.report.num_recursions}")
    print(f"graph scans     : {algo.report.sequential_scans}")
    if args.workers > 1:
        print(f"workers         : {args.workers}")
    if args.output:
        print(f"cliques written : {args.output}")
    if index_sink is not None:
        report = index_sink.report
        print(f"index written   : {args.index_out} "
              f"({report.num_cliques} cliques, {report.total_bytes} bytes)")
    if args.trace:
        from repro.telemetry import load_trace, summarize_trace

        print()
        print(summarize_trace(load_trace(args.trace)))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = DATASETS[args.dataset]
    count = write_edge_list(args.output, spec.edges())
    print(
        f"wrote {args.output}: {args.dataset} stand-in, "
        f"{spec.num_vertices} vertices, {count} edges "
        f"(paper original: {spec.paper_vertices} / {spec.paper_edges})"
    )
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    disk = _open_graph(args.graph)
    maintainer = HStarMaintainer(disk.to_adjacency_graph())
    print(f"initial graph: {maintainer.graph.num_edges} edges, h = {maintainer.h}")
    started = time.perf_counter()
    maintainer.apply_stream(read_timestamped_edge_list(args.stream))
    elapsed = time.perf_counter() - started
    stats = maintainer.stats
    print(f"applied {stats.updates_total} updates in {elapsed:.2f} s")
    print(f"updates touching the H*-graph: {stats.updates_hitting_star} "
          f"({100 * stats.hit_fraction:.1f}%)")
    print(f"avg cost per core-touching update: {stats.average_hit_milliseconds:.2f} ms")
    print(f"core rebuilds: {stats.core_rebuilds}")
    print(f"h is now {maintainer.h}; {len(maintainer.star_cliques())} core cliques maintained")
    return 0


def _install_drain_signals(stop_event) -> None:
    """Route SIGTERM/SIGINT into ``stop_event`` for a graceful drain.

    The serve loop runs on a background thread precisely so the main
    thread is free to sit in ``stop_event.wait()`` — a signal handler
    that called ``server.shutdown()`` directly from the thread running
    ``serve_forever`` would deadlock against it.
    """
    import signal

    def _on_signal(_signum, _frame):
        stop_event.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.index import CliqueIndex
    from repro.service import CliqueQueryEngine, CliqueQueryServer

    with CliqueIndex(args.index, cache_pages=args.cache_pages) as index:
        stats = index.stats()
        engine = CliqueQueryEngine(index, timeout_seconds=args.timeout)
        server = CliqueQueryServer(
            engine,
            host=args.host,
            port=args.port,
            max_in_flight=args.max_in_flight,
            max_request_bytes=args.max_request_bytes,
            drain_timeout_seconds=args.drain_timeout,
        )
        host, port = server.address
        print(f"index           : {args.index} "
              f"({stats['num_cliques']} cliques, "
              f"{stats['num_vertices']} vertices)")
        print(f"listening on    : {host}:{port}")
        print(f"admission       : {args.max_in_flight} in flight, "
              f"{args.max_request_bytes} B/request, "
              f"drain {args.drain_timeout:.0f}s")
        print("protocol        : one JSON request per line; "
              'e.g. {"id": 1, "op": "cliques_containing", "args": {"v": 0}}')
        stop = threading.Event()
        _install_drain_signals(stop)
        server.start()
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        print("draining        : stopped accepting, finishing in-flight")
        completed = server.drain(args.drain_timeout)
        print(f"drained         : {'clean' if completed else 'timed out'}")
    return 0


def _read_update_stream(path: Path):
    """Yield ingestable events from a stream file.

    Accepts the ``timestamp u v`` insertion shape that
    :func:`read_timestamped_edge_list` defines, extended with
    ``timestamp op u v`` lines (``op`` in ``{insert, delete}``) for
    mixed dynamic workloads.
    """
    from repro.errors import StorageFormatError

    with open(path, "r", encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            try:
                if len(parts) == 3:
                    yield int(parts[0]), int(parts[1]), int(parts[2])
                    continue
                if len(parts) == 4 and parts[1] in ("insert", "delete"):
                    yield int(parts[0]), parts[1], int(parts[2]), int(parts[3])
                    continue
            except ValueError as exc:
                raise StorageFormatError(
                    f"{path}:{line_number}: non-integer field in {stripped!r}"
                ) from exc
            raise StorageFormatError(
                f"{path}:{line_number}: expected 'timestamp u v' or "
                f"'timestamp insert|delete u v', got {stripped!r}"
            )


def _cmd_live(args: argparse.Namespace) -> int:
    import threading

    from repro.live import LIVE_MANIFEST_FILENAME, LiveCliqueStore, LiveIngestor
    from repro.live.ingest import bootstrap_live_store, maintainer_from_store
    from repro.service import CliqueQueryEngine, CliqueQueryServer

    graph = None
    if args.graph is not None:
        graph = _open_graph(args.graph).to_adjacency_graph()
    existing = (args.store / LIVE_MANIFEST_FILENAME).exists()
    if existing:
        store = LiveCliqueStore.open(args.store, cache_pages=args.cache_pages)
    elif graph is not None:
        with tempfile.TemporaryDirectory(prefix="repro_live_") as tmp:
            store = bootstrap_live_store(
                args.store, graph, tmp, cache_pages=args.cache_pages
            )
    else:
        store = LiveCliqueStore.initialize(args.store, cache_pages=args.cache_pages)
    maintainer = HStarMaintainer(graph) if graph is not None else HStarMaintainer()
    ingestor = LiveIngestor(maintainer, store)
    store.start_compactor(tail_threshold=args.compact_threshold)
    print(f"live store      : {args.store} "
          f"({'opened' if existing else 'created'}, "
          f"generation {store.generation or '-'}, "
          f"{store.num_cliques} cliques, tail {store.tail_length})")
    server = None
    supervisor = None
    drained = False
    try:
        if args.serve:
            from repro.live import LiveSupervisor

            engine = CliqueQueryEngine(store, timeout_seconds=args.timeout)
            if args.supervise:
                supervisor = LiveSupervisor(
                    store,
                    lambda: LiveIngestor(maintainer_from_store(store), store),
                    compactor_tail_threshold=args.compact_threshold,
                ).start()
            server = CliqueQueryServer(
                engine,
                host=args.host,
                port=args.port,
                max_in_flight=args.max_in_flight,
                max_request_bytes=args.max_request_bytes,
                drain_timeout_seconds=args.drain_timeout,
                supervisor=supervisor,
            )
            host, port = server.address
            server.start()
            # Arm the drain signals before ingestion: an operator's
            # SIGTERM must drain cleanly no matter when it lands.
            stop = threading.Event()
            _install_drain_signals(stop)
            print(f"listening on    : {host}:{port}"
                  + (" (supervised)" if supervisor is not None else ""))
            print("protocol        : one JSON request per line; subscriptions "
                  'via {"op": "subscribe", "args": {"v": 0}}')
        if args.stream is not None:
            if supervisor is not None:
                # Feed the supervised worker: each event is durably
                # applied (WAL-first) before it counts as acked, and the
                # watchdog restarts the worker if it dies mid-stream.
                started = time.perf_counter()
                submitted = 0
                unsubmitted = 0
                for event in _read_update_stream(args.stream):
                    if supervisor.submit(event, timeout=60.0):
                        submitted += 1
                    else:
                        unsubmitted += 1
                        if "ingest" in supervisor.gave_up:
                            # The watchdog abandoned ingest after its
                            # crash-loop budget; stop feeding a pipeline
                            # that cannot ack.  Serving continues in the
                            # degraded state health/ready report.
                            print("stream ABANDONED: ingest worker gave up; "
                                  "remaining events skipped (degraded)")
                            break
                supervisor.wait_idle(timeout=300.0)
                elapsed = time.perf_counter() - started
                dropped = supervisor.dropped_events
                print(f"stream ingested : {submitted} edge updates in "
                      f"{elapsed:.2f} s ({supervisor.acked_events} acked"
                      + (f", {dropped} poison dropped" if dropped else "")
                      + (f", {unsubmitted} unsubmitted" if unsubmitted else "")
                      + f"); tail {store.tail_length}, seq {store.last_seq}")
            else:
                applied = ingestor.ingest(_read_update_stream(args.stream))
                report = ingestor.report
                print(f"stream ingested : {applied} edge updates "
                      f"({report.insertions} inserts, {report.deletions} deletes) "
                      f"in {report.seconds:.2f} s "
                      f"({report.updates_per_second:.0f} updates/s)")
                print(f"clique deltas   : {report.deltas_emitted} "
                      f"(+{report.cliques_added} / -{report.cliques_removed}); "
                      f"tail {store.tail_length}, seq {store.last_seq}")
        if args.serve:
            try:
                stop.wait()
            except KeyboardInterrupt:
                pass
            print("draining        : stopped accepting, finishing in-flight")
            completed = server.drain(args.drain_timeout)
            drained = True
            print(f"drained         : {'clean' if completed else 'timed out'}; "
                  f"WAL flushed at seq {store.last_seq}")
    finally:
        if supervisor is not None:
            supervisor.stop()
        if server is not None and not drained:
            server.stop()
        if args.compact_on_exit and store.tail_length:
            generation = store.compact()
            if generation is not None:
                print(f"compacted       : {generation} "
                      f"({store.num_cliques} cliques)")
        print(f"final state     : generation {store.generation_number}, "
              f"{store.num_cliques} live cliques")
        store.close()
    return 0


def _cmd_verify_index(args: argparse.Namespace) -> int:
    from repro.index import CliqueIndex
    from repro.live import LIVE_MANIFEST_FILENAME, LiveCliqueStore

    if (args.index / LIVE_MANIFEST_FILENAME).exists():
        with LiveCliqueStore.open(args.index) as store:
            summary = store.verify()
        kind = "live store"
    else:
        with CliqueIndex(args.index) as index:
            summary = index.verify()
        kind = "index"
    print(f"{kind} {args.index}: OK")
    for key in sorted(summary):
        print(f"  {key}: {summary[key]}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verification import verify_clique_set

    disk = _open_graph(args.graph)
    graph = disk.to_adjacency_graph()
    cliques = (
        frozenset(int(token) for token in line.split())
        for line in args.cliques.read_text().splitlines()
        if line.strip()
    )
    report = verify_clique_set(
        graph, cliques, check_completeness=not args.soundness_only
    )
    print(report.summary())
    for label, offenders in (
        ("not a clique", report.not_cliques),
        ("not maximal", report.not_maximal),
        ("missing", report.missing),
    ):
        for clique in offenders[:5]:
            print(f"  {label}: {sorted(clique)}")
    return 0 if report.ok else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(list(args.names))


if __name__ == "__main__":
    raise SystemExit(main())
