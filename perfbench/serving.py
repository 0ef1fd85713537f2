"""Serving workloads: TCP reads of a frozen index, and reads beside live ingest.

Both run the program's own server (:class:`CliqueQueryServer`) on a
loopback port inside this process and drive it with
:class:`CliqueQueryClient` connections.  Point-query clients are closed
loops: each sends its next query only after the previous answer arrived.
serve_read's top-k client sends on a fixed schedule.  Latency is what
the client observes, request sent (or due) to answer parsed.
"""

from __future__ import annotations

import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import metrics
from repro.baselines import tomita_maximal_cliques
from repro.dynamic import HStarMaintainer
from repro.graph import AdjacencyGraph
from repro.index import CliqueIndex, build_index
from repro.live import LiveCliqueStore, LiveIngestor
from repro.service import CliqueQueryClient, CliqueQueryEngine, CliqueQueryServer

import inputs
import spans
from batch import canonical
from hostprobe import AS_MEASURED, HostProbe, HostSpeed
from measure import Snapshot, fresh_registry, median, median_layers, percentile, ratio

#: Closed-loop point-query clients on serve_read.  Four keep the CPU
#: busy; with one, idle gaps between thread wake-ups made throughput vary
#: 39% (interquartile range over median) between runs.
SERVE_CLIENTS = 4
#: Rate of serve_read's fifth client, which asks only top_k_largest.  A
#: scan of every offset entry holds the engine's I/O lock for ~67 ms, so
#: the lock is taken a fixed share of the time, whatever the point rate.
TOPK_PER_SECOND = 4.0
#: Share of each serving window spent warming caches before timing.
WARMUP_SHARE = 0.1
#: Every CHECK_EVERY-th answer, up to CHECKS per client, is compared
#: against a scan of the index.
CHECK_EVERY = 8
CHECKS = 256
#: Compactor tail threshold on live_mixed (deltas).
TAIL_THRESHOLD = 1024
#: live_mixed opens its store in the throughput mode the store documents:
#: WAL batches are appended, framed and checksummed but not fsynced per
#: batch.  Per-batch fsync took 10-25% of the ingest loop here and its
#: latency is the virtual disk's, which the host-speed correction cannot
#: follow.  A change to how often the store fsyncs does not show here.
LIVE_FSYNC = False


@dataclass(slots=True)
class Sample:
    op: str
    latency_s: float
    engine_s: float
    at: float  # perf_counter when the answer arrived


@dataclass
class ClientLog:
    """What one closed-loop client saw."""

    samples: list[Sample] = field(default_factory=list)
    checks: list[tuple[str, dict, object]] = field(default_factory=list)
    failures: int = 0


def _client_loop(address, mix: inputs.QueryMix, interval: float | None,
                 warmup_until: float, stop_at: float, stop: threading.Event,
                 log: ClientLog, tracer: spans.Tracer | None, check: bool) -> None:
    """One client: closed loop, or one request per ``interval`` seconds.

    On a schedule, latency counts from when the request was due, so a
    stalled server is charged for the requests it delayed.
    """
    try:
        client = CliqueQueryClient(*address)
    except Exception:  # the service never became reachable
        log.failures += 1
        return
    try:
        count = 0
        due = time.perf_counter()
        while not stop.is_set() and time.perf_counter() < stop_at:
            if interval is not None:
                due += interval
                stop.wait(max(0.0, due - time.perf_counter()))
                if stop.is_set() or due >= stop_at:
                    break
            op, args = mix.next()
            started = due if interval is not None else time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.request", "other"):
                        response = client.request(op, **args)
                else:
                    response = client.request(op, **args)
            except Exception:  # any failed request counts, whatever its type
                if started >= warmup_until:
                    log.failures += 1
                continue
            latency = time.perf_counter() - started
            if started < warmup_until:
                continue
            if response.degraded:
                log.failures += 1
            log.samples.append(Sample(op, latency, response.elapsed_ms / 1e3,
                                      started + latency))
            count += 1
            if check and count % CHECK_EVERY == 0 and len(log.checks) < CHECKS:
                log.checks.append((op, args, response.result))
    finally:
        client.close()


def _run_clients(address, clients, seconds: float, tracer, check: bool,
                 warmup_s: float = 0.0, stop: threading.Event | None = None):
    """Start one client thread per ``(query mix, interval or None)``."""
    stop = stop if stop is not None else threading.Event()
    started = time.perf_counter()
    warmup_until = started + warmup_s
    logs = [ClientLog() for _ in clients]
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(address, mix, interval, warmup_until, started + seconds, stop,
                  log, tracer, check),
            name=f"bench-client-{position}",
        )
        for position, ((mix, interval), log) in enumerate(zip(clients, logs))
    ]
    for thread in threads:
        thread.start()
    return threads, logs, started


def _join(threads) -> None:
    for thread in threads:
        thread.join(timeout=120.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")


def _point(samples: list[Sample]) -> list[Sample]:
    return [sample for sample in samples if sample.op != "top_k_largest"]


# ---------------------------------------------------------------------------
# serve_read
# ---------------------------------------------------------------------------
@dataclass
class ServeInput:
    graph: AdjacencyGraph
    cliques: list[tuple[int, ...]]
    index_dir: Path
    index_bytes: int
    build_s: float
    tomita_s: float
    postings: dict[int, list[int]]


def setup_serve(sizes: inputs.Sizes, seed: int, workdir: Path) -> ServeInput:
    """Enumerate a power-law graph in memory and freeze it as an index."""
    graph = AdjacencyGraph.from_edges(inputs.powerlaw_edges(sizes.serve_vertices))
    started = time.perf_counter()
    cliques = canonical(tomita_maximal_cliques(graph, kernel="bitset"))
    tomita_s = time.perf_counter() - started
    started = time.perf_counter()
    report = build_index(cliques, workdir / "index")
    build_s = time.perf_counter() - started
    postings: dict[int, list[int]] = {}
    with CliqueIndex(workdir / "index") as index:
        scanned = [vertices for _cid, vertices in index.scan_cliques()]
    for clique_id, vertices in enumerate(scanned):
        for v in vertices:
            postings.setdefault(v, []).append(clique_id)
    return ServeInput(graph, scanned, workdir / "index", report.total_bytes,
                      build_s, tomita_s, postings)


def _expected(inp: ServeInput, op: str, args: dict):
    if op == "cliques_containing":
        return inp.postings.get(args["v"], [])
    if op == "cliques_containing_edge":
        other = set(inp.postings.get(args["v"], ()))
        return [cid for cid in inp.postings.get(args["u"], ()) if cid in other]
    if op == "clique":
        return list(inp.cliques[args["clique_id"]])
    if op == "membership":
        ids = set(inp.postings.get(args["vertices"][0], ()))
        for v in args["vertices"][1:]:
            ids &= set(inp.postings.get(v, ()))
        return sorted(ids)
    ranked = sorted(range(len(inp.cliques)), key=lambda cid: (-len(inp.cliques[cid]), cid))
    return [list(inp.cliques[cid]) for cid in ranked[: args["k"]]]


def _serve_window(inp: ServeInput, seed: int, seconds: float,
                  tracer: spans.Tracer | None = None):
    index = CliqueIndex(inp.index_dir)
    server = CliqueQueryServer(CliqueQueryEngine(index)).start()
    try:
        clients = [
            (inputs.QueryMix(inp.graph, inp.cliques, seed * 1000 + client,
                             inputs.SERVE_CYCLE), None)
            for client in range(SERVE_CLIENTS)
        ]
        clients.append((inputs.QueryMix(inp.graph, inp.cliques, seed * 1000 + 99,
                                        inputs.TOPK_CYCLE), 1.0 / TOPK_PER_SECOND))
        warmup_s = WARMUP_SHARE * seconds
        threads, logs, started = _run_clients(server.address, clients, seconds, tracer,
                                              check=True, warmup_s=warmup_s)
        _join(threads)
    finally:
        server.stop()
        index.close()
    samples = [sample for log in logs for sample in log.samples]
    failures = sum(log.failures for log in logs)
    for log in logs:
        for op, args, answer in log.checks:
            if answer != _expected(inp, op, args):
                failures += 1
    # Queries per second over the timed part of the window.
    window = (started + warmup_s, started + seconds)
    return samples, failures, len(samples) / (window[1] - window[0]), window


def _read_summary(rate: float, point: list[Sample], speed: HostSpeed) -> dict:
    """``rate`` is already in ``speed``'s seconds; each latency is taken
    at the host speed of the second it ended in."""
    latencies = [sample.latency_s / speed.at(sample.at) for sample in point]
    return {
        "throughput_per_s": rate,
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def measure_serve(inp: ServeInput, seed: int, _workdir: Path, seconds: float,
                  probe: HostProbe) -> tuple[dict, int, int, dict]:
    """One window of closed-loop load; metrics at reference host speed,
    and the same metrics uncorrected, with the slowdown."""
    samples, failures, rate, window = _serve_window(inp, seed, seconds)
    speed = probe.speed()
    slow = (window[1] - window[0]) / speed.reference_seconds(*window)
    point = _point(samples)
    raw = {**_read_summary(rate, point, AS_MEASURED), "slowdowns": [slow]}
    return (_read_summary(rate * slow, point, speed), len(samples) + failures,
            failures, raw)


def trace_serve(inp: ServeInput, seed: int, _workdir: Path, seconds: float,
                probe: HostProbe):
    plain, plain_failures, plain_rate, plain_window = _serve_window(inp, seed, seconds / 2)
    tracer = spans.Tracer()
    registry = fresh_registry()
    restore = spans.instrument(tracer)
    try:
        samples, failures, rate, window = _serve_window(inp, seed, seconds / 2, tracer)
    finally:
        restore()
        metrics.disable()
    snap = Snapshot(registry.snapshot())
    values = _request_layers(samples, tracer, snap)
    values["trace.overhead_frac"] = (plain_rate * probe.slowdown(*plain_window)) / (
        rate * probe.slowdown(*window)) - 1.0
    values["index.build_s"] = inp.build_s
    values["ref.tomita_s"] = inp.tomita_s
    attempted = len(plain) + plain_failures + len(samples) + failures
    return values, attempted, plain_failures + failures, tracer


def _request_layers(samples: list[Sample], tracer: spans.Tracer, snap: Snapshot) -> dict:
    """Per-layer metrics of a traced serving window, per client request."""
    queries = len(samples)
    point = _point(samples)
    topk = [sample.latency_s for sample in samples if sample.op == "top_k_largest"]
    server_spans = [span for span in tracer.spans if span.name != "bench.request"]
    self_by_layer = spans.layer_self_seconds(server_spans)
    client_s = sum(sample.latency_s for sample in samples)
    cache_hits = snap.counter("repro_service_cache_hits_total")
    cache_lookups = cache_hits + snap.counter("repro_service_cache_misses_total")
    pool_hits = snap.counter("repro_bufferpool_hits_total")
    pool_lookups = pool_hits + snap.counter("repro_bufferpool_misses_total")
    values = {
        "storage.pages_read": snap.counter("repro_storage_pages_read_total"),
        "storage.pages_written": snap.counter("repro_storage_pages_written_total"),
        "storage.bufferpool_hit_ratio": ratio(pool_hits, pool_lookups),
        "storage.bufferpool_lookups": pool_lookups,
        "index.postings_read_per_query": ratio(
            snap.counter("repro_index_postings_read_total"), queries),
        "index.records_read_per_query": ratio(
            snap.counter("repro_index_records_read_total"), queries),
        "service.engine_p50_us": median([s.engine_s for s in point]) * 1e6 if point else 0.0,
        "service.wire_overhead_us": median(
            [s.latency_s - s.engine_s for s in point]) * 1e6 if point else 0.0,
        "service.topk_p50_us": median(topk) * 1e6 if topk else 0.0,
        "service.cache_hit_ratio": ratio(cache_hits, cache_lookups),
        "service.cache_lookups": cache_lookups,
        "service.deduplicated": snap.counter("repro_service_deduplicated_total"),
        "service.shed": snap.counter("repro_server_shed_total"),
        "service.degraded": snap.counter("repro_service_degraded_total"),
        "service.errors": snap.counter("repro_service_errors_total"),
        "service.queries": queries,
        "trace.window_s": client_s,
    }
    covered = 0.0
    for layer in spans.LAYERS:
        share = ratio(self_by_layer.get(layer, 0.0), client_s)
        values[f"share.{layer}"] = share
        covered += share
    values["share.other"] = max(0.0, 1.0 - covered)
    values["trace.unattributed_frac"] = values["share.other"]
    return values


# ---------------------------------------------------------------------------
# live_mixed
# ---------------------------------------------------------------------------
@dataclass
class LiveInput:
    graph: AdjacencyGraph
    cliques: list[tuple[int, ...]]
    events: list[tuple]
    store_dir: Path
    tomita_s: float


def setup_live(sizes: inputs.Sizes, seed: int, workdir: Path) -> LiveInput:
    """Bootstrap a live store from a power-law graph; build the event stream."""
    graph = AdjacencyGraph.from_edges(inputs.powerlaw_edges(sizes.live_vertices))
    started = time.perf_counter()
    cliques = canonical(tomita_maximal_cliques(graph, kernel="bitset"))
    tomita_s = time.perf_counter() - started
    LiveCliqueStore.initialize(workdir / "store", cliques).close()
    events = inputs.edge_stream(graph, sizes.live_events)
    return LiveInput(graph, cliques, events, workdir / "store", tomita_s)


@dataclass
class Segment:
    updates: int
    started: float  # perf_counter when ingest began
    seconds: float
    reads: list[Sample]
    failures: int
    correct: bool


def _live_segment(inp: LiveInput, seed: int, workdir: Path,
                  tracer: spans.Tracer | None = None) -> Segment:
    """Replay the whole stream into a fresh copy of the bootstrapped store."""
    shutil.copytree(inp.store_dir, workdir)
    store = LiveCliqueStore.open(workdir, fsync=LIVE_FSYNC)
    maintainer = HStarMaintainer(inp.graph)
    ingestor = LiveIngestor(maintainer, store)
    server = CliqueQueryServer(CliqueQueryEngine(store)).start()
    stop = threading.Event()
    try:
        mix = inputs.QueryMix(inp.graph, inp.cliques, seed * 1000 + 7,
                              inputs.LIVE_CYCLE)
        threads, logs, _ = _run_clients(server.address, [(mix, None)], float("inf"),
                                        tracer, check=False, stop=stop)
        started = time.perf_counter()
        with tracer.span("bench.ingest", "other") if tracer else nullcontext():
            for event in inp.events:
                ingestor.apply_event(event)
                # The background compactor's policy, run on the ingest
                # thread: LiveIngestor reads postings and then each clique
                # by id, and a compaction swap in between renumbers ids
                # ("clique id ... is not live"), about one run in twenty.
                if store.tail_length >= TAIL_THRESHOLD:
                    store.compact()
        seconds = time.perf_counter() - started
        stop.set()
        _join(threads)
        final = canonical(tomita_maximal_cliques(maintainer.graph, kernel="bitset"))
        try:
            store.verify()
            correct = sorted(store.live_cliques()) == final
        except Exception:  # a failed audit is a wrong result, not a crash
            correct = False
    finally:
        stop.set()
        server.stop()
        store.close()
        shutil.rmtree(workdir, ignore_errors=True)
    log = logs[0]
    return Segment(ingestor.report.edges_applied, started, seconds, log.samples,
                   log.failures, correct)


def _live_window(inp: LiveInput, seed: int, workdir: Path, seconds: float,
                 tracer_factory=None) -> list[tuple[Segment, dict | None]]:
    """Whole-stream segments, each from a fresh store, for ``seconds``."""
    segments = []
    started = time.perf_counter()
    while not segments or time.perf_counter() - started < seconds:
        target = workdir / f"segment{len(segments)}"
        if tracer_factory is None:
            segments.append((_live_segment(inp, seed, target), None))
            continue
        tracer = tracer_factory()
        registry = fresh_registry()
        restore = spans.instrument(tracer)
        try:
            segment = _live_segment(inp, seed, target, tracer)
        finally:
            restore()
            metrics.disable()
        snap = Snapshot(registry.snapshot())
        segments.append((segment, _live_layers(segment, tracer, snap)))
    return segments


def _tally(segments: list[Segment]) -> tuple[int, int]:
    attempted = failed = 0
    for segment in segments:
        attempted += segment.updates + len(segment.reads) + segment.failures
        failed += segment.failures + (0 if segment.correct else segment.updates)
    return attempted, failed


def _slowdown(segment: Segment, probe: HostProbe) -> float:
    return probe.slowdown(segment.started, segment.started + segment.seconds)


def _rate(segment: Segment, probe: HostProbe) -> float:
    """Updates per reference second."""
    return segment.updates * _slowdown(segment, probe) / segment.seconds


def _live_summary(segments: list[Segment], speed: HostSpeed) -> dict:
    """Medians over segments, times in ``speed``'s seconds."""
    reads = [sample.latency_s / speed.at(sample.at)
             for segment in segments for sample in segment.reads]
    return {
        "throughput_per_s": median([
            segment.updates / speed.reference_seconds(
                segment.started, segment.started + segment.seconds)
            for segment in segments]),
        "latency_p50_ms": median(reads) * 1e3,
        "latency_p99_ms": percentile(reads, 0.99) * 1e3,
    }


def measure_live(inp: LiveInput, seed: int, workdir: Path, seconds: float,
                 probe: HostProbe):
    """Whole-stream segments for ``seconds``; metrics at reference host
    speed, and the same metrics uncorrected, with the slowdowns."""
    segments = [segment for segment, _ in _live_window(inp, seed, workdir, seconds)]
    raw = {**_live_summary(segments, AS_MEASURED),
           "slowdowns": [_slowdown(segment, probe) for segment in segments]}
    return (_live_summary(segments, probe.speed()), *_tally(segments), raw)


def trace_live(inp: LiveInput, seed: int, workdir: Path, seconds: float,
               probe: HostProbe):
    plain = _live_window(inp, seed, workdir / "plain", seconds / 2)
    tracers: list[spans.Tracer] = []

    def factory() -> spans.Tracer:
        tracers.append(spans.Tracer())
        return tracers[-1]

    traced = _live_window(inp, seed, workdir / "traced", seconds / 2, factory)
    per_layer = median_layers([values for _segment, values in traced])
    per_layer["trace.overhead_frac"] = median(
        [_rate(segment, probe) for segment, _ in plain]
    ) / median([_rate(segment, probe) for segment, _ in traced]) - 1.0
    per_layer["ref.tomita_s"] = inp.tomita_s
    attempted, failed = _tally([segment for segment, _ in plain + traced])
    return per_layer, attempted, failed, tracers[-1]


def _live_layers(segment: Segment, tracer: spans.Tracer, snap: Snapshot) -> dict:
    """Per-layer metrics of one traced live segment."""
    recorded = tracer.spans
    root = next(span for span in recorded if span.name == "bench.ingest")
    own = spans.self_seconds(recorded)
    self_by_layer = spans.layer_self_seconds(recorded, within=root)
    inclusive = spans.inclusive_seconds(recorded)
    updates = segment.updates
    values = _request_layers(segment.reads, tracer, snap)
    values.update({
        "index.build_s": inclusive.get("index.build", 0.0),
        "live.delta_s": inclusive.get("live.delta", 0.0),
        "live.apply_s": inclusive.get("live.apply", 0.0),
        "live.deltas_per_update": ratio(
            snap.counter("repro_live_deltas_applied_total"), updates),
        "live.wal_bytes_per_update": ratio(
            snap.counter("repro_live_wal_bytes_total"), updates),
        "live.compactions": snap.counter("repro_live_compactions_total"),
        "live.compaction_s": snap.histogram_sum("repro_live_compaction_seconds"),
        "live.tail_high_water": snap.high_water("repro_live_tail_deltas"),
        "dynamic.maintainer_self_s": self_by_layer.get("dynamic", 0.0),
        "trace.window_s": root.seconds,
        "trace.unattributed_frac": ratio(own[root.id], root.seconds),
    })
    for layer in spans.LAYERS:
        values[f"share.{layer}"] = ratio(self_by_layer.get(layer, 0.0), root.seconds)
    values["share.other"] = values["trace.unattributed_frac"]
    return values
