"""Smoke benchmark: clique-index query latency.

Builds a persisted clique index (``repro.index``) from an ExtMCE run
over the defective-clique-community generator — the workload whose
near-clique blocks give every vertex a non-trivial postings list — then
drives a mixed query workload through :class:`CliqueQueryEngine` and
records per-operation p50/p95 latency to ``BENCH_index.json`` at the
repository root, in the ``{bench, schema, host, git_sha, headline,
runs}`` envelope the other ``BENCH_*.json`` files share.  It also counts
the ``postings.dir`` pages one postings lookup requests from the buffer
pool (the page fence makes it one), and the ``cliques.sz`` pages one
top-k requests (``⌈k / 1022⌉``).

It then serves the same index over TCP to concurrent clients while
transient page-read faults hit the postings file, and records the
clients' p50/p95 latency under ``service_contract``.

Three properties are asserted, making this a pass/fail smoke rather than
a pure measurement:

1. the double build is deterministic — building the same clique set
   twice produces byte-identical index files;
2. every benchmarked query answers on the fast path (no degradations,
   no timeouts) and matches a brute-force scan of the clique stream;
3. every served answer matches the in-process engine's, degraded or not.

Latency numbers themselves are reported, not asserted: wall-clock
budgets on shared CI boxes produce flaky failures, and the regression
signal lives in the committed JSON's history instead.

Run directly (as CI does)::

    PYTHONPATH=src python benchmarks/bench_index_queries.py
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path

from repro import DiskGraph, ExtMCE, ExtMCEConfig
from repro.faults import FaultPlan, FaultRule
from repro.generators.communities import defective_clique_communities
from repro.index import CliqueIndex, build_index
from repro.index.format import DIRECTORY_FILENAME, SIZE_ORDER_FILENAME
from repro.service import CliqueQueryClient, CliqueQueryEngine, CliqueQueryServer

try:  # pytest collection from the repository root
    from benchmarks.common import git_sha, host_shape, quantiles
except ImportError:  # executed directly: benchmarks/ itself is sys.path[0]
    from common import git_sha, host_shape, quantiles

NUM_VERTICES = 400
SEED = 7
QUERIES_PER_OP = 200
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_index.json"
SERVED_CLIENTS = 8
REQUESTS_PER_CLIENT = 40


def _workload(engine: CliqueQueryEngine, stats: dict) -> dict[str, dict]:
    """Run the mixed query workload; returns per-op latency summaries."""
    num_cliques = stats["num_cliques"]
    num_vertices = stats["num_vertices"]
    plans = {
        "cliques_containing": lambda i: {"v": i % num_vertices},
        "cliques_containing_edge": lambda i: {
            "u": i % num_vertices, "v": (i + 1) % num_vertices
        },
        "clique": lambda i: {"clique_id": i % num_cliques},
        "membership": lambda i: {
            "vertices": [i % num_vertices, (i + 2) % num_vertices]
        },
        "top_k_largest": lambda i: {"k": 1 + i % 10},
    }
    summaries: dict[str, dict] = {}
    for op, make_args in plans.items():
        samples: list[float] = []
        for i in range(QUERIES_PER_OP):
            started = time.perf_counter()
            result = engine.query(op, **make_args(i))
            samples.append(time.perf_counter() - started)
            assert not result.degraded, f"{op} degraded during the benchmark"
        summaries[op] = quantiles(samples)
    return summaries


def _directory_pages(index: CliqueIndex, num_vertices: int) -> dict:
    """``postings.dir`` page requests (cache hits included) per lookup,
    over one postings lookup for every vertex."""
    pool = index._pools[DIRECTORY_FILENAME]  # the benchmark reads the pool's own counters
    before = pool.hits + pool.misses
    for vertex in range(num_vertices):
        index.postings(vertex)
    pages = pool.hits + pool.misses - before
    return {
        "lookups": num_vertices,
        "directory_pages": pages,
        "per_lookup": pages / num_vertices,
    }


def _size_order_pages(index: CliqueIndex) -> dict:
    """``cliques.sz`` page requests (cache hits included) per top-k, over
    the workload's k = 1..10."""
    pool = index._pools[SIZE_ORDER_FILENAME]  # the benchmark reads the pool's own counters
    ks = range(1, 11)
    before = pool.hits + pool.misses
    for k in ks:
        index.top_k_largest(k)
    pages = pool.hits + pool.misses - before
    return {"top_k_queries": len(ks), "size_order_pages": pages, "per_top_k": pages / len(ks)}


def _service_contract(directory: Path, stats: dict) -> dict:
    """Serve the index to concurrent TCP clients under postings faults.

    Each client sends a seeded mix of point queries and small top-k scans;
    every answer is checked against a fault-free in-process engine.  The
    postings cache is off so queries keep reaching the buffer pool, where
    transient read errors push some of them onto the degraded cold path.
    """
    num_vertices = stats["num_vertices"]
    plan = FaultPlan(
        [
            FaultRule(
                operation="pool_read", kind="io_error",
                path_contains="postings.dat", after=i * 11,
            )
            for i in range(8)
        ],
        seed=9,
    )
    requests = []
    for client_id in range(SERVED_CLIENTS):
        rng = random.Random(1000 + client_id)
        mine = []
        for _ in range(REQUESTS_PER_CLIENT):
            op = rng.choice(["cliques_containing", "cliques_containing_edge",
                             "membership", "clique", "top_k_largest"])
            if op == "cliques_containing":
                args = {"v": rng.randrange(num_vertices)}
            elif op == "cliques_containing_edge":
                u, v = rng.sample(range(num_vertices), 2)
                args = {"u": u, "v": v}
            elif op == "membership":
                args = {"vertices": rng.sample(range(num_vertices), 2)}
            elif op == "clique":
                args = {"clique_id": rng.randrange(stats["num_cliques"])}
            else:
                args = {"k": rng.randint(1, 5)}
            mine.append((op, args))
        requests.append(mine)
    with CliqueIndex(directory) as reference:
        engine = CliqueQueryEngine(reference)
        expected = [
            # Round-tripped through JSON, as the wire delivers them.
            [json.loads(json.dumps(engine.query(op, **args).value)) for op, args in mine]
            for mine in requests
        ]

    outcomes: list[tuple[bool, bool, float]] = []
    outcomes_lock = threading.Lock()
    index = CliqueIndex(directory, fault_plan=plan)
    server = CliqueQueryServer(CliqueQueryEngine(index)).start()

    def run_client(client_id: int) -> None:
        host, port = server.address
        with CliqueQueryClient(host, port) as client:
            for (op, args), want in zip(requests[client_id], expected[client_id]):
                response = client.request(op, **args)
                with outcomes_lock:
                    outcomes.append(
                        (response.result == want, response.degraded,
                         response.elapsed_ms)
                    )

    threads = [
        threading.Thread(target=run_client, args=(cid,))
        for cid in range(SERVED_CLIENTS)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "a served client hung"
    finally:
        server.stop()
        index.close()
    assert len(outcomes) == SERVED_CLIENTS * REQUESTS_PER_CLIENT
    assert all(correct for correct, _d, _ms in outcomes), "served answer diverged"
    latencies = sorted(ms for _c, _d, ms in outcomes)
    return {
        "clients": SERVED_CLIENTS,
        "requests": len(outcomes),
        "degraded_responses": sum(1 for _c, degraded, _ms in outcomes if degraded),
        "p50_ms": round(latencies[len(latencies) // 2], 3),
        "p95_ms": round(
            latencies[min(len(latencies) - 1, int(len(latencies) * 0.95))], 3
        ),
    }


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="bench_index_"))
    try:
        graph = defective_clique_communities(
            NUM_VERTICES, seed=SEED, community_min=16, community_max=28,
            defects=4, background_edges=2,
        )
        disk = DiskGraph.create(tmp / "g.bin", graph)
        enumerate_started = time.perf_counter()
        cliques = list(
            ExtMCE(disk, ExtMCEConfig(workdir=tmp / "w")).enumerate_cliques()
        )
        enumerate_seconds = time.perf_counter() - enumerate_started

        build_started = time.perf_counter()
        report = build_index(cliques, tmp / "idx")
        build_seconds = time.perf_counter() - build_started
        build_index(cliques, tmp / "idx2")
        for name in report.bytes_by_file:
            first = (tmp / "idx" / name).read_bytes()
            second = (tmp / "idx2" / name).read_bytes()
            assert first == second, f"double build diverged in {name}"

        with CliqueIndex(tmp / "idx") as index:
            stats = index.stats()
            engine = CliqueQueryEngine(index)
            # Spot-check against brute force before timing anything.
            probe = max(range(stats["num_vertices"]),
                        key=lambda v: len(index.postings(v)))
            expected = sorted(
                i for i, c in enumerate(sorted(tuple(sorted(c)) for c in set(
                    frozenset(c) for c in cliques
                ))) if probe in c
            )
            assert list(index.cliques_containing(probe)) == expected
            latencies = _workload(engine, stats)
        with CliqueIndex(tmp / "idx") as index:
            directory_pages = _directory_pages(index, stats["num_vertices"])
            size_order_pages = _size_order_pages(index)
        service_contract = _service_contract(tmp / "idx", stats)

        payload = {
            "bench": "index_queries",
            "schema": 1,
            "host": host_shape(),
            "git_sha": git_sha(),
            "headline": {
                "cliques_containing_p50_us": latencies["cliques_containing"]["p50_us"],
                "directory_pages_per_postings_lookup": directory_pages["per_lookup"],
                "top_k_largest_p50_us": latencies["top_k_largest"]["p50_us"],
                "size_order_pages_per_top_k": size_order_pages["per_top_k"],
                "build_seconds": build_seconds,
                "served_p95_ms": service_contract["p95_ms"],
            },
            "graph": {
                "generator": "defective_clique_communities",
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "seed": SEED,
            },
            "runs": {
                "index": {
                    "num_cliques": stats["num_cliques"],
                    "max_clique_size": stats["max_clique_size"],
                    "index_bytes": report.total_bytes,
                    "bytes_by_file": report.bytes_by_file,
                    "enumerate_seconds": enumerate_seconds,
                    "build_seconds": build_seconds,
                    "deterministic_double_build": True,
                },
                "latency": {"queries_per_op": QUERIES_PER_OP, **latencies},
                "postings_lookup": directory_pages,
                "top_k": size_order_pages,
                "service_contract": service_contract,
            },
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

        print("index query smoke benchmark")
        print(f"  graph            : {graph.num_vertices} vertices, "
              f"{graph.num_edges} edges")
        print(f"  maximal cliques  : {stats['num_cliques']} "
              f"(largest {stats['max_clique_size']})")
        print(f"  index size       : {report.total_bytes} bytes")
        print(f"  enumerate        : {enumerate_seconds * 1e3:9.1f} ms")
        print(f"  build            : {build_seconds * 1e3:9.1f} ms")
        print(f"  postings.dir     : {directory_pages['per_lookup']:.2f} pages "
              f"per postings lookup")
        print(f"  cliques.sz       : {size_order_pages['per_top_k']:.2f} pages "
              f"per top-k")
        for op, summary in latencies.items():
            print(f"  {op:<24s}: p50 {summary['p50_us']:8.1f} us   "
                  f"p95 {summary['p95_us']:8.1f} us")
        print(f"  served (TCP)     : p50 {service_contract['p50_ms']:.3f} ms   "
              f"p95 {service_contract['p95_ms']:.3f} ms   "
              f"{service_contract['degraded_responses']} degraded")
        print(f"  results written  : {RESULT_PATH}")
        print("PASS")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
