"""Smoke benchmark: admission control under 2x saturation.

Serves a frozen index through a server whose engine sleeps a fixed
4 ms per query (a known service time), caps admission at
``MAX_IN_FLIGHT``, then drives a closed-loop client population twice
that size — offered concurrency 2x the saturation point.  Records to
``BENCH_service.json`` at the repository root, in the ``{bench, schema,
host, git_sha, headline, runs}`` envelope the other ``BENCH_*.json``
files share:

1. the shed rate (requests answered ``overloaded`` with a
   ``retry_after_ms`` hint instead of queueing unboundedly); and
2. the latency quantiles of the *accepted* requests, which admission
   control must keep near the raw service time no matter the overload.

Two pass/fail gates make it a smoke test: at 2x saturation the server
must actually shed (a zero shed rate means admission is broken), and
accepted-request p95 must stay within ``LATENCY_BUDGET`` of the
service time (sheds are how latency stays flat; queueing would show up
right here).  Every request must get exactly one reply either way.

Run directly (as CI does)::

    PYTHONPATH=src python benchmarks/bench_service_overload.py
"""

from __future__ import annotations

import json
import socket
import tempfile
import threading
import time
from pathlib import Path

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.index import CliqueIndex, build_index
from repro.service import CliqueQueryEngine, CliqueQueryServer

try:  # pytest collection from the repository root
    from benchmarks.common import git_sha, host_shape, quantiles, scaling_graph
except ImportError:  # executed directly: benchmarks/ itself is sys.path[0]
    from common import git_sha, host_shape, quantiles, scaling_graph

NUM_VERTICES = 200
SERVICE_TIME_SECONDS = 0.004
MAX_IN_FLIGHT = 4
OFFERED_CONCURRENCY = 2 * MAX_IN_FLIGHT  # 2x the saturation point
REQUESTS_PER_CLIENT = 60
RETRY_AFTER_MS = 25.0
#: Accepted-request p95 ceiling: service time plus generous scheduling
#: slack for shared CI boxes.  Queueing past the admission limit would
#: blow through this by an order of magnitude.
LATENCY_BUDGET_SECONDS = SERVICE_TIME_SECONDS * 10 + 0.02
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


class _MeteredEngine(CliqueQueryEngine):
    """Fixed service time per query, so saturation is a known number."""

    def query(self, op, timeout_seconds=None, **args):
        time.sleep(SERVICE_TIME_SECONDS)
        return super().query(op, timeout_seconds=timeout_seconds, **args)


def _client(host: str, port: int, worker_id: int,
            accepted: list[float], shed: list[int], lock: threading.Lock) -> None:
    with socket.create_connection((host, port), timeout=30.0) as sock:
        handle = sock.makefile("rb")
        for n in range(REQUESTS_PER_CLIENT):
            request = json.dumps({
                "id": n,
                "op": "cliques_containing",
                "args": {"v": (worker_id * 37 + n) % NUM_VERTICES},
            }).encode() + b"\n"
            started = time.perf_counter()
            sock.sendall(request)
            reply = json.loads(handle.readline())
            elapsed = time.perf_counter() - started
            assert reply["id"] == n, f"reply for {n} carried id {reply['id']}"
            with lock:
                if reply.get("overloaded"):
                    assert reply["retry_after_ms"] == RETRY_AFTER_MS
                    shed[0] += 1
                else:
                    assert reply["ok"] is True
                    accepted.append(elapsed)


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="bench_service_"))
    try:
        graph = scaling_graph(NUM_VERTICES)
        cliques = sorted(
            tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph))
        )
        build_index(cliques, tmp / "idx")
        with CliqueIndex(tmp / "idx") as index:
            engine = _MeteredEngine(index)
            server = CliqueQueryServer(
                engine,
                max_in_flight=MAX_IN_FLIGHT,
                retry_after_ms=RETRY_AFTER_MS,
            ).start()
            host, port = server.address
            accepted: list[float] = []
            shed = [0]
            lock = threading.Lock()
            started = time.perf_counter()
            workers = [
                threading.Thread(
                    target=_client, args=(host, port, w, accepted, shed, lock)
                )
                for w in range(OFFERED_CONCURRENCY)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            elapsed = time.perf_counter() - started
            server.stop()

        total = OFFERED_CONCURRENCY * REQUESTS_PER_CLIENT
        assert len(accepted) + shed[0] == total, "a request went unanswered"
        shed_rate = shed[0] / total
        latency = quantiles(accepted, include_count=True)
        result = {
            "bench": "service_overload",
            "schema": 1,
            "host": host_shape(),
            "git_sha": git_sha(),
            "headline": {
                "shed_rate": shed_rate,
                "accepted_p95_ms": latency["p95_us"] / 1e3,
                "throughput_rps": total / elapsed,
            },
            "runs": {
                "saturation_2x": {
                    "service_time_ms": SERVICE_TIME_SECONDS * 1e3,
                    "max_in_flight": MAX_IN_FLIGHT,
                    "offered_concurrency": OFFERED_CONCURRENCY,
                    "requests": total,
                    "accepted": len(accepted),
                    "shed": shed[0],
                    "retry_after_ms": RETRY_AFTER_MS,
                    "accepted_latency": latency,
                },
            },
        }
        RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))

        assert shed_rate > 0.0, (
            "2x saturation produced zero sheds — admission control is not "
            "engaging"
        )
        p95_seconds = latency["p95_us"] / 1e6
        assert p95_seconds <= LATENCY_BUDGET_SECONDS, (
            f"accepted p95 {p95_seconds * 1e3:.1f} ms blew the "
            f"{LATENCY_BUDGET_SECONDS * 1e3:.1f} ms budget — requests are "
            "queueing instead of shedding"
        )
        print(f"PASS: shed rate {shed_rate:.1%}, accepted p95 "
              f"{p95_seconds * 1e3:.2f} ms within budget")
        return 0
    finally:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
