"""CliqueQueryServer: wire protocol and the concurrent service contract.

The contract test is the acceptance criterion from the index/service
issue: eight concurrent clients issue mixed queries against a server
whose index has a fault plan injecting page read errors; every request
must complete (as a success or a typed error), every successful answer
must match a brute-force scan even when degraded, and the server/engine
metric counters must reconcile exactly with the request counts.  The
served latency is measured by ``benchmarks/bench_index_queries.py``.
"""

import json
import random
import socket
import threading

import pytest

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.errors import QueryTimeoutError, ServiceError, ServiceUnavailableError
from repro.faults import FaultPlan, FaultRule
from repro.index import CliqueIndex, build_index
from repro.service import CliqueQueryClient, CliqueQueryEngine, CliqueQueryServer

from tests.helpers import seeded_gnp

NUM_CLIENTS = 8
REQUESTS_PER_CLIENT = 40


@pytest.fixture()
def fresh_registry():
    previous = metrics.get_registry()
    registry = metrics.MetricsRegistry()
    metrics.set_registry(registry)
    yield registry
    metrics.set_registry(previous)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A graph, its canonical cliques, and a built index directory."""
    graph = seeded_gnp(40, 0.3, seed=3)
    cliques = sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))
    directory = tmp_path_factory.mktemp("served") / "idx"
    build_index(cliques, directory)
    return graph, cliques, directory


def _serving(directory, fault_plan=None):
    index = CliqueIndex(directory, fault_plan=fault_plan)
    engine = CliqueQueryEngine(index)
    server = CliqueQueryServer(engine).start()
    return index, server


class TestWireProtocol:
    def test_every_operation_round_trips(self, corpus):
        _graph, cliques, directory = corpus
        index, server = _serving(directory)
        try:
            host, port = server.address
            with CliqueQueryClient(host, port) as client:
                assert client.cliques_containing(0).result == list(
                    index.cliques_containing(0)
                )
                u, v = cliques[0][0], cliques[0][1]
                assert client.cliques_containing_edge(u, v).result == list(
                    index.cliques_containing_edge(u, v)
                )
                assert client.clique(0).result == list(cliques[0])
                assert client.membership(cliques[0]).result == [0]
                assert client.top_k_largest(3).result == [
                    list(c) for c in index.top_k_largest(3)
                ]
                assert client.stats().result["num_cliques"] == len(cliques)
        finally:
            server.stop()
            index.close()

    def test_errors_are_responses_not_dropped_connections(self, corpus):
        _graph, _cliques, directory = corpus
        index, server = _serving(directory)
        try:
            host, port = server.address
            with CliqueQueryClient(host, port) as client:
                with pytest.raises(ServiceError, match="unknown operation"):
                    client.request("nonsense")
                with pytest.raises(ServiceError):
                    client.cliques_containing_edge(4, 4)
                # The connection survives both errors.
                assert client.stats().result["num_cliques"] > 0
        finally:
            server.stop()
            index.close()

    def test_malformed_json_gets_an_error_line(self, corpus):
        _graph, _cliques, directory = corpus
        index, server = _serving(directory)
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"this is not json\n")
                reply = json.loads(sock.makefile("rb").readline())
            assert reply["ok"] is False
            assert "error" in reply
        finally:
            server.stop()
            index.close()

    def test_timeout_surfaces_as_typed_client_error(self, corpus):
        _graph, _cliques, directory = corpus
        index, server = _serving(directory)
        try:
            host, port = server.address
            with CliqueQueryClient(host, port) as client:
                with pytest.raises(QueryTimeoutError):
                    client.cliques_containing(1, timeout=1e-9)
        finally:
            server.stop()
            index.close()

    def test_connecting_to_a_dead_port_raises_unavailable(self, corpus):
        _graph, _cliques, directory = corpus
        index, server = _serving(directory)
        host, port = server.address
        server.stop()
        index.close()
        with pytest.raises(ServiceUnavailableError):
            CliqueQueryClient(host, port, timeout_seconds=0.5)


class TestServiceContract:
    def test_concurrent_clients_survive_page_read_faults(
        self, corpus, fresh_registry
    ):
        graph, cliques, directory = corpus
        vertices = sorted(graph.vertices())

        # Transient page read failures on the postings file, spread across
        # the run; the cache is disabled so queries keep hitting the pool
        # and stay eligible to trip them.
        plan = FaultPlan(
            [
                FaultRule(
                    operation="pool_read",
                    kind="io_error",
                    path_contains="postings.dat",
                    after=i * 11,
                )
                for i in range(8)
            ],
            seed=9,
        )
        index, server = _serving(directory, fault_plan=plan)
        outcomes = []
        outcomes_lock = threading.Lock()

        def expected_for(op, args):
            if op == "cliques_containing":
                v = args["v"]
                return [cid for cid, c in enumerate(cliques) if v in c]
            if op == "cliques_containing_edge":
                u, v = args["u"], args["v"]
                return [cid for cid, c in enumerate(cliques) if u in c and v in c]
            if op == "membership":
                wanted = set(args["vertices"])
                return [cid for cid, c in enumerate(cliques) if wanted <= set(c)]
            if op == "clique":
                return list(cliques[args["clique_id"]])
            if op == "top_k_largest":
                ranked = sorted(cliques, key=lambda c: (-len(c), c))
                return [list(c) for c in ranked[: args["k"]]]
            return None  # stats: checked structurally

        def run_client(client_id):
            rng = random.Random(1000 + client_id)
            host, port = server.address
            with CliqueQueryClient(host, port) as client:
                for i in range(REQUESTS_PER_CLIENT):
                    if i % 10 == 9:
                        # A deliberately invalid request, unique per
                        # client/slot so it never deduplicates with a
                        # concurrent leader that might fail differently.
                        bad = 10_000 + client_id * 100 + i
                        try:
                            client.cliques_containing_edge(bad, bad)
                        except ServiceError:
                            with outcomes_lock:
                                outcomes.append(("error", False, 0.0))
                        continue
                    op = rng.choice(
                        [
                            "cliques_containing",
                            "cliques_containing_edge",
                            "membership",
                            "clique",
                            "top_k_largest",
                            "stats",
                        ]
                    )
                    if op == "cliques_containing":
                        args = {"v": rng.choice(vertices)}
                    elif op == "cliques_containing_edge":
                        u, v = rng.sample(vertices, 2)
                        args = {"u": u, "v": v}
                    elif op == "membership":
                        base = rng.choice(cliques)
                        size = rng.randint(1, min(3, len(base)))
                        args = {"vertices": sorted(rng.sample(base, size))}
                    elif op == "clique":
                        args = {"clique_id": rng.randrange(len(cliques))}
                    elif op == "top_k_largest":
                        args = {"k": rng.randint(1, 5)}
                    else:
                        args = {}
                    response = client.request(op, **args)
                    if op == "stats":
                        correct = response.result["num_cliques"] == len(cliques)
                    else:
                        correct = response.result == expected_for(op, args)
                    with outcomes_lock:
                        outcomes.append(
                            ("ok" if correct else "wrong",
                             response.degraded,
                             response.elapsed_ms)
                        )

        threads = [
            threading.Thread(target=run_client, args=(cid,))
            for cid in range(NUM_CLIENTS)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            server.stop()
            index.close()

        total = NUM_CLIENTS * REQUESTS_PER_CLIENT
        invalid = NUM_CLIENTS * (REQUESTS_PER_CLIENT // 10)

        # Every request completed, as a success or a typed error.
        assert len(outcomes) == total
        kinds = [kind for kind, _degraded, _ms in outcomes]
        assert kinds.count("wrong") == 0
        assert kinds.count("error") == invalid
        assert kinds.count("ok") == total - invalid

        # The fault plan actually bit: some answers came off the cold path.
        degraded = sum(1 for _kind, was_degraded, _ms in outcomes if was_degraded)
        assert degraded >= 1

        # Metrics reconcile with what the clients sent and received.
        snapshot = fresh_registry.snapshot()

        def count(name):
            return metrics.counter_value(snapshot, name)

        assert count("repro_server_requests_total") == total
        assert (
            count("repro_server_responses_ok_total")
            + count("repro_server_responses_error_total")
            == total
        )
        assert count("repro_server_responses_error_total") == invalid
        assert count("repro_server_connections_total") == NUM_CLIENTS
        # Each successful response was computed exactly once.
        assert count("repro_service_queries_total") == total - invalid
        assert count("repro_service_errors_total") == invalid
        assert count("repro_service_degraded_total") == degraded

