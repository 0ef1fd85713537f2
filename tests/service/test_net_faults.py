"""Wire-protocol behavior under injected network faults.

The ``"net"`` fault site arms the serving tier's socket paths: the
accept loop (``accept``, honours ``accept_stall``) and the per-reply
write path (``write:<peer>``, honours ``conn_reset`` / ``partial_line``
/ ``slow_write``).  The invariant pinned here is the issue's acceptance
line: *for every request on a surviving connection the server sends
exactly one reply*, and a connection the plan kills surfaces client-side
as a typed :class:`~repro.errors.ServiceUnavailableError` — never a
hang, never a duplicate or interleaved reply.
"""

import json
import socket
import threading
import time

import pytest

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.errors import ServiceUnavailableError
from repro.faults import FaultPlan, FaultRule
from repro.index import CliqueIndex, build_index
from repro.service import (
    CliqueQueryClient,
    CliqueQueryEngine,
    CliqueQueryServer,
    RetryPolicy,
)

from tests.helpers import seeded_gnp


@pytest.fixture()
def fresh_registry():
    previous = metrics.get_registry()
    registry = metrics.MetricsRegistry()
    metrics.set_registry(registry)
    yield registry
    metrics.set_registry(previous)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    graph = seeded_gnp(30, 0.3, seed=7)
    cliques = sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))
    directory = tmp_path_factory.mktemp("netfaults") / "idx"
    build_index(cliques, directory)
    return graph, cliques, directory


def _serving(directory, fault_plan=None, **kw):
    index = CliqueIndex(directory)
    engine = CliqueQueryEngine(index)
    server = CliqueQueryServer(engine, fault_plan=fault_plan, **kw).start()
    return index, server


def _net_plan(kind, *, path=None, firings=1, probability=1.0, latency=0.05, seed=5):
    return FaultPlan(
        [
            FaultRule(
                operation="net",
                kind=kind,
                probability=probability,
                max_firings=firings,
                path_contains=path,
                latency_seconds=latency,
            )
        ],
        seed=seed,
    )


class TestConnectionReset:
    def test_mid_reply_reset_is_typed_and_next_connection_survives(
        self, corpus, fresh_registry
    ):
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory, fault_plan=_net_plan("conn_reset", path="write")
        )
        try:
            host, port = server.address
            no_retry = CliqueQueryClient(
                host, port, timeout_seconds=5.0,
                retry_policy=RetryPolicy(max_attempts=1),
            )
            with pytest.raises(ServiceUnavailableError):
                no_retry.stats()
            no_retry.close()
            # The fault budget is spent: a fresh connection gets exactly
            # one clean reply per request.
            with CliqueQueryClient(host, port, timeout_seconds=5.0) as client:
                assert client.stats().result["num_cliques"] == len(cliques)
            assert metrics.counter_value(
                fresh_registry.snapshot(), "repro_server_net_faults_total"
            ) == 1
        finally:
            server.stop()
            index.close()

    def test_retrying_client_recovers_transparently(self, corpus):
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory, fault_plan=_net_plan("conn_reset", path="write")
        )
        try:
            host, port = server.address
            client = CliqueQueryClient(
                host, port, timeout_seconds=5.0,
                retry_policy=RetryPolicy(max_attempts=3, base_sleep=0.01),
            )
            # First attempt is reset mid-write; the retry reconnects and
            # the answer is correct — the caller never sees the fault.
            assert client.stats().result["num_cliques"] == len(cliques)
            client.close()
        finally:
            server.stop()
            index.close()


class TestPartialLine:
    def test_truncated_reply_never_parses_as_an_answer(self, corpus):
        """A reply cut mid-line must surface as a transport error, not a
        short-but-valid JSON answer (the classic torn-write hazard)."""
        _graph, _cliques, directory = corpus
        index, server = _serving(
            directory, fault_plan=_net_plan("partial_line", path="write")
        )
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(b'{"id": 1, "op": "top_k_largest", "args": {"k": 5}}\n')
                handle = sock.makefile("rb")
                try:
                    data = handle.readline()
                except OSError:  # the reset may arrive before any bytes
                    data = b""
            # Either nothing or a prefix without the newline terminator:
            # in both cases the JSON-lines framing rejects it.
            assert not data.endswith(b"\n") or data == b""
        finally:
            server.stop()
            index.close()


class TestSlowLoris:
    def test_slow_write_still_delivers_exactly_one_full_reply(self, corpus):
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory,
            fault_plan=_net_plan("slow_write", path="write", latency=0.02),
        )
        try:
            host, port = server.address
            with CliqueQueryClient(host, port, timeout_seconds=10.0) as client:
                started = time.monotonic()
                reply = client.stats()
                elapsed = time.monotonic() - started
            assert reply.result["num_cliques"] == len(cliques)
            assert elapsed >= 0.02  # the trickle really happened
        finally:
            server.stop()
            index.close()

    @pytest.mark.parametrize("length", [64, 8, 1, 9, 65])
    def test_full_latency_passes_before_the_last_byte(self, length, monkeypatch):
        """Deterministic version of the bound above: with ``time.sleep``
        patched, the pauses logged before the final write sum to the whole
        injected latency, also when the reply length is a multiple of 8."""
        from types import SimpleNamespace

        from repro.service import server as server_mod

        log = []
        monkeypatch.setattr(
            server_mod, "time",
            SimpleNamespace(sleep=lambda seconds: log.append(("sleep", seconds))),
        )
        fault = SimpleNamespace(kind="slow_write", latency_seconds=0.02)
        handler = SimpleNamespace(
            server=SimpleNamespace(_draw_net_fault=lambda path: fault),
            client_address=("127.0.0.1", 1),
            _write_line=lambda data: log.append(("write", data)) or True,
        )
        response = b"x" * (length - 1) + b"\n"
        assert server_mod._Handler._send_response(handler, response)
        writes = [data for kind, data in log if kind == "write"]
        assert b"".join(writes) == response
        assert 1 <= len(writes) <= 8
        last_write = max(i for i, (kind, _) in enumerate(log) if kind == "write")
        assert log[last_write + 1 :] == []
        paused = sum(s for kind, s in log[:last_write] if kind == "sleep")
        assert paused == pytest.approx(fault.latency_seconds)

    def test_slow_peer_does_not_block_other_connections(self, corpus):
        """While one reply trickles out, a second connection is served."""
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory,
            fault_plan=_net_plan("slow_write", path="write", latency=0.1),
        )
        try:
            host, port = server.address
            slow_done = threading.Event()

            def slow_one():
                with CliqueQueryClient(host, port, timeout_seconds=15.0) as c:
                    c.stats()
                slow_done.set()

            thread = threading.Thread(target=slow_one)
            thread.start()
            time.sleep(0.05)  # let the slow write start trickling
            started = time.monotonic()
            with CliqueQueryClient(host, port, timeout_seconds=5.0) as fast:
                assert fast.stats().result["num_cliques"] == len(cliques)
            assert time.monotonic() - started < 2.0
            thread.join(timeout=15.0)
            assert slow_done.is_set()
        finally:
            server.stop()
            index.close()


class TestAcceptStall:
    def test_stalled_accept_delays_but_serves(self, corpus):
        _graph, cliques, directory = corpus
        index, server = _serving(
            directory,
            fault_plan=_net_plan("accept_stall", path="accept", latency=0.3),
        )
        try:
            host, port = server.address
            started = time.monotonic()
            with CliqueQueryClient(host, port, timeout_seconds=10.0) as client:
                assert client.stats().result["num_cliques"] == len(cliques)
            assert time.monotonic() - started >= 0.3
        finally:
            server.stop()
            index.close()


class TestOneReplyPerRequest:
    def test_mixed_fault_storm_yields_exactly_one_reply_per_survivor(self, corpus):
        """Drive many requests through a probabilistic reset/slow plan and
        account for every one: a request either errors at the transport
        (typed) or gets exactly one reply with its own id — never zero,
        never two."""
        _graph, cliques, directory = corpus
        plan = FaultPlan(
            [
                FaultRule(
                    operation="net", kind="conn_reset", probability=0.2,
                    max_firings=None, path_contains="write",
                ),
                FaultRule(
                    operation="net", kind="slow_write", probability=0.2,
                    max_firings=None, path_contains="write",
                    latency_seconds=0.01,
                ),
            ],
            seed=17,
        )
        index, server = _serving(directory, fault_plan=plan)
        try:
            host, port = server.address
            answered = 0
            reset = 0
            for request_id in range(40):
                with socket.create_connection((host, port), timeout=5.0) as sock:
                    sock.sendall(
                        json.dumps(
                            {"id": request_id, "op": "stats", "args": {}}
                        ).encode() + b"\n"
                    )
                    handle = sock.makefile("rb")
                    try:
                        line = handle.readline()
                    except OSError:
                        line = b""
                    if not line.endswith(b"\n"):
                        reset += 1
                        continue
                    reply = json.loads(line)
                    assert reply["id"] == request_id
                    assert reply["ok"] is True
                    assert reply["result"]["num_cliques"] == len(cliques)
                    answered += 1
                    # No second line may ever arrive for this request.
                    sock.settimeout(0.1)
                    try:
                        extra = handle.readline()
                    except (TimeoutError, OSError):
                        extra = b""
                    assert extra == b"", f"duplicate reply for {request_id}: {extra!r}"
            assert answered + reset == 40
            assert answered > 0, "the storm killed every connection"
            assert reset > 0, "the plan never fired; the test is vacuous"
        finally:
            server.stop()
            index.close()
