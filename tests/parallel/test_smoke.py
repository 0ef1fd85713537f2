"""Tier-1 smoke test: a 2-worker run must finish, fast, every time.

Pool bugs tend to manifest as *hangs* (a worker waiting on a parent that
is waiting on the worker), which a plain test would turn into a pytest
timeout hours later.  Running the enumeration on a watchdog thread turns
a deadlock into a fast, attributable failure.
"""

import threading

import pytest

from repro import DiskGraph, ExtMCEConfig, ParallelExtMCE
from repro.metrics import counter_value

from tests.helpers import seeded_gnp

SMOKE_TIMEOUT_SECONDS = 120


@pytest.mark.usefixtures("force_fanout")
def test_two_worker_enumeration_completes_within_timeout(tmp_path, live_metrics):
    graph = seeded_gnp(60, 0.15, seed=5)
    disk = DiskGraph.create(tmp_path / "g.bin", graph)
    algo = ParallelExtMCE(disk, ExtMCEConfig(workdir=tmp_path / "w", workers=2))
    outcome: dict = {}

    def run() -> None:
        try:
            outcome["cliques"] = list(algo.enumerate_cliques())
        except BaseException as error:  # surfaced below, not swallowed
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(SMOKE_TIMEOUT_SECONDS)
    assert not thread.is_alive(), (
        f"2-worker enumeration did not finish within {SMOKE_TIMEOUT_SECONDS}s "
        "— likely a pool deadlock"
    )
    assert "error" not in outcome, f"enumeration raised: {outcome.get('error')!r}"
    assert len(outcome["cliques"]) > 0
    assert counter_value(live_metrics.snapshot(), "repro_parallel_chunks_total") > 0
