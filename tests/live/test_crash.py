"""Hard-kill recovery: SIGKILL mid-compaction and mid-append.

A real crash is not an exception — the process vanishes with no chance
to clean up.  The children below are parked inside a compaction stage
(via an injected ``latency`` fault) or a WAL append loop when the parent
SIGKILLs them; the assertion is always the same: reopening the store
recovers a consistent, verifiable state containing every acknowledged
delta.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.live.deltas import ADD, CliqueDelta
from repro.live.store import LiveCliqueStore

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Ten two-vertex cliques the parent applies before handing over.
BASE_CLIQUES = [(2 * i, 2 * i + 1) for i in range(10)]

COMPACTION_CHILD = textwrap.dedent(
    """
    import sys

    from repro.faults import FaultPlan, FaultRule
    from repro.live.store import LiveCliqueStore

    directory, stage = sys.argv[1], sys.argv[2]
    plan = FaultPlan([
        FaultRule(operation="compaction", kind="latency",
                  path_contains=stage, latency_seconds=60.0),
    ])
    store = LiveCliqueStore.open(directory, fault_plan=plan)
    with open(directory + "/READY", "w") as marker:
        marker.write("parked at " + stage)
    store.compact()  # sleeps 60 s at `stage`; the parent kills us there
    """
)

APPEND_CHILD = textwrap.dedent(
    """
    import os
    import sys

    from repro.live.deltas import ADD, CliqueDelta
    from repro.live.store import LiveCliqueStore

    directory = sys.argv[1]
    store = LiveCliqueStore.open(directory)
    with open(directory + "/READY", "w") as marker:
        marker.write("appending")
    vertex = 1000
    while True:
        store.apply_deltas([CliqueDelta(ADD, (vertex, vertex + 1))])
        # Publish the marker atomically: a SIGKILL between truncate and
        # write would otherwise leave an empty ACKED for the parent.
        with open(directory + "/ACKED.tmp", "w") as acked:
            acked.write(str(vertex))
        os.replace(directory + "/ACKED.tmp", directory + "/ACKED")
        vertex += 2
    """
)


def launch(script, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_for(path: Path, process, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            return
        if process.poll() is not None:
            pytest.fail(f"child exited early with {process.returncode}")
        time.sleep(0.01)
    pytest.fail(f"child never created {path}")


@pytest.mark.parametrize("stage", ["rotate", "build", "commit", "cleanup"])
def test_sigkill_mid_compaction_recovers(tmp_path, stage):
    directory = tmp_path / "live"
    store = LiveCliqueStore.initialize(directory)
    store.apply_deltas([CliqueDelta(ADD, c) for c in BASE_CLIQUES])
    expected = store.live_cliques()
    store.close()

    child = launch(COMPACTION_CHILD, str(directory), stage)
    try:
        wait_for(directory / "READY", child)
        # Give the child time to march from READY into the parked stage.
        time.sleep(0.6)
        child.kill()
        child.wait(timeout=10)
    finally:
        if child.poll() is None:
            child.kill()
    (directory / "READY").unlink(missing_ok=True)

    with LiveCliqueStore.open(directory) as recovered:
        assert recovered.live_cliques() == expected
        recovered.verify()
        # The recovered store compacts cleanly from wherever the crash left it.
        if recovered.tail_length:
            assert recovered.compact() is not None
        assert recovered.live_cliques() == expected
        recovered.verify()


def test_sigkill_mid_append_keeps_acknowledged_deltas(tmp_path):
    directory = tmp_path / "live"
    store = LiveCliqueStore.initialize(directory)
    store.apply_deltas([CliqueDelta(ADD, c) for c in BASE_CLIQUES])
    store.close()

    child = launch(APPEND_CHILD, str(directory))
    try:
        wait_for(directory / "READY", child)
        wait_for(directory / "ACKED", child)
        time.sleep(0.3)  # let a few more appends land, then kill mid-flight
        child.kill()
        child.wait(timeout=10)
    finally:
        if child.poll() is None:
            child.kill()
    acked_vertex = int((directory / "ACKED").read_text())
    (directory / "READY").unlink(missing_ok=True)
    (directory / "ACKED").unlink(missing_ok=True)

    with LiveCliqueStore.open(directory) as recovered:
        live = recovered.live_cliques()
        # Every acknowledged append (marker written after apply_deltas
        # returned) must have survived the kill.
        assert (acked_vertex, acked_vertex + 1) in live
        assert set(BASE_CLIQUES) <= live
        recovered.verify()
        # And the log tail is clean enough to keep appending.  The child
        # only writes pairs starting at an even vertex >= 1000, and the
        # base cliques start at even vertices, so (1, 2) is never live.
        recovered.apply_deltas([CliqueDelta(ADD, (1, 2))])
        assert (1, 2) in recovered.live_cliques()
