"""Golden-stream regression fixture.

``data/golden_graph.txt`` is a committed 120-vertex/354-edge power-law
graph; the SHA-256 below is the digest of the canonical clique report
ExtMCE must produce for it, forever.  Any change to the enumeration
pipeline that alters the stream — its *content*, not just its order —
trips this test before it trips a human.

Alongside the byte digest, the schema checks pin the *shape* of the two
observability artifacts (trace events and the metrics snapshot): removing
or renaming a key that downstream tooling reads is a breaking change and
must be a conscious one.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.graph.adjacency import AdjacencyGraph
from repro.metrics import SNAPSHOT_SCHEMA, metric_names
from repro.storage.edgelist import read_edge_list
from repro.telemetry import load_trace
from tests.differential.harness import (
    assert_pool_used,
    assert_stream_metrics_consistent,
    run_enumeration,
)

DATA = Path(__file__).parent / "data" / "golden_graph.txt"

#: SHA-256 of the committed edge-list file itself — a corrupted or
#: regenerated fixture should fail loudly, not produce confusing digests.
GOLDEN_GRAPH_SHA256 = (
    "cab79fdf96e3e559c79242b119b4a649aa2e62ca6a2f4181a92c7028b55418ed"
)

#: SHA-256 of the canonical clique report (one sorted clique per line,
#: lexicographic order) for the golden graph: 202 maximal cliques.
GOLDEN_STREAM_SHA256 = (
    "fcf7139fc07a27d9d5a36a30142cf8d72b2e4bad4d342f3dc9fb6692f1b63ac0"
)

GOLDEN_CLIQUE_COUNT = 202

#: Metric families every instrumented run must expose.  New families may
#: be added freely; removing one breaks dashboards and this test.
REQUIRED_METRICS = {
    "repro_kernel_cliques_total",
    "repro_kernel_subproblem_size",
    "repro_kernel_subproblems_total",
    "repro_mce_category_cliques_total",
    "repro_mce_cliques_emitted_total",
    "repro_mce_cliques_suppressed_total",
    "repro_mce_hashtable_entries",
    "repro_mce_phase_seconds",
    "repro_mce_singleton_cliques_total",
    "repro_mce_steps_total",
    "repro_storage_bytes_read_total",
    "repro_storage_bytes_written_total",
    "repro_storage_checksum_failures_total",
    "repro_storage_pages_read_total",
    "repro_storage_pages_written_total",
    "repro_storage_records_verified_total",
    "repro_storage_sequential_scans_total",
    "repro_tree_builds_total",
    "repro_tree_cliques_total",
    "repro_tree_nodes_total",
}

#: Keys every ``step_completed`` trace event must carry.
STEP_EVENT_KEYS = {
    "seq", "elapsed", "event", "step", "core_size", "periphery_size",
    "star_edges", "tree_nodes", "tree_estimate", "emitted", "suppressed",
    "hashtable_entries",
}


def golden_graph() -> AdjacencyGraph:
    return AdjacencyGraph.from_edges(read_edge_list(DATA))


def test_fixture_file_unchanged():
    assert hashlib.sha256(DATA.read_bytes()).hexdigest() == GOLDEN_GRAPH_SHA256


@pytest.mark.parametrize(
    "workers, fanout",
    [(1, False), (2, False), (2, True)],
    ids=["serial", "workers2", "workers2-fanout"],
)
def test_golden_stream_digest(workers, fanout, tmp_path):
    result = run_enumeration(
        golden_graph(), tmp_path, workers=workers, fanout=fanout
    )
    if fanout:
        assert_pool_used(result)
    assert len(result.stream) == GOLDEN_CLIQUE_COUNT
    digest = hashlib.sha256(result.canonical_bytes).hexdigest()
    assert digest == GOLDEN_STREAM_SHA256
    assert_stream_metrics_consistent(result)


def test_metrics_snapshot_schema(tmp_path):
    result = run_enumeration(golden_graph(), tmp_path, workers=1)
    assert result.snapshot["schema"] == SNAPSHOT_SCHEMA
    missing = REQUIRED_METRICS - metric_names(result.snapshot)
    assert not missing, f"metric families removed: {sorted(missing)}"
    for entry in result.snapshot["metrics"]:
        assert {"name", "type", "help", "labels"} <= entry.keys()
        if entry["type"] == "histogram":
            assert {"buckets", "counts", "sum", "count"} <= entry.keys()
        else:
            assert "value" in entry


def test_trace_schema(tmp_path):
    run_enumeration(golden_graph(), tmp_path, workers=1, trace=True)
    events = load_trace(tmp_path / "trace.jsonl")
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_started"
    assert kinds[-1] == "run_completed"
    steps = [e for e in events if e["event"] == "step_completed"]
    assert steps, "no step_completed events"
    for event in steps:
        missing = STEP_EVENT_KEYS - event.keys()
        assert not missing, f"step_completed lost keys: {sorted(missing)}"
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
