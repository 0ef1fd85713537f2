"""Human rendering of the index/service metric families.

``repro-mce stats SNAPSHOT.json`` prints every metric as a flat table;
for snapshots produced by the query service that table buries the
numbers an operator actually wants.  :func:`summarize_query_metrics`
sniffs a snapshot for the ``repro_index_*`` / ``repro_service_*`` /
``repro_server_*`` families and, when present, renders the operational
summary — queries by type, degradations/timeouts, page reads, and
latency percentiles estimated from the histogram buckets.
"""

from __future__ import annotations

from repro.metrics import counter_value

#: Prefixes that mark a snapshot as coming from an index/service run.
FAMILY_PREFIXES = (
    "repro_index_",
    "repro_service_",
    "repro_server_",
    "repro_live_",
    "repro_client_",
    "repro_supervisor_",
)


def has_query_metrics(snapshot: dict) -> bool:
    """Whether the snapshot carries any index/service metric family."""
    return any(
        entry["name"].startswith(FAMILY_PREFIXES)
        for entry in snapshot.get("metrics", ())
    )


def _histogram_entries(snapshot: dict, name: str) -> list[dict]:
    return [
        entry
        for entry in snapshot["metrics"]
        if entry["name"] == name and entry["type"] == "histogram"
    ]


def histogram_quantile(snapshot: dict, name: str, quantile: float) -> float | None:
    """Estimate a quantile from a histogram's bucket counts.

    Merges every label set of ``name``, then walks the cumulative bucket
    counts and returns the upper bound of the bucket containing the
    quantile — the standard conservative estimate Prometheus'
    ``histogram_quantile`` makes.  ``None`` when the histogram is absent
    or empty.
    """
    entries = _histogram_entries(snapshot, name)
    if not entries:
        return None
    bounds = entries[0]["buckets"]
    counts = [0] * (len(bounds) + 1)
    for entry in entries:
        for index, count in enumerate(entry["counts"]):
            counts[index] += count
    total = sum(counts)
    if total == 0:
        return None
    target = quantile * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= target:
            return float(bound)
    return float("inf")  # overflow bucket: above the largest bound


def summarize_query_metrics(snapshot: dict) -> str | None:
    """The operator summary for an index/service snapshot, or ``None``."""
    if not has_query_metrics(snapshot):
        return None
    from repro.analysis.tables import render_table

    rows: list[tuple[str, str]] = []
    by_op = {
        entry["labels"].get("op", "?"): entry["value"]
        for entry in snapshot["metrics"]
        if entry["name"] == "repro_service_queries_total"
        and entry["type"] == "counter"
    }
    for op in sorted(by_op):
        rows.append((f"queries[{op}]", str(by_op[op])))
    for label, name in (
        ("degraded (cold-path) answers", "repro_service_degraded_total"),
        ("query timeouts", "repro_service_timeouts_total"),
        ("query errors", "repro_service_errors_total"),
        ("stale answers", "repro_service_stale_answers_total"),
        ("postings lists read", "repro_index_postings_read_total"),
        ("clique records read", "repro_index_records_read_total"),
        ("bufferpool page misses", "repro_bufferpool_misses_total"),
        ("server connections", "repro_server_connections_total"),
        ("server requests", "repro_server_requests_total"),
        ("requests shed (overload/drain)", "repro_server_shed_total"),
        ("oversized requests rejected", "repro_server_oversized_requests_total"),
        ("slow-consumer disconnects", "repro_server_slow_consumer_disconnects_total"),
        ("injected net faults fired", "repro_server_net_faults_total"),
        ("graceful drains", "repro_server_drains_total"),
        ("subscriptions accepted", "repro_server_subscriptions_total"),
        ("subscription events pushed", "repro_server_events_pushed_total"),
        ("client retries", "repro_client_retries_total"),
        ("client transport failures", "repro_client_unavailable_total"),
        ("client overload sheds seen", "repro_client_overloaded_total"),
        ("circuit breaker trips", "repro_client_breaker_opens_total"),
        ("breaker fast-fails", "repro_client_breaker_fast_fails_total"),
        ("supervisor worker deaths", "repro_supervisor_worker_deaths_total"),
        ("supervisor restarts", "repro_supervisor_restarts_total"),
        ("supervisor reapplied events", "repro_supervisor_reapplied_events_total"),
        ("supervisor dropped poison events", "repro_supervisor_dropped_events_total"),
        ("live deltas applied", "repro_live_deltas_applied_total"),
        ("live WAL records", "repro_live_wal_records_total"),
        ("live compactions", "repro_live_compactions_total"),
        ("live compaction failures", "repro_live_compaction_failures_total"),
        ("live deltas recovered", "repro_live_recovered_deltas_total"),
        ("indexed cliques (builds)", "repro_index_build_cliques_total"),
    ):
        value = counter_value(snapshot, name)
        if value:
            rows.append((label, str(value)))
    for quantile, label in ((0.5, "query latency p50"), (0.95, "query latency p95")):
        estimate = histogram_quantile(
            snapshot, "repro_service_query_seconds", quantile
        )
        if estimate is not None:
            rows.append(
                (label, "> largest bucket" if estimate == float("inf")
                 else f"<= {estimate * 1000:.3g} ms")
            )
    if not rows:
        return None
    return render_table("Clique query service", ["metric", "value"], rows)
