"""Unit tests for the repro.metrics registry, snapshots and rendering."""

from __future__ import annotations

import json

import pytest

from repro import metrics
from repro.metrics import (
    SNAPSHOT_SCHEMA,
    TIME_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    counter_value,
    metric_names,
    render_metrics_table,
    render_prometheus,
    write_exposition_files,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_identity_per_label_set(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels={"k": "a"})
        b = registry.counter("c_total", labels={"k": "b"})
        again = registry.counter("c_total", labels={"k": "a"})
        assert a is again
        assert a is not b

    def test_gauge_tracks_high_water(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.inc(3)
        gauge.dec(8)
        assert gauge.value == 2
        assert gauge.high_water == 10

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1, 10, 100))
        for value in (0, 1, 5, 100, 1000):
            hist.observe(value)
        # counts: <=1, <=10, <=100, overflow
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == 1106
        assert hist.mean == pytest.approx(1106 / 5)

    def test_timer_observes_into_time_histogram(self):
        registry = MetricsRegistry()
        with registry.timer("t_seconds"):
            pass
        hist = registry.histogram("t_seconds", buckets=TIME_BUCKETS)
        assert hist.count == 1
        assert hist.sum >= 0

    def test_type_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1, 2, 3))


class TestNullRegistry:
    def test_shared_noop_instruments(self):
        null = NullRegistry()
        assert null.counter("a") is null.counter("b")
        null.counter("a").inc(10)
        assert null.counter("a").value == 0
        with null.timer("t"):
            pass

    def test_disabled_by_default_and_toggling(self):
        assert not metrics.enabled()
        registry = metrics.enable()
        try:
            assert metrics.enabled()
            assert metrics.enable() is registry  # idempotent
        finally:
            metrics.disable()
        assert not metrics.enabled()

    def test_bound_rebinds_on_registry_change(self):
        accessor = metrics.bound(lambda r: r.counter("rebind_total"))
        assert accessor() is accessor()  # cached against the null registry
        accessor().inc()
        registry = MetricsRegistry()
        metrics.set_registry(registry)
        try:
            live = accessor()
            live.inc(2)
            assert registry.counter("rebind_total").value == 2
        finally:
            metrics.disable()
        assert accessor().value == 0  # back on the shared no-op


class TestSnapshots:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter", labels={"k": "b"}).inc(3)
        registry.counter("c_total", "a counter", labels={"k": "a"}).inc(2)
        registry.gauge("g", "a gauge").set(5)
        registry.histogram("h", "a histogram", buckets=(1, 10)).observe(4)
        return registry

    def test_snapshot_sorted_and_schema_tagged(self):
        snapshot = self._populated().snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        keys = [(e["name"], tuple(sorted(e["labels"].items())))
                for e in snapshot["metrics"]]
        assert keys == sorted(keys)

    def test_snapshot_json_roundtrip_is_stable(self):
        snapshot = self._populated().snapshot()
        encoded = json.dumps(snapshot, sort_keys=True)
        assert json.dumps(json.loads(encoded), sort_keys=True) == encoded

    def test_absorb_into_empty_reproduces(self):
        snapshot = self._populated().snapshot()
        other = MetricsRegistry()
        other.absorb(snapshot)
        assert other.snapshot() == snapshot

    def test_merge_sums_counters_and_histograms_maxes_gauges(self):
        registry = self._populated()
        registry.absorb(self._populated().snapshot())
        merged = registry.snapshot()
        assert counter_value(merged, "c_total") == 10
        gauge = next(e for e in merged["metrics"] if e["name"] == "g")
        assert gauge["value"] == 5  # max, not sum
        hist = next(e for e in merged["metrics"] if e["name"] == "h")
        assert hist["count"] == 2
        assert hist["sum"] == 8

    def test_absorb_rejects_foreign_payloads(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.absorb({"metrics": []})
        with pytest.raises(ValueError):
            registry.absorb({"schema": "other/9", "metrics": []})

    def test_dump_load_and_exposition_files(self, tmp_path):
        snapshot = self._populated().snapshot()
        json_path, prom_path = write_exposition_files(
            snapshot, tmp_path / "m.json"
        )
        assert metrics.load_snapshot(json_path) == snapshot
        assert prom_path.read_text() == render_prometheus(snapshot)
        assert not list(tmp_path.glob("*.tmp"))

    def test_metric_names_and_counter_value(self):
        snapshot = self._populated().snapshot()
        assert metric_names(snapshot) == {"c_total", "g", "h"}
        assert counter_value(snapshot, "c_total") == 5
        assert counter_value(snapshot, "c_total", {"k": "a"}) == 2
        assert counter_value(snapshot, "c_total", {"k": "z"}) == 0
        assert counter_value(snapshot, "absent_total") == 0


class TestLibraryRuns:
    """Only the caller switches metrics on: a run records into whatever
    registry is active and never enables, swaps or writes it."""

    def _graph(self, tmp_path):
        from repro import AdjacencyGraph, DiskGraph

        # 4 edges, 2 maximal cliques.
        graph = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        return DiskGraph.create(tmp_path / "g.bin", graph)

    def test_a_library_run_leaves_the_registry_as_it_found_it(self, tmp_path):
        from dataclasses import fields

        from repro import ExtMCE, ExtMCEConfig, ParallelExtMCE

        # The one option that used to switch the registry on is gone.
        assert "metrics_path" not in {f.name for f in fields(ExtMCEConfig)}
        disk = self._graph(tmp_path)
        before = metrics.get_registry()
        for driver, workers in ((ExtMCE, 1), (ParallelExtMCE, 2)):
            config = ExtMCEConfig(
                workdir=tmp_path / f"w{workers}",
                workers=workers,
                trace_path=tmp_path / f"t{workers}.jsonl",
            )
            assert len(list(driver(disk, config).enumerate_cliques())) == 2
            assert metrics.get_registry() is before
        assert not metrics.enabled()

    def test_each_metered_run_counts_once(self, tmp_path):
        from repro import ExtMCE, ExtMCEConfig

        from tests.helpers import metered

        disk = self._graph(tmp_path)
        for run in range(2):
            with metered() as registry:
                config = ExtMCEConfig(workdir=tmp_path / f"w{run}")
                list(ExtMCE(disk, config).enumerate_cliques())
            assert counter_value(
                registry.snapshot(), "repro_mce_cliques_emitted_total"
            ) == 2


class TestRendering:
    def test_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "counts things", labels={"k": "v"}).inc(2)
        registry.histogram("h", "sizes", buckets=(1, 2)).observe(2)
        text = render_prometheus(registry.snapshot())
        assert "# HELP c_total counts things" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{k="v"} 2' in text
        # Cumulative buckets plus the +Inf terminator, sum and count.
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 2" in text
        assert "h_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"p": 'a"b\\c'}).inc()
        text = render_prometheus(registry.snapshot())
        assert 'c_total{p="a\\"b\\\\c"} 1' in text

    def test_table_mentions_every_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(9)
        registry.gauge("g").set(4)
        registry.histogram("h").observe(1)
        table = render_metrics_table(registry.snapshot())
        for needle in ("c_total", "g", "h", "9", "high water"):
            assert needle in table
