"""What a compaction fold costs: its tail, not the base; one WAL handle."""

import builtins
import os
import random

import pytest

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.dynamic.maintainer import HStarMaintainer
from repro.errors import CorruptDataError
from repro.generators.scale_free import powerlaw_cluster_graph
from repro.index import builder
from repro.index.format import RECORDS_FILENAME
from repro.live import store as live_store
from repro.live.deltas import ADD, CliqueDelta
from repro.live.ingest import LiveIngestor
from repro.live.store import LiveCliqueStore
from repro.live.wal import DeltaLogWriter, replay_delta_log


def canonical(graph):
    return sorted(tuple(sorted(c)) for c in set(tomita_maximal_cliques(graph)))


def toggle_edges(ingestor, graph, rng, count):
    vertices = sorted(graph.vertices())
    for _ in range(count):
        u, v = rng.sample(vertices, 2)
        if ingestor.maintainer.graph.has_edge(u, v):
            ingestor.delete_edge(u, v)
        else:
            ingestor.insert_edge(u, v)


class TestFoldCost:
    @pytest.mark.parametrize("seed", range(3))
    def test_fold_encodes_only_its_tail(self, tmp_path, monkeypatch, seed):
        """A fold of k deltas into n base cliques encodes at most k records."""
        graph = powerlaw_cluster_graph(300, 3, 0.6, seed=seed)
        store = LiveCliqueStore.initialize(tmp_path / "live", canonical(graph))
        try:
            ingestor = LiveIngestor(HStarMaintainer(graph), store)
            rng = random.Random(seed)
            encoded = []
            real_encode = builder.encode_clique_record
            monkeypatch.setattr(
                builder, "encode_clique_record",
                lambda vertices: encoded.append(vertices) or real_encode(vertices),
            )
            # Count the merge itself, not the byte-identity check around it.
            monkeypatch.setattr(live_store, "merge_index", builder.merge_index)
            for _round in range(3):
                toggle_edges(ingestor, graph, rng, 15)
                tail = store.tail_length
                assert tail and store.num_cliques > 10 * tail
                encoded.clear()
                assert store.compact() is not None
                assert 0 < len(encoded) <= tail
                assert store.live_cliques() == set(canonical(ingestor.maintainer.graph))
            store.verify()
        finally:
            store.close()


class TestCorruptBase:
    def test_corrupt_base_record_fails_the_fold_and_keeps_serving(
        self, tmp_path, live_metrics
    ):
        directory = tmp_path / "live"
        graph = powerlaw_cluster_graph(120, 3, 0.6, seed=4)
        store = LiveCliqueStore.initialize(directory, canonical(graph))
        ingestor = LiveIngestor(HStarMaintainer(graph), store)
        toggle_edges(ingestor, graph, random.Random(4), 10)
        expected = store.live_cliques()
        tail = store.tail_length
        generation = store.generation
        postings = store.postings(0)
        # Flip the CRC of a base record the fold has to copy.
        survivor = next(
            cid for cid in range(store._base.num_cliques)
            if cid not in store._tombstones
        )
        offset, length, _size = store._base._offset_entry(survivor)
        records = directory / generation / RECORDS_FILENAME
        original = records.read_bytes()
        damaged = bytearray(original)
        damaged[offset + length - 1] ^= 0x10
        records.write_bytes(bytes(damaged))

        with pytest.raises(CorruptDataError):
            store.compact()
        assert metrics.counter_value(
            live_metrics.snapshot(), "repro_live_compaction_failures_total"
        ) == 1
        assert store.generation == generation
        assert store.tail_length == tail
        assert store.postings(0) == postings
        store.close()

        records.write_bytes(original)
        with LiveCliqueStore.open(directory) as reopened:
            assert reopened.generation == generation
            assert reopened.tail_length == tail
            assert reopened.live_cliques() == expected
            assert reopened.compact() is not None
            assert reopened.live_cliques() == expected
            reopened.verify()


class TestWalHandle:
    def test_hundred_appends_open_the_log_once(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.log"
        opened = []
        real_open, real_os_open = builtins.open, os.open

        def counting_open(file, *args, **kwargs):
            if os.fspath(file) == os.fspath(path):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        def counting_os_open(file, *args, **kwargs):
            if os.fspath(file) == os.fspath(path):
                opened.append(file)
            return real_os_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        writer = DeltaLogWriter.create(path)
        deltas = [CliqueDelta(ADD, (i, i + 1), seq=i + 1) for i in range(100)]
        for delta in deltas:
            writer.append([delta])
        writer.sync()
        assert len(opened) == 1
        assert writer.size_bytes() == path.stat().st_size
        writer.close()
        monkeypatch.undo()
        assert list(replay_delta_log(path)) == deltas

    def test_store_closes_its_wal_on_rotation_and_close(self, tmp_path):
        store = LiveCliqueStore.initialize(tmp_path / "live", [(0, 1), (1, 2)])
        first = store._wal
        store.apply_deltas([CliqueDelta(ADD, (5, 6))])
        assert store.compact() == "gen-000001"
        assert first._appender._handle is None
        second = store._wal
        store.apply_deltas([CliqueDelta(ADD, (7, 8))])
        assert second._appender._handle is not None
        store.close()
        assert second._appender._handle is None
