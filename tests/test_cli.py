"""Tests for the repro-mce command-line interface."""

import pytest

from repro.cli import main
from repro.storage.diskgraph import DiskGraph
from repro.storage.edgelist import write_edge_list, write_timestamped_edge_list

from tests.helpers import seeded_gnp


@pytest.fixture
def small_disk(tmp_path):
    g = seeded_gnp(20, 0.3, seed=4)
    return DiskGraph.create(tmp_path / "g.bin", g)


class TestConvert:
    def test_converts_edge_list(self, tmp_path, capsys):
        text = tmp_path / "edges.txt"
        write_edge_list(text, [(0, 1), (1, 2), (0, 2)])
        out = tmp_path / "g.bin"
        assert main(["convert", str(text), str(out)]) == 0
        assert "3 vertices, 3 edges" in capsys.readouterr().out
        assert DiskGraph.open(out).num_edges == 3

    def test_self_loop_reports_error(self, tmp_path, capsys):
        text = tmp_path / "edges.txt"
        text.write_text("1 1\n")
        assert main(["convert", str(text), str(tmp_path / "g.bin")]) == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_reports_hstar_summary(self, small_disk, capsys):
        assert main(["stats", str(small_disk.path)]) == 0
        out = capsys.readouterr().out
        assert "h-index" in out
        assert "|G_H*|" in out

    def test_accepts_text_edge_list(self, tmp_path, capsys):
        text = tmp_path / "edges.txt"
        write_edge_list(text, [(0, 1), (1, 2), (0, 2)])
        assert main(["stats", str(text)]) == 0
        assert "vertices (n)" in capsys.readouterr().out


class TestEnumerate:
    def test_counts_match_oracle(self, small_disk, tmp_path, capsys):
        from repro.baselines.bron_kerbosch import tomita_maximal_cliques

        out = tmp_path / "cliques.txt"
        assert main(["enumerate", str(small_disk.path), "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        oracle = set(tomita_maximal_cliques(small_disk.to_adjacency_graph()))
        assert f"maximal cliques : {len(oracle)}" in stdout
        written = {
            frozenset(int(x) for x in line.split())
            for line in out.read_text().splitlines()
        }
        assert written == oracle

    def test_min_size_filter(self, small_disk, capsys):
        assert main(["enumerate", str(small_disk.path), "--min-size", "3"]) == 0
        assert "size >= 3" in capsys.readouterr().out

    def test_budget_flag(self, small_disk, capsys):
        assert main(["enumerate", str(small_disk.path), "--budget", "5000"]) == 0
        assert "peak memory" in capsys.readouterr().out

    def test_workers_flag_matches_serial_output(self, small_disk, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        base = ["enumerate", str(small_disk.path), "--canonical"]
        assert main(base + ["-o", str(serial)]) == 0
        assert main(base + ["-o", str(parallel), "--workers", "2"]) == 0
        assert "workers         : 2" in capsys.readouterr().out
        assert parallel.read_bytes() == serial.read_bytes()


class TestGenerate:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "protein.txt"
        assert main(["generate", "protein", str(out)]) == 0
        assert "protein stand-in" in capsys.readouterr().out
        assert out.stat().st_size > 0

    def test_unknown_dataset_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", str(tmp_path / "x.txt")])


class TestMaintain:
    def test_replays_stream(self, small_disk, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        write_timestamped_edge_list(stream, [(0, 0, 19), (1, 1, 18), (2, 2, 17)])
        assert main(["maintain", str(small_disk.path), str(stream)]) == 0
        out = capsys.readouterr().out
        assert "applied" in out
        assert "core cliques maintained" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_experiments_rejects_unknown_name(self, capsys):
        assert main(["experiments", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestTraceFlag:
    def test_trace_written_and_summarised(self, small_disk, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["enumerate", str(small_disk.path), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert trace.exists()

    def test_checkpoint_dir_flag(self, small_disk, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(
            ["enumerate", str(small_disk.path), "--checkpoint-dir", str(ckpt)]
        ) == 0
        # completed run clears its checkpoint
        assert not (ckpt / "checkpoint.json").exists()

    def test_resume_requires_checkpoint_dir(self, small_disk, capsys):
        assert main(["enumerate", str(small_disk.path), "--resume"]) == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err


class TestMetricsFlag:
    def test_metrics_out_writes_json_and_prom(self, small_disk, tmp_path, capsys):
        from repro import metrics

        out = tmp_path / "metrics.json"
        try:
            assert main(
                ["enumerate", str(small_disk.path), "--metrics-out", str(out)]
            ) == 0
        finally:
            metrics.disable()
        stdout = capsys.readouterr().out
        assert "metrics written" in stdout
        snapshot = metrics.load_snapshot(out)
        emitted = metrics.counter_value(snapshot, "repro_mce_cliques_emitted_total")
        assert emitted > 0
        assert f"maximal cliques : {int(emitted)}" in stdout
        prom = out.with_name(out.name + ".prom").read_text()
        assert "# TYPE repro_mce_cliques_emitted_total counter" in prom

    def test_stats_renders_metrics_snapshot(self, small_disk, tmp_path, capsys):
        from repro import metrics

        out = tmp_path / "metrics.json"
        try:
            assert main(
                ["enumerate", str(small_disk.path), "--metrics-out", str(out)]
            ) == 0
        finally:
            metrics.disable()
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        table = capsys.readouterr().out
        assert "Metrics snapshot" in table
        assert "repro_mce_steps_total" in table

    def test_stats_non_snapshot_json_falls_through(self, tmp_path, capsys):
        bogus = tmp_path / "not_metrics.json"
        bogus.write_text('{"schema": "something/else"}')
        # Not a snapshot and not a graph either: the graph path reports
        # a normal CLI error, proving the sniffing fell through.
        assert main(["stats", str(bogus)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_metrics_out_with_index_out_writes_one_whole_snapshot(
        self, small_disk, tmp_path, capsys, monkeypatch
    ):
        from repro import metrics

        writes = []
        write = metrics.write_exposition_files

        def counting_write(snapshot, path):
            writes.append(path)
            return write(snapshot, path)

        monkeypatch.setattr(metrics, "write_exposition_files", counting_write)
        before = metrics.get_registry()
        # Twice in one process: the second snapshot counts only its own run.
        for run in range(2):
            out = tmp_path / f"metrics_{run}.json"
            assert main(
                [
                    "enumerate", str(small_disk.path),
                    "--index-out", str(tmp_path / f"idx_{run}"),
                    "--metrics-out", str(out),
                ]
            ) == 0
            stdout = capsys.readouterr().out
            assert writes == [out]
            writes.clear()
            snapshot = metrics.load_snapshot(out)
            emitted = metrics.counter_value(
                snapshot, "repro_mce_cliques_emitted_total"
            )
            assert f"maximal cliques : {int(emitted)}" in stdout
            assert metrics.counter_value(
                snapshot, "repro_index_build_cliques_total"
            ) == emitted > 0
            assert metrics.get_registry() is before

    def test_metrics_out_survives_a_failing_run(self, small_disk, tmp_path, capsys):
        import json

        from repro import metrics

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 1,
            "rules": [{"operation": "scan", "kind": "io_error", "max_firings": None}],
        }))
        out = tmp_path / "metrics.json"
        assert main(
            [
                "enumerate", str(small_disk.path), "--fault-plan", str(plan),
                "--metrics-out", str(out),
            ]
        ) == 1
        assert "error:" in capsys.readouterr().err
        snapshot = metrics.load_snapshot(out)
        assert metrics.counter_value(snapshot, "repro_mce_cliques_emitted_total") == 0
        assert not metrics.enabled()

    def test_no_metrics_flag_leaves_registry_disabled(self, small_disk):
        from repro import metrics

        assert main(["enumerate", str(small_disk.path)]) == 0
        assert not metrics.enabled()


class TestVerify:
    def test_good_output_passes(self, small_disk, tmp_path, capsys):
        out = tmp_path / "cliques.txt"
        main(["enumerate", str(small_disk.path), "-o", str(out)])
        capsys.readouterr()
        assert main(["verify", str(small_disk.path), str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_tampered_output_fails(self, small_disk, tmp_path, capsys):
        out = tmp_path / "cliques.txt"
        main(["enumerate", str(small_disk.path), "-o", str(out)])
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[1:]) + "\n")  # drop one clique
        capsys.readouterr()
        assert main(["verify", str(small_disk.path), str(out)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_soundness_only_ignores_missing(self, small_disk, tmp_path, capsys):
        out = tmp_path / "cliques.txt"
        main(["enumerate", str(small_disk.path), "-o", str(out)])
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[1:]) + "\n")
        capsys.readouterr()
        assert main(
            ["verify", str(small_disk.path), str(out), "--soundness-only"]
        ) == 0


class TestIndexOut:
    def test_index_out_builds_queryable_index(self, small_disk, tmp_path, capsys):
        from repro.baselines.bron_kerbosch import tomita_maximal_cliques
        from repro.index import CliqueIndex

        directory = tmp_path / "idx"
        assert main(
            ["enumerate", str(small_disk.path), "--index-out", str(directory)]
        ) == 0
        assert "index written" in capsys.readouterr().out
        oracle = sorted(
            tuple(sorted(c))
            for c in set(tomita_maximal_cliques(small_disk.to_adjacency_graph()))
        )
        with CliqueIndex(directory) as index:
            assert index.num_cliques == len(oracle)
            assert list(index.scan_cliques()) == list(enumerate(oracle))

    def test_index_out_worker_count_does_not_change_bytes(
        self, small_disk, tmp_path, capsys
    ):
        names = (
            "cliques.dat", "cliques.idx", "cliques.fp", "cliques.sz", "postings.dat",
            "postings.dir",
        )
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        base = ["enumerate", str(small_disk.path)]
        assert main(base + ["--index-out", str(serial)]) == 0
        assert main(base + ["--index-out", str(parallel), "--workers", "2"]) == 0
        capsys.readouterr()
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_stats_summarises_an_index_snapshot(self, small_disk, tmp_path, capsys):
        from repro import metrics

        snapshot_path = tmp_path / "metrics.json"
        try:
            assert main(
                [
                    "enumerate", str(small_disk.path),
                    "--index-out", str(tmp_path / "idx"),
                    "--metrics-out", str(snapshot_path),
                ]
            ) == 0
        finally:
            metrics.disable()
        capsys.readouterr()
        assert main(["stats", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "Clique query service" in out
        assert "indexed cliques (builds)" in out
        assert "Metrics snapshot" in out  # the flat table still follows


class TestServe:
    def test_missing_index_reports_cli_error(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "absent")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "idx", "--port", "7777", "--cache-pages", "9",
             "--timeout", "2.5"]
        )
        assert args.command == "serve"
        assert args.port == 7777
        assert args.cache_pages == 9
        assert args.timeout == 2.5


class TestLiveCommand:
    @pytest.fixture
    def triangle_file(self, tmp_path):
        path = tmp_path / "triangle.txt"
        write_edge_list(path, [(0, 1), (1, 2), (0, 2)])
        return path

    def test_bootstrap_ingest_compact(self, triangle_file, tmp_path, capsys):
        from repro.live import LiveCliqueStore

        store_dir = tmp_path / "live"
        stream = tmp_path / "stream.txt"
        write_timestamped_edge_list(stream, [(0, 2, 3), (1, 3, 4)])
        assert main([
            "live", str(store_dir),
            "--graph", str(triangle_file), "--stream", str(stream),
        ]) == 0
        out = capsys.readouterr().out
        assert "created" in out
        assert "stream ingested : 2 edge updates (2 inserts, 0 deletes)" in out
        assert "compacted" in out
        assert "final state" in out
        with LiveCliqueStore.open(store_dir) as store:
            assert store.live_cliques() == {(0, 1, 2), (2, 3), (3, 4)}
            assert store.tail_length == 0  # folded by --compact-on-exit
            store.verify()

    def test_reopen_continues_from_prior_run(self, triangle_file, tmp_path,
                                             capsys):
        from repro.live import LiveCliqueStore

        store_dir = tmp_path / "live"
        first = tmp_path / "first.txt"
        write_timestamped_edge_list(first, [(0, 2, 3), (1, 3, 4)])
        assert main([
            "live", str(store_dir),
            "--graph", str(triangle_file), "--stream", str(first),
        ]) == 0
        # Second run reopens the store; --graph reseeds the maintainer
        # with the current graph so delta computation stays correct.
        current = tmp_path / "current.txt"
        write_edge_list(
            current, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        )
        second = tmp_path / "second.txt"
        write_timestamped_edge_list(second, [(0, 2, 4)])
        capsys.readouterr()
        assert main([
            "live", str(store_dir),
            "--graph", str(current), "--stream", str(second),
        ]) == 0
        assert "opened" in capsys.readouterr().out
        with LiveCliqueStore.open(store_dir) as store:
            assert store.live_cliques() == {(0, 1, 2), (2, 3, 4)}

    def test_mixed_stream_without_graph(self, tmp_path, capsys):
        from repro.live import LiveCliqueStore

        store_dir = tmp_path / "live"
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "# comment lines and blanks are skipped\n"
            "\n"
            "0 0 1\n"
            "1 1 2\n"
            "2 insert 0 2\n"
            "3 delete 0 2\n"
        )
        assert main(["live", str(store_dir), "--stream", str(stream),
                     "--no-compact-on-exit"]) == 0
        out = capsys.readouterr().out
        assert "3 inserts, 1 deletes" in out
        assert "compacted" not in out
        with LiveCliqueStore.open(store_dir) as store:
            assert store.live_cliques() == {(0, 1), (1, 2)}
            assert store.tail_length > 0  # tail survives --no-compact-on-exit

    def test_malformed_stream_reports_error(self, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        stream.write_text("0 merge 1 2\n")
        assert main(["live", str(tmp_path / "live"),
                     "--stream", str(stream)]) == 1
        assert "error:" in capsys.readouterr().err


class TestVerifyIndexCommand:
    def test_clean_frozen_index_passes(self, tmp_path, capsys):
        from repro.index import build_index

        build_index([frozenset({0, 1, 2}), frozenset({2, 3})],
                    tmp_path / "idx")
        assert main(["verify-index", str(tmp_path / "idx")]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "records_verified" in out

    def test_corrupt_frozen_index_fails_nonzero(self, tmp_path, capsys):
        from repro.index import build_index

        build_index([frozenset({0, 1, 2}), frozenset({2, 3})],
                    tmp_path / "idx")
        victim = tmp_path / "idx" / "cliques.dat"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(bytes(blob))
        assert main(["verify-index", str(tmp_path / "idx")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_clean_live_store_passes(self, tmp_path, capsys):
        from repro.live import LiveCliqueStore
        from repro.live.deltas import ADD, CliqueDelta

        with LiveCliqueStore.initialize(
            tmp_path / "live", [(0, 1, 2)]
        ) as store:
            store.apply_deltas([CliqueDelta(ADD, (3, 4))])
        assert main(["verify-index", str(tmp_path / "live")]) == 0
        out = capsys.readouterr().out
        assert "live store" in out
        assert "OK" in out

    def test_corrupt_live_store_fails_nonzero(self, tmp_path, capsys):
        from repro.live import LiveCliqueStore

        with LiveCliqueStore.initialize(tmp_path / "live", [(0, 1, 2)]):
            pass
        victim = tmp_path / "live" / "gen-000000" / "cliques.dat"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(bytes(blob))
        assert main(["verify-index", str(tmp_path / "live")]) == 1
        assert "error:" in capsys.readouterr().err
