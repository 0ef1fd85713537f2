"""Index construction: determinism, crash safety, the sink."""

import json

import pytest

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core.result import CliqueFileSink
from repro.errors import StorageError
from repro.index import CliqueIndex, CliqueIndexSink, build_index
from repro.index.format import MANIFEST_FILENAME, MANIFEST_SCHEMA

from tests.differential.harness import run_enumeration
from tests.helpers import seeded_gnp

INDEX_FILES = (
    "cliques.dat", "cliques.idx", "cliques.fp", "cliques.sz", "postings.dat",
    "postings.dir",
)


def _file_bytes(directory):
    return {name: (directory / name).read_bytes() for name in INDEX_FILES}


class TestDeterminism:
    def test_double_build_is_byte_identical(self, tmp_path):
        cliques = [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 5})]
        build_index(cliques, tmp_path / "a")
        build_index(cliques, tmp_path / "b")
        assert _file_bytes(tmp_path / "a") == _file_bytes(tmp_path / "b")

    def test_stream_order_does_not_matter(self, tmp_path):
        cliques = [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 5})]
        build_index(cliques, tmp_path / "fwd")
        build_index(list(reversed(cliques)), tmp_path / "rev")
        assert _file_bytes(tmp_path / "fwd") == _file_bytes(tmp_path / "rev")

    def test_duplicates_are_collapsed(self, tmp_path):
        once = [frozenset({0, 1}), frozenset({1, 2})]
        build_index(once, tmp_path / "once")
        build_index(once * 3, tmp_path / "thrice")
        assert _file_bytes(tmp_path / "once") == _file_bytes(tmp_path / "thrice")

    @pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda w: f"{w}-bitset")
    def test_kernel_workers_matrix_builds_identical_indexes(self, tmp_path, workers):
        """The acceptance matrix: the bitset engine's stream at every worker
        count produces the same index bytes as serial ExtMCE and as the
        set-based Tomita oracle, and every query matches a brute-force scan."""
        graph = seeded_gnp(48, 0.25, seed=11)
        baseline = run_enumeration(graph, tmp_path / "base", workers=1)
        build_index(baseline.stream, tmp_path / "base_idx")
        build_index(tomita_maximal_cliques(graph), tmp_path / "oracle_idx")
        assert _file_bytes(tmp_path / "oracle_idx") == _file_bytes(tmp_path / "base_idx")
        result = run_enumeration(graph, tmp_path / f"w{workers}", workers=workers)
        directory = tmp_path / f"idx_{workers}"
        build_index(result.stream, directory)
        assert _file_bytes(directory) == _file_bytes(tmp_path / "base_idx")

        canonical = sorted(tuple(sorted(c)) for c in set(result.stream))
        with CliqueIndex(directory) as index:
            assert index.num_cliques == len(canonical)
            for vertex in graph.vertices():
                expected = tuple(
                    cid for cid, c in enumerate(canonical) if vertex in c
                )
                assert index.cliques_containing(vertex) == expected

    @pytest.mark.parametrize("reduction", ["prune", "full"])
    def test_reduction_builds_identical_indexes(self, tmp_path, reduction):
        """Graph reduction must be invisible downstream: the index built
        from a reduced run's stream is byte-identical to the unreduced
        one (the builder canonicalises, so the direct-emissions-first
        ordering of reduced streams cannot leak into the files)."""
        graph = seeded_gnp(48, 0.25, seed=11)
        baseline = run_enumeration(
            graph, tmp_path / "base", workers=1, reduction="off"
        )
        build_index(baseline.stream, tmp_path / "base_idx")
        reduced = run_enumeration(
            graph, tmp_path / reduction, workers=1, reduction=reduction,
        )
        build_index(reduced.stream, tmp_path / f"idx_{reduction}")
        assert _file_bytes(tmp_path / f"idx_{reduction}") == _file_bytes(
            tmp_path / "base_idx"
        )


class TestBuildValidation:
    def test_empty_stream_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="empty"):
            build_index([], tmp_path / "idx")

    def test_report_counts(self, tmp_path):
        report = build_index(
            [frozenset({0, 1, 2}), frozenset({2, 3})], tmp_path / "idx"
        )
        assert report.num_cliques == 2
        assert report.num_vertices == 4
        assert report.max_clique_size == 3
        assert set(report.bytes_by_file) == set(INDEX_FILES) | {MANIFEST_FILENAME}
        assert report.total_bytes == sum(report.bytes_by_file.values())

    def test_manifest_contents(self, tmp_path):
        build_index([frozenset({0, 1, 2}), frozenset({2, 3})], tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / MANIFEST_FILENAME).read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["num_cliques"] == 2
        assert manifest["size_histogram"] == {"2": 1, "3": 1}
        for name in INDEX_FILES:
            assert manifest["files"][name]["bytes"] == (
                tmp_path / "idx" / name
            ).stat().st_size


class TestCrashSafety:
    def test_missing_manifest_rejected(self, tmp_path):
        """An interrupted build (manifest never committed) must not open."""
        build_index([frozenset({0, 1})], tmp_path / "idx")
        (tmp_path / "idx" / MANIFEST_FILENAME).unlink()
        with pytest.raises(StorageError, match="missing"):
            CliqueIndex(tmp_path / "idx")

    def test_wrong_schema_rejected(self, tmp_path):
        build_index([frozenset({0, 1})], tmp_path / "idx")
        path = tmp_path / "idx" / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest["schema"] = "repro.index/999"
        path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="schema"):
            CliqueIndex(tmp_path / "idx")

    def test_truncated_file_rejected_at_open(self, tmp_path):
        build_index([frozenset({0, 1, 2}), frozenset({3, 4})], tmp_path / "idx")
        data = tmp_path / "idx" / "postings.dat"
        data.write_bytes(data.read_bytes()[:-2])
        with pytest.raises(StorageError, match="bytes"):
            CliqueIndex(tmp_path / "idx")


class TestSink:
    def test_sink_builds_on_close(self, tmp_path):
        with CliqueIndexSink(tmp_path / "idx") as sink:
            sink.accept(frozenset({0, 1, 2}))
            sink.accept(frozenset({2, 3}))
        assert sink.report.num_cliques == 2
        with CliqueIndex(tmp_path / "idx") as index:
            assert index.clique(0) == (0, 1, 2)

    def test_sink_matches_direct_build(self, tmp_path):
        cliques = [frozenset({0, 1, 2}), frozenset({2, 3})]
        build_index(cliques, tmp_path / "direct")
        sink = CliqueIndexSink(tmp_path / "sunk")
        for clique in cliques:
            sink.accept(clique)
        sink.close()
        assert _file_bytes(tmp_path / "direct") == _file_bytes(tmp_path / "sunk")

    def test_sink_tees_into_clique_file(self, tmp_path):
        tee = CliqueFileSink(tmp_path / "out.txt")
        with CliqueIndexSink(tmp_path / "idx", clique_file=tee) as sink:
            sink.accept(frozenset({0, 1}))
        assert (tmp_path / "out.txt").read_text() == "0 1\n"

    def test_exception_skips_commit(self, tmp_path):
        with pytest.raises(RuntimeError):
            with CliqueIndexSink(tmp_path / "idx") as sink:
                sink.accept(frozenset({0, 1}))
                raise RuntimeError("producer died")
        assert not (tmp_path / "idx" / MANIFEST_FILENAME).exists()

    def test_exception_aborts_tee_without_committing(self, tmp_path):
        tee = CliqueFileSink(tmp_path / "out.txt")
        with pytest.raises(RuntimeError):
            with CliqueIndexSink(tmp_path / "idx", clique_file=tee) as sink:
                sink.accept(frozenset({0, 1}))
                raise RuntimeError("producer died")
        assert not (tmp_path / "out.txt").exists()
        assert not (tmp_path / "out.txt.tmp").exists()

    def test_abort_discards_buffer(self, tmp_path):
        sink = CliqueIndexSink(tmp_path / "idx")
        sink.accept(frozenset({0, 1}))
        sink.abort()
        assert not (tmp_path / "idx" / MANIFEST_FILENAME).exists()
