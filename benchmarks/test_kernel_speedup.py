"""Bitset kernel speedup: big-int bitmask hot path vs set-based Tomita.

Times full maximal-clique enumeration over the 4000-vertex benchmark
graphs with ``kernel="set"`` and ``kernel="bitset"`` (bitset timings
*include* the CSR/bitmask conversion), asserts the two clique streams
are identical element-for-element, and writes ``BENCH_kernel.json`` in
the common benchmark envelope ``{bench, schema, host{cpus, python,
platform}, git_sha, headline, runs}``.

Three graphs spanning the regimes documented in docs/ALGORITHMS.md:

* ``community`` — defective-clique communities, the headline row: large
  candidate sets keep the enumeration inside wide big-int AND/OR ops,
  where the kernel wins by >3x.
* ``powerlaw m=16`` — a denser scale-free graph, moderate win.
* ``powerlaw m=5`` — the sparse scaling graph, where both paths are
  interpreter-bound and the win is small; recorded for honesty.
"""

import json
import time

from repro.analysis.tables import render_table
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.generators.communities import defective_clique_communities
from repro.generators.scale_free import powerlaw_cluster_graph

try:  # pytest collection from the repository root
    from benchmarks.common import ROOT, git_sha, host_shape
except ImportError:  # executed directly: benchmarks/ itself is sys.path[0]
    from common import ROOT, git_sha, host_shape

NUM_VERTICES = 4_000

GRAPHS = [
    (
        "community",
        lambda: defective_clique_communities(NUM_VERTICES, seed=99),
    ),
    (
        "powerlaw m=16",
        lambda: powerlaw_cluster_graph(NUM_VERTICES, 16, 0.5, seed=99),
    ),
    (
        "powerlaw m=5",
        lambda: powerlaw_cluster_graph(NUM_VERTICES, 5, 0.7, seed=99),
    ),
]

#: The committed acceptance bar for the headline (community) row.
HEADLINE_SPEEDUP = 3.0


def _time_enumeration(graph, kernel):
    started = time.perf_counter()
    stream = list(tomita_maximal_cliques(graph, kernel=kernel))
    return time.perf_counter() - started, stream


def _run_one(name, make_graph):
    graph = make_graph()
    set_seconds, set_stream = _time_enumeration(graph, "set")
    bitset_seconds, bitset_stream = _time_enumeration(graph, "bitset")
    assert bitset_stream == set_stream, (
        f"{name}: bitset stream diverged from the set stream"
    )
    return {
        "graph": name,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "cliques": len(set_stream),
        "set_seconds": set_seconds,
        "bitset_seconds": bitset_seconds,
        "speedup": set_seconds / bitset_seconds if bitset_seconds else float("inf"),
    }


def test_kernel_speedup_sweep(benchmark, save_result):
    results = benchmark.pedantic(
        lambda: [_run_one(name, make) for name, make in GRAPHS],
        rounds=1,
        iterations=1,
    )

    save_result(
        "kernel_speedup",
        render_table(
            f"Bitset kernel speedup (n={NUM_VERTICES}, identical streams "
            "asserted; bitset timings include conversion)",
            ["graph", "edges", "cliques", "set s", "bitset s", "speedup"],
            [
                (
                    r["graph"],
                    r["edges"],
                    r["cliques"],
                    f"{r['set_seconds']:.2f}",
                    f"{r['bitset_seconds']:.2f}",
                    f"{r['speedup']:.2f}x",
                )
                for r in results
            ],
        ),
    )
    summary = {
        "bench": "kernel_speedup",
        "schema": 1,
        "host": host_shape(),
        "git_sha": git_sha(),
        "headline": {
            "graph": results[0]["graph"],
            "speedup": results[0]["speedup"],
        },
        "num_vertices": NUM_VERTICES,
        "stream_identical": True,
        "runs": results,
    }
    (ROOT / "BENCH_kernel.json").write_text(json.dumps(summary, indent=2) + "\n")

    # Sparse rows sit at interpreter-bound parity (~1x), so they only
    # guard against a pathological regression; the dense-community
    # headline graph must clear the committed 3x bar.
    for r in results:
        assert r["speedup"] > 0.8, f"{r['graph']}: bitset regressed vs set"
    assert results[0]["speedup"] > HEADLINE_SPEEDUP, (
        f"headline speedup {results[0]['speedup']:.2f}x below "
        f"{HEADLINE_SPEEDUP}x on {results[0]['graph']}"
    )
