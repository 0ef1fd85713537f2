"""Helpers shared across the benchmark sweeps and smoke scripts.

The scaling sweeps and the live/index smoke benchmarks previously each
carried private copies of the same three helpers (latency quantiles, the
powerlaw workload graph, the randomized edge-event stream); they live
here once so a tweak to one workload cannot silently diverge from the
others.

Importable both ways: as ``benchmarks.common`` when pytest collects the
sweeps from the repository root, and as plain ``common`` when a smoke
script is executed directly (``python benchmarks/bench_live_updates.py``
puts ``benchmarks/`` itself on ``sys.path``).
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import subprocess
from pathlib import Path

from repro.generators.scale_free import powerlaw_cluster_graph

ROOT = Path(__file__).resolve().parent.parent


def git_sha() -> str | None:
    """The checked-out commit, suffixed ``-dirty`` when tracked files differ
    from it; ``None`` outside a git checkout."""

    def git(*args: str) -> str:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
        return completed.stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        changes = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{sha}-dirty" if changes else sha


def host_shape() -> dict:
    """The ``host`` block of the ``BENCH_*.json`` envelope."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def scaling_graph(n: int, m: int = 5, p: float = 0.7, seed: int = 99):
    """The standard powerlaw-cluster workload used by the scaling sweeps."""
    return powerlaw_cluster_graph(n, m, p, seed=seed)


def quantiles(samples: list[float], include_count: bool = False) -> dict[str, float]:
    """p50/p95/mean of a latency sample list, reported in microseconds."""
    ordered = sorted(samples)
    summary = {
        "p50_us": statistics.median(ordered) * 1e6,
        "p95_us": ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))] * 1e6,
        "mean_us": statistics.fmean(ordered) * 1e6,
    }
    if include_count:
        summary = {"samples": len(ordered), **summary}
    return summary


def random_edge_stream(
    num_vertices: int,
    num_events: int,
    delete_share: float,
    rng: random.Random,
) -> list[tuple]:
    """Randomized insert/delete edge events in the live-ingest wire format."""
    edges: set[tuple[int, int]] = set()
    events: list[tuple] = []
    ts = 0
    while len(events) < num_events:
        if edges and rng.random() < delete_share:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            events.append((ts, "delete", u, v))
        else:
            u, v = rng.sample(range(num_vertices), 2)
            u, v = min(u, v), max(u, v)
            if (u, v) in edges:
                continue
            edges.add((u, v))
            events.append((ts, u, v))
        ts += 1
    return events
