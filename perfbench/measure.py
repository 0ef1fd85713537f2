"""Shared measurement helpers: percentiles, memory, metric snapshots, host."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
from statistics import median

from repro import metrics


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark at its
    current size (Linux ``clear_refs``; elsewhere the peak stays whole)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory, MiB: this process's since
    :func:`reset_peak_rss`, plus the largest reaped child's (forked
    workers count the parent pages they touched)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            own = next(int(line.split()[1]) for line in status
                       if line.startswith("VmHWM:"))
    except (OSError, StopIteration, ValueError):
        pass
    return (own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def median_layers(runs: list[dict]) -> dict:
    """Per-metric medians over traced runs.  Medians of the ``share.*``
    need not sum to one, so they are rescaled to: the attribution of a
    median run.  ``trace.unattributed_frac`` stays ``share.other``."""
    values = {name: median([run[name] for run in runs]) for name in runs[0]}
    shares = [name for name in values if name.startswith("share.")]
    total = sum(values[name] for name in shares)
    for name in shares:
        values[name] = ratio(values[name], total)
    values["trace.unattributed_frac"] = values["share.other"]
    return values


class Snapshot:
    """Read-side view of one ``repro.metrics`` snapshot."""

    def __init__(self, snapshot: dict) -> None:
        self._entries = snapshot["metrics"]

    def counter(self, name: str) -> float:
        return sum(
            entry["value"] for entry in self._entries
            if entry["name"] == name and entry["type"] == "counter"
        )

    def high_water(self, name: str) -> float:
        return max(
            (entry["high_water"] for entry in self._entries
             if entry["name"] == name and entry["type"] == "gauge"),
            default=0,
        )

    def histogram_sum(self, name: str) -> float:
        return sum(
            entry["sum"] for entry in self._entries
            if entry["name"] == name and entry["type"] == "histogram"
        )


def fresh_registry() -> metrics.MetricsRegistry:
    """Enable a new, empty process-wide metrics registry."""
    return metrics.enable(metrics.MetricsRegistry())


def host_context() -> dict:
    """Host shape and source revision recorded with every result."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None  # a benchmark checkout need not be a git repository
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_sha": sha,
    }
