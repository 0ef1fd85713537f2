"""Benchmark-suite fixtures.

Every benchmark regenerates one of the paper's tables or figures.  Besides
timing (pytest-benchmark), each bench writes the rendered paper-style
table to ``benchmarks/results/`` so the numbers quoted in EXPERIMENTS.md
can be reproduced with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

try:  # pytest collection from the repository root
    from benchmarks.common import host_shape
except ImportError:  # benchmarks/ itself is on sys.path
    from common import host_shape

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Write a rendered table, with the host shape under it, to
    benchmarks/results/ and echo it."""

    def _save(name: str, text: str) -> None:
        host = host_shape()
        text += (
            f"\nhost: {host['cpus']} CPUs, Python {host['python']}, "
            f"{host['platform']}"
        )
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _save
