"""repro.kernel — compact CSR + big-int bitmask enumeration kernel.

The performance core of the repository: a dense-renumbered graph
representation (:class:`CompactGraph`) and a bitmask rewrite of the
pivoted Tomita expansion (:func:`maximal_cliques_bitset`,
:func:`subproblem_bitset`) whose clique stream is byte-identical to the
set-based enumerators in :mod:`repro.baselines.bron_kerbosch`.

It is the only kernel ExtMCE runs: tree construction, the parallel
workers and the ``maxCL(G[S])`` resolver all use it.  The set-based
Tomita enumerator in :mod:`repro.baselines` selects it with
``kernel="bitset"``; ``KERNELS`` and :func:`validate_kernel` name the
two choices that baseline offers.  See ``docs/ALGORITHMS.md`` for the
representation and the determinism argument.
"""

from repro.kernel.bitmce import (
    induced_maximal_cliques,
    iter_bits,
    maximal_cliques_bitset,
    subproblem_bitset,
)
from repro.kernel.compact import CompactGraph

KERNELS = ("set", "bitset")


def validate_kernel(kernel: str) -> str:
    """Return ``kernel`` if it names a known enumeration kernel."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
    return kernel


__all__ = [
    "KERNELS",
    "CompactGraph",
    "induced_maximal_cliques",
    "iter_bits",
    "maximal_cliques_bitset",
    "subproblem_bitset",
    "validate_kernel",
]
