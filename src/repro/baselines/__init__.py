"""In-memory MCE baselines the paper compares against.

* :func:`tomita_maximal_cliques` — the pivoting backtracking algorithm of
  Tomita et al. (2006), the paper's state-of-the-art ``in-mem`` comparator
  (reference [27]).
* :class:`StixDynamicMCE` — the incremental algorithm of Stix (2004), the
  paper's ``streaming`` comparator (reference [26]).
* :func:`bron_kerbosch_maximal_cliques` — the classic unpivoted algorithm
  (reference [7]); used as an independent correctness oracle in tests.
* :func:`degeneracy_maximal_cliques` — Eppstein-Strash degeneracy-ordered
  enumeration, included for the ordering ablation bench.
"""

from repro.baselines.bron_kerbosch import (
    bron_kerbosch_maximal_cliques,
    tomita_maximal_cliques,
    tomita_subproblem,
)
from repro.baselines.degeneracy import degeneracy_maximal_cliques
from repro.baselines.ondisk import tomita_maximal_cliques_on_disk
from repro.baselines.stix import StixDynamicMCE

__all__ = [
    "StixDynamicMCE",
    "bron_kerbosch_maximal_cliques",
    "degeneracy_maximal_cliques",
    "tomita_maximal_cliques",
    "tomita_maximal_cliques_on_disk",
    "tomita_subproblem",
]
