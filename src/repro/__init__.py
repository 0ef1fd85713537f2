"""repro — Finding Maximal Cliques in Massive Networks by H*-graph.

A from-scratch reproduction of Cheng, Ke, Fu, Yu & Zhu (SIGMOD 2010):
**ExtMCE**, the first external-memory maximal clique enumeration (MCE)
algorithm, built around the *H\\*-graph* — the h-index core of a scale-free
network plus every edge touching it.

Quick start::

    from repro import AdjacencyGraph, DiskGraph, ExtMCE, ExtMCEConfig

    graph = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    disk = DiskGraph.create("graph.bin", graph)
    for clique in ExtMCE(disk).enumerate_cliques():
        print(sorted(clique))

Package layout:

* :mod:`repro.core` — the paper's contribution (H*-graph, ``T_H*``,
  Algorithms 1-3, the Knuth tree-size estimator).
* :mod:`repro.storage` — the external-memory substrate (metered disk
  graphs, spill partitions, the explicit memory model).
* :mod:`repro.baselines` — the in-memory (Tomita 2006) and streaming
  (Stix 2004) comparators plus extra oracles.
* :mod:`repro.parallel` — the shared-memory parallel enumeration engine
  (per-vertex search-tree decomposition on a worker pool, Das et al.
  2018 composed with the H*-graph recursion).
* :mod:`repro.dynamic` — Section 5's incremental maintenance of the
  H*-max-clique tree under edge updates.
* :mod:`repro.live` — continuously maintained serving: edge streams
  become durable clique deltas (WAL), folded by background compaction
  and overlaid on the query index in real time.
* :mod:`repro.generators` — deterministic scale-free workload generators
  standing in for the paper's proprietary datasets.
* :mod:`repro.analysis` — network statistics and table rendering.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from repro.applications import (
    k_clique_communities,
    maximal_independent_sets,
    maximum_clique,
    top_k_cliques,
)
from repro.baselines import (
    StixDynamicMCE,
    bron_kerbosch_maximal_cliques,
    degeneracy_maximal_cliques,
    tomita_maximal_cliques,
)
from repro.core import (
    CliqueCollector,
    CliqueCounter,
    CliqueFileSink,
    CliqueTree,
    ExtMCE,
    ExtMCEConfig,
    ExtMCEReport,
    StarGraph,
    build_clique_tree,
    compute_h_index_reference,
    enumerate_star_cliques,
    estimate_tree_size,
    extract_hstar_graph,
    extract_lstar_graph,
)
from repro.errors import (
    CorruptDataError,
    EdgeNotFoundError,
    EstimationError,
    GraphError,
    InjectedFaultError,
    MemoryBudgetExceeded,
    QueryTimeoutError,
    ReductionError,
    ReproError,
    ServiceError,
    ServiceProtocolError,
    StorageError,
    StorageFormatError,
    StorageIOError,
    VertexNotFoundError,
)
from repro.dynamic import HStarMaintainer
from repro.faults import FaultPlan, FaultRule
from repro.graph import AdjacencyGraph
from repro.index import CliqueIndex, CliqueIndexSink, IndexBuildReport, build_index
from repro.live import (
    CliqueDelta,
    LiveCliqueStore,
    LiveIngestor,
    SubscriptionEvent,
    bootstrap_live_store,
)
from repro.metrics import MetricsRegistry
from repro.kernel import (
    CompactGraph,
    maximal_cliques_bitset,
    subproblem_bitset,
)
from repro.storage import (
    BufferPool,
    DiskGraph,
    IOStats,
    MemoryModel,
    RandomAccessDiskGraph,
    edge_list_file_to_disk_graph,
    edge_list_to_disk_graph,
)
from repro.parallel import ParallelExtMCE
from repro.reduce import Reduction, ReductionMap, reduce_graph
from repro.service import (
    CliqueQueryClient,
    CliqueQueryEngine,
    CliqueQueryServer,
)
from repro.telemetry import TraceWriter, load_trace, summarize_trace
from repro.verification import VerificationReport, verify_clique_set

__version__ = "1.0.0"

__all__ = [
    "AdjacencyGraph",
    "BufferPool",
    "CliqueCollector",
    "CliqueCounter",
    "CliqueDelta",
    "CliqueFileSink",
    "CliqueIndex",
    "CliqueIndexSink",
    "CliqueQueryClient",
    "CliqueQueryEngine",
    "CliqueQueryServer",
    "CliqueTree",
    "CompactGraph",
    "CorruptDataError",
    "DiskGraph",
    "EdgeNotFoundError",
    "EstimationError",
    "ExtMCE",
    "ExtMCEConfig",
    "ExtMCEReport",
    "FaultPlan",
    "FaultRule",
    "GraphError",
    "HStarMaintainer",
    "IOStats",
    "IndexBuildReport",
    "InjectedFaultError",
    "LiveCliqueStore",
    "LiveIngestor",
    "MemoryBudgetExceeded",
    "MemoryModel",
    "MetricsRegistry",
    "ParallelExtMCE",
    "QueryTimeoutError",
    "RandomAccessDiskGraph",
    "Reduction",
    "ReductionError",
    "ReductionMap",
    "ReproError",
    "ServiceError",
    "ServiceProtocolError",
    "StarGraph",
    "StixDynamicMCE",
    "StorageError",
    "StorageFormatError",
    "StorageIOError",
    "SubscriptionEvent",
    "TraceWriter",
    "VerificationReport",
    "VertexNotFoundError",
    "__version__",
    "bootstrap_live_store",
    "bron_kerbosch_maximal_cliques",
    "build_clique_tree",
    "build_index",
    "compute_h_index_reference",
    "degeneracy_maximal_cliques",
    "edge_list_file_to_disk_graph",
    "edge_list_to_disk_graph",
    "enumerate_star_cliques",
    "estimate_tree_size",
    "extract_hstar_graph",
    "extract_lstar_graph",
    "k_clique_communities",
    "load_trace",
    "maximal_cliques_bitset",
    "maximal_independent_sets",
    "maximum_clique",
    "reduce_graph",
    "subproblem_bitset",
    "summarize_trace",
    "tomita_maximal_cliques",
    "top_k_cliques",
    "verify_clique_set",
]
