"""Shared-memory parallel enumeration engine for ExtMCE.

The subsystem follows the decomposition recipe of *Shared-Memory
Parallel Maximal Clique Enumeration* (Das, Sanei-Mehri & Tirthapura,
arXiv:1807.09417), adapted to the paper's step-wise H*-graph recursion:

* :mod:`repro.parallel.costmodel` — decides, per step and phase,
  whether fanning out would finish sooner than running inline, and into
  how many chunks, from this process's own measured rates;
* :mod:`repro.parallel.partition` — splits each step's work into
  per-vertex clique-tree subproblems and partition-aligned lifting
  batches;
* :mod:`repro.parallel.shm` — publishes each step's core-graph CSR
  through one named shared-memory segment that workers attach
  zero-copy (with crash-leftover sweeping);
* :mod:`repro.parallel.scheduler` — :class:`ParallelEngine`, the
  run-scoped owner of the persistent worker pool and the published
  segment;
* :mod:`repro.parallel.executor` — runs descriptor-addressed chunks on
  the engine's pool, each to completion on the worker that took it,
  with results and worker telemetry carried in each chunk's result
  envelope, and chunk-granular fault recovery (bounded retry, pool
  rebuild after worker death, inline degradation);
* :mod:`repro.parallel.merge` — reassembles worker results into the
  exact stream the serial driver would produce (worker-count- and
  schedule-invariant by construction);
* :mod:`repro.parallel.driver` — :class:`ParallelExtMCE`, the drop-in
  driver wrapper wired to ``ExtMCEConfig.workers``.

Quick start::

    from repro import DiskGraph, ExtMCEConfig
    from repro.parallel import ParallelExtMCE

    algo = ParallelExtMCE(DiskGraph.open("graph.bin"),
                          ExtMCEConfig(workers=4))
    for clique in algo.enumerate_cliques():
        ...
"""

from repro.parallel.costmodel import COST_MODEL, CostModel, PhaseRates, Plan, plan_phase
from repro.parallel.driver import ParallelExtMCE
from repro.parallel.executor import StepExecutor
from repro.parallel.merge import merge_lift_results, merge_tree_results
from repro.parallel.partition import (
    LiftChunk,
    LiftTask,
    TreeTask,
    chunk_lift_tasks,
    chunk_tree_tasks,
    lift_tasks,
    serialize_star,
    tree_tasks,
)
from repro.parallel.scheduler import ParallelEngine
from repro.parallel.shm import sweep_stale_segments

__all__ = [
    "COST_MODEL",
    "CostModel",
    "LiftChunk",
    "LiftTask",
    "ParallelEngine",
    "ParallelExtMCE",
    "PhaseRates",
    "Plan",
    "StepExecutor",
    "TreeTask",
    "chunk_lift_tasks",
    "chunk_tree_tasks",
    "lift_tasks",
    "merge_lift_results",
    "merge_tree_results",
    "plan_phase",
    "serialize_star",
    "sweep_stale_segments",
    "tree_tasks",
]
