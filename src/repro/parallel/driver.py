"""``ParallelExtMCE``: the shared-memory parallel ExtMCE driver.

A drop-in :class:`~repro.core.extmce.ExtMCE` subclass that parallelizes
the two dominant costs of every recursion step while leaving the paper's
external-memory skeleton — and its correctness argument — untouched:

* **Clique-tree construction** (Algorithm 3, Line 6): the H*-max-clique
  enumeration is split into per-vertex root subproblems (see
  :mod:`repro.parallel.partition`) and fanned out; the driver merges the
  results deterministically and assembles ``T_H*`` in-process, charged
  to the one authoritative memory model.

* **The M1/M2/M3 lifting** (Algorithm 2, phase 2): the distinct ``HNB``
  sets are resolved by workers that read the Section-4.2.3 spill files
  directly; pages they read are folded back into the driver's I/O
  counters.

The heavy machinery is run-scoped, not step-scoped: one
:class:`~repro.parallel.scheduler.ParallelEngine` owns the persistent
worker pool and publishes each step's core graph through a shared-memory
segment (:mod:`repro.parallel.shm`), so steps pay only a segment pack
and a handful of descriptor-sized ``apply_async`` calls — not a pool
fork plus a pickled graph per worker.

Everything order-sensitive stays serial in the driver: the global
maximality hashtable (Section 4.3) is consulted and mutated only here,
on a clique stream whose order is reconstructed by the merger to match
the serial driver exactly.  Hence the headline guarantee, asserted by
the test suite: *serial ExtMCE, ``workers=1``, and ``workers=4`` produce
identical results in identical order*.

Worker telemetry needs no files: each chunk's envelope carries its
completion event and, when metrics are on, its registry snapshot, and
the step executor emits the event into the driver's trace (with a
``worker`` label) and absorbs the snapshot as it harvests the chunk.
One JSONL file tells the whole story, step by step.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from pathlib import Path

from repro.core.categories import compute_core_plus_max_cliques
from repro.core.clique_tree import assemble_clique_tree
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.hstar import StarGraph
from repro.parallel.executor import ExecutorStats, StepExecutor
from repro.parallel.merge import merge_lift_results, merge_tree_results
from repro.parallel.partition import (
    chunk_lift_tasks,
    chunk_tree_tasks,
    lift_tasks,
    tree_tasks,
)
from repro.parallel.scheduler import ParallelEngine
from repro.storage.diskgraph import DiskGraph
from repro.storage.partitions import HnbPartitionStore

Clique = frozenset


class ParallelExtMCE(ExtMCE):
    """ExtMCE with a persistent worker pool and per-step shm fan-out.

    Configure the worker count through
    :attr:`~repro.core.extmce.ExtMCEConfig.workers`; ``workers=1`` (the
    default) runs fully in-process and behaves exactly like the serial
    driver.  All other knobs, the checkpoint/resume protocol,
    sinks and reports are inherited unchanged.

    Examples
    --------
    >>> import tempfile
    >>> from repro.graph import AdjacencyGraph
    >>> from repro.storage import DiskGraph
    >>> g = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     dg = DiskGraph.create(f"{tmp}/g.bin", g)
    ...     algo = ParallelExtMCE(dg, ExtMCEConfig(workdir=tmp, workers=2))
    ...     sorted(sorted(c) for c in algo.enumerate_cliques())
    [[0, 1, 2], [2, 3]]
    """

    #: Wall-clock ceiling per submitted chunk; a dead or deadlocked
    #: worker trips this, the pool is rebuilt and only the unfinished
    #: chunks are resubmitted — the enumeration never hangs and never
    #: recomputes work that already finished.
    task_timeout_seconds: float | None = 600.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._engine: ParallelEngine | None = None
        self._executor: StepExecutor | None = None
        self.fallback_steps = 0
        #: Run-level accumulation of every step executor's recovery
        #: counters (retries, timeouts, rebuilds, inline fallbacks).
        self.executor_stats = ExecutorStats()
        #: Pickled task-descriptor bytes shipped during the most recent
        #: parallel step; the scaling bench reads this per row.  With
        #: the shm path this is metadata, not graphs — the 10×-smaller
        #: successor of the old per-worker pickled payload.
        self.last_payload_bytes = 0
        #: Shared-memory bytes backing the most recent parallel step.
        self.last_shm_bytes = 0
        #: Run totals across all parallel steps.
        self.payload_bytes_total = 0
        self.shm_bytes_total = 0
        self.tasks_split_total = 0
        self.tasks_stolen_total = 0
        #: Crash-leftover segments removed by the engine's start sweep.
        self.swept_segments: list[str] = []

    @property
    def workers(self) -> int:
        """Effective worker count (always ≥ 1)."""
        return max(1, self._config.workers)

    # ------------------------------------------------------------------
    # Engine lifecycle: one pool + one published segment per run
    # ------------------------------------------------------------------
    def _ensure_engine(self) -> ParallelEngine:
        if self._engine is None:
            self._engine = ParallelEngine(self.workers)
            self.swept_segments = self._engine.swept_segments
        return self._engine

    def _process_step(self, step, star, current, workdir, hashtable, step_start):
        if self.workers <= 1:
            yield from super()._process_step(
                step, star, current, workdir, hashtable, step_start
            )
            return
        engine = self._ensure_engine()
        pool_started = time.perf_counter()
        descriptor = engine.publish_star(star)
        with StepExecutor(
            engine,
            descriptor,
            task_timeout=self.task_timeout_seconds,
            max_retries=self._config.max_retries,
            fault_plan=self._config.fault_plan,
            on_event=self._trace.emit if self._trace is not None else None,
        ) as executor:
            self._executor = executor
            try:
                yield from super()._process_step(
                    step, star, current, workdir, hashtable, step_start
                )
            finally:
                self._executor = None
                self.executor_stats.merge(executor.stats)
                self.last_payload_bytes = executor.payload_bytes
                self.last_shm_bytes = executor.shm_bytes
                self.payload_bytes_total += executor.payload_bytes
                self.shm_bytes_total += executor.shm_bytes
                self.tasks_split_total += executor.tasks_split
                self.tasks_stolen_total += executor.tasks_stolen
                if executor.fell_back:
                    self.fallback_steps += 1
                engine.retire_segment()
                if self._trace is not None:
                    self._trace.emit(
                        "parallel_step_completed",
                        step=step,
                        workers=self.workers,
                        payload_bytes=self.last_payload_bytes,
                        shm_bytes=self.last_shm_bytes,
                        tasks_split=executor.tasks_split,
                        tasks_stolen=executor.tasks_stolen,
                        fell_back=executor.fell_back,
                        pool_elapsed=round(time.perf_counter() - pool_started, 6),
                        **executor.stats.to_dict(),
                    )

    def _drive(
        self, workdir: Path, source: DiskGraph | None = None
    ) -> Iterator[Clique]:
        # Shut the engine down inside _drive's lifetime, so the pool never
        # outlives the run.  The engine close also unlinks whatever
        # segment is still published — the orderly half of the
        # no-leaked-segments contract (the start-of-run sweep covers
        # SIGKILL).
        try:
            yield from super()._drive(workdir, source=source)
        finally:
            if self._engine is not None:
                self._engine.close()
                self._engine = None

    # ------------------------------------------------------------------
    # Hook overrides
    # ------------------------------------------------------------------
    def _build_step_tree(self, step: int, star: StarGraph):
        if self._executor is None or (step == 1 and self._first_step is not None):
            return super()._build_step_tree(step, star)
        tasks = tree_tasks(star)
        chunks = chunk_tree_tasks(tasks, self.workers)
        results = self._executor.map_tree(chunks)
        star_cliques, core_maximal = merge_tree_results(tasks, results, star)
        tree = assemble_clique_tree(
            star, star_cliques, core_maximal, memory=self._memory
        )
        return tree, core_maximal

    def _compute_categories(self, star: StarGraph, core_maximal, store):
        if self._executor is None or not isinstance(store, HnbPartitionStore):
            return super()._compute_categories(star, core_maximal, store)
        return compute_core_plus_max_cliques(
            star, core_maximal, store, resolver=self._resolve_parallel
        )

    def _resolve_parallel(self, ordered, store):
        """Phase-2 resolver: fan the spill partitions out to the pool."""
        assert self._executor is not None
        tasks = lift_tasks(ordered, store)
        chunks = chunk_lift_tasks(tasks, store, self.workers)
        results = self._executor.map_lift(chunks)
        max_cliques_of, pages_read = merge_lift_results(tasks, results)
        io = store.io_stats
        if io is not None and pages_read:
            io.record_read(pages_read)
        return max_cliques_of


__all__ = ["ParallelExtMCE"]
