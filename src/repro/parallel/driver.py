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

Each phase of each step fans out only when it pays: the measured cost
model of :mod:`repro.parallel.costmodel` predicts its inline and fan-out
seconds from this process's own runs, and a phase that would not finish
sooner on the pool runs the inherited serial code instead.  The heavy
machinery is run-scoped and lazy: the first fan-out of a run starts one
:class:`~repro.parallel.scheduler.ParallelEngine`, which owns the
persistent worker pool, and the first tree fan-out of a step publishes
its core graph through a shared-memory segment
(:mod:`repro.parallel.shm`).  A run in which no phase fans out forks no
worker and publishes no segment.

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
from types import SimpleNamespace

from repro import metrics
from repro.core.categories import compute_core_plus_max_cliques, resolve_hnb_cliques
from repro.core.clique_tree import assemble_clique_tree
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.hstar import StarGraph
from repro.parallel.costmodel import COST_MODEL, FANOUT, INLINE, PHASES, Plan, plan_phase
from repro.parallel.executor import StepExecutor
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

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        phases={
            (phase, mode): registry.counter(
                "repro_parallel_phases_total",
                "step phases of parallel runs, by where they ran",
                labels={"phase": phase, "mode": mode},
            )
            for phase in PHASES
            for mode in (INLINE, FANOUT)
        },
    )
)


class ParallelExtMCE(ExtMCE):
    """ExtMCE that fans a step's phases out to a worker pool when it pays.

    Configure the worker count through
    :attr:`~repro.core.extmce.ExtMCEConfig.workers`; ``workers=1`` (the
    default) runs fully in-process and behaves exactly like the serial
    driver.  At ``workers > 1`` every tree build and every ``HNB``
    resolution asks :func:`~repro.parallel.costmodel.plan_phase` whether
    to run inline or fan out, and reports what it did.  All other knobs,
    the checkpoint/resume protocol, sinks and reports are inherited
    unchanged.

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

    #: The measurements every decision reads and every phase extends;
    #: process-wide, so later runs decide from earlier runs' phases.
    cost_model = COST_MODEL

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._engine: ParallelEngine | None = None
        self._executor: StepExecutor | None = None
        self._executor_started = 0.0
        self._step = 0
        self._step_star: StarGraph | None = None

    @property
    def workers(self) -> int:
        """Effective worker count (always ≥ 1)."""
        return max(1, self._config.workers)

    # ------------------------------------------------------------------
    # Engine lifecycle: started by the run's first fan-out
    # ------------------------------------------------------------------
    def _ensure_engine(self) -> float:
        """Start the run's engine if it is not running; its start seconds."""
        if self._engine is not None:
            return 0.0
        started = time.perf_counter()
        self._engine = ParallelEngine(self.workers)
        elapsed = time.perf_counter() - started
        if self._engine.pool is not None:  # a failed start measures nothing
            self.cost_model.observe_engine_start(self.workers, elapsed)
        return elapsed

    def _step_executor(self, publish: bool) -> StepExecutor:
        """This step's executor, created by its first fan-out.

        A tree fan-out publishes the step's core graph; a lift that fans
        out after an inline tree needs none (lift workers read the spill
        files), so its descriptor only names the step.
        """
        if self._executor is None:
            assert self._engine is not None and self._step_star is not None
            self._executor_started = time.perf_counter()
            descriptor = (
                self._engine.publish_star(self._step_star)
                if publish
                else self._engine.step_token()
            )
            self._executor = StepExecutor(
                self._engine,
                descriptor,
                task_timeout=self.task_timeout_seconds,
                max_retries=self._config.max_retries,
                fault_plan=self._config.fault_plan,
                on_event=self._trace.emit if self._trace is not None else None,
            )
        return self._executor

    def _process_step(self, step, star, *args):
        if self.workers <= 1:
            return (yield from super()._process_step(step, star, *args))
        self._step, self._step_star = step, star
        try:
            return (yield from super()._process_step(step, star, *args))
        finally:
            self._step_star = None
            executor, self._executor = self._executor, None
            if executor is not None:
                self._close_step_executor(step, executor)

    def _close_step_executor(self, step: int, executor: StepExecutor) -> None:
        executor.close()
        assert self._engine is not None
        self._engine.retire_segment()
        if self._trace is not None:
            self._trace.emit(
                "parallel_step_completed",
                step=step,
                workers=self.workers,
                **executor.step_fields(),
                pool_elapsed=round(time.perf_counter() - self._executor_started, 6),
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
    # Hook overrides: decide, then run inline or fan out
    # ------------------------------------------------------------------
    def _plan(self, phase: str, units: int) -> Plan:
        return plan_phase(
            self.cost_model.rates(phase, self.workers),
            units,
            self.workers,
            engine_running=self._engine is not None,
        )

    def _run_phase(self, phase: str, units: int, inline, fan_out):
        """Run one phase the way the model plans, and learn from it.

        ``inline()`` is the serial code; ``fan_out(executor, chunks)``
        runs the phase on the step's executor, whose ``last_map`` then
        holds the pool's share of the time and whether any recovery
        engaged.
        """
        plan = self._plan(phase, units)
        started = time.perf_counter()
        if plan.mode == INLINE:
            result = inline()
            actual = time.perf_counter() - started
            self.cost_model.observe_inline(phase, self.workers, units, actual)
        else:
            engine_s = self._ensure_engine()
            executor = self._step_executor(publish=phase == "tree")
            result = fan_out(executor, plan.chunks)
            actual = time.perf_counter() - started
            mapped = executor.last_map
            # A fan-out that retried, rebuilt, degraded or ran without a
            # pool measured the fault, not the engine.
            if not mapped.recovered:
                self.cost_model.observe_fanout(
                    phase,
                    self.workers,
                    units,
                    driver_s=actual - engine_s - mapped.seconds,
                    map_s=mapped.seconds,
                    busy_s=mapped.busy,
                    chunks=mapped.chunks,
                )
        _METRICS().phases[phase, plan.mode].inc()
        if self._trace is not None:
            self._trace.emit(
                "parallel_decision",
                step=self._step,
                phase=phase,
                mode=plan.mode,
                units=units,
                chunks=plan.chunks,
                predicted_inline_s=plan.predicted_inline_s,
                predicted_fanout_s=plan.predicted_fanout_s,
                actual_s=round(actual, 6),
            )
        return result

    def _build_step_tree(self, step: int, star: StarGraph):
        if self.workers <= 1 or (step == 1 and self._first_step is not None):
            return super()._build_step_tree(step, star)

        def fan_out(executor: StepExecutor, num_chunks: int):
            tasks = tree_tasks(star)
            results = executor.map_tree(chunk_tree_tasks(tasks, num_chunks))
            star_cliques, core_maximal = merge_tree_results(tasks, results, star)
            tree = assemble_clique_tree(
                star, star_cliques, core_maximal, memory=self._memory
            )
            return tree, core_maximal

        return self._run_phase(
            "tree",
            star.size_edges + len(star.core),
            lambda: super(ParallelExtMCE, self)._build_step_tree(step, star),
            fan_out,
        )

    def _compute_categories(self, star: StarGraph, core_maximal, store):
        if self.workers <= 1 or not isinstance(store, HnbPartitionStore):
            return super()._compute_categories(star, core_maximal, store)
        return compute_core_plus_max_cliques(
            star, core_maximal, store, resolver=self._resolve_hnb
        )

    def _resolve_hnb(self, ordered, store):
        """Phase-2 resolver: serial, or the spill partitions on the pool."""

        def fan_out(executor: StepExecutor, num_chunks: int):
            tasks = lift_tasks(ordered, store)
            results = executor.map_lift(chunk_lift_tasks(tasks, store, num_chunks))
            max_cliques_of, pages_read = merge_lift_results(tasks, results)
            io = store.io_stats
            if io is not None and pages_read:
                io.record_read(pages_read)
            return max_cliques_of

        return self._run_phase(
            "lift",
            sum(1 + len(shared) for shared in ordered),
            lambda: resolve_hnb_cliques(ordered, store),
            fan_out,
        )


__all__ = ["ParallelExtMCE"]
