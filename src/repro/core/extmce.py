"""Algorithm 3: the recursive external-memory MCE driver (Section 4).

The driver owns the full per-step pipeline::

    extract star graph  ->  estimate / shrink  ->  build T_H*  ->
    spill h-neighbor partitions + rewrite residual graph + draw the
    next L*-sample (one scan)  ->  Algorithm 2 (M1 ∪ M2 ∪ M3)  ->
    global-maximality filter via the hashtable  ->  emit  ->  recurse

Step 1 uses the H*-graph (Algorithm 1); every later step uses a random
L*-graph of at most the same size (Definition 10).  The hashtable keeps
the periphery parts ``C ∩ Hnb`` (``|·| > 1``) of emitted cliques so a
later step can recognise — and suppress — a locally-maximal clique that a
previous step already covered (Section 4.3).  Theorem 5's soundness and
completeness are exercised in the test suite by comparing against
in-memory enumeration on hundreds of graphs.

Memory accounting: the star graph, the clique tree, resident h-neighbor
partitions, and the hashtable are all charged to the
:class:`~repro.storage.memory.MemoryModel`, so the reported peak is the
paper's ``O(|G_H*| + |T_H*|)`` bound measured, not assumed.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections.abc import Generator, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from repro import metrics
from repro.core.categories import compute_core_plus_max_cliques
from repro.core.checkpoint import (
    CheckpointState,
    clear_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.clique_tree import build_clique_tree, build_clique_tree_from_cliques
from repro.core.estimator import estimate_tree_size, shrink_core_to_budget
from repro.errors import GraphError, StorageError
from repro.faults import FaultPlan
from repro.core.hstar import StarGraph, extract_hstar_graph
from repro.core.lstar import LStarSampler, extract_lstar_graph
from repro.storage.diskgraph import DiskGraph
from repro.storage.memory import MemoryModel
from repro.storage.partitions import HnbPartitionStore

Clique = frozenset

#: Driver-level totals.  ``emitted + suppressed - singletons`` always
#: equals ``m1 + m2 + m3`` (every category clique is either emitted or
#: suppressed; degenerate-step singletons bypass the categories), and
#: ``emitted`` equals the length of the clique stream — both invariants
#: are asserted by the differential test harness at every worker count.
_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        steps=registry.counter(
            "repro_mce_steps_total", "completed recursion steps"
        ),
        emitted=registry.counter(
            "repro_mce_cliques_emitted_total", "globally maximal cliques emitted"
        ),
        suppressed=registry.counter(
            "repro_mce_cliques_suppressed_total",
            "locally maximal cliques suppressed by the hashtable filter",
        ),
        singletons=registry.counter(
            "repro_mce_singleton_cliques_total",
            "isolated-vertex cliques emitted by the degenerate step",
        ),
        categories={
            name: registry.counter(
                "repro_mce_category_cliques_total",
                "H+-max-cliques per Algorithm 2 category",
                labels={"category": name},
            )
            for name in ("m1", "m2", "m3")
        },
        hashtable=registry.gauge(
            "repro_mce_hashtable_entries", "live maximality-hashtable entries"
        ),
    )
)


@dataclass(frozen=True)
class ExtMCEConfig:
    """Tunable knobs of the ExtMCE driver.

    Attributes
    ----------
    memory_budget_units:
        Optional memory budget (accounting units) that sizes the
        per-step subgraphs; it is not enforced as a cap.  When set, the
        Section 4.1.3 shrinking loop trims the h-vertex core until the
        estimated ``|G_H*| + |T_H*|`` fits half of it, and each L*-graph
        target is cut to a quarter of the headroom its step starts with
        when the memory model has a budget.  ``ExtMCE`` builds an unbudgeted
        :class:`MemoryModel` unless one is passed, so the peak (notably
        the maximality hashtable) can exceed this value.
    workdir:
        Directory for residual graphs and partition spill files; a
        temporary directory is created (and removed) when omitted.
    seed:
        Base RNG seed; the L-selection of step ``k`` uses ``seed + k``.
    estimator_probes:
        Path probes for the Knuth tree-size estimator.
    use_structure:
        Use the Lemma-2 structured enumeration when building the clique
        tree (the ablation bench flips this off).
    hashtable_cleanup:
        Apply the end-of-round hashtable purge of Section 4.3 (entries
        containing a consumed core vertex can never match again).
    partition_fraction:
        Fraction of ``|G_H*|`` used as the per-partition budget for the
        h-neighbor spill files — Section 4.2.3's available memory ``N``,
        which the paper sets to the space freed by discarding ``G_H*``
        after ``T_H*`` is built.
    checkpoint:
        Persist a resumable checkpoint into the workdir after every
        completed recursion step (see :mod:`repro.core.checkpoint`).
        Requires an explicit ``workdir``.
    trace_path:
        Append structured run telemetry to this JSON-lines file (see
        :mod:`repro.telemetry`).
    workers:
        Worker-process count for the parallel driver
        (:class:`repro.parallel.driver.ParallelExtMCE`).  The serial
        :class:`ExtMCE` ignores it; ``1`` means in-process execution even
        under the parallel driver.  Kept here (rather than on the driver)
        so checkpoints and :meth:`ExtMCE.resume` round-trip it.
    kernel:
        Accepted for compatibility and ignored: ExtMCE enumerates on the
        bitset kernel (:mod:`repro.kernel`) only, so ``"bitset"`` is the
        one legal value and any other raises :class:`ValueError`.  The
        set-based Tomita enumerator in :mod:`repro.baselines` stays the
        in-memory comparator and the test oracle the bitset stream is
        checked against.
    verify_checksums:
        Verify per-record CRC32s when reading checksummed (format v2)
        disk graphs; flipping this off trades integrity for a little
        decode speed.  Applies to the input graph and every residual
        derived from it.
    max_retries:
        Per-chunk resubmission budget of the parallel executor before a
        failing chunk degrades to inline recomputation (see
        :class:`repro.parallel.executor.StepExecutor`).
    reduction:
        Exact graph-reduction preprocessing (:mod:`repro.reduce`):
        ``"off"`` (default), ``"prune"`` (low-degree peeling against a
        greedy max-clique lower bound), or ``"full"`` (peeling plus
        true-twin folding).  The reduced graph is what H*/L* extraction,
        the kernels, and the parallel CSR payloads see; a reconstruction
        map re-emits the pruned-away cliques, so the final stream is the
        same set of maximal cliques at every level (asserted by the
        differential matrix).  Checkpointed runs persist the map in the
        workdir; :meth:`resume` reloads it.
    fault_plan:
        Deterministic fault-injection schedule for the parallel
        executor's ``"chunk"`` site (see :mod:`repro.faults`) and the
        reduction map's ``"reduce"`` site; storage faults are configured
        on the :class:`DiskGraph` itself.  ``None`` (production) injects
        nothing.
    """

    memory_budget_units: int | None = None
    workdir: str | Path | None = None
    seed: int = 0
    estimator_probes: int = 64
    use_structure: bool = True
    hashtable_cleanup: bool = True
    partition_fraction: float = 1.0
    checkpoint: bool = False
    trace_path: str | Path | None = None
    workers: int = 1
    kernel: str = "bitset"
    reduction: str = "off"
    verify_checksums: bool = True
    max_retries: int = 2
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.kernel != "bitset":
            raise ValueError(
                f"unsupported kernel {self.kernel!r}; ExtMCE runs on 'bitset' only"
            )


@dataclass
class RecursionStats:
    """Measurements for one recursion step (feeds Tables 3 and 6)."""

    step: int
    core_size: int
    periphery_size: int
    star_edges: int
    tree_nodes: int
    tree_estimate: float
    cliques_emitted: int
    cliques_suppressed: int
    hashtable_entries: int
    elapsed_seconds: float
    residual_vertices: int
    residual_edges: int


@dataclass
class ExtMCEReport:
    """Run-level summary returned by :meth:`ExtMCE.run`."""

    steps: list[RecursionStats] = field(default_factory=list)
    total_cliques: int = 0
    peak_memory_units: int = 0
    pages_read: int = 0
    pages_written: int = 0
    sequential_scans: int = 0
    elapsed_seconds: float = 0.0
    estimated_recursions: float = 0.0

    @property
    def num_recursions(self) -> int:
        """Actual recursion count (Table 6, "# of recursions")."""
        return len(self.steps)

    @property
    def first_step_time_fraction(self) -> float:
        """Share of total time spent in step 1 (Table 6, last row)."""
        if not self.steps or self.elapsed_seconds == 0:
            return 0.0
        return self.steps[0].elapsed_seconds / self.elapsed_seconds


class ExtMCE:
    """External-memory maximal clique enumeration over a disk graph.

    Examples
    --------
    >>> import tempfile
    >>> from repro.graph import AdjacencyGraph
    >>> from repro.storage import DiskGraph
    >>> g = AdjacencyGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     dg = DiskGraph.create(f"{tmp}/g.bin", g)
    ...     algo = ExtMCE(dg, ExtMCEConfig(workdir=tmp))
    ...     sorted(sorted(c) for c in algo.enumerate_cliques())
    [[0, 1, 2], [2, 3]]
    """

    def __init__(
        self,
        disk_graph: DiskGraph,
        config: ExtMCEConfig | None = None,
        memory: MemoryModel | None = None,
        first_step: tuple[StarGraph, list[Clique]] | None = None,
    ) -> None:
        self._input = disk_graph
        self._config = config if config is not None else ExtMCEConfig()
        self._memory = memory if memory is not None else MemoryModel()
        self._first_step = first_step
        self._resume_state: CheckpointState | None = None
        self._reduced_input: DiskGraph | None = None
        if self._config.checkpoint and self._config.workdir is None:
            raise GraphError("checkpointing requires an explicit workdir")
        from repro.reduce import validate_reduction

        try:
            validate_reduction(self._config.reduction)
        except ValueError as exc:
            raise GraphError(str(exc)) from exc
        if not self._config.verify_checksums:
            # Propagates to every residual via DiskGraph.rewrite_without.
            disk_graph.verify_checksums = False
        self.report = ExtMCEReport()

    @classmethod
    def resume(
        cls,
        workdir: str | Path,
        config: ExtMCEConfig | None = None,
        memory: MemoryModel | None = None,
    ) -> "ExtMCE":
        """Continue an interrupted checkpointed run from its workdir.

        The returned instance's :meth:`enumerate_cliques` re-runs the
        step that was interrupted (its cliques are emitted again — see
        :mod:`repro.core.checkpoint` for the consumer contract) and then
        proceeds to completion.  The original input graph is not needed;
        the checkpointed residual graph carries everything.
        """
        state = read_checkpoint(workdir)
        if config is None:
            config = ExtMCEConfig(workdir=workdir, seed=state.seed, checkpoint=True)
        else:
            config = ExtMCEConfig(
                **{**config.__dict__, "workdir": workdir, "seed": state.seed,
                   "checkpoint": True}
            )
        residual = DiskGraph.open(
            state.residual_path, verify_checksums=config.verify_checksums
        )
        algo = cls(residual, config, memory=memory)
        algo._resume_state = state
        algo.report.estimated_recursions = state.estimated_recursions
        return algo

    @property
    def memory(self) -> MemoryModel:
        """The memory model charged during the run."""
        return self._memory

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, sink=None) -> ExtMCEReport:
        """Enumerate every maximal clique, optionally feeding a sink.

        ``sink`` is any object with an ``accept(clique)`` method (see
        :mod:`repro.core.result`).  Returns the run report.
        """
        for clique in self.enumerate_cliques():
            if sink is not None:
                sink.accept(clique)
        return self.report

    def enumerate_cliques(self) -> Iterator[Clique]:
        """Stream the maximal cliques of the input graph (Theorem 5)."""
        start = time.perf_counter()
        owns_workdir = self._config.workdir is None
        workdir = Path(
            tempfile.mkdtemp(prefix="extmce_")
            if owns_workdir
            else self._config.workdir
        )
        workdir.mkdir(parents=True, exist_ok=True)
        if self._config.trace_path is not None:
            from repro.telemetry import TraceWriter

            # A resumed run continues the interrupted run's trace file;
            # a fresh run must not inherit a stale one (mode="truncate").
            self._trace = TraceWriter(
                self._config.trace_path,
                mode="append" if self._resume_state is not None else "truncate",
            )
            self._trace.emit(
                "run_started",
                vertices=self._input.num_vertices,
                edges=self._input.num_edges,
                resumed_from_step=(
                    self._resume_state.completed_step if self._resume_state else 0
                ),
            )
        else:
            self._trace = None
        try:
            yield from self._drive_maybe_reduced(workdir)
            if self._trace is not None:
                self._trace.emit(
                    "run_completed",
                    total_cliques=self.report.total_cliques,
                    steps=self.report.num_recursions,
                    peak_memory_units=self._memory.peak_units,
                )
        finally:
            self.report.elapsed_seconds = time.perf_counter() - start
            self.report.peak_memory_units = self._memory.peak_units
            io = self._input.io_stats
            self.report.pages_read = io.pages_read
            self.report.pages_written = io.pages_written
            self.report.sequential_scans = io.sequential_scans
            if self._reduced_input is not None:
                reduced_io = self._reduced_input.io_stats
                self.report.pages_read += reduced_io.pages_read
                self.report.pages_written += reduced_io.pages_written
                self.report.sequential_scans += reduced_io.sequential_scans
            if self._trace is not None:
                self._trace.close()
            if owns_workdir:
                shutil.rmtree(workdir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Reduction preprocessing (repro.reduce)
    # ------------------------------------------------------------------
    def _drive_maybe_reduced(self, workdir: Path) -> Iterator[Clique]:
        """Dispatch to the plain recursion or wrap it in a reduction.

        A fresh reduced run peels/folds the input, persists the
        reconstruction map next to the checkpoint, drives the recursion
        over the *reduced* disk graph, and lifts the stream back through
        the map (direct emissions first, canonical order).  A resumed
        run recognises itself by the persisted map — its residual graph
        already lives in reduced vertex space and its direct emissions
        were delivered before the first checkpoint, so only the stream
        wrapper is reinstalled.
        """
        from repro.reduce import (
            REDUCTION_MAP_FILENAME,
            load_reduction_map,
            reduce_graph,
            save_reduction_map,
        )

        map_path = workdir / REDUCTION_MAP_FILENAME
        if self._resume_state is not None:
            if map_path.exists():
                rmap = load_reduction_map(map_path, fault_plan=self._config.fault_plan)
                yield from self._wrap_reduced(
                    rmap, self._drive(workdir), emit_direct=False
                )
            elif self._config.reduction != "off":
                raise GraphError(
                    "cannot resume with reduction enabled: no reduction map in "
                    f"{workdir} — the interrupted run was not reduced"
                )
            else:
                yield from self._drive(workdir)
            return
        if self._config.reduction == "off":
            yield from self._drive(workdir)
            return
        registry = metrics.get_registry()
        with registry.timer(
            "repro_reduce_phase_seconds", "reduction phase wall time",
            labels={"phase": "load"},
        ):
            adjacency = self._input.to_adjacency_graph()
        reduction = reduce_graph(adjacency, self._config.reduction)
        if self._config.checkpoint:
            save_reduction_map(
                reduction.map, map_path, fault_plan=self._config.fault_plan
            )
        with registry.timer(
            "repro_reduce_phase_seconds", "reduction phase wall time",
            labels={"phase": "rewrite"},
        ):
            self._reduced_input = DiskGraph.create(
                workdir / "reduced_input.bin",
                reduction.reduced,
                fault_plan=self._input.fault_plan,
                verify_checksums=self._config.verify_checksums,
            )
        if self._trace is not None:
            self._trace.emit(
                "reduction_applied",
                level=self._config.reduction,
                lower_bound=reduction.map.lower_bound,
                vertices_removed=reduction.map.vertices_removed,
                edges_removed=reduction.map.edges_removed,
                direct_cliques=len(reduction.map.direct),
            )
        yield from self._wrap_reduced(
            reduction.map,
            self._drive(workdir, source=self._reduced_input),
            emit_direct=True,
        )

    def _wrap_reduced(self, rmap, inner: Iterator[Clique], emit_direct: bool):
        """Reconstruction wrapper that keeps ``report.total_cliques`` exact.

        Direct emissions are counted in, stream suppressions counted
        out, *before* the recursion advances past them — so a checkpoint
        written after any step records the number of cliques actually
        delivered to the consumer, which is what resume truncation
        relies on.
        """

        def on_direct(_clique):
            self.report.total_cliques += 1

        def on_suppressed(_clique):
            self.report.total_cliques -= 1

        yield from rmap.reconstruct(
            inner,
            emit_direct=emit_direct,
            on_direct=on_direct,
            on_suppressed=on_suppressed,
        )

    # ------------------------------------------------------------------
    # The recursion
    # ------------------------------------------------------------------
    def _drive(self, workdir: Path, source: DiskGraph | None = None) -> Iterator[Clique]:
        origin = self._input if source is None else source
        current = origin
        hashtable: set[Clique] = set()
        target_size = 0
        step = 0
        # Step k+1's L*-sample, drawn while step k's pass writes G_{k+1}.
        sampler: LStarSampler | None = None
        if self._resume_state is not None:
            state = self._resume_state
            step = state.completed_step
            target_size = state.target_size
            for entry in state.hashtable:
                clique = frozenset(entry)
                hashtable.add(clique)
                self._memory.allocate(len(clique), label="maximality hashtable")
        while current.num_vertices > 0:
            step += 1
            step_start = time.perf_counter()
            if step == 1:
                if self._first_step is not None:
                    star = self._first_step[0]
                else:
                    star = extract_hstar_graph(current, memory=self._memory)
                if star.h == 0:
                    # Degenerate graph: every vertex is isolated.  Emit the
                    # singleton cliques directly and stop.
                    emitted = 0
                    for record in current.scan():
                        if record.original_degree == 0:
                            emitted += 1
                            yield frozenset((record.vertex,))
                    bundle = _METRICS()
                    bundle.singletons.inc(emitted)
                    bundle.emitted.inc(emitted)
                    self._finish_step(
                        step, star, 0, 0.0, emitted, 0, hashtable,
                        step_start, 0, 0,
                    )
                    break
                if self._config.memory_budget_units is not None:
                    # Reserve half the budget for what the star and tree do
                    # not cover: resident h-neighbor partitions, the
                    # maximality hashtable, and later steps' transients.
                    star, _ = shrink_core_to_budget(
                        star,
                        self._config.memory_budget_units // 2,
                        num_probes=self._config.estimator_probes,
                        seed=self._config.seed,
                    )
                target_size = max(star.size_edges, 1)
                if self.report.estimated_recursions == 0:
                    self.report.estimated_recursions = (
                        current.num_edges / max(star.size_edges, 1)
                    )
            elif sampler is not None and sampler.target == self._lstar_target(
                target_size
            ):
                star = sampler.star()
            else:
                # A resumed run has no sample.  Under a budget, the lift's
                # hashtable growth can also move the target away from the
                # one the step pass assumed; draw again from the residual.
                star = extract_lstar_graph(
                    current, self._lstar_target(target_size),
                    seed=self._config.seed + step,
                )
            residual, sampler = yield from self._process_step(
                step, star, current, workdir, hashtable, step_start, target_size
            )
            if self._config.checkpoint:
                write_checkpoint(
                    workdir,
                    CheckpointState(
                        completed_step=step,
                        residual_path=str(residual.path),
                        target_size=target_size,
                        cliques_emitted=self.report.total_cliques,
                        estimated_recursions=self.report.estimated_recursions,
                        seed=self._config.seed,
                        hashtable=[sorted(entry) for entry in hashtable],
                    ),
                )
                if self._trace is not None:
                    self._trace.emit(
                        "checkpoint_written",
                        step=step,
                        cliques_emitted=self.report.total_cliques,
                    )
            if current is not origin:
                current.delete()
            current = residual
        if current is not origin:
            current.delete()
        if self._config.checkpoint:
            clear_checkpoint(workdir)

    def _process_step(
        self,
        step: int,
        star: StarGraph,
        current: DiskGraph,
        workdir: Path,
        hashtable: set[Clique],
        step_start: float,
        target_size: int,
    ) -> Generator[Clique, None, tuple[DiskGraph, LStarSampler]]:
        """Run one recursion step; return ``G_{k+1}`` and step k+1's sample.

        The step's one scan of ``G_k`` (the spill pass) also writes
        ``G_{k+1} = G_k − core`` and feeds each surviving record to the
        next step's L*-sampler, so the residual exists before the lift.
        """
        registry = metrics.get_registry()
        tree_estimate = estimate_tree_size(
            star, num_probes=self._config.estimator_probes, seed=self._config.seed
        )
        with self._memory.allocation(star.memory_units, label="star graph"):
            with registry.timer(
                "repro_mce_phase_seconds", "per-step phase wall time",
                labels={"phase": "tree_build"},
            ):
                tree, core_maximal = self._build_step_tree(step, star)
            partition_budget = max(
                int(star.size_edges * self._config.partition_fraction), 64
            )
            max_resident = 4
            headroom = self._memory.available_units
            if headroom is not None:
                # Resident partitions must fit what the budget leaves after
                # the star and tree; shrink the per-partition size (more,
                # smaller partitions) rather than overshooting.
                partition_budget = min(
                    partition_budget, max(headroom // (max_resident + 1), 16)
                )
            # G_{k+1}'s edge count, known before the pass that writes it;
            # the target assumes the headroom this step's star and tree
            # leave when released.
            residual_edges = current.num_edges - star.size_edges
            sampler = LStarSampler(
                residual_edges,
                self._lstar_target(
                    target_size, released=star.memory_units + tree.num_nodes
                ),
                seed=self._config.seed + step + 1,
            )
            periphery_order = self._periphery_leaf_order(tree, star)
            with registry.timer(
                "repro_mce_phase_seconds", "per-step phase wall time",
                labels={"phase": "partition_build"},
            ):
                store = HnbPartitionStore.build(
                    current,
                    periphery_order,
                    workdir / f"partitions_{step:04d}",
                    partition_budget,
                    memory=self._memory,
                    max_resident=max_resident,
                    removed=star.core,
                    residual_path=workdir / f"residual_{step:04d}.bin",
                    on_survivor=sampler.offer,
                )
            residual = store.residual
            try:
                if residual.num_edges != residual_edges:
                    residual.delete()
                    raise StorageError(
                        f"step {step}: the star predicts {residual_edges} residual "
                        f"edges but {residual.num_edges} were written; its "
                        f"neighbor lists disagree with {current.path}"
                    )
                with registry.timer(
                    "repro_mce_phase_seconds", "per-step phase wall time",
                    labels={"phase": "lift"},
                ):
                    categories = self._compute_categories(star, core_maximal, store)
                bundle = _METRICS()
                bundle.categories["m1"].inc(len(categories.m1))
                bundle.categories["m2"].inc(len(categories.m2))
                bundle.categories["m3"].inc(len(categories.m3))
                emitted = 0
                suppressed = 0
                for clique in categories.all_cliques():
                    verdict = self._globally_maximal(clique, star, hashtable)
                    if verdict:
                        emitted += 1
                        yield clique
                    else:
                        suppressed += 1
                bundle.emitted.inc(emitted)
                bundle.suppressed.inc(suppressed)
                if self._config.hashtable_cleanup:
                    self._purge_hashtable(hashtable, star.core)
            finally:
                store.close()
                tree_nodes = tree.num_nodes
                tree.release()
        self._finish_step(
            step, star, tree_nodes, tree_estimate, emitted, suppressed,
            hashtable, step_start, current.num_vertices, current.num_edges,
        )
        return residual, sampler

    def _lstar_target(self, target_size: int, released: int = 0) -> int:
        """The L*-graph target of the next step: the size bound ``b``, cut
        under a memory budget to a quarter of the headroom the step starts
        with (the tree and resident partitions scale with the star; the
        hashtable grows across steps).  ``released`` counts units still
        held that will be freed before the step starts."""
        headroom = self._memory.available_units
        if self._config.memory_budget_units is None or headroom is None:
            return target_size
        return max(16, min(target_size, (headroom + released) // 4))

    # ------------------------------------------------------------------
    # Step hooks (overridden by repro.parallel.driver.ParallelExtMCE)
    # ------------------------------------------------------------------
    def _build_step_tree(self, step: int, star: StarGraph):
        """Build this step's ``T_H*`` and ``M_H`` (Algorithm 3, Line 6).

        The parallel driver overrides this to enumerate the H*-max-cliques
        on a worker pool; it must return the same ``(tree, core_maximal)``
        pair with tree nodes charged to ``self._memory``.
        """
        if step == 1 and self._first_step is not None:
            return build_clique_tree_from_cliques(
                star, self._first_step[1], memory=self._memory
            )
        return build_clique_tree(
            star,
            memory=self._memory,
            use_structure=self._config.use_structure,
        )

    def _compute_categories(self, star: StarGraph, core_maximal, store):
        """Run Algorithm 2 (the M1/M2/M3 lifting) for one step.

        The parallel driver overrides this to fan the phase-2 disk
        partitions out to workers; the hashtable filter downstream always
        stays in the driver process.
        """
        return compute_core_plus_max_cliques(star, core_maximal, store)

    # ------------------------------------------------------------------
    # Global maximality bookkeeping (Section 4.3)
    # ------------------------------------------------------------------
    def _globally_maximal(
        self,
        clique: Clique,
        star: StarGraph,
        hashtable: set[Clique],
    ) -> bool:
        if len(clique) == 1:
            (vertex,) = clique
            return star.original_degree(vertex) == 0
        emit = clique not in hashtable
        if not emit:
            # A previous step covered this clique (it equals the surviving
            # shadow of a strictly larger clique); it will never recur.
            hashtable.discard(clique)
            self._memory.release(len(clique), label="maximality hashtable")
        # Register the clique's periphery part *whether or not it was
        # emitted*: it is the clique's shadow in the next residual graph,
        # and a later step may compute exactly that shadow as a locally
        # maximal clique.  (The paper's Section 4.3 prose registers it only
        # on emission; the inductive invariant — every non-maximal clique
        # that is locally maximal in the residual graph has its shadow in
        # the hashtable — requires registration on suppression too, and
        # the equivalence tests fail without it.)
        periphery_part = clique - star.core
        if len(periphery_part) > 1 and periphery_part not in hashtable:
            hashtable.add(periphery_part)
            self._memory.allocate(len(periphery_part), label="maximality hashtable")
        return emit

    def _purge_hashtable(self, hashtable: set[Clique], consumed: frozenset[int]) -> None:
        for entry in [entry for entry in hashtable if entry & consumed]:
            hashtable.discard(entry)
            self._memory.release(len(entry), label="maximality hashtable")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _periphery_leaf_order(tree, star: StarGraph) -> list[int]:
        """H-neighbor leaves in DFS order (Section 4.2.3's partition order).

        Periphery vertices that appear in no clique path cannot occur in
        any ``HNB`` set, but they are appended at the end defensively so
        every periphery vertex is covered by some partition.
        """
        order = tree.periphery_leaf_order()
        seen = set(order)
        order.extend(v for v in sorted(star.periphery) if v not in seen)
        return order

    def _finish_step(
        self,
        step: int,
        star: StarGraph,
        tree_nodes: int,
        tree_estimate: float,
        emitted: int,
        suppressed: int,
        hashtable: set[Clique],
        step_start: float,
        residual_vertices: int,
        residual_edges: int,
    ) -> None:
        elapsed = time.perf_counter() - step_start
        bundle = _METRICS()
        bundle.steps.inc()
        bundle.hashtable.set(len(hashtable))
        self.report.steps.append(
            RecursionStats(
                step=step,
                core_size=len(star.core),
                periphery_size=len(star.periphery),
                star_edges=star.size_edges,
                tree_nodes=tree_nodes,
                tree_estimate=tree_estimate,
                cliques_emitted=emitted,
                cliques_suppressed=suppressed,
                hashtable_entries=len(hashtable),
                elapsed_seconds=elapsed,
                residual_vertices=residual_vertices,
                residual_edges=residual_edges,
            )
        )
        self.report.total_cliques += emitted
        if self._trace is not None:
            self._trace.emit(
                "step_completed",
                step=step,
                core_size=len(star.core),
                periphery_size=len(star.periphery),
                star_edges=star.size_edges,
                tree_nodes=tree_nodes,
                tree_estimate=tree_estimate,
                emitted=emitted,
                suppressed=suppressed,
                hashtable_entries=len(hashtable),
                elapsed=elapsed,
            )
