"""The persistent parallel engine: one pool and one graph segment per run.

The old executor rebuilt a ``multiprocessing.Pool`` *per recursion step*
and shipped every worker a pickled copy of the step's core graph at pool
initialization — fixed costs that swamped the parallelism
(``BENCH_parallel.json`` recorded 0.5× "speedups").  The
:class:`ParallelEngine` inverts both:

* **one pool per run** — workers fork once, stay warm across steps, and
  receive work through plain ``apply_async`` calls;
* **one shared-memory segment per step** — the driver publishes the
  step's :class:`~repro.kernel.CompactGraph` CSR once
  (:mod:`repro.parallel.shm`), and tasks carry only a tiny *descriptor*
  (segment name + generation) that workers resolve against a
  per-process attachment cache.

The engine is started by a run's first fan-out, not by the run: the
driver's cost model (:mod:`repro.parallel.costmodel`) decides per phase
whether to fan out at all, and picks the chunk count from the measured
per-chunk dispatch round trip (pickling, the pool's task and result
pipes, one callback) against the straggler tail that fewer, larger
chunks leave.  That chunk count is the only load balancing: each chunk
runs to completion on the worker that took it.
"""

from __future__ import annotations

import gc
import multiprocessing
from types import SimpleNamespace

from repro import metrics
from repro.errors import GraphError, ReproError
from repro.parallel import shm as shm_mod
from repro.parallel.partition import serialize_star

_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        shm_bytes=registry.counter(
            "repro_parallel_shm_bytes_total",
            "bytes published through shared-memory graph segments",
        ),
        segments=registry.counter(
            "repro_parallel_shm_segments_total",
            "shared-memory graph segments published",
        ),
        swept=registry.counter(
            "repro_parallel_shm_segments_swept_total",
            "stale crash-leftover segments removed at engine start",
        ),
        inband=registry.counter(
            "repro_parallel_inband_payloads_total",
            "steps that fell back to the pickled in-band graph payload",
        ),
    )
)


class ParallelEngine:
    """Run-scoped pool + segment owner shared by every step's executor.

    Construction sweeps crash-leftover segments and creates the worker
    pool eagerly (``workers > 1``).  :meth:`close` is idempotent and always
    unlinks whatever segment is still published — the driver calls it
    from the ``finally`` of the run generator, and the start-of-run
    sweep covers the paths where even that never executes.
    """

    def __init__(self, workers: int, *, sweep: bool = True) -> None:
        self.workers = max(1, int(workers))
        if sweep:
            _METRICS().swept.inc(len(shm_mod.sweep_stale_segments()))
        self._segment: shm_mod.StarSegment | None = None
        self._generation = 0
        self._descriptor_seq = 0
        self._pool = None
        self._closed = False
        if self.workers > 1:
            self._pool = self._create_pool()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self):
        """The live pool, or ``None`` (workers == 1, or creation failed)."""
        return self._pool

    def _create_pool(self):
        from repro.parallel.executor import _init_worker

        try:
            # Start the shared-memory resource tracker *before* forking:
            # workers must inherit the driver's tracker fd, or each one
            # lazily spawns a private tracker whose register-on-attach is
            # never balanced by the driver's unregister-on-unlink and
            # warns about "leaked" (already unlinked) segments at exit.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        # Move every live object to the permanent generation while the
        # workers fork, so their collector never writes to (and copies)
        # the pages they share with the driver.
        gc.freeze()
        try:
            return multiprocessing.Pool(
                processes=self.workers,
                initializer=_init_worker,
            )
        except Exception:
            return None
        finally:
            gc.unfreeze()

    def rebuild_pool(self) -> bool:
        """Tear down a broken pool and start fresh; True on success."""
        self.stop_pool(terminate=True)
        self._pool = self._create_pool()
        return self._pool is not None

    def stop_pool(self, terminate: bool = False) -> None:
        """Shut the pool down without ending the engine (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            if terminate:
                pool.terminate()
            else:
                pool.close()
            pool.join()

    # ------------------------------------------------------------------
    # Graph publication
    # ------------------------------------------------------------------
    def publish_star(self, star) -> dict:
        """Publish a step's core graph; returns the task descriptor.

        Zero-copy path: pack ``star.core_compact()`` into a fresh
        segment (retiring the previous step's).  Any failure — no shared
        memory on this host, labels the int64 codec rejects — degrades
        to the pickled in-band CSR payload of
        :func:`~repro.parallel.partition.serialize_star`, so enumeration
        never depends on shm availability.
        """
        self.retire_segment()
        self._generation += 1
        self._descriptor_seq += 1
        try:
            segment = shm_mod.export_star(star.core_compact(), self._generation)
        except (ReproError, GraphError, OSError, ValueError):
            _METRICS().inband.inc()
            return {
                "token": f"inband-{self._descriptor_seq}",
                "inband": serialize_star(star),
            }
        self._segment = segment
        bundle = _METRICS()
        bundle.shm_bytes.inc(segment.nbytes)
        bundle.segments.inc()
        return {
            "token": segment.name,
            "shm": {
                "name": segment.name,
                "generation": segment.generation,
                "nbytes": segment.nbytes,
            },
        }

    def step_token(self) -> dict:
        """A descriptor that names a new step but carries no graph.

        Lift chunks read only the spill files their chunk names, and key
        their per-step caches by the token; a step whose tree ran inline
        needs nothing more.
        """
        self.retire_segment()
        self._descriptor_seq += 1
        return {"token": f"step-{self._descriptor_seq}"}

    def retire_segment(self) -> None:
        """Unlink the currently published segment (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is not None:
            segment.unlink()

    @property
    def current_segment(self) -> shm_mod.StarSegment | None:
        return self._segment

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, terminate: bool = False) -> None:
        """Stop the pool and unlink the segment."""
        if self._closed:
            return
        self._closed = True
        self.stop_pool(terminate=terminate)
        self.retire_segment()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(terminate=exc_info and exc_info[0] is not None)

    def __del__(self) -> None:  # last-ditch cleanup; sweep covers the rest
        try:
            self.close(terminate=True)
        except Exception:
            pass


__all__ = ["ParallelEngine"]
