"""Inline or fan out: a per-phase cost model built from measured rates.

The paper's recursion breaks the enumeration into bounded steps, each
sized to ``|G_H*|`` (Sections 4.1.3 and 4.3).  A step's two dominant
phases — the ``T_H*`` build and the phase-2 ``HNB`` resolution of the
lift — can run inline (the serial driver's code) or fan out to the
worker pool.  A fan-out pays the engine start (once per run), the
driver's share (task lists, the shared-memory publish, the merge, the
tree assembly) and one dispatch round trip per chunk before the workers'
parallel share begins, and on small steps that loses to running inline.

:func:`plan_phase` is the decision, as a pure function of a phase's
:class:`PhaseRates` and the step's size in *units*: ``|G_H*|`` edges
plus core vertices for the tree, and ``Σ (1 + |HNB|)`` over the distinct
``HNB`` sets for the lift (the cost measure the lift chunker balances).
With ``W`` workers, ``c`` chunks and ``u`` units, worker seconds
``w = worker_s_per_unit · u`` and the prediction is

    fan-out(c) = driver_s_per_unit · u + w / W + (1 − 1/W) · w / c
                 + dispatch_s_per_chunk · c  (+ engine_start_s)

whose middle terms are Graham's list-scheduling bound on the makespan
of ``c`` equal chunks (the last chunk may start after all others have
finished); the chunk count minimising it is
``c* = sqrt((1 − 1/W) · w / dispatch_s_per_chunk)``, at least ``W``.
Inline is ``inline_s_per_unit · u``.  The phase fans out only when the
fan-out prediction is the smaller.

:class:`CostModel` keeps the measurements, per phase and worker count,
for the life of the process (:data:`COST_MODEL`): inline rates from
phases that ran inline, driver, worker and dispatch rates from phases
that fanned out.  A phase runs inline until it has an inline rate.  A
phase that has never fanned out is predicted at its best case — no
driver share, workers as fast per unit as inline, the cheapest
per-chunk dispatch any phase has measured, the measured engine start —
and fans out once, to measure, only if even that beats inline
(exploration); from then on its own rates decide.  Nothing is
configured: the worker count is the only input that is not measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

INLINE = "inline"
FANOUT = "fanout"
PHASES = ("tree", "lift")


@dataclass(frozen=True)
class PhaseRates:
    """What this process has measured of one phase at one worker count.

    A rate is ``None`` until the phase has run the way that measures it:
    ``inline_s_per_unit`` from inline runs; the driver, worker and
    dispatch rates from this phase's fan-outs.  ``dispatch_floor_s`` is
    the cheapest per-chunk dispatch of any phase at this worker count
    and ``engine_start_s`` the mean worker-pool start (both 0.0 until
    measured).
    """

    inline_s_per_unit: float | None = None
    driver_s_per_unit: float | None = None
    worker_s_per_unit: float | None = None
    dispatch_s_per_chunk: float | None = None
    dispatch_floor_s: float = 0.0
    engine_start_s: float = 0.0


@dataclass(frozen=True)
class Plan:
    """One phase's decision: the mode, the chunk count (0 inline) and
    the two predictions behind it (``None`` where nothing is measured)."""

    mode: str
    chunks: int
    predicted_inline_s: float | None
    predicted_fanout_s: float | None


def fanout_seconds(rates: PhaseRates, units: int, workers: int, chunks: int) -> float:
    """Predicted wall seconds of a fan-out into ``chunks`` chunks,
    excluding the engine start."""
    work = rates.worker_s_per_unit * units
    return (
        rates.driver_s_per_unit * units
        + work / workers
        + (1.0 - 1.0 / workers) * work / chunks
        + rates.dispatch_s_per_chunk * chunks
    )


def best_chunks(rates: PhaseRates, units: int, workers: int) -> int:
    """The chunk count minimising :func:`fanout_seconds`, in ``[W, u]``
    (``W`` while no dispatch cost has been measured)."""
    upper = max(workers, units)
    work = rates.worker_s_per_unit * units
    if rates.dispatch_s_per_chunk <= 0.0:
        return workers
    ideal = math.sqrt((1.0 - 1.0 / workers) * work / rates.dispatch_s_per_chunk)
    candidates = {max(workers, min(upper, n)) for n in (math.floor(ideal), math.ceil(ideal))}
    return min(
        sorted(candidates),
        key=lambda c: fanout_seconds(rates, units, workers, c),
    )


def plan_phase(
    rates: PhaseRates, units: int, workers: int, engine_running: bool
) -> Plan:
    """Decide inline or fan-out for one phase of ``units`` at ``workers``.

    Inline when there is nothing to split (``workers <= 1`` or no
    units) or no inline rate yet.  Otherwise the phase fans out iff the
    fan-out prediction — the phase's best case while it has never fanned
    out, plus the engine start when no pool is running — is below the
    inline one.
    """
    inline = rates.inline_s_per_unit
    predicted_inline = None if inline is None else inline * units
    if workers <= 1 or units <= 0 or predicted_inline is None:
        return Plan(INLINE, 0, predicted_inline, None)
    if rates.dispatch_s_per_chunk is None:
        rates = replace(
            rates,
            driver_s_per_unit=0.0,
            worker_s_per_unit=inline,
            dispatch_s_per_chunk=rates.dispatch_floor_s,
        )
    chunks = best_chunks(rates, units, workers)
    predicted_fanout = fanout_seconds(rates, units, workers, chunks)
    if not engine_running:
        predicted_fanout += rates.engine_start_s
    if predicted_fanout < predicted_inline:
        return Plan(FANOUT, chunks, predicted_inline, predicted_fanout)
    return Plan(INLINE, 0, predicted_inline, predicted_fanout)


@dataclass
class _Tally:
    """Running sums behind one (phase, workers) entry's rates."""

    inline_s: float = 0.0
    inline_units: int = 0
    driver_s: float = 0.0
    worker_s: float = 0.0
    fanout_units: int = 0
    dispatch_s: float = 0.0
    chunks: int = 0


@dataclass
class CostModel:
    """Process-lifetime measurements behind :func:`plan_phase`."""

    _tallies: dict[tuple[str, int], _Tally] = field(default_factory=dict)
    #: workers -> (summed seconds, count) of worker-pool starts.
    _starts: dict[int, tuple[float, int]] = field(default_factory=dict)

    def _tally(self, phase: str, workers: int) -> _Tally:
        return self._tallies.setdefault((phase, workers), _Tally())

    def rates(self, phase: str, workers: int) -> PhaseRates:
        """The measured rates of ``phase`` at ``workers``."""
        tally = self._tallies.get((phase, workers), _Tally())
        start_s, starts = self._starts.get(workers, (0.0, 0))
        fanned = tally.chunks > 0
        dispatches = [
            other.dispatch_s / other.chunks
            for (_, count), other in self._tallies.items()
            if count == workers and other.chunks
        ]
        return PhaseRates(
            inline_s_per_unit=(
                tally.inline_s / tally.inline_units if tally.inline_units else None
            ),
            driver_s_per_unit=tally.driver_s / tally.fanout_units if fanned else None,
            worker_s_per_unit=tally.worker_s / tally.fanout_units if fanned else None,
            dispatch_s_per_chunk=tally.dispatch_s / tally.chunks if fanned else None,
            dispatch_floor_s=min(dispatches, default=0.0),
            engine_start_s=start_s / starts if starts else 0.0,
        )

    def observe_inline(self, phase: str, workers: int, units: int, seconds: float) -> None:
        """Record an inline run of ``phase`` over ``units``."""
        if units > 0:
            tally = self._tally(phase, workers)
            tally.inline_s += seconds
            tally.inline_units += units

    def observe_fanout(
        self,
        phase: str,
        workers: int,
        units: int,
        *,
        driver_s: float,
        map_s: float,
        busy_s: dict[str, float],
        chunks: int,
    ) -> None:
        """Record a fan-out of ``phase`` over ``units``.

        ``driver_s`` is the phase's own seconds outside the pool map
        (engine start excluded), ``map_s`` the map's wall seconds,
        ``busy_s`` each worker's summed chunk seconds in it and
        ``chunks`` the chunks it ran.  What the map took beyond its
        busiest worker is dispatch: pickling, the pool's pipes,
        callbacks, and the idle gaps they leave.
        """
        if units <= 0 or chunks <= 0:
            return
        tally = self._tally(phase, workers)
        tally.driver_s += driver_s
        tally.worker_s += sum(busy_s.values())
        tally.fanout_units += units
        tally.dispatch_s += max(0.0, map_s - max(busy_s.values(), default=0.0))
        tally.chunks += chunks

    def observe_engine_start(self, workers: int, seconds: float) -> None:
        """Record one worker-pool start at ``workers``."""
        start_s, starts = self._starts.get(workers, (0.0, 0))
        self._starts[workers] = (start_s + seconds, starts + 1)


#: The process's model: every :class:`~repro.parallel.driver.ParallelExtMCE`
#: run reads and extends it.
COST_MODEL = CostModel()


__all__ = [
    "COST_MODEL",
    "CostModel",
    "FANOUT",
    "INLINE",
    "PHASES",
    "PhaseRates",
    "Plan",
    "best_chunks",
    "fanout_seconds",
    "plan_phase",
]
