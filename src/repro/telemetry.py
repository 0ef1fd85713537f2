"""Structured run telemetry (JSON-lines traces).

An hours-long external-memory enumeration needs observability that
outlives the process: the driver can append one JSON object per event to
a trace file (step boundaries, structure sizes, suppression counts,
checkpoints), cheap enough to leave on.  The reader side loads and
summarises traces for post-hoc analysis, and the CLI exposes it via
``repro-mce enumerate --trace run.jsonl``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.tables import render_table
from repro.errors import StorageError


#: Accepted :class:`TraceWriter` open policies.
TRACE_MODES = ("truncate", "append")


class TraceWriter:
    """Appends timestamped events to a JSON-lines file.

    Events carry a monotonically increasing ``seq`` and an ``elapsed``
    stamp measured from writer construction, so traces are reproducible
    modulo timing (no wall-clock dependency in the payload ordering).

    ``mode`` controls what happens to a pre-existing file at ``path``:

    * ``"truncate"`` (default) — start a fresh trace.  Historically the
      writer always opened in append mode, so a re-run with the same
      ``--trace`` path silently concatenated two runs and broke the
      monotone-``seq`` invariant every reader relies on.
    * ``"append"`` — continue an existing trace; ``seq`` resumes after
      the file's last event.  Used by resumed checkpoint runs.

    Only the driver process writes a trace: parallel workers hand their
    chunk events to it in their result envelopes.
    """

    def __init__(self, path: str | Path, mode: str = "truncate") -> None:
        if mode not in TRACE_MODES:
            raise ValueError(f"unknown trace mode {mode!r}; expected {TRACE_MODES}")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        needs_newline = False
        if mode == "append" and self._path.exists():
            self._seq = _next_seq(self._path)
            with open(self._path, "rb") as existing:
                existing.seek(0, 2)
                if existing.tell() > 0:
                    existing.seek(-1, 2)
                    needs_newline = existing.read(1) != b"\n"
        self._handle = open(
            self._path, "a" if mode == "append" else "w", encoding="ascii"
        )
        if needs_newline:
            # Terminate a torn final line (crash mid-emit) so the first
            # appended event starts on its own line.
            self._handle.write("\n")
        self._started = time.perf_counter()

    @property
    def path(self) -> Path:
        """Trace file location."""
        return self._path

    @property
    def closed(self) -> bool:
        """Whether the underlying handle has been closed."""
        return self._handle.closed

    def emit(self, event: str, **fields: object) -> None:
        """Append one event (flushed immediately; crash-visible)."""
        record = {
            "seq": self._seq,
            "elapsed": round(time.perf_counter() - self._started, 6),
            "event": event,
            **fields,
        }
        self._seq += 1
        self._handle.write(json.dumps(record, sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close on scope exit — exceptions propagate, the handle never
        leaks.  With the per-event flush in :meth:`emit`, a raising run
        still leaves a readable trace file behind."""
        self.close()


def _next_seq(path: Path) -> int:
    """The ``seq`` an appending writer should continue from.

    Tolerates a torn final line (a crash mid-:meth:`TraceWriter.emit`):
    malformed tail lines are ignored rather than fatal, since the resume
    path must work on exactly the files a crash leaves behind.
    """
    last = -1
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                event = json.loads(stripped)
            except json.JSONDecodeError:
                continue
            seq = event.get("seq")
            if isinstance(seq, int) and seq > last:
                last = seq
    return last + 1


def load_trace(path: str | Path) -> list[dict]:
    """Read a trace file back into a list of event dicts.

    Raises :class:`~repro.errors.StorageError` on malformed lines.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"no trace file at {path}")
    events = []
    with open(path, "r", encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                events.append(json.loads(stripped))
            except json.JSONDecodeError as exc:
                raise StorageError(f"{path}:{line_number}: bad trace line: {exc}") from exc
    return events


def summarize_trace(events: list[dict]) -> str:
    """Render a per-step table from a trace's ``step_completed`` events."""
    steps = [e for e in events if e.get("event") == "step_completed"]
    total = next(
        (e for e in reversed(events) if e.get("event") == "run_completed"), None
    )
    lines = [
        render_table(
            "Trace summary (per recursion step)",
            ["step", "core", "star edges", "tree nodes", "emitted", "suppressed", "elapsed (s)"],
            [
                (
                    e.get("step"),
                    e.get("core_size"),
                    e.get("star_edges"),
                    e.get("tree_nodes"),
                    e.get("emitted"),
                    e.get("suppressed"),
                    f"{e.get('elapsed', 0):.2f}",
                )
                for e in steps
            ],
        )
    ]
    if total is not None:
        lines.append(
            f"run completed: {total.get('total_cliques')} cliques in "
            f"{total.get('elapsed', 0):.2f} s, peak {total.get('peak_memory_units')} units"
        )
    resilience = _summarize_resilience(events)
    if resilience:
        lines.append(resilience)
    return "\n".join(lines)


def _summarize_resilience(events: list[dict]) -> str | None:
    """One line of recovery counters, only when any recovery happened."""
    retries = sum(1 for e in events if e.get("event") == "chunk_retry")
    timeouts = sum(1 for e in events if e.get("event") == "chunk_timeout")
    errors = sum(1 for e in events if e.get("event") == "chunk_error")
    rebuilds = sum(1 for e in events if e.get("event") == "pool_rebuild")
    inline = sum(1 for e in events if e.get("event") == "chunk_inline_fallback")
    degraded = sum(1 for e in events if e.get("event") == "executor_degraded")
    if not (retries or timeouts or errors or rebuilds or inline or degraded):
        return None
    return (
        f"fault recovery: {retries} chunk retries "
        f"({timeouts} timeouts, {errors} errors), "
        f"{rebuilds} pool rebuilds, {inline} inline fallbacks, "
        f"{degraded} degradations"
    )
