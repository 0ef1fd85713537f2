"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload batch_powerlaw --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures the per-layer metrics from a separate traced pass
(spans around the program's entry points plus its own ``repro.metrics``
counters) and prints an attribution report to standard error.  Every
run checks the program's outputs.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (host shape, seed, input sizes, metrics) is written to
``.perfbench/results/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("batch_powerlaw", "batch_communities", "serve_read", "live_mixed")

#: Workloads pinned to one CPU: batch_powerlaw is serial, and the serving
#: workloads' Python threads hold one interpreter lock anyway.  Pinned,
#: the work stays on one vCPU and the host probe samples just that one.
ONE_CPU = ("batch_powerlaw", "serve_read", "live_mixed")

#: Set-up is repeated at least SETUPS times and for at least SETUP_MIN_S
#: seconds per run; ``setup_s`` is the median set-up in reference seconds.
#: Medians of five 20 ms set-ups moved 35% between runs.
SETUPS = 5
SETUP_MIN_S = 1.0

#: The declared metrics: ``BENCHMARK.json`` beside this directory.
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a mode:
    ``end_to_end`` untraced, ``per_layer`` traced.  A workload reports 0
    for a layer it does not exercise."""
    spec = json.loads(SPEC_PATH.read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input scale; 'tiny' exists for the benchmark's own smoke test",
    )
    return parser.parse_args(argv)


def _functions(workload: str):
    """``(setup, measure, trace)`` of one workload."""
    import batch
    import serving

    return {
        "batch_powerlaw": (batch.setup_powerlaw, batch.measure, batch.trace),
        "batch_communities": (batch.setup_communities, batch.measure, batch.trace),
        "serve_read": (serving.setup_serve, serving.measure_serve, serving.trace_serve),
        "live_mixed": (serving.setup_live, serving.measure_live, serving.trace_live),
    }[workload]


def _setup(setup, sizes, seed: int, work: Path, probe):
    """Repeat ``setup`` on one CPU (it is serial); returns (last input,
    median reference seconds, the raw figures behind it)."""
    allowed = os.sched_getaffinity(0)
    cpu = {min(allowed)}
    os.sched_setaffinity(0, cpu)
    intervals = []
    try:
        spent = 0.0
        while len(intervals) < SETUPS or spent < SETUP_MIN_S:
            target = work / f"setup{len(intervals)}"
            target.mkdir(parents=True)
            if intervals:
                shutil.rmtree(work / f"setup{len(intervals) - 1}")
            started = time.perf_counter()
            inp = setup(sizes, seed, target)
            intervals.append((started, time.perf_counter()))
            spent += intervals[-1][1] - started
    finally:
        os.sched_setaffinity(0, allowed)
    speed = probe.speed(cpus=cpu)
    reference = statistics.median(speed.reference_seconds(*span) for span in intervals)
    return inp, reference, {
        "setups": len(intervals),
        "setup_s": statistics.median(end - start for start, end in intervals),
        "slowdown": probe.slowdown(intervals[0][0], intervals[-1][1], cpus=cpu),
    }


def _input_sizes(args, inp) -> dict:
    import inputs
    import serving

    record = {"size": args.size}
    if args.workload.startswith("batch"):
        record.update(vertices=inp.num_vertices, edges=len(inp.edges),
                      cliques=len(inp.oracle), workers=inp.config["workers"],
                      sort_run_pairs=inp.run_pairs)
        return record
    record.update(vertices=inp.graph.num_vertices, edges=inp.graph.num_edges,
                  cliques=len(inp.cliques), index_page_cache_pages=64,
                  engine_postings_cache_entries=1024)
    if args.workload == "serve_read":
        record.update(index_bytes=inp.index_bytes, clients=serving.SERVE_CLIENTS,
                      topk_per_second=serving.TOPK_PER_SECOND)
    else:
        record.update(events=len(inp.events), readers=1,
                      delete_share=inputs.DELETE_SHARE)
    return record


def _attribution_report(workload: str, values: dict) -> str:
    base = ("of pipeline wall time" if workload.startswith("batch")
            else "of client request latency" if workload == "serve_read"
            else "of the ingest loop")
    lines = [f"attribution ({workload}, self time {base}, "
             f"base {values['trace.window_s']:.3f} s):"]
    shares = [(name.split(".", 1)[1], value) for name, value in values.items()
              if name.startswith("share.")]
    for layer, share in sorted(shares, key=lambda item: -item[1]):
        lines.append(f"  {layer:<9s} {100.0 * share:6.2f}%")
    lines.append(f"  trace.unattributed_frac = {values['trace.unattributed_frac']:.4f}, "
                 f"trace.overhead_frac = {values['trace.overhead_frac']:.4f}")
    return "\n".join(lines)


def run(args) -> dict:
    import inputs
    import measure
    from hostprobe import HostProbe

    sizes = inputs.SIZES[args.size]
    setup, measure_workload, trace_workload = _functions(args.workload)
    if args.workload in ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd() / ".perfbench"
    work = root / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results = root / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        with HostProbe(work / "probe") as probe:
            inp, setup_s, setup_raw = _setup(setup, sizes, args.seed, work, probe)
            # The peak covers the measured work, not the oracle and inputs
            # set-up built (they stay resident, so they are its floor).
            measure.reset_peak_rss()
            measured = (trace_workload if args.trace else measure_workload)(
                inp, args.seed, work / "run", args.seconds, probe)
            # Read before the probe processes are reaped: children only
            # count once reaped, and only the program's workers belong in it.
            peak_rss_mb = measure.peak_rss_mb()
        values, attempted, failed, extra = measured
        context = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **measure.host_context(),
            "inputs": _input_sizes(args, inp),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    declared = declared_metrics(args.trace)
    if args.trace:
        values["failed_frac"] = failed / attempted
        extra.dump(results / f"{stem}.intervals.jsonl")
        print(_attribution_report(args.workload, values), file=sys.stderr)
    else:
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        # What the reported times were before the host-speed correction.
        context["uncorrected"] = {"setup": setup_raw, "run": extra}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
    }
    (results / f"{stem}.json").write_text(
        json.dumps({"context": context, **result}, indent=2) + "\n")
    print(json.dumps({"context": context}), file=sys.stderr)
    return result


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the parallel engine
    starts.  Left alone it exits only after this process does, so it would
    outlive the run as an orphan."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _terminated(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {source}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    # A terminated run unwinds, so every child it started is stopped and reaped.
    signal.signal(signal.SIGTERM, _terminated)
    try:
        result = run(args)
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
