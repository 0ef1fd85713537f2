"""How fast the host runs, sampled outside the program while it runs.

:class:`HostProbe` starts one small probe process per CPU the benchmark
may use, pinned to that CPU.  Every ``interval_s`` the probe runs a fixed
pure-Python micro-workload and appends ``perf_counter thread_cpu_seconds``
to its own file.  On a shared host that CPU time rises and falls with
contention for the physical core; :class:`HostSpeed` turns the samples
into the factor by which the host ran slower than the reference, second
by second, and converts a timed interval into reference seconds.

The probe is a separate process, so the program's threads, locks and
signal timing do not reach its samples; it only shares the CPU.  Run as
a script it is the probe process itself::

    python3 hostprobe.py CPU SAMPLES_FILE PARENT_PID INTERVAL_S
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

#: Probe CPU time that defines one reference second: the probe's time on
#: the development VM (2 vCPUs, Intel Xeon) when its vCPU ran uncontended.
PROBE_REFERENCE_S = 100e-6


def _probe_work() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(300):
        table[i & 63] = table.get(i & 63, 0) + i
        total += len(str(i))
    return total


def _probe_main(cpu: int, samples: Path, parent: int, interval: float) -> None:
    """Sample until the parent stops this process or goes away."""
    os.sched_setaffinity(0, {cpu})
    with samples.open("a") as out:
        while os.getppid() == parent:
            started = time.thread_time()
            _probe_work()
            out.write(f"{time.perf_counter()!r} {time.thread_time() - started!r}\n")
            out.flush()
            time.sleep(interval)


class HostProbe:
    """One pinned probe process per CPU in this process's affinity set.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    probes' timestamps compare with the benchmark's.
    """

    def __init__(self, directory: Path, interval_s: float = 0.05) -> None:
        self._directory = directory
        self._interval = interval_s
        self._probes: dict[int, tuple[subprocess.Popen, Path]] = {}

    def __enter__(self) -> "HostProbe":
        self._directory.mkdir(parents=True, exist_ok=True)
        for cpu in sorted(os.sched_getaffinity(0)):
            samples = self._directory / f"probe-cpu{cpu}.txt"
            process = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu),
                 str(samples), str(os.getpid()), repr(self._interval)],
                stdin=subprocess.DEVNULL,
            )
            self._probes[cpu] = (process, samples)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for process, _ in self._probes.values():
            process.terminate()
        for process, _ in self._probes.values():
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def _samples(self, path: Path) -> list[tuple[float, float]]:
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return []
        samples = []
        for line in lines:
            try:
                stamp, cost = map(float, line.split())
            except ValueError:  # the probe is still writing this line
                continue
            samples.append((stamp, cost))
        return samples

    def speed(self, cpus=None) -> "HostSpeed":
        """Host speed so far on ``cpus`` (default: every probed CPU)."""
        return HostSpeed([self._samples(path) for cpu, (_, path) in self._probes.items()
                          if cpus is None or cpu in cpus])

    def slowdown(self, start: float, end: float, cpus=None) -> float:
        """Wall time over reference time in ``[start, end]`` (>1: slower)."""
        speed = self.speed(cpus)
        if end <= start:
            return speed.at(end)
        return (end - start) / speed.reference_seconds(start, end)


class HostSpeed:
    """Host slowdown per ``BIN_S`` interval: the mean over CPUs of each
    CPU's median probe time in the interval, over the reference.

    Speed moved from one second to the next on the development VM, so a
    timed unit is converted interval by interval, not by one factor.
    Built from no samples, it is the identity: times as measured.
    """

    BIN_S = 1.0

    def __init__(self, per_cpu: list[list[tuple[float, float]]]) -> None:
        slow: dict[int, list[float]] = {}
        for samples in per_cpu:
            costs: dict[int, list[float]] = {}
            for stamp, cost in samples:
                costs.setdefault(int(stamp // self.BIN_S), []).append(cost)
            for interval, values in costs.items():
                slow.setdefault(interval, []).append(median(values))
        self._slow = {interval: mean(values) / PROBE_REFERENCE_S
                      for interval, values in slow.items()}
        self._overall = median(self._slow.values()) if self._slow else 1.0

    def at(self, stamp: float) -> float:
        """Slowdown of the interval holding ``stamp`` (>1: slower)."""
        interval = int(stamp // self.BIN_S)
        for near in (interval, interval - 1, interval + 1):  # a gap borrows a neighbour
            if near in self._slow:
                return self._slow[near]
        return self._overall

    def reference_seconds(self, start: float, end: float) -> float:
        """``[start, end]`` in reference seconds: each interval's share of
        wall time divided by that interval's slowdown."""
        total = 0.0
        stamp = start
        while stamp < end:
            edge = min(end, (int(stamp // self.BIN_S) + 1) * self.BIN_S)
            total += (edge - stamp) / self.at(stamp)
            stamp = edge
        return total


#: Times as measured, for the uncorrected figures kept with each result.
AS_MEASURED = HostSpeed([])


if __name__ == "__main__":
    _probe_main(int(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]),
                float(sys.argv[4]))
