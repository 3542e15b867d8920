"""Host speed, measured while the operations it scales run.

The 2-vCPU hosts this benchmark runs on change speed by up to 1.7x, for
every thread alike (CPU time grows with wall time, so it is not time stolen
by the hypervisor), and the phases switch within a fraction of a second. A
run's raw medians therefore depend on which phases it saw, not only on the
program.

So every INTERVAL_S of wall time a SIGALRM handler times a fixed
pure-Python probe (JSON encode and decode, dict and string work, as the
program does) on the main thread, also while that thread waits for a reply
or for a pool. A Stopwatch subtracts the probes that ran inside it from the
operation's wall and CPU time. The process is pinned to one CPU, so its CPU
time during an operation is the work of all its threads. That CPU time is
scaled by PROBE_REF_S over the median of the probes inside the operation
and the NEIGHBOURS probes on each side of it.

The time spent off the CPU is mostly fsync of store writes, and the shared
disk's latency changes from minute to minute too. So between operations,
at most every IO_INTERVAL_S, the runner times a write probe made as the
store makes a document (temporary file, fsync, rename), and the time off
the CPU is scaled by IO_REF_S over the median write probe within
IO_WINDOW_S of the operation.

The result is the operation's time as on a host where the probes take
PROBE_REF_S and IO_REF_S. The probes never call the program, so a change
that saves CPU work or writes moves the scaled times as it moves the raw
ones.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import signal
import statistics
import tempfile
import time
from pathlib import Path

from spans import clock

PROBE_REF_S = 0.0006  # about the probe's median on the 2-vCPU calibration host
INTERVAL_S = 0.02
NEIGHBOURS = 3
IO_REF_S = 0.0014  # about the write probe's median on the calibration host's ext4
IO_INTERVAL_S = 0.1
IO_WINDOW_S = 2.0
IO_MIN = 5  # write probes an operation is scaled by, at least

_DOC = {
    "things": [
        {"id": f"host-{i}", "software": [{"name": f"pkg{j}", "version": f"1.{j}.{i}"} for j in range(4)]}
        for i in range(40)
    ]
}


def probe() -> None:
    """One fixed piece of work; about 0.6 ms."""
    doc = json.loads(json.dumps(_DOC, sort_keys=True))
    pins = {}
    for thing in doc["things"]:
        pins[thing["id"]] = "/".join(f"{s['name']}={s['version']}" for s in thing["software"])


_PAGE = bytes(range(256)) * 16


def write_probe(directory: Path) -> None:
    """One document write as FileDocumentStore.put makes it: a temporary
    file, written, fsynced and renamed over the document."""
    fd, temporary = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "wb") as handle:
        handle.write(_PAGE)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, directory / "probe.json")


class HostSpeed:
    def __init__(self, io_dir: Path) -> None:
        self.times: list[float] = []  # probe starts, ascending
        self.probes: list[float] = []  # probe durations
        self.io_times: list[float] = []  # the same for the write probes
        self.io_probes: list[float] = []
        self.spent_wall = 0.0  # sums over all CPU probes so far
        self.spent_cpu = 0.0
        self.io_dir = io_dir
        self.running = False

    def _probe(self, *_: object) -> None:
        # The collector is held off during the probe. The probe frees all it
        # allocates, so a collection its allocations would trigger happens
        # in the program instead, and is not subtracted from an operation.
        collecting = gc.isenabled()
        gc.disable()
        started, cpu = clock(), time.process_time()
        probe()
        wall = clock() - started
        if collecting:
            gc.enable()
        self.spent_cpu += time.process_time() - cpu
        self.spent_wall += wall
        self.times.append(started)
        self.probes.append(wall)

    def write_sample(self, count: int = 1) -> None:
        """Times the write probe; less any CPU probe that ran during it."""
        for _ in range(count):
            started, spent = clock(), self.spent_wall
            write_probe(self.io_dir)
            self.io_times.append(started)
            self.io_probes.append(clock() - started - (self.spent_wall - spent))

    def write_tick(self) -> None:
        """Between operations: a write probe at most every IO_INTERVAL_S."""
        if self.running and (not self.io_times or clock() - self.io_times[-1] >= IO_INTERVAL_S):
            self.write_sample()

    def start(self) -> None:
        self.running = True
        self.write_sample(IO_MIN)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def factor(self, start: float, end: float) -> float:
        """PROBE_REF_S over the median of the probes in [start, end] and the
        NEIGHBOURS on each side."""
        first = max(0, bisect.bisect_left(self.times, start) - NEIGHBOURS)
        window = self.probes[first:bisect.bisect_right(self.times, end) + NEIGHBOURS]
        if not window:
            raise RuntimeError("no host speed probe near a timed operation")
        return PROBE_REF_S / statistics.median(window)

    def io_factor(self, start: float, end: float) -> float:
        """IO_REF_S over the median of the write probes within IO_WINDOW_S
        of [start, end], or of the IO_MIN nearest on each side if fewer."""
        first = bisect.bisect_left(self.io_times, start - IO_WINDOW_S)
        last = bisect.bisect_right(self.io_times, end + IO_WINDOW_S)
        if last - first < IO_MIN:
            first = max(0, bisect.bisect_left(self.io_times, start) - IO_MIN)
            last = bisect.bisect_right(self.io_times, end) + IO_MIN
        return IO_REF_S / statistics.median(self.io_probes[first:last])

    def scale(self, timed: list[tuple[float, float, float, float]]) -> list[float]:
        """(start, end, wall, CPU) samples as seconds at the reference speed."""
        return [cpu * self.factor(start, end) + (wall - cpu) * self.io_factor(start, end)
                for start, end, wall, cpu in timed]

    def median_probe_ms(self) -> float:
        return 1000 * statistics.median(self.probes)


class Stopwatch:
    """Wall and process CPU time of one operation, less the probes run in it."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self._probes = speed.spent_wall, speed.spent_cpu
        self.start, self._cpu = clock(), time.process_time()

    def stop(self) -> tuple[float, float, float, float]:
        """(start, end, wall, CPU) in seconds."""
        end, cpu = clock(), time.process_time() - self._cpu
        probe_wall, probe_cpu = self.speed.spent_wall - self._probes[0], self.speed.spent_cpu - self._probes[1]
        return self.start, end, end - self.start - probe_wall, cpu - probe_cpu
