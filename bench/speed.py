"""How fast the benchmark's CPU runs Python, sampled while it works.

The benchmark runs on a shared host whose processors change speed in
phases of seconds: the same fixed Python loop takes up to 1.9x as long in
a slow phase as in a fast one, in CPU time as much as in wall time, and
the two vCPUs of the reference machine change speed independently.  A
run's median cannot remove a phase as long as the run.  So ``run.py``
pins itself, and with it every process it starts, to one CPU, and runs
this module's :func:`sample` loop beside the workload on that CPU: every
:data:`PERIOD_S` it times one call of :func:`kernel`, a fixed piece of
Python that no change to the program can touch, by the CPU time the call
took.  :func:`reference_seconds` turns a timed unit's wall time into
*reference seconds*, scaling it by :data:`REFERENCE_S` over the kernel's
mean time during the unit: a unit that takes 2 s in a typical phase reads
2 s, and the same unit in a phase where everything runs 1.5x slower also
reads 2 s.

    python bench/speed.py FILE     # sample until terminated
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

#: About the median CPU time of one :func:`sample` reading on the
#: reference machine (two-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7)
#: over the benchmark runs that set its bounds.  Only ratios to it
#: matter: it sets the scale of reported times.
REFERENCE_S = 0.00052

#: Time between readings.  A reading costs two kernel calls, about 2.5%
#: of the CPU the workload shares with the sampler.
PERIOD_S = 0.05

#: A unit shorter than this many readings is scaled by the readings
#: nearest to it in time.
MIN_READINGS = 10

Sample = Tuple[float, float]     # (time.monotonic(), kernel CPU seconds)


class _Event:
    __slots__ = ("due", "flow", "size")

    def __init__(self, due: float, flow: int, size: int) -> None:
        self.due = due
        self.flow = flow
        self.size = size


def kernel() -> float:
    """A fixed piece of the work the simulator does: an event heap, small
    objects, attribute access, dict updates and float arithmetic."""
    heap = []
    sent = {}
    now = 0.0
    for i in range(64):
        heapq.heappush(heap, (i * 0.001, i, _Event(i * 0.001, i & 7, 1448)))
    for i in range(400):
        now, _, event = heapq.heappop(heap)
        sent[event.flow] = sent.get(event.flow, 0) + event.size
        rate = sent[event.flow] / (now + 1e-3)
        heapq.heappush(heap, (now + 1448 / (rate + 1.0) + 0.0005, 64 + i,
                              _Event(now, (event.flow * 5 + i) & 7,
                                     event.size)))
    return now


def sample(path: str) -> None:
    """Append a reading to ``path`` every :data:`PERIOD_S`, forever.  The
    first kernel call of a reading refills the caches the workload
    evicted; the second is timed, in CPU time, so the time the sampler
    waits for the CPU does not count."""
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while True:
            time.sleep(PERIOD_S)
            kernel()
            started = time.thread_time()
            kernel()
            out.write(f"{time.monotonic()!r} "
                      f"{time.thread_time() - started!r}\n")


class Sampler:
    """The :func:`sample` loop in a child process, for a ``with`` block.
    The child inherits the caller's CPU affinity."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._proc = None

    def __enter__(self) -> "Sampler":
        self._proc = subprocess.Popen([sys.executable, __file__,
                                       str(self.path)])
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait()

    def readings(self) -> List[Sample]:
        """Every complete reading so far, in time order."""
        if self._proc.poll() is not None:
            raise RuntimeError(f"the speed sampler exited with "
                               f"{self._proc.returncode}")
        out = []
        text = self.path.read_text(encoding="utf-8") \
            if self.path.exists() else ""
        for line in text.splitlines(keepends=True):
            if line.endswith("\n"):
                at, seconds = line.split()
                out.append((float(at), float(seconds)))
        return out


def reference_seconds(start: float, end: float,
                      readings: List[Sample]) -> float:
    """The wall time from ``start`` to ``end`` (``time.monotonic()``) in
    reference seconds, given the sampler's ``readings``: scaled by the
    readings taken meanwhile, or by the :data:`MIN_READINGS` nearest."""
    inside = [seconds for at, seconds in readings if start <= at <= end]
    if len(inside) < MIN_READINGS:
        middle = (start + end) / 2
        nearest = sorted(readings, key=lambda r: abs(r[0] - middle))
        inside = [seconds for _, seconds in nearest[:MIN_READINGS]]
    if not inside:
        raise ValueError("the speed sampler took no readings")
    return (end - start) * REFERENCE_S / statistics.mean(inside)


if __name__ == "__main__":
    sample(sys.argv[1])
