"""Machine-speed calibration of a child process's timings.

On a shared host the speed a process gets drifts by tens of percent over
seconds to minutes, whatever the process does, and CPU time drifts with
wall time (the slowdown is fewer instructions per second, not time taken
away). A run cannot average that out when the drift outlasts it. So a
timed child runs a fixed probe every ``INTERVAL_S`` seconds from a timer
signal and reports each timed region twice:

    seconds    its wall time less the probe time that fell inside it
    slowness   the mean slowness of the probes in and around it: a probe's
               duration over its duration on the reference machine

``calibrated(seconds, slowness)`` is the region's time on the reference
machine: a region that ran while the machine was 1.3x slow took 1.3x
longer, and so did its probes.

A probe is interpreter work (arithmetic, dict updates) plus, once the child
hands over numpy, small-array numpy work of the shapes the encoder uses.
Neither touches the program's data or calls its code, so a change to the
program cannot move the probe. It runs at bytecode boundaries of the main
thread, never inside a C call, and takes about 3% of the time. The handler
imports nothing: an import inside it could run in the middle of one of the
program's own imports.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.1
# Probe durations on a 2-core VM (Python 3.11, numpy 2.4) in its fast state.
REFERENCE_PYTHON_S = 0.0015
REFERENCE_NUMPY_S = 0.0015
PYTHON_LOOPS = 6000
NUMPY_LOOPS = 60


def python_probe() -> int:
    total = 0
    counts: dict[int, int] = {}
    for i in range(PYTHON_LOOPS):
        total += (i * i) % 7
        counts[i & 63] = counts.get(i & 63, 0) + 1
    return total


def numpy_probe(np) -> float:
    x = np.full((16, 32), 0.5)
    w = np.full((32, 32), 0.25)
    for _ in range(NUMPY_LOOPS):
        h = np.tanh(x @ w)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
    return float(e[3, 4])


def calibrated(seconds: float, slowness: float) -> float:
    return seconds / slowness


class Calibrator:
    """Runs the probe on a timer signal and keeps when each ran, how long
    it took and how slow it was."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.numpy = None  # set by the child once numpy is fully imported
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.slowness: list[float] = []

    def probe(self, signum=None, frame=None) -> None:
        began = time.perf_counter()
        python_probe()
        middle = time.perf_counter()
        slowness = (middle - began) / REFERENCE_PYTHON_S
        if self.numpy is not None:
            numpy_probe(self.numpy)
            slowness = (slowness + (time.perf_counter() - middle) / REFERENCE_NUMPY_S) / 2
        self.starts.append(began)
        self.durations.append(time.perf_counter() - began)
        self.slowness.append(slowness)

    def start(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def region(self, began: float, ended: float) -> tuple[float, float]:
        """(wall time less probe time, mean slowness) of [began, ended].

        The probe runs in the main thread, so one that starts inside the
        region also ends inside it. The mean covers the probes inside the
        region plus the last one before it and the first one after it, so a
        region shorter than the interval still gets two.
        """
        lo = bisect.bisect_left(self.starts, began)
        hi = bisect.bisect_right(self.starts, ended)
        around = self.slowness[max(0, lo - 1):hi + 1]
        return ended - began - sum(self.durations[lo:hi]), sum(around) / len(around)
