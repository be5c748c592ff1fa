"""Host pace: how slowly the shared host runs at a given moment.

The machine the benchmark was written on, a 2-vCPU virtual machine on a
shared host, changes speed by up to a third over seconds to minutes, and
CPU time drifts with wall time.  A fixed calibration loop, which never
touches tracelink, measures that speed as a pace: 1.0 at the reference
speed, 1.3 when the same work takes 30 % longer.  The benchmark divides each
timing by the pace measured around and during it, so the timings are in
seconds at the reference speed.  A change to tracelink cannot move the pace.

`run.py` measures the pace between every two child processes; `probe.py`
measures it inside a child, from a timer signal, while the command runs.
"""
from __future__ import annotations

import signal
import statistics
import time

#: Seconds one calibration block takes at pace 1.0: its median on a 2-vCPU
#: shared virtual machine, Python 3.11, numpy 2.4.
CALIBRATION_REF_S = 0.0205


def calibration_block() -> float:
    """Seconds taken by a fixed mix of interpreter work and small-array numpy work."""
    import numpy as np

    start = time.perf_counter()
    counts: dict[int, int] = {}
    for k in range(80_000):
        counts[k & 1023] = counts.get(k & 1023, 0) + k
    values = np.arange(4096.0)
    for _ in range(400):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - start


def host_pace(repeats: int = 3) -> float:
    """The median pace of `repeats` calibration blocks."""
    return statistics.median(calibration_block() for _ in range(repeats)) / CALIBRATION_REF_S


class Pacer:
    """Measures the pace every `every_s` seconds inside a running program.

    A SIGALRM handler runs one calibration block.  Python runs the handler
    between bytecodes of the main thread, so it never interrupts numpy
    inside a call, and it touches no state of the program.  Each mark is
    (start on the monotonic clock, seconds the block took, pace); the block's
    seconds are taken back out of every timing the benchmark reports.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.marks: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        block = calibration_block()
        self.marks.append((start, time.monotonic() - start, block / CALIBRATION_REF_S))

    def __enter__(self) -> "Pacer":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
