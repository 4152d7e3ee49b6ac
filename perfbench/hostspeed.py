"""Host-speed normalization of measured times.

The benchmark runs on shared cores.  There, a fixed pure-Python kernel runs
at two speeds about 1.9x apart (about 100 us or about 190 us), switching
within seconds, and the share of slow time drifts over minutes.  Raw pass
times of one workload then spread by 13-28% between runs.

A ``Speedometer`` interrupts the process every ``interval`` seconds and
times ``KERNEL_ITERATIONS`` of the kernel.  The samples fall uniformly in
time.  At a sample the kernel runs at ``PROBE_REF_S / sample`` of full
speed, and the program's own code at that speed to the power ``EXPONENT``:
contention slows the kernel more than it slows the program.  The mean of
that power over a stretch of work is the share of full speed the work
received, and elapsed time times that share is the time the same work takes
at full speed.  The probes add about 1% to every time, at any speed.
"""

from __future__ import annotations

import signal
import time

KERNEL_ITERATIONS = 400
PROBE_REF_S = 100e-6  # the kernel on an uncontended core of this box
INTERVAL_S = 0.02
# Fitted on this box: across 35 s runs of each workload, the log of the
# median pass time falls with the log of the kernel's mean speed at slopes
# 0.70 (exact-sweep), 0.74 (mc-sample) and 0.80 (corpus-small).
EXPONENT = 0.75


def _kernel() -> int:
    table: dict[int, int] = {}
    x = 1
    for _ in range(KERNEL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + (x >> 7).bit_count()
    return len(table)


class Speedometer:
    """Timer-driven speed samples of the current process."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def share(self, since: int) -> float:
        """Mean share of full speed over the samples taken since ``mark()``
        returned ``since``."""
        window = self.samples[since:]
        if not window:
            raise RuntimeError("no speed sample in the window")
        return sum((PROBE_REF_S / s) ** EXPONENT for s in window) / len(window)
