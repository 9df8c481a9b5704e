"""Speed probe: corrects a pass's time for the machine's speed while it ran.

On a host whose cores are shared with other machines, the speed of one
process swings by up to a half over seconds to minutes: a fixed pure-Python
loop takes 25 ms in one ten-second window and 38 ms in the next, with no CPU
time stolen (process CPU time swings the same way). Raw pass times of the
same code then spread by a third from run to run.

While a probe is active, a real-time interval timer interrupts the process
every ``PERIOD_S`` and runs a fixed loop of ``PROBE_LOOPS`` additions between
two bytecodes of whatever is running, recording when the loop started and
how long it took. A stretch of time between two probes is credited at the
speed of the probe that ends it: ``length * NOMINAL_S / probe duration``. So
the corrected time is the time the stretch would have taken had the probe
run at ``NOMINAL_S``, and the probes' own time is left out. The probes take
about 1% of the run.
"""

from __future__ import annotations

import signal
import time

#: Seconds between probes.
PERIOD_S = 0.01
#: Additions in one probe loop.
PROBE_LOOPS = 2000
#: Probe duration that counts as full speed: about the fastest probes on a
#: 2-core x86-64 Xeon with Python 3.11.  It only sets the scale of corrected
#: times; both sides of a comparison use the same value.
NOMINAL_S = 60e-6


class SpeedProbe:
    """Context manager that probes the process's speed while it is open."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> SpeedProbe:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def corrected(self, start: float, end: float) -> tuple[float, float]:
        """(corrected seconds, probe seconds) of the interval [start, end).

        The tail after the last probe in the interval is credited at that
        probe's speed, or at the last earlier probe's, or at full speed when
        no probe has run yet.
        """
        factor = 1.0
        for t0, d in self.samples:
            if t0 >= start:
                break
            factor = NOMINAL_S / d
        total = probes = 0.0
        at = start
        for t0, d in self.samples:
            if t0 < start:
                continue
            if t0 >= end:
                break
            factor = NOMINAL_S / d
            total += (t0 - at) * factor
            probes += d
            at = t0 + d
        total += max(0.0, end - at) * factor
        return total, probes
