"""Machine-speed probe that puts measured times on a reference scale.

Shared hosts change speed by up to 2x for tens of seconds at a time, which
is far more than the changes the benchmark has to resolve.  While a worker
runs its operations, a SIGALRM handler times PROBE_LOOP, a fixed loop of the
scalar float and complex arithmetic the library's hot paths do, every
PROBE_INTERVAL_S of wall time.  An operation's wall time, less the probe
time inside it, is multiplied by (REF_S / p) ** SPEED_EXPONENT, where p is
the probe's median time during the operation: the result is the
operation's time at the speed where the probe loop takes REF_S, about that
of an unloaded 2-vCPU Intel Xeon host with Python 3.11.  The handler runs
between bytecodes of the main thread, so it never splits a numpy call.
"""
from __future__ import annotations

import cmath
import math
import signal
import statistics
import time

REF_S = 2.5e-4
PROBE_INTERVAL_S = 0.025
#: the library slows by less than the probe loop: over 30 runs on a 2-vCPU
#: Intel Xeon (KVM) host whose probe time swung between 0.22 and 0.48 ms,
#: the spread of the rescaled medians was smallest near this power
SPEED_EXPONENT = 0.7


def rescale(seconds, probe_s):
    """`seconds` measured while the probe loop took `probe_s`, at reference speed."""
    return seconds * (REF_S / probe_s) ** SPEED_EXPONENT


def probe_loop():
    acc = 0j
    for k in range(1, 300):
        w = complex(math.ldexp(1.0 + k / 300.0, -(k % 40)), 0.5 - k / 600.0)
        acc += cmath.exp(1j * math.atan2(w.imag, w.real)) * math.log(abs(w))
    return acc


class SpeedProbe:
    """Samples (start, duration) of the probe loop on a wall-clock timer."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def sample(self):
        t0 = time.perf_counter()
        probe_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        for _ in range(3):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(3):
            self.sample()
        return False

    def normalize(self, t0, t1):
        """Reference-speed duration of the interval [t0, t1] of perf_counter."""
        inside = [d for s, d in self.samples if s >= t0 and s + d <= t1]
        if inside:
            speed = statistics.median(inside)
        else:
            before = [d for s, d in self.samples if s + d <= t0][-1:]
            after = [d for s, d in self.samples if s >= t1][:1]
            speed = statistics.mean(before + after)
        return rescale(t1 - t0 - sum(inside), speed)
