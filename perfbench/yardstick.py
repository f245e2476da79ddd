"""The machine's speed right now, for scaling measured times.

Wall times on a shared host move with the load other tenants put on
it.  On the 2-core machine the benchmark was written on, a fixed 40 ms
pure-Python loop repeated for three minutes took from 0.63 to 1.14
times its median (5th to 95th percentile), and the means over 10 s
windows still spread by 18% of the median between their quartiles,
more than any bound a regression gate could use.  The benchmark therefore runs :func:`yardstick` right
before and right after each timed operation and reports the
operation's time *scaled* to the yardstick's reference duration::

    scaled = measured * REFERENCE_S / mean(yardstick before, after)

A scaled time reads like a wall time on this machine at its median
speed.  It moves when the program does more or less work, and hardly
when the host gets busier.  An operation that runs for seconds is
scaled by readings taken all along it (:class:`Sampled`).
"""

from __future__ import annotations

import signal
import time

#: The yardstick's median duration on the reference machine.
REFERENCE_S = 0.00026

#: Loop length of one yardstick pass.
_PASS = 2000


def yardstick() -> float:
    """Seconds one fixed pure-Python pass takes now (median of three)."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        table = {}
        for i in range(_PASS):
            table[i & 255] = total
            total += i * i
        samples.append(time.perf_counter() - started)
    samples.sort()
    return samples[1]


def scale(elapsed: float, before: float, after: float) -> float:
    """*elapsed* seconds at the reference speed, given the yardstick
    readings taken right before and right after it."""
    return elapsed * REFERENCE_S * 2.0 / (before + after)


class Sampled:
    """Times the ``with`` block, taking a yardstick reading before it,
    after it, and every *interval* seconds inside it on a timer signal
    (the reading's own time is left out of the block's).  ``scaled``
    is the block's time at the reference speed, given the mean of the
    readings; ``measured`` the block's own wall time."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.readings: list = []
        self.measured = self.scaled = 0.0
        self._spent = 0.0

    def _reading(self, _signum, _frame) -> None:
        started = time.perf_counter()
        self.readings.append(yardstick())
        self._spent += time.perf_counter() - started

    def __enter__(self) -> "Sampled":
        self.readings.append(yardstick())
        self._previous = signal.signal(signal.SIGALRM, self._reading)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        elapsed = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.measured = elapsed - self._spent
        self.readings.append(yardstick())
        mean = sum(self.readings) / len(self.readings)
        self.scaled = self.measured * REFERENCE_S / mean
