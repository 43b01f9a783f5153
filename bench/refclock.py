"""Host speed reference: a fixed loop timed in between the inputs.

The benchmark runs on shared machines whose speed swings by a third or
more within seconds, and the same swing moves every Python program on
them: over 3-7 s windows, a fixed integer loop and the simulator's own
work were correlated at 0.8-0.9.  So every pass times this loop about
every INTERVAL_S, between inputs and outside their timed windows, and
scales the pass's host times by REF_S / (mean loop time in that pass).
A reported time is therefore the time the pass would have taken on a
host where the loop takes REF_S.  Raw times are kept in the run record.

The loop allocates nothing and shares no code with kumsim, so a change
to the package never moves the reference.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 0.005       # nominal loop time; sets the scale of reported times
INTERVAL_S = 0.1    # host time between two loop samples


def kernel():
    s = 0
    for j in range(100000):
        s += j
    return s


class RefClock:
    """Loop samples taken during one pass."""

    def __init__(self):
        self.total = 0.0
        self.count = 0
        self.due = 0.0

    def sample(self):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.total += t1 - t0
        self.count += 1
        self.due = t1 + INTERVAL_S

    def tick(self, now):
        """Take a sample if INTERVAL_S has gone by since the last one."""
        if now >= self.due:
            self.sample()

    def factor(self):
        """Multiply a raw host time from this pass by this."""
        return REF_S * self.count / self.total
