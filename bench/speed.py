"""The machine's current speed, measured by a fixed probe, so that timings
can be given at one reference speed.

The machine the benchmark was tuned on (2 vCPUs shared with other tenants)
changes speed by up to 2x over seconds to minutes: a plain stdlib loop
takes 13 ms for stretches of ten seconds and more, then 18 ms.  The
program runs slow by about the same factor over the same stretches.  So
every INTERVAL_S the benchmark times a burst of BURST runs of a fixed loop
that never touches the program, and scales each unit's time, less the
probes' time, by REFERENCE_NS over the probe's mean time while the unit
ran.  A figure at reference speed is the time the unit would take on this
machine when one probe takes REFERENCE_NS.  The probe does not depend on
the program, so a change to the program moves the scaled figures as it
moves the wall-clock ones.
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter_ns

PROBE_ROUNDS = 200
REFERENCE_NS = 500_000  # one probe at reference speed; the tuning machine takes 400-760 us
INTERVAL_S = 0.05
BURST = 3  # probes per measurement of the speed


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def key(self):
        return (self.a, self.b, self.c)


def probe_ns():
    """Wall time of one fixed loop, in ns.  Half of it is small objects,
    tuples, sets and a sort, the way the program's model and tree code
    spend their time; half is integer arithmetic, the way the loss and the
    verifier's search do.  On the tuning machine, over ten-second windows,
    this mix followed the program's speed on every workload better than
    either half alone."""
    t0 = perf_counter_ns()
    seen, items = set(), []
    for i in range(PROBE_ROUNDS):
        item = _Item(i & 15, i >> 4, "x")
        k = item.key()
        if k not in seen:
            seen.add(k)
            items.append(item)
        hash(frozenset(((i & 7, 1), (i & 3, 2))))
    items.sort(key=_Item.key)
    s = 0
    for i in range(PROBE_ROUNDS * 16):
        s = (s * 31 + i) & 0xFFFF
    return perf_counter_ns() - t0


class Speed:
    """The machine's speed over time, for timing units of work.

    Readings from now() pair a clock that stops while a probe runs with the
    integral of the probe's level (the median time of the last burst) over
    that clock; span() turns two readings into the work's wall time and
    its time at reference speed, scaled by the mean level between them.
    Between start() and stop() a timer signal runs a burst every
    INTERVAL_S, also in the middle of a unit, so a long unit is scaled by
    the speed it ran at.  Without the timer the level stays that of the
    first burst."""

    def __init__(self):
        self.probes = []  # every probe, ns
        self._spent = 0  # ns spent probing
        self._integral = 0.0
        self._probe()
        self._t = self._clock()

    def _clock(self):
        return perf_counter_ns() - self._spent

    def _probe(self):
        t0 = perf_counter_ns()
        burst = [probe_ns() for _ in range(BURST)]
        self.probes += burst
        self.level = median(burst)
        self._spent += perf_counter_ns() - t0

    def _tick(self, signum, frame):
        t = self._clock()
        self._integral += self.level * (t - self._t)
        self._t = t
        self._probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self):
        t = self._clock()
        return t, self._integral + self.level * (t - self._t)

    @staticmethod
    def span(start, end):
        """(wall ns, ns at reference speed) from reading start to end."""
        ns = end[0] - start[0]
        if ns <= 0:
            return 0, 0.0
        return ns, ns * REFERENCE_NS * ns / (end[1] - start[1])
