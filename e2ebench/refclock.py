"""Host seconds at a fixed reference speed.

The benchmark's host is a share of a larger machine, and the speed of
its CPU drifts by up to half over tens of seconds (a fixed pure-Python
loop takes anywhere from 0.15 s to 0.26 s, with CPU time equal to wall
time, so the process is not descheduled: the core itself runs slower).
A wall time measured in plain seconds then tells more about the
neighbours than about the program.

:class:`RefClock` measures the host's speed while the program runs.  A
``SIGALRM`` timer interrupts the process every ``period`` seconds and
runs a short fixed *probe*: interpreter work of the kind the simulator
does (calls, attribute and dict access, list and heap operations,
float arithmetic).  The time between two probes is scaled by
``REFERENCE_PROBE_S`` over the mean duration of the two probes around
it, and the probes' own time is left out.  The sum is the time the
same work would have taken on a host that runs the probe in
``REFERENCE_PROBE_S``: a faster program reads lower, a slower host does
not read higher.

Not all work slows down as much as the probe.  The simulator's own
Python code does (a share of 1 fits ``allreduce_ring`` and
``hpl_replay_traced`` best); NumPy copies and ``blake2b`` hashing slow
down less, so ``nas_dt_online``, which spends most of its time there,
scales only half of its time by the probe (see ``workloads.py``).

Signal handlers run between bytecodes of the main thread, so a long
call into C (a NumPy copy, a hash) delays the next probe and that
segment is scaled by the probes around it.
"""

from __future__ import annotations

import heapq
import signal
from time import monotonic

#: probe duration that defines one reference second: about the probe's
#: time in the fast phases of a 2-vCPU Intel Xeon VM with Python 3.11
#: (10.2 ms at the 20th percentile of 875 probes; the slow phases take
#: 16-20 ms).  Never change it: every recorded time of the benchmark is
#: in these units.
REFERENCE_PROBE_S = 0.010
#: probe repetitions
PROBE_ROUNDS = 12000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def probe() -> float:
    """Run the fixed probe once; return its host seconds."""
    start = monotonic()
    table: dict[int, _Item] = {}
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        item = _Item(i & 63, i * 0.5)
        table[item.key] = item
        heapq.heappush(heap, (item.value * 1.000001, i))
        if len(heap) > 32:
            acc += heapq.heappop(heap)[0]
        got = table.get((i * 7) & 63)
        if got is not None:
            acc += got.value / (1.0 + got.key)
    return monotonic() - start


class RefClock:
    """Probes the host's speed while it runs and converts the host time
    between two of its probes into reference seconds.

    Times are ``time.monotonic()`` values, which are system-wide, so a
    point taken by another process (the parent's spawn time) can be
    measured from too.
    """

    def __init__(self, period: float = 0.2) -> None:
        self.period = period
        #: ``(start, duration)`` of every probe, in order
        self.probes: list[tuple[float, float]] = []
        self._previous_handler = None

    def tick(self) -> float:
        """Probe now; return the probe's start, a point that the
        conversions below can measure from or to."""
        start = monotonic()
        self.probes.append((start, probe()))
        return start

    def start(self) -> float:
        """Probe now and then every ``period`` seconds."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._alarm)
        begin = self.tick()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return begin

    def _alarm(self, _signum, _frame) -> None:
        self.tick()
        # one-shot, re-armed after the probe, so probes never nest
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop(self) -> float:
        """Stop the timer and probe a last time."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return self.tick()

    def reference_seconds(self, begin: float, end: float,
                          share: float = 1.0) -> float:
        """Reference seconds of the work between two points, the probes
        excluded.  ``end`` is a :meth:`tick` point; a ``begin`` before
        the first probe is scaled by that probe alone.

        ``share`` is the part of the work whose speed follows the
        probe's; the rest is taken to run at the same speed whatever the
        probe reads.
        """
        def scale(probe_s: float) -> float:
            return share * REFERENCE_PROBE_S / probe_s + 1.0 - share

        inside = [p for p in self.probes if begin <= p[0] <= end]
        first_start, first_probe = inside[0]
        total = (first_start - begin) * scale(first_probe)
        for (t0, d0), (t1, d1) in zip(inside, inside[1:]):
            total += (t1 - t0 - d0) * scale((d0 + d1) / 2)
        return total

    def host_seconds(self, begin: float, end: float) -> float:
        """Host seconds between two points, the probes excluded."""
        return (end - begin) - sum(d for t, d in self.probes
                                   if begin <= t < end)
