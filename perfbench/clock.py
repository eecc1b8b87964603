"""Host-speed calibration: every timing the benchmark reports is rescaled.

The benchmark host is shared, and its speed drifts with other tenants'
load: a fixed 10 ms stdlib loop took 7.3 ms per pass over one 2.5 s
stretch and 12.5 ms over another, thirty seconds apart, with CPU time
tracking wall time (the host gets slower; the process is not descheduled).
No median within a run removes drift that lasts as long as the run.

So a :class:`Meter` runs a fixed stdlib-only calibration pass (dict fill
and lookups, a sort, set intersections; no code under test) on a
``SIGALRM`` interval timer, every :data:`INTERVAL_S` seconds, *while the
measured code runs* in the same process.  An interval of wall time is then
reported in *reference seconds*::

    (wall - time spent in passes) * NOMINAL_S / mean(passes in the interval)

— what it would have taken on a host where one pass takes
:data:`NOMINAL_S`, about its duration on an idle 2-vCPU reference host.  A
code change moves the wall time only; a host slowdown moves both.  Two
interleaved stdlib loops kept their time ratio within ±2.5% while each
one's own time moved by 40%.

The mean, not the median: the host also takes whole time slices away from
its virtual CPUs (``steal`` in ``/proc/stat``: 16-26% of the busy time in
some minutes, under 1% in others), and a pass that such a slice lands in
reads long.  The mean carries the share of time taken away; the median of
the passes stayed flat while the served workload's rounds took 35-45%
longer.  The garbage collector is off during a pass, so that a collection of the
measured code's garbage does not land in it.

A forked child inherits the handler but not the timer, and
:meth:`Meter.start` in a process other than the one that made the samples
so far starts over with none, after one discarded pass (a fresh fork's
first passes pay copy-on-write faults on the pass's data).  Worker
processes start and stop their meter around each build, so an idle worker
takes no samples, and ship the passes back with each build
(:meth:`Meter.since`); the parent rescales a whole round by the mean of
all of them (:func:`factor_of`).  The timer only interrupts the process it
runs in, between bytecodes; blocking system calls are retried (PEP 475).
"""

from __future__ import annotations

import gc
import os
import random
import signal
import statistics
from time import perf_counter
from typing import List, Optional, Tuple

#: Nominal duration of one calibration pass, in seconds.
NOMINAL_S = 0.0005

#: Seconds between two passes (about 2% of the time goes to passes).
INTERVAL_S = 0.025

#: An interval with fewer passes than this borrows the latest ones.
MIN_SAMPLES = 8

_R = random.Random(7)
_PAIRS = [(_R.random(), i) for i in range(800)]
_SETS = [set(range(i, i + 20)) for i in range(0, 120, 4)]


def _calibration_pass() -> float:
    table = {}
    for a, b in _PAIRS:
        table[b] = a
    total = 0.0
    for k in range(0, 800, 3):
        total += table[k]
    ordered = sorted(_PAIRS)
    return total + len(ordered) + sum(len(x & y) for x, y in zip(_SETS, _SETS[1:]))


#: A point in a meter's history: ``(passes so far, seconds spent in passes)``.
Mark = Tuple[int, float]


class Meter:
    """Calibration passes of one process, taken on a timer."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self.pid: Optional[int] = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection here would be the measured code's garbage
        start = perf_counter()
        _calibration_pass()
        took = perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.samples = []
            self.spent = 0.0
            _calibration_pass()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def mark(self) -> Mark:
        return len(self.samples), self.spent

    def since(self, mark: Mark) -> Tuple[List[float], float]:
        """The passes taken since *mark*, and the seconds spent in them."""
        return self.samples[mark[0]:], self.spent - mark[1]

    def factor(self, since: Mark) -> float:
        """Reference seconds per wall second over the passes since *since*."""
        window = self.samples[since[0]:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        if not window:
            self._tick(None, None)
            window = self.samples
        return NOMINAL_S / statistics.fmean(window)

    def reference(self, wall: float, since: Mark) -> float:
        """Reference seconds of *wall* wall seconds that began at *since*."""
        return (wall - (self.spent - since[1])) * self.factor(since)

    def overall(self) -> float:
        """Reference seconds per wall second over every pass so far."""
        return self.factor((0, 0.0))


def factor_of(passes: List[float]) -> float:
    """Reference seconds per wall second, from passes made elsewhere."""
    if not passes:
        start = perf_counter()
        _calibration_pass()
        passes = [perf_counter() - start]
    return NOMINAL_S / statistics.fmean(passes)
