"""Host-speed reference for the host-time metrics.

A shared host runs this benchmark's single thread at a speed that moves
by tens of percent from one second to the next and drifts over minutes,
as neighbours come and go on the same cores and caches.  Raw host times
then measure the neighbours as much as the program.  ``SpeedProbe``
measures the host's speed alongside the program and scales host times
to a fixed reference speed.

While armed, a ``SIGPROF`` interval timer interrupts the process every
``INTERVAL_S`` of its CPU time and runs a fixed pure-Python kernel (dict
walks, heap pushes and pops and float arithmetic over a table of a few
MiB: the kind of work the simulator does), timing it on the monotonic
clock.  The samples are spread evenly over the program's CPU time, so
their mean is the host's slowness averaged the way the program felt it.
The kernel's own time is taken out of every timed span, and a span's
time is scaled by ``REFERENCE_S`` over the mean sample taken during it:
the time it would take on a host that runs the kernel in exactly
``REFERENCE_S``.  The kernel uses nothing from the program, so making
the program faster cannot make the reference faster.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, NamedTuple, Optional, Sequence

#: CPU seconds of program work between two samples.
INTERVAL_S = 0.012
#: nominal time of one kernel run: the reference host's speed.
REFERENCE_S = 0.00025
#: kernel iterations per sample; about ``REFERENCE_S`` on one vCPU of a
#: current Intel Xeon cloud host.
KERNEL_STEPS = 400
#: fewest samples behind a span's own scale factor; shorter spans use
#: the samples of an enclosing span or, failing that, of the whole run.
MIN_SAMPLES = 8

_TABLE_SIZE = 1 << 16
_TABLE = {i: (i * 2654435761 + 12345) % _TABLE_SIZE for i in range(_TABLE_SIZE)}


def _kernel() -> float:
    table, heap = _TABLE, []
    key, acc = 1, 0.0
    for _ in range(KERNEL_STEPS):
        key = table[key]
        acc = acc * 0.5 + key * 1e-3
        heapq.heappush(heap, key)
        if len(heap) > 32:
            key ^= heapq.heappop(heap)
    return acc


class Span(NamedTuple):
    """A timed call: host seconds less the probe's own time, and the
    range of samples taken while it ran."""

    seconds: float
    first: int
    end: int


class SpeedProbe:
    """Times calls and converts their times to the reference speed.

    An unarmed probe takes no samples and leaves times as measured; the
    profiled runs use one, so the profile holds only the program.
    """

    def __init__(self, armed: bool = True) -> None:
        self.armed = armed
        self.samples: List[float] = []
        self._spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self._spent += dt

    def __enter__(self) -> "SpeedProbe":
        if self.armed:
            _kernel()  # warm the table into the caches once
            self._previous = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous)

    def span(self, fn, *args):
        """``(fn(*args), Span)``."""
        first, spent, t0 = len(self.samples), self._spent, time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0 - (self._spent - spent)
        return result, Span(seconds, first, len(self.samples))

    def reference(self, span: Span, around: Optional[Span] = None) -> float:
        """The span's seconds at the reference speed: scaled by
        ``REFERENCE_S`` over its mean sample.  A span that took fewer
        than ``MIN_SAMPLES`` uses those of ``around``, a span enclosing
        it, and failing that those of the whole run."""
        if not self.armed:
            return span.seconds
        for outer in (span, around):
            if outer is not None and outer.end - outer.first >= MIN_SAMPLES:
                window: Sequence[float] = self.samples[outer.first:outer.end]
                break
        else:
            window = self.samples
        if not window:
            raise RuntimeError("no host-speed samples taken")
        return span.seconds * REFERENCE_S * len(window) / sum(window)
