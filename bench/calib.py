"""Machine-speed calibration for the end-to-end times.

The effective CPU speed of a shared sandbox changes by tens of percent
within seconds, as other tenants load the host.  That drift would swamp
any regression bound, so a fixed reference loop is timed between queries
and each end-to-end time is reported at a nominal speed:

    t_reported = t_measured * NOMINAL_S / (median of the reference samples
                                           taken around the measurement)

"Around" is as long again as the measurement on either side, and at least
MIN_PAD_S, so a long query is judged by the speed over its own span rather
than by the few samples at its ends.  The loop is shaped like the word
evaluator (n slot words rebuilt and freely reduced at every step), so it
slows down as the evaluator does.  It is benchmark code: a change to
coxgraph does not change its cost, so the ratio between two commits'
reported times is the ratio of their measured times at equal machine
speed.  Raw times are printed beside the reported ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

NOMINAL_S = 0.005  # about what one reference pass takes on a quiet sandbox
EVERY_S = 0.05  # sample again once this much measured time has passed
MIN_PAD_S = 0.5

_SLOTS = 12
_STEPS = 220
_rng = random.Random(0)
_PAIRS = tuple(tuple(_rng.sample(range(_SLOTS), 2)) for _ in range(_STEPS))
_LETTERS = tuple(_rng.choice("abcd") for _ in range(_STEPS))


def _reduce(word: tuple) -> tuple:
    stack: list = []
    for x, e in word:
        if stack and stack[-1][0] == x and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((x, e))
    return tuple(stack)


def reference_seconds() -> float:
    """One pass of the reference loop.  The cyclic collector is off while
    it runs, so objects the program left alive cannot change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        slots = ((),) * _SLOTS
        for (i, j), x in zip(_PAIRS, _LETTERS):
            slots = tuple(
                _reduce(w + ((x, 1),)) if s == i
                else _reduce(w + ((x, -1),)) if s == j
                else _reduce(w)
                for s, w in enumerate(slots)
            )
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Reference samples taken between measurements."""

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken
        self.samples: list[float] = []  # seconds per reference pass
        self._since = EVERY_S

    def before(self) -> None:
        """Call right before a measurement: samples the loop once enough
        measured time has passed since the last sample."""
        if self._since >= EVERY_S:
            self.times.append(time.perf_counter())
            self.samples.append(reference_seconds())
            self._since = 0.0

    def after(self, seconds: float) -> None:
        self._since += seconds

    def scale(self, start: float, end: float) -> float:
        """The factor that brings a time measured between the perf_counter
        readings start and end to the nominal speed."""
        pad = max(MIN_PAD_S, end - start)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        near = self.samples[lo:hi] or [self.samples[max(0, lo - 1)]]
        return NOMINAL_S / statistics.median(near)
