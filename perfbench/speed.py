"""Host-speed calibration for the disctag benchmark.

On a shared host the speed of the processor the benchmark runs on drifts: in
phases from a fraction of a second to minutes every piece of work takes up to
twice as long, and the guest sees no steal time, so neither wall time nor CPU
time can tell the program's own speed from the host's.  The benchmark
therefore times a small fixed piece of work, a *unit*, while it measures, and
expresses each timing at the speed the host had at the time::

    normalized = measured / slowdown,   slowdown = mean unit time / UNIT_REFERENCE_S

Inside a timed command, :class:`Sampler` runs one unit from a ``SIGALRM``
handler every ``INTERVAL_S`` seconds, so the units sample the host during the
command itself; the time spent in the handler is taken out of the command's
time.  Around a fresh process, which cannot be sampled from inside,
:func:`slowdown` runs units back to back before and after it.

``UNIT_REFERENCE_S`` is the unit's time on an uncontended 2.1 GHz Xeon vCPU
(Python 3.11, numpy 2.4), sampled inside a command.  It only fixes the scale:
a normalized time is of the order of the time on that host when it is quiet,
and normalized times compare across runs.  A unit does the kinds of work disctag does (byte loops and
string formatting in Python, dictionary updates, a gather from a 20 MB float
table) and imports nothing from ``disctag``: a change to the program does not
change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

UNIT_REFERENCE_S = 0.00018  # one unit on an uncontended 2.1 GHz Xeon vCPU
INTERVAL_S = 0.02  # between units inside a timed command
BACK_TO_BACK_UNITS = 400  # units per slowdown() call, about 0.1 s

_WORDS = [f"w{i:07d}{'abcdefghij'[i % 10]}" for i in range(60)]
_TABLE = np.random.default_rng(0).standard_normal((1 << 18, 10))
_ROWS = np.random.default_rng(1).integers(0, 1 << 18, 200)


def unit() -> float:
    """Seconds taken by one unit of fixed work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for word in _WORDS:
        h = 0xCBF29CE484222325
        for byte in word.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        key = f"pre={word[:3]}|{h % 977}"
        counts[key] = counts.get(key, 0) + 1
    total = float(_TABLE[_ROWS].sum())
    if not counts or total != total:
        raise AssertionError("calibration unit produced nothing")
    return time.perf_counter() - start


def slowdown(units: int = BACK_TO_BACK_UNITS) -> float:
    """The host's slowdown against the reference, from units run back to back."""
    return statistics.mean(unit() for _ in range(units)) / UNIT_REFERENCE_S


class Sampler:
    """Samples the host's speed during a timed region from a ``SIGALRM`` handler.

    Use as a context manager around the region; then :meth:`normalized` turns
    the region's wall time into its time at the reference speed.
    """

    def __init__(self):
        self.units: list[float] = []
        self.spent = 0.0  # seconds inside the handler
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.units.append(unit())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.units.clear()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        if not self.units:  # a region shorter than one interval: sample it now
            return slowdown(20)
        return statistics.mean(self.units) / UNIT_REFERENCE_S

    def normalized(self, elapsed: float) -> float:
        """``elapsed`` without the handler's time, at the reference speed."""
        return (elapsed - self.spent) / self.slowdown
