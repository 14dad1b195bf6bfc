"""Calibration probe: a fixed pure-Python workload timed next to every job.

On a shared 2-vCPU host the speed of the same pure-Python loop drifts by
up to a third over tens of seconds, so raw times from two runs minutes
apart differ by more than the changes the benchmark should detect. Each
timed interval is therefore scaled by ``NOMINAL_S / probe time``, averaged
over the probes timed just before it, inside it and just after it: times
read as on a machine where the probe takes ``NOMINAL_S``. The probe mixes the kind of
work degstab does in pure Python (bitmask backtracking, small tuples,
hashing, string building) and uses no degstab code, so no change to the
program can change it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

NOMINAL_S = 0.0016

_PETERSEN = [0] * 10
for _u, _v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
               (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]:
    _PETERSEN[_u] |= 1 << _v
    _PETERSEN[_v] |= 1 << _u


def _colourings(colors: list[int], v: int, k: int) -> int:
    if v == len(_PETERSEN):
        return 1
    used = 0
    m = _PETERSEN[v]
    while m:
        bit = m & -m
        m ^= bit
        c = colors[bit.bit_length() - 1]
        if c >= 0:
            used |= 1 << c
    total = 0
    for c in range(k):
        if not (used >> c) & 1:
            colors[v] = c
            total += _colourings(colors, v + 1, k)
            colors[v] = -1
    return total


def _tuples() -> int:
    rows = [tuple(range(i % 13, i % 13 + 8)) for i in range(600)]
    seen: dict[tuple, int] = {}
    for r in rows:
        seen[r] = seen.get(r, 0) + 1
    text = "".join(chr(63 + (hash(r) & 63)) for r in rows)
    return len(sorted(rows)) + len(text) + len(seen)


def probe() -> float:
    """Seconds the fixed probe workload takes now (one to two milliseconds).

    The cyclic collector is held off while it runs: its tuples are freed
    before it returns, so it leaves the collector's counts as it found them
    and moves no collection into or out of the measured program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _colourings([-1] * 10, 0, 3)
        _tuples()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the probe between jobs and every ``PERIOD_S`` within them.

    Callers call ``sample`` between jobs. While the sampler is active a
    ``SIGALRM`` handler also runs the probe in the measuring thread itself,
    so long jobs are covered evenly and nothing runs beside the workload.
    ``spent`` is the total time taken by probes, which callers subtract
    from what they time; ``on_probe`` is told each probe's length.
    """

    PERIOD_S = 0.1
    EDGE_S = 0.005

    def __init__(self, on_probe=None):
        self.times: list[float] = []
        self.lengths: list[float] = []
        self.spent = 0.0
        self.on_probe = on_probe
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            length = probe()
            self.times.append(start + length / 2)
            self.lengths.append(length)
            self.spent += length
            if self.on_probe is not None:
                self.on_probe(length)
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S / probe`` averaged over the probes taken during the
        span or within ``EDGE_S`` of its ends: the probes just before and
        just after a job, and those the timer ran inside it."""
        lo = bisect.bisect_left(self.times, start - self.EDGE_S)
        hi = bisect.bisect_right(self.times, end + self.EDGE_S)
        if lo == hi:
            raise ValueError("no probe was taken next to the span")
        return sum(NOMINAL_S / x for x in self.lengths[lo:hi]) / (hi - lo)
