"""Host-normalized phase clock.

The benchmark runs on small shared hosts whose speed changes under it: on a
2-vCPU host a fixed kernel runs up to 1.6-1.8x slower for stretches of
seconds to tens of seconds while a neighbour is busy, and thread CPU time
slows with it (the loss is in shared cores and caches, not stolen time).
Wall-clock alone then measures the neighbour.  Every timed phase is
therefore reported in *host-normalized seconds*: its wall-clock divided by
the host slowdown measured while it ran,

    slowdown = C / C_NOM,

where ``C`` is the time of a fixed calibration kernel and :data:`C_NOM` its
committed quiet-host time, the benchmark's unit.  ``C`` is measured

* immediately before and after each phase (median of :data:`_REPS` kernel
  runs), and
* every :data:`SAMPLE_INTERVAL` seconds *during* the phase, by one kernel
  run from a ``SIGALRM`` handler, so that a speed change in the middle of
  a long phase is seen.  The handler's own time is taken out of the
  phase's wall-clock.

Between consecutive speed samples the phase's wall-clock is divided by the
mean slowdown of the two samples; the phase's normalized time is the sum.
The kernel mixes interpreter dict work with small numpy matmuls, the
solver's own instruction mix, and imports nothing from the solver, so no
change to the solver can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable, List, Tuple

import numpy as np

#: quiet-host time in seconds of one calibration kernel run on the
#: reference host (x86-64 2-vCPU container, single-threaded OpenBLAS),
#: fixed once: the benchmark's unit of time
C_NOM = 0.00180

#: iterations of the calibration kernel loop (~1.8 ms on the reference host)
_ITERS = 1000
#: kernel runs per bracketing calibration; their median is ``C``
_REPS = 5
#: seconds between in-phase speed samples (the samples take ~6 % of a
#: phase's wall-clock, which is subtracted)
SAMPLE_INTERVAL = 0.03

_M = np.random.default_rng(20170529).standard_normal((24, 24)) * 0.1


def _kernel() -> float:
    """Dict updates interleaved with 24x24 matmuls; returns a checksum so
    the work cannot be skipped."""
    table: dict = {}
    m = _M
    for i in range(_ITERS):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + i
        m = m @ _M
        if i % 64 == 63:
            m = _M + 0.0
    return float(m[0, 0]) + len(table)


def kernel_time() -> float:
    """Wall-clock of one calibration kernel run, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def calibration_time() -> float:
    """Median of :data:`_REPS` kernel runs, in seconds."""
    return statistics.median(kernel_time() for _ in range(_REPS))


class PhaseClock:
    """Times contiguous phases in host-normalized seconds.

    One calibration runs at construction; each :meth:`run` times its phase
    with in-phase speed sampling and then calibrates again, so consecutive
    phases share their bracketing calibrations.  Work done between two
    :meth:`run` calls would fall outside every bracket, so callers keep
    untimed work (checks, reference solves) after the last phase.
    """

    def __init__(self) -> None:
        #: every calibration and speed sample taken, in seconds
        self.samples: List[float] = []
        self._last = calibration_time()
        self.samples.append(self._last)

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any
            ) -> Tuple[Any, float, float]:
        """``(result, raw_s, normalized_s)`` of ``fn(*args, **kwargs)``."""
        # (start, end, kernel time) of each in-phase sample
        taken: List[Tuple[float, float, float]] = []

        def sample(signum: int, frame: Any) -> None:
            t0 = time.perf_counter()
            c = kernel_time()
            taken.append((t0, time.perf_counter(), c))

        previous = signal.signal(signal.SIGALRM, sample)
        t_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            out = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            t_end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        # a sample whose signal was already pending when the timer stopped
        # falls outside the phase
        taken = [t for t in taken if t[1] <= t_end]
        before = self._last
        self._last = calibration_time()
        # speed points: the bracketing calibrations and the in-phase
        # samples; each stretch of solver time between two points is
        # scaled by the mean speed of its two ends
        points = ([(t_start, t_start, before)] + taken
                  + [(t_end, t_end, self._last)])
        raw = norm = 0.0
        for (_s0, e0, c0), (s1, _e1, c1) in zip(points, points[1:]):
            dt = s1 - e0
            raw += dt
            norm += dt * 0.5 * (C_NOM / c0 + C_NOM / c1)
        self.samples += [c for _s, _e, c in taken] + [self._last]
        return out, raw, norm
