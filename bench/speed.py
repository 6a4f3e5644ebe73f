"""Wall time corrected for the machine's speed, sampled while a call runs.

Each vCPU of a small shared cloud machine drifts between a fast state and
one ~1.8x slower, for seconds to minutes at a time, so the same call's
wall time varies by up to 1.8x from run to run.  ``SpeedMeter`` samples
the speed of the thread it runs in: every ``INTERVAL_S`` a ``SIGALRM``
handler times a short reference kernel, in the same thread, between the
measured call's own bytecodes.  The call is reported in reference
seconds: its wall time, less the time spent sampling, times the mean
speed over the samples, where speed 1 means the kernel took ``REF_S``.
A call on a slow stretch is long but sees slow samples, so its reference
time stays put; a program change that does less work shortens it.

The kernel mixes the three kinds of work in the verbs: dict updates in a
Python loop, numpy calls on short vectors, and a row-wise pass over a
table of embedding rows.  Over repeated calls of the same verb on a noisy
machine, the spread of the timings fell from 0.09-0.44 (wall) to
0.02-0.04 (reference seconds).  Sampling costs ~2-3% of the call's wall
time and is subtracted.  Samples taken before and after the call bracket
it, so a call shorter than ``INTERVAL_S`` still has two.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
# About the kernel's time on the 2-vCPU machine of ``baseline.json`` when it
# is fast.  It only sets the scale of reference seconds.
REF_S = 0.0023


_RNG = np.random.default_rng(0)
_ROWS = _RNG.random((1000, 50))
_ROW = _RNG.random(50)
_X = _ROW[:20].copy()
_Y = _ROW[-20:].copy()


def reference_kernel() -> float:
    table: dict[int, int] = {}
    for i in range(4000):
        key = i % 211
        table[key] = table.get(key, 0) + i
    x = _X
    for _ in range(200):
        x = x - 0.01 * (x - _Y)
        norm = np.linalg.norm(x)
    for _ in range(2):
        np.abs(_ROWS - _ROW).sum(axis=1).argsort()
    return norm + len(table)


class SpeedMeter:
    """Context manager; after it exits, ``wall_s`` is the raw wall time and
    ``ref_s`` the time in reference seconds.  Not reentrant: it owns
    ``SIGALRM`` while it runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self.wall_s = 0.0
        self.ref_s = 0.0

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.sampling_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedMeter":
        self._sample()
        self.sampling_s = 0.0  # the bracketing samples fall outside the call
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        work_s = self.wall_s - self.sampling_s
        self._sample()
        speed = sum(REF_S / s for s in self.samples) / len(self.samples)
        self.ref_s = work_s * speed
