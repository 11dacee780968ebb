"""A fixed reference task that tracks how fast this machine runs right now.

The sandbox this benchmark was built on shares its cores with other tenants,
and the same run took a third longer from one minute to the next.  The
round time ``wall_s`` is therefore reported at a nominal machine speed:
each timed part is multiplied by REFERENCE_S over the mean time of this task
run during and just before it, in the same process.  The task mixes what the program's
hot path does: numpy products over 8 and over 1024 arguments, and scalar
complex arithmetic in Python.  It shares no code with the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.016  # mean time of one task on the 2-core sandbox of README.md
INTERVAL_S = 0.3  # time between samples while a workload runs


def _task() -> complex:
    """Small numpy products, large ones and a scalar complex loop: about 6, 4 and 5 ms."""
    ppow = 0.2 ** np.arange(24)
    small = np.linspace(0.5, 2.0, 8) * np.exp(0.3j)
    large = np.linspace(0.5, 2.0, 1024) * np.exp(0.3j)
    acc = 0j
    for k in range(300):
        zc = (small * (1 + 1e-3 * k))[:, None]
        acc += complex(np.prod((1.0 - zc * ppow) * (1.0 - 0.2 * ppow / zc), axis=-1).sum())
    for k in range(4):
        zc = (large * (1 + 1e-3 * k))[:, None]
        acc += complex(np.prod((1.0 - zc * ppow) * (1.0 - 0.2 * ppow / zc), axis=-1).sum())
    w = 0.7 + 0.1j
    for _ in range(30000):
        w = w * (1.0 - 0.001j) + 0.5 / (w + 2)
    return acc + w


class Clock:
    """Times parts of a workload, and rescales each by the task run during it.

    ``start`` samples the task if INTERVAL_S seconds have passed since the
    last sample, and ``tick`` does the same from inside a part.  ``stop``
    returns the part's time with the task's own time taken out, and that time
    times REFERENCE_S over the mean of the samples from the last one before
    the part to its end.  This machine switches between a fast and a slow
    state within seconds, so a part is rescaled by the samples nearest to it.
    Without ``rescale`` the task never runs and both times are the same.
    """

    def __init__(self, rescale: bool = True) -> None:
        self.rescale = rescale
        self.samples: list[float] = []
        self._spent = 0.0
        self._last = -float("inf")

    def tick(self) -> None:
        t0 = time.perf_counter()
        if self.rescale and t0 - self._last >= INTERVAL_S:
            _task()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self._spent += t1 - t0
            self._last = t1

    def start(self) -> tuple[float, float, int]:
        self.tick()
        return time.perf_counter(), self._spent, len(self.samples)

    def stop(self, token: tuple[float, float, int]) -> tuple[float, float]:
        """(measured seconds, seconds at the nominal machine speed) since ``start``."""
        t0, spent0, k0 = token
        measured = time.perf_counter() - t0 - (self._spent - spent0)
        if not self.rescale:
            return measured, measured
        return measured, measured * REFERENCE_S / statistics.fmean(self.samples[k0 - 1 :])
