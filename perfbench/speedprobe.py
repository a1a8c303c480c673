"""Machine-speed probe: scale measured times to a reference speed.

The speed of this benchmark's host drifts by 20-60% for seconds to
minutes at a time, in CPU time as much as in wall time, so plain wall
times of the same code spread past the benchmark's bounds from one run
to the next.  A ``SpeedProbe`` runs a fixed pure-Python chunk (dict
updates, integer formatting, square roots; about 3 ms) from a
``SIGALRM`` handler every ``INTERVAL_S`` of wall time while the program
runs, so the chunk samples the machine at the same moments as the
program and in the same state of its caches.  For a timed interval the
probe gives

* ``spent``: wall time the chunks took, which is taken out of the
  interval, and
* ``factor``: mean chunk time over ``NOMINAL_S``, its typical time
  between program ops on the reference box (a 2-vCPU Xeon VM at
  2.1 GHz, Python 3.11).

A time divided by its factor reads in seconds at the reference speed.
The chunk does not touch the package, so a change to the package moves
the scaled time as much as the raw one.  Shorter chunks (1 ms) tracked
the program less well, and so did a chunk walking a 60k-entry table.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
NOMINAL_S = 3.1e-3
CHUNK_STEPS = 6000


def chunk() -> float:
    d: dict[int, int] = {}
    s = 0.0
    for i in range(CHUNK_STEPS):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        s += math.sqrt(k + 1.0) + len(str(k))
    return s


class SpeedProbe:
    """Runs ``chunk`` every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.spent = 0.0
        self.count = 0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while a chunk runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        chunk()
        self.spent += time.perf_counter() - t0
        self.count += 1
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self) -> tuple[float, int]:
        return self.spent, self.count


def factor(before: tuple[float, int], after: tuple[float, int]) -> float:
    """Mean chunk time between two readings over its reference time."""
    spent, count = after[0] - before[0], after[1] - before[1]
    if count == 0:
        raise RuntimeError("no speed probe ran in the timed interval")
    return spent / count / NOMINAL_S
