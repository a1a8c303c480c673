"""Coarse length, efficient paths, and the differentiation scale search.

A path is efficient at a scale when refining it at the grid scale does
not reveal extra length.  The staircase shows the whole story: it is an
honest geodesic for the L1 metric, inefficient at fine scales under
L-infinity, and the scale search finds exactly the scale where its
steps stop mattering.
"""

import math

import numpy as np

from coarsegeo.effdiff import (Box, BoxMap, PathTrace, coarse_length,
                               differentiate_box, efficiency_test)
from coarsegeo.hypgraph import lp_handle, real_line_handle

print("=== coarse length on the real line ===")
tr = PathTrace((0.0, 1.0, 2.0, 3.0), (0.0, 5.0, 3.0, 8.0),
               real_line_handle(), K=5.0, C=0.5)
for r in (1.0, 2.0, 3.0):
    print(f"length at scale {r}: {coarse_length(tr, r)}")
print("(monotone in the scale, and never below the endpoint gap of 8)")

print()
print("=== a sawtooth is inefficient at fine scales ===")
R = 800
ts = tuple(float(t) for t in range(0, R + 1, 4))
period = R / 2
vals = tuple(float(min(t % period, period - (t % period))) for t in ts)
saw = PathTrace(ts, vals, real_line_handle(), K=1.1, C=0.5)
for eps in (0.01, 0.2, 1.0):
    ok = efficiency_test(saw, R, eps, theta_eff=2.0 if eps < 1 else 2.2)
    print(f"eps = {eps}: efficient" if ok else f"eps = {eps}: not efficient")

print()
print("=== the scale search on a staircase ===")
step = 16


def staircase(P):
    """The staircase image of each row of P, a batch of points of R^1."""
    k, rem = np.divmod(np.asarray(P, float)[:, 0], 2 * step)
    return list(zip((step * k + np.minimum(rem, step)).tolist(),
                    (step * k + np.maximum(0.0, rem - step)).tolist()))


fmap = BoxMap(staircase, lp_handle(math.inf), K=1.0, C=1.0)
report = differentiate_box(fmap, Box.cube(4096, 1), eps0=0.1, theta0=0.1,
                           r0=8.0)
print(f"found scale {report.scale} at level {report.level}")
print(f"efficient tiles: {report.fraction_efficient:.0%} of "
      f"{len(report.box_verdicts)}")
print("(below the step the staircase wiggles; above it, straight)")
