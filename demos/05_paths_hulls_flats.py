"""Preferred paths, hulls, the no-backtracking extraction, and flats.

A preferred path shadows a geodesic in every complex at once.  Hull
membership checks all of those shadows; the extraction takes an
efficient but wobbly trace and returns the preferred path it secretly
follows; flats multiply one factor per component and admit an exact
fitting residual.
"""

import numpy as np

from coarsegeo.constants import default_constants
from coarsegeo.harness import backtracked_trace, random_pair, twist_flat
from coarsegeo.pathsflats import (HullQuery, extract_no_backtrack, flat_fit,
                                  candidate_flats, hull_membership,
                                  preferred_path)
from coarsegeo.surfmodel import (ModelSurface, model_distance,
                                 twist_move)

cn = default_constants()
surface = ModelSurface(((1, 1),), flavor="marking")
rng = np.random.default_rng(23)

print("=== a preferred path ===")
x, y = random_pair(surface, rng, steps=12, big_twist=40, min_distance=60)
path = preferred_path(x, y, cn)
print(f"distance {model_distance(x, y)}, path of {len(path)} moves:",
      {m[0] for m in path.moves})

print()
print("=== hull membership ===")
q = HullQuery(x, y, kappa=cn["kappa_hull"])
mid = path.points[len(path) // 2]
print("midpoint in the hull:", hull_membership(q, mid)[0])
rogue = twist_move(x, 0, 10 ** 4)
ok, worst = hull_membership(q, rogue)
print(f"wild twist in the hull: {ok} (worst subsurface {worst})")

print()
print("=== extraction removes backtracks ===")
trace = backtracked_trace(x, y, eps=0.05, R=400.0, rng=rng, constants=cn)
out = extract_no_backtrack(trace, x, y, eps=0.05, constants=cn)
print(f"trace of {len(trace.points)} samples -> path of {len(out)} points, "
      f"excursion {out.excursion:.1f} <= {cn['c_bb'] * 0.05 * 400:.0f}")

print()
print("=== flats and the fitting residual ===")
surface2 = ModelSurface(((1, 1), (1, 1)), flavor="marking")
flat = twist_flat(surface2, span=30)
samples = [flat.eval((t, -t)) for t in range(-25, 26, 5)]
fit, best = flat_fit(samples, candidate_flats(samples, cn))
print(f"residual of on-flat samples: {fit}")
noisy = [twist_move(p, 0, int(rng.integers(-2, 3))) for p in samples]
fit2, _ = flat_fit(noisy, candidate_flats(noisy, cn) + [flat])
print(f"residual with twist noise: {fit2}")
