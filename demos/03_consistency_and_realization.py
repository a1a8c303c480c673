"""Consistency of projection tuples and realization back into the model.

Coordinates, one per subsurface, come from a genuine point exactly when
every overlapping and nested pair satisfies a min condition.  The
realization walks the constructive route: pants slopes from component
coordinates, swap in a twist-demanding annulus, then build transversals
by twisting.
"""

import numpy as np

from coarsegeo.consreal import (bgit_audit, consistency_check,
                                exact_system_for, realize,
                                tuple_of_projections)
from coarsegeo.constants import default_constants
from coarsegeo.harness import random_point
from coarsegeo.surfmodel import (AnnularPoint, ModelSurface, Slope, Subsurface,
                                 ZERO, base_point, farey_geodesic,
                                 model_distance)

cn = default_constants()
surface = ModelSurface(((1, 1), (1, 1)), flavor="marking")
rng = np.random.default_rng(7)

print("=== real points project to consistent tuples ===")
x = random_point(surface, rng, steps=18)
system = exact_system_for(x)
z = tuple_of_projections(x, system)
report = consistency_check(system, z, m=cn["m1_consistency"])
print(f"verdict: {report.verdict}, realized constant {report.realized_m}")

print()
print("=== realization round trip ===")
x2 = realize(system, z, m=cn["m_realize"])
print("distance from the original:", model_distance(x, x2))

print()
print("=== a twist demand forces the pants curve ===")
base = base_point(ModelSurface(((1, 1),), flavor="marking"))
core = Slope(1, 3)
sys2 = exact_system_for(base, extra_cores=[(0, core)])
coords = tuple_of_projections(base, sys2)
coords[Subsurface("annulus", 0, core)] = AnnularPoint(500)
out = realize(sys2, coords, m=cn["m_realize"])
print("realized pants slope:", out.alpha(0), "(the demanding core)")

print()
print("=== bounded geodesic image ===")
geo = farey_geodesic(Slope(3, 7), Slope(-11, 4))
for core in (ZERO, geo[1]):
    v = bgit_audit(geo, core, bound=cn["m0_bgit"])
    if v.disjoint_hit:
        print(f"core {core}: on the geodesic, dichotomy by disjointness")
    else:
        print(f"core {core}: twist image {v.realized} <= {v.bound}")
