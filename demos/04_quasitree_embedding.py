"""The projection graph, the quasi-tree of annular complexes, and the
product embedding.

All annuli on a component pairwise cross, so they form one transversal
family; gluing their complexes along boundary projections over the
projection graph produces a hyperbolic receiver.  The product of these
receivers sees the model space quasi-isometrically, with the glued
distance dominating half of the thresholded projection sum.
"""

import numpy as np

from coarsegeo.bbf import (build_embedding, embedding_audit,
                           embedding_for_pair, lower_bound_audit)
from coarsegeo.constants import default_constants
from coarsegeo.harness import random_pair
from coarsegeo.surfmodel import (ModelSurface, base_point, model_distance,
                                 twist_move, working_window)

cn = default_constants()
surface = ModelSurface(((1, 1),), flavor="marking")
rng = np.random.default_rng(11)

print("=== a working window and its projection graph ===")
x, y = random_pair(surface, rng, steps=14, big_twist=30, min_distance=40)
window = working_window(x, y)
print(f"window cores: {len(window[0])}")
emb = build_embedding(surface, window, k=cn["k_pk"])
qt = emb.trees["annuli[0]"]
print(f"projection graph edges at K = {cn['k_pk']}: {len(qt.pk.edges)}")

print()
print("=== embedded versus model distance ===")
d_model = model_distance(x, y)
d_glued = emb.distance(emb.project(x), emb.project(y))
print(f"model distance {d_model}, embedded distance {d_glued}")

print()
print("=== the lower bound with its factor one half ===")
v = lower_bound_audit(x, y, cn["k_pk"], cn["k_prime"])
print(f"embedded {v.lhs:.1f} >= half-sum {v.rhs:.1f}: {v.ok}")
single = lower_bound_audit(base_point(surface),
                           twist_move(base_point(surface), 0, 50),
                           cn["k_pk"], cn["k_prime"])
print(f"single 50-twist pair: {single.lhs:.1f} >= {single.rhs:.1f}")

print()
print("=== the ratio band over a random suite ===")
pairs = [random_pair(surface, rng, steps=12, big_twist=25, min_distance=12)
         for _ in range(25)]
lo, hi = embedding_audit(pairs, cn["k_pk"], cutoff=10.0)
print(f"embedded/model in [{lo:.2f}, {hi:.2f}] "
      f"(frozen band [{cn['psi_ratio_lo']:.2f}, {cn['psi_ratio_hi']:.2f}])")
