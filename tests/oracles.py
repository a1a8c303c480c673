"""Reference implementations kept only for differential tests.

These are the direct loops the package replaced: the projection graph
by an exhaustive triple loop over members, with each twisting number
read off a reduced `Slope`, and the glued quasi-tree distance by a
double loop over attachment pairs on top of a table built with scalar
metric calls.  They are slow on purpose and must stay obviously right.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from coarsegeo.bbf import FamilyY, QuasiTree
from coarsegeo.surfmodel import (AnnularPoint, Slope, Subsurface, annular_distance,
                                 apply_matrix, transport_matrix)


def twist_number_via_slope(core: Slope, curve: Slope) -> int:
    """Floor of the transported curve, reduced to lowest terms first."""
    img = apply_matrix(transport_matrix(core), curve)
    return img.p // img.q


def mutual_projection(u: Subsurface, v: Subsurface, w: Subsurface,
                      flavor: str, bers: float) -> float:
    """d_U of the boundaries of V and W, for three annuli on a component."""
    h = 1.0 / bers if flavor == "augmented" else None
    a = AnnularPoint(twist_number_via_slope(u.core, v.core), h)
    b = AnnularPoint(twist_number_via_slope(u.core, w.core), h)
    return annular_distance(a, b, flavor if flavor != "pants" else "marking")


def pk_edges(family: FamilyY, k: float, flavor: str, bers: float = 1.0) -> set[frozenset]:
    """Join V and W when no third member U sees them more than K apart."""
    edges: set[frozenset] = set()
    if family.kind == "component":
        return edges
    members = family.members()
    for v, w in itertools.combinations(members, 2):
        if all(mutual_projection(u, v, w, flavor, bers) <= k
               for u in members if u not in (v, w)):
            edges.add(frozenset((v, w)))
    return edges


def glued_distance(qt: QuasiTree, u, v) -> float:
    """Shortest glued path from u to v: the direct leg inside a shared
    complex, or the best over every pair of attachments (a, b) of
    leg to a + all-pairs table from a to b + leg from b."""
    nodes: list = []
    for _edge, (a, b) in sorted(qt.attachments.items(),
                                key=lambda kv: sorted(s.key() for s in kv[0])):
        for nd in (a, b):
            if nd not in nodes:
                nodes.append(nd)
    n = len(nodes)
    w = np.full((n, n), math.inf)
    np.fill_diagonal(w, 0.0)
    for i, j in itertools.permutations(range(n), 2):
        if nodes[i][0] == nodes[j][0]:
            w[i, j] = qt.complex_metric(nodes[i][0], nodes[i][1], nodes[j][1])
    for a, b in qt.attachments.values():
        i, j = nodes.index(a), nodes.index(b)
        w[i, j] = min(w[i, j], 1.0)
        w[j, i] = min(w[j, i], 1.0)
    for k in range(n):
        w = np.minimum(w, w[:, k, None] + w[None, k, :])
    best = qt.complex_metric(u[0], u[1], v[1]) if u[0] == v[0] else math.inf
    for i, a in enumerate(nodes):
        if a[0] != u[0]:
            continue
        da = qt.complex_metric(u[0], u[1], a[1])
        for j, b in enumerate(nodes):
            if b[0] != v[0]:
                continue
            cand = da + w[i, j] + qt.complex_metric(v[0], v[1], b[1])
            if cand < best:
                best = cand
    return float(best)
