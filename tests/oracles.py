"""Reference implementations kept only for differential tests.

These are the direct loops the package replaced: the projection graph
by an exhaustive triple loop over members, with each twisting number
read off a reduced `Slope`, and the glued quasi-tree distance by a
double loop over attachment pairs on top of a table built with scalar
metric calls; the horoball nearest points, positions and triangle
centres by ternary searches over an angle-linear parametrization of
the geodesic arc; the distance formula as one pass over every
candidate subsurface of the point pair, and again as the per-component
loop that also builds every contribution list; the Dehn twist matrix as
a conjugated shear; a slope's image under a matrix through the gcd of
the `Slope` constructor; the noisy box map one elementary move at a
time; and the greedy net packing that compares every image with every
kept one.  They are slow on purpose and must stay obviously right.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from coarsegeo.bbf import FamilyY, QuasiTree
from coarsegeo.pathsflats import StandardFlat
from coarsegeo.surfmodel import (AnnularPoint, ComponentState, Matrix, ModelPoint, Slope,
                                 Subsurface, _component_terms, annular_distance,
                                 candidate_subsurfaces, horoball_distance, mat_inv,
                                 subsurface_distance, transport_matrix, twist_number)


def mat_mul(m: Matrix, n: Matrix) -> Matrix:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def twist_matrix(core: Slope, n: int = 1) -> Matrix:
    """M^-1 shear(n) M for the transport M taking `core` to infinity."""
    m = transport_matrix(core)
    return mat_mul(mat_inv(m), mat_mul((1, n, 0, 1), m))


def distance_formula(x: ModelPoint, y: ModelPoint, threshold: float | None = None,
                     comps=None) -> tuple[float, list[tuple[Subsurface, float]]]:
    """Sum every candidate subsurface distance at or above the threshold."""
    t = x.surface.threshold if threshold is None else threshold
    total = 0.0
    contributing: list[tuple[Subsurface, float]] = []
    for w in candidate_subsurfaces(x, y, comps):
        d = subsurface_distance(x, y, w)
        if d >= t:
            total += d
            contributing.append((w, d))
    contributing.sort(key=lambda wd: wd[0].key())
    return total, contributing


def component_loop_distance_formula(x: ModelPoint, y: ModelPoint,
                                    threshold: float | None = None, comps=None,
                                    ) -> tuple[float, list[tuple[Subsurface, float]]]:
    """Each component's cached terms, added up while the contribution
    list is built."""
    surf = x.surface
    t = surf.threshold if threshold is None else threshold
    total = 0.0
    contributing: list[tuple[Subsurface, float]] = []
    for i in range(surf.n_components) if comps is None else comps:
        for w, d in _component_terms(surf, i, x.states[i], y.states[i], t):
            total += d
            contributing.append((w, d))
    contributing.sort(key=lambda wd: wd[0].key())
    return total, contributing


def apply_by_gcd(m: Matrix, s: Slope) -> Slope:
    """The image slope, reduced by the `Slope` constructor's gcd."""
    a, b, c, d = m
    return Slope(a * s.p + b * s.q, c * s.p + d * s.q)


def twist_number_via_slope(core: Slope, curve: Slope) -> int:
    """Floor of the transported curve, reduced to lowest terms first."""
    img = apply_by_gcd(transport_matrix(core), curve)
    return img.p // img.q


def twist_flat_point(flat: StandardFlat, t) -> ModelPoint:
    """A twist flat at lattice point t: each factor's transversal is its
    base transversal twisted until the twist coordinate equals t."""
    surface = flat.surface
    states = list(flat.base.states)
    for f, v in zip(flat.factors, t):
        if f.kind != "twist":
            raise ValueError("only twist factors")
        k = int(round(v)) - twist_number(f.core, f.tau0)
        length = surface.bers if surface.flavor == "augmented" else None
        states[f.comp] = ComponentState(f.core, apply_by_gcd(twist_matrix(f.core, k), f.tau0),
                                        length)
    return ModelPoint(surface, tuple(states))


def noisy_flat_image(flat: StandardFlat, noise: int, seed: int, p) -> ModelPoint:
    """`harness.noisy_flat_map`'s image of p on a twist flat: round and
    clamp to the lattice, then apply the hashed burst one move at a
    time (a flip allowed at step 0 only, else a unit twist)."""
    surface = flat.surface
    t = tuple(int(round(v)) for v in np.atleast_1d(np.asarray(p, float)))
    t = tuple(max(lo, min(hi, v)) for (lo, hi), v in zip(flat.box().intervals, t))
    x = twist_flat_point(flat, t)
    if noise <= 0 or surface.flavor == "pants":
        return x
    mix = hashlib.sha256(repr((seed, t)).encode()).digest()
    comp = mix[0] % surface.n_components
    for step in range(mix[1] % (noise + 1)):
        b = mix[2 + step]
        states = list(x.states)
        st = states[comp]
        if b % 3 == 0 and step == 0:
            length = surface.bers if st.length is not None else None
            states[comp] = ComponentState(st.tau, st.alpha, length)
        else:
            tau = apply_by_gcd(twist_matrix(st.alpha, 1 if b % 2 else -1), st.tau)
            states[comp] = ComponentState(st.alpha, tau, st.length)
        x = ModelPoint(surface, tuple(states))
    return x


def greedy_packing(images, distance, separation: float) -> list:
    """Keep an image when it is at least `separation` from every image
    kept so far, comparing it with each of them in turn."""
    kept: list = []
    for img in images:
        if all(distance(img, other) >= separation for other in kept):
            kept.append(img)
    return kept


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


def horoball_geodesic_point(a: tuple[float, float], b: tuple[float, float],
                            s: float) -> tuple[float, float]:
    """A point on the hyperbolic geodesic from a to b at parameter
    s in [0, 1] (angle- or log-linear, not arclength)."""
    (x1, y1), (x2, y2) = a, b
    if abs(x1 - x2) < 1e-12:
        return (x1, y1 ** (1 - s) * y2 ** s)
    c = (x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2) / (2.0 * (x1 - x2))
    rho = math.hypot(x1 - c, y1)
    th1 = math.atan2(y1, x1 - c)
    th2 = math.atan2(y2, x2 - c)
    th = th1 + s * (th2 - th1)
    return (c + rho * math.cos(th), rho * math.sin(th))


def horoball_point_to_segment(p: tuple[float, float], a: tuple[float, float],
                              b: tuple[float, float], iters: int = 60) -> float:
    """Distance from p to the geodesic arc [a, b]; the distance along a
    geodesic is convex, so ternary search is exact in the limit."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        d1 = horoball_distance(p, horoball_geodesic_point(a, b, m1))
        d2 = horoball_distance(p, horoball_geodesic_point(a, b, m2))
        if d1 <= d2:
            hi = m2
        else:
            lo = m1
    s = (lo + hi) / 2
    return horoball_distance(p, horoball_geodesic_point(a, b, s))


def horoball_center(a: AnnularPoint, b: AnnularPoint, c: AnnularPoint,
                    iters: int = 40) -> AnnularPoint:
    """The augmented triangle centre: scan the [a, b] arc for the point
    nearest both other sides, by ternary search over nested searches."""
    pa, pb, pc = a.coords(), b.coords(), c.coords()

    def g(s: float) -> float:
        p = horoball_geodesic_point(pa, pb, s)
        return max(horoball_point_to_segment(p, pb, pc),
                   horoball_point_to_segment(p, pa, pc))

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if g(m1) <= g(m2):
            hi = m2
        else:
            lo = m1
    px, py = horoball_geodesic_point(pa, pb, (lo + hi) / 2)
    return AnnularPoint(round(px), py)


def horoball_position(a: AnnularPoint, b: AnnularPoint, c: AnnularPoint,
                      iters: int = 40) -> float:
    """Arclength from a to the point of [a, b] nearest c."""
    pa, pb, pc = a.coords(), b.coords(), c.coords()
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        d1 = horoball_distance(pc, horoball_geodesic_point(pa, pb, m1))
        d2 = horoball_distance(pc, horoball_geodesic_point(pa, pb, m2))
        if d1 <= d2:
            hi = m2
        else:
            lo = m1
    s = (lo + hi) / 2
    return horoball_distance(pa, horoball_geodesic_point(pa, pb, s))
