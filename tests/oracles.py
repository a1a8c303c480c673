"""Reference implementations kept only for differential tests.

These are the direct loops the package replaced: the projection graph
by an exhaustive triple loop over members, with each twisting number
read off a reduced `Slope`, and the glued quasi-tree distance by a
double loop over attachment pairs on top of a Floyd-Warshall table
over complete intra-complex blocks; the horoball nearest points,
positions and triangle centres by ternary searches over an
angle-linear parametrization of the geodesic arc (vectorized across
triples); the distance formula as one pass over every candidate
subsurface of the point pair, with its own enumeration and annular
projection, and again as the per-component loop that also builds every
contribution list; the working window and hull certificates of a pair
built from `Slope` sets; the Dehn twist matrix as a conjugated shear; a
slope's image under a matrix through the gcd of the `Slope`
constructor; the transport matrix, twisting number, Farey distance and
Farey geodesic read off `Slope`s, uncached, as the package computed
them before its Farey caches were keyed by ints; a standard flat's
point with each factor state built by its definition, and the noisy box
map on it one elementary move at a time; the scale search
level-major, with every line's images built up front and every
offset's segment verdicts; the largest all-true index sub-box of a
grid mask by a scan of every index range; the greedy net packing that
compares every image with every kept one; the scale search's line
family, which listed a whole grid of directions and checked it dense
before keeping the axes and a budgeted spread of it; the exhaustive
thin-triangle constant of an explicit graph, from BFS rows and BFS
geodesics; and the consistency check as one generic loop over a
system's stated relations, which the exact system's twist table
replaced and which also checks synthetic systems, explicit relation
tables with nesting chains deeper than the exact model has.  They are
slow on purpose and must stay obviously right.

Seven are brute-force checks that never had a caller in the package:
the coarse length over every partition, the graph nearest-point
projection and triangle centre by whole-graph scans, the graph metric
handle, the Morse excursion, the unparametrized quasi-geodesic test
over an integer time grid, and the deepest retrace of a trace.  Four
are test fixtures: the folded box map, the L^1 product handle, and the
Dehn twist matrix in closed form and the canonical transversal, which
the package's pinned state no longer reads.

The explicit finite graph with BFS geodesics and key-order tie-breaks
(`HypGraph`, `geodesic`, `UnreachableError`) and the Farey ball as such
a graph (`farey_graph`) moved here from `hypgraph`: the package measures
Farey thinness on the exact geodesics of `surfmodel`, and only the graph
oracles here and the thinness differential test build an explicit graph.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from coarsegeo.bbf import FamilyY, QuasiTree
from coarsegeo.consreal import ExactSystem, MissingProjectionError
from coarsegeo.constants import Constants, default_constants
from coarsegeo.effdiff import (Box, BoxMap, DiffReport, Line, PathTrace,
                               QuasiLipschitzViolationError, ScaleBelowResolutionError,
                               SegmentVerdict, _clip_line)
from coarsegeo.hypgraph import GeodesicSegment, MetricHandle, _points_of
from coarsegeo.pathsflats import StandardFlat
from coarsegeo.surfmodel import (IDENTITY, ZERO, AnnularPoint, ComponentState, Flavor, Matrix,
                                 ModelPoint, ModelSurface, Slope, Subsurface, _component_terms,
                                 _geo_from_inf, annular_distance, apply_matrix, boundary_point,
                                 common_neighbors, complex_distance, farey_adjacent, farey_ball,
                                 farey_distance, farey_geodesic, mat_inv, transport_matrix, twist_number)


def mat_mul(m: Matrix, n: Matrix) -> Matrix:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def shear_twist_matrix(core: Slope, n: int = 1) -> Matrix:
    """M^-1 shear(n) M for the transport M taking `core` to infinity."""
    m = transport_matrix(core)
    return mat_mul(mat_inv(m), mat_mul((1, n, 0, 1), m))


def twist_matrix(core: Slope, n: int = 1) -> Matrix:
    """The n-th power of the Dehn twist about `core` as a slope action:
    M^-1 (1, n; 0, 1) M for the transport M of `core`, which multiplies
    out to (1 - npq, np^2; -nq^2, 1 + npq) for core p/q."""
    p, q = core.p, core.q
    npq = n * p * q
    return (1 - npq, n * p * p, -n * q * q, 1 + npq)


def canonical_transversal(core: Slope) -> Slope:
    """A fixed Farey neighbor of the core (the transported integer 0)."""
    return apply_matrix(mat_inv(transport_matrix(core)), ZERO)


def annular_projection(surf: ModelSurface, st: ComponentState, w: Subsurface) -> AnnularPoint:
    """The annulus w's view of the state st of its component: an annulus
    about the pants curve sees the transversal's twisting and the inverse
    length; any other annulus sees the pants slope's twisting at height
    1/B (heights only in the augmented flavor)."""
    aug = surf.flavor == "augmented"
    if w.core == st.alpha:
        return AnnularPoint(twist_number_via_slope(w.core, st.tau),
                            1.0 / st.length if aug else None)
    return AnnularPoint(twist_number_via_slope(w.core, st.alpha),
                        1.0 / surf.bers if aug else None)


def candidate_subsurfaces(x: ModelPoint, y: ModelPoint, comps=None) -> list[Subsurface]:
    return _candidates(x.surface, x.states, y.states, comps)


def _candidates(surf: ModelSurface, sx: Sequence[ComponentState],
                sy: Sequence[ComponentState], comps) -> list[Subsurface]:
    """Each component, then (outside the pants flavor) the annuli about
    the Farey geodesic between the pants slopes and the four endpoint
    curves, sorted by core; sx and sy are the two points' states."""
    out: list[Subsurface] = []
    for i in range(surf.n_components) if comps is None else comps:
        out.append(Subsurface("component", i))
        if surf.flavor == "pants":
            continue
        cores = set(farey_geodesic(sx[i].alpha, sy[i].alpha))
        for st in (sx[i], sy[i]):
            cores.update((st.alpha, st.tau))
        out.extend(Subsurface("annulus", i, c) for c in sorted(cores, key=Slope.key))
    return out


def working_window(x: ModelPoint, y: ModelPoint) -> dict[int, tuple[Slope, ...]]:
    """Finite core sets per component: both endpoints' curves, the
    canonical geodesic between the pants slopes, and the mediant fan at
    distance one from its edges.  Cores beyond this window contribute a
    bounded amount by the bounded geodesic image property."""
    out: dict[int, set[Slope]] = {i: set() for i in range(x.surface.n_components)}
    for i in range(x.surface.n_components):
        geo = farey_geodesic(x.alpha(i), y.alpha(i))
        out[i].update(geo)
        for u, v in zip(geo, geo[1:]):
            out[i].update(common_neighbors(u, v))
        for pt in (x, y):
            st = pt.state(i)
            out[i].add(st.alpha)
            if st.tau is not None:
                out[i].add(st.tau)
    return {i: tuple(sorted(s, key=Slope.key)) for i, s in out.items()}


def certificates(x: ModelPoint, y: ModelPoint) -> list[Subsurface]:
    """The finite subsurface list a hull query must check: components
    plus the annuli of the working window (geodesic vertices, the
    distance-one fan, endpoint curves; wider annuli are capped by the
    bounded geodesic image property)."""
    window = working_window(x, y)
    out: list[Subsurface] = []
    for comp in range(x.surface.n_components):
        out.append(Subsurface("component", comp))
        if x.surface.fl.annuli:
            out.extend(Subsurface("annulus", comp, s) for s in window[comp])
    return out


def subsurface_distance(surf: ModelSurface, sx: Sequence[ComponentState],
                        sy: Sequence[ComponentState], w: Subsurface) -> float:
    if w.kind == "component":
        return float(farey_distance(sx[w.comp].alpha, sy[w.comp].alpha))
    return annular_distance(annular_projection(surf, sx[w.comp], w),
                            annular_projection(surf, sy[w.comp], w), surf.fl)


def distance_formula(x: ModelPoint, y: ModelPoint, threshold: float | None = None,
                     comps=None) -> tuple[float, list[tuple[Subsurface, float]]]:
    """Sum every candidate subsurface distance at or above the threshold;
    each point's states are built once."""
    surf, sx, sy = x.surface, x.states, y.states
    t = surf.threshold if threshold is None else threshold
    total = 0.0
    contributing: list[tuple[Subsurface, float]] = []
    for w in _candidates(surf, sx, sy, comps):
        d = subsurface_distance(surf, sx, sy, w)
        if d >= t:
            total += d
            contributing.append((w, d))
    contributing.sort(key=lambda wd: wd[0].key())
    return total, contributing


def component_loop_distance_formula(x: ModelPoint, y: ModelPoint,
                                    threshold: float | None = None, comps=None,
                                    ) -> tuple[float, list[tuple[Subsurface, float]]]:
    """Each component's terms from `_component_terms`, the body of the
    per-component cache, run on the pair's own state keys (the raw
    kernel, with no move up to SL2(Z)), added up while the contribution
    list is built."""
    surf = x.surface
    t = surf.threshold if threshold is None else threshold
    total = 0.0
    contributing: list[tuple[Subsurface, float]] = []
    for i in range(surf.n_components) if comps is None else comps:
        for core, d in _component_terms(surf.fl, x._key[i + 1], y._key[i + 1], t):
            total += d
            contributing.append((Subsurface("component", i) if core is None
                                 else Subsurface("annulus", i, core), d))
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


def slope_transport_matrix(core: Slope) -> Matrix:
    """The transport taking `core` to infinity, read off the `Slope`:
    [[s, -r], [-q, p]] with ps - qr = 1 and 0 <= s < q."""
    p, q = core.p, core.q
    if q == 0:
        return IDENTITY
    s = pow(p, -1, q) if q > 1 else 0
    r = (p * s - 1) // q
    return (s, -r, -q, p)


def slope_twist_number(core: Slope, curve: Slope) -> int:
    """The floor of the curve's image under the transport of the core."""
    if curve == core:
        raise ValueError("no projection from core to its own annulus via slopes")
    a, b, c, d = slope_transport_matrix(core)
    num, den = a * curve.p + b * curve.q, c * curve.p + d * curve.q
    if den == 0:
        raise ValueError("only the core transports to infinity")
    return num // den


def _dist_base(p: int, q: int) -> int | None:
    """Distances 0, 1, 2 in closed form: q = 0 is infinity itself, q = 1
    an integer, and p = +-1 mod q exactly the neighbors of integers."""
    if q == 0:
        return 0
    if q == 1:
        return 1
    r = p % q
    if r == 1 or r == q - 1:
        return 2
    return None


def dist_to_inf_search(p: int, q: int) -> int:
    """d(oo, p/q) by the two-branch search the closed form replaced:
    d = 1 + min(d(k, p/q), d(k + 1, p/q)) for k = floor(p/q), each branch
    moved to infinity (children q/r and -q/(q - r)), evaluated
    iteratively with a memo of its own and exact pruning: a child that
    fails the closed-form base cases is at distance at least 3, so a
    sibling at distance <= 2 settles the minimum without exploring it."""
    base = _dist_base(p, q)
    if base is not None:
        return base
    memo: dict[tuple[int, int], int] = {}
    stack = [(p, q)]
    while stack:
        p0, q0 = stack[-1]
        if (p0, q0) in memo:
            stack.pop()
            continue
        k = p0 // q0
        r = p0 - k * q0  # 0 < r < q0
        vals: list[int] = []
        todo: list[tuple[int, int]] = []
        for pc, qc in ((q0, r), (-q0, q0 - r)):
            b = _dist_base(pc, qc)
            if b is not None:
                vals.append(b)
                continue
            v = memo.get((pc, qc))
            if v is None:
                todo.append((pc, qc))
            else:
                vals.append(v)
        if todo and (not vals or min(vals) >= 3):
            stack.extend(todo)
            continue
        memo[(p0, q0)] = 1 + min(vals)
        stack.pop()
    return memo[(p, q)]


def slope_farey_distance(a: Slope, b: Slope) -> int:
    """The distance from infinity of b's image under a's transport."""
    if a == b:
        return 0
    img = apply_matrix(slope_transport_matrix(a), b)
    return dist_to_inf_search(img.p, img.q)


def slope_farey_geodesic(a: Slope, b: Slope) -> tuple[Slope, ...]:
    """The geodesic from infinity to b's image under a's transport, mapped
    back, computed from the endpoint with the smaller key."""
    if a == b:
        return (a,)
    if b < a:
        return tuple(reversed(slope_farey_geodesic(b, a)))
    m = slope_transport_matrix(a)
    img = apply_matrix(m, b)
    path = tuple(apply_matrix(mat_inv(m), s) for s in _geo_from_inf(img.p, img.q))
    if path[0] != a or path[-1] != b or \
            not all(farey_adjacent(u, v) for u, v in zip(path, path[1:])):
        raise RuntimeError(f"no Farey geodesic from {a} to {b}: {path}")
    return path


def flat_point(flat: StandardFlat, t) -> ModelPoint:
    """A standard flat at lattice point t, each factor state built by its
    definition: a twist factor's base transversal twisted until the twist
    coordinate equals t, a ray's length B e^-t, a path's point at the
    clamped index."""
    surface = flat.surface
    states = list(flat.base.states)
    for f, v in zip(flat.factors, t):
        if f.kind == "twist":
            k = int(round(v)) - twist_number(f.core, f.tau0)
            length = surface.bers if surface.flavor == "augmented" else None
            st = ComponentState(f.core, apply_by_gcd(shear_twist_matrix(f.core, k), f.tau0),
                                length)
        elif f.kind == "ray":
            st = ComponentState(f.core, f.tau0, surface.bers * math.exp(-max(0.0, float(v))))
        else:
            i = min(max(int(round(v)) - f.interval[0], 0), len(f.path.points) - 1)
            st = f.path.points[i].state(f.comp)
        states[f.comp] = st
    return ModelPoint(surface, tuple(states))


def noisy_flat_image(flat: StandardFlat, noise: int, seed: int, p) -> ModelPoint:
    """`harness.noisy_flat_map`'s image of p: round and clamp to the
    lattice, evaluate the flat, then apply the hashed burst one move at a
    time (a flip allowed at step 0 only, else a unit twist)."""
    surface = flat.surface
    t = tuple(int(round(v)) for v in np.atleast_1d(np.asarray(p, float)))
    t = tuple(max(lo, min(hi, v)) for (lo, hi), v in zip(flat.box().intervals, t))
    x = flat_point(flat, t)
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
            tau = apply_by_gcd(shear_twist_matrix(st.alpha, 1 if b % 2 else -1), st.tau)
            states[comp] = ComponentState(st.alpha, tau, st.length)
        x = ModelPoint(surface, tuple(states))
    return x


def folded_map(inner: BoxMap, axis: int, at: float) -> BoxMap:
    """`inner` after folding the box about the hyperplane axis = at."""
    def fn(p):
        q = np.array(np.atleast_1d(np.asarray(p, float)))
        q[axis] = at - abs(q[axis] - at)
        return inner.fn(q)
    return BoxMap(fn, inner.target, inner.K, inner.C)


def largest_true_box(mask: np.ndarray) -> tuple[list[tuple[int, int]], int] | None:
    """`effdiff._largest_true_box` by a scan of every index range, axis 0
    outermost, keeping a range when it is all true and strictly beats
    the kept one on (min side, cells)."""
    best, best_score = None, (-1, -1)
    ranges = [[(a, b) for a in range(s) for b in range(a + 1, s)] for s in mask.shape]
    for rect in itertools.product(*ranges):
        if not np.all(mask[tuple(slice(a, b + 1) for a, b in rect)]):
            continue
        sides = [b - a for a, b in rect]
        score = (min(sides), math.prod(s + 1 for s in sides))
        if score > best_score:
            best_score, best = score, (list(rect), score[1])
    return best


def greedy_packing(images, distance, separation: float) -> list:
    """Keep an image when it is at least `separation` from every image
    kept so far, comparing it with each of them in turn."""
    kept: list = []
    for img in images:
        if all(distance(img, other) >= separation for other in kept):
            kept.append(img)
    return kept


def mutual_projection(u: Subsurface, v: Subsurface, w: Subsurface, fl: Flavor) -> float:
    """d_U of the boundaries of V and W, for three annuli on a component."""
    h = 1.0 / fl.bers if fl.heights else None
    a = AnnularPoint(twist_number_via_slope(u.core, v.core), h)
    b = AnnularPoint(twist_number_via_slope(u.core, w.core), h)
    return annular_distance(a, b, fl)


def pk_edges(family: FamilyY, k: float, fl: Flavor) -> set[frozenset]:
    """Join V and W when no third member U sees them more than K apart."""
    edges: set[frozenset] = set()
    if family.kind == "component":
        return edges
    members = family.members()
    for v, w in itertools.combinations(members, 2):
        if all(mutual_projection(u, v, w, fl) <= k
               for u in members if u not in (v, w)):
            edges.add(frozenset((v, w)))
    return edges


def glued_distances(qt: QuasiTree, pairs) -> list[float]:
    """Shortest glued path from u to v for each pair (u, v): the direct
    leg inside a shared complex, or the best over every pair of
    attachments (a, b) of leg to a + all-pairs table from a to b + leg
    from b.  The attachments are the cross edges of `qt.dump()`, read
    back into (member, point) pairs.  The table is Floyd-Warshall over
    complete intra-complex blocks, a marking annulus block as one |twist
    difference| array and any other block by scalar `complex_distance`
    calls, and the unit cross edges."""
    member = {repr(m): m for m in qt.family.members()}
    cross = [tuple((member[host], AnnularPoint(*pt)) for host, pt in (e["a"], e["b"]))
             for e in qt.dump()["cross_edges"]]
    index: dict = {}
    for ends in cross:
        for nd in ends:
            index.setdefault(nd, len(index))
    nodes = list(index)
    n = len(nodes)
    groups: dict = {}
    for i, (host, _pt) in enumerate(nodes):
        groups.setdefault(host, []).append(i)
    if qt.family.kind == "annuli" and not qt.fl.heights:
        tw = np.array([pt.twist for _host, pt in nodes], dtype=float)
        gid = {host: g for g, host in enumerate(groups)}
        group = np.array([gid[host] for host, _pt in nodes], dtype=int)
        w = np.where(group[:, None] == group[None, :], np.abs(tw[:, None] - tw[None, :]),
                     math.inf)
    else:
        w = np.full((n, n), math.inf)
        np.fill_diagonal(w, 0.0)
        for host, idxs in groups.items():
            for i, j in itertools.permutations(idxs, 2):
                w[i, j] = complex_distance(host, nodes[i][1], nodes[j][1], qt.fl)
    for a, b in cross:
        i, j = index[a], index[b]
        w[i, j] = min(w[i, j], 1.0)
        w[j, i] = min(w[j, i], 1.0)
    for k in range(n):
        w = np.minimum(w, w[:, k, None] + w[None, k, :])
    out = []
    for u, v in pairs:
        best = complex_distance(u[0], u[1], v[1], qt.fl) if u[0] == v[0] else math.inf
        for i in groups.get(u[0], []):
            da = complex_distance(u[0], u[1], nodes[i][1], qt.fl)
            for j in groups.get(v[0], []):
                cand = da + w[i, j] + complex_distance(v[0], v[1], nodes[j][1], qt.fl)
                if cand < best:
                    best = cand
        out.append(float(best))
    return out


def glued_distance(qt: QuasiTree, u, v) -> float:
    return glued_distances(qt, [(u, v)])[0]


DISJOINT, NESTED, OVERLAP = "disjoint", "nested", "overlap"


class GenericPairLoop:
    """The consistency pairs of a system that states its relations:
    `members()`; `relation(u, v)`, DISJOINT / OVERLAP, or NESTED for a
    nested pair in either order; `orient_nested(u, v)`, (inner, outer);
    `boundary_projection(u, v)`, pi_U of the boundary of V;
    `project_element(u, v, elt)`, pi_V of an element of C(U); and
    `complex_distance(u, a, b)`.  The two projections raise
    `MissingProjectionError` where they are undefined."""

    def pair_values(self, z: Mapping) -> Iterator[tuple[Hashable, Hashable, float]]:
        """(u, v, value) for each related pair of the members in z, u
        before v in member order: the overlap value min(d_U(z_U, bV),
        d_V(z_V, bU)), or for V nested in U min(d_U(z_U, bV),
        d_V(z_V, pi_V(z_U))).  Missing boundary data is an error naming
        the pair, except where the other branch already decides."""
        members = [w for w in self.members() if w in z]
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                rel = self.relation(u, v)
                if rel == DISJOINT:
                    continue
                if rel == OVERLAP:
                    d_uv = self._dist_to_boundary(u, v, z)
                    d_vu = self._dist_to_boundary(v, u, z)
                    if d_uv is math.inf and d_vu is math.inf:
                        raise MissingProjectionError(
                            f"no boundary projection data for overlapping pair ({u}, {v})")
                    yield u, v, min(d_uv, d_vu)
                    continue
                inner, outer = self.orient_nested(u, v)
                d_outer = self._dist_to_boundary(outer, inner, z)
                try:
                    proj = self.project_element(outer, inner, z[outer])
                    d_inner = self.complex_distance(inner, z[inner], proj)
                except MissingProjectionError:
                    d_inner = math.inf
                if d_outer is math.inf and d_inner is math.inf:
                    raise MissingProjectionError(
                        f"no usable projection data for nested pair ({outer}, {inner})")
                yield u, v, min(d_outer, d_inner)

    def _dist_to_boundary(self, u, v, z: Mapping) -> float:
        try:
            b = self.boundary_projection(u, v)
        except MissingProjectionError:
            return math.inf
        return self.complex_distance(u, z[u], b)


class ExactRelations(GenericPairLoop, ExactSystem):
    """An exact system checked pair by pair through its relations instead
    of its twist table."""

    def relation(self, u: Subsurface, v: Subsurface) -> str:
        if u == v:
            raise ValueError("relation of a subsurface with itself")
        if u.comp != v.comp:
            return DISJOINT
        if u.kind == "component" and v.kind == "annulus":
            return NESTED
        if u.kind == "annulus" and v.kind == "component":
            return NESTED  # orient_nested says which is inside
        return OVERLAP  # two distinct annuli on a component always cross

    def orient_nested(self, u: Subsurface, v: Subsurface) -> tuple[Subsurface, Subsurface]:
        return (u, v) if u.kind == "annulus" else (v, u)

    def boundary_projection(self, u: Subsurface, v: Subsurface):
        if v.kind != "annulus":
            raise MissingProjectionError(
                f"{v} has no boundary curve in the system (pair {u}, {v})")
        core = v.core
        if core is None:
            raise ValueError(f"annulus {v} has no core")
        if u.kind == "component":
            return core
        if u.core == core:
            raise MissingProjectionError(f"{v} does not project to itself")
        return boundary_point(u.core, core, self.surface.fl)

    def project_element(self, u: Subsurface, v: Subsurface, elt):
        if u.kind != "component" or v.kind != "annulus" or not isinstance(elt, Slope):
            raise MissingProjectionError(f"cannot project {elt} from {u} to {v}")
        if elt == v.core:
            raise MissingProjectionError("element equals the annulus core")
        return boundary_point(v.core, elt, self.surface.fl)


@dataclass
class SyntheticSystem(GenericPairLoop):
    """An abstract system given by explicit tables, for nesting chains
    and overlap graphs that the exact zero-complexity model cannot
    produce.

    `nested[(v, u)]` records v properly inside u; `overlaps` holds
    unordered crossing pairs; all other pairs are disjoint.  Complexes
    default to the integer line; `boundary[(u, v)]` holds pi_U(bV) and
    `projections[(u, v)]` an element map C(U) -> C(V) where defined.
    """

    ids: tuple[str, ...]
    nested: set[tuple[str, str]] = field(default_factory=set)
    overlaps: set[frozenset] = field(default_factory=set)
    boundary: dict[tuple[str, str], Any] = field(default_factory=dict)
    projections: dict[tuple[str, str], Callable[[Any], Any]] = field(default_factory=dict)
    metrics: dict[str, Callable[[Any, Any], float]] = field(default_factory=dict)

    def members(self):
        return sorted(self.ids)

    def relation(self, u, v) -> str:
        if (v, u) in self.nested or (u, v) in self.nested:
            return NESTED
        if frozenset((u, v)) in self.overlaps:
            return OVERLAP
        return DISJOINT

    def orient_nested(self, u, v) -> tuple[str, str]:
        return (u, v) if (u, v) in self.nested else (v, u)

    def boundary_projection(self, u, v):
        try:
            return self.boundary[(u, v)]
        except KeyError:
            raise MissingProjectionError(
                f"missing boundary projection for pair ({u}, {v})") from None

    def project_element(self, u, v, elt):
        fn = self.projections.get((u, v))
        if fn is None:
            raise MissingProjectionError(f"no element projection ({u}, {v})")
        return fn(elt)

    def complex_distance(self, u, a, b) -> float:
        metric = self.metrics.get(u)
        if metric is not None:
            return metric(a, b)
        return abs(float(a) - float(b))


def synthetic_chain_system(depth: int, rng: np.random.Generator):
    """A nested chain U0 > U1 > ... with integer-line complexes, plus a
    coherent tuple and a violating perturbation of it."""
    spread = 20  # anchors lie in [-spread, spread)
    ids = tuple(f"U{i}" for i in range(depth))
    nested = {(ids[j], ids[i]) for i in range(depth) for j in range(i + 1, depth)}
    boundary = {}
    anchors = {u: int(rng.integers(-spread, spread)) for u in ids}
    for i in range(depth):
        for j in range(i + 1, depth):
            boundary[(ids[i], ids[j])] = anchors[ids[j]]
    projections = {}
    for i in range(depth):
        for j in range(i + 1, depth):
            projections[(ids[i], ids[j])] = (
                lambda elt, a=anchors[ids[j]]: a + (1 if elt % 2 else -1))
    sys = SyntheticSystem(ids=ids, nested=nested, boundary=boundary, projections=projections)
    coherent = {u: anchors[u] for u in ids}
    active = ids[int(rng.integers(depth))]
    coherent[active] = anchors[active] + int(rng.integers(-spread, spread)) * 3
    good = coherent
    bad_coords = dict(coherent)
    inner, outer = ids[-1], ids[0]
    bad_coords[inner] = anchors[inner] + 10 * spread
    bad_coords[outer] = anchors[outer] + 10 * spread
    # move the recorded boundary away so neither branch of the nested
    # condition can save the pair
    bad_sys = SyntheticSystem(
        ids=ids, nested=set(nested),
        boundary={**boundary, (outer, inner): anchors[inner] - 10 * spread},
        projections={**projections,
                     (outer, inner): (lambda elt: anchors[inner] - 10 * spread)})
    return sys, good, bad_sys, bad_coords


# The horoball searches run on many triples at once: a point is a pair
# (x, y) of floats or of equal-shape arrays, every step is a numpy ufunc,
# and each triple keeps its own bracket through np.where.


def _out(v):
    return float(v) if np.ndim(v) == 0 else v


def _hdist(p, q):
    """`surfmodel.horoball_distance`, elementwise."""
    (x1, y1), (x2, y2) = p, q
    return np.arccosh(1.0 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2.0 * y1 * y2))


def horoball_geodesic_point(a, b, s):
    """A point on the hyperbolic geodesic from a to b at parameter
    s in [0, 1] (angle- or log-linear, not arclength)."""
    (x1, y1), (x2, y2) = a, b
    vertical = np.abs(x1 - x2) < 1e-12
    c = (x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2) / (2.0 * np.where(vertical, 1.0, x1 - x2))
    rho = np.hypot(x1 - c, y1)
    th1 = np.arctan2(y1, x1 - c)
    th2 = np.arctan2(y2, x2 - c)
    th = th1 + s * (th2 - th1)
    return (np.where(vertical, x1, c + rho * np.cos(th)),
            np.where(vertical, y1 ** (1 - s) * y2 ** s, rho * np.sin(th)))


def _ternary(f, shape, iters: int):
    """The minimizer over [0, 1] of each convex f by ternary search."""
    lo, hi = np.zeros(shape), np.ones(shape)
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        left = f(m1) <= f(m2)
        lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
    return (lo + hi) / 2


def horoball_point_to_segment(p, a, b, iters: int = 60):
    """Distance from p to the geodesic arc [a, b]; the distance along a
    geodesic is convex, so ternary search is exact in the limit."""
    s = _ternary(lambda m: _hdist(p, horoball_geodesic_point(a, b, m)),
                 np.broadcast(*p, *a, *b).shape, iters)
    return _out(_hdist(p, horoball_geodesic_point(a, b, s)))


def horoball_center(a, b, c, iters: int = 40):
    """The augmented triangle centre as (twist, height): scan the [a, b]
    arc for the point nearest both other sides, by ternary search over
    nested searches."""
    def g(m):
        p = horoball_geodesic_point(a, b, m)
        return np.maximum(horoball_point_to_segment(p, b, c),
                          horoball_point_to_segment(p, a, c))

    px, py = horoball_geodesic_point(a, b, _ternary(g, np.broadcast(*a, *b, *c).shape, iters))
    tw = np.rint(px).astype(int)  # half to even, as round() does
    return (int(tw), float(py)) if np.ndim(tw) == 0 else (tw, py)


def horoball_position(a, b, c, iters: int = 40):
    """Arclength from a to the point of [a, b] nearest c."""
    s = _ternary(lambda m: _hdist(c, horoball_geodesic_point(a, b, m)),
                 np.broadcast(*a, *b, *c).shape, iters)
    return _out(_hdist(a, horoball_geodesic_point(a, b, s)))


def coarse_length_bruteforce(path: PathTrace, r: float) -> float:
    """Exhaustive minimum over all admissible sample-time partitions.
    Exponential; the oracle for traces with at most ~12 samples."""
    n = len(path.times)
    if n > 16:
        raise ValueError("brute force is for short traces")
    ts, pts, dist = path.times, path.points, path.handle.distance
    if any(ts[i + 1] - ts[i] > r + 1e-9 for i in range(n - 1)):
        raise ScaleBelowResolutionError("scale below resolution")
    best = math.inf
    mids = list(range(1, n - 1))
    for mask in range(1 << len(mids)):
        chosen = [0] + [mids[b] for b in range(len(mids)) if mask >> b & 1] + [n - 1]
        if any(ts[b] - ts[a] > r + 1e-9 for a, b in zip(chosen, chosen[1:])):
            continue
        total = sum(dist(pts[a], pts[b]) for a, b in zip(chosen, chosen[1:]))
        best = min(best, total)
    return best


@dataclass
class LineFamily:
    """Finitely many directions, each with a family of parallel lines.

    The direction set is density-dense on the unit sphere (verified at
    construction).  Desk-scale budgets cap how many directions and lines
    per direction are actually evaluated; axis directions always come
    first so every tile of a later subdivision is covered.
    """

    directions: list[tuple[float, ...]]
    lines: list[Line]

    @staticmethod
    def directions_for(dim: int, density: float) -> list[tuple[float, ...]]:
        if dim == 1:
            return [(1.0,)]
        if dim == 2:
            count = max(4, math.ceil(math.pi / density))
            return [(math.cos(k * math.pi / count), math.sin(k * math.pi / count))
                    for k in range(count)]
        count = max(3, math.ceil(math.pi / density))
        dirs = []
        for i in range(count + 1):
            th = i * math.pi / count
            ring = max(1, math.ceil(2 * math.pi * math.sin(th) / density))
            for j in range(ring):
                ph = 2 * math.pi * j / ring
                dirs.append((math.sin(th) * math.cos(ph),
                             math.sin(th) * math.sin(ph),
                             math.cos(th)))
        return dirs

    @staticmethod
    def verify_density(dirs: Sequence[tuple[float, ...]], density: float) -> None:
        """Every unit vector must be within `density` of a member (up to
        sign, since lines are unoriented).  Members are unit vectors."""
        dim = len(dirs[0])
        if dim == 1:
            return
        arr = np.asarray(dirs)
        if dim == 2:
            # exact: up to sign a direction is an angle mod pi; the unit vector
            # farthest from the set bisects the widest gap G, at chord 2 sin(G/4)
            ang = np.sort(np.arctan2(arr[:, 1], arr[:, 0]) % math.pi)
            gaps = [2.0 * math.sin(float(np.max(np.diff(ang, append=ang[0] + math.pi))) / 4.0)]
        else:
            gaps = (np.min(np.minimum(np.linalg.norm(arr - p, axis=1),
                                      np.linalg.norm(arr + p, axis=1)))
                    for p in LineFamily.directions_for(dim, density / 2.0))
        for gap in gaps:
            if gap > density + 1e-9:
                raise ValueError(f"direction set is not {density}-dense (gap {gap:.4f})")

    @classmethod
    def build(cls, box: Box, density: float,
              max_directions: int | None = None,
              lines_per_direction: int = 24) -> "LineFamily":
        dim = box.dim
        dirs = cls.directions_for(dim, density)
        cls.verify_density(dirs, density)
        # axis directions first, then a deterministic spread of the rest
        axes = [tuple(1.0 if i == j else 0.0 for i in range(dim)) for j in range(dim)]
        chosen = list(axes)
        if max_directions is None or max_directions > len(chosen):
            extra = [d for d in dirs if d not in chosen]
            budget = (len(extra) if max_directions is None
                      else max(0, max_directions - len(chosen)))
            step = max(1, len(extra) // budget) if budget else 1
            chosen.extend(extra[::step][:budget])
        lines = []
        min_side = min(box.sides)
        for d in chosen:
            lines.extend(cls._cover(box, d, lines_per_direction, min_side))
        return cls(directions=chosen, lines=lines)

    @staticmethod
    def _cover(box: Box, direction: tuple[float, ...], per_direction: int,
               min_side: int) -> list[Line]:
        """Parallel lines through the box in one direction, clipped, with
        spacing comparable to the side over the per-direction budget;
        short clippings are discarded."""
        dim = box.dim
        d = np.asarray(direction)
        if dim == 1:
            lo, hi = box.intervals[0]
            return [Line((float(lo),), tuple(d), float(hi - lo))]
        # seed points on a lattice in the hyperplane through the center
        basis = [np.eye(dim)[i] for i in range(dim)]
        basis.sort(key=lambda e: abs(float(e @ d)))
        seeds = []
        spread = np.linspace(-0.5, 0.5, per_direction)
        if dim == 2:
            for s in spread:
                seeds.append(box.center + s * min_side * basis[0])
        else:
            side_count = max(2, int(math.sqrt(per_direction)))
            for s in np.linspace(-0.5, 0.5, side_count):
                for t in np.linspace(-0.5, 0.5, side_count):
                    seeds.append(box.center + min_side * (s * basis[0] + t * basis[1]))
        lines = []
        for seed in seeds:
            clip = _clip_line(box, seed, d)
            if clip is None:
                continue
            t0, t1 = clip
            if t1 - t0 >= min_side / 2:
                lines.append(Line(tuple(seed + t0 * d), tuple(d), float(t1 - t0)))
        return lines


def differentiate_lines(fmap: BoxMap, lines: Sequence[Line], eps: float, theta: float,
                        r0: float, constants: Constants | None = None) -> DiffReport:
    """`effdiff.differentiate_lines` level-major: every line's images are
    built before level 1 and kept to the end, and every offset of every
    line builds its segment verdicts."""
    cn = constants or default_constants()
    bdelta_mult, kappa_m = cn["bdelta_mult"], cn["kappa_m"]
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    r0 = max(r0, fmap.C, 1e-9)
    lines = [ln for ln in lines if ln.length >= r0 * 2]
    if not lines:
        raise ValueError("no usable lines: box too small for the base grid")
    stride = max(2, round(1.0 / eps))
    max_level = math.ceil(kappa_m * fmap.K / (eps * theta)) if theta > 0 else 10 ** 9

    cache: list[dict[tuple[int, int], float]] = [dict() for _ in lines]
    base_ts: list[np.ndarray] = []
    images: list[list] = []
    grids: list[list[int]] = []
    for ln in lines:
        ts = np.arange(0.0, ln.length + 1e-9, r0)
        base_ts.append(ts)
        pts = np.asarray(ln.origin) + ts[:, None] * np.asarray(ln.direction)
        images.append([fmap.fn(q) for q in pts])
        grids.append(list(range(len(ts))))

    def dist(li: int, a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        got = cache[li].get(key)
        if got is None:
            got = fmap.target.distance(images[li][a], images[li][b])
            cache[li][key] = got
        return got

    level = 0
    r_prev = r0
    while True:
        level += 1
        r_m = r_prev * stride
        if r_m > max(ln.length for ln in lines):
            raise QuasiLipschitzViolationError(
                f"no admissible scale before the schedule left the box at level {level}; "
                f"either the box is below the required size or (K, C) are wrong"
            )
        if level > max_level:
            raise QuasiLipschitzViolationError(
                f"exceeded the level budget {max_level}; declared (K, C) look wrong"
            )
        verdicts: list[SegmentVerdict] = []
        total = bad_total = 0
        new_grids: list[list[int]] = []
        for li, ln in enumerate(lines):
            cur = grids[li]
            jumps = [dist(li, cur[k], cur[k + 1]) for k in range(len(cur) - 1)]
            prefix = np.concatenate([[0.0], np.cumsum(jumps)])
            best = None  # (bad fraction, bad count, grid points, verdicts)
            for off in range(min(stride, max(1, len(cur) - 1))):
                positions = list(range(off, len(cur), stride))
                if len(positions) < 2:
                    continue
                segs = []
                bad = 0
                for ia, ib in zip(positions, positions[1:]):
                    a, b = cur[ia], cur[ib]
                    s = float(prefix[ib] - prefix[ia])
                    dend = dist(li, a, b)
                    ok = s <= bdelta_mult * (dend + eps * r_m) + 1e-9
                    bad += not ok
                    segs.append(SegmentVerdict(li, base_ts[li][a], base_ts[li][b],
                                               s, dend, ok))
                frac = bad / len(segs)
                if best is None or frac > best[0]:
                    best = (frac, bad, [cur[i] for i in positions], segs)
            if best is None:
                new_grids.append(cur)
                continue
            _, bad, pts, segs = best
            new_grids.append(pts)
            verdicts.extend(segs)
            total += len(segs)
            bad_total += bad
        if total == 0:
            raise QuasiLipschitzViolationError("schedule exhausted every line")
        frac = bad_total / total
        if frac <= theta:
            return DiffReport(
                scale=r_m, grid_spacing=r_prev, level=level, bad_fraction=frac,
                segment_verdicts=verdicts,
                params={"eps": eps, "theta": theta, "r0": r0, "stride": stride,
                        "bdelta_mult": bdelta_mult, "n_lines": len(lines)},
                lines=list(lines),
            )
        grids = new_grids
        r_prev = r_m


Vertex = Hashable


class UnreachableError(ValueError):
    """The endpoints are in different components of the graph."""


class HypGraph:
    """A finite explicit graph.

    Vertices must be hashable; `key` is the canonical encoding used for
    all tie-breaking: the vertex's `.key()` when present, as for slopes,
    else the vertex itself.
    """

    def __init__(self, edges: Iterable[tuple[Vertex, Vertex]],
                 vertices: Iterable[Vertex] = ()):
        self.key = key = lambda v: v.key() if hasattr(v, "key") else v
        adj: dict[Vertex, set] = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self.vertices = tuple(sorted(adj, key=key))
        self.adj = {v: tuple(sorted(adj[v], key=key)) for v in self.vertices}

    def __contains__(self, v: Vertex) -> bool:
        return v in self.adj

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adj.values()) // 2

    def bfs_distances(self, sources: Iterable[Vertex]) -> dict[Vertex, int]:
        dist = {s: 0 for s in sources}
        q = deque(dist)
        while q:
            u = q.popleft()
            for v in self.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def distance(self, a: Vertex, b: Vertex) -> int:
        d = self.bfs_distances([a]).get(b)
        if d is None:
            raise UnreachableError("unreachable")
        return d


def geodesic(g: HypGraph, a: Vertex, b: Vertex) -> GeodesicSegment:
    """BFS shortest path with deterministic tie-breaking.

    The search runs from the endpoint with the smaller key and explores
    neighbors in key order, so the result is reversal-symmetric:
    geodesic(g, b, a) is geodesic(g, a, b) reversed.
    """
    if a not in g or b not in g:
        raise KeyError("endpoint not in graph")
    if a == b:
        return GeodesicSegment((a,))
    flip = g.key(b) < g.key(a)
    if flip:
        a, b = b, a
    parent: dict[Vertex, Vertex] = {a: a}
    q = deque([a])
    while q:
        u = q.popleft()
        if u == b:
            break
        for v in g.adj[u]:
            if v not in parent:
                parent[v] = u
                q.append(v)
    if b not in parent:
        raise UnreachableError("unreachable")
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    if flip:
        path.reverse()
    return GeodesicSegment(tuple(path))


def farey_graph(lo: int = -2, hi: int = 3, depth: int = 5) -> HypGraph:
    """An explicit finite chunk of the Farey graph (mediant fan over
    [lo, hi] to the given depth) with determinant adjacency."""
    verts = farey_ball(lo, hi, depth)
    edges = [(a, b) for a, b in itertools.combinations(verts, 2) if farey_adjacent(a, b)]
    return HypGraph(edges, vertices=verts)


def nearest_point_projection(g: HypGraph, p: Vertex, seg: GeodesicSegment) -> Vertex:
    """The segment vertex closest to p; ties go to the earliest vertex
    along the segment."""
    dist = g.bfs_distances([p])
    best = None
    best_d = math.inf
    for v in seg.vertices:
        d = dist.get(v, math.inf)
        if d < best_d:
            best, best_d = v, d
    if best is None or best_d is math.inf:
        raise UnreachableError("unreachable")
    return best


def triangle_center_graph(g: HypGraph, x: Vertex, y: Vertex, z: Vertex,
                          delta: float) -> Vertex:
    """A vertex within delta + 1 of all three sides of the triangle.

    Scans the whole (finite) graph by distance-to-side and picks the
    minimizer, ties broken by key.  Failure to get within delta + 1
    means delta does not reflect the graph at this scale.
    """
    sides = [geodesic(g, x, y), geodesic(g, y, z), geodesic(g, x, z)]
    dists = [g.bfs_distances(s.vertices) for s in sides]
    best_v, best_val = None, math.inf
    for v in g.vertices:
        val = max(float(d.get(v, math.inf)) for d in dists)
        if val < best_val or (val == best_val and best_v is not None
                              and g.key(v) < g.key(best_v)):
            best_v, best_val = v, val
    if best_v is None or best_val > delta + 1:
        raise ValueError("not hyperbolic at scale")
    return best_v


def _side_defect(tri: Sequence[Vertex], side: Callable[[Vertex, Vertex], Sequence[Vertex]],
                 near: Callable[[list], Callable[[Vertex], float]]) -> float:
    """Max over the sides of the geodesic triangle on three vertices of
    the distance from the side to the other two, in the caller's space:
    `side(a, b)` is a geodesic and `near(vs)` the distance to vs."""
    sides = [side(tri[0], tri[1]), side(tri[1], tri[2]), side(tri[0], tri[2])]
    worst = 0.0
    for i, vs in enumerate(sides):
        dist = near([v for j, s in enumerate(sides) if j != i for v in s])
        worst = max(worst, float(max(map(dist, vs))))
    return worst


def delta_exhaustive(g: HypGraph) -> float:
    """Exact thin-triangle constant by scanning every vertex triple, with
    one BFS row per vertex and one geodesic per vertex pair (v's distance
    to a set is its row's least entry there).  For small graphs only;
    used as the sampling oracle."""
    if len(g) < 3:
        return 0.0
    rows = {v: g.bfs_distances([v]) for v in g.vertices}
    sides = {(a, b): geodesic(g, a, b).vertices
             for a, b in itertools.combinations(g.vertices, 2)}
    near = lambda vs: (lambda v: min(map(rows[v].__getitem__, vs)))
    worst = 0.0
    for tri in itertools.combinations(g.vertices, 3):
        worst = max(worst, _side_defect(tri, lambda a, b: sides[a, b], near))
    return worst


def product_handle(handles: Sequence[MetricHandle]) -> MetricHandle:
    """L^1 product of handles; points are tuples with one coordinate per
    factor.  Efficiency passes to factors in this metric."""
    def dist(a, b):
        return sum(h.distance(x, y) for h, x, y in zip(handles, a, b))
    return MetricHandle("product", dist)


def graph_handle(g: HypGraph, name: str = "graph") -> MetricHandle:
    return MetricHandle(name, lambda a, b: float(g.distance(a, b)),
                        geodesic_fn=lambda a, b: geodesic(g, a, b).vertices)


def morse_excursion(path, seg: GeodesicSegment, handle: MetricHandle) -> float:
    """Max over path samples of the distance to the segment."""
    pts = _points_of(path)
    if not pts:
        raise ValueError("empty path")
    return max(min(handle.distance(p, v) for v in seg.vertices) for p in pts)


def unparam_qgeo_oracle(points: Sequence, handle: MetricHandle, lam: float,
                        c: float, grid: int = 9) -> bool:
    """Independent brute-force check for short sequences: search monotone
    integer-grid time assignments satisfying all pairwise constraints."""
    n = len(points)
    if n <= 1:
        return True
    if n > 6:
        raise ValueError("oracle is for short sequences")
    d = [[handle.distance(points[i], points[j]) for j in range(n)] for i in range(n)]
    top = lam * (max(max(r) for r in d) + c) + 1.0
    levels = [top * k / (grid - 1) for k in range(grid)]

    def ok(us):
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                du = us[j] - us[i]
                if du < (d[i][j] - c) / lam - 1e-9 or du > lam * (d[i][j] + c) + 1e-9:
                    return False
        return True

    def rec(us):
        if len(us) == n:
            return True
        lo = us[-1] if us else 0.0
        for u in levels:
            if u < lo:
                continue
            if ok(us + [u]) and rec(us + [u]):
                return True
        return False

    return rec([])


def retrace_depth(points: Sequence) -> int:
    """The most steps a trace takes before it comes back to a point it
    has left (0 if it never does); repeated consecutive points, the
    stutters of a densified trace, count as one step."""
    last: dict = {}
    depth = 0
    steps = [p for i, p in enumerate(points) if i == 0 or p != points[i - 1]]
    for j, p in enumerate(steps):
        if p in last:
            depth = max(depth, j - last[p])
        last[p] = j
    return depth
