"""Preferred paths, hulls, centers, backtrack removal, and flats.

A preferred path is a move-by-move quasi-geodesic whose shadow in every
subsurface complex is an unparametrized quasi-geodesic: along each
component it walks the pants-slope geodesic, interpolating twists
monotonically at every vertex (through the horoball interior in the
augmented flavor when the twist demand is large).  Hulls collect the
points whose every projection hugs the corresponding geodesic; centers
are realized from per-complex triangle centers; and the no-backtracking
extraction turns any efficient trace into a nearby preferred path by
taking, in every complex, the farthest center reached so far.  Flats
are L1 products of one factor per component (a path, a twist lattice
about a pinned curve, or a horoball ray) with an evaluator and a
fitting residual used by the box experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import effdiff, surfmodel
from .constants import Constants, default_constants
from .effdiff import PathTrace
from .hypgraph import MetricHandle, unparam_qgeo_check
from .consreal import ExactSystem, realize
from .surfmodel import (AnnularPoint, Flavor, InessentialSubsurfaceError, ModelPoint,
                        ModelSurface, Slope, Subsurface, complex_distance, component_distance,
                        distance_formula, farey_adjacent, farey_distance,
                        farey_geodesic, flip_state, geodesic_chart,
                        horoball_point_to_segment, model_distance, project,
                        subsurface_distance, twist_number, twist_state)

Move = tuple  # ("twist", comp, n) | ("flip", comp) | ("length", comp, factor) | ("realized",)

TWIST_DIRECT_CAP = 4  # augmented twists beyond this route through the horoball


class PathVerificationError(RuntimeError):
    """A constructed path failed its own invariants (a construction bug)."""


class NotEfficientInputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Preferred paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreferredPath:
    points: tuple[ModelPoint, ...]
    moves: tuple[Move, ...]
    excursion: float | None = None  # set by extraction: max distance to the source trace

    def __post_init__(self):
        if len(self.moves) != len(self.points) - 1:
            raise ValueError("need one move per step")

    @property
    def x(self) -> ModelPoint:
        return self.points[0]

    @property
    def y(self) -> ModelPoint:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "points": [p.to_json() for p in self.points],
            "moves": [list(m) for m in self.moves],
        }


def certificates(x: ModelPoint, y: ModelPoint) -> list[Subsurface]:
    """The finite subsurface list a hull query must check: components
    plus the annuli of the working window (geodesic vertices, the
    distance-one fan, endpoint curves; wider annuli are capped by the
    bounded geodesic image property)."""
    return surfmodel.window_subsurfaces(x.surface, surfmodel.working_window(x, y))


def _twist_steps(points: list[ModelPoint], moves: list[Move], comp: int,
                 n: int, augmented: bool) -> None:
    """Monotone twist interpolation; large augmented demands route
    through the horoball (climb, twist in height-sized chunks, descend)."""
    if n == 0:
        return
    x = points[-1]
    surface = x.surface
    if not augmented or abs(n) <= TWIST_DIRECT_CAP:
        step = 1 if n > 0 else -1
        for _ in range(abs(n)):
            points.append(surfmodel.twist_move(points[-1], comp, step))
            moves.append(("twist", comp, step))
        return
    # climb: halve the length until the height reaches half the demand
    start_len = points[-1].state(comp).length
    while 1.0 / points[-1].state(comp).length < abs(n) / 2:
        points.append(surfmodel.length_move(points[-1], comp, 0.5))
        moves.append(("length", comp, 0.5))
    rest = n
    while rest != 0:
        height = 1.0 / points[-1].state(comp).length
        chunk = max(1, math.floor(height))
        k = min(abs(rest), chunk) * (1 if rest > 0 else -1)
        points.append(surfmodel.twist_move(points[-1], comp, k))
        moves.append(("twist", comp, k))
        rest -= k
    # descend to the starting length
    while points[-1].state(comp).length < start_len - 1e-12:
        points.append(surfmodel.length_move(points[-1], comp, 2.0))
        moves.append(("length", comp, 2.0))


def _length_steps(points: list[ModelPoint], moves: list[Move], comp: int,
                  target: float) -> None:
    while points[-1].state(comp).length > target * math.sqrt(2):
        points.append(surfmodel.length_move(points[-1], comp, 0.5))
        moves.append(("length", comp, 0.5))
    while points[-1].state(comp).length < target / math.sqrt(2):
        points.append(surfmodel.length_move(points[-1], comp, 2.0))
        moves.append(("length", comp, 2.0))
    cur = points[-1].state(comp).length
    if abs(cur - target) > 1e-12:
        points.append(surfmodel.length_move(points[-1], comp, target / cur))
        moves.append(("length", comp, target / cur))


def preferred_path(x: ModelPoint, y: ModelPoint,
                   constants: Constants | None = None,
                   verify: bool = True) -> PreferredPath:
    """Construct a preferred path from x to y, one component at a time.

    Per component: walk the pants-slope geodesic; before each flip,
    twist the transversal onto the next slope (exactly, on these
    components equal twisting numbers mean equal transversals); finish
    by twisting onto the target transversal and matching the length.
    """
    if x.surface != y.surface:
        raise ValueError("endpoints live on different surfaces")
    surface = x.surface
    augmented = surface.fl.heights
    points: list[ModelPoint] = [x]
    moves: list[Move] = []
    if not surface.fl.annuli:
        # pants points have no transversal data: walk the slope geodesics
        for comp in range(surface.n_components):
            for s in farey_geodesic(x.alpha(comp), y.alpha(comp))[1:]:
                points.append(surfmodel.product_project(points[-1], {comp: s}))
                moves.append(("flip", comp))
        return PreferredPath(tuple(points), tuple(moves))
    for comp in range(surface.n_components):
        geo = farey_geodesic(x.alpha(comp), y.alpha(comp))
        for nxt in geo[1:]:
            cur = points[-1].state(comp)
            n = twist_number(cur.alpha, nxt) - twist_number(cur.alpha, cur.tau)
            _twist_steps(points, moves, comp, n, augmented)
            if points[-1].state(comp).tau != nxt:
                raise PathVerificationError("twist interpolation missed the next slope")
            if augmented:
                _length_steps(points, moves, comp, surface.bers)
            points.append(surfmodel.flip_move(points[-1], comp))
            moves.append(("flip", comp))
        cur = points[-1].state(comp)
        n = twist_number(cur.alpha, y.state(comp).tau) - twist_number(cur.alpha, cur.tau)
        _twist_steps(points, moves, comp, n, augmented)
        if augmented:
            _length_steps(points, moves, comp, y.state(comp).length)
        if points[-1].state(comp).tau != y.state(comp).tau:
            # same twisting number about the pants curve means the same
            # transversal here; anything else is a construction bug
            raise PathVerificationError("terminal transversal mismatch")
    path = PreferredPath(tuple(points), tuple(moves))
    if verify:
        verify_preferred(path, constants)
    return path


def _dedupe_stride(seq: list) -> list:
    out = [seq[0]]
    for s in seq[1:]:
        if s != out[-1]:
            out.append(s)
    if len(out) > 80:  # stride down to about 80 entries
        stride = math.ceil(len(out) / 80)
        out = out[::stride] + ([out[-1]] if out[-1] != out[::stride][-1] else [])
    return out


def verify_preferred(path: PreferredPath, constants: Constants | None = None) -> None:
    """Check both defining conditions at the frozen constants; raise on
    failure (a bug in the construction, not a property of the input)."""
    if constants is None:
        constants = default_constants()
    lam = constants["lambda_path"]
    c = constants["c_path"]
    lam_u = constants["lambda_unparam"]
    c_u = constants["c_unparam"]
    pts = path.points
    n = len(pts)
    stride = max(1, n // 40)
    idx = list(range(0, n, stride)) + [n - 1]
    for a_pos, i in enumerate(idx):
        for j in idx[a_pos + 1:]:
            d = model_distance(pts[i], pts[j])
            gap = j - i
            if d > lam * gap + c or d < gap / lam - c:
                raise PathVerificationError(
                    f"not a ({lam}, {c}) quasi-geodesic between steps {i} and {j}: "
                    f"d={d:.1f} vs gap={gap}")
    fl = pts[0].surface.fl
    for w in certificates(path.x, path.y):
        shadow = _dedupe_stride([project(p, w) for p in pts])
        handle = MetricHandle(f"shadow[{w}]",
                              lambda a, b, w=w: complex_distance(w, a, b, fl))
        ok, witness = unparam_qgeo_check(shadow, handle, lam_u, c_u)
        if not ok:
            raise PathVerificationError(
                f"projection to {w} is not an unparametrized quasi-geodesic: {witness}")


# ---------------------------------------------------------------------------
# Hulls
# ---------------------------------------------------------------------------


@dataclass
class HullQuery:
    """The sides of one endpoint pair: `sides[w]` is (pi_w(x), pi_w(y))
    for each certificate w, in `certificates` order.  `kappa` is at
    least 0 (infinity allowed); anything else, NaN included, is a
    ValueError."""

    x: ModelPoint
    y: ModelPoint
    kappa: float
    sides: dict[Subsurface, tuple[Any, Any]] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.kappa >= 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        self.sides = {w: (project(self.x, w), project(self.y, w))
                      for w in certificates(self.x, self.y)}

    def side_distance(self, w: Subsurface, coord) -> float:
        return side_nearest(w, self.x.surface.fl, *self.sides[w], coord)[0]


def side_nearest(w: Subsurface, fl: Flavor, a, b, coord) -> tuple[float, float]:
    """(distance, position from a) of the point of the side [a, b] nearest
    coord in the complex of w: the first nearest Farey vertex, or coord
    clamped to the arc (in twist, or by `horoball_point_to_segment`)."""
    if w.kind == "component":
        best_i, best_d = 0, math.inf
        for i, v in enumerate(farey_geodesic(a, b)):
            d = float(farey_distance(coord, v))
            if d < best_d:
                best_i, best_d = i, d
        return best_d, float(best_i)
    if not fl.heights:
        t = max(min(coord.twist, max(a.twist, b.twist)), min(a.twist, b.twist))
        return float(abs(coord.twist - t)), float(abs(t - a.twist))
    return horoball_point_to_segment(coord.coords(), a.coords(), b.coords())


def hull_membership(q: HullQuery, z: ModelPoint) -> tuple[bool, Subsurface | None]:
    """True when every certificate projection of z lies kappa-close to
    the geodesic between the endpoint projections; the witness is the
    worst offending subsurface otherwise."""
    worst_w, worst_d = None, -1.0
    for w in q.sides:
        d = q.side_distance(w, project(z, w))
        if d > worst_d:
            worst_w, worst_d = w, d
    if worst_d <= q.kappa:
        return True, None
    return False, worst_w


def lemma_g_excess(x: ModelPoint, y: ModelPoint,
                   members: Sequence[ModelPoint]) -> float:
    """max over hull members w, z and certificates U of
    d_U(w, z) - d_U(x, y); bounded for honest hull members."""
    certs = certificates(x, y)
    worst = 0.0
    for i, w in enumerate(members):
        for z in members[i + 1:]:
            for u in certs:
                worst = max(worst, subsurface_distance(w, z, u)
                            - subsurface_distance(x, y, u))
    return worst


def hull_thickness_audit(x: ModelPoint, y: ModelPoint,
                         members: Sequence[ModelPoint],
                         path: PreferredPath) -> float:
    """max over members of the distance to the path (the hull is within
    a multiple of the largest per-component spread of the endpoints)."""
    return max(min(model_distance(z, p) for p in path.points) for z in members)


# ---------------------------------------------------------------------------
# Centers
# ---------------------------------------------------------------------------


def farey_center(a: Slope, b: Slope, c: Slope) -> Slope:
    """The candidate on the three geodesics minimizing the worst
    distance to the sides (ties by canonical key)."""
    sides = [farey_geodesic(a, b), farey_geodesic(b, c), farey_geodesic(a, c)]
    cands = sorted({v for s in sides for v in s}, key=Slope.key)
    best, best_val = None, math.inf
    for v in cands:
        val = max(min(float(farey_distance(v, u)) for u in s) for s in sides)
        if val < best_val:
            best, best_val = v, val
    return best  # type: ignore[return-value]


def annular_center(a: AnnularPoint, b: AnnularPoint, c: AnnularPoint,
                   fl: Flavor) -> AnnularPoint:
    if not fl.heights:
        ts = sorted((a.twist, b.twist, c.twist))
        return AnnularPoint(ts[1])
    # horoballs: along [a, b], d(., [b, c]) falls to 0 at b and d(., [a, c])
    # rises from 0 at a (distances to convex sets are convex along a
    # geodesic), so the point nearest both sides is where they cross
    pa, pb, pc = a.coords(), b.coords(), c.coords()
    if pa == pb:  # a one-point side (common in certificate annuli): nothing to bisect
        return a
    _, back, ta, tb = geodesic_chart(pa, pb)
    for _ in range(60):
        mid = (ta + tb) / 2
        z = back(1j * math.exp(mid))
        p = (z.real, z.imag)
        if horoball_point_to_segment(p, pb, pc)[0] > horoball_point_to_segment(p, pa, pc)[0]:
            ta = mid
        else:
            tb = mid
    z = back(1j * math.exp((ta + tb) / 2))
    return AnnularPoint(round(z.real), z.imag)


def triangle_center(w: Subsurface, a, b, c, fl: Flavor):
    """The center of the triangle (a, b, c) in the complex of w."""
    if w.kind == "component":
        return farey_center(a, b, c)
    return annular_center(a, b, c, fl)


def tuple_center(x: ModelPoint, y: ModelPoint, z: ModelPoint,
                 constants: Constants) -> ModelPoint:
    """Realize the tuple of per-complex triangle centers."""
    surface = x.surface
    coords = {w: triangle_center(w, project(x, w), project(y, w), project(z, w), surface.fl)
              for w in {*certificates(x, y), *certificates(y, z), *certificates(x, z)}}
    return realize(ExactSystem(surface, coords), coords, m=constants["m_realize"])


# ---------------------------------------------------------------------------
# No-backtracking extraction
# ---------------------------------------------------------------------------


def extract_no_backtrack(trace: PathTrace, x: ModelPoint, y: ModelPoint,
                         eps: float, constants: Constants) -> PreferredPath:
    """Turn an efficient trace into a preferred path it fellow-travels.

    Per sample time and per certificate complex, take the triangle
    center of (x, y, sample) and keep the one farthest along the
    geodesic seen so far; the resulting coordinate tuples never move
    backwards, stay consistent, and realize to the output path.
    """
    R = trace.span
    if not effdiff.efficiency_test(trace, R, eps, constants["theta_eff"]):
        raise NotEfficientInputError("input not efficient")
    surface = x.surface
    sides = HullQuery(x, y, math.inf).sides
    sys = ExactSystem(surface, sides)
    best_pos: dict[Subsurface, float] = {w: -math.inf for w in sides}
    best_coord: dict[Subsurface, Any] = {}
    realized: list[ModelPoint] = []
    for p in trace.points:
        coords = {}
        for w, (pa, pb) in sides.items():
            eta = triangle_center(w, pa, pb, project(p, w), surface.fl)
            pos = side_nearest(w, surface.fl, pa, pb, eta)[1]
            if pos > best_pos[w]:
                best_pos[w] = pos
                best_coord[w] = eta
            coords[w] = best_coord[w]
        realized.append(realize(sys, coords, m=constants["m_realize"]))
    excursion = max(trace.handle.distance(p, q)
                    for p, q in zip(trace.points, realized))
    pts = [realized[0]]
    for p in realized[1:]:
        if p != pts[-1]:
            pts.append(p)
    return PreferredPath(tuple(pts), (("realized",),) * (len(pts) - 1),
                         excursion=excursion)


# ---------------------------------------------------------------------------
# Standard flats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatFactor:
    """One component's contribution to a flat: a preferred path, a twist
    lattice about a pinned curve, or a horoball ray (augmented)."""

    comp: int
    kind: str  # "path" | "twist" | "ray"
    interval: tuple[int, int]
    path: PreferredPath | None = None
    core: Slope | None = None
    tau0: Slope | None = None
    # twist_number(core, tau0) of a twist factor, computed once
    _twist0: int | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("path", "twist", "ray"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "path" and self.path is None:
            raise ValueError("path factors need a path")
        if self.kind in ("twist", "ray") and (self.core is None or self.tau0 is None
                                              or not farey_adjacent(self.core, self.tau0)):
            raise ValueError("pinned factors need a core and a Farey-adjacent base transversal")
        if self.kind == "twist":
            object.__setattr__(self, "_twist0", twist_number(self.core, self.tau0))


# entries of one flat's state table; a full table is emptied by its next miss
_FLAT_STATES_MAX = 50_000


@dataclass(frozen=True)
class StandardFlat:
    """An L1 product of factors over the components, evaluated on the
    lattice box given by the factor intervals.

    `_states` is the table `eval_rows` reads component states from: it maps
    (comp, coordinate, move) to a state key (`ModelPoint.state_keys`),
    lives as long as the flat, and holds at most `_FLAT_STATES_MAX`
    entries."""

    base: ModelPoint
    factors: tuple[FlatFactor, ...]
    _states: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        comps = [f.comp for f in self.factors]
        if len(set(comps)) != len(comps):
            raise ValueError("one factor per component")
        if not all(0 <= c < self.surface.n_components for c in comps):
            raise ValueError(f"factor components must lie in range({self.surface.n_components})")
        fl = self.surface.fl  # checked once here, so `eval` builds valid points
        for f in self.factors:
            if f.kind == "path" and any(p.surface != self.surface for p in f.path.points):
                raise ValueError("path factor points must lie on the flat's surface")
            if f.kind not in fl.factor_kinds:
                raise InessentialSubsurfaceError(
                    f"a {f.kind} flat needs annular {f.kind} coordinates, which the "
                    f"{fl.name} flavor does not have")

    @property
    def surface(self) -> ModelSurface:
        return self.base.surface

    @property
    def dim(self) -> int:
        return len(self.factors)

    def box(self) -> effdiff.Box:
        return effdiff.Box(tuple(f.interval for f in self.factors))

    def factor_state(self, f: FlatFactor, t: float) -> tuple:
        """The state key of factor f at coordinate t."""
        surface = self.surface
        if f.kind == "path":
            i = int(round(t)) - f.interval[0]
            i = max(0, min(len(f.path.points) - 1, i))
            return f.path.points[i].state_keys[f.comp]
        core, tau0 = f.core, f.tau0
        if f.kind == "twist":
            # absolute parametrization: the twist coordinate equals t
            length = surface.bers if surface.fl.heights else None
            return twist_state((core.p, core.q, tau0.p, tau0.q, length),
                               int(round(t)) - f._twist0)
        # ray: climb the horoball at unit speed from the Bers height
        t = max(0.0, float(t))
        length = surface.bers * math.exp(-t)
        if length == 0.0:  # underflows beyond t of about 745
            raise ValueError("augmented length must lie in (0, B]")
        return (core.p, core.q, tau0.p, tau0.q, length)

    def eval(self, t_vec: Sequence[float]) -> ModelPoint:
        """`eval_rows` on one row: the flat's point at t_vec."""
        return self.eval_rows([t_vec])[0]

    def eval_rows(self, rows: Sequence[Sequence[float]],
                  bursts: Sequence[tuple[int, bool, int] | None] | None = None,
                  ) -> list[ModelPoint]:
        """The flat's point at each row t_vec.  A burst (comp, flip, n)
        of small moves, one per row or None, is applied to that
        component's state before the point is built: a flip if `flip`,
        then n twists about the pants curve.

        Each component's state key comes from the flat's table
        `_states`, at (comp, the coordinate `factor_state` reads or None
        for a component without a factor, (flip, n) or None for no
        move); a miss runs `_table_entry`, and a table of
        `_FLAT_STATES_MAX` entries is emptied by its next miss.  So
        images at one lattice point and burst share their state keys."""
        factors = [(f, f.comp) for f in self.factors]
        surface, base = self.surface, list(self.base.state_keys)
        get, entry, trusted = self._states.get, self._table_entry, ModelPoint._trusted
        out = []
        for t_vec, burst in zip(rows, bursts or [None] * len(rows), strict=True):
            if len(t_vec) != len(factors):
                raise ValueError("one coordinate per factor")
            keys = base.copy()
            bcomp, move = -1, None  # bcomp: the component whose move is still to apply
            if burst is not None:
                comp, flip, n = burst
                if not 0 <= comp < len(keys):
                    raise IndexError(f"burst component {comp} out of range")
                if flip or n:
                    bcomp, move = comp, (flip, n)
            for (f, c), t in zip(factors, t_vec):
                if c == bcomp:
                    k, bcomp = (c, t, move), -1
                else:
                    k = (c, t, None)
                keys[c] = get(k) or entry(k, f)
            if bcomp >= 0:  # a burst on a component without a factor
                k = (bcomp, None, move)
                keys[bcomp] = get(k) or entry(k, None)
            # a valid base, factor states kept valid by __post_init__ and
            # factor_state, and moves that keep a state valid
            out.append(trusted(surface, keys))
        return out

    def _table_entry(self, k: tuple, f: FlatFactor | None) -> tuple:
        """Build, store and return the state key at k = (comp, t, move):
        f's state at t (the base state if f is None), flipped if the
        move says so and then twisted n times."""
        comp, t, move = k
        st = self.base.state_keys[comp] if f is None else self.factor_state(f, t)
        if move is not None:
            flip, n = move
            if flip:
                st = flip_state(st, self.surface.bers)
            if n:
                st = twist_state(st, n)
        if len(self._states) >= _FLAT_STATES_MAX:
            self._states.clear()
        self._states[k] = st
        return st

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "base": self.base.to_json(),
            "factors": [
                {"comp": f.comp, "kind": f.kind, "interval": list(f.interval),
                 "core": f.core.to_json() if f.core else None,
                 "tau0": f.tau0.to_json() if f.tau0 else None,
                 "path_len": len(f.path.points) if f.path else None}
                for f in self.factors
            ],
        }


def _factor_min_distance(flat: StandardFlat, f: FlatFactor, p: ModelPoint) -> float:
    """min over the factor coordinate of the single-component distance
    between p and the factor state (the L1 metric separates factors)."""
    lo, hi = f.interval

    def at(t: float) -> float:
        return component_distance(p, flat.base.with_state(f.comp, flat.factor_state(f, t)),
                                  f.comp)

    if f.kind in ("twist", "ray"):
        w = Subsurface("annulus", f.comp, f.core)
        coord = project(p, w)
        guess = (float(coord.twist) if f.kind == "twist"
                 else math.log(max(1.0, coord.height * flat.surface.bers)))
        cands = sorted({lo, hi, int(max(lo, min(hi, round(guess))))})
        base = min(cands, key=at)
        best = at(base)
        for t in range(base - 3, base + 4):
            if lo <= t <= hi:
                best = min(best, at(t))
        return best
    # path factor: strided scan plus local refinement
    n = hi - lo
    stride = max(1, n // 24)
    vals = {t: at(t) for t in list(range(lo, hi + 1, stride)) + [hi]}
    t0 = min(vals, key=vals.get)
    best = vals[t0]
    for t in range(max(lo, t0 - stride), min(hi, t0 + stride) + 1):
        best = min(best, at(t))
    return best


def point_to_flat(flat: StandardFlat, p: ModelPoint) -> float:
    """d_X(p, image of the flat), decomposed per factor plus the
    contribution of components the flat leaves at its base point."""
    total = 0.0
    covered = set()
    for f in flat.factors:
        covered.add(f.comp)
        total += _factor_min_distance(flat, f, p)
    for comp in range(flat.surface.n_components):
        if comp not in covered:
            total += component_distance(p, flat.base, comp)
    return total


def flat_fit(points: Sequence[ModelPoint],
             flats: Sequence[StandardFlat]) -> tuple[float, StandardFlat]:
    """min over candidate flats of the worst sample distance."""
    if not flats:
        raise ValueError("empty candidate set")
    best_val, best_flat = math.inf, None
    for fl in flats:
        val = max(point_to_flat(fl, p) for p in points)
        if val < best_val:
            best_val, best_flat = val, fl
    return best_val, best_flat


def pinned_curve(samples: Sequence[ModelPoint], comp: int) -> tuple[Slope, int, bool]:
    """The pants curve of component comp that most samples share (ties go
    to the least key), how many share it, and whether it pins the
    component: it does when at least four fifths of the samples share it."""
    counts: dict[Slope, int] = {}
    for p in samples:
        counts[p.alpha(comp)] = counts.get(p.alpha(comp), 0) + 1
    core, hits = max(counts.items(), key=lambda kv: (kv[1],) + tuple(-k for k in kv[0].key()))
    return core, hits, hits >= 0.8 * len(samples)


def candidate_flats(samples: Sequence[ModelPoint],
                    constants: Constants | None = None) -> list[StandardFlat]:
    """Flats reconstructed from the samples' endpoint data: components
    with a fixed pants slope become twist factors over the observed
    range; the rest get preferred paths between the extremal states."""
    if not samples:
        raise ValueError("no samples")
    surface = samples[0].surface
    sub = list(samples[:: max(1, len(samples) // 10)])  # about 10 anchors
    p_star, q_star, best = sub[0], sub[-1], -1.0
    for i, a in enumerate(sub):
        for b in sub[i + 1:]:
            d = model_distance(a, b)
            if d > best:
                p_star, q_star, best = a, b, d
    factors = []
    for comp in range(surface.n_components):
        core, _hits, pinned = pinned_curve(samples, comp)
        if pinned and surface.fl.annuli:
            w = Subsurface("annulus", comp, core)
            tw = [project(p, w).twist for p in samples if p.alpha(comp) == core]
            pad = 2
            tau0 = next(p.state(comp).tau for p in samples if p.alpha(comp) == core)
            factors.append(FlatFactor(comp, "twist",
                                      (min(tw) - pad, max(tw) + pad),
                                      core=core, tau0=tau0))
        else:
            b = p_star.with_state(comp, q_star.state_keys[comp])
            path = preferred_path(p_star, b, constants, verify=False)
            factors.append(FlatFactor(comp, "path", (0, len(path.points) - 1),
                                      path=path))
    return [StandardFlat(p_star, tuple(factors))]


# ---------------------------------------------------------------------------
# Steady progress, antichains, fellow traveling
# ---------------------------------------------------------------------------


def _xw_metric(w: Subsurface) -> Callable[[ModelPoint, ModelPoint], float]:
    if w.kind == "component":
        return lambda a, b: component_distance(a, b, w.comp)
    return lambda a, b: subsurface_distance(a, b, w)


def steady_progress(path: PreferredPath, w: Subsurface, c0: float) -> bool:
    """Split the path at the five points where the submodel distance
    from the start crosses the quintiles of L = d_{X(W)}(x, y); progress
    counts only if every consecutive pair is at least c0 apart in the
    curve complex of W."""
    pts = path.points
    dxw = _xw_metric(w)
    total = dxw(pts[0], pts[-1])
    if len(pts) < 6 or total < 5:
        raise ValueError("path below resolution for quintiles")
    quintiles = [pts[0]]
    t = 0
    for i in range(1, 5):
        target = i * total / 5
        while t < len(pts) - 1 and dxw(pts[0], pts[t]) < target - 1e-9:
            t += 1
        quintiles.append(pts[t])
    quintiles.append(pts[-1])
    gap = lambda a, b: subsurface_distance(a, b, w)
    return all(gap(a, b) >= c0 for a, b in zip(quintiles, quintiles[1:]))


@dataclass
class Antichain:
    members: list[Subsurface]
    t0: float
    t1: float
    d_w: float
    bound: float

    @property
    def ok(self) -> bool:
        return len(self.members) <= self.bound * max(1.0, self.d_w)


def antichain_build(x: ModelPoint, y: ModelPoint, comp: int,
                    t0: float, t1: float, a_bound: float) -> Antichain:
    """In this model the proper subsurfaces of a component are annuli,
    which never nest, so the antichain is the threshold set itself; the
    cardinality bound uses the projection-set convention that distinct
    projections are at least one apart."""
    if not (0 < t0 <= t1):
        raise ValueError("need T1 >= T0 > 0")
    terms = distance_formula(x, y, threshold=t0, comps=(comp,))[1]
    members = [w for w, _ in terms if w.kind == "annulus"]
    d_w = float(farey_distance(x.alpha(comp), y.alpha(comp)))
    if d_w == 0 and x != y:
        d_w = 1.0
    return Antichain(members, t0, t1, d_w, a_bound)


@dataclass
class FellowVerdict:
    applicable: bool
    passed: bool
    detail: dict


def near_region_check(gamma: PreferredPath, gamma_prime: PreferredPath,
                      comp: int, core: Slope, constants: Constants) -> FellowVerdict:
    """Steady progress in an annulus forces nearby paths to spend a
    definite stretch near the region pinned on its core."""
    c0 = constants["c0_steady"]
    d0 = constants["d0_progress"]
    c_end = constants["c0_endpoints"]
    prox = constants["c_region_proximity"]
    w = Subsurface("annulus", comp, core)
    x, y = gamma.x, gamma.y
    dxw = _xw_metric(w)
    d_big = dxw(x, y)
    hyp = (
        x.alpha(comp) == core and y.alpha(comp) == core
        and d_big >= d0
        and model_distance(x, gamma_prime.x) <= c_end * d_big
        and model_distance(y, gamma_prime.y) <= c_end * d_big
        and steady_progress(gamma, w, c0)
    )
    if not hyp:
        return FellowVerdict(False, True, {"reason": "hypotheses unmet"})
    pins = {comp: core}
    best_run = 0.0
    start = None
    for p in gamma_prime.points:
        near = model_distance(p, surfmodel.product_project(p, pins)) <= prox
        if near:
            if start is None:
                start = p
            # run length from the first point of this stretch; step sums
            # would vanish below the distance-formula threshold
            best_run = max(best_run, dxw(start, p))
        else:
            start = None
    needed = d_big / constants["kappa_fellow"]
    return FellowVerdict(True, best_run >= needed,
                         {"best_run": best_run, "needed": needed, "d": d_big})


def hull_transfer_check(x: ModelPoint, y: ModelPoint,
                        xp: ModelPoint, yp: ModelPoint, z_prime: ModelPoint,
                        comp: int, constants: Constants) -> FellowVerdict:
    """Hull members of a perturbed pair that sit deep in the middle (far
    from both endpoints in the component's curve graph) belong to the
    original hull."""
    c1 = constants["c1_separation"]
    delta_far = constants["delta_farey"]
    kappa = constants["kappa_hull"]
    ds = lambda a, b: float(farey_distance(a.alpha(comp), b.alpha(comp)))
    hyp = (
        ds(x, xp) <= 2 * delta_far + 2 and ds(y, yp) <= 2 * delta_far + 2
        and ds(z_prime, x) >= c1 and ds(z_prime, y) >= c1
        and hull_membership(HullQuery(xp, yp, kappa), z_prime)[0]
    )
    if not hyp:
        return FellowVerdict(False, True, {"reason": "hypotheses unmet"})
    ok, worst = hull_membership(HullQuery(x, y, constants["kappa_hull_transfer"]), z_prime)
    return FellowVerdict(True, ok, {"worst": repr(worst) if worst else None})
