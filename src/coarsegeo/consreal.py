"""Consistency checking, realization, and projection audits.

A tuple with one coordinate per subsurface is M-consistent when every
overlapping pair satisfies min(d_U(z_U, bV), d_V(z_V, bU)) <= M and
every nested pair V inside U satisfies min(d_U(z_U, bV), d_V(z_V, z_U))
<= M, where bV is the boundary of V projected into the other complex.
Tuples of projections of genuine model points always pass at a frozen
constant, and consistent tuples can be realized back into the exact
model: pick pants slopes from component coordinates, swap in any
annulus whose twist demand is far from that choice (those form a
multicurve, at most one per component here), then build transversals by
twisting and read lengths off horoball heights.

In the exact model the boundary projection between two annuli depends
only on their cores, which a system fixes when it is built, so an exact
system computes those twisting numbers once, in a per-component table,
and every check on it (realization re-checks included) reads them back.

Synthetic systems (explicit relation tables over abstract complexes)
exercise the same checker on nesting chains and overlap graphs that the
exact zero-complexity model cannot produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from . import surfmodel
from .surfmodel import (AnnularPoint, ModelPoint, ModelSurface, Slope, Subsurface,
                        annular_distance, annular_row, boundary_point, farey_distance,
                        pinned_state, project, twist_number)

DISJOINT, NESTED, OVERLAP = "disjoint", "nested", "overlap"


class MissingProjectionError(KeyError):
    pass


class InconsistentTupleError(ValueError):
    def __init__(self, report: "ConsistencyReport"):
        super().__init__(f"tuple is not consistent: realized M = {report.realized_m:.2f}")
        self.report = report


@dataclass(frozen=True)
class ProjectionTuple:
    """Coordinates indexed by subsurface (or synthetic id)."""

    coords: tuple[tuple[Hashable, Any], ...]
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # reversed, so a repeated key maps to its first coordinate
        object.__setattr__(self, "_index", dict(reversed(self.coords)))

    @classmethod
    def of(cls, mapping: Mapping[Hashable, Any]) -> "ProjectionTuple":
        items = sorted(mapping.items(), key=lambda kv: _id_key(kv[0]))
        return cls(tuple(items))

    def __getitem__(self, key):
        return self._index[key]

    def __contains__(self, key) -> bool:
        return key in self._index

    def keys(self):
        return [k for k, _ in self.coords]

    def to_json(self) -> list:
        return [[_id_json(k), _coord_json(v)] for k, v in self.coords]


def _id_key(u) -> tuple:
    return u.key() if hasattr(u, "key") else (str(u),)


def _id_json(u):
    if isinstance(u, Subsurface):
        return {"kind": u.kind, "comp": u.comp,
                "core": u.core.to_json() if u.core else None}
    return u


def _coord_json(v):
    if isinstance(v, Slope):
        return {"slope": v.to_json()}
    if isinstance(v, AnnularPoint):
        return {"twist": v.twist, "height": v.height}
    return v


@dataclass
class ConsistencyReport:
    verdict: bool
    realized_m: float
    violations: list[tuple[Hashable, Hashable, float]]
    threshold: float

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "verdict": self.verdict,
            "realized_m": self.realized_m,
            "threshold": self.threshold,
            "violations": [[_id_json(u), _id_json(v), val]
                           for u, v, val in self.violations],
        }


# ---------------------------------------------------------------------------
# Subsurface systems
# ---------------------------------------------------------------------------


class SubsurfaceSystem:
    """Interface shared by the exact model and synthetic tables."""

    def members(self) -> list[Hashable]:
        raise NotImplementedError

    def relation(self, u, v) -> str:
        """DISJOINT / OVERLAP, or NESTED meaning v is properly inside u."""
        raise NotImplementedError

    def boundary_projection(self, u, v):
        """pi_U(boundary of V), or raise MissingProjectionError."""
        raise NotImplementedError

    def project_element(self, u, v, elt):
        """pi_V of a curve-complex element of C(U); may be undefined."""
        raise NotImplementedError

    def complex_distance(self, u, a, b) -> float:
        raise NotImplementedError

    def orient_nested(self, u, v) -> tuple[Any, Any]:
        """(inner, outer) for a pair whose relation is NESTED."""
        raise NotImplementedError

    def pair_values(self, z: ProjectionTuple) -> Iterator[tuple[Hashable, Hashable, float]]:
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

    def _dist_to_boundary(self, u, v, z: ProjectionTuple) -> float:
        try:
            b = self.boundary_projection(u, v)
        except MissingProjectionError:
            return math.inf
        return self.complex_distance(u, z[u], b)


class ExactSystem(SubsurfaceSystem):
    """The subsurface system of a zero-complexity model surface,
    restricted to a finite working set of annuli per component (none in
    a flavor without annuli).

    Every boundary projection between two annuli of a component is
    boundary_point(core_u, core_v), a function of the two cores alone,
    and the cores are fixed when the system is built.  So the first
    consistency check builds one twist table per component, T[u][v] =
    twist_number(core_u, core_v) for each ordered pair of its k annuli
    (k(k-1) ints, held by the system and freed with it), and every check
    reads its overlap pairs off those rows exactly.
    """

    def __init__(self, surface: ModelSurface,
                 subsurfaces: Iterable[Subsurface]):
        self.surface = surface
        subs = {w for w in subsurfaces if surface.fl.annuli or w.kind == "component"}
        comps = {Subsurface("component", i) for i in range(surface.n_components)}
        self._members = sorted(subs | comps, key=_id_key)
        self._twists = None  # twist_table(), built by the first check

    def members(self) -> list[Subsurface]:
        return self._members

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

    def complex_distance(self, u: Subsurface, a, b) -> float:
        return surfmodel.complex_distance(u, a, b, self.surface.fl)

    def twist_table(self) -> list[tuple[Subsurface | None, list[Subsurface], list[list[int]]]]:
        """Per component, in member order: its component member (None when
        only annuli name it), its annuli a_0..a_{k-1}, and rows[i] =
        [twist_number(a_i.core, a_j.core) for j != i], built on first use."""
        if self._twists is None:
            groups: dict[int, list[Subsurface]] = {}
            for w in self._members:
                groups.setdefault(w.comp, []).append(w)
            table = []
            for group in groups.values():
                annuli = [w for w in group if w.kind == "annulus"]
                for a in annuli:
                    if a.core is None:
                        raise ValueError(f"annulus {a} has no core")
                rows = [[surfmodel.twist_number(a.core, b.core)
                         for j, b in enumerate(annuli) if j != i]
                        for i, a in enumerate(annuli)]
                table.append((group[0] if group[0].kind == "component" else None, annuli, rows))
            self._twists = table
        return self._twists

    def pair_values(self, z: ProjectionTuple) -> Iterator[tuple[Subsurface, Subsurface, float]]:
        """The base loop's values, component by component: each nested pair
        (W, A) from the component coordinate, and each overlap pair (u, v)
        as min(row_u[v], row_v[u]) of the annular distances from z_u and z_v
        to the twist-table rows."""
        fl = self.surface.fl
        for w, annuli, rows in self.twist_table():
            present = [i for i, a in enumerate(annuli) if a in z]
            if w is not None and w in z:
                zw = z[w]
                for i in present:
                    a = annuli[i]
                    d_outer = float(farey_distance(zw, a.core))
                    d_inner = math.inf if zw == a.core else annular_distance(
                        z[a], boundary_point(a.core, zw, fl), fl)
                    yield w, a, min(d_outer, d_inner)
            if len(present) < len(annuli):  # row i skips column i
                rows = [[rows[i][j - (j > i)] for j in present if j != i] for i in present]
            dists = [annular_row(z[annuli[i]], row, fl)
                     for i, row in zip(present, rows)]
            for s, i in enumerate(present):
                for t in range(s + 1, len(present)):
                    yield annuli[i], annuli[present[t]], min(dists[s][t - 1], dists[t][s])


@dataclass
class SyntheticSystem(SubsurfaceSystem):
    """An abstract system given by explicit tables.

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

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "ids": list(self.ids),
            "nested": sorted(list(p) for p in self.nested),
            "overlaps": sorted(sorted(p) for p in self.overlaps),
            "boundary": [[list(k), v] for k, v in sorted(self.boundary.items())],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SyntheticSystem":
        return cls(
            ids=tuple(doc["ids"]),
            nested={tuple(p) for p in doc["nested"]},
            overlaps={frozenset(p) for p in doc["overlaps"]},
            boundary={tuple(k): v for k, v in doc["boundary"]},
        )


def exact_system_for(x: ModelPoint, y: ModelPoint | None = None,
                     extra_cores: Iterable[tuple[int, Slope]] = ()) -> ExactSystem:
    """The working system for one or two points: their candidate
    subsurfaces plus any explicitly requested annuli."""
    subs = set(surfmodel.candidate_subsurfaces(x, y if y is not None else x))
    for comp, core in extra_cores:
        subs.add(Subsurface("annulus", comp, core))
    return ExactSystem(x.surface, subs)


def tuple_of_projections(x: ModelPoint, sys: ExactSystem) -> ProjectionTuple:
    return ProjectionTuple.of({w: project(x, w) for w in sys.members()})


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------


def consistency_check(sys: SubsurfaceSystem, z: ProjectionTuple,
                      m: float) -> ConsistencyReport:
    """Evaluate both consistency conditions on every related pair.

    The realized M is the max over pairs of the tested min-expression
    (`SubsurfaceSystem.pair_values`); the verdict is realized M <= m.
    """
    realized = 0.0
    violations: list[tuple[Hashable, Hashable, float]] = []
    for u, v, val in sys.pair_values(z):
        realized = max(realized, val)
        if val > m:
            violations.append((u, v, val))
    return ConsistencyReport(not violations, realized, violations, m)


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


def _bad_annuli(sys: ExactSystem, z: ProjectionTuple, comp: int,
                pants: Slope, m_bad: float) -> list[tuple[float, Subsurface]]:
    """Annuli whose coordinate demands more twisting about their core
    than the chosen pants slope provides."""
    fl = sys.surface.fl
    out = []
    for w in sys.members():
        if w.kind != "annulus" or w.comp != comp or w not in z or w.core == pants:
            continue
        ref = boundary_point(w.core, pants, fl)
        defect = annular_distance(ref, z[w], fl)
        if defect > m_bad:
            out.append((defect, w))
    out.sort(key=lambda dw: (-dw[0],) + dw[1].key())
    return out


def realize(sys: ExactSystem, z: ProjectionTuple, m: float,
            m_bad: float | None = None) -> ModelPoint:
    """Build a model point whose projections track a consistent tuple.

    The multicurve of twist-demanding annuli replaces pants slopes where
    needed; in this model two such annuli in one component would have to
    cross, which consistency forbids.
    """
    report = consistency_check(sys, z, m)
    if not report.verdict:
        raise InconsistentTupleError(report)
    surface = sys.surface
    if m_bad is None:
        m_bad = 2 * m + 2
    states = []
    for comp in range(surface.n_components):
        w_comp = Subsurface("component", comp)
        if w_comp not in z:
            raise MissingProjectionError(f"tuple lacks the component coordinate {w_comp}")
        pants: Slope = z[w_comp]
        bad = _bad_annuli(sys, z, comp, pants, m_bad)
        if len(bad) >= 2:
            # distinct annuli on one component always cross; a consistent
            # tuple cannot demand large twisting about two crossing cores
            raise InconsistentTupleError(report)
        if bad:
            pants = bad[0][1].core
        a_pants = Subsurface("annulus", comp, pants)
        states.append(pinned_state(surface, pants, z[a_pants] if a_pants in z else None))
    return ModelPoint(surface, tuple(states))


def realization_defects(sys: ExactSystem, z: ProjectionTuple,
                        point: ModelPoint) -> dict[Hashable, float]:
    """Per-subsurface distance between the realized point's projections
    and the requested coordinates."""
    return {w: sys.complex_distance(w, project(point, w), z[w])
            for w in sys.members() if w in z}


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


@dataclass
class BgitVerdict:
    disjoint_hit: bool
    realized: float | None
    bound: float

    @property
    def ok(self) -> bool:
        return self.disjoint_hit or (self.realized is not None and self.realized <= self.bound)


def bgit_audit(geodesic_vertices: Iterable[Slope], core: Slope, bound: float) -> BgitVerdict:
    """Bounded geodesic image dichotomy for an annulus: either some
    vertex misses the annulus (here: equals the core) or the endpoints'
    twisting numbers about the core are close."""
    verts = list(geodesic_vertices)
    if len(verts) < 2:
        return BgitVerdict(True, None, bound)
    if any(v == core for v in verts):
        return BgitVerdict(True, None, bound)
    gap = abs(twist_number(core, verts[0]) - twist_number(core, verts[-1]))
    return BgitVerdict(False, float(gap), bound)


@dataclass
class FarVerdict:
    vacuous: bool
    antecedent: float | None
    consequent: float | None
    ok: bool


def far_projection_check(x: ModelPoint, u: Subsurface, v: Subsurface,
                         m1: float, c_far: float) -> FarVerdict:
    """If the projection to U sits far from the boundary of V, the
    projections to V from both sources must agree up to a constant."""
    if u.kind != "component" or v.kind != "annulus" or u.comp != v.comp:
        raise ValueError("the audit needs an annulus inside a component")
    ante = float(farey_distance(project(x, u), v.core))  # type: ignore[arg-type]
    if ante <= m1:
        return FarVerdict(True, ante, None, True)
    xu = project(x, u)
    if xu == v.core:
        return FarVerdict(True, ante, None, True)
    fl = x.surface.fl
    via_u = boundary_point(v.core, xu, fl)
    direct = project(x, v)
    cons = annular_distance(direct, via_u, fl)  # type: ignore[arg-type]
    return FarVerdict(False, ante, cons, cons <= c_far)
