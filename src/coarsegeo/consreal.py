"""Consistency checking, realization, and projection audits.

A tuple is a plain dict with one coordinate per subsurface: a pants
slope for a component, an annular point for an annulus.  It is
M-consistent when every overlapping pair satisfies
min(d_U(z_U, bV), d_V(z_V, bU)) <= M and every nested pair V inside U
satisfies min(d_U(z_U, bV), d_V(z_V, z_U)) <= M, where bV is the
boundary of V projected into the other complex.  Tuples of
projections of genuine model points always pass at a frozen constant,
and consistent tuples can be realized back into the exact model: pick
pants slopes from component coordinates, swap in any annulus whose
twist demand is far from that choice (those form a multicurve, at most
one per component here), then build transversals by twisting and read
lengths off horoball heights.

In the exact model the boundary projection between two annuli depends
only on their cores, which a system fixes when it is built, so an exact
system computes those twisting numbers when it is built, in a
per-component `surfmodel.twist_table` (the table the projection graph
of `bbf` reads), and every check on it (realization re-checks included)
reads them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import surfmodel
from .surfmodel import (AnnularPoint, ModelPoint, ModelSurface, Slope, Subsurface,
                        annular_distance, annular_row, boundary_point, farey_distance,
                        pinned_state, project, twist_number)

Coordinate = Slope | AnnularPoint  # a tuple is a Mapping[Subsurface, Coordinate]


class MissingProjectionError(KeyError):
    pass


class InconsistentTupleError(ValueError):
    def __init__(self, report: "ConsistencyReport"):
        super().__init__(f"tuple is not consistent: realized M = {report.realized_m:.2f}")
        self.report = report


def _coord_json(v: Coordinate) -> dict:
    if isinstance(v, Slope):
        return {"slope": v.to_json()}
    return {"twist": v.twist, "height": v.height}


@dataclass
class ConsistencyReport:
    verdict: bool
    realized_m: float
    violations: list[tuple[Subsurface, Subsurface, float]]


# ---------------------------------------------------------------------------
# The exact subsurface system
# ---------------------------------------------------------------------------


class ExactSystem:
    """The subsurface system of a zero-complexity model surface,
    restricted to a finite working set of annuli per component (none in
    a flavor without annuli).  `members()` are sorted by `Subsurface.key`,
    and the checks read a tuple by looking its members up in it.

    Every boundary projection between two annuli of a component is
    boundary_point(core_u, core_v), a function of the two cores alone,
    and the cores are fixed when the system is built.  So the system
    builds one twist table per component with its members: `tables`
    holds, per component in member order, its component member (None
    when only annuli name it), its annuli a_0..a_{k-1}, and the square
    rows T[i][j] = twist_number(a_i.core, a_j.core) of
    `surfmodel.twist_table` (k^2 Python ints, 0 on the diagonal, freed
    with the system).  Every check reads its overlap pairs off those
    rows exactly.
    """

    def __init__(self, surface: ModelSurface,
                 subsurfaces: Iterable[Subsurface]):
        self.surface = surface
        subs = {w for w in subsurfaces if surface.fl.annuli or w.kind == "component"}
        comps = {Subsurface("component", i) for i in range(surface.n_components)}
        self._members = sorted(subs | comps, key=Subsurface.key)
        groups: dict[int, list[Subsurface]] = {}
        for w in self._members:
            groups.setdefault(w.comp, []).append(w)
        self.tables: list[tuple[Subsurface | None, list[Subsurface], list[list[int]]]] = []
        for group in groups.values():
            annuli = [w for w in group if w.kind == "annulus"]
            rows = surfmodel.twist_table([(a.core.p, a.core.q) for a in annuli])
            self.tables.append((group[0] if group[0].kind == "component" else None,
                                annuli, rows))

    def members(self) -> list[Subsurface]:
        return self._members

    def complex_distance(self, u: Subsurface, a, b) -> float:
        return surfmodel.complex_distance(u, a, b, self.surface.fl)

    def pair_values(self, z: Mapping[Subsurface, Coordinate],
                    ) -> Iterator[tuple[Subsurface, Subsurface, float]]:
        """(u, v, value) for each related pair of the members in z, u
        before v in member order, component by component: each nested pair
        (W, A) as min(d_W(z_W, core of A), d_A(z_A, pi_A(z_W))), and each
        overlap pair (u, v) as min(row_u[v], row_v[u]) of the annular
        distances from z_u and z_v to the twist-table rows."""
        fl = self.surface.fl
        for w, annuli, rows in self.tables:
            present = [i for i, a in enumerate(annuli) if a in z]
            if w is not None and w in z:
                zw = z[w]
                for i in present:
                    a = annuli[i]
                    d_outer = float(farey_distance(zw, a.core))
                    d_inner = math.inf if zw == a.core else annular_distance(
                        z[a], boundary_point(a.core, zw, fl), fl)
                    yield w, a, min(d_outer, d_inner)
            if len(present) < 2:  # no overlap pair, so no coordinate is read
                continue
            if len(present) < len(annuli):
                rows = [[rows[i][j] for j in present] for i in present]
            dists = [annular_row(z[annuli[i]], row, fl) for i, row in zip(present, rows)]
            for s, i in enumerate(present):
                for t in range(s + 1, len(present)):
                    yield annuli[i], annuli[present[t]], min(dists[s][t], dists[t][s])


def exact_system_for(x: ModelPoint, y: ModelPoint | None = None,
                     extra_cores: Iterable[tuple[int, Slope]] = ()) -> ExactSystem:
    """The working system for one or two points: their candidate
    subsurfaces plus any explicitly requested annuli."""
    subs = set(surfmodel.candidate_subsurfaces(x, y if y is not None else x))
    for comp, core in extra_cores:
        subs.add(Subsurface("annulus", comp, core))
    return ExactSystem(x.surface, subs)


def tuple_of_projections(x: ModelPoint, sys: ExactSystem) -> dict[Subsurface, Coordinate]:
    return {w: project(x, w) for w in sys.members()}


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------


def consistency_check(sys: ExactSystem, z: Mapping[Subsurface, Coordinate],
                      m: float) -> ConsistencyReport:
    """Evaluate both consistency conditions on every related pair.

    The realized M is the max over pairs of the tested min-expression
    (`ExactSystem.pair_values`); the verdict is realized M <= m.
    """
    realized = 0.0
    violations: list[tuple[Subsurface, Subsurface, float]] = []
    for u, v, val in sys.pair_values(z):
        realized = max(realized, val)
        if val > m:
            violations.append((u, v, val))
    return ConsistencyReport(not violations, realized, violations)


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


def _bad_annuli(sys: ExactSystem, z: Mapping[Subsurface, Coordinate], comp: int,
                pants: Slope, m_bad: float) -> list[Subsurface]:
    """Annuli whose coordinate demands more twisting about their core
    than the chosen pants slope provides, largest defect first."""
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
    return [w for _, w in out]


def realize(sys: ExactSystem, z: Mapping[Subsurface, Coordinate], m: float,
            m_bad: float | None = None) -> ModelPoint:
    """Build a model point whose projections track a consistent tuple.

    The multicurve of twist-demanding annuli replaces pants slopes where
    needed.  In this model any two annuli in one component cross, so a
    component takes the first demanding core whose twisting explains
    every other demand there, and the tuple is refused if none does.
    """
    report = consistency_check(sys, z, m)
    if not report.verdict:
        raise InconsistentTupleError(report)
    surface = sys.surface
    fl = surface.fl
    if m_bad is None:
        m_bad = 2 * m + 2
    states = []
    for comp in range(surface.n_components):
        w_comp = Subsurface("component", comp)
        if w_comp not in z:
            raise MissingProjectionError(f"tuple lacks the component coordinate {w_comp}")
        pants: Slope = z[w_comp]
        bad = _bad_annuli(sys, z, comp, pants, m_bad)
        if bad:
            pants = next((a.core for a in bad if all(
                annular_distance(boundary_point(w.core, a.core, fl), z[w], fl) <= m_bad
                for w in bad if w != a)), None)
            if pants is None:
                raise InconsistentTupleError(report)
        a_pants = Subsurface("annulus", comp, pants)
        states.append(pinned_state(surface, pants, z[a_pants] if a_pants in z else None))
    return ModelPoint(surface, tuple(states))


def realization_defects(sys: ExactSystem, z: Mapping[Subsurface, Coordinate],
                        point: ModelPoint) -> dict[Subsurface, float]:
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
    projections to V from both sources must agree up to a constant.  A
    negative or NaN m1 is refused: with m1 >= 0 a projection equal to
    V's core, at distance 0, is a vacuous case."""
    if u.kind != "component" or v.kind != "annulus" or u.comp != v.comp:
        raise ValueError("the audit needs an annulus inside a component")
    if not m1 >= 0:
        raise ValueError(f"the far-projection constant m1 must be >= 0, got {m1}")
    xu = project(x, u)
    ante = float(farey_distance(xu, v.core))  # type: ignore[arg-type]
    if ante <= m1:
        return FarVerdict(True, ante, None, True)
    fl = x.surface.fl
    via_u = boundary_point(v.core, xu, fl)
    direct = project(x, v)
    cons = annular_distance(direct, via_u, fl)  # type: ignore[arg-type]
    return FarVerdict(False, ante, cons, cons <= c_far)
