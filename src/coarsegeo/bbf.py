"""Transversal families, the projection graph, and the quasi-tree of
complexes.

Subsurfaces split into finitely many families whose members pairwise
cross; on a zero-complexity component that is the component itself
(one singleton family) and the annuli (all distinct cores cross).  For
one family, vertices whose mutual projections into every other member
stay below K are joined in the projection graph, and gluing each
member's complex to its neighbors along boundary projections yields a
quasi-tree whose path metric dominates half of the thresholded
projection sum.  The product of these quasi-trees receives the model
space through the coordinate-minimizing projection, a quasi-isometric
embedding audited here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import surfmodel
from .surfmodel import (AnnularPoint, Flavor, ModelPoint, ModelSurface, Slope, Subsurface,
                        annular_distance, boundary_point, common_neighbors,
                        complex_distance, distance_formula, farey_geodesic, project,
                        twist_number)


class WindowTooSmallError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyY:
    """A family of pairwise-crossing subsurfaces on one component:
    either the singleton component family or a window of annuli."""

    comp: int
    kind: str  # "component" | "annuli"
    cores: tuple[Slope, ...] = ()

    def members(self) -> tuple[Subsurface, ...]:
        if self.kind == "component":
            return (Subsurface("component", self.comp),)
        return tuple(Subsurface("annulus", self.comp, s) for s in self.cores)

    def label(self) -> str:
        return f"{self.kind}[{self.comp}]"


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


def build_families(surface: ModelSurface,
                   window: dict[int, tuple[Slope, ...]]) -> list[FamilyY]:
    """Two families per component (one in the pants flavor, where annuli
    are inessential)."""
    fams = []
    for comp in range(surface.n_components):
        fams.append(FamilyY(comp, "component"))
        if surface.fl.annuli:
            fams.append(FamilyY(comp, "annuli", window.get(comp, ())))
    return fams


# ---------------------------------------------------------------------------
# The projection graph P_K
# ---------------------------------------------------------------------------


@dataclass
class PkGraph:
    edges: set[frozenset]

    def adjacent(self, a: Subsurface, b: Subsurface) -> bool:
        return frozenset((a, b)) in self.edges


def _mutual_projection(u: Subsurface, v: Subsurface, w: Subsurface, fl: Flavor) -> float:
    """d_U of the boundaries of V and W, for three annuli on a component."""
    return annular_distance(boundary_point(u.core, v.core, fl),
                            boundary_point(u.core, w.core, fl), fl)


def build_pk_graph(family: FamilyY, k: float, fl: Flavor) -> PkGraph:
    """V and W are joined when every other member U sees their boundaries
    within K of each other.

    Tested on the twist table T[u, v] = twist_number(core_u, core_v),
    m(m - 1) calls for m cores: V and W are joined when the largest gap
    max over u not in {v, w} of |T[u, v] - T[u, w]|, measured in the
    annular metric of the flavor (at its boundary height), is at most
    K.  This is exact: both points of a gap sit at the same height, where
    the annular metric is monotone in the twist difference, so the
    metric of the largest gap is the largest metric.  The gaps are
    formed one row v at a time, so memory stays O(m^2)."""
    members = family.members()
    edges: set[frozenset] = set()
    if family.kind == "component":
        return PkGraph(edges)
    cores = family.cores
    m = len(cores)
    table = np.zeros((m, m), dtype=np.int64)
    for u, cu in enumerate(cores):
        for v, cv in enumerate(cores):
            if u != v:
                table[u, v] = twist_number(cu, cv)
    admissible: dict[int, bool] = {}
    for v in range(m - 1):
        ws = np.arange(v + 1, m)
        gaps = np.abs(table[:, v, None] - table[:, ws])
        gaps[v, :] = 0
        gaps[ws, ws - v - 1] = 0
        for w, g in zip(ws.tolist(), gaps.max(axis=0).tolist()):
            ok = admissible.get(g)
            if ok is None:
                ok = admissible[g] = annular_distance(
                    AnnularPoint(0, fl.boundary), AnnularPoint(g, fl.boundary), fl) <= k
            if ok:
                edges.add(frozenset((members[v], members[w])))
    return PkGraph(edges)


# ---------------------------------------------------------------------------
# The quasi-tree of complexes
# ---------------------------------------------------------------------------

QtPoint = tuple[Subsurface, Any]  # (vertex subsurface, point of its complex)


@dataclass
class QuasiTree:
    """Complexes of one family glued along boundary projections over the
    projection graph.  Distances are shortest paths where each complex
    contributes its own exact metric between the nodes it hosts and
    every cross edge costs one; twists are already integral, so the
    horoball complexes are discretized at unit resolution natively.

    The attachment graph is built once, at the first distance query: the
    distinct attachment nodes, the node indices each complex hosts, and
    sparse adjacency lists.  A marking annulus carries |twist
    difference|, a line metric, so its block joins only consecutive
    attachments in twist order: every other pair is joined through the
    nodes between them at the same total, so no shortest path changes,
    and all sums are integers held in floats, hence exact.  Component
    and augmented (horoball) blocks stay complete, weighted by
    `complex_metric`.  Cross edges cost one.

    Everything else is computed on demand and cached with the tree:
    - a row, the heapq Dijkstra distances from one node to every node:
      at most one per node;
    - a block, the rows of the nodes of a queried point's host
      restricted to the nodes of the other point's host: one per
      ordered host pair queried;
    - legs, the in-complex distances from one queried point to its
      host's nodes: one per distinct point queried."""

    family: FamilyY
    pk: PkGraph
    fl: Flavor
    attachments: dict[frozenset, tuple[QtPoint, QtPoint]] = field(default_factory=dict)
    nodes: list[QtPoint] = field(default_factory=list, init=False, repr=False)
    per_complex: dict[Subsurface, np.ndarray] = field(default_factory=dict, init=False,
                                                      repr=False)
    adjacency: list[list[tuple[int, float]]] | None = field(default=None, init=False,
                                                            repr=False)
    rows: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    blocks: dict[tuple[Subsurface, Subsurface], np.ndarray] = field(
        default_factory=dict, init=False, repr=False)
    legs: dict[QtPoint, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # edges in key order, not set order, so the attachment nodes, their
        # numbering and `dump()` do not depend on the string hash seed
        for e in sorted(self.pk.edges, key=lambda e: sorted(s.key() for s in e)):
            v, w = sorted(e, key=lambda s: s.key())
            self.attachments[e] = (
                (v, self._boundary_point(v, w)),
                (w, self._boundary_point(w, v)),
            )

    def _boundary_point(self, host: Subsurface, other: Subsurface):
        if host.kind == "component":
            return other.core
        return boundary_point(host.core, other.core, self.fl)

    def complex_metric(self, host: Subsurface, a, b) -> float:
        return complex_distance(host, a, b, self.fl)

    def _line_metric(self) -> bool:
        return self.family.kind == "annuli" and not self.fl.heights

    def _graph(self) -> None:
        if self.adjacency is not None:
            return
        index: dict[QtPoint, int] = {}
        for ends in self.attachments.values():
            for nd in ends:
                index.setdefault(nd, len(index))
        nodes = list(index)
        per_complex: dict[Subsurface, list[int]] = {}
        for i, (host, _pt) in enumerate(nodes):
            per_complex.setdefault(host, []).append(i)
        adj: list[list[tuple[int, float]]] = [[] for _ in nodes]

        def join(i: int, j: int, w: float) -> None:
            adj[i].append((j, w))
            adj[j].append((i, w))

        for host, idxs in per_complex.items():
            if self._line_metric():
                line = sorted(idxs, key=lambda i: nodes[i][1].twist)
                for i, j in zip(line, line[1:]):
                    join(i, j, float(nodes[j][1].twist - nodes[i][1].twist))
            else:
                for at, i in enumerate(idxs):
                    for j in idxs[at + 1:]:
                        join(i, j, self.complex_metric(host, nodes[i][1], nodes[j][1]))
        for a, b in self.attachments.values():
            join(index[a], index[b], 1.0)
        self.nodes = nodes
        self.per_complex = {h: np.array(idxs) for h, idxs in per_complex.items()}
        self.adjacency = adj

    def _row(self, src: int) -> np.ndarray:
        row = self.rows.get(src)
        if row is not None:
            return row
        adj = self.adjacency
        dist = [math.inf] * len(adj)
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, i = heapq.heappop(heap)
            if d > dist[i]:
                continue
            for j, w in adj[i]:
                nd = d + w
                if nd < dist[j]:
                    dist[j] = nd
                    heapq.heappush(heap, (nd, j))
        row = self.rows[src] = np.array(dist)
        return row

    def _block(self, hu: Subsurface, hv: Subsurface) -> np.ndarray:
        blk = self.blocks.get((hu, hv))
        if blk is not None:
            return blk
        blk = np.array([self._row(i) for i in self.per_complex[hu].tolist()])
        blk = self.blocks[(hu, hv)] = blk[:, self.per_complex[hv]]
        return blk

    def _legs(self, u: QtPoint) -> np.ndarray:
        got = self.legs.get(u)
        if got is not None:
            return got
        host, pt = u
        ends = [self.nodes[i][1] for i in self.per_complex[host].tolist()]
        if self._line_metric():
            got = np.abs(np.array([e.twist for e in ends], dtype=float) - pt.twist)
        else:
            got = np.array([complex_distance(host, pt, e, self.fl) for e in ends])
        self.legs[u] = got
        return got

    def distance(self, u: QtPoint, v: QtPoint) -> float:
        """Shortest glued path: a direct intra-complex leg, or out
        through this complex's attachments, across the attachment graph,
        and in through the target's."""
        best = self.complex_metric(u[0], u[1], v[1]) if u[0] == v[0] else math.inf
        self._graph()
        if u[0] in self.per_complex and v[0] in self.per_complex:
            via = (self._legs(u)[:, None] + self._block(u[0], v[0])
                   + self._legs(v)[None, :]).min()
            best = min(best, float(via))
        if best == math.inf:
            raise WindowTooSmallError(
                f"no path between {u[0]} and {v[0]} in the window; enlarge it")
        return best

    def dump(self) -> dict:
        return {
            "schema_version": 1,
            "family": self.family.label(),
            "vertices": [repr(m) for m in self.family.members()],
            "pk_edges": sorted(sorted(repr(s) for s in e) for e in self.pk.edges),
            "cross_edges": [
                {"a": [repr(a[0]), _pt_json(a[1])], "b": [repr(b[0]), _pt_json(b[1])]}
                for a, b in self.attachments.values()
            ],
        }


def _pt_json(p):
    if isinstance(p, Slope):
        return p.to_json()
    if isinstance(p, AnnularPoint):
        return [p.twist, p.height]
    return p


# ---------------------------------------------------------------------------
# The embedding
# ---------------------------------------------------------------------------


@dataclass
class EmbeddedPoint:
    coords: tuple[tuple[str, QtPoint], ...]  # (family label, coordinate)

    def coord(self, label: str) -> QtPoint:
        for lb, c in self.coords:
            if lb == label:
                return c
        raise KeyError(label)


@dataclass
class Embedding:
    """The product-of-quasi-trees receiver for one surface window."""

    families: list[FamilyY]
    trees: dict[str, QuasiTree]

    def project(self, x: ModelPoint) -> EmbeddedPoint:
        return psi_project(x, self)

    def distance(self, a: EmbeddedPoint, b: EmbeddedPoint) -> float:
        total = 0.0
        for fam in self.families:
            lb = fam.label()
            total += self.trees[lb].distance(a.coord(lb), b.coord(lb))
        return total


def build_embedding(surface: ModelSurface, window: dict[int, tuple[Slope, ...]],
                    k: float) -> Embedding:
    families = build_families(surface, window)
    trees = {}
    for fam in families:
        pk = build_pk_graph(fam, k, surface.fl)
        trees[fam.label()] = QuasiTree(fam, pk, surface.fl)
    return Embedding(families, trees)


def psi_project(x: ModelPoint, emb: Embedding) -> EmbeddedPoint:
    """Coordinate per family at the member minimizing the worst
    intersection with the pants curves: the component itself for the
    singleton family, the pants curve's annulus (intersection zero) for
    the annuli family."""
    coords = []
    for fam in emb.families:
        if fam.kind == "component":
            w = Subsurface("component", fam.comp)
            coords.append((fam.label(), (w, project(x, w))))
        else:
            alpha = x.alpha(fam.comp)
            if alpha not in fam.cores:
                raise WindowTooSmallError(
                    f"pants curve {alpha} of the point is outside the window")
            w = Subsurface("annulus", fam.comp, alpha)
            coords.append((fam.label(), (w, project(x, w))))
    return EmbeddedPoint(tuple(coords))


def embedding_for_pair(x: ModelPoint, y: ModelPoint, k: float) -> Embedding:
    return build_embedding(x.surface, working_window(x, y), k)


def embedded_distance(x: ModelPoint, y: ModelPoint, k: float) -> float:
    emb = embedding_for_pair(x, y, k)
    return emb.distance(emb.project(x), emb.project(y))


@dataclass
class LowerBoundVerdict:
    lhs: float
    rhs: float
    k_prime: float

    @property
    def ok(self) -> bool:
        return self.lhs >= self.rhs - 1e-9


def lower_bound_audit(x: ModelPoint, y: ModelPoint, k: float, k_prime: float,
                      ) -> LowerBoundVerdict:
    """The glued-product distance must dominate half the projection sum
    thresholded at K'."""
    if k_prime <= k:
        raise ValueError("the audit needs K' > K")
    lhs = embedded_distance(x, y, k)
    total = distance_formula(x, y, threshold=k_prime)[0]
    return LowerBoundVerdict(lhs, 0.5 * total, k_prime)


def shared_embedding(points: Sequence[ModelPoint], k: float) -> Embedding:
    """One embedding window covering a whole point cloud: the union of
    pairwise windows against the first point, plus every sample's own
    curves.  Lets a trace reuse a single glued structure."""
    if not points:
        raise ValueError("no points")
    base = points[0]
    cores: dict[int, set[Slope]] = {i: set() for i in range(base.surface.n_components)}
    for p in points:
        win = working_window(base, p)
        for i, cs in win.items():
            cores[i].update(cs)
    window = {i: tuple(sorted(s, key=Slope.key)) for i, s in cores.items()}
    return build_embedding(base.surface, window, k)


def embedded_handle(points: Sequence[ModelPoint], k: float):
    """A metric handle for the product-of-quasi-trees distance over a
    shared window.  Unlike the thresholded distance formula this metric
    separates points that differ by small twists, which is what the
    efficiency machinery needs (efficiency is not a quasi-isometry
    invariant, so the receiving metric matters)."""
    from .hypgraph import MetricHandle

    emb = shared_embedding(points, k)
    cache: dict = {}

    def dist(a: ModelPoint, b: ModelPoint) -> float:
        # symmetric and built from the values, so a reversed or re-built
        # pair hits whatever the memory layout
        key = frozenset((a, b))
        got = cache.get(key)
        if got is None:
            got = emb.distance(emb.project(a), emb.project(b))
            cache[key] = got
        return got

    return MetricHandle("embedded", dist, embedding=emb)


def embedding_audit(pairs: Sequence[tuple[ModelPoint, ModelPoint]], k: float,
                    cutoff: float = 10.0) -> tuple[float, float]:
    """Min and max of embedded distance over model distance across pairs
    at least `cutoff` apart; both bounded away from zero and infinity
    for a quasi-isometric embedding."""
    ratios = []
    for x, y in pairs:
        dx = surfmodel.model_distance(x, y)
        if dx < cutoff:
            continue
        ratios.append(embedded_distance(x, y, k) / dx)
    if not ratios:
        raise ValueError("no pair passed the distance cutoff")
    return min(ratios), max(ratios)
