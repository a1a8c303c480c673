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
from typing import Any, Iterable, Sequence

import numpy as np

from . import surfmodel
from .hypgraph import MetricHandle
from .surfmodel import (AnnularPoint, Flavor, ModelPoint, ModelSurface, Slope, Subsurface,
                        annular_distance, annular_row, complex_distance, formula_total,
                        project, working_window)


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
    """The projection graph of a family: `edges` are the joined member
    index pairs (v, w), v < w, in lexicographic order, and `table` the
    family's twist table `surfmodel.twist_table`, T[u][v] the twisting
    of core v about core u (empty for the component family)."""

    edges: list[tuple[int, int]]
    table: list[list[int]]


def max_twist_gap(k: float, fl: Flavor) -> int:
    """The largest twist gap g (capped at 2^62, past any int64 table's)
    with `annular_distance` of (0, 1/B) and (g, 1/B) at most K, or -1 if
    none; the distance grows with g.  It is floor(K) on marking, and on
    augmented floor(2 b sinh(K / 2)), b = 1/B, as acosh(1 + g^2 / (2 b^2))
    <= K there (sinh overflows past 710); the float comparison itself
    settles the last step."""
    def ok(g: int) -> bool:
        return annular_distance(AnnularPoint(0, fl.boundary), AnnularPoint(g, fl.boundary),
                                fl) <= k

    cap = 2 ** 62
    bound = 2 * fl.boundary * math.sinh(min(k, 1400) / 2) if fl.heights else k
    g = int(min(bound, cap)) if k >= 0 else -1
    while g >= 0 and not ok(g):
        g -= 1
    while g < cap and ok(g + 1):
        g += 1
    return g


def build_pk_graph(family: FamilyY, k: float, fl: Flavor) -> PkGraph:
    """V and W are joined when every other member U sees their boundaries
    within K of each other.

    Tested on the twist table: V and W are joined when the largest gap
    max over u not in {v, w} of |T[u][v] - T[u][w]|, measured in the
    annular metric of the flavor (at its boundary height), is at most K,
    that is, at most `max_twist_gap`.  This is exact: both points of a
    gap sit at the same height, where the annular metric is monotone in
    the twist difference.  The gaps are formed one row v at a time, so
    memory stays O(m^2) for m cores."""
    if family.kind == "component":
        return PkGraph([], [])
    rows = surfmodel.twist_table([(s.p, s.q) for s in family.cores])
    table = np.array(rows, dtype=np.int64)
    m = len(rows)
    gmax = max_twist_gap(k, fl)
    edges = []
    for v in range(m - 1):
        ws = np.arange(v + 1, m)
        gaps = np.abs(table[:, v, None] - table[:, ws])
        gaps[v, :] = 0
        gaps[ws, ws - v - 1] = 0
        edges.extend((v, w) for w in ws[gaps.max(axis=0) <= gmax].tolist())
    return PkGraph(edges, rows)


# ---------------------------------------------------------------------------
# The quasi-tree of complexes
# ---------------------------------------------------------------------------

QtPoint = tuple[Subsurface, Any]  # (vertex subsurface, point of its complex)


def _dijkstra(adjacency: list[list[tuple[int, float]]], seeds: Iterable) -> np.ndarray:
    """Shortest path lengths to every node of a weighted adjacency list
    from (distance, node) seeds, each node seeded at most once."""
    dist = [math.inf] * len(adjacency)
    heap = list(seeds)
    for d, i in heap:
        dist[i] = d
    heapq.heapify(heap)
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for j, w in adjacency[i]:
            nd = d + w
            if nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    return np.array(dist)


@dataclass
class QuasiTree:
    """Complexes of one family glued along boundary projections over the
    projection graph.  Distances are shortest paths where each complex
    contributes its own exact metric between the nodes it hosts and
    every cross edge costs one; twists are already integral, so the
    horoball complexes are discretized at unit resolution natively.

    A P_K edge (v, w) glues the node (v, T[v][w]) of the annulus about
    core v to the node (w, T[w][v]) of the annulus about core w: a node
    is a (host index, twist) pair of ints, at the flavor's boundary
    height, read off the P_K twist table.  `Subsurface` and point
    objects appear only in `distance`'s arguments and in `dump()`.  The
    component family has no edges, so its tree has no nodes.

    The attachment graph is built with the tree: the distinct nodes,
    numbered in edge order, the node indices each host carries, and
    sparse adjacency lists.  A marking annulus carries |twist
    difference|, a line metric, so its block joins only consecutive
    nodes in twist order: every other pair is joined through the nodes
    between them at the same total, so no shortest path changes, and
    all sums are integers held in floats, hence exact.  Augmented
    (horoball) blocks stay complete, weighted by the horoball metric.
    Cross edges cost one.

    A query from a point u runs one heapq Dijkstra over that graph,
    seeded at the nodes of u's host, each at u's leg to it (the
    in-complex distance): the glued distance from u to every node.  It
    is cached per distinct point (host, twist, height), as are a
    point's legs, so a distinct queried point costs one search."""

    family: FamilyY
    pk: PkGraph
    fl: Flavor
    nodes: list[tuple[int, int]] = field(init=False, repr=False)
    hosts: dict[tuple[int, int], int] = field(init=False, repr=False)
    per_complex: dict[int, np.ndarray] = field(init=False, repr=False)
    adjacency: list[list[tuple[int, float]]] = field(init=False, repr=False)
    reach: dict[tuple[int, int, float | None], np.ndarray] = field(
        default_factory=dict, init=False, repr=False)
    legs: dict[tuple[int, int, float | None], np.ndarray] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        t = self.pk.table
        index: dict[tuple[int, int], int] = {}
        for v, w in self.pk.edges:
            index.setdefault((v, t[v][w]), len(index))
            index.setdefault((w, t[w][v]), len(index))
        nodes = list(index)
        per_complex: dict[int, list[int]] = {}
        for i, (host, _twist) in enumerate(nodes):
            per_complex.setdefault(host, []).append(i)
        adj: list[list[tuple[int, float]]] = [[] for _ in nodes]

        def join(i: int, j: int, w: float) -> None:
            adj[i].append((j, w))
            adj[j].append((i, w))

        for idxs in per_complex.values():
            if not self.fl.heights:
                line = sorted(idxs, key=lambda i: nodes[i][1])
                for i, j in zip(line, line[1:]):
                    join(i, j, float(nodes[j][1] - nodes[i][1]))
            else:
                for at, i in enumerate(idxs):
                    row = annular_row(AnnularPoint(nodes[i][1], self.fl.boundary),
                                      [nodes[j][1] for j in idxs[at + 1:]], self.fl)
                    for j, w in zip(idxs[at + 1:], row):
                        join(i, j, w)
        for v, w in self.pk.edges:
            join(index[v, t[v][w]], index[w, t[w][v]], 1.0)
        self.nodes = nodes
        self.hosts = {(s.p, s.q): h for h, s in enumerate(self.family.cores)}
        self.per_complex = {h: np.array(idxs) for h, idxs in per_complex.items()}
        self.adjacency = adj

    def _host(self, w: Subsurface) -> int | None:
        """The index of the member w among the family's cores, if any."""
        if w.kind != "annulus" or w.comp != self.family.comp:
            return None
        return self.hosts.get((w.core.p, w.core.q))

    def _legs(self, host: int, pt: AnnularPoint) -> np.ndarray:
        key = (host, pt.twist, pt.height)
        got = self.legs.get(key)
        if got is None:
            twists = [self.nodes[i][1] for i in self.per_complex[host].tolist()]
            got = self.legs[key] = np.array(annular_row(pt, twists, self.fl))
        return got

    def _reach(self, host: int, pt: AnnularPoint) -> np.ndarray:
        key = (host, pt.twist, pt.height)
        got = self.reach.get(key)
        if got is None:
            seeds = zip(self._legs(host, pt).tolist(), self.per_complex[host].tolist())
            got = self.reach[key] = _dijkstra(self.adjacency, seeds)
        return got

    def distance(self, u: QtPoint, v: QtPoint) -> float:
        """Shortest glued path: a direct intra-complex leg, or the search
        from u to an attachment of the target's complex and in from there."""
        best = complex_distance(u[0], u[1], v[1], self.fl) if u[0] == v[0] else math.inf
        hu, hv = self._host(u[0]), self._host(v[0])
        if hu in self.per_complex and hv in self.per_complex:
            via = (self._reach(hu, u[1])[self.per_complex[hv]] + self._legs(hv, v[1])).min()
            best = min(best, float(via))
        if best == math.inf:
            raise WindowTooSmallError(
                f"no path between {u[0]} and {v[0]} in the window; enlarge it")
        return best

    def dump(self) -> dict:
        names = [repr(m) for m in self.family.members()]
        t, h = self.pk.table, self.fl.boundary
        return {
            "schema_version": 1,
            "family": self.family.label(),
            "vertices": names,
            "pk_edges": sorted(sorted((names[v], names[w])) for v, w in self.pk.edges),
            "cross_edges": [{"a": [names[v], [t[v][w], h]], "b": [names[w], [t[w][v], h]]}
                            for v, w in self.pk.edges],
        }


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
        """Coordinate per family at the member minimizing the worst
        intersection with the pants curves: the component itself for the
        singleton family, the pants curve's annulus (intersection zero)
        for the annuli family."""
        coords = []
        for fam in self.families:
            if fam.kind == "component":
                w = Subsurface("component", fam.comp)
            else:
                alpha = x.alpha(fam.comp)
                if alpha not in fam.cores:
                    raise WindowTooSmallError(
                        f"pants curve {alpha} of the point is outside the window")
                w = Subsurface("annulus", fam.comp, alpha)
            coords.append((fam.label(), (w, project(x, w))))
        return EmbeddedPoint(tuple(coords))

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
    total = formula_total(x, y, threshold=k_prime)
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
        for i, cs in working_window(base, p).items():
            cores[i].update(cs)
    window = {i: tuple(sorted(s, key=Slope.key)) for i, s in cores.items()}
    return build_embedding(base.surface, window, k)


def embedded_handle(points: Sequence[ModelPoint], k: float):
    """A metric handle for the product-of-quasi-trees distance over a
    shared window.  Unlike the thresholded distance formula this metric
    separates points that differ by small twists, which is what the
    efficiency machinery needs (efficiency is not a quasi-isometry
    invariant, so the receiving metric matters)."""
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
