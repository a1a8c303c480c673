"""Core machinery for coarsely geodesic spaces.

Spaces come in two presentations: finite explicit graphs
(:class:`HypGraph`, with BFS geodesics and deterministic tie-breaking)
and callable distance handles (:class:`MetricHandle`, with geodesics
where the space supplies them).  On top of these the module provides
thin-triangle constant estimation and the unparametrized quasi-geodesic
test.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from . import surfmodel
from .surfmodel import farey_adjacent, farey_ball

Vertex = Hashable


class UnreachableError(ValueError):
    """The endpoints are in different components of the graph."""


@dataclass(frozen=True)
class GeodesicSegment:
    """An ordered geodesic vertex path; consecutive vertices adjacent."""

    vertices: tuple

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("empty segment")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def __iter__(self):
        return iter(self.vertices)


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


def delta_estimate(g: HypGraph, sample_count: int, seed: int) -> float:
    """Empirical thin-triangle constant from sampled triangles.

    Deterministic given the seed, and prefix-consistent: increasing
    sample_count only extends the sampled stream, so the estimate is
    monotone non-decreasing in sample_count.
    """
    n = len(g.vertices)
    if n < 3:
        return 0.0
    rng = np.random.default_rng(seed)
    side = lambda a, b: geodesic(g, a, b).vertices
    near = lambda vs: g.bfs_distances(vs).__getitem__
    worst = 0.0
    for _ in range(sample_count):
        i, j, k = rng.choice(n, size=3, replace=False)
        tri = (g.vertices[int(i)], g.vertices[int(j)], g.vertices[int(k)])
        try:
            worst = max(worst, _side_defect(tri, side, near))
        except UnreachableError:
            continue
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


# ---------------------------------------------------------------------------
# Distance handles
# ---------------------------------------------------------------------------


@dataclass
class MetricHandle:
    """A metric space presented as a distance callable.

    Geodesic-capable handles set `geodesic_fn` returning a vertex path
    between two points.
    """

    name: str
    distance: Callable[[Any, Any], float]
    geodesic_fn: Callable[[Any, Any], Sequence[Any]] | None = None
    embedding: Any = None  # the bbf.Embedding behind the embedded handle

    def geodesic(self, a, b) -> GeodesicSegment:
        if self.geodesic_fn is not None:
            return GeodesicSegment(tuple(self.geodesic_fn(a, b)))
        raise ValueError(f"handle {self.name!r} has no geodesic support")


def real_line_handle() -> MetricHandle:
    return MetricHandle("R", lambda a, b: abs(float(a) - float(b)),
                        geodesic_fn=lambda a, b: (a, b))


def lp_handle(p: float) -> MetricHandle:
    """R^n with an L^p metric; points are tuples or arrays."""
    if p == math.inf:
        dist = lambda a, b: float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))
        nm = "Linf"
    else:
        dist = lambda a, b: float(np.sum(np.abs(np.asarray(a, float) - np.asarray(b, float)) ** p) ** (1.0 / p))
        nm = f"L{p:g}"
    return MetricHandle(nm, dist)


def farey_handle() -> MetricHandle:
    """The full Farey graph through the exact distance and geodesic
    routines (no ball needed)."""
    return MetricHandle(
        "farey",
        lambda a, b: float(surfmodel.farey_distance(a, b)),
        geodesic_fn=lambda a, b: surfmodel.farey_geodesic(a, b),
    )


def farey_graph(lo: int = -2, hi: int = 3, depth: int = 5) -> HypGraph:
    """An explicit finite chunk of the Farey graph (mediant fan over
    [lo, hi] to the given depth) with determinant adjacency."""
    verts = farey_ball(lo, hi, depth)
    edges = [(a, b) for a, b in itertools.combinations(verts, 2) if farey_adjacent(a, b)]
    return HypGraph(edges, vertices=verts)


def model_handle(surface) -> MetricHandle:
    """The model space of a surface under the distance formula."""
    return MetricHandle(f"model[{surface.flavor}]", surfmodel.model_distance)


# ---------------------------------------------------------------------------
# Excursion and unparametrized quasi-geodesics
# ---------------------------------------------------------------------------


def _points_of(path) -> list:
    return list(path.points) if hasattr(path, "points") else list(path)


def unparam_qgeo_check(path, handle: MetricHandle, lam: float, c: float,
                       ) -> tuple[bool, tuple[int, int, int] | None]:
    """Decide whether some monotone reparametrization of the samples is a
    (lam, c)-quasi-geodesic.

    Monotone progress times u_1 <= ... <= u_n must satisfy, for i < j,
    (d_ij - c)/lam <= u_j - u_i <= lam (d_ij + c); backtracking beyond c
    makes the system infeasible.  Feasibility of the difference
    constraints is decided by a min-plus closure (negative cycle test).
    Returns (ok, witness) with a violating index triple when infeasible.
    """
    pts = _points_of(path)
    n = len(pts)
    if n == 0:
        raise ValueError("empty path")
    if n == 1:
        return True, None
    if lam <= 0:
        raise ValueError("lam must be positive")
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = handle.distance(pts[i], pts[j])
    upper = lam * (d + c)           # u_j - u_i <= upper[i, j] for i < j
    lower = np.maximum(0.0, (d - c) / lam)  # u_j - u_i >= lower[i, j]
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    iu = np.triu_indices(n, k=1)
    w[iu] = upper[iu]
    w[(iu[1], iu[0])] = -lower[iu]
    for k in range(n):
        w = np.minimum(w, w[:, k, None] + w[None, k, :])
    diag = np.diag(w)
    if np.all(diag >= -1e-9):
        return True, None
    # witness: a pair whose tightened upper bound dropped below its lower
    # bound, plus the intermediate index that tightened it
    slack = np.full((n, n), np.inf)
    slack[iu] = w[iu] - lower[iu]
    i, j = np.unravel_index(np.argmin(slack), slack.shape)
    mid = int(np.argmin(w[i, :] + w[:, j]))
    return False, (int(i), mid, int(j))


