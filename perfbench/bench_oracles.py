"""Reference computations the benchmark checks the program against.

Nothing here imports coarsegeo: both oracles work from plain integers
and from the JSON-shaped dump of a quasi-tree, so a fault in the
package cannot hide in its own reference.

* ``farey_distance(a, b)``: breadth-first search over a finite piece of
  the Farey graph built here.  A unimodular matrix (own extended Euclid)
  moves ``a`` to infinity; the piece is the ladder of the image of
  ``b``, i.e. infinity plus every vertex of the Farey triangles that the
  vertical hyperbolic geodesic down to it crosses.  Every edge is
  checked against the definition |ps - qr| = 1.  The ladder contains a
  geodesic (Beardon-Hockman-Short, "Geodesic continued fractions",
  Michigan Math. J. 2012), so the search is exact; a metric ball would
  not do, because benchmark slopes reach heights of 2*10^4.
* ``QuasiTreeOracle``: Dijkstra over ``bbf.QuasiTree.dump()``.  Nodes on
  one vertex of the projection graph are joined by the complex's own
  metric (|twist difference| for marking annuli, the closed-form
  horoball distance for augmented ones); every cross edge costs one.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

Slope = tuple[int, int]  # (p, q) in lowest terms, q > 0, or (1, 0) for infinity


def normalize(p: int, q: int) -> Slope:
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a slope")
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _to_infinity(a: Slope, b: Slope) -> Slope:
    """Image of b under a unimodular matrix that sends a to infinity."""
    p, q = a
    g, x, y = _egcd(p, q)
    if g != 1:
        raise ValueError(f"slope {a} is not in lowest terms")
    # [[x, y], [-q, p]] has determinant x*p + y*q = 1 and maps (p, q) to (1, 0)
    bp, bq = b
    return normalize(x * bp + y * bq, -q * bp + p * bq)


def ladder(c: Slope) -> tuple[list[Slope], list[tuple[Slope, Slope]]]:
    """Vertices and edges of the Farey triangles crossed by the vertical
    geodesic from infinity down to c (q >= 1)."""
    p, q = c
    n = p // q
    left, right = (n, 1), (n + 1, 1)
    verts = [(1, 0), left, right]
    edges = [((1, 0), left), ((1, 0), right), (left, right)]
    while c not in (left, right):
        mid = (left[0] + right[0], left[1] + right[1])
        verts.append(mid)
        edges += [(left, mid), (right, mid)]
        if p * mid[1] < mid[0] * q:  # c < mid
            right = mid
        else:
            left = mid
    return verts, edges


def farey_distance(a: Slope, b: Slope) -> int:
    """Graph distance in the Farey graph by BFS over the ladder."""
    a, b = normalize(*a), normalize(*b)
    if a == b:
        return 0
    c = _to_infinity(a, b)
    if c == (1, 0):
        return 0
    verts, edges = ladder(c)
    adj: dict[Slope, list[Slope]] = {v: [] for v in verts}
    for u, v in edges:
        if abs(u[0] * v[1] - u[1] * v[0]) != 1:
            raise AssertionError(f"ladder edge {u}-{v} is not a Farey edge")
        adj[u].append(v)
        adj[v].append(u)
    dist = {(1, 0): 0}
    queue = deque([(1, 0)])
    while queue:
        u = queue.popleft()
        if u == c:
            return dist[u]
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    raise AssertionError(f"{c} not reached inside its own ladder")


def horoball_distance(u: tuple[float, float], v: tuple[float, float]) -> float:
    """Upper half-plane distance: cosh d = 1 + |u - v|^2 / (2 y_u y_v)."""
    (x1, y1), (x2, y2) = u, v
    return math.acosh(1.0 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2.0 * y1 * y2))


class QuasiTreeOracle:
    """Glued distance of one annuli family, rebuilt from its dump."""

    def __init__(self, dump: dict, flavor: str):
        if flavor not in ("marking", "augmented"):
            raise ValueError(f"no annular metric for flavor {flavor!r}")
        self.flavor = flavor
        nodes: list[tuple[str, tuple]] = []
        index: dict[tuple[str, tuple], int] = {}
        cross: list[tuple[int, int]] = []
        for edge in dump["cross_edges"]:
            ends = []
            for host, pt in (edge["a"], edge["b"]):
                key = (host, tuple(pt))
                if key not in index:
                    index[key] = len(nodes)
                    nodes.append(key)
                ends.append(index[key])
            cross.append((ends[0], ends[1]))
        self.nodes = nodes
        self.by_host: dict[str, list[int]] = {}
        for i, (host, _pt) in enumerate(nodes):
            self.by_host.setdefault(host, []).append(i)
        self.adj: list[list[tuple[int, float]]] = [[] for _ in nodes]
        for members in self.by_host.values():
            for i in members:
                for j in members:
                    if i != j:
                        self.adj[i].append((j, self.metric(nodes[i][1], nodes[j][1])))
        for i, j in cross:
            self.adj[i].append((j, 1.0))
            self.adj[j].append((i, 1.0))
        self._from: dict[tuple[str, tuple], list[float]] = {}

    def metric(self, a: tuple, b: tuple) -> float:
        if self.flavor == "marking":
            return float(abs(a[0] - b[0]))
        return horoball_distance((float(a[0]), a[1]), (float(b[0]), b[1]))

    def _dijkstra(self, u: tuple[str, tuple]) -> list[float]:
        got = self._from.get(u)
        if got is not None:
            return got
        dist = [math.inf] * len(self.nodes)
        heap = []
        for i in self.by_host.get(u[0], []):
            d = self.metric(u[1], self.nodes[i][1])
            if d < dist[i]:
                dist[i] = d
                heap.append((d, i))
        heapq.heapify(heap)
        while heap:
            d, i = heapq.heappop(heap)
            if d > dist[i]:
                continue
            for j, w in self.adj[i]:
                nd = d + w
                if nd < dist[j]:
                    dist[j] = nd
                    heapq.heappush(heap, (nd, j))
        self._from[u] = dist
        return dist

    def distance(self, u: tuple[str, tuple], v: tuple[str, tuple]) -> float:
        """u and v are (vertex repr, point) with the point as in the dump."""
        best = self.metric(u[1], v[1]) if u[0] == v[0] else math.inf
        dist = self._dijkstra(u)
        for j in self.by_host.get(v[0], []):
            best = min(best, dist[j] + self.metric(self.nodes[j][1], v[1]))
        return best
