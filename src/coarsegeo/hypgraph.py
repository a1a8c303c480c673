"""Core machinery for coarsely geodesic spaces.

A space is a callable distance handle (:class:`MetricHandle`, with
geodesics where the space supplies them).  The Farey graph, the curve
graph of every component, has one presentation: the exact distance and
geodesic routines of `surfmodel`, which the Farey handle and the
thin-triangle kernel both read.  The module also provides the
unparametrized quasi-geodesic test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import surfmodel
from .surfmodel import Slope, farey_distance, farey_geodesic


def farey_thinness(triangles: Iterable[Sequence[Slope]]) -> float:
    """Thin-triangle constant of slope triangles in the Farey graph: the
    max over the triangles, and over the sides of each, of the side's
    distance to the other two sides.  Each side is `farey_geodesic` of
    its ends and each distance `farey_distance`, so this measures the
    geodesics hulls and centres use; 0.0 when there is no triangle."""
    worst = 0.0
    for a, b, c in triangles:
        sides = [farey_geodesic(a, b), farey_geodesic(b, c), farey_geodesic(a, c)]
        for i, side in enumerate(sides):
            rest = [u for j, s in enumerate(sides) if j != i for u in s]
            worst = max(worst, float(max(min(farey_distance(v, u) for u in rest)
                                         for v in side)))
    return worst


# ---------------------------------------------------------------------------
# Distance handles
# ---------------------------------------------------------------------------


@dataclass
class MetricHandle:
    """A metric space presented as a distance callable.

    Geodesic-capable handles set `geodesic_fn` returning a vertex path
    between two points, which `geodesic` returns as a tuple.
    """

    name: str
    distance: Callable[[Any, Any], float]
    geodesic_fn: Callable[[Any, Any], Sequence[Any]] | None = None
    embedding: Any = None  # the bbf.Embedding behind the embedded handle

    def geodesic(self, a, b) -> tuple:
        if self.geodesic_fn is not None:
            return tuple(self.geodesic_fn(a, b))
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


