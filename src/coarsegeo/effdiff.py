"""Coarse length, efficiency, and the differentiation scale search.

A path is efficient at a scale when its coarse length (the cheapest
partition sum at the grid scale) exceeds the endpoint distance by at
most a linear error in the grid.  The scale search walks the geometric
schedule r_m = r_{m-1} / eps, at each level choosing the decomposition
offset that maximizes the bad fraction, and stops at the first level
where almost every grid segment satisfies the reverse triangle
inequality.  It runs along the lines of `box_lines`: the axes plus a
budgeted spread of directions, each built from its index in a grid of
angular step about eps, so no grid is listed and no dense set is
claimed.  A separate pass extracts, inside an efficient box mapped to
a hyperbolic target, a large sub-box whose image hugs one edge geodesic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Sequence

import numpy as np

from .constants import Constants, default_constants
from .hypgraph import MetricHandle

ASPECT_RATIO = 4.0  # frozen rho: every box side is >= size / rho


class ScaleBelowResolutionError(ValueError):
    pass


class QuasiLipschitzViolationError(RuntimeError):
    """The scale search ran out of levels, which is impossible for a map
    honestly satisfying its declared (K, C)."""


class NotEfficientError(RuntimeError):
    """A sub-box extraction failed on a map declared efficient."""


# ---------------------------------------------------------------------------
# Traces, boxes, lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathTrace:
    """A finite time-stamped point sequence in a metric handle, with
    declared quasi-Lipschitz constants."""

    times: tuple[float, ...]
    points: tuple
    handle: MetricHandle
    K: float
    C: float

    def __post_init__(self):
        if len(self.times) != len(self.points) or not self.times:
            raise ValueError("times and points must be equal-length and nonempty")
        ts = np.asarray(self.times, float)
        if not np.all(np.diff(ts) > 0):
            raise ValueError("times must be strictly increasing")
        for i in range(len(self.points) - 1):
            d = self.handle.distance(self.points[i], self.points[i + 1])
            if d > self.K * (self.times[i + 1] - self.times[i]) + self.C + 1e-9:
                raise ValueError(
                    f"jump {i} of size {d:.3f} violates declared (K={self.K}, C={self.C})"
                )

    @property
    def span(self) -> float:
        return self.times[-1] - self.times[0]

    def endpoint_distance(self) -> float:
        return self.handle.distance(self.points[0], self.points[-1])

    def subtrace(self, i: int, j: int) -> "PathTrace":
        return PathTrace(self.times[i:j + 1], self.points[i:j + 1],
                         self.handle, self.K, self.C)


@dataclass(frozen=True)
class Box:
    """A product of integer intervals in R^n (n <= 3 at desk scale)."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not (1 <= len(self.intervals) <= 3):
            raise ValueError("boxes are supported in dimensions 1..3")
        for lo, hi in self.intervals:
            if hi <= lo:
                raise ValueError("empty interval")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def sides(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.intervals)

    @property
    def size(self) -> float:
        """The smallest R with diameter < R; sides must be >= R / rho."""
        diam = math.sqrt(sum(s * s for s in self.sides))
        size = math.floor(diam) + 1
        if min(self.sides) * ASPECT_RATIO < size:
            raise ValueError(f"box aspect exceeds the frozen ratio {ASPECT_RATIO}")
        return float(size)

    @property
    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2 for lo, hi in self.intervals])

    def central_half(self) -> "Box":
        out = []
        for lo, hi in self.intervals:
            q = (hi - lo) // 4
            out.append((lo + q, hi - q))
        return Box(tuple(out))

    def to_json(self) -> list[list[int]]:
        return [list(iv) for iv in self.intervals]

    @classmethod
    def cube(cls, side: int, dim: int) -> "Box":
        return cls(tuple((0, side) for _ in range(dim)))


@dataclass(frozen=True)
class Line:
    """A parametrized straight segment inside a box."""

    origin: tuple[float, ...]
    direction: tuple[float, ...]
    length: float


def _directions(dim: int, density: float, budget: int) -> list[tuple[float, ...]]:
    """The axes, then `budget` directions spread evenly over a grid of
    angular step about `density`, each built from its grid index: in 2-D
    the angles k pi / count, in 3-D rings of latitude i pi / count, each
    of about 2 pi sin(latitude) / density points, numbered ring by ring.
    Grid point 0 is the only one that equals an axis, so the spread is
    drawn from points 1, 1 + step, ... of the grid's `size`."""
    axes = [tuple(1.0 if i == j else 0.0 for i in range(dim)) for j in range(dim)]
    if dim == 1 or budget <= 0:
        return axes
    if dim == 2:
        size = count = max(4, math.ceil(math.pi / density))
    else:
        count = max(3, math.ceil(math.pi / density))
        lats = [i * math.pi / count for i in range(count + 1)]
        rings = [max(1, math.ceil(2 * math.pi * math.sin(th) / density)) for th in lats]
        starts = list(accumulate(rings, initial=0))  # the grid index of each ring's point 0
        size = starts[-1]
    picks = range(1, size, max(1, (size - 1) // budget))[:budget]
    if dim == 2:
        return axes + [(math.cos(k * math.pi / count), math.sin(k * math.pi / count))
                       for k in picks]
    for k in picks:
        i = bisect_right(starts, k) - 1
        th, ph = lats[i], 2 * math.pi * (k - starts[i]) / rings[i]
        axes.append((math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)))
    return axes


def box_lines(box: Box, density: float, max_directions: int,
              lines_per_direction: int) -> list[Line]:
    """The lines the scale search evaluates: for each of the axes plus a
    spread of `max_directions - dim` directions drawn from a grid of
    angular step about `density`, a family of parallel lines through the
    box (`_cover`).  The axes come first, so every tile of a later
    subdivision is covered; the set is a budget, not a dense one."""
    min_side = min(box.sides)
    return [ln for d in _directions(box.dim, density, max_directions - box.dim)
            for ln in _cover(box, d, lines_per_direction, min_side)]


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


def _clip_line(box: Box, p: np.ndarray, d: np.ndarray) -> tuple[float, float] | None:
    t0, t1 = -math.inf, math.inf
    for (lo, hi), pi, di in zip(box.intervals, p, d):
        if abs(di) < 1e-12:
            if not (lo <= pi <= hi):
                return None
            continue
        a, b = (lo - pi) / di, (hi - pi) / di
        t0, t1 = max(t0, min(a, b)), min(t1, max(a, b))
    if t0 >= t1:
        return None
    return t0, t1


@dataclass
class BoxMap:
    """A quasi-Lipschitz map from a box into a metric handle.

    `images(P)` maps the rows of an (m, d) array to their m images, and
    `fn(p)` is the image of one point, a batch of one."""

    images: Callable[[np.ndarray], list]
    target: MetricHandle
    K: float
    C: float
    fn: Callable[[np.ndarray], Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.fn = lambda p: self.images(np.reshape(p, (1, -1)))[0]


# ---------------------------------------------------------------------------
# Coarse length and efficiency
# ---------------------------------------------------------------------------


def coarse_length(path: PathTrace, r: float) -> float:
    """Minimum partition sum at scale r, over partitions whose points are
    sample times of the trace (sampling density is the caller's duty).

    Computed exactly by shortest-path dynamic programming on the DAG of
    sample indices with time gaps at most r.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"scale must be finite and positive, got {r}")
    ts = np.asarray(path.times)
    gaps = np.diff(ts)
    if len(gaps) and gaps.max() > r + 1e-9:
        raise ScaleBelowResolutionError("scale below resolution")
    n = len(ts)
    dist = path.handle.distance
    pts = path.points
    best = np.full(n, np.inf)
    best[0] = 0.0
    for j in range(1, n):
        i = j - 1
        while i >= 0 and ts[j] - ts[i] <= r + 1e-9:
            cand = best[i] + dist(pts[i], pts[j])
            if cand < best[j]:
                best[j] = cand
            i -= 1
    return float(best[-1])


def efficiency_test(path: PathTrace, R: float, eps: float, theta_eff: float) -> bool:
    """Reverse triangle inequality up to a linear error: the coarse
    length at scale eps*R must not exceed the endpoint distance by more
    than theta_eff * eps * R."""
    span = path.span
    if not (R / 8 <= span <= 8 * R):
        raise ValueError(f"trace span {span} is not comparable to the scale {R}")
    return coarse_length(path, eps * R) <= path.endpoint_distance() + theta_eff * eps * R


def subsegment_efficiency_closure(path: PathTrace, R: float, eps: float,
                                  theta_eff: float, constants: Constants | None = None,
                                  ) -> tuple[bool, tuple[int, int] | None]:
    """Every sample-aligned subsegment of an efficient path must itself
    pass at kappa_subsegment * theta_eff.  A failure witness signals an
    implementation bug, not a property of the input."""
    kappa = (constants or default_constants())["kappa_subsegment"]
    if not efficiency_test(path, R, eps, theta_eff):
        raise ValueError("input path is not efficient at the stated scale")
    n = len(path.times)
    r = eps * R
    allowance = kappa * theta_eff * r
    for i in range(n - 1):
        for j in range(i + 1, n):
            sub = path.subtrace(i, j)
            if coarse_length(sub, r) > sub.endpoint_distance() + allowance + 1e-9:
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# The differentiation scale search
# ---------------------------------------------------------------------------


@dataclass
class SegmentVerdict:
    line_index: int
    t0: float
    t1: float
    partition_sum: float
    endpoint_distance: float
    efficient: bool


@dataclass
class DiffReport:
    """Outcome of a differentiation run."""

    scale: float
    grid_spacing: float
    level: int
    bad_fraction: float
    segment_verdicts: list[SegmentVerdict]
    box_verdicts: list[tuple[Box, bool]] = field(default_factory=list)
    fraction_efficient: float = 1.0
    untested_boxes: int = 0
    params: dict = field(default_factory=dict)
    lines: list[Line] = field(default_factory=list)  # the lines actually used

    def efficient_boxes(self) -> list[Box]:
        return [b for b, ok in self.box_verdicts if ok]

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "scale": self.scale,
            "grid_spacing": self.grid_spacing,
            "level": self.level,
            "bad_fraction": self.bad_fraction,
            "fraction_efficient": self.fraction_efficient,
            "untested_boxes": self.untested_boxes,
            "segments": [
                {"line": s.line_index, "t0": s.t0, "t1": s.t1,
                 "sum": s.partition_sum, "dist": s.endpoint_distance,
                 "efficient": s.efficient}
                for s in self.segment_verdicts
            ],
            "boxes": [{"box": b.to_json(), "efficient": ok}
                      for b, ok in self.box_verdicts],
            "params": self.params,
        }


def differentiate_lines(fmap: BoxMap, lines: Sequence[Line], eps: float, theta: float,
                        r0: float, constants: Constants | None = None) -> DiffReport:
    """Walk the schedule r_m = r_{m-1} / eps until at most a theta
    fraction of decomposition segments fails the grid-sum inequality
    partition_sum <= bdelta_mult * (endpoint_distance + eps * scale).

    At every level each line exhaustively tries all grid offsets and
    keeps the one maximizing its bad fraction, which makes a success
    level a certificate rather than a lucky draw.

    Images are built one line at a time: a line's base samples go
    through `fmap.images` when the line is first processed, and after each
    level the line keeps only the images on its next-level grid (the
    chosen offset's points) and the distances between them, which are
    that grid's jumps.  So at most one line's samples are alive at once.
    Segment verdicts are built for the chosen offset alone.

    A line's jumps are one `pairwise` call, and so are a level's end
    distances, listed offset-major as a scan of the offsets asks for
    them; the offsets are scored as arrays.
    """
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
    pairwise = fmap.target.pairwise

    base_ts = [np.arange(0.0, ln.length + 1e-9, r0) for ln in lines]
    grids: list[list[int]] = [list(range(len(ts))) for ts in base_ts]
    # per line, from its first processing on: the images on its grid, in
    # grid order, and the distances between consecutive grid points
    images: list[Any] = [None] * len(lines)
    jumps: list[list[float]] = [[] for _ in lines]

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
        allowance = eps * r_m
        verdicts: list[SegmentVerdict] = []
        total = bad_total = 0
        for li, ln in enumerate(lines):
            cur, ts, imgs = grids[li], base_ts[li], images[li]
            if imgs is None:
                pts = np.asarray(ln.origin) + ts[:, None] * np.asarray(ln.direction)
                imgs = images[li] = fmap.images(pts)
                jumps[li] = pairwise(imgs[:-1], imgs[1:])
            if (n := len(cur)) <= stride:
                continue  # no offset has a segment: the grid, its images and its jumps carry over
            # the grid pairs (a, a + stride), offset-major, and their end distances
            starts = np.argsort(np.arange(n - stride) % stride, kind="stable")
            ends = pairwise([imgs[i] for i in starts.tolist()],
                            [imgs[i] for i in (starts + stride).tolist()])
            prefix = np.concatenate(([0.0], np.cumsum(jumps[li])))  # added in sequence
            seg = prefix[starts + stride] - prefix[starts]
            ok = seg <= bdelta_mult * (np.array(ends, float) + allowance) + 1e-9
            count = np.bincount(starts % stride)  # offsets 0 .. min(stride, n - stride) - 1
            bad = np.bincount(starts[~ok] % stride, minlength=len(count))
            off = int(np.argmax(bad / count))  # the first largest, as a strict > scan keeps
            lo, hi = int(count[:off].sum()), int(count[:off + 1].sum())
            positions = range(off, n, stride)
            for k, (a, b) in enumerate(zip(positions, positions[1:]), lo):
                verdicts.append(SegmentVerdict(li, ts[cur[a]], ts[cur[b]], float(seg[k]),
                                               ends[k], bool(ok[k])))
            grids[li] = [cur[i] for i in positions]
            images[li] = [imgs[i] for i in positions]
            jumps[li] = ends[lo:hi]
            total += hi - lo
            bad_total += int(bad[off])
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
        r_prev = r_m


def required_size(eps0: float, r0: float, c: float) -> float:
    """The least box size `differentiate_box` accepts at eps0 for a map
    with additive constant c: 2 max(r0, c) stride, with stride about
    1 / eps0^2, so that level 1 fits twice."""
    return 2.0 * max(r0, c, 1e-9) * max(2, round(1.0 / eps0 ** 2))


def differentiate_box(fmap: BoxMap, box: Box, eps0: float, theta0: float,
                      r0: float, max_directions: int = 8,
                      lines_per_direction: int = 24,
                      constants: Constants | None = None) -> DiffReport:
    """Find a scale at which most sub-boxes are efficient.

    Runs the line search at the derived parameters (eps = eps0^2, theta
    from theta0 * eps^(n+2)) on the lines of `box_lines`: the axes plus
    a spread of `max_directions - n` directions drawn from a grid of
    angular step about eps, `lines_per_direction` lines each.  Then it
    subdivides the central half of the box at the returned scale and
    marks a tile efficient when every tested segment meeting it passed.
    Because tiles are judged directly from segment verdicts rather than
    through a counting argument, the line-phase tolerance is floored at
    theta0 / 4; the derived value is a union-bound device that
    desk-scale boxes cannot afford.

    Needs eps0 in (0, 1) and finite theta0 > 0 and r0 > 0.
    """
    if not 0 < eps0 < 1:
        raise ValueError(f"need eps0 in (0, 1), got {eps0}")
    if not 0 < theta0 < math.inf:
        raise ValueError(f"need a finite theta0 > 0, got {theta0}")
    if not 0 < r0 < math.inf:
        raise ValueError(f"need a finite r0 > 0, got {r0}")
    kappa_theta = (constants or default_constants())["kappa_theta"]
    n = box.dim
    eps = eps0 ** 2
    theta = max(theta0 * eps ** (n + 2) / kappa_theta, theta0 / 4.0)
    required = required_size(eps0, r0, fmap.C)
    if box.size < required:
        raise ValueError(
            f"box of size {box.size:g} is below the required size {required:g} "
            f"for eps0={eps0}, r0={r0} (engine-reported minimum)"
        )
    lines = box_lines(box, eps, max_directions, lines_per_direction)
    report = differentiate_lines(fmap, lines, eps, theta, r0, constants=constants)
    R = report.scale
    central = box.central_half()
    side = max(1, round(R / math.sqrt(n)))
    tiles = _tile(central, side)
    # map segments back to the lines that carried them
    seg_boxes: dict[int, list[bool]] = {i: [] for i in range(len(tiles))}
    for sv in report.segment_verdicts:
        ln = report.lines[sv.line_index]
        for ti, tile in enumerate(tiles):
            if _segment_meets_box(tile, ln, sv.t0, sv.t1):
                seg_boxes[ti].append(sv.efficient)
    box_verdicts: list[tuple[Box, bool]] = []
    untested = 0
    good = tested = 0
    for ti, tile in enumerate(tiles):
        hits = seg_boxes[ti]
        if not hits:
            untested += 1
            continue
        ok = all(hits)
        tested += 1
        good += ok
        box_verdicts.append((tile, ok))
    report.box_verdicts = box_verdicts
    report.fraction_efficient = good / tested if tested else 0.0
    report.untested_boxes = untested
    report.params.update({"eps0": eps0, "theta0": theta0, "tile_side": side,
                          "kappa_theta": kappa_theta})
    return report


def _tile(box: Box, side: int) -> list[Box]:
    ranges = []
    for lo, hi in box.intervals:
        starts = list(range(lo, hi - side + 1, side)) or [lo]
        ranges.append([(s, min(s + side, hi)) for s in starts])
    tiles = [[]]
    for axis in ranges:
        tiles = [t + [iv] for t in tiles for iv in axis]
    return [Box(tuple(t)) for t in tiles]


def _segment_meets_box(box: Box, line: Line, t0: float, t1: float) -> bool:
    clip = _clip_line(box, np.asarray(line.origin, float), np.asarray(line.direction, float))
    if clip is None:
        return False
    a, b = clip
    return max(a, t0) <= min(b, t1) + 1e-9


# ---------------------------------------------------------------------------
# Efficient maps into hyperbolic targets
# ---------------------------------------------------------------------------


def hyperbolic_subbox(fmap: BoxMap, box: Box, eps: float,
                      constants: Constants | None = None,
                      grid_max: int = 17) -> tuple[Box, tuple]:
    """Inside a box mapped efficiently to a hyperbolic target, find a
    sub-box of definite relative size whose image stays near a single
    box-edge geodesic, returned with that geodesic's vertex tuple.

    Grid points are labeled by their nearest edge geodesic; the largest
    axis-aligned grid sub-box sharing one label within c_near * eps * R
    wins.  Failure means the efficiency claim was false.
    """
    cn = constants or default_constants()
    target = fmap.target
    R = box.size
    tol = cn["c_near"] * eps * R
    n = box.dim
    # the n * 2^(n-1) edge geodesics of the box image, from their endpoints
    ends = []
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        combos = [[]]
        for i in others:
            combos = [c + [(i, v)] for c in combos for v in box.intervals[i]]
        for combo in combos:
            p0 = np.array(box.center, float)
            p1 = np.array(box.center, float)
            p0[axis], p1[axis] = box.intervals[axis]
            for i, v in combo:
                p0[i] = p1[i] = v
            ends += [p0, p1]
    ims = fmap.images(np.array(ends))
    edges = [target.geodesic(a, b) for a, b in zip(ims[::2], ims[1::2])]
    axes_pts = []
    for lo, hi in box.intervals:
        count = int(min(grid_max, max(2, (hi - lo) / max(eps * R, 1e-9) + 1)))
        axes_pts.append(np.linspace(lo, hi, count))
    shape = tuple(len(a) for a in axes_pts)
    labels = np.full(shape, -1, dtype=int)
    near = np.zeros(shape, dtype=bool)
    # the grid in np.ndindex order
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes_pts, indexing="ij")], axis=-1)
    for idx, img in zip(np.ndindex(shape), fmap.images(grid)):
        dists = [min(target.distance(img, v) for v in e) for e in edges]
        best = int(np.argmin(dists))
        labels[idx] = best
        near[idx] = dists[best] <= tol
    best_box = None
    best_cells = -1
    best_label = -1
    for lab in range(len(edges)):
        mask = near & (labels == lab)
        found = _largest_true_box(mask)
        if found is not None:
            cells = found[1]
            if cells > best_cells:
                best_cells = cells
                best_label = lab
                best_box = found[0]
    if best_box is None:
        raise NotEfficientError("not efficient as declared")
    intervals = tuple(
        (int(round(axes_pts[i][best_box[i][0]])), int(round(axes_pts[i][best_box[i][1]])))
        for i in range(n)
    )
    sub = Box(intervals)
    if min(sub.sides) < cn["sigma0"] * min(box.sides):
        raise NotEfficientError("not efficient as declared")
    return sub, edges[best_label]


def _largest_true_box(mask: np.ndarray) -> tuple[list[tuple[int, int]], int] | None:
    """Largest axis-aligned all-true index sub-box (min-side maximized,
    then cell count, the first in index order on a tie), as
    ([(a, b) per axis], cells) with a < b.  Every index range is tested
    at once by its true-cell count from a summed-area table."""
    ranges = [[(a, b) for a in range(s) for b in range(a + 1, s)] for s in mask.shape]
    if not all(ranges):
        return None
    sat = np.zeros([s + 1 for s in mask.shape], dtype=np.int64)  # sat[i, j]: mask[:i, :j].sum()
    sat[(slice(1, None),) * mask.ndim] = mask
    for axis in range(mask.ndim):
        sat = sat.cumsum(axis=axis)
    ends = [np.array(r).T + [[0], [1]] for r in ranges]  # per axis: the a's and the b + 1's
    # the true cells of every index box, axis 0 outermost, by inclusion-exclusion
    counts = sum((-1) ** (mask.ndim - sum(c)) * sat[np.ix_(*[e[k] for e, k in zip(ends, c)])]
                 for c in np.ndindex((2,) * mask.ndim))
    extents = np.broadcast_arrays(*np.ix_(*[e[1] - e[0] for e in ends]))
    cells = np.prod(extents, axis=0)
    score = np.where(counts == cells, np.min(extents, axis=0) * (cells.max() + 1) + cells, -1)
    at = int(np.argmax(score))  # the first maximum, as a strict > scan keeps
    if score.flat[at] < 0:
        return None
    idx = np.unravel_index(at, score.shape)
    return [ranges[i][k] for i, k in enumerate(idx)], int(cells.flat[at])
