"""Coarse length, efficiency, the scale search, and sub-box extraction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsegeo import effdiff
from coarsegeo.constants import Constants
from coarsegeo.effdiff import (
    Box, BoxMap, Line, NotEfficientError, PathTrace,
    QuasiLipschitzViolationError, ScaleBelowResolutionError, box_lines, coarse_length,
    differentiate_box, differentiate_lines, efficiency_test, hyperbolic_subbox,
    required_size, subsegment_efficiency_closure,
)
from coarsegeo.harness import noisy_flat_map, twist_flat
from coarsegeo.hypgraph import MetricHandle, farey_handle, lp_handle, real_line_handle
from coarsegeo.surfmodel import (INFINITY, ZERO, ModelSurface, Slope, common_neighbors,
                                 farey_geodesic)

import oracles
from oracles import coarse_length_bruteforce, folded_map, pointwise, product_handle

MARKING2 = ModelSurface(((1, 1), (1, 1)), flavor="marking")

H = real_line_handle()


def line_trace(times, values, c=1.0):
    k = max(abs(b - a) / (t2 - t1) for (a, b), (t1, t2)
            in zip(zip(values, values[1:]), zip(times, times[1:])))
    return PathTrace(tuple(map(float, times)), tuple(map(float, values)), H,
                     K=k + 0.1, C=c)


def staircase_map(step):
    def f(p):
        t = float(np.atleast_1d(p)[0])
        k, rem = divmod(t, 2 * step)
        return (step * k + min(rem, step), step * k + max(0.0, rem - step))
    return f


# --- traces -------------------------------------------------------------------

def test_trace_validation():
    with pytest.raises(ValueError):
        PathTrace((0.0, 0.0), (1.0, 2.0), H, K=1.0, C=1.0)  # non-increasing
    with pytest.raises(ValueError):
        PathTrace((0.0, 1.0), (0.0, 50.0), H, K=1.0, C=1.0)  # jump too large


# --- coarse length --------------------------------------------------------------

def test_coarse_length_examples():
    tr = line_trace((0, 1, 2, 3), (0, 5, 3, 8), c=0.5)
    assert coarse_length(tr, 1.0) == 12.0
    assert coarse_length(tr, 3.0) == 8.0  # endpoints only
    straight = line_trace(range(101), range(101))
    for r in (1.0, 2.0, 17.0):
        assert coarse_length(straight, r) == 100.0


def test_coarse_length_scale_below_resolution():
    tr = line_trace((0, 2, 4), (0, 1, 2))
    with pytest.raises(ScaleBelowResolutionError, match="scale below resolution"):
        coarse_length(tr, 1.0)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=10),
       st.floats(min_value=1.0, max_value=40.0))
@settings(max_examples=200, deadline=None)
def test_coarse_length_equals_bruteforce(values, r):
    times = list(range(len(values)))
    tr = line_trace(times, values)
    assert coarse_length(tr, r) == pytest.approx(coarse_length_bruteforce(tr, r))


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=12))
@settings(max_examples=200, deadline=None)
def test_coarse_length_monotone_and_bounded_below(values):
    tr = line_trace(range(len(values)), values)
    prev = math.inf
    lower = abs(values[-1] - values[0])
    for r in (1.0, 2.0, 4.0, 8.0, 16.0):
        v = coarse_length(tr, r)
        assert v >= lower - 1e-9
        assert v <= prev + 1e-9
        prev = v


# --- efficiency ------------------------------------------------------------------

def test_l1_staircase_is_efficient_at_every_eps():
    l1 = lp_handle(1)
    ts = tuple(float(t) for t in range(0, 801, 4))
    pts = tuple(staircase_map(16)(np.array([t])) for t in ts)
    tr = PathTrace(ts, pts, l1, K=1.1, C=0.5)
    for eps in (0.01, 0.05, 0.2, 0.9):
        assert efficiency_test(tr, 800, eps, theta_eff=2.0)


def test_sawtooth_not_efficient_at_small_eps():
    R = 800
    ts = list(range(0, R + 1, 4))
    period = R / 2
    vals = [min(t % period, period - (t % period)) for t in ts]
    tr = line_trace(ts, vals)
    assert not efficiency_test(tr, R, 0.01, theta_eff=2.0)
    assert efficiency_test(tr, R, 1.0, theta_eff=2.0 * tr.K)


def test_any_path_efficient_at_eps_one_with_lipschitz_allowance(rng):
    vals = np.cumsum(rng.integers(-3, 4, size=40)).astype(float)
    tr = line_trace(range(40), vals)
    assert efficiency_test(tr, 40.0, 1.0, theta_eff=2 * tr.K)


def test_subsegment_closure_geodesic_and_witness():
    straight = line_trace(range(41), range(41))
    ok, witness = subsegment_efficiency_closure(straight, 40.0, 0.2, 2.0)
    assert ok and witness is None
    with pytest.raises(ValueError):
        bad = line_trace(range(0, 41), [min(t, 40 - t) for t in range(41)])
        subsegment_efficiency_closure(bad, 40.0, 0.05, 0.5)


def test_projection_of_product_efficient_path():
    """Factor shadows of an efficient path in an L1 product stay
    efficient with the same constant."""
    l1 = product_handle([real_line_handle(), real_line_handle()])
    ts = tuple(float(t) for t in range(0, 101, 1))
    pts = tuple((t / 2.0, t / 2.0) for t in ts)
    tr = PathTrace(ts, pts, l1, K=1.1, C=0.5)
    assert efficiency_test(tr, 100.0, 0.1, 2.0)
    for i in (0, 1):
        sub = PathTrace(ts, tuple(p[i] for p in pts), real_line_handle(),
                        K=1.1, C=0.5)
        assert efficiency_test(sub, 100.0, 0.1, 2.0)


def test_bookkeeping_points_change_sum_boundedly():
    """Inserting k extra partition points into the optimum changes the
    sum by at most k * (K * eps R + C)."""
    rng = np.random.default_rng(7)
    vals = np.cumsum(rng.integers(-2, 3, size=50)).astype(float)
    tr = line_trace(range(50), vals)
    r = 10.0
    base = coarse_length(tr, r)
    refined = coarse_length(tr, r / 2)  # forces roughly k more points
    k = math.ceil(tr.span / (r / 2)) - math.ceil(tr.span / r)
    assert refined <= base + (k + 1) * (tr.K * r + tr.C)


# --- boxes and grids ----------------------------------------------------------

def test_box_size_and_aspect():
    b = Box.cube(100, 2)
    assert b.size == math.floor(100 * math.sqrt(2)) + 1
    with pytest.raises(ValueError):
        Box(((0, 4), (0, 100))).size  # aspect beyond the frozen ratio
    assert Box.cube(64, 2).central_half() == Box(((16, 48), (16, 48)))


# --- the scale search -----------------------------------------------------------

LINF = lp_handle(math.inf)


def _axis(side: int) -> list[Line]:
    """The one line `box_lines` runs along a 1-D box of this side."""
    return box_lines(Box.cube(side, 1), 1.0, 1, 1)


def test_constant_and_straight_maps_pass_level_one():
    lines = _axis(4096)
    const = BoxMap(pointwise(lambda p: (0.0, 0.0)), LINF, K=0.1, C=1.0)
    rep = differentiate_lines(const, lines, eps=0.01, theta=1e-7, r0=8.0)
    assert rep.level == 1 and rep.bad_fraction == 0.0
    straight = BoxMap(pointwise(lambda p: (float(np.atleast_1d(p)[0]), 0.0)), LINF,
                      K=1.0, C=0.0)
    rep2 = differentiate_lines(straight, lines, eps=0.01, theta=1e-7, r0=8.0)
    assert rep2.level == 1 and rep2.bad_fraction == 0.0


def test_staircase_scale_is_at_most_step_over_eps():
    fmap = BoxMap(pointwise(staircase_map(16)), LINF, K=1.0, C=1.0)
    rep = differentiate_lines(fmap, _axis(4096), eps=0.01, theta=1e-7,
                              r0=8.0)
    assert rep.scale <= 16 / 0.01


def test_wrong_constants_exhaust_schedule(cn):
    # a genuinely inefficient map at every scale the box affords, with
    # an understated Lipschitz allowance; the 4096 box holds the level-1
    # scale (800), so the map, not the box, exhausts the schedule
    def zigzag(p):
        t = float(np.atleast_1d(p)[0])
        period = 64.0
        ph = t % period
        return (min(ph, period - ph), 0.0)
    args = (_axis(4096), 0.01, 1e-9, 8.0)
    wrong = Constants({**cn.values, "bdelta_mult": 1.0})
    with pytest.raises(QuasiLipschitzViolationError, match="left the box"):
        differentiate_lines(BoxMap(pointwise(zigzag), LINF, K=1.0, C=0.0), *args, constants=wrong)
    # control: a straight map passes level 1 with the same constants and box
    straight = BoxMap(pointwise(lambda p: (float(np.atleast_1d(p)[0]), 0.0)), LINF, K=1.0, C=0.0)
    assert differentiate_lines(straight, *args, constants=wrong).level == 1


def test_differentiate_box_staircase_fraction():
    fmap = BoxMap(pointwise(staircase_map(16)), LINF, K=1.0, C=1.0)
    rep = differentiate_box(fmap, Box.cube(4096, 1), eps0=0.1, theta0=0.1,
                            r0=8.0)
    assert rep.scale >= 8.0
    assert rep.fraction_efficient >= 0.9


def test_differentiate_box_reports_required_size():
    fmap = BoxMap(pointwise(staircase_map(16)), LINF, K=1.0, C=1.0)
    with pytest.raises(ValueError, match="required size"):
        differentiate_box(fmap, Box.cube(64, 1), eps0=0.1, theta0=0.1, r0=8.0)


def test_fold_boxes_fail_but_fraction_holds():
    base = BoxMap(pointwise(staircase_map(16)), LINF, K=1.0, C=1.0)
    fold = folded_map(base, axis=0, at=700.0)
    rep = differentiate_box(fold, Box.cube(8000, 1), eps0=0.2, theta0=0.2,
                            r0=8.0)
    assert rep.fraction_efficient >= 1 - 0.2


# --- the scale search against the level-major loop it replaced --------------------
#
# `differentiate_lines` builds a line's images when it first processes the
# line and keeps only the next-level grid's; `oracles.differentiate_lines`
# builds every image up front and keeps them all.  Same box-map calls, same
# distance calls in the same order, and the same report, bit for bit.

def _tri(x: float) -> float:
    """The unit-period triangle wave, 0 at the integers, slopes +-2."""
    return 2.0 * abs(x - round(x))


def drift_zigzag(p):
    """t + 64 tri(t / 64) on every coordinate: forward at slope 3, back at
    slope -1.  Inefficient at the level-1 scale, efficient at level 2."""
    return tuple(v + 64.0 * _tri(v / 64.0) for v in np.atleast_1d(p).tolist())


def _recorded(fmap: BoxMap):
    """fmap with the rows it maps counted and its distances recorded in order."""
    calls = {"rows": 0, "distances": []}

    def images(P):
        calls["rows"] += len(P)
        return fmap.images(P)

    def distance(a, b):
        d = fmap.target.distance(a, b)
        calls["distances"].append(d)
        return d
    return BoxMap(images, MetricHandle(fmap.target.name, distance), fmap.K, fmap.C), calls


def _bits(v):
    return (type(v), v.hex() if isinstance(v, float) else v)


def _assert_same_report(got, want) -> None:
    for name in ("scale", "grid_spacing", "level", "bad_fraction", "fraction_efficient",
                 "untested_boxes"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert got.params == want.params and got.lines == want.lines
    assert got.box_verdicts == want.box_verdicts
    assert len(got.segment_verdicts) == len(want.segment_verdicts)
    for a, b in zip(got.segment_verdicts, want.segment_verdicts):
        assert [_bits(getattr(a, f.name)) for f in dataclasses.fields(a)] == \
            [_bits(getattr(b, f.name)) for f in dataclasses.fields(b)]


def _both_searches(monkeypatch, fmap, run):
    """run(fmap) with `effdiff.differentiate_lines` the package's search,
    then the oracle's; each outcome is a report or the raised exception,
    and both made the same box-map and distance calls."""
    out = []
    for search in (differentiate_lines, oracles.differentiate_lines):
        monkeypatch.setattr(effdiff, "differentiate_lines", search)
        recorded, calls = _recorded(fmap)
        try:
            out.append((run(recorded), calls))
        except QuasiLipschitzViolationError as exc:
            out.append((exc, calls))
    (got, got_calls), (want, want_calls) = out
    assert got_calls == want_calls
    return got, want


def _acceptance_11_map():
    flat = twist_flat(MARKING2, int(required_size(0.05, 50.0, 40)))
    return noisy_flat_map(flat, 3, 111)


def _pipeline_search(fmap, cn):
    """The scale search `run_pipeline` runs on a 2-D map at eps0 0.05."""
    box = Box.cube(int(required_size(0.05, 50.0, fmap.C)), 2)
    return differentiate_box(fmap, box, 0.05, 0.1, 50.0, max_directions=4,
                             lines_per_direction=10, constants=cn)


def test_search_matches_oracle_on_the_acceptance_11_flat(monkeypatch, cn):
    got, want = _both_searches(monkeypatch, _acceptance_11_map(),
                               lambda fmap: _pipeline_search(fmap, cn))
    assert got.level == 1 and len(got.box_verdicts) > 0
    _assert_same_report(got, want)


@pytest.mark.parametrize("eps, scale", [(0.09, 968.0), (0.04, 5000.0)])
def test_search_matches_oracle_at_level_two(monkeypatch, eps, scale):
    """The drift-plus-zigzag first passes at level 2, so the images kept
    after level 1 are the ones level 2 reads."""
    fmap = BoxMap(pointwise(drift_zigzag), LINF, K=3.0, C=1.0)
    got, want = _both_searches(monkeypatch, fmap, lambda fm: effdiff.differentiate_lines(
        fm, _axis(40000), eps, 0.1, 8.0))
    assert (got.level, got.scale) == (2, scale)
    _assert_same_report(got, want)
    # the same on 16 lines of a 2-D box, where each line keeps its own grid
    box = Box.cube(6000, 2)
    lines = box_lines(box, eps, 4, 4)
    got, want = _both_searches(monkeypatch, BoxMap(pointwise(drift_zigzag), LINF, K=6.0, C=1.0),
                               lambda fm: effdiff.differentiate_lines(fm, lines, eps, 0.1, 8.0))
    assert got.level == 2 and len(got.lines) == 16
    _assert_same_report(got, want)


@pytest.mark.parametrize("at", [20000.0, 10000.0], ids=["middle", "quarter"])
def test_search_matches_oracle_on_a_folded_flat(monkeypatch, cn, at):
    folded = folded_map(_acceptance_11_map(), axis=0, at=at)
    got, want = _both_searches(monkeypatch, folded, lambda fmap: _pipeline_search(fmap, cn))
    assert isinstance(got, QuasiLipschitzViolationError)
    assert type(got) is type(want) and str(got) == str(want)
    assert "at level 2" in str(got)


def test_offset_scan_keeps_the_first_of_tied_offsets(monkeypatch, cn):
    """At stride 4 on 13 samples, a spike at t = 6 spoils one segment of
    every offset it lies inside: offset 0 reads 1/3, offsets 1 and 3 read
    1/2 and offset 2 none.  The scan keeps offset 1, the first of the
    tied pair, as the strict > loop of the oracle does.  A second line of
    4 samples, fewer than stride + 1, has no segment at any offset and
    adds no verdict."""
    spike = BoxMap(pointwise(lambda p: (5.0 if round(float(p[0])) == 6 else 0.0,)),
                   LINF, K=1.0, C=0.0)
    lines = [Line((0.0,), (1.0,), 12.0), Line((0.0,), (1.0,), 3.0)]
    got, want = _both_searches(monkeypatch, spike, lambda fm: effdiff.differentiate_lines(
        fm, lines, 0.25, 0.5, 1.0, constants=cn))
    _assert_same_report(got, want)
    assert got.params["stride"] == 4 and got.level == 1 and got.bad_fraction == 0.5
    assert [(s.line_index, s.t0, s.t1, s.efficient) for s in got.segment_verdicts] == \
        [(0, 1.0, 5.0, True), (0, 5.0, 9.0, False)]


# --- the lines against the line family they replaced ------------------------------

def _line_bits(lines) -> list:
    return [[_bits(float(v)) for v in (*ln.origin, *ln.direction, ln.length)] for ln in lines]


@pytest.mark.parametrize("d", [0.3, 0.2025, 0.1, 0.05, 0.04, 0.01, 0.0025, 0.0016])
def test_box_lines_match_the_line_family(d):
    """`box_lines` builds the lines `oracles.LineFamily` built, bit for
    bit and in order, at the densities the package and the tests build
    (eps and eps0^2): on seeded 1-D and 2-D boxes, and on a 3-D box from
    d = 0.2 on, for budgets dim + 2, 8 and every grid direction.  (The
    family's 3-D density check takes about 0.6 s a build at d = 0.1 and
    8 s at d = 0.05.)"""
    rng = np.random.default_rng(round(d * 10_000))
    for dim, boxes in ((1, 1), (2, 2), (3, 1 if d >= 0.2 else 0)):
        for _ in range(boxes):
            lo = rng.integers(-50, 50, dim)
            box = Box(tuple((int(a), int(a + s)) for a, s in zip(lo, rng.integers(64, 400, dim))))
            per = int(rng.integers(1, 13))
            for budget in (dim + 2, 8, 10 ** 6):
                want = oracles.LineFamily.build(box, d, budget, per).lines
                assert _line_bits(box_lines(box, d, budget, per)) == _line_bits(want)


class _Image:
    """A box-map image that counts how many of its kind are alive."""

    __slots__ = ("v",)
    live = peak = 0

    def __init__(self, v):
        self.v = v
        _Image.live += 1
        _Image.peak = max(_Image.peak, _Image.live)

    def __del__(self):
        _Image.live -= 1


def test_images_live_one_line_at_a_time():
    """At most the longest line's samples plus every line's kept grid are
    alive during the search, and nothing after it.  Holding every line's
    images at once, as the level-major loop does, is 10,524 here; the
    bound is 1,722."""
    box = Box.cube(6000, 2)
    lines = box_lines(box, 0.09, 4, 4)
    handle = MetricHandle("Linf", lambda a, b: max(abs(u - w) for u, w in zip(a.v, b.v)))
    fmap = BoxMap(pointwise(lambda p: _Image(drift_zigzag(p))), handle, K=6.0, C=1.0)
    _Image.live = _Image.peak = 0
    rep = differentiate_lines(fmap, lines, 0.09, 0.1, 8.0)
    assert rep.level == 2 and len(rep.lines) == 16
    samples = [len(np.arange(0.0, ln.length + 1e-9, 8.0)) for ln in lines]
    kept = sum(math.ceil(n / rep.params["stride"]) for n in samples)
    assert sum(samples) == 10524
    assert _Image.peak <= max(samples) + kept
    assert _Image.live == 0


# --- hyperbolic sub-box ----------------------------------------------------------

def test_hyperbolic_subbox_collapse_keeps_whole_box():
    fh = farey_handle()
    geo = farey_geodesic(ZERO, Slope(34, 55))
    L = len(geo) - 1

    def collapse(p):
        t = float(np.atleast_1d(p)[0])
        return geo[max(0, min(L, int(round(t / 64 * L))))]

    box = Box.cube(64, 2)
    sub, seg = hyperbolic_subbox(BoxMap(pointwise(collapse), fh, K=1.0, C=2.0), box,
                                 eps=0.05)
    assert sub == box
    assert seg[0] in (ZERO, Slope(34, 55))


def test_largest_true_box_matches_the_scan_of_every_range():
    """The summed-area count against the scan, on all-false, all-true and
    seeded random masks of shapes 1 x k, k x k (k <= 9) and 3-D; ties go
    to the first range in index order on both."""
    rng = np.random.default_rng(29)
    shapes = [(1, k) for k in range(1, 10)] + [(k, k) for k in range(1, 10)]
    shapes += [(2, 2, 2), (3, 4, 5), (5, 5, 5)]
    found = 0
    for shape in shapes:
        masks = [np.zeros(shape, bool), np.ones(shape, bool)]
        masks += [rng.random(shape) < p for p in (0.3, 0.6, 0.8, 0.9, 0.95) for _ in range(4)]
        for mask in masks:
            got = effdiff._largest_true_box(mask)
            assert got == oracles.largest_true_box(mask), (shape, mask)
            found += got is not None
    assert effdiff._largest_true_box(np.ones((9, 9), bool)) == ([(0, 8), (0, 8)], 81)
    assert found > 150  # 164


def test_hyperbolic_subbox_coordinate_map():
    fh = farey_handle()
    geo = farey_geodesic(ZERO, Slope(34, 55))
    L = len(geo) - 1

    def coord(p):
        q = np.atleast_1d(p)
        return geo[max(0, min(L, int(round(float(q[0]) / 64 * L))))]

    sub, _ = hyperbolic_subbox(BoxMap(pointwise(coord), fh, K=1.0, C=2.0),
                               Box.cube(64, 2), eps=0.05)
    assert sub == Box.cube(64, 2)


def test_hyperbolic_subbox_rejects_wild_maps(rng, cn):
    fh = farey_handle()
    wild_slopes = [Slope(int(rng.integers(-60, 60)), int(rng.integers(1, 40)))
                   for _ in range(64)]

    def wild(p):
        q = np.atleast_1d(p)
        return wild_slopes[int(q[0]) % 64]

    with pytest.raises(NotEfficientError, match="not efficient as declared"):
        hyperbolic_subbox(BoxMap(pointwise(wild), fh, K=40.0, C=40.0), Box.cube(64, 1),
                          eps=0.001, constants=Constants({**cn.values, "c_near": 0.01}))


# --- design constants come from the constants file ------------------------------
# Each test changes one value of the frozen file and sees the result change.

def _with(cn, **values):
    return Constants({**cn.values, **values})


def _zigzag(p):
    ph = float(np.atleast_1d(p)[0]) % 64.0
    return (min(ph, 64.0 - ph), 0.0)


def test_bdelta_mult_is_read_from_the_constants(cn):
    # a segment of 800 sums 800 over a zigzag of amplitude 32: bad at the
    # frozen 2.0, good at 100
    fmap = BoxMap(pointwise(_zigzag), LINF, K=1.0, C=0.0)
    args = (fmap, _axis(4096), 0.01, 1e-9, 8.0)
    with pytest.raises(QuasiLipschitzViolationError, match="left the box"):
        differentiate_lines(*args, constants=cn)
    rep = differentiate_lines(*args, constants=_with(cn, bdelta_mult=100.0))
    assert rep.level == 1 and rep.params["bdelta_mult"] == 100.0


def test_kappa_m_is_read_from_the_constants(cn):
    const = BoxMap(pointwise(lambda p: (0.0, 0.0)), LINF, K=0.1, C=1.0)
    args = (const, _axis(4096), 0.01, 1e-7, 8.0)
    assert differentiate_lines(*args, constants=cn).level == 1
    with pytest.raises(QuasiLipschitzViolationError, match="level budget 0"):
        differentiate_lines(*args, constants=_with(cn, kappa_m=0.0))


def test_kappa_theta_is_read_from_the_constants(cn):
    # a tiny kappa_theta lifts the line-phase tolerance above every bad
    # fraction, so the zigzag stops at level 1
    fmap = BoxMap(pointwise(_zigzag), LINF, K=1.0, C=0.0)
    args = (fmap, Box.cube(4096, 1), 0.1, 0.1, 8.0)
    with pytest.raises(QuasiLipschitzViolationError):
        differentiate_box(*args, constants=cn)
    rep = differentiate_box(*args, constants=_with(cn, kappa_theta=1e-9))
    assert rep.level == 1 and rep.params["kappa_theta"] == 1e-9


def test_c_near_is_read_from_the_constants(cn):
    # every other image is a fan vertex one step off the geodesic
    fh = farey_handle()
    geo = farey_geodesic(ZERO, Slope(34, 55))
    L = len(geo) - 1

    def off(p):
        i = max(0, min(L, int(round(float(np.atleast_1d(p)[0]) / 64 * L))))
        if 0 < i < L and i % 2:
            return common_neighbors(geo[i], geo[i + 1])[0]
        return geo[i]

    fmap, box = BoxMap(pointwise(off), fh, K=1.0, C=2.0), Box.cube(64, 1)
    assert hyperbolic_subbox(fmap, box, eps=0.05, constants=cn)[0] == box
    sub, _ = hyperbolic_subbox(fmap, box, eps=0.05, constants=_with(cn, c_near=0.1))
    assert sub.sides[0] < box.sides[0]


def test_sigma0_is_read_from_the_constants(cn):
    fh = farey_handle()
    geo = farey_geodesic(ZERO, Slope(34, 55))
    L = len(geo) - 1

    def collapse(p):
        return geo[max(0, min(L, int(round(float(np.atleast_1d(p)[0]) / 64 * L))))]

    fmap, box = BoxMap(pointwise(collapse), fh, K=1.0, C=2.0), Box.cube(64, 2)
    assert hyperbolic_subbox(fmap, box, eps=0.05, constants=cn)[0] == box
    with pytest.raises(NotEfficientError):
        hyperbolic_subbox(fmap, box, eps=0.05, constants=_with(cn, sigma0=2.0))


def test_kappa_subsegment_is_read_from_the_constants(cn):
    # an efficient path with one retrace of depth 4: at allowance 0 the
    # subsegment through the retrace fails
    vals = list(range(21)) + list(range(19, 15, -1)) + list(range(16, 41))
    tr = line_trace(range(len(vals)), vals)
    assert subsegment_efficiency_closure(tr, 48.0, 0.05, 6.0, constants=cn) == (True, None)
    ok, witness = subsegment_efficiency_closure(
        tr, 48.0, 0.05, 6.0, constants=_with(cn, kappa_subsegment=0.0))
    assert not ok and witness is not None
