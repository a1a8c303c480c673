"""Graph machinery: Farey thinness on the exact geodesics, the BFS graph
oracles (geodesics, projections, centres), excursion, and the
unparametrized quasi-geodesic test."""

import itertools
import json
import math

import numpy as np
import pytest

from coarsegeo.harness import main
from coarsegeo.hypgraph import (MetricHandle, farey_handle, farey_thinness, real_line_handle,
                               unparam_qgeo_check)
from coarsegeo.surfmodel import INFINITY, ZERO, Slope, farey_ball, farey_distance

import oracles
from oracles import (HypGraph, UnreachableError, farey_graph, geodesic, graph_handle,
                     morse_excursion, nearest_point_projection, product_handle,
                     triangle_center_graph, unparam_qgeo_oracle)

BALL_DELTA = 1.0  # the thinness the triangle-centre checks allow on `ball`


@pytest.fixture(scope="module")
def ball():
    return farey_graph(-2, 3, 5)


def test_geodesic_farey_examples(ball):
    g = geodesic(ball, ZERO, INFINITY)
    assert list(g) == [ZERO, INFINITY]
    assert geodesic(ball, ZERO, ZERO) == (ZERO,)
    two = geodesic(ball, ZERO, Slope(2, 5))
    assert len(two) - 1 == 2


def test_geodesic_reversal_symmetry(ball, rng):
    verts = [v for v in ball.vertices if 0 < v.q <= 8]
    for _ in range(50):
        i, j = rng.choice(len(verts), size=2, replace=False)
        a, b = verts[int(i)], verts[int(j)]
        assert list(geodesic(ball, b, a)) == list(reversed(list(geodesic(ball, a, b))))


def test_geodesic_length_matches_exact_distance(ball, rng):
    inner = [v for v in ball.vertices if 0 < v.q <= 8 and 0 <= v.p / v.q <= 1]
    for _ in range(80):
        i, j = rng.choice(len(inner), size=2, replace=False)
        a, b = inner[int(i)], inner[int(j)]
        assert len(geodesic(ball, a, b)) - 1 == farey_distance(a, b)


def test_unreachable_errors():
    g = HypGraph([(0, 1), (2, 3)])
    with pytest.raises(UnreachableError, match="unreachable"):
        geodesic(g, 0, 3)


def test_delta_monotone_in_samples_and_below_exhaustive(capsys):
    """The verb's triples are a prefix of one seeded stream of the ball's
    triples, so its estimate grows with --samples up to the kernel's
    value on every triple."""
    ball = (-1, 2, 4)
    exact = farey_thinness(itertools.combinations(farey_ball(*ball), 3))
    prev = 0.0
    for count in (1, 5, 20, 80, 200):
        assert main(["delta", "--lo", "-1", "--hi", "2", "--depth", "4",
                     "--samples", str(count), "--seed", "3"]) == 0
        est = json.loads(capsys.readouterr().out)["delta"]
        assert prev <= est <= exact
        prev = est
    assert farey_thinness([]) == 0.0


@pytest.mark.parametrize("ball", [(0, 1, 3), (-1, 1, 3), (0, 1, 4), (-1, 2, 4)])
def test_farey_thinness_of_a_ball_matches_the_bfs_graph(ball):
    """Over every triple of a ball, the exact geodesics give the thinness
    the explicit ball with BFS geodesics gives, though one triangle's
    defect can differ (the two break ties between geodesics apart)."""
    got = farey_thinness(itertools.combinations(farey_ball(*ball), 3))
    assert repr(got) == repr(oracles.delta_exhaustive(farey_graph(*ball))) == "1.0"


def test_nearest_point_projection(ball, rng):
    seg = geodesic(ball, ZERO, Slope(3, 1))
    assert nearest_point_projection(ball, seg[1], seg) == seg[1]
    # brute force agreement
    for _ in range(40):
        p = ball.vertices[int(rng.integers(len(ball.vertices)))]
        got = nearest_point_projection(ball, p, seg)
        dist = ball.bfs_distances([p])
        best = min(dist.get(v, math.inf) for v in seg)
        assert dist.get(got, math.inf) == best


def test_triangle_center_cases(ball):
    assert triangle_center_graph(ball, ZERO, ZERO, ZERO, BALL_DELTA) == ZERO
    # degenerate: z on [x, y]
    seg = geodesic(ball, ZERO, Slope(2, 5))
    z = seg[1]
    c = triangle_center_graph(ball, ZERO, Slope(2, 5), z, BALL_DELTA)
    for a, b in ((ZERO, Slope(2, 5)), (ZERO, z), (Slope(2, 5), z)):
        side = geodesic(ball, a, b)
        d = ball.bfs_distances(side)
        assert d.get(c, math.inf) <= BALL_DELTA + 1
    # the triangle (0, oo, 1/2) has a center adjacent to all three
    c2 = triangle_center_graph(ball, ZERO, INFINITY, Slope(1, 2), BALL_DELTA)
    for v in (ZERO, INFINITY, Slope(1, 2)):
        assert ball.distance(c2, v) <= 1


def test_triangle_center_not_hyperbolic_error():
    cyc = HypGraph([(i, (i + 1) % 12) for i in range(12)])
    with pytest.raises(ValueError, match="not hyperbolic at scale"):
        triangle_center_graph(cyc, 0, 4, 8, 0.0)


def test_morse_excursion_cases(ball):
    fh = farey_handle()
    seg = fh.geodesic(ZERO, Slope(5, 8))
    assert morse_excursion(list(seg), seg, fh) == 0.0
    detour = list(seg[:2]) + [Slope(7, 1)] + list(seg[2:])
    exc = morse_excursion(detour, seg, fh)
    ref = min(farey_distance(Slope(7, 1), v) for v in seg)
    assert exc == ref


def test_unparam_check_cases():
    h = real_line_handle()
    ok, _ = unparam_qgeo_check([0.0, 1, 2, 3, 4], h, 1.0, 1.0)
    assert ok
    bad, witness = unparam_qgeo_check([0.0, 1, 2, 3, 4, 5, 1.0, 6], h, 1.0, 1.0)
    assert not bad and witness is not None
    # stalls are fine for the unparametrized notion
    ok2, _ = unparam_qgeo_check([0.0, 0.0, 1.0, 1.0, 2.0], h, 1.0, 0.5)
    assert ok2
    with pytest.raises(ValueError):
        unparam_qgeo_check([], h, 1.0, 1.0)


def test_unparam_check_against_exhaustive_oracle(rng):
    h = real_line_handle()
    for _ in range(120)        :
        seq = [float(rng.uniform(0, 6)) for _ in range(int(rng.integers(2, 6)))]
        lam = float(rng.choice([1.0, 1.5, 2.0]))
        c = float(rng.choice([0.5, 1.0, 3.0]))
        primary = unparam_qgeo_check(seq, h, lam, c)[0]
        oracle = unparam_qgeo_oracle(seq, h, lam, c, grid=25)
        # the oracle's grid can miss feasible assignments but never
        # accepts an infeasible one
        if oracle:
            assert primary
        if not primary:
            assert not oracle


def test_unparam_frozen_case_projection(marking1, cn):
    """The annular shadow of a constructed path is an unparametrized
    quasi-geodesic at the frozen constants."""
    from coarsegeo.harness import random_pair
    from coarsegeo.pathsflats import certificates
    from coarsegeo.surfmodel import project
    from coarsegeo.hypgraph import MetricHandle

    rng = np.random.default_rng(5)
    from coarsegeo.pathsflats import preferred_path
    x, y = random_pair(marking1, rng, steps=10, big_twist=20)
    path = preferred_path(x, y, cn, verify=False)
    w = certificates(x, y)[1]
    shadow = [project(p, w) for p in path.points]
    dedup = [shadow[0]]
    for s in shadow[1:]:
        if s != dedup[-1]:
            dedup.append(s)
    handle = MetricHandle("annulus", lambda a, b: abs(a.twist - b.twist))
    ok, _ = unparam_qgeo_check(dedup, handle, cn["lambda_unparam"],
                               cn["c_unparam"])
    assert ok


def test_product_handle_l1():
    h = product_handle([real_line_handle(), real_line_handle()])
    assert h.distance((0.0, 0.0), (3.0, 4.0)) == 7.0


def test_graph_handle_roundtrip(ball):
    h = graph_handle(ball)
    assert h.distance(ZERO, INFINITY) == 1.0
    assert list(h.geodesic(ZERO, INFINITY)) == [ZERO, INFINITY]


def test_default_pairwise_calls_distance_in_order():
    """`pairwise` makes one `distance` call per pair, in order, repeats
    included."""
    asked = []

    def distance(a, b):
        asked.append((a, b))
        return float(a - b)

    handle = MetricHandle("toy", distance)
    assert handle.pairwise([3, 1, 2, 3], [0, 5, 2, 0]) == [3.0, -4.0, 0.0, 3.0]
    assert asked == [(3, 0), (1, 5), (2, 2), (3, 0)]
    assert handle.pairwise([], []) == []
