"""Closed-form horoball geometry against the ternary searches it replaced.

The oracles in `tests/oracles.py` search an angle-linear parametrization
of the arc [a, b]; the package maps the geodesic to the imaginary axis
by a Moebius map and reads nearest points off the log-height.  Centres
must agree in twist exactly and in height within HEIGHT_RTOL; segment
distances within SEGMENT_ATOL; positions along [a, b] within
POSITION_ATOL.  The old searches are themselves off by more than that
here: up to 1.2e-5 (centre heights, relative, 40 steps), 1.9e-5
(positions, 40 steps) and 2.1e-8 (a segment distance that is 0, 60
steps), checked against 40-digit arithmetic, where the closed forms
are right to 1e-14.  So the same searches run to a tighter bracket: 50
outer steps for centres (over the old 60-step inner searches) and 80
steps for segment distances and positions.
"""

import math

import numpy as np
import pytest

from coarsegeo.pathsflats import annular_center, side_nearest
from coarsegeo.surfmodel import (FLAVORS, ZERO, AnnularPoint, ModelSurface, Subsurface,
                                 geodesic_chart, horoball_distance,
                                 horoball_point_to_segment)

import oracles

HEIGHT_RTOL = 1e-5
SEGMENT_ATOL = 1e-8
POSITION_ATOL = 1e-5
CENTRE_STEPS = 50
SEARCH_STEPS = 80
TRIPLES_PER_BERS = 500

W = Subsurface("annulus", 0, ZERO)


def _surface(bers: float) -> ModelSurface:
    return ModelSurface(((1, 1),), flavor="augmented", bers=bers)


def _point(rng, bers: float) -> AnnularPoint:
    """Twists on four scales up to 1500, heights 2^0..2^7 / bers."""
    span = int(rng.choice([3, 30, 300, 1500]))
    return AnnularPoint(int(rng.integers(-span, span + 1)),
                        float(2.0 ** rng.integers(0, 8)) / bers)


def _coords(points: list[AnnularPoint]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([float(p.twist) for p in points]), np.array([p.height for p in points]))


def _assert_agree(surface: ModelSurface,
                  triples: list[tuple[AnnularPoint, AnnularPoint, AnnularPoint]]) -> None:
    """Each triple against the searches, which run on all of them at once."""
    pa, pb, pc = (_coords(list(col)) for col in zip(*triples))
    want_tw, want_h = oracles.horoball_center(pa, pb, pc, CENTRE_STEPS)
    want_seg = oracles.horoball_point_to_segment(pc, pa, pb, SEARCH_STEPS)
    want_pos = oracles.horoball_position(pa, pb, pc, SEARCH_STEPS)
    for i, (a, b, c) in enumerate(triples):
        got = annular_center(a, b, c, FLAVORS["augmented"])
        assert got.twist == int(want_tw[i]), (a, b, c)
        assert got.height == pytest.approx(want_h[i], rel=HEIGHT_RTOL, abs=0), (a, b, c)
        assert horoball_point_to_segment(c.coords(), a.coords(), b.coords())[0] == pytest.approx(
            want_seg[i], rel=0, abs=SEGMENT_ATOL), (a, b, c)
        assert side_nearest(W, surface.fl, a, b, c)[1] == pytest.approx(
            want_pos[i], rel=0, abs=POSITION_ATOL), (a, b, c)


@pytest.mark.parametrize("bers", [1.0, 2.0])
def test_closed_forms_match_searches_on_seeded_triples(bers):
    rng = np.random.default_rng([7, int(bers)])
    triples = [tuple(_point(rng, bers) for _ in range(3)) for _ in range(TRIPLES_PER_BERS)]
    _assert_agree(_surface(bers), triples)


def test_closed_forms_match_searches_on_degenerate_triples():
    surface = _surface(1.0)
    a, b = AnnularPoint(-4, 3.0), AnnularPoint(4, 3.0)
    on_arc = AnnularPoint(0, 5.0)  # top of the semicircle through a and b
    cases = [
        (a, a, AnnularPoint(9, 2.0)),                          # a == b
        (a, a, a),                                             # all equal
        (a, AnnularPoint(700, 1.0), a),                        # c == a
        (a, AnnularPoint(700, 1.0), AnnularPoint(700, 1.0)),   # c == b
        (AnnularPoint(3, 1.0), AnnularPoint(3, 64.0), AnnularPoint(-40, 2.0)),  # vertical
        (AnnularPoint(3, 64.0), AnnularPoint(3, 1.0), AnnularPoint(3, 8.0)),    # vertical, c on it
        (a, b, on_arc),                                        # c on [a, b]
        (a, b, AnnularPoint(3, 4.0)),                          # c on [a, b]
    ]
    _assert_agree(surface, cases)
    # the exact answers the searches approximate
    centre = annular_center(a, a, AnnularPoint(9, 2.0), FLAVORS["augmented"])
    assert centre.twist == a.twist and centre.height == pytest.approx(a.height, rel=1e-15)
    centre = annular_center(a, b, on_arc, FLAVORS["augmented"])
    assert centre.twist == 0 and centre.height == pytest.approx(5.0, rel=1e-12)
    assert horoball_point_to_segment(on_arc.coords(), a.coords(), b.coords())[0] == 0.0
    assert horoball_point_to_segment((9.0, 2.0), a.coords(), a.coords())[0] == \
        pytest.approx(horoball_distance((9.0, 2.0), a.coords()), rel=1e-15)
    assert side_nearest(W, surface.fl, a, a, on_arc)[1] == 0.0
    assert side_nearest(W, surface.fl, a, b, on_arc)[1] == pytest.approx(
        horoball_distance(a.coords(), on_arc.coords()), abs=1e-12)


def test_geodesic_chart_sends_the_arc_to_the_axis():
    for a, b in [((0.0, 1.0), (4.0, 1.0)), ((-1260.0, 1.0), (-18.0, 8.0)),
                 ((3.0, 64.0), (3.0, 1.0)), ((5.0, 2.0), (5.0, 2.0))]:
        to, back, la, lb = geodesic_chart(a, b)
        for p, lp in ((a, la), (b, lb)):
            w = to(complex(*p))
            assert abs(w.real) <= 1e-9 * abs(w)
            assert math.log(abs(w)) == lp
            z = back(w)
            assert (z.real, z.imag) == pytest.approx(p, rel=1e-12, abs=1e-12)
        assert abs(lb - la) == pytest.approx(horoball_distance(a, b), rel=1e-12)
