"""Preferred paths, hulls, centers, extraction, flats, antichains, and
the fellow-traveling checks."""

import math

import numpy as np
import pytest

from coarsegeo.effdiff import PathTrace
from coarsegeo.harness import (backtracked_trace, deep_slope, random_pair,
                               random_point, twist_flat)
from coarsegeo.hypgraph import model_handle
from coarsegeo.pathsflats import (
    FlatFactor, HullQuery, NotEfficientInputError, PathVerificationError,
    PreferredPath, StandardFlat, annular_center, antichain_build,
    candidate_flats, certificates, extract_no_backtrack, farey_center,
    flat_fit, hull_membership, hull_thickness_audit, hull_transfer_check,
    lemma_g_excess, near_region_check, point_to_flat, preferred_path,
    side_nearest, steady_progress, tuple_center,
    verify_preferred,
)
from coarsegeo.surfmodel import (
    FLAVORS, INFINITY, ZERO, AnnularPoint, ComponentState, ModelPoint, ModelSurface,
    Slope, Subsurface, base_point, farey_distance,
    flip_move, horoball_distance, length_move, model_distance, project,
    twist_move,
)

import oracles
from oracles import canonical_transversal


# --- preferred paths ------------------------------------------------------------

def test_trivial_and_flip_paths(marking1, cn):
    x = base_point(marking1)
    assert len(preferred_path(x, x, cn)) == 1
    y = flip_move(x, 0)
    path = preferred_path(x, y, cn)
    assert len(path) <= 3
    assert path.x == x and path.y == y


def test_twist_pair_gives_twist_moves(marking1, cn):
    x = base_point(marking1)
    y = twist_move(x, 0, 17)
    path = preferred_path(x, y, cn)
    assert len(path) == 18
    assert {m[0] for m in path.moves} == {"twist"}


def test_augmented_big_twist_routes_through_horoball(augmented1, cn):
    x = base_point(augmented1)
    y = twist_move(x, 0, 400)
    path = preferred_path(x, y, cn)
    # two climbs of log2(200) plus chunked twisting, far below 400 moves
    assert len(path) <= 2 * math.log2(400) + 14
    kinds = {m[0] for m in path.moves}
    assert kinds == {"twist", "length"}


def test_constructed_paths_pass_their_invariants(marking2, rng, cn):
    for _ in range(8):
        x, y = random_pair(marking2, rng, steps=14, big_twist=25)
        path = preferred_path(x, y, cn, verify=True)  # raises on failure
        assert path.x == x and path.y == y


def test_path_is_preferred_in_every_certificate(marking1, rng, cn):
    x, y = random_pair(marking1, rng, steps=12, big_twist=30)
    path = preferred_path(x, y, cn, verify=False)
    verify_preferred(path, cn)


def test_endpoints_on_different_surfaces_rejected(marking1, marking2, cn):
    with pytest.raises(ValueError):
        preferred_path(base_point(marking1), base_point(marking2), cn)


# --- hulls ------------------------------------------------------------------------

def test_hull_membership_cases(marking2, rng, cn):
    x, y = random_pair(marking2, rng, steps=14, big_twist=25, min_distance=30)
    q = HullQuery(x, y, kappa=cn["kappa_hull"])
    assert hull_membership(q, x) == (True, None)
    path = preferred_path(x, y, cn, verify=False)
    mid = path.points[len(path) // 2]
    assert hull_membership(q, mid)[0]
    far = twist_move(x, 0, 10 ** 4)
    ok, worst = hull_membership(q, far)
    assert not ok and worst is not None and worst.kind == "annulus"


def test_hull_witness_in_component(marking1, cn):
    x = base_point(marking1)
    y = twist_move(x, 0, 30)
    far_slope = deep_slope(int(cn["kappa_hull"]) + 3)
    z = ModelPoint(marking1, (ComponentState(far_slope,
                                             canonical_transversal(far_slope)),))
    ok, worst = hull_membership(HullQuery(x, y, cn["kappa_hull"]), z)
    assert not ok and worst == Subsurface("component", 0)


def test_lemma_g_excess_bounded(marking1, rng, cn):
    x, y = random_pair(marking1, rng, steps=12, big_twist=25, min_distance=25)
    path = preferred_path(x, y, cn, verify=False)
    members = [path.points[i] for i in
               range(0, len(path), max(1, len(path) // 6))]
    c_g = 2 * cn["kappa_hull"] + 2
    assert lemma_g_excess(x, y, members) <= c_g


def test_hull_thickness_at_bounded_spread(marking2, cn):
    """When every per-component spread is at most D, hull points sit
    within a multiple of D of any preferred path."""
    x = base_point(marking2)
    y = twist_move(twist_move(x, 0, 14), 1, -12)
    d_cap = 14.0
    path = preferred_path(x, y, cn, verify=False)
    members = [path.points[i] for i in range(0, len(path), 5)]
    c_h = 4.0
    assert hull_thickness_audit(x, y, members, path) <= c_h * d_cap


def _augmented_pair(surface, twist):
    """From the base point to a twist of `twist` at height 32."""
    x = base_point(surface)
    return x, length_move(twist_move(x, 0, twist), 0, 1 / 32)


def test_augmented_hull_side_distance(augmented1, cn):
    x, y = _augmented_pair(augmented1, 600)
    q = HullQuery(x, y, kappa=cn["kappa_hull"])
    w = Subsurface("annulus", 0, x.alpha(0))
    a, b = project(x, w), project(y, w)
    assert (a.twist, b.twist, b.height) == (0, 600, 32.0)
    assert q.side_distance(w, a) == pytest.approx(0.0, abs=1e-9)
    assert q.side_distance(w, b) == pytest.approx(0.0, abs=1e-9)
    for tw in (-50, 0, 150, 300, 599, 900):
        for h in (1.0, 8.0, 100.0, 1e4):
            c = AnnularPoint(tw, h)
            assert q.side_distance(w, c) == pytest.approx(
                oracles.horoball_point_to_segment(c.coords(), a.coords(), b.coords(), 80),
                abs=1e-8)
    assert hull_membership(q, x) == (True, None)
    assert hull_membership(q, y) == (True, None)
    # under the arc at the boundary height, and far above its top
    for z in (twist_move(x, 0, 300), length_move(x, 0, 1e-6)):
        assert q.side_distance(w, project(z, w)) > cn["kappa_hull"]
        assert hull_membership(q, z) == (False, w)


# --- centers ------------------------------------------------------------------------

def test_farey_center_small_cases():
    c = farey_center(ZERO, INFINITY, Slope(1, 2))
    for v in (ZERO, INFINITY, Slope(1, 2)):
        assert farey_distance(c, v) <= 1
    assert farey_center(ZERO, ZERO, ZERO) == ZERO


def test_annular_center_median_and_horoball():
    assert annular_center(AnnularPoint(0), AnnularPoint(10),
                          AnnularPoint(4), FLAVORS["marking"]) == AnnularPoint(4)
    c = annular_center(AnnularPoint(0, 1.0), AnnularPoint(10, 1.0),
                       AnnularPoint(5, 1.0), FLAVORS["augmented"])
    assert 0 <= c.twist <= 10 and c.height >= 1.0


def test_tuple_center_degenerate_and_midpoint(marking1, rng, cn):
    x, y = random_pair(marking1, rng, steps=10, big_twist=20, min_distance=15)
    c = tuple_center(x, y, x, cn)
    assert model_distance(c, x) <= cn["d_roundtrip"] + cn["m_realize"]
    path = preferred_path(x, y, cn, verify=False)
    z = path.points[len(path) // 2]
    c2 = tuple_center(x, y, z, cn)
    assert model_distance(c2, z) <= 6 * cn["kappa_hull"] + 3 * cn["m_realize"] + 20


def test_augmented_tuple_center(augmented1, cn):
    x, y = _augmented_pair(augmented1, 600)
    (st,) = tuple_center(x, y, x, cn).states
    assert (st.alpha, st.tau) == (x.alpha(0), x.states[0].tau)
    assert st.length == pytest.approx(x.states[0].length, rel=1e-9)
    z = twist_move(x, 0, 300)
    c = tuple_center(x, y, z, cn)
    w = Subsurface("annulus", 0, x.alpha(0))
    # z is off the arc [x, y]; the centre is near all three sides
    assert HullQuery(x, y, cn["kappa_hull"]).side_distance(w, project(z, w)) > 5.0
    for u, v in ((x, y), (y, z), (x, z)):
        q = HullQuery(u, v, cn["kappa_hull"])
        assert hull_membership(q, c) == (True, None)
        assert q.side_distance(w, project(c, w)) < 1.0


# --- extraction ------------------------------------------------------------------------

def test_extraction_of_preferred_path_stays_close(marking1, rng, cn):
    from coarsegeo.bbf import embedded_handle
    x, y = random_pair(marking1, rng, steps=12, big_twist=40, min_distance=50)
    path = preferred_path(x, y, cn, verify=False)
    pts = list(path.points)
    ts = tuple(float(t) for t in np.linspace(0, 400.0, len(pts)))
    h = embedded_handle(pts, cn["k_pk"])
    k = max(h.distance(a, b) for a, b in zip(pts, pts[1:])) / (ts[1] - ts[0])
    tr = PathTrace(ts, tuple(pts), h, K=k + 0.1, C=2 * marking1.threshold + 4)
    out = extract_no_backtrack(tr, x, y, eps=0.05, constants=cn)
    assert out.excursion <= cn["c_bb"] * 0.05 * 400.0


def test_extraction_removes_backtracks(marking1, rng, cn):
    x, y = random_pair(marking1, rng, steps=12, big_twist=40, min_distance=60)
    tr = backtracked_trace(x, y, eps=0.05, R=400.0, rng=rng, constants=cn)
    assert oracles.retrace_depth(tr.points) >= 0.5 * 0.05 * 400.0  # the input backtracks
    out = extract_no_backtrack(tr, x, y, eps=0.05, constants=cn)
    assert out.excursion <= cn["c_bb"] * 0.05 * 400.0
    assert model_distance(out.x, x) <= cn["d_roundtrip"]
    assert model_distance(out.y, y) <= cn["d_roundtrip"]


def test_extracted_path_never_moves_back_along_a_side(marking1, augmented1, cn):
    """Along the extracted path, each certificate's side position (of the
    point of [pi_w(x), pi_w(y)] nearest the path point's projection)
    never decreases.  The pairs are built as the extraction benchmark
    builds them: marking pairs at eps 0.05 twisted by 30 about three
    successive pants curves, augmented pairs at eps 0.1 twisted by
    150-1200 and shortened 2-7 times, both at R = 400."""
    rng = np.random.default_rng(12)
    for _ in range(8):
        x = random_point(marking1, rng, steps=12, big_twist=40)
        y = x
        for step in range(3):
            y = twist_move(flip_move(y, 0) if step else y, 0, 30 * int(rng.choice([-1, 1])))
        a = random_point(augmented1, rng, steps=8)
        b = twist_move(a, 0, int(rng.integers(150, 1201)) * int(rng.choice([-1, 1])))
        for _ in range(int(rng.integers(2, 8))):
            b = length_move(b, 0, 0.5)
        for p, q, eps in ((x, y, 0.05), (a, b, 0.1)):
            trace = backtracked_trace(p, q, eps=eps, R=400.0, rng=rng, constants=cn)
            path = extract_no_backtrack(trace, p, q, eps=eps, constants=cn)
            for w, (pa, pb) in HullQuery(p, q, math.inf).sides.items():
                pos = [side_nearest(w, p.surface.fl, pa, pb, project(z, w))[1]
                       for z in path.points]
                assert all(s <= t for s, t in zip(pos, pos[1:])), (w, pos)


def test_extraction_rejects_inefficient_input(marking1, cn):
    from coarsegeo.bbf import embedded_handle
    x = base_point(marking1)
    y = twist_move(x, 0, 200)
    path = preferred_path(x, y, cn, verify=False)
    # a trace that retraces its whole length twice is nowhere near
    # efficient in the glued product metric
    pts = list(path.points) + list(reversed(path.points)) + list(path.points)
    ts = tuple(float(t) for t in np.linspace(0, 400.0, len(pts)))
    h = embedded_handle(pts, cn["k_pk"])
    k = max(h.distance(a, b) for a, b in zip(pts, pts[1:])) / (ts[1] - ts[0])
    tr = PathTrace(ts, tuple(pts), h, K=k + 0.1, C=24.0)
    with pytest.raises(NotEfficientInputError, match="not efficient"):
        extract_no_backtrack(tr, x, y, eps=0.05, constants=cn)


@pytest.mark.parametrize("twist", [600, 3000])
def test_augmented_extraction_moves_forward(augmented1, cn, twist):
    eps, R = 0.1, 100.0
    x, y = _augmented_pair(augmented1, twist)
    tr = backtracked_trace(x, y, eps=eps, R=R, rng=np.random.default_rng(5), constants=cn)
    w = Subsurface("annulus", 0, x.alpha(0))
    side = (project(x, w), project(y, w))

    def positions(points):
        return [side_nearest(w, augmented1.fl, *side, project(p, w))[1] for p in points]

    back = positions(tr.points)
    assert min(b - a for a, b in zip(back, back[1:])) < -1.0  # the input backtracks
    out = extract_no_backtrack(tr, x, y, eps=eps, constants=cn)
    assert out.excursion <= cn["c_bb"] * eps * R
    pos = positions(out.points)
    assert all(b >= a for a, b in zip(pos, pos[1:]))
    assert pos[0] == pytest.approx(0.0, abs=1e-6)
    assert pos[-1] == pytest.approx(horoball_distance(side[0].coords(), side[1].coords()),
                                    abs=1e-6)


# --- flats -------------------------------------------------------------------------------

def test_flat_eval_and_l1_band(marking2, rng, cn):
    flat = twist_flat(marking2, span=40)
    for _ in range(40):
        s = tuple(int(rng.integers(-40, 41)) for _ in range(2))
        t = tuple(int(rng.integers(-40, 41)) for _ in range(2))
        l1 = sum(abs(a - b) for a, b in zip(s, t))
        if l1 < 25:
            continue
        d = model_distance(flat.eval(s), flat.eval(t))
        assert l1 / 3 - 25 <= d <= l1 + 1


def test_flat_fit_on_flat_and_noisy(marking2, rng, cn):
    flat = twist_flat(marking2, span=30)
    samples = [flat.eval((t, -t)) for t in range(-25, 26, 5)]
    fit, _ = flat_fit(samples, candidate_flats(samples, cn))
    assert fit == 0.0
    noisy = [twist_move(p, 0, int(rng.integers(-2, 3))) for p in samples]
    fit2, _ = flat_fit(noisy, candidate_flats(noisy, cn) + [flat])
    assert fit2 <= 4.0
    with pytest.raises(ValueError):
        flat_fit(samples, [])


def test_ray_factor_is_isometric_on_heights(augmented1):
    from coarsegeo.harness import orthant_flat
    flat = orthant_flat(augmented1, span=60)
    a, b = flat.eval((10,)), flat.eval((34,))
    assert model_distance(a, b) == pytest.approx(24.0, abs=1.0)


def test_point_to_flat_separates_off_flat_points(marking2, cn):
    flat = twist_flat(marking2, span=20)
    on = flat.eval((5, 5))
    assert point_to_flat(flat, on) == 0.0
    off = twist_move(on, 0, 60)  # twist far beyond the factor interval
    assert point_to_flat(flat, off) >= 30.0


# --- steady progress, antichains -------------------------------------------------------

def test_steady_progress_cases(marking1, cn):
    x = base_point(marking1)
    far = deep_slope(30)
    z = ModelPoint(marking1, (ComponentState(far, canonical_transversal(far)),))
    pz = preferred_path(x, z, cn, verify=False)
    comp = Subsurface("component", 0)
    assert steady_progress(pz, comp, c0=1.0)
    y = twist_move(x, 0, 40)
    pt = preferred_path(x, y, cn, verify=False)
    assert not steady_progress(pt, comp, c0=1.0)  # farey shadow is bounded
    assert steady_progress(pt, Subsurface("annulus", 0, ZERO), c0=2.0)
    with pytest.raises(ValueError):
        steady_progress(preferred_path(x, twist_move(x, 0, 2), cn,
                                       verify=False), comp, 1.0)


def test_antichain_cases(marking2, rng, cn):
    x = base_point(marking2)
    assert antichain_build(x, x, 0, 10.0, 20.0, cn["a_antichain"]).members == []
    y = twist_move(x, 0, 25)
    ac = antichain_build(x, y, 0, 10.0, 20.0, cn["a_antichain"])
    assert [m.core for m in ac.members] == [ZERO]
    assert ac.ok
    for _ in range(120):
        a, b = random_pair(marking2, rng, steps=16, big_twist=40)
        for comp in range(2):
            assert antichain_build(a, b, comp, 10.0, 20.0,
                                   cn["a_antichain"]).ok


def test_antichain_members_never_nested(marking2, rng, cn):
    a, b = random_pair(marking2, np.random.default_rng(0), steps=16,
                       big_twist=40)
    ac = antichain_build(a, b, 0, 10.0, 20.0, cn["a_antichain"])
    for m in ac.members:
        assert m.kind == "annulus"


# --- fellow traveling ---------------------------------------------------------------------

def _steady_twist_pair(surface, n):
    x = base_point(surface)
    y = twist_move(x, 0, n)
    return x, y


def test_near_region_identical_paths(marking1, cn):
    x, y = _steady_twist_pair(marking1, 60)
    g = preferred_path(x, y, cn, verify=False)
    v = near_region_check(g, g, 0, ZERO, cn)
    assert v.applicable and v.passed


def test_near_region_perturbed_endpoints(marking1, rng, cn):
    x, y = _steady_twist_pair(marking1, 80)
    g = preferred_path(x, y, cn, verify=False)
    hits = 0
    for _ in range(10):
        xp = twist_move(x, 0, int(rng.integers(-2, 3)))
        yp = twist_move(y, 0, int(rng.integers(-2, 3)))
        gp = preferred_path(xp, yp, cn, verify=False)
        v = near_region_check(g, gp, 0, ZERO, cn)
        if v.applicable:
            hits += 1
            assert v.passed
    assert hits > 0


def test_near_region_hypothesis_gate(marking1, cn):
    x, y = _steady_twist_pair(marking1, 60)
    g = preferred_path(x, y, cn, verify=False)
    far = twist_move(flip_move(x, 0), 0, 500)
    gp = preferred_path(far, y, cn, verify=False)
    v = near_region_check(g, gp, 0, ZERO, cn)
    assert not v.applicable  # endpoints violate the c0 D bound


def test_hull_transfer(marking1, rng, cn):
    far = deep_slope(26)
    x = base_point(marking1)
    y = ModelPoint(marking1, (ComponentState(far, canonical_transversal(far)),))
    path = preferred_path(x, y, cn, verify=False)
    z = path.points[len(path) // 2]
    xp = flip_move(x, 0)
    yp = twist_move(y, 0, 1)
    v = hull_transfer_check(x, y, xp, yp, z, 0, cn)
    if v.applicable:
        assert v.passed


def test_progress_forces_region_proximity(marking1, cn):
    """Experiment-suite form of the progress propositions: when a path
    moves a definite amount in one annulus, a stretch of it stays near
    the product region over that core, with steady progress there."""
    x = base_point(marking1)
    y = twist_move(flip_move(twist_move(x, 0, 45), 0), 0, 3)
    path = preferred_path(x, y, cn, verify=False)
    w = Subsurface("annulus", 0, ZERO)
    from coarsegeo.surfmodel import product_project, subsurface_distance
    big = subsurface_distance(x, y, w)
    assert big >= 40
    prox = cn["c_region_proximity"]
    run_points = [p for p in path.points
                  if model_distance(p, product_project(p, {0: ZERO})) <= prox]
    spread = max(subsurface_distance(run_points[0], p, w) for p in run_points)
    assert spread >= big / cn["kappa_fellow"]
    sub = PreferredPath(tuple(run_points), (("realized",),) * (len(run_points) - 1))
    assert steady_progress(sub, w, cn["c0_steady"])
