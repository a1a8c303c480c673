"""Consistency conditions, realization, and the projection audits."""

import math

import numpy as np
import pytest

from coarsegeo.consreal import (
    ConsistencyReport, ExactSystem, InconsistentTupleError,
    MissingProjectionError, bgit_audit,
    consistency_check, exact_system_for, far_projection_check, realize,
    realization_defects, tuple_of_projections,
)
from coarsegeo.harness import random_point
from coarsegeo.surfmodel import (
    INFINITY, ZERO, AnnularPoint, ModelSurface, Slope, Subsurface,
    base_point, farey_distance, farey_geodesic, model_distance, project,
    twist_move, twist_number,
)

from oracles import SyntheticSystem, synthetic_chain_system


def test_real_tuples_are_consistent(marking2, rng, cn):
    m1 = cn["m1_consistency"]
    for _ in range(150):
        x = random_point(marking2, rng, steps=16)
        extra = [(int(rng.integers(2)), Slope(int(rng.integers(-8, 9)),
                                              int(rng.integers(0, 5)) or 1))
                 for _ in range(3)]
        sys = exact_system_for(x, extra_cores=[(c, s) for c, s in extra
                                               if s != x.alpha(c)])
        rep = consistency_check(sys, tuple_of_projections(x, sys), m1)
        assert rep.verdict, rep.violations


def test_projection_tuple_lookup_matches_scan(marking2, rng):
    """Dict lookups agree with a scan of the tuple's items, also with an
    equal but distinct subsurface as the key."""
    for _ in range(20):
        x = random_point(marking2, rng, steps=16)
        sys = exact_system_for(x, extra_cores=[(0, Slope(int(rng.integers(-8, 9)), 1))])
        z = tuple_of_projections(x, sys)
        for k, v in z.items():
            assert k in z and z[k] == v
            assert z[Subsurface(k.kind, k.comp, k.core)] == v  # an equal, distinct key
        missing = Subsurface("annulus", 1, Slope(7, 3))
        assert missing not in z.keys() and missing not in z
        with pytest.raises(KeyError):
            z[missing]


def test_condition_two_short_circuit(marking1):
    """With the component coordinate adjacent to the annulus core, the
    first branch of the nested condition is at most one."""
    x = base_point(marking1)
    sys = exact_system_for(x, extra_cores=[(0, ZERO)])
    coords = tuple_of_projections(x, sys)
    comp = Subsurface("component", 0)
    coords[comp] = INFINITY  # farey distance 1 to the core 0/1
    coords[Subsurface("annulus", 0, ZERO)] = AnnularPoint(10 ** 6)
    rep = consistency_check(sys, coords, m=1.0)
    assert rep.verdict


def test_synthetic_violation_reported():
    rng = np.random.default_rng(3)
    sys, good, bad_sys, bad = synthetic_chain_system(4, rng)
    assert consistency_check(sys, good, m=6.0).verdict
    rep = consistency_check(bad_sys, bad, m=6.0)
    assert not rep.verdict and rep.violations


def test_missing_boundary_projection_names_pair():
    sys = SyntheticSystem(ids=("A", "B"), overlaps={frozenset(("A", "B"))})
    z = {"A": 0, "B": 0}
    with pytest.raises(MissingProjectionError, match="A.*B|B.*A"):
        consistency_check(sys, z, m=2.0)


def test_realize_round_trip(marking2, augmented1, rng, cn):
    for surface in (marking2, augmented1):
        for _ in range(80):
            x = random_point(surface, rng, steps=16)
            sys = exact_system_for(x)
            z = tuple_of_projections(x, sys)
            x2 = realize(sys, z, m=cn["m_realize"])
            assert model_distance(x, x2) <= cn["d_roundtrip"]
            z2 = tuple_of_projections(x2, sys)
            rep = consistency_check(sys, z2, cn["m1_consistency"] + cn["d_realization"])
            assert rep.verdict


def test_realize_twist_demand(marking1, cn):
    x = base_point(marking1)
    sys = exact_system_for(x, extra_cores=[(0, ZERO)])
    coords = tuple_of_projections(x, sys)
    coords[Subsurface("annulus", 0, ZERO)] = AnnularPoint(37)
    out = realize(sys, coords, m=cn["m_realize"])
    got = project(out, Subsurface("annulus", 0, ZERO))
    assert abs(got.twist - 37) <= 2


def test_realize_single_slope_tuple_gives_canonical_marking(marking1, cn):
    """All coordinates equal to projections of one slope realize to that
    slope's canonical marking."""
    s = Slope(1, 2)
    sys = ExactSystem(marking1, [Subsurface("component", 0)])
    out = realize(sys, {Subsurface("component", 0): s},
                  m=cn["m_realize"])
    assert out.alpha(0) == s


def test_realize_swaps_in_demanding_annulus(marking1, cn):
    """A far twist demand about a core away from the component
    coordinate forces the pants slope onto that core."""
    core = Slope(1, 3)
    sys = ExactSystem(marking1, [Subsurface("component", 0),
                                 Subsurface("annulus", 0, core)])
    coords = {
        Subsurface("component", 0): Slope(0, 1),
        Subsurface("annulus", 0, core): AnnularPoint(500),
    }
    out = realize(sys, coords, m=cn["m_realize"])
    assert out.alpha(0) == core
    assert abs(project(out, Subsurface("annulus", 0, core)).twist - 500) <= 2


def test_realize_rejects_inconsistent(marking1, cn):
    """A component coordinate 7 Farey steps from an annulus core, and a
    twist about that core 100 away from what the coordinate projects to:
    the nested pair reads min(7, 100) > m, so `realize` refuses the tuple
    itself.  Past that check the one far demand would be realized."""
    far = Slope(-169, 239)
    w, a = Subsurface("component", 0), Subsurface("annulus", 0, ZERO)
    assert farey_distance(far, ZERO) == 7 > cn["m_realize"]
    z = {w: far, a: AnnularPoint(twist_number(ZERO, far) + 100)}
    with pytest.raises(InconsistentTupleError) as err:
        realize(ExactSystem(marking1, [w, a]), z, m=cn["m_realize"])
    assert err.value.report.realized_m == 7.0


def test_realize_two_demanding_annuli_is_rejected(marking1):
    """Two crossing cores cannot both demand large twisting; the
    multicurve collection step must refuse."""
    a, b = Slope(1, 3), Slope(1, 4)
    sys = ExactSystem(marking1, [Subsurface("component", 0),
                                 Subsurface("annulus", 0, a),
                                 Subsurface("annulus", 0, b)])
    z = {
        Subsurface("component", 0): ZERO,
        Subsurface("annulus", 0, a): AnnularPoint(10 ** 4),
        Subsurface("annulus", 0, b): AnnularPoint(-10 ** 4),
    }
    # the consistency gate itself refuses crossing double demands
    with pytest.raises(InconsistentTupleError):
        realize(sys, z, m=5.0)
    # and the multicurve collection step refuses even when the gate is
    # opened wide (two crossing cores cannot both be swapped in)
    with pytest.raises(InconsistentTupleError):
        realize(sys, z, m=10 ** 5, m_bad=12.0)


def test_realize_takes_the_core_that_explains_every_demand(marking1, cn):
    """Both annuli demand far twisting relative to the slope 0/1, but the
    pants slope 1001/1, twisted to 3000 about itself, meets both demands,
    since tw_inf(1001/1) = 1001: the tuple is consistent (M = 2) and is
    realized there."""
    core = Slope(1001, 1)
    a_inf, a_core = Subsurface("annulus", 0, INFINITY), Subsurface("annulus", 0, core)
    z = {Subsurface("component", 0): ZERO,
         a_inf: AnnularPoint(1001), a_core: AnnularPoint(3000)}
    sys = ExactSystem(marking1, z)
    assert consistency_check(sys, z, cn["m_realize"]).realized_m == 2.0
    out = realize(sys, z, m=cn["m_realize"])
    assert out.alpha(0) == core
    assert project(out, a_inf).twist == 1001 and project(out, a_core).twist == 3000
    assert farey_distance(out.alpha(0), ZERO) == 2


def test_realization_defects_are_small(marking2, rng, cn):
    x = random_point(marking2, rng, steps=14)
    sys = exact_system_for(x)
    z = tuple_of_projections(x, sys)
    out = realize(sys, z, m=cn["m_realize"])
    defects = realization_defects(sys, z, out)
    assert max(defects.values()) <= cn["d_realization"]


# --- bounded geodesic image ----------------------------------------------------

def test_bgit_disjoint_branch():
    geo = farey_geodesic(ZERO, Slope(2, 5))
    v = bgit_audit(geo, geo[1], bound=0.0)
    assert v.disjoint_hit and v.ok


def test_bgit_short_geodesic_example(cn):
    v = bgit_audit([ZERO, INFINITY], Slope(1, 2), cn["m0_bgit"])
    assert not v.disjoint_hit
    assert v.ok


def test_bgit_dichotomy_sweep(rng, cn):
    m0 = cn["m0_bgit"]
    worst = 0.0
    for _ in range(500):
        a = Slope(int(rng.integers(-30, 31)), int(rng.integers(0, 13)) or 1)
        b = Slope(int(rng.integers(-30, 31)), int(rng.integers(0, 13)) or 1)
        core = Slope(int(rng.integers(-8, 9)), int(rng.integers(0, 5)) or 1)
        if a == b:
            continue
        v = bgit_audit(farey_geodesic(a, b), core, m0)
        assert v.ok
        if not v.disjoint_hit:
            worst = max(worst, v.realized)
    assert worst <= m0


def test_bgit_stable_under_window_doubling(rng, cn):
    def sweep(span):
        out = 0.0
        for _ in range(300):
            a = Slope(int(rng.integers(-span, span + 1)), int(rng.integers(0, span // 2)) or 1)
            b = Slope(int(rng.integers(-span, span + 1)), int(rng.integers(0, span // 2)) or 1)
            core = Slope(int(rng.integers(-6, 7)), int(rng.integers(0, 4)) or 1)
            if a == b:
                continue
            v = bgit_audit(farey_geodesic(a, b), core, math.inf)
            if not v.disjoint_hit:
                out = max(out, v.realized)
        return out

    assert sweep(60) <= cn["m0_bgit"] and sweep(30) <= cn["m0_bgit"]


# --- far projections -------------------------------------------------------------

def test_far_projection_vacuous_when_core_is_pants(marking1, cn):
    x = base_point(marking1)
    v = far_projection_check(x, Subsurface("component", 0),
                             Subsurface("annulus", 0, ZERO),
                             cn["m1_consistency"], c_far=4.0)
    assert v.vacuous and v.ok


def test_far_projection_sweep(marking2, rng, cn):
    hits = 0
    for _ in range(200):
        x = random_point(marking2, rng, steps=14)
        core = Slope(int(rng.integers(-6, 7)), int(rng.integers(0, 4)) or 1)
        v = far_projection_check(x, Subsurface("component", 0),
                                 Subsurface("annulus", 0, core),
                                 cn["m1_consistency"], c_far=4.0)
        assert v.ok
        hits += not v.vacuous
    assert hits > 0  # the antecedent fires somewhere in the suite

