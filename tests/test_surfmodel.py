"""The Farey layer and the model spaces: exactness is checked against
ball BFS oracles and closed forms."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsegeo import surfmodel
from coarsegeo.surfmodel import (
    FLAVORS, INFINITY, ZERO, AnnularPoint, ComponentState, InessentialSubsurfaceError,
    ModelPoint, ModelSurface, Slope, Subsurface, annular_distance, apply_matrix,
    base_point, candidate_subsurfaces, common_neighbors,
    component_distance, distance_formula, farey_adjacent, farey_ball,
    farey_distance, farey_geodesic, flip_move, horoball_distance,
    horoball_point_to_segment, length_move, mat_inv,
    model_distance, product_factor_sum, product_project,
    product_region_distance, project, subsurface_distance, sum_distance_audit,
    surface_stats, threshold_audit, topology_stats, transport_matrix,
    twist_move, twist_number,
)

from oracles import canonical_transversal, mat_mul, twist_matrix

slopes = st.builds(
    Slope,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=0, max_value=15),
).filter(lambda s: True)


def slope_strategy():
    return st.tuples(st.integers(-40, 40), st.integers(0, 15)).filter(
        lambda pq: pq != (0, 0)).map(lambda pq: Slope(*pq))


# --- slopes and adjacency ---------------------------------------------------

def test_slope_from_json_rejects_fractional_entries():
    assert Slope.from_json([2.0, 4]) == Slope(1, 2) == Slope.from_json([1, 2])
    for doc in ([1.5, 2], [1, 0.5], [math.inf, 1], [1, math.nan]):
        with pytest.raises(ValueError, match="slope entries are integers"):
            Slope.from_json(doc)


def test_slope_canonical_form():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-1, -2) == Slope(1, 2)
    assert Slope(3, 0) == INFINITY
    assert Slope(-5, 0) == INFINITY
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_adjacency_examples():
    assert farey_distance(ZERO, INFINITY) == 1
    assert farey_distance(Slope(1, 2), Slope(1, 3)) == 1
    assert farey_distance(ZERO, Slope(2, 5)) == 2


def test_geodesic_identity_and_reversal():
    assert farey_geodesic(ZERO, ZERO) == (ZERO,)
    g = farey_geodesic(ZERO, Slope(2, 5))
    assert list(farey_geodesic(Slope(2, 5), ZERO)) == list(reversed(g))


def _ball_graph(depth=7):
    verts = farey_ball(-3, 4, depth)
    adj = {v: set() for v in verts}
    for a, b in itertools.combinations(verts, 2):
        if farey_adjacent(a, b):
            adj[a].add(b)
            adj[b].add(a)
    return verts, adj


def _bfs(adj, a, b):
    dist = {a: 0}
    q = deque([a])
    while q:
        u = q.popleft()
        if u == b:
            return dist[u]
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return None


def test_distance_matches_ball_bfs_oracle(rng):
    verts, adj = _ball_graph()
    inner = [s for s in verts if 0 < s.q <= 13 and abs(s.p / s.q) <= 3]
    for _ in range(400):
        a, b = rng.choice(len(inner), size=2, replace=False)
        a, b = inner[int(a)], inner[int(b)]
        got = farey_distance(a, b)
        ref = _bfs(adj, a, b)
        assert ref == got


@given(slope_strategy(), slope_strategy(), slope_strategy())
@settings(max_examples=300, deadline=None)
def test_metric_axioms(a, b, c):
    assert farey_distance(a, a) == 0
    assert farey_distance(a, b) == farey_distance(b, a)
    assert (farey_distance(a, b) == 0) == (a == b)
    assert farey_distance(a, c) <= farey_distance(a, b) + farey_distance(b, c)


@given(slope_strategy(), slope_strategy(),
       st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_unimodular_equivariance(a, b, m, n):
    mat = mat_mul((1, m, 0, 1), (1, 0, n, 1))
    assert farey_distance(apply_matrix(mat, a), apply_matrix(mat, b)) == \
        farey_distance(a, b)


def test_geodesic_is_valid_path(rng):
    for _ in range(200):
        a = Slope(int(rng.integers(-300, 300)), int(rng.integers(1, 100)))
        b = Slope(int(rng.integers(-300, 300)), int(rng.integers(1, 100)))
        g = farey_geodesic(a, b)
        assert g[0] == a and g[-1] == b
        assert len(g) - 1 == farey_distance(a, b)
        assert all(farey_adjacent(u, v) for u, v in zip(g, g[1:]))


def test_geodesic_invariants_survive_optimize_flag():
    """Under `python -O` a broken path search still raises: the end
    check and the edge check are not asserts.  Nor is the unimodular
    check of `apply_matrix`, whose images skip the gcd."""
    script = textwrap.dedent("""
        import sys
        from coarsegeo import surfmodel
        from coarsegeo.surfmodel import INFINITY, Slope
        if __debug__:
            sys.exit("not running under -O")
        broken = {
            "ends": lambda p, q: [INFINITY],
            "edges": lambda p, q: [INFINITY, Slope(p, q)],
        }
        for name, fake in broken.items():
            surfmodel._geo_from_inf = fake
            surfmodel.clear_caches()
            try:
                surfmodel.farey_geodesic(Slope(0, 1), Slope(2, 5))
            except RuntimeError as err:
                print(name, "raised:", err)
            else:
                sys.exit(f"broken {name} went through")
        try:
            surfmodel.apply_matrix((2, 1, 1, 2), INFINITY)
        except ValueError as err:
            print("unimodular raised:", err)
        else:
            sys.exit("the unimodular check went through")
    """)
    src = str(Path(surfmodel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("raised:") == 3


def test_pickled_points_rehash_in_the_loading_process():
    """A point pickled under one string-hash seed and loaded under another
    must hash like a point built in the loading process: it is a key of
    sets and of the model-distance cache."""
    dump = textwrap.dedent("""
        import pickle, sys
        from coarsegeo.surfmodel import ModelSurface, base_point, twist_move
        surf = ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0)
        sys.stdout.buffer.write(pickle.dumps((surf, twist_move(base_point(surf), 1, 5))))
    """)
    load = textwrap.dedent("""
        import pickle, sys
        from coarsegeo.surfmodel import ModelSurface, base_point, model_distance, twist_move
        surf0, x0 = pickle.loads(sys.stdin.buffer.read())
        surf = ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0)
        x = twist_move(base_point(surf), 1, 5)
        y = twist_move(base_point(surf), 0, 40)
        assert surf0 == surf and surf0 in {surf} and hash(surf0) == hash(surf)
        assert x0 == x and x0 in {x} and hash(x0) == hash(x)
        model_distance(x, y)
        model_distance(x0, y)
        info = model_distance.cache_info()
        assert (info.hits, info.misses) == (1, 1), info
        print("ok")
    """)
    src = str(Path(surfmodel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    dumped = subprocess.run([sys.executable, "-c", dump], capture_output=True,
                            env={**env, "PYTHONHASHSEED": "1"})
    assert dumped.returncode == 0, dumped.stderr
    loaded = subprocess.run([sys.executable, "-c", load], input=dumped.stdout,
                            capture_output=True, env={**env, "PYTHONHASHSEED": "2"})
    assert loaded.returncode == 0, loaded.stderr.decode()
    assert loaded.stdout.decode().strip() == "ok"


def test_common_neighbors_are_neighbors():
    for a, b in [(ZERO, INFINITY), (Slope(1, 2), Slope(1, 3)), (ZERO, Slope(2, 5))]:
        for w in common_neighbors(a, b):
            assert farey_adjacent(w, a) and farey_adjacent(w, b)


# --- twisting ----------------------------------------------------------------

def test_twist_examples():
    assert twist_number(INFINITY, Slope(7, 2)) == 3
    for n in (-4, 0, 1, 9):
        assert twist_number(INFINITY, Slope(n, 1)) == n
    assert twist_number(ZERO, INFINITY) == 0
    with pytest.raises(ValueError):
        twist_number(ZERO, ZERO)


def test_twist_equivariance(rng):
    for _ in range(200):
        core = Slope(int(rng.integers(-20, 20)), int(rng.integers(0, 9)) or 1)
        x = Slope(int(rng.integers(-20, 20)), int(rng.integers(1, 9)))
        if x == core:
            continue
        n = int(rng.integers(-40, 40))
        moved = apply_matrix(twist_matrix(core, n), x)
        assert twist_number(core, moved) == twist_number(core, x) + n


def test_twist_coarsely_independent_of_transport(rng):
    """Alternate admissible transports (shifted Euclid branch, sign
    flip) move the twisting number by at most 2."""
    for _ in range(1000):
        core = Slope(int(rng.integers(-15, 15)), int(rng.integers(0, 8)) or 1)
        x = Slope(int(rng.integers(-60, 60)), int(rng.integers(1, 17)))
        if x == core:
            continue
        m = transport_matrix(core)
        base = twist_number(core, x)
        for shift in (-1, 1):
            alt = mat_mul((1, shift, 0, 1), m)
            img = apply_matrix(alt, x)
            assert abs(img.p // img.q - base) <= 2
        flipped = mat_mul((-1, 0, 0, -1), m)
        img = apply_matrix(flipped, x)
        assert abs(img.p // img.q - base) <= 2


# --- projections and annular metrics -----------------------------------------

def test_projection_examples(marking1, augmented1):
    x = base_point(marking1)
    assert project(x, Subsurface("component", 0)) == ZERO
    xa = base_point(augmented1)
    coord = project(xa, Subsurface("annulus", 0, ZERO))
    assert coord == AnnularPoint(0, 1.0)  # twist of the transversal, 1/l
    far = project(xa, Subsurface("annulus", 0, Slope(1, 2)))
    assert far.height == 1.0  # boundary height 1/B for non-pants cores


def test_projection_shifts_under_twisting(marking1):
    x = base_point(marking1)
    w = Subsurface("annulus", 0, ZERO)
    base = project(x, w).twist
    for n in (1, 7, -13):
        assert project(twist_move(x, 0, n), w).twist == base + n


def test_pants_flavor_rejects_annuli():
    pants = ModelSurface(((1, 1),), flavor="pants")
    x = base_point(pants)
    with pytest.raises(InessentialSubsurfaceError):
        project(x, Subsurface("annulus", 0, ZERO))


def test_annular_distance_closed_form():
    d = annular_distance(AnnularPoint(0, 1.0), AnnularPoint(2, 1.0), FLAVORS["augmented"])
    assert d == pytest.approx(math.acosh(3.0))
    assert annular_distance(AnnularPoint(3), AnnularPoint(-4), FLAVORS["marking"]) == 7


def test_boundary_twist_distance_is_log():
    b = 1.0
    for n in (10, 100, 5000):
        d = annular_distance(AnnularPoint(0, 1 / b), AnnularPoint(n, 1 / b),
                             FLAVORS["augmented"])
        assert abs(d - 2 * math.log(n * b)) <= 2.0


def test_horoball_segment_distance_degenerate():
    a, b = (0.0, 1.0), (4.0, 1.0)
    assert horoball_point_to_segment(a, a, b)[0] == pytest.approx(0.0, abs=1e-6)
    mid = (2.0, 2.0)
    assert horoball_point_to_segment(mid, a, b)[0] <= horoball_distance(mid, a)


# --- distance formula ---------------------------------------------------------

def test_distance_formula_examples(marking2):
    x = base_point(marking2)
    assert distance_formula(x, x) == (0.0, [])
    y = twist_move(x, 0, 50)
    total, contrib = distance_formula(x, y)
    assert total == 50.0
    assert [repr(w) for w, _ in contrib] == ["A0(0/1)"]
    # swapping the pair in one component moves nothing above threshold
    z = ModelPoint(marking2, (ComponentState(INFINITY, ZERO), x.states[1]))
    total2, contrib2 = distance_formula(x, z)
    assert total2 == 0.0 and contrib2 == []


def test_distance_formula_symmetry_and_coarse_triangle(marking2, rng, cn):
    from coarsegeo.harness import random_point
    slack = 4.0
    for _ in range(60):
        x = random_point(marking2, rng, steps=14)
        y = random_point(marking2, rng, steps=14)
        z = random_point(marking2, rng, steps=14)
        assert model_distance(x, y) == model_distance(y, x)
        assert model_distance(x, z) <= slack * (
            model_distance(x, y) + model_distance(y, z)) + slack


def test_candidate_enumeration_complete_against_wide_scan(marking1, rng):
    """No annulus outside the candidate list carries a contribution:
    brute force over a wide core window on small instances."""
    from coarsegeo.harness import random_point
    for _ in range(25):
        x = random_point(marking1, rng, steps=8, big_twist=20)
        y = random_point(marking1, rng, steps=8, big_twist=20)
        cands = {w.core for w in candidate_subsurfaces(x, y) if w.kind == "annulus"}
        wide = {Slope(p, q) for p in range(-12, 13) for q in range(0, 7)
                if (p, q) != (0, 0)}
        t = x.surface.threshold
        for s in sorted(wide - cands, key=Slope.key):
            w = Subsurface("annulus", 0, s)
            assert subsurface_distance(x, y, w) < t


def test_threshold_audit_cases(marking2):
    x = base_point(marking2)
    assert threshold_audit(x, x, 10, 40) == 1.0
    y = twist_move(x, 0, 55)
    assert threshold_audit(x, y, 10, 40) == 1.0  # one big term at both cutoffs
    z = twist_move(x, 0, 20)
    assert math.isinf(threshold_audit(x, z, 10, 40))  # mid-band only
    with pytest.raises(ValueError):
        threshold_audit(x, y, 40, 10)


# --- product regions ----------------------------------------------------------

def test_product_project_fixes_points_already_inside(marking2):
    x = base_point(marking2)
    assert product_project(x, {0: x.alpha(0)}) == x


def test_product_region_factor_sum_band(marking2, rng):
    from coarsegeo.harness import random_point
    pin = {0: Slope(1, 2)}
    for _ in range(30):
        x = random_point(marking2, rng, steps=14, big_twist=40)
        y = random_point(marking2, rng, steps=14, big_twist=40)
        direct = product_region_distance(x, y, pin)
        split = product_factor_sum(x, y, pin)
        assert direct <= 2 * split + 40
        assert split <= 2 * direct + 40


def test_sum_distance_chain_bound(marking1, rng):
    from coarsegeo.harness import random_point
    kappa = 3.0
    for _ in range(20):
        x = random_point(marking1, rng, steps=12, big_twist=30)
        y = random_point(marking1, rng, steps=12, big_twist=30)
        lhs, rhs = sum_distance_audit(x, y)
        assert lhs <= kappa * rhs + 40


# --- topology statistics -------------------------------------------------------

@pytest.mark.parametrize("g,p,c,flavor,xi,rank", [
    (1, 1, 1, "marking", 0, 1),
    (1, 1, 1, "pants", 0, 1),
    (1, 1, 1, "augmented", 0, 1),
    (2, 0, 1, "marking", 2, 3),
    (2, 0, 1, "pants", 2, 2),
    (2, 2, 2, "marking", 0, 2),
])
def test_topology_stats(g, p, c, flavor, xi, rank):
    assert topology_stats(g, p, c, FLAVORS[flavor]) == (xi, rank)


def test_topology_stats_rejects_inessential():
    with pytest.raises(ValueError):
        topology_stats(0, 3, 1, FLAVORS["marking"])


def test_surface_stats(marking2):
    assert surface_stats(marking2) == (0, 2)


# --- serialization --------------------------------------------------------------

def test_surface_and_point_json_round_trip(marking2, augmented1):
    doc = marking2.to_json()
    assert ModelSurface.from_json(doc) == marking2
    x = twist_move(base_point(marking2), 1, 5)
    assert ModelPoint.from_json(marking2, x.to_json()) == x
    xa = length_move(base_point(augmented1), 0, 0.5)
    assert ModelPoint.from_json(augmented1, xa.to_json()) == xa


@pytest.mark.parametrize("field", ["bers", "threshold"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_surface_numbers_must_be_finite(field, value):
    with pytest.raises(ValueError, match="^bers bound and threshold must be finite and positive$"):
        ModelSurface(((1, 1),), **{field: value})


def test_point_invariants():
    surf = ModelSurface(((1, 1),), flavor="marking")
    with pytest.raises(ValueError):
        ModelPoint(surf, (ComponentState(ZERO, Slope(2, 5)),))  # not adjacent
    aug = ModelSurface(((1, 1),), flavor="augmented", bers=1.0)
    with pytest.raises(ValueError):
        ModelPoint(aug, (ComponentState(ZERO, INFINITY, 2.0),))  # above Bers


def test_projection_is_quasi_lipschitz(marking2, rng):
    """Every subsurface sees at most the model distance plus the
    threshold: a projection either contributes to the sum or sits below
    the cutoff."""
    from coarsegeo.harness import random_point
    t = marking2.threshold
    for _ in range(60):
        x = random_point(marking2, rng, steps=14, big_twist=40)
        y = random_point(marking2, rng, steps=14, big_twist=40)
        dx = model_distance(x, y)
        for w in candidate_subsurfaces(x, y):
            assert subsurface_distance(x, y, w) <= dx + t


# --- equality in one frame -------------------------------------------------------

def _state_fields(st: ComponentState):
    return ((st.alpha.p, st.alpha.q), None if st.tau is None else (st.tau.p, st.tau.q),
            st.length)


def _point_fields(x: ModelPoint):
    s = x.surface
    return (s.components, s.flavor, s.bers, s.threshold,
            tuple(_state_fields(st) for st in x.states))


def _few_valued_point(surface: ModelSurface, rng) -> ModelPoint:
    """A point drawn from few values per field, so that equal pairs are common."""
    states = []
    for _ in surface.components:
        alpha = (ZERO, INFINITY, Slope(1, 1))[int(rng.integers(0, 3))]
        if surface.flavor == "pants":
            states.append(ComponentState(alpha))
            continue
        tau = apply_matrix(twist_matrix(alpha, int(rng.integers(-1, 1))),
                           canonical_transversal(alpha))
        length = None
        if surface.flavor == "augmented":
            length = (surface.bers, surface.bers / 2)[int(rng.integers(0, 2))]
        states.append(ComponentState(alpha, tau, length))
    return ModelPoint(surface, tuple(states))


@pytest.mark.parametrize("flavor", ["pants", "marking", "augmented"])
def test_equality_agrees_with_fieldwise_comparison(flavor):
    """Seeded pairs over equal but distinct surfaces, a surface with another
    threshold, pants states without a transversal and augmented states
    that differ in length only."""
    rng = np.random.default_rng(len(flavor))
    surfaces = [ModelSurface(((1, 1), (1, 1)), flavor=flavor, bers=2.0) for _ in range(2)]
    surfaces.append(ModelSurface(((1, 1), (1, 1)), flavor=flavor, bers=2.0, threshold=12.0))
    pts = [_few_valued_point(surfaces[int(rng.integers(0, 3))], rng) for _ in range(150)]
    seen = {"equal, built apart": 0, "equal, surfaces apart": 0, "states differ in length": 0}
    for x in pts:
        for y in pts:
            same = _point_fields(x) == _point_fields(y)
            assert (x == y) is same and (x != y) is (not same)
            assert not same or hash(x) == hash(y)
            for a, b in zip(x.states, y.states):
                assert (a == b) is (_state_fields(a) == _state_fields(b))
                seen["states differ in length"] += (a.length != b.length
                                                    and _state_fields(a)[:2] == _state_fields(b)[:2])
            seen["equal, built apart"] += same and x is not y
            seen["equal, surfaces apart"] += same and x.surface is not y.surface
    assert seen["equal, built apart"] > 0 and seen["equal, surfaces apart"] > 0
    assert (seen["states differ in length"] > 0) == (flavor == "augmented")


def test_equality_checks_states_past_an_equal_hash(marking2):
    x = base_point(marking2)
    y = twist_move(x, 0, 1)
    object.__setattr__(y, "_hash", x._hash)
    assert x != y and y != x


def test_equality_with_other_types_is_false_and_does_not_raise(augmented1):
    x = base_point(augmented1)
    st = x.states[0]
    for other in (None, 0, "x", x.states, (st.alpha, st.tau, st.length), ZERO):
        assert (x == other) is False and (x != other) is True
        assert (st == other) is False and (st != other) is True
    assert (x == st) is False and (st == x) is False
    assert x.__eq__(st) is NotImplemented and st.__eq__(x) is NotImplemented
    assert ComponentState(ZERO) == ComponentState(ZERO) != ComponentState(ZERO, INFINITY)
