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

import oracles
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


_PANTS1, _MARKING1, _AUGMENTED1 = (ModelSurface(((1, 1),), flavor=f, bers=1.5)
                                   for f in ("pants", "marking", "augmented"))
# (surface, refused state, the constructor's message)
BAD_STATES = {
    "non-adjacent-transversal": (_MARKING1, ComponentState(ZERO, Slope(2, 5)),
                                 "transversal must intersect the pants slope minimally"),
    "length-above-bers": (_AUGMENTED1, ComponentState(ZERO, INFINITY, 2.0),
                          "augmented length must lie in (0, B]"),
    "length-zero": (_AUGMENTED1, ComponentState(ZERO, INFINITY, 0.0),
                    "augmented length must lie in (0, B]"),
    "length-missing": (_AUGMENTED1, ComponentState(ZERO, INFINITY),
                       "augmented length must lie in (0, B]"),
    "length-on-marking": (_MARKING1, ComponentState(ZERO, INFINITY, 1.0),
                          "marking points carry no length"),
    "transversal-on-pants": (_PANTS1, ComponentState(ZERO, INFINITY),
                             "pants points carry no transversal or length"),
    "length-on-pants": (_PANTS1, ComponentState(ZERO, None, 1.0),
                        "pants points carry no transversal or length"),
    "transversal-missing": (_MARKING1, ComponentState(ZERO), "marking points need transversals"),
    "transversal-missing-augmented": (_AUGMENTED1, ComponentState(ZERO, None, 1.0),
                                      "augmented points need transversals"),
    "length-bool": (_AUGMENTED1, ComponentState(ZERO, INFINITY, True),
                    "augmented length must be a real number, got True"),
    "length-string": (_AUGMENTED1, ComponentState(ZERO, INFINITY, "1"),
                      "augmented length must be a real number, got '1'"),
}


@pytest.mark.parametrize("name", BAD_STATES)
def test_with_state_refuses_what_the_constructor_refuses(name):
    """`with_state` runs the constructor's per-state check on the key it
    is given, so both refuse the same states with the same message."""
    surface, st, message = BAD_STATES[name]
    with pytest.raises(ValueError) as built:
        ModelPoint(surface, (st,))
    with pytest.raises(ValueError) as rebuilt:
        base_point(surface).with_state(0, surfmodel._state_key(st))
    assert str(built.value) == str(rebuilt.value) == message


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


# --- terms cached up to SL2(Z) ----------------------------------------------
#
# `_terms` keys a component pair by its position up to SL2(Z) on the
# marking flavor above t = 3 (`surfmodel._terms_key`), and by the pair
# itself otherwise.  `oracles.component_loop_distance_formula` runs the
# same kernel on the pair's own state keys, so it is the raw, unmoved
# answer.

INVARIANT_SURFACES = [
    ModelSurface(((1, 1), (1, 1)), flavor="marking"),
    ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0),
    ModelSurface(((1, 1), (0, 4), (1, 1)), flavor="pants"),
]


def _bits(result):
    total, terms = result
    return total.hex(), [(w, d.hex()) for w, d in terms]


def _sl2z_word(rng) -> tuple[int, int, int, int]:
    """A seeded product of S = [[0, -1], [1, 0]] and powers of
    T = [[1, 1], [0, 1]]: an element of SL2(Z)."""
    g = (1, 0, 0, 1)
    for _ in range(int(rng.integers(2, 10))):
        n = int(rng.integers(-4, 5))
        g = mat_mul(g, (0, -1, 1, 0) if n == 0 else (1, n, 0, 1))
    return g


def _moved_point(x: ModelPoint, gs) -> ModelPoint:
    """x with component i's pants slope and transversal moved by gs[i]."""
    return ModelPoint(x.surface, tuple(
        ComponentState(apply_matrix(g, st.alpha), st.tau and apply_matrix(g, st.tau), st.length)
        for g, st in zip(gs, x.states)))


def _moved_subsurface(w: Subsurface, gs) -> Subsurface:
    return w if w.core is None else Subsurface("annulus", w.comp, apply_matrix(gs[w.comp], w.core))


def test_model_distance_is_sl2z_invariant_per_component():
    """model_distance(g x, g y) == model_distance(x, y) bit for bit, for a
    seeded g in SL2(Z) per component, on all three flavors at their own
    thresholds.  The raw kernel on the moved pair agrees, so this is the
    model's own invariance and not only the cache's; the contributing
    subsurfaces are the pair's own with their cores moved; and on
    marking, whose keys above t = 3 are moved, the moved pair's
    `formula_total` reads `_terms` and adds no entry."""
    from coarsegeo.harness import random_point

    rng = np.random.default_rng(601)
    moved_hits = 0
    for surface in INVARIANT_SURFACES:
        fl = surface.fl
        for _ in range(150):
            x, y = (random_point(surface, rng, steps=int(rng.integers(4, 14))) for _ in range(2))
            gs = [_sl2z_word(rng) for _ in surface.components]
            gx, gy = _moved_point(x, gs), _moved_point(y, gs)
            want = oracles.component_loop_distance_formula(x, y)
            d = model_distance(x, y)
            assert d.hex() == want[0].hex(), (x, y)
            entries = len(surfmodel._terms)
            assert model_distance(gx, gy).hex() == d.hex(), (x, y, gs)
            assert oracles.component_loop_distance_formula(gx, gy)[0].hex() == d.hex()
            moved = sorted(((_moved_subsurface(w, gs), dd) for w, dd in want[1]),
                           key=lambda wd: wd[0].key())
            assert _bits(distance_formula(gx, gy)) == _bits((want[0], moved))
            if fl.annuli and not fl.heights:
                assert len(surfmodel._terms) == entries
                moved_hits += (gx, gy) != (x, y)
    assert moved_hits >= 145


def test_terms_keys_move_on_marking_above_3_only():
    """The raw key at t = 3, the moved one just above it, on marking; on
    augmented and pants the raw key at every threshold.  The moved
    states are the pair's own under the M in SL2(Z) that `_terms_key`
    describes."""
    kx, ky = (2, 5, 1, 2, None), (7, 3, 2, 1, None)
    at, above = 3.0, math.nextafter(3.0, math.inf)
    fl = FLAVORS["marking"]
    assert surfmodel._terms_key(fl, at, kx, ky) == ("marking", 1.0, at, kx, ky)
    key = surfmodel._terms_key(fl, above, kx, ky)
    assert key[:4] == ("marking", 1.0, above, (0, 1, 1, 0, None))
    # M^-1 has columns tau_x (kept, as det(alpha_x, tau_x) = -1) and alpha_x
    back = (kx[2], kx[0], kx[3], kx[1])
    assert back[0] * back[3] - back[1] * back[2] == 1
    for k, moved in ((kx, key[3]), (ky, key[4])):
        for i in (0, 2):
            assert apply_matrix(back, Slope(moved[i], moved[i + 1])) == Slope(k[i], k[i + 1])
    for fl, kx, ky in ((FLAVORS["augmented"], (2, 5, 1, 2, 0.5), (7, 3, 2, 1, 1.0)),
                       (FLAVORS["pants"], (2, 5), (7, 3))):
        for t in (at, above, 10.0, math.inf):
            assert surfmodel._terms_key(fl, t, kx, ky) == (fl.name, 1.0, t, kx, ky)


def _ladder(a: Slope, b: Slope) -> set[Slope]:
    """Every vertex of every Farey geodesic from a to b.  With a moved to
    infinity and b to p/q, these are infinity and the vertices of the
    Farey triangles the vertical line down to p/q crosses: floor(p/q),
    floor(p/q) + 1 and the mediants of the Stern-Brocot descent.  Each
    crossed edge separates the ends, and a geodesic never crosses one
    twice (the edge itself is shorter), so no geodesic leaves them."""
    m = transport_matrix(a)
    back = mat_inv(m)
    img = apply_matrix(m, b)
    p, q = img.p, img.q
    verts = {(1, 0), (p, q)}
    if q > 1:
        lo, hi = (p // q, 1), (p // q + 1, 1)
        verts |= {lo, hi}
        while True:
            med = (lo[0] + hi[0], lo[1] + hi[1])
            verts.add(med)
            if med == (p, q):
                break
            if p * med[1] < med[0] * q:
                hi = med
            else:
                lo = med
    return {apply_matrix(back, Slope(*v)) for v in verts}


def test_no_tie_only_core_has_a_twist_gap_above_3():
    """Over every pair of a Farey ball: a vertex on one geodesic of the
    pair and not on another shares its distance level from a with another
    geodesic vertex (each geodesic meets each level once).  Every such
    tie-only vertex sees the two ends at a twist gap of at most 3, and
    the gap 3 occurs; vertices on every geodesic reach larger gaps.  Each
    pair's own geodesic lies in the geodesic interval the ladder gives."""
    ball = farey_ball(-2, 2, 4)
    worst_tie = worst_cut = ties = 0
    for a, b in itertools.combinations(ball, 2):
        n = farey_distance(a, b)
        levels: dict[int, list[Slope]] = {}
        for v in _ladder(a, b):
            if farey_distance(a, v) + farey_distance(v, b) == n:
                levels.setdefault(farey_distance(a, v), []).append(v)
        assert sorted(levels) == list(range(n + 1))
        assert all(v in levels[k] for k, v in enumerate(farey_geodesic(a, b)))
        for k in range(1, n):
            for c in levels[k]:
                gap = abs(twist_number(c, a) - twist_number(c, b))
                if len(levels[k]) > 1:
                    worst_tie, ties = max(worst_tie, gap), ties + 1
                else:
                    worst_cut = max(worst_cut, gap)
    assert worst_tie == 3 and ties > 1000, (worst_tie, ties)
    assert worst_cut > 3


def test_terms_up_to_sl2z_match_the_raw_kernel_around_the_tie_bound():
    """Cached totals, and totals and contribution lists, equal the raw
    kernel's bit for bit at t in {3, 4, 10, 40}, which straddle the
    bound t = 3 above which marking keys are moved, on pairs with two or
    more kept annulus terms in one component.  At t = 3 itself a moved
    pair's geodesic ties can keep other terms, which is why marking
    keys move only above it."""
    from coarsegeo.harness import random_point

    rng = np.random.default_rng(602)
    surfaces = [ModelSurface(((1, 1), (1, 1)), flavor="marking"),
                ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0),
                ModelSurface(((1, 1),), flavor="augmented")]
    seen = dict.fromkeys(("multi marking", "multi augmented", "moved differs at 3"), 0)
    for surface in surfaces:
        fl = surface.fl
        pool = [random_point(surface, rng, steps=int(rng.integers(4, 16)), big_twist=60)
                for _ in range(40)]
        pairs = [(pool[int(i)], pool[int(j)]) for i, j in rng.integers(40, size=(400, 2))]
        for t in (3.0, 4.0, 10.0, 40.0):
            for x, y in pairs:
                got = distance_formula(x, y, threshold=t)
                assert _bits(got) == _bits(oracles.component_loop_distance_formula(
                    x, y, threshold=t)), (x, y, t)
                assert surfmodel.formula_total(x, y, threshold=t).hex() == got[0].hex()
                for i in range(surface.n_components):
                    kept = sum(w.comp == i and w.core is not None for w, _ in got[1])
                    seen[f"multi {fl.name}"] += kept >= 2 and t > 3.0
        if not fl.heights:
            for x, y in pairs:
                for kx, ky in zip(x.state_keys, y.state_keys):
                    key = surfmodel._terms_key(fl, math.inf, kx, ky)
                    moved = surfmodel._component_terms(fl, key[3], key[4], 3.0)
                    seen["moved differs at 3"] += (
                        sorted(d for _, d in moved) !=
                        sorted(d for _, d in surfmodel._component_terms(fl, kx, ky, 3.0)))
    assert min(seen.values()) > 0 and seen["multi augmented"] >= 200, seen


def test_augmented_terms_keep_the_pair_s_own_key():
    """A seeded augmented pair whose pair moved up to SL2(Z) keeps the
    same distances in another candidate order, which adds up to another
    last bit: so augmented keys are not moved.  With the moved pair's
    terms cached first, the pair still gets its own total."""
    surface = ModelSurface(((1, 1),), flavor="augmented", bers=2.0, threshold=4.0)
    x = ModelPoint(surface, (ComponentState(Slope(-604, 603), Slope(-3623, 3617), 2.0),))
    y = ModelPoint(surface, (ComponentState(INFINITY, Slope(431, 1), 2.0),))
    (kx,), (ky,) = x.state_keys, y.state_keys
    # the move of the marking key, with each state's length carried along
    key = surfmodel._terms_key(FLAVORS["marking"], 4.0, kx[:4] + (None,), ky[:4] + (None,))
    mx, my = (ModelPoint(surface, (surfmodel._state_view(m[:4] + (k[4],)),))
              for m, k in ((key[3], kx), (key[4], ky)))
    own = oracles.component_loop_distance_formula(x, y)
    moved = oracles.component_loop_distance_formula(mx, my)
    assert sorted(d for _, d in own[1]) == sorted(d for _, d in moved[1])
    assert len(own[1]) >= 3 and own[0].hex() != moved[0].hex()
    surfmodel.clear_caches()
    assert surfmodel.formula_total(mx, my).hex() == moved[0].hex()
    assert surfmodel.formula_total(x, y).hex() == own[0].hex()
    assert model_distance(x, y).hex() == distance_formula(x, y)[0].hex() == own[0].hex()


def _cold_flat_pipeline_op(cn, noise_seed: int) -> None:
    """The benchmark's flat-pipeline op: the twist-flat pipeline on the
    2-component marking surface, then the n = rank + 1 refutation."""
    from coarsegeo import harness

    surface = ModelSurface(((1, 1), (1, 1)), flavor="marking")
    cfg = harness.ExperimentConfig(surface, eps0=0.05, theta0=0.1, r0=50.0,
                                   seed=noise_seed, noise=3)
    stride = max(2, round(1.0 / cfg.eps0 ** 2))
    flat = harness.twist_flat(surface, int(2 * max(cfg.r0, 40) * stride))
    fmap = harness.noisy_flat_map(flat, cfg.noise, cfg.seed)
    assert harness.run_pipeline(cfg, fmap, dim=2, constants=cn, flat_hint=flat).passed
    rank_cfg = harness.ExperimentConfig(surface, eps0=0.05, seed=noise_seed, box_side=60)
    assert harness.rank_experiment(rank_cfg, surface_stats(surface)[1] + 1, constants=cn).passed


def test_terms_up_to_sl2z_match_the_raw_kernel_on_a_cold_flat_pipeline_op(cn, monkeypatch):
    """Every cached distance-formula question of one cold flat-pipeline
    op, asked again of the filled caches and of the raw kernel: totals
    agree bit for bit, and so do `distance_formula`'s totals and
    contribution lists.  Tens of thousands of pairs share a few hundred
    `_terms` entries."""
    asked = {}
    real = surfmodel.formula_total

    def recording(x, y, threshold=None, comps=None):
        comps = None if comps is None else tuple(comps)
        asked.setdefault((x._key, y._key, threshold, comps), (x, y))
        return real(x, y, threshold, comps)

    monkeypatch.setattr(surfmodel, "formula_total", recording)
    surfmodel.clear_caches()
    _cold_flat_pipeline_op(cn, 1114088975)
    monkeypatch.setattr(surfmodel, "formula_total", real)
    assert len(asked) > 30_000 and len(surfmodel._terms) < 1_000, \
        (len(asked), len(surfmodel._terms))
    for (_, _, threshold, comps), (x, y) in asked.items():
        want = oracles.component_loop_distance_formula(x, y, threshold, comps)
        assert real(x, y, threshold, comps).hex() == want[0].hex(), (x, y, threshold, comps)
        assert _bits(distance_formula(x, y, threshold, comps)) == _bits(want)
        if threshold is None and comps is None:
            assert model_distance(x, y).hex() == want[0].hex()
