"""The per-component distance formula, the list-free model distance,
the closed-form twist matrix, the gcd-free slope image and the
closed-form pinned state against the code they replaced.

`surfmodel.formula_total` reads each component's kept distances from a
cache keyed by the component pair's position up to SL2(Z) on marking
above t = 3 (by its two state keys otherwise), and
`surfmodel.distance_formula` lists the terms of `_component_terms` on
the pair's own state keys; `oracles.distance_formula` walks every
candidate subsurface of the point pair, with its own candidate
enumeration and annular projection, and
`oracles.component_loop_distance_formula` adds up `_component_terms` on
the pair's own state keys while it builds the contribution list.  Totals
and contribution lists must agree bit for bit.  `formula_total` and
`model_distance` build no list and must still give the same float.
Points come from small seeded pools, so component states
repeat across pairs and the cache is read back as well as filled.  Both
caches are keyed by plain tuples that hold no point, and stay within
their bounds.
Pairs that share a pants curve, where above zero only the annulus
about it can carry a term (the moved pair's pants slopes are then both
0/1), come from noisy twist-flat lines and from twist and length moves,
at thresholds above and at or below zero.
The Farey layer is cached at plain ints; its public functions must give
what `oracles`' `Slope`-based versions give, errors included, also with
every int-keyed cache bounded at 5 entries.  The distance from infinity
is a single pass over a continued fraction; `oracles.dist_to_inf_search`
is the two-branch search it replaced.
A pair's window of annulus cores has one home, `surfmodel`: the
window, the hull certificates built from it and the candidate list must
equal the `Slope`-set versions they replaced, `oracles.working_window`
and `oracles.certificates`.
"""

import functools
import gc
import math

import numpy as np
import pytest

from coarsegeo import surfmodel
from coarsegeo.harness import noisy_flat_map, random_pair, random_point, twist_flat
from coarsegeo.pathsflats import certificates
from coarsegeo.surfmodel import (FLAVORS, INFINITY, ZERO, AnnularPoint, ComponentState,
                                 ModelPoint, ModelSurface, Slope, apply_matrix, base_point,
                                 candidate_subsurfaces, distance_formula, farey_distance,
                                 farey_geodesic, length_move, mat_inv, model_distance,
                                 pinned_state, transport_matrix, twist_move, twist_number,
                                 working_window)

import oracles
from oracles import canonical_transversal, twist_matrix

SURFACES = [
    ModelSurface(((1, 1),), flavor="marking"),
    ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0),
    ModelSurface(((1, 1), (0, 4), (1, 1)), flavor="pants"),
    ModelSurface(((1, 1),), flavor="augmented"),
    ModelSurface(((1, 1), (1, 1)), flavor="marking", threshold=12.0),
]
POOL = 60
PAIRS_PER_SURFACE = 2000


def _bits(result):
    total, terms = result
    return total.hex(), [(w, d.hex()) for w, d in terms]


def test_distance_formula_matches_direct_loop(calls_to):
    surfmodel.clear_caches()
    runs = calls_to(surfmodel, "_component_terms")
    rng = np.random.default_rng(505)
    checked = asked = misses = 0
    for surface in SURFACES:
        pool = [random_point(surface, rng, steps=int(rng.integers(4, 16)), big_twist=30)
                for _ in range(POOL)]
        t = surface.threshold
        for _ in range(PAIRS_PER_SURFACE):
            i, j = rng.integers(POOL, size=2)
            x, y = pool[int(i)], pool[int(j)]
            assert candidate_subsurfaces(x, y) == oracles.candidate_subsurfaces(x, y)
            for kw in ({}, {"threshold": t + 3}, {"comps": (0,)}):
                got = _bits(distance_formula(x, y, **kw))
                before = len(runs)
                assert surfmodel.formula_total(x, y, **kw).hex() == got[0]
                misses += len(runs) - before
                asked += len(kw.get("comps", surface.components))
                assert got == _bits(oracles.distance_formula(x, y, **kw)), (x, y, kw)
                assert got == _bits(oracles.component_loop_distance_formula(x, y, **kw))
                if not kw:  # both oracles' totals at the surface's threshold
                    want = got[0]
            assert model_distance(x, y).hex() == want
            checked += 1
    assert checked == len(SURFACES) * PAIRS_PER_SURFACE
    # the per-component cache is read back as well as filled: its body
    # ran on fewer lookups than `formula_total` made
    assert 0 < misses < asked


def _flat_line_pairs(surface: ModelSurface, noise: int, rng) -> list:
    """Consecutive images along axis lines of a noisy twist-flat map.
    Off the noise bursts both images lie in the flat's product region,
    so every component keeps its pants curve; a burst flip changes one."""
    flat = twist_flat(surface, 200)
    fmap = noisy_flat_map(flat, noise, seed=31 + noise)
    pairs = []
    for axis in range(flat.dim):
        for start in rng.integers(-200, 140, size=(6, flat.dim)):
            line = [fmap.fn(start + k * np.eye(flat.dim, dtype=int)[axis]) for k in range(61)]
            pairs.extend(zip(line, line[1:]))
    return pairs


def _move_pairs(surface: ModelSurface, rng) -> list:
    """Twist and length moves about one pants curve, small and large."""
    pairs = []
    for _ in range(120):
        x = random_point(surface, rng, steps=int(rng.integers(4, 16)), big_twist=30)
        for comp in range(surface.n_components):
            for n in (1, -2, 9, int(rng.integers(-4000, 4001))):
                pairs.append((x, twist_move(x, comp, n)))
            if surface.flavor == "augmented":
                for factor in (0.5, 1e-3, float(rng.uniform(1e-6, 1.0))):
                    pairs.append((x, length_move(x, comp, factor)))
    return pairs


def test_same_pants_curve_pairs_match_oracle():
    """Pairs that keep pants curves can keep only the annulus about the
    shared curve at t > 0; at t <= 0 every zero term is kept, so each
    candidate subsurface is a term."""
    surfmodel.clear_caches()
    rng = np.random.default_rng(509)
    pairs = []
    for surface in (ModelSurface(((1, 1), (1, 1)), flavor="marking"), SURFACES[1]):
        for noise in (0, 3):
            pairs.extend(_flat_line_pairs(surface, noise, rng))
    for surface in SURFACES:
        if surface.flavor != "pants":
            pairs.extend(_move_pairs(surface, rng))
    same = kept = 0
    for x, y in pairs:
        same_comps = [i for i in range(x.surface.n_components) if x.alpha(i) == y.alpha(i)]
        same += len(same_comps)
        cands = candidate_subsurfaces(x, y)
        assert cands == oracles.candidate_subsurfaces(x, y), (x, y)
        t = x.surface.threshold
        for thr in (t, t + 3, 0.0, -1.0):
            got = _bits(distance_formula(x, y, threshold=thr))
            assert got == _bits(oracles.distance_formula(x, y, threshold=thr)), (x, y, thr)
            if thr == t:  # the oracle's total at the surface's threshold
                want = got[0]
            if thr <= 0:
                assert sorted(w.key() for w, _ in got[1]) == sorted(w.key() for w in cands)
        kept += sum(w.comp in same_comps for w, _ in distance_formula(x, y)[1])
        assert model_distance(x, y).hex() == want
    assert same >= 5000 and kept >= 500, (same, kept)


def test_twist_matrix_matches_conjugated_shear():
    rng = np.random.default_rng(506)
    cores = [INFINITY] + [Slope(int(rng.integers(-200, 201)), int(rng.integers(1, 60)))
                          for _ in range(1999)]
    for core in cores:
        for n in rng.integers(-500, 501, size=10):
            assert twist_matrix(core, int(n)) == oracles.shear_twist_matrix(core, int(n)), \
                (core, n)


def _random_slope(rng) -> Slope:
    q = int(rng.integers(0, 80))
    return Slope(1, 0) if q == 0 else Slope(int(rng.integers(-300, 301)), q)


def test_apply_matrix_matches_gcd_path():
    """The sign-normalized image of a slope under every kind of matrix
    the package and the tests apply equals the `Slope` the gcd path
    builds."""
    rng = np.random.default_rng(508)
    kinds = [
        lambda core, n: twist_matrix(core, n),
        lambda core, n: transport_matrix(core),
        lambda core, n: mat_inv(transport_matrix(core)),
        lambda core, n: (0, 1, 1, -n),  # the Farey geodesic's flip to infinity
        lambda core, n: (n, 1, 1, 0),  # and its inverse
    ]
    checked = 0
    for i in range(25_000):
        core = _random_slope(rng)
        n = int(rng.integers(-60, 61))
        m = kinds[i % len(kinds)](core, n)
        s = (INFINITY, ZERO)[i % 2] if i % 7 == 0 else _random_slope(rng)
        got, want = apply_matrix(m, s), oracles.apply_by_gcd(m, s)
        assert (got.p, got.q) == (want.p, want.q) and got == want, (m, s)
        assert hash(got) == hash(want)
        checked += 1
    assert checked >= 20_000
    for bad in ((2, 0, 0, 1), (1, 1, 1, 1), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            apply_matrix(bad, ZERO)


def test_pinned_state_is_the_canonical_transversal_twisted_into_place():
    """`pinned_state` builds its transversal in closed form, M^-1(n/1)
    for the transport M of the core and n the coordinate's twist (0
    without one).  The code it replaced twisted the canonical
    transversal M^-1(0/1) by n minus its twisting number, which is 0."""
    rng = np.random.default_rng(509)
    marking, augmented = (ModelSurface(((1, 1),), flavor=f) for f in ("marking", "augmented"))
    for i in range(20_000):
        core = _random_slope(rng)
        surface = augmented if i % 2 else marking
        height = float(rng.uniform(0.5, 40.0)) if i % 2 else None
        coord = None if i % 7 == 0 else AnnularPoint(int(rng.integers(-10**6, 10**6)), height)
        tau0 = canonical_transversal(core)
        t0 = twist_number(core, tau0)
        want = coord.twist if coord is not None else t0
        tau = apply_matrix(twist_matrix(core, want - t0), tau0)
        got = pinned_state(surface, core, coord)
        assert got[:4] == (core.p, core.q, tau.p, tau.q)


def test_clear_caches_empties_every_cache(marking2):
    rng = np.random.default_rng(507)
    for _ in range(20):
        x, y = (random_point(marking2, rng, steps=10) for _ in range(2))
        model_distance(x, y)
    model_distance(x, y)
    caches = {name: fn for name, fn in vars(surfmodel).items() if hasattr(fn, "cache_info")}
    # the three int-keyed Farey caches, and the counters two public
    # wrappers report from them beside the model-distance cache's own
    assert set(caches) == {"_transport_at", "_distance_at", "_geodesic_at",
                           "farey_distance", "farey_geodesic", "model_distance"}
    assert all(fn.cache_info().currsize > 0 for fn in caches.values())
    assert model_distance.cache_info().hits > 0
    assert surfmodel._terms and surfmodel._distances
    surfmodel.clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in caches.items()} == \
        dict.fromkeys(caches, 0)
    assert model_distance.cache_info()[:2] == (0, 0)
    assert not surfmodel._terms


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def _slope_pairs(seed: int, height: int = 10 ** 6) -> list:
    """Seeded slope pairs up to the height: consecutive random slopes,
    each slope with a Farey neighbour and with itself, and each of four
    small slopes with each other and with 25 random slopes, both ways
    round."""
    rng = np.random.default_rng(seed)
    small = [INFINITY, ZERO, Slope(-1, 1), Slope(5, 1)]
    slopes = []
    for _ in range(200):
        q = int(rng.integers(0, height + 1))
        slopes.append(INFINITY if q == 0 else Slope(int(rng.integers(-height, height + 1)), q))
    pairs = list(zip(slopes, slopes[1:] + slopes[:1]))
    pairs += [(s, canonical_transversal(s)) for s in slopes[:100]]
    pairs += [(s, s) for s in slopes[:20]]
    pairs += [pair for a in small for b in small + slopes[:25] for pair in ((a, b), (b, a))]
    return pairs


def _int_layer_answers(pairs) -> list:
    """Every public Farey answer on each pair, asked twice so that the
    second reads the caches, as plain values and error messages."""
    out = []
    for a, b in pairs:
        for _ in range(2):
            out.append((transport_matrix(a), _outcome(twist_number, a, b),
                        farey_distance(a, b), farey_geodesic(a, b)))
    return out


def _from_quotients(quotients: list[int]) -> tuple[int, int]:
    """(p, q) with p/q = [0; a_1, ..., a_n]."""
    p, q = 0, 1
    for a in reversed(quotients):
        p, q = q, a * q + p
    return p, q


def test_closed_form_distance_to_infinity_matches_the_search():
    """Seeded slopes up to height 10^6, Fibonacci ratios (every partial
    quotient 1), single huge partial quotients, and a slope at distance 7,
    each also shifted by an integer and negated."""
    rng = np.random.default_rng(23)
    slopes = [(-788094, 952275), (1, 0), (0, 1), (-3, 1)]
    slopes += [_from_quotients([1] * n + [2]) for n in range(1, 29)]
    # the search walks a partial quotient a step at a time, so these stay near 10^4
    slopes += [_from_quotients(qs) for qs in ([10 ** 4], [1, 10 ** 4], [3, 10 ** 4, 2],
                                             [2, 2, 2, 9_973], [10 ** 4, 1, 1, 5])]
    for height in (10, 10 ** 3, 10 ** 6):
        for _ in range(150):
            p, q = int(rng.integers(-height, height + 1)), int(rng.integers(1, height + 1))
            g = math.gcd(p, q)
            slopes.append((p // g, q // g))
    slopes += [(p + 7 * q, q) for p, q in slopes] + [(-p, q) for p, q in slopes if q]
    for p, q in slopes:
        assert surfmodel._dist_to_inf(p, q) == oracles.dist_to_inf_search(p, q), (p, q)
    assert surfmodel._dist_to_inf(-788094, 952275) == 7
    assert max(q for _, q in slopes) > 10 ** 6


def test_int_keyed_farey_layer_matches_the_slope_versions():
    pairs = _slope_pairs(513)
    assert len(pairs) >= 400
    surfmodel.clear_caches()
    answers = _int_layer_answers(pairs)
    errors = 0
    for (a, b), got in zip(pairs, answers[::2]):
        want = (oracles.slope_transport_matrix(a), _outcome(oracles.slope_twist_number, a, b),
                oracles.slope_farey_distance(a, b), oracles.slope_farey_geodesic(a, b))
        assert got == want, (a, b)
        assert [(s.p, s.q) for s in got[3]] == [(s.p, s.q) for s in want[3]], (a, b)
        errors += isinstance(got[1], tuple)
    assert answers[::2] == answers[1::2]
    assert errors == sum(a == b for a, b in pairs) >= 28
    assert max(max(abs(s.p), s.q) for a, b in pairs for s in (a, b)) > 9 * 10 ** 5
    # a copy with both signs flipped, which no public constructor makes,
    # is not the core but transports to infinity with it
    for a, _ in pairs[:20]:
        flipped = surfmodel._trusted_slope(-a.p, -a.q)
        assert _outcome(twist_number, a, flipped) == \
            _outcome(oracles.slope_twist_number, a, flipped) == \
            (ValueError, "only the core transports to infinity")


INT_CACHES = ("_transport_at", "_distance_at", "_geodesic_at")


def test_bounded_int_caches_give_the_unbounded_answers(monkeypatch):
    """Each int-keyed Farey cache rebuilt with a bound of 5 gives the same
    answers, distances and term lists bit for bit, and never holds more
    than 5 entries."""
    slope_pairs = _slope_pairs(514, height=1000)
    point_pairs = _flavor_pairs(515)
    surfmodel.clear_caches()
    want = (_int_layer_answers(slope_pairs),
            [(model_distance(x, y).hex(), _bits(distance_formula(x, y, threshold=0.0)))
             for x, y in point_pairs])
    assert min(getattr(surfmodel, name).cache_info().currsize
               for name in INT_CACHES) > 10 * SMALL_BOUND
    for name in INT_CACHES:
        fn = getattr(surfmodel, name).__wrapped__
        monkeypatch.setattr(surfmodel, name, functools.lru_cache(maxsize=SMALL_BOUND)(fn))
    surfmodel.clear_caches()
    got_pairs = []
    for x, y in point_pairs:
        got_pairs.append((model_distance(x, y).hex(),
                          _bits(distance_formula(x, y, threshold=0.0))))
        assert all(getattr(surfmodel, name).cache_info().currsize <= SMALL_BOUND
                   for name in INT_CACHES)
    assert (_int_layer_answers(slope_pairs), got_pairs) == want
    for name in INT_CACHES:
        info = getattr(surfmodel, name).cache_info()
        assert info.maxsize == SMALL_BOUND and info.currsize <= SMALL_BOUND
        assert info.misses > 10 * SMALL_BOUND, name
    # the public wrappers report the caches in use
    assert farey_distance.cache_info() == surfmodel._distance_at.cache_info()
    assert farey_geodesic.cache_info() == surfmodel._geodesic_at.cache_info()


def test_equal_points_hash_equal(marking2):
    def build(twist: int) -> ModelPoint:
        return ModelPoint(marking2, (ComponentState(Slope(2, 5), Slope(1, 2)),
                                     ComponentState(Slope(0, 1), Slope(1, twist))))

    a, b = build(7), build(7)
    assert a is not b and a._key is not b._key
    assert a == b and hash(a) == hash(b)
    assert a._key == (marking2._key, (2, 5, 1, 2, None), (0, 1, 1, 7, None)) == b._key
    assert hash(a) == hash(a._key) and hash(marking2) == hash(marking2._key)
    assert build(8) != a
    # states of every flavor: equal fields, equal hash
    for args in ((Slope(4, 10),), (Slope(4, 10), Slope(1, 2)), (Slope(4, 10), Slope(1, 2), 0.5)):
        st = ComponentState(*args)
        twin = ComponentState(Slope(2, 5), *args[1:])
        assert st == twin and hash(st) == hash(twin)
    assert ModelPoint.from_json(marking2, a.to_json()) == a
    assert hash(ModelPoint.from_json(marking2, a.to_json())) == hash(a)


# a bound small enough that both caches are emptied many times over
SMALL_BOUND = 5


def _flavor_pairs(seed: int) -> list:
    """Seeded point pairs on a two-component surface of each flavor,
    drawn from small pools so that pairs and component states repeat."""
    rng = np.random.default_rng(seed)
    pairs = []
    for flavor in FLAVORS:
        surface = ModelSurface(((1, 1), (0, 4)), flavor=flavor, bers=2.0)
        pool = [random_point(surface, rng, steps=int(rng.integers(4, 12)), big_twist=30)
                for _ in range(12)]
        pairs += [(pool[int(i)], pool[int(j)]) for i, j in rng.integers(12, size=(150, 2))]
    return pairs


def _atoms_only(k) -> bool:
    return all(_atoms_only(e) if isinstance(e, tuple) else type(e) in (int, float, str, type(None))
               for e in k)


def _tuple_depth(k) -> int:
    return 1 + max((_tuple_depth(e) for e in k if isinstance(e, tuple)), default=0)


def test_cache_keys_hold_nothing_for_the_collector():
    """Cache keys, and the kept distances `_terms` holds, are tuples of
    ints, floats, strings and None, which the collector untracks; a
    point built apart, on an equal surface built apart, has the same key
    and hits; the reversed pair, a key of its own, gives the same
    float."""
    surfmodel.clear_caches()
    pairs = _flavor_pairs(511)
    got = [model_distance(x, y) for x, y in pairs]
    keys = [*surfmodel._distances, *surfmodel._terms]
    assert surfmodel._distances and surfmodel._terms
    assert all(_atoms_only(k) for k in keys)
    assert all(type(d) is float for v in surfmodel._terms.values() for d in v)
    # a collection untracks a tuple whose items are untracked when it
    # gets there, and the order it visits them in is its own, so a nest
    # of d tuples is untracked after at most d collections
    depth = max(_tuple_depth(k) for k in keys)
    assert depth == 5  # pair, point, surface, components, one component
    for _ in range(depth):
        gc.collect()
    assert not any(gc.is_tracked(k) for k in surfmodel._distances)
    assert not any(gc.is_tracked(k) for k in surfmodel._terms)
    assert not any(gc.is_tracked(v) for v in surfmodel._terms.values())
    for (x, y), d in zip(pairs, got):
        s = x.surface
        surface = ModelSurface(s.components, flavor=s.flavor, bers=s.bers, threshold=s.threshold)
        x2, y2 = (ModelPoint.from_json(surface, p.to_json()) for p in (x, y))
        assert x2.surface is not s and (x2, y2) == (x, y) and x2._key is not x._key
        before = model_distance.cache_info()
        assert model_distance(x2, y2).hex() == d.hex()
        after = model_distance.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert model_distance(y, x).hex() == d.hex()


def test_component_indices_from_the_end_are_refused(marking2):
    """A negative index would read the surface key as a state key and
    cache one component's terms under every pair's key."""
    x, y = base_point(marking2), twist_move(base_point(marking2), 1, 40)
    for bad in ((-1,), (0, -2)):
        with pytest.raises(IndexError, match="numbered from 0"):
            distance_formula(x, y, comps=bad)
    with pytest.raises(IndexError):
        distance_formula(x, y, comps=(2,))
    assert distance_formula(x, y, comps=iter([1]))[0] == 40.0


def test_bounded_caches_give_the_unbounded_answers(monkeypatch):
    """`_terms` holds keys up to SL2(Z) (marking above t = 3) beside raw
    ones (every other flavor or threshold) in one dict; bounded, both
    caches give the unbounded answers, which are `distance_formula`'s."""
    pairs = _flavor_pairs(512)
    thresholds = (None, 3.0, 0.0)
    surfmodel.clear_caches()
    want = [(model_distance(x, y).hex(),
             [surfmodel.formula_total(x, y, threshold=t).hex() for t in thresholds])
            for x, y in pairs]
    assert all(totals == [distance_formula(x, y, threshold=t)[0].hex() for t in thresholds]
               for (x, y), (_, totals) in zip(pairs, want))
    assert min(len(surfmodel._distances), len(surfmodel._terms)) > 10 * SMALL_BOUND
    moved = [FLAVORS[k[0]].annuli and not FLAVORS[k[0]].heights and k[2] > 3.0
             for k in surfmodel._terms]
    assert all(k[3][:4] == (0, 1, 1, 0) for k, m in zip(surfmodel._terms, moved) if m)
    assert moved.count(True) > 10 * SMALL_BOUND and moved.count(False) > 10 * SMALL_BOUND
    surfmodel.clear_caches()
    monkeypatch.setattr(surfmodel, "_DISTANCES_MAX", SMALL_BOUND)
    monkeypatch.setattr(surfmodel, "_TERMS_MAX", SMALL_BOUND)
    for (x, y), (d, totals) in zip(pairs, want):
        for _ in range(2):  # the second call is a hit
            assert model_distance(x, y).hex() == d
            assert [surfmodel.formula_total(x, y, threshold=t).hex()
                    for t in thresholds] == totals
            assert model_distance.cache_info().currsize <= SMALL_BOUND
            assert len(surfmodel._terms) <= SMALL_BOUND
    info = model_distance.cache_info()
    assert info.maxsize == SMALL_BOUND
    assert info.hits >= len(pairs) and info.misses + info.hits == 2 * len(pairs)


WINDOW_SURFACES = [
    ModelSurface(((1, 1), (1, 1)), flavor="marking"),
    ModelSurface(((1, 1),), flavor="augmented", bers=2.0),
    ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0),
    ModelSurface(((1, 1), (0, 4)), flavor="pants"),
]


@pytest.mark.parametrize("surface", WINDOW_SURFACES, ids=lambda s: f"{s.flavor}{len(s.components)}")
def test_window_and_certificates_match_the_replaced_code(surface):
    """150 seeded pairs per surface, each also against itself, where
    the geodesic between the pants slopes is a single vertex."""
    rng = np.random.default_rng([607, WINDOW_SURFACES.index(surface)])
    for _ in range(150):
        x, y = random_pair(surface, rng, steps=int(rng.integers(2, 16)), big_twist=30)
        for a, b in ((x, y), (y, x), (x, x)):
            assert working_window(a, b) == oracles.working_window(a, b), (a, b)
            assert certificates(a, b) == oracles.certificates(a, b), (a, b)
            assert candidate_subsurfaces(a, b) == oracles.candidate_subsurfaces(a, b), (a, b)
