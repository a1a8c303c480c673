"""The per-component distance formula, the list-free model distance,
the closed-form twist matrix and the gcd-free slope image against the
code they replaced.

`surfmodel.distance_formula` reads each component's terms from a cache
keyed by the component's two states; `oracles.distance_formula` walks
every candidate subsurface of the point pair, with its own candidate
enumeration and annular projection, and
`oracles.component_loop_distance_formula` adds up the cached terms while
it builds the contribution list.  Totals and contribution lists must
agree bit for bit: the cached terms are added in the same order as the
direct loop.  `model_distance` builds no list and must still give the
same float.  Points come from small seeded pools, so component states
repeat across pairs and the cache is read back as well as filled.
Pairs that share a pants curve, which take the one-annulus path of
`_component_terms`, come from noisy twist-flat lines and from twist and
length moves, at thresholds above and at or below zero.
"""

import numpy as np
import pytest

from coarsegeo import surfmodel
from coarsegeo.harness import noisy_flat_map, random_point, twist_flat
from coarsegeo.surfmodel import (INFINITY, ZERO, ComponentState, ModelPoint, ModelSurface,
                                 Slope, apply_matrix, candidate_subsurfaces,
                                 distance_formula, length_move, mat_inv, model_distance,
                                 transport_matrix, twist_matrix, twist_move)

import oracles

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


def test_distance_formula_matches_direct_loop():
    surfmodel.clear_caches()
    rng = np.random.default_rng(505)
    checked = 0
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
                assert got == _bits(oracles.distance_formula(x, y, **kw)), (x, y, kw)
                assert got == _bits(oracles.component_loop_distance_formula(x, y, **kw))
            want = oracles.component_loop_distance_formula(x, y)[0].hex()
            assert model_distance(x, y).hex() == want == \
                oracles.distance_formula(x, y)[0].hex()
            checked += 1
    assert checked == len(SURFACES) * PAIRS_PER_SURFACE
    assert surfmodel._component_terms.cache_info().hits > 0


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
    """Pairs that keep pants curves take the one-annulus path of
    `_component_terms` at t > 0; at t <= 0 every zero term is kept, so
    each candidate subsurface is a term."""
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
            if thr <= 0:
                assert sorted(w.key() for w, _ in got[1]) == sorted(w.key() for w in cands)
        kept += sum(w.comp in same_comps for w, _ in distance_formula(x, y)[1])
        assert model_distance(x, y).hex() == oracles.distance_formula(x, y)[0].hex()
    assert same >= 5000 and kept >= 500, (same, kept)


def test_twist_matrix_matches_conjugated_shear():
    rng = np.random.default_rng(506)
    cores = [INFINITY] + [Slope(int(rng.integers(-200, 201)), int(rng.integers(1, 60)))
                          for _ in range(1999)]
    for core in cores:
        for n in rng.integers(-500, 501, size=10):
            assert twist_matrix(core, int(n)) == oracles.twist_matrix(core, int(n)), (core, n)


def _random_slope(rng) -> Slope:
    q = int(rng.integers(0, 80))
    return Slope(1, 0) if q == 0 else Slope(int(rng.integers(-300, 301)), q)


def test_apply_matrix_matches_gcd_path():
    """The sign-normalized image of a slope under every kind of matrix
    the package applies equals the `Slope` the gcd path builds."""
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


def test_clear_caches_empties_every_cache(marking2):
    rng = np.random.default_rng(507)
    for _ in range(20):
        x, y = (random_point(marking2, rng, steps=10) for _ in range(2))
        model_distance(x, y)
    caches = {name: fn for name, fn in vars(surfmodel).items() if hasattr(fn, "cache_info")}
    assert set(caches) >= {"transport_matrix", "farey_distance", "farey_geodesic",
                           "_component_terms", "model_distance"}
    assert all(fn.cache_info().currsize > 0 for fn in caches.values())
    assert surfmodel._dist_memo
    surfmodel.clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in caches.items()} == \
        dict.fromkeys(caches, 0)
    assert not surfmodel._dist_memo


def test_equal_points_hash_equal(marking2):
    def build(twist: int) -> ModelPoint:
        return ModelPoint(marking2, (ComponentState(Slope(2, 5), Slope(1, 2)),
                                     ComponentState(Slope(0, 1), Slope(1, twist))))

    a, b = build(7), build(7)
    assert a is not b and a.states is not b.states
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.surface, a.states))
    assert build(8) != a
    # states of every flavor: equal fields, equal hash
    for args in ((Slope(4, 10),), (Slope(4, 10), Slope(1, 2)), (Slope(4, 10), Slope(1, 2), 0.5)):
        st = ComponentState(*args)
        twin = ComponentState(Slope(2, 5), *args[1:])
        assert st == twin and hash(st) == hash(twin)
    assert ModelPoint.from_json(marking2, a.to_json()) == a
    assert hash(ModelPoint.from_json(marking2, a.to_json())) == hash(a)
