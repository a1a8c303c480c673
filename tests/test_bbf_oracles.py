"""The twist-table projection graph, the attachment-table glued distance
and the gcd-free twisting number against the direct loops they replaced
(`tests/oracles.py`), on seeded inputs.

Edge sets and marking distances must be identical.  Augmented distances
sum acosh terms, so they are compared within a relative tolerance of
1e-12 (the two sides add the same terms; they have matched exactly)."""

import collections
import math

import numpy as np
import pytest

import oracles
from coarsegeo.bbf import (FamilyY, QuasiTree, WindowTooSmallError, build_pk_graph,
                           embedding_for_pair, shared_embedding)
from coarsegeo.harness import random_pair, random_point
from coarsegeo.pathsflats import preferred_path
from coarsegeo.surfmodel import (FLAVORS, INFINITY, ZERO, AnnularPoint, ModelSurface, Slope,
                                 Subsurface, twist_number, working_window)

AUGMENTED_REL_TOL = 1e-12


def _member_edges(pk, family: FamilyY) -> set[frozenset]:
    """P_K's index pairs as the oracle's member pairs, after checking that
    each pair (v, w) has v < w and comes once, in lexicographic order."""
    assert pk.edges == sorted(set(pk.edges)) and all(v < w for v, w in pk.edges)
    members = family.members()
    return {frozenset((members[v], members[w])) for v, w in pk.edges}


def _annuli_trees(emb):
    return [emb.trees[f.label()] for f in emb.families if f.kind == "annuli"]


def _sample_points(qt: QuasiTree, rng, n: int, augmented: bool):
    """Points on randomly chosen members of the tree's family: random
    twists, and random heights in the augmented flavor."""
    out = []
    cores = qt.family.cores
    for _ in range(n):
        host = Subsurface("annulus", qt.family.comp, cores[int(rng.integers(len(cores)))])
        tw = int(rng.integers(-40, 41))
        h = float(rng.uniform(1.0 / qt.fl.bers, 30.0)) if augmented else None
        out.append((host, AnnularPoint(tw, h)))
    return out


def test_pk_and_marking_distance_on_pair_windows(marking2, cn):
    """300 per-pair windows of the pair audit: both annuli families."""
    rng = np.random.default_rng([7, 2])
    k = cn["k_pk"]
    for _ in range(300):
        x, y = random_pair(marking2, rng, steps=12, big_twist=25)
        emb = embedding_for_pair(x, y, k)
        px, py = emb.project(x), emb.project(y)
        for qt in _annuli_trees(emb):
            assert _member_edges(qt.pk, qt.family) == oracles.pk_edges(qt.family, k, qt.fl)
            u, v = px.coord(qt.family.label()), py.coord(qt.family.label())
            assert qt.distance(u, v) == oracles.glued_distance(qt, u, v)


def test_pk_and_marking_distance_on_shared_window(marking1, cn):
    rng = np.random.default_rng(5)
    k = cn["k_pk"]
    pts = [random_point(marking1, rng, steps=12, big_twist=25) for _ in range(12)]
    qt = _annuli_trees(shared_embedding(pts, k))[0]
    assert len(qt.family.cores) >= 50
    assert _member_edges(qt.pk, qt.family) == oracles.pk_edges(qt.family, k, qt.fl)
    queries = _sample_points(qt, rng, 8, augmented=False)
    for u, v in zip(queries[::2], queries[1::2]):
        assert qt.distance(u, v) == oracles.glued_distance(qt, u, v)


def _busiest_host_queries(qt: QuasiTree, rng, augmented: bool):
    """Query pairs among the three hosts with the most attachment nodes
    (most first), both ways and within one host, at random twists (and
    heights); also the node counts of those hosts and of the window."""
    member = {repr(m): m for m in qt.family.members()}
    nodes = {(e[end][0], tuple(e[end][1])) for e in qt.dump()["cross_edges"]
             for end in ("a", "b")}
    per_host = collections.Counter(member[host] for host, _pt in nodes)
    busy = sorted(per_host, key=lambda h: (-per_host[h], h.key()))[:3]

    def point(host):
        h = float(rng.uniform(1.0 / qt.fl.bers, 30.0)) if augmented else None
        return host, AnnularPoint(int(rng.integers(-40, 41)), h)

    queries = [(point(a), point(b)) for a, b in
               [(busy[0], busy[1]), (busy[1], busy[0]), (busy[0], busy[0]),
                (busy[1], busy[2]), (busy[2], busy[0])] for _ in range(2)]
    return queries, [per_host[h] for h in busy], len(nodes)


def test_marking_distance_on_a_calibrate_sized_window(marking1, cn):
    """The shared window of one preferred path of calibrate's backtrack
    extraction sweep, at the 500-1,200 attachment nodes of the windows
    of calibrate(seed=9, scale=0.02)."""
    rng = np.random.default_rng(3)
    x, y = random_pair(marking1, rng, steps=14, big_twist=40, min_distance=60)
    path = preferred_path(x, y, cn, verify=False)
    qt = _annuli_trees(shared_embedding(path.points, cn["k_pk"]))[0]
    queries, busy, n = _busiest_host_queries(qt, rng, augmented=False)
    assert n >= 500 and busy[1] >= 10
    assert [qt.distance(u, v) for u, v in queries] == oracles.glued_distances(qt, queries)


@pytest.mark.parametrize("bers", [1.0, 2.0])
def test_augmented_distance_on_a_shared_window(bers, cn):
    surface = ModelSurface(((1, 1),), flavor="augmented", bers=bers)
    rng = np.random.default_rng(1)
    pts = [random_point(surface, rng, steps=12, big_twist=25) for _ in range(12)]
    qt = _annuli_trees(shared_embedding(pts, cn["k_pk"]))[0]
    queries, busy, n = _busiest_host_queries(qt, rng, augmented=True)
    assert n >= 150 and busy[1] >= 10
    for (u, v), want in zip(queries, oracles.glued_distances(qt, queries)):
        assert abs(qt.distance(u, v) - want) <= AUGMENTED_REL_TOL * max(1.0, want)


@pytest.mark.parametrize("bers", [1.0, 2.0])
def test_pk_and_distance_on_augmented_windows(bers, cn):
    surface = ModelSurface(((1, 1),), flavor="augmented", bers=bers)
    rng = np.random.default_rng([11, int(bers)])
    for _ in range(4):
        x, y = random_pair(surface, rng, steps=10, big_twist=25)
        fam = FamilyY(0, "annuli", working_window(x, y)[0])
        for k in (0.5, 1.0, 2.0, cn["k_pk"]):
            pk = build_pk_graph(fam, k, surface.fl)
            assert _member_edges(pk, fam) == oracles.pk_edges(fam, k, surface.fl)
        qt = QuasiTree(fam, pk, surface.fl)
        queries = _sample_points(qt, rng, 10, augmented=True)
        for u, v in zip(queries[::2], queries[1::2]):
            got, want = qt.distance(u, v), oracles.glued_distance(qt, u, v)
            assert abs(got - want) <= AUGMENTED_REL_TOL * max(1.0, want)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("flavor", ["marking", "augmented"])
@pytest.mark.parametrize("cores", [(ZERO, INFINITY, Slope(120, 1)),
                                   (Slope(120, 1), INFINITY, ZERO)])
def test_pk_and_distance_on_tiny_families(m, flavor, cores):
    """Families of at most three cores, from the separated-pair example
    (the annulus at infinity sees 0 and 120 far apart).  In the second
    order the two members of a pair see each other 120 twists apart,
    which must not block their edge: only third members count."""
    fam = FamilyY(0, "annuli", cores[:m])
    fl = FLAVORS[flavor]
    h = 1.0 if fl.heights else None
    for k in (0.5, 3.0, 200.0):
        pk = build_pk_graph(fam, k, fl)
        assert _member_edges(pk, fam) == oracles.pk_edges(fam, k, fl)
        if m < 2:
            continue
        qt = QuasiTree(fam, pk, fl)
        hosts = fam.members()
        for u in ((hosts[0], AnnularPoint(3, h)), (hosts[1], AnnularPoint(-5, h))):
            for v in ((hosts[0], AnnularPoint(-7, h)), (hosts[-1], AnnularPoint(2, h))):
                want = oracles.glued_distance(qt, u, v)
                if want == math.inf:
                    with pytest.raises(WindowTooSmallError):
                        qt.distance(u, v)
                else:
                    assert qt.distance(u, v) == pytest.approx(
                        want, rel=AUGMENTED_REL_TOL, abs=0.0)


def test_component_family_distance_is_farey():
    fam = FamilyY(0, "component")
    qt = QuasiTree(fam, build_pk_graph(fam, 3.0, FLAVORS["marking"]), FLAVORS["marking"])
    w = fam.members()[0]
    u, v = (w, ZERO), (w, Slope(355, 113))
    assert qt.distance(u, v) == oracles.glued_distance(qt, u, v)


def test_twist_number_without_reduction_matches_slope_floor():
    """Seeded slopes with negative entries and heights up to 10^6, plus
    the integers and infinity."""
    rng = np.random.default_rng(3)
    slopes = [INFINITY, ZERO, Slope(-1, 1), Slope(5, 1)]
    for _ in range(400):
        p = int(rng.integers(-10 ** 6, 10 ** 6 + 1))
        q = int(rng.integers(1, 10 ** 6 + 1)) * int(rng.choice([-1, 1]))
        slopes.append(Slope(p, q))
    pairs = list(zip(slopes, slopes[1:] + slopes[:1]))
    pairs += [(slopes[i], slopes[j]) for i in range(4) for j in range(len(slopes))]
    checked = 0
    for core, curve in pairs:
        if core == curve:
            with pytest.raises(ValueError):
                twist_number(core, curve)
            continue
        assert twist_number(core, curve) == oracles.twist_number_via_slope(core, curve)
        checked += 1
    assert checked > 1500
