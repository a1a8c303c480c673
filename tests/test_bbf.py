"""Transversal families, the projection graph, quasi-trees, and the
product embedding."""

import collections
import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from coarsegeo import bbf, surfmodel
from coarsegeo.bbf import (
    FamilyY, PkGraph, QuasiTree, WindowTooSmallError,
    build_embedding, build_families, build_pk_graph,
    embedded_distance, embedding_audit, embedding_for_pair, lower_bound_audit,
)
from coarsegeo.harness import random_pair, random_point
from coarsegeo.surfmodel import (
    FLAVORS, INFINITY, ZERO, AnnularPoint, ModelPoint, ModelSurface, Slope, Subsurface,
    annular_distance, base_point, flip_move, model_distance, project,
    twist_move, working_window,
)


def test_families_per_component(marking1, marking2):
    win1 = {0: (ZERO, INFINITY, Slope(1, 1))}
    fams = build_families(marking1, win1)
    assert [f.kind for f in fams] == ["component", "annuli"]
    win2 = {0: (ZERO,), 1: (ZERO,)}
    fams2 = build_families(marking2, win2)
    assert len(fams2) == 4  # two per component


def test_pants_flavor_has_no_annuli_family():
    pants = ModelSurface(((1, 1),), flavor="pants")
    fams = build_families(pants, {0: (ZERO,)})
    assert [f.kind for f in fams] == ["component"]


def test_pk_graph_edges_monotone_in_k(marking1):
    win = working_window(base_point(marking1),
                         twist_move(flip_move(base_point(marking1), 0), 0, 9))
    fam = FamilyY(0, "annuli", win[0])
    prev: set = set()
    for k in (0.5, 2.0, 5.0, 20.0):
        pk = build_pk_graph(fam, k, marking1.fl)
        assert prev <= set(pk.edges)
        prev = set(pk.edges)
        assert pk.edges == sorted(prev)  # each pair once, in lexicographic order
        for v, w in pk.edges:
            assert 0 <= v < w < len(win[0])


def test_pk_singleton_family_is_edgeless(marking1):
    pk = build_pk_graph(FamilyY(0, "component"), 5.0, marking1.fl)
    assert pk.edges == []


def test_pk_blocks_separated_pair():
    """A middle annulus seeing the two outer boundaries far apart blocks
    their edge."""
    cores = (ZERO, INFINITY, Slope(120, 1))
    fam = FamilyY(0, "annuli", cores)
    pk = build_pk_graph(fam, k=3.0, fl=FLAVORS["marking"])
    # the annulus at infinity sees the boundaries of 0 and 120 twists apart
    assert (0, 2) not in pk.edges


def test_max_twist_gap_is_the_per_gap_check(cn):
    """gap <= max_twist_gap(K) exactly when the annular distance of the
    gap at the boundary height is at most K, on both flavors with
    annuli; no gap passes a negative or NaN K."""
    for bers in (1.0, 2.0):
        for flavor in ("marking", "augmented"):
            fl = ModelSurface(((1, 1),), flavor=flavor, bers=bers).fl
            u = AnnularPoint(0, fl.boundary)
            for k in (cn["k_pk"], 1.5, 7.3):
                gmax = bbf.max_twist_gap(k, fl)
                assert 0 <= gmax < 500  # the boundary lies in the range checked
                for gap in range(501):
                    ok = annular_distance(u, AnnularPoint(gap, fl.boundary), fl) <= k
                    assert (gap <= gmax) == ok, (flavor, bers, k, gap)
            for k in (-0.5, math.nan):
                assert bbf.max_twist_gap(k, fl) == -1


def test_one_twist_table_per_annuli_family(marking2, cn, calls_to):
    """A window's embedding builds one twist table per annuli family, and
    neither P_K nor the quasi-trees compute a twisting number of their
    own: the glued distances read the table."""
    x = base_point(marking2)
    y = twist_move(flip_move(twist_move(x, 1, 5), 1), 0, 9)
    window = working_window(x, y)
    tables = calls_to(surfmodel, "twist_table")
    calls = calls_to(surfmodel, "twist_number")
    emb = build_embedding(marking2, window, cn["k_pk"])
    assert tables == [([(s.p, s.q) for s in window[c]],) for c in (0, 1)]
    assert calls == []
    px, py = emb.project(x), emb.project(y)  # psi computes its own twisting numbers
    calls.clear()
    assert emb.distance(px, py) > 0
    assert len(tables) == 2 and calls == []


def test_quasitree_same_complex_and_symmetry(marking1, cn):
    x = base_point(marking1)
    y = twist_move(flip_move(x, 0), 0, 25)
    emb = embedding_for_pair(x, y, cn["k_pk"])
    qt = emb.trees["annuli[0]"]
    w = Subsurface("annulus", 0, ZERO)
    u, v = (w, AnnularPoint(0)), (w, AnnularPoint(9))
    assert qt.distance(u, v) <= 9.0
    pts = [(Subsurface("annulus", 0, core), AnnularPoint(t))
           for core in qt.family.cores[:3] for t in (-2, 3)]
    for a, b in itertools.combinations(pts, 2):
        assert qt.distance(a, b) == pytest.approx(qt.distance(b, a))
    for a, b, c in itertools.combinations(pts, 3):
        assert qt.distance(a, c) <= qt.distance(a, b) + qt.distance(b, c) + 1e-9


def test_quasitree_cross_edge_value_vs_exhaustive(marking1, cn):
    """On a tiny window the glued distance matches a hand enumeration:
    within-complex moves plus unit cross edges."""
    x = base_point(marking1)
    y = flip_move(x, 0)
    emb = embedding_for_pair(x, y, cn["k_pk"])
    qt = emb.trees["annuli[0]"]
    wa = Subsurface("annulus", 0, ZERO)
    wb = Subsurface("annulus", 0, INFINITY)
    doc = qt.dump()
    assert sorted((repr(wa), repr(wb))) in doc["pk_edges"]
    edge = next(e for e in doc["cross_edges"]
                if {e["a"][0], e["b"][0]} == {repr(wa), repr(wb)})
    twist = {host: pt[0] for host, pt in (edge["a"], edge["b"])}
    u = (wa, AnnularPoint(twist[repr(wa)]))
    v = (wb, AnnularPoint(twist[repr(wb)]))
    assert qt.distance(u, v) == pytest.approx(1.0)  # exactly the cross edge


def test_one_dijkstra_per_queried_point(marking1, cn, calls_to):
    """A fresh window answers a cross-host query with one search from the
    queried point, not one per attachment node of its host; asking again
    from an equal point rebuilt from its values runs none."""
    x = base_point(marking1)
    y = twist_move(flip_move(x, 0), 0, 25)
    qt = embedding_for_pair(x, y, cn["k_pk"]).trees["annuli[0]"]
    per_host = collections.Counter(h for e in qt.pk.edges for h in e)
    hosts = sorted(per_host, key=lambda h: -per_host[h])[:3]
    assert len(hosts) == 3 and per_host[hosts[0]] >= 2
    cores = qt.family.cores

    def point(h: int, twist: int):
        c = cores[h]
        return Subsurface("annulus", 0, Slope(c.p, c.q)), AnnularPoint(twist)

    runs = calls_to(bbf, "_dijkstra")
    first = qt.distance(point(hosts[0], 4), point(hosts[1], -3))
    assert len(runs) == 1
    assert qt.distance(point(hosts[0], 4), point(hosts[1], -3)) == first
    assert qt.distance(point(hosts[0], 4), point(hosts[2], 7)) > 0
    assert len(runs) == 1


def test_quasitree_intra_horoball_matches_closed_form(augmented1, cn):
    x = base_point(augmented1)
    y = twist_move(x, 0, 13)
    emb = embedding_for_pair(x, y, cn["k_pk"])
    qt = emb.trees["annuli[0]"]
    w = Subsurface("annulus", 0, ZERO)
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = AnnularPoint(int(rng.integers(-8, 9)), float(rng.uniform(1.0, 40.0)))
        b = AnnularPoint(int(rng.integers(-8, 9)), float(rng.uniform(1.0, 40.0)))
        exact = annular_distance(a, b, FLAVORS["augmented"])
        assert abs(qt.distance((w, a), (w, b)) - exact) <= 1.0


def test_quasitree_window_too_small(marking1, cn):
    x = base_point(marking1)
    emb = embedding_for_pair(x, x, cn["k_pk"])
    qt = emb.trees["annuli[0]"]
    outside = Subsurface("annulus", 0, Slope(355, 113))
    with pytest.raises(WindowTooSmallError):
        qt.distance((outside, AnnularPoint(0)),
                    (Subsurface("annulus", 0, ZERO), AnnularPoint(0)))


def test_psi_coordinates(marking1, augmented1, cn):
    x = base_point(marking1)
    emb = embedding_for_pair(x, x, cn["k_pk"])
    pt = emb.project(x)
    w, coord = pt.coord("component[0]")
    assert coord == ZERO  # the component family carries the pants slope
    xa = base_point(augmented1)
    xa = twist_move(xa, 0, 6)
    emba = embedding_for_pair(xa, xa, cn["k_pk"])
    pa = emba.project(xa)
    wa, ca = pa.coord("annuli[0]")
    assert wa.core == xa.alpha(0)
    assert ca == project(xa, wa)  # (twist of the transversal, 1/l)


def test_psi_near_minimizers_land_close(marking1, cn):
    """Choosing the annulus of the transversal (the next-best member)
    moves the embedded point by a bounded amount."""
    x = twist_move(base_point(marking1), 0, 4)
    y = flip_move(x, 0)
    emb = embedding_for_pair(x, y, cn["k_pk"])
    qt = emb.trees["annuli[0]"]
    w_min = Subsurface("annulus", 0, x.alpha(0))
    w_alt = Subsurface("annulus", 0, x.states[0].tau)
    a = (w_min, project(x, w_min))
    b = (w_alt, project(x, w_alt))
    assert qt.distance(a, b) <= 4 * cn["l_psi"] + 4


def test_psi_single_move_displacement(marking1, cn):
    x = base_point(marking1)
    for mv in (lambda p: twist_move(p, 0, 1), lambda p: flip_move(p, 0)):
        y = mv(x)
        assert embedded_distance(x, y, cn["k_pk"]) <= cn["l_psi"]


def test_lower_bound_cases(marking1, rng, cn):
    x = base_point(marking1)
    v0 = lower_bound_audit(x, x, cn["k_pk"], cn["k_prime"])
    assert v0.lhs == 0.0 and v0.rhs == 0.0 and v0.ok
    y = twist_move(x, 0, 50)
    v1 = lower_bound_audit(x, y, cn["k_pk"], cn["k_prime"])
    assert v1.lhs >= 25.0 - 1.0 and v1.ok
    for _ in range(100):
        a, b = random_pair(marking1, rng, steps=14, big_twist=25)
        assert lower_bound_audit(a, b, cn["k_pk"], cn["k_prime"]).ok
    with pytest.raises(ValueError):
        lower_bound_audit(x, y, cn["k_pk"], cn["k_pk"])


def test_embedding_audit_band(marking1, rng, cn):
    pairs = [random_pair(marking1, rng, steps=12, big_twist=25,
                         min_distance=12) for _ in range(30)]
    lo, hi = embedding_audit(pairs, cn["k_pk"], cutoff=10.0)
    assert cn["psi_ratio_lo"] <= lo <= hi <= cn["psi_ratio_hi"]
    with pytest.raises(ValueError):
        embedding_audit([(pairs[0][0], pairs[0][0])], cn["k_pk"], cutoff=10.0)


def test_window_dump_schema(marking1, cn):
    x, y = base_point(marking1), twist_move(base_point(marking1), 0, 20)
    emb = embedding_for_pair(x, y, cn["k_pk"])
    doc = emb.trees["annuli[0]"].dump()
    assert doc["schema_version"] == 1
    assert doc["vertices"] and "cross_edges" in doc


def test_embedded_handle_hits_do_not_depend_on_the_hash_seed():
    """The handle's cache key was ordered by id(), so whether a reversed
    pair of equal points hit depended on memory addresses: the number of
    quasi-tree distances this extraction asked for read 2762-2770 from
    run to run."""
    script = textwrap.dedent("""
        import numpy as np
        from coarsegeo import bbf, harness, pathsflats
        from coarsegeo.constants import default_constants
        from coarsegeo.surfmodel import ModelSurface
        calls = 0
        distance = bbf.QuasiTree.distance
        def counted(self, u, v):
            global calls
            calls += 1
            return distance(self, u, v)
        bbf.QuasiTree.distance = counted
        cn = default_constants()
        rng = np.random.default_rng(110)
        x, y = harness.random_pair(ModelSurface(((1, 1),), flavor="marking"), rng,
                                   steps=12, big_twist=40, min_distance=60)
        tr = harness.backtracked_trace(x, y, eps=0.05, R=400.0, rng=rng, constants=cn)
        pathsflats.extract_no_backtrack(tr, x, y, eps=0.05, constants=cn)
        print(calls)
    """)
    src = str(Path(bbf.__file__).resolve().parents[1])
    counts = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout))
    assert counts[0] == counts[1] > 0


def test_embedded_handle_hits_a_reversed_rebuilt_pair(marking1, cn, calls_to):
    """Equal points built apart, asked for in reverse order with their
    memory addresses in the opposite order, hit the cached distance."""
    x = base_point(marking1)
    y = twist_move(x, 0, 20)
    h = bbf.embedded_handle([x, y], cn["k_pk"])
    calls = calls_to(bbf.QuasiTree, "distance")
    d = h.distance(x, y)
    assert len(calls) == 2  # one per family: the component and its annuli
    copies = [(ModelPoint(y.surface, y.states), ModelPoint(x.surface, x.states))
              for _ in range(20)]
    yc, xc = next((b, a) for b, a in copies if (id(b) < id(a)) == (id(x) < id(y)))
    assert h.distance(yc, xc) == d
    assert len(calls) == 2
