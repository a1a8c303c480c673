"""Acceptance criteria.

Every criterion runs at its stated tolerance against the frozen
constants file and prints one pass/fail line with its runtime (visible
under pytest -s).  Budgets are asserted, not aspirational.
"""

import math
import time

import numpy as np
import pytest

from coarsegeo import bbf, consreal, effdiff, pathsflats, surfmodel
from coarsegeo.constants import default_constants
from coarsegeo.effdiff import Box, BoxMap, PathTrace
from coarsegeo.harness import (
    ExperimentConfig, adversarial_maps, backtracked_trace, deep_slope,
    farey_efficient_trace, net_separation_count, noisy_flat_map, orthant_flat,
    random_pair, random_point, rank_experiment, run_pipeline, twist_flat,
)
from coarsegeo.hypgraph import farey_handle, lp_handle, real_line_handle
from coarsegeo.surfmodel import (
    INFINITY, ZERO, ModelSurface, Slope, Subsurface, apply_matrix, base_point,
    farey_distance, farey_geodesic, model_distance, surface_stats,
    threshold_audit, twist_move,
)

from oracles import mat_mul, retrace_depth

CN = default_constants()
MARKING1 = ModelSurface(((1, 1),), flavor="marking")
MARKING2 = ModelSurface(((1, 1), (1, 1)), flavor="marking")
AUGMENTED1 = ModelSurface(((1, 1),), flavor="augmented")


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({dt:.1f}s / {self.seconds}s)")
        if exc_type is None:
            assert dt < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        return False


def _line_trace(rng, n):
    times = np.sort(rng.choice(np.arange(0, 60), size=n, replace=False)).astype(float)
    vals = rng.integers(-20, 21, size=n).astype(float)
    k = max(abs(b - a) / (t2 - t1) for (a, b), (t1, t2)
            in zip(zip(vals, vals[1:]), zip(times, times[1:])))
    return PathTrace(tuple(times), tuple(vals), real_line_handle(),
                     K=float(k) + 0.1, C=1.0)


def test_01_coarse_length_oracle_equivalence():
    """Dynamic programming equals exhaustive partition search, exactly,
    for every admissible scale.

    The oracle enumerates every partition once: each one is admissible
    at exactly the scales above its largest gap, so a prefix minimum
    over (max gap, cost) answers all scales at once.
    """
    rng = np.random.default_rng(101)
    with Budget("01 coarse-length-oracle", 5.0):
        for _ in range(500):
            tr = _line_trace(rng, int(rng.integers(2, 13)))
            ts, vals = np.asarray(tr.times), tr.points
            n = len(ts)
            mids = list(range(1, n - 1))
            records = []  # (admissibility threshold, partition cost)
            for mask in range(1 << len(mids)):
                chosen = [0] + [mids[b] for b in range(len(mids))
                                if mask >> b & 1] + [n - 1]
                gap = max(ts[b] - ts[a] for a, b in zip(chosen, chosen[1:]))
                cost = sum(abs(vals[b] - vals[a])
                           for a, b in zip(chosen, chosen[1:]))
                records.append((gap, cost))
            records.sort()
            thresholds = [g for g, _ in records]
            prefix_min = np.minimum.accumulate([c for _, c in records])
            scales = sorted({float(ts[j] - ts[i]) for i in range(n)
                             for j in range(i + 1, n)})
            lo = float(np.diff(ts).max())
            for r in scales:
                if r < lo:
                    continue
                import bisect
                k = bisect.bisect_right(thresholds, r + 1e-9) - 1
                assert effdiff.coarse_length(tr, r) == prefix_min[k]


def test_02_coarse_length_monotone_and_bounded():
    rng = np.random.default_rng(102)
    with Budget("02 monotone-lower-bound", 5.0):
        for _ in range(1000):
            tr = _line_trace(rng, int(rng.integers(3, 13)))
            lo = float(np.diff(tr.times).max())
            prev = math.inf
            for r in (lo, 2 * lo, 4 * lo, 8 * lo, 60.0):
                v = effdiff.coarse_length(tr, r)
                assert v >= tr.endpoint_distance() - 1e-9
                assert v <= prev + 1e-9
                prev = v


def test_03_farey_axioms_and_equivariance():
    rng = np.random.default_rng(103)
    with Budget("03 farey-metric", 5.0):
        for _ in range(1000):
            a, b, c = (Slope(int(rng.integers(-40, 41)),
                             int(rng.integers(0, 16)) or 1) for _ in range(3))
            assert farey_distance(a, a) == 0
            assert farey_distance(a, b) == farey_distance(b, a)
            assert (farey_distance(a, b) == 0) == (a == b)
            assert farey_distance(a, c) <= farey_distance(a, b) + farey_distance(b, c)
            m = mat_mul((1, int(rng.integers(-3, 4)), 0, 1),
                        (1, 0, int(rng.integers(-3, 4)), 1))
            assert farey_distance(apply_matrix(m, a), apply_matrix(m, b)) == \
                farey_distance(a, b)


def test_04_differentiation_finds_a_scale():
    step = 16

    def stair(P):
        k, rem = np.divmod(np.asarray(P, float)[:, 0], 2 * step)
        return list(zip((step * k + np.minimum(rem, step)).tolist(),
                        (step * k + np.maximum(0.0, rem - step)).tolist()))

    with Budget("04 staircase-scale", 60.0):
        fmap = BoxMap(stair, lp_handle(math.inf), K=1.0, C=1.0)
        rep = effdiff.differentiate_box(fmap, Box.cube(4096, 1),
                                        eps0=0.1, theta0=0.1, r0=8.0)
        assert rep.scale >= 8.0
        assert rep.fraction_efficient >= 0.9


def test_05_morse_bound_stable_across_scales():
    rng = np.random.default_rng(105)
    fh = farey_handle()
    eps = 0.05
    with Budget("05 morse-stability", 60.0):
        worst = {}
        for R in (100.0, 200.0, 400.0, 800.0):
            top = 0.0
            for _ in range(10):
                tr = farey_efficient_trace(rng, R, eps)
                assert effdiff.efficiency_test(tr, R, eps, CN["theta_eff"])
                seg = fh.geodesic(tr.points[0], tr.points[-1])
                exc = max(min(fh.distance(p, v) for v in seg) for p in tr.points)
                top = max(top, exc / (eps * R))
            worst[R] = top
            assert top <= CN["m_morse"]
        assert worst[800.0] <= max(worst[100.0], worst[200.0]) + 0.25


def test_06_consistency_and_realization_round_trip():
    rng = np.random.default_rng(106)
    with Budget("06 consistency-roundtrip", 30.0):
        for i in range(1000):
            surface = MARKING2 if i % 2 == 0 else AUGMENTED1
            x = random_point(surface, rng, steps=14)
            extra = [(int(rng.integers(surface.n_components)),
                      Slope(int(rng.integers(-8, 9)), int(rng.integers(0, 5)) or 1))
                     for _ in range(3)]
            sys = consreal.exact_system_for(x, extra_cores=[
                (c, s) for c, s in extra if s != x.alpha(c)])
            z = consreal.tuple_of_projections(x, sys)
            rep = consreal.consistency_check(sys, z, CN["m1_consistency"])
            assert rep.verdict, rep.violations
            x2 = consreal.realize(sys, z, m=CN["m_realize"])
            assert model_distance(x, x2) <= CN["d_roundtrip"]


def test_07_bounded_image_dichotomy():
    rng = np.random.default_rng(107)
    with Budget("07 bounded-image", 30.0):
        def sweep(span, count):
            top = 0.0
            for _ in range(count):
                a = Slope(int(rng.integers(-span, span + 1)),
                          int(rng.integers(0, span // 2)) or 1)
                b = Slope(int(rng.integers(-span, span + 1)),
                          int(rng.integers(0, span // 2)) or 1)
                core = Slope(int(rng.integers(-8, 9)), int(rng.integers(0, 5)) or 1)
                if a == b:
                    continue
                v = consreal.bgit_audit(farey_geodesic(a, b), core, CN["m0_bgit"])
                assert v.ok
                if not v.disjoint_hit:
                    top = max(top, v.realized)
            return top

        base = sweep(30, 500)
        doubled = sweep(60, 500)
        assert base <= CN["m0_bgit"] and doubled <= CN["m0_bgit"]


def test_08_embedding_lower_bound_and_band():
    rng = np.random.default_rng(108)
    with Budget("08 embedding-bound", 60.0):
        for _ in range(1000):
            x, y = random_pair(MARKING1, rng, steps=12, big_twist=25)
            v = bbf.lower_bound_audit(x, y, CN["k_pk"], CN["k_prime"])
            assert v.lhs >= v.rhs - 1e-9  # the factor one half, verbatim
        for steps in (12, 24):
            pairs = [random_pair(MARKING1, rng, steps=steps, big_twist=25,
                                 min_distance=12) for _ in range(40)]
            lo, hi = bbf.embedding_audit(pairs, CN["k_pk"], cutoff=10.0)
            assert CN["psi_ratio_lo"] <= lo <= hi <= CN["psi_ratio_hi"]


def test_09_threshold_robustness():
    rng = np.random.default_rng(109)
    with Budget("09 threshold-ratio", 30.0):
        done = 0
        while done < 1000:
            x, y = random_pair(MARKING2, rng, steps=16, big_twist=60,
                               min_distance=100.0)
            ratio = threshold_audit(x, y, 10.0, 40.0)
            if math.isinf(ratio):
                # every coordinate between the two cutoffs: the
                # comparability only holds with additive slack there
                continue
            assert 1.0 <= ratio <= CN["a_threshold"]
            done += 1


def test_10_backtrack_extraction():
    rng = np.random.default_rng(110)
    eps, R = 0.05, 400.0
    with Budget("10 backtrack-extraction", 30.0):
        x, y = random_pair(MARKING1, rng, steps=12, big_twist=40,
                           min_distance=60)
        tr = backtracked_trace(x, y, eps=eps, R=R, rng=rng, constants=CN)
        assert retrace_depth(tr.points) >= 0.5 * eps * R  # the input backtracks
        out = pathsflats.extract_no_backtrack(tr, x, y, eps=eps, constants=CN)
        # monotone shadows are asserted inside the extraction
        assert out.excursion <= CN["c_bb"] * eps * R


def test_11_standard_flat_pipeline():
    with Budget("11 flat-pipeline", 120.0):
        cfg = ExperimentConfig(MARKING2, eps0=0.05, theta0=0.1, r0=50.0,
                               seed=111, noise=3)
        stride = max(2, round(1.0 / cfg.eps0 ** 2))
        span = int(2 * max(cfg.r0, 40) * stride)
        flat = twist_flat(MARKING2, span)
        fmap = noisy_flat_map(flat, cfg.noise, cfg.seed)
        rep = run_pipeline(cfg, fmap, dim=2, constants=CN, flat_hint=flat)
        assert rep.passed
        sub = next(s for s in rep.stages if s["stage"] == "subbox")
        assert sub["size"] >= cfg.r0
        fit = next(s for s in rep.stages if s["stage"] == "flat_fit")
        assert fit["fit"] <= CN["c_fit"] * cfg.eps0 * sub["size"]


def test_12_rank_counting():
    with Budget("12 rank-counting", 120.0):
        xi, rank = surface_stats(MARKING2)
        assert rank == 2
        cfg = ExperimentConfig(MARKING2, eps0=0.05, seed=112, box_side=60)
        refute = rank_experiment(cfg, rank + 1, constants=CN)
        assert refute.passed
        maps = next(s for s in refute.stages if s["stage"] == "net-separation")
        assert len(maps["maps"]) >= 5
        assert all(m["refuted"] for m in maps["maps"])
        embed_cfg = ExperimentConfig(MARKING2, eps0=0.05, theta0=0.1,
                                     r0=50.0, seed=112)
        embed = rank_experiment(embed_cfg, rank, constants=CN)
        assert embed.passed
        aug_cfg = ExperimentConfig(AUGMENTED1, eps0=0.05, theta0=0.1,
                                   r0=50.0, seed=112)
        half = rank_experiment(aug_cfg, 1, constants=CN)
        assert half.passed
        assert any(s["stage"] == "orthant-ray-check" and s["passed"]
                   for s in half.stages)


def test_13_horoball_closed_form_vs_quasitree():
    rng = np.random.default_rng(113)
    with Budget("13 horoball-quasitree", 5.0):
        x = base_point(AUGMENTED1)
        y = twist_move(x, 0, 13)
        emb = bbf.embedding_for_pair(x, y, CN["k_pk"])
        qt = emb.trees["annuli[0]"]
        w = Subsurface("annulus", 0, ZERO)
        for _ in range(500):
            a = surfmodel.AnnularPoint(int(rng.integers(-9, 10)),
                                       float(rng.uniform(1.0, 50.0)))
            b = surfmodel.AnnularPoint(int(rng.integers(-9, 10)),
                                       float(rng.uniform(1.0, 50.0)))
            exact = surfmodel.annular_distance(a, b, surfmodel.FLAVORS["augmented"])
            assert abs(qt.distance((w, a), (w, b)) - exact) <= 1.0
