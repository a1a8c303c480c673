"""Experiment harness: seeded generators, calibration, the box-to-flat
pipeline, rank experiments, and the command line interface.

Everything here is deterministic given (config, seed).  The calibrate
sweep measures every constant the library treats as frozen (thinness
constants, image bounds, consistency constants, quasi-geodesic bands,
fit coefficients) on fixed random suites and writes the versioned
constants file the rest of the package loads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import bbf, consreal, effdiff, pathsflats, surfmodel
from .constants import Constants, default_constants
from .effdiff import Box, BoxMap, PathTrace
from .hypgraph import (farey_handle, farey_thinness, lp_handle, model_handle,
                       real_line_handle)
from .pathsflats import (FlatFactor, StandardFlat, candidate_flats,
                         extract_no_backtrack, flat_fit, pinned_curve, preferred_path)
from .surfmodel import (ModelPoint, ModelSurface, Slope, Subsurface,
                        base_point, farey_adjacent, farey_ball, farey_geodesic, flip_move,
                        length_move, model_distance, surface_stats, twist_move,
                        twist_number)

INFINITY = surfmodel.INFINITY
ZERO = surfmodel.ZERO


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def deep_slope(k: int, a: int = 2) -> Slope:
    """A slope at Farey distance exactly k from infinity (continued
    fraction [a; a, ..., a] with k terms, a >= 2)."""
    p, q = 1, 0
    pp, qq = 0, 1
    for _ in range(k):
        p, pp = a * p + pp, p
        q, qq = a * q + qq, q
    return Slope(p, q)


def random_slope(rng: np.random.Generator, span: int = 30) -> Slope:
    p = int(rng.integers(-span, span + 1))
    q = int(rng.integers(0, max(2, span // 2)))
    if p == 0 and q == 0:
        p = 1
    return Slope(p, q)


def random_point(surface: ModelSurface, rng: np.random.Generator,
                 steps: int = 25, big_twist: int = 30) -> ModelPoint:
    """A random walk of elementary moves from the base point.

    Big twists are scaled per flavor: the augmented annular metric is
    logarithmic in the twist, so registering above the threshold needs
    exponentially larger twisting there.
    """
    x = base_point(surface)
    if surface.fl.heights:
        big_lo = int(math.exp(surface.threshold / 2.0))
        big_hi = big_lo * max(2, big_twist // 4)
    else:
        big_lo, big_hi = max(1, big_twist // 2), max(2, big_twist)
    for _ in range(steps):
        comp = int(rng.integers(surface.n_components))
        r = rng.random()
        if not surface.fl.annuli:
            geo = farey_geodesic(x.alpha(comp), random_slope(rng, 9))
            if len(geo) > 1:
                x = surfmodel.product_project(x, {comp: geo[1]})
            continue
        if r < 0.4:
            x = twist_move(x, comp, int(rng.choice([-1, 1])) * int(rng.integers(1, 4)))
        elif r < 0.7:
            x = flip_move(x, comp)
        elif r < 0.85 or not surface.fl.heights:
            x = twist_move(x, comp, int(rng.choice([-1, 1]))
                           * int(rng.integers(big_lo, big_hi + 1)))
        else:
            runs = int(rng.integers(4, 17))
            factor = float(rng.choice([0.5, 2.0]))
            for _ in range(runs):
                x = length_move(x, comp, factor)
    return x


def random_pair(surface: ModelSurface, rng: np.random.Generator,
                steps: int = 25, big_twist: int = 30,
                min_distance: float = 0.0) -> tuple[ModelPoint, ModelPoint]:
    for _ in range(60):
        x = random_point(surface, rng, steps, big_twist)
        y = random_point(surface, rng, steps, big_twist)
        if model_distance(x, y) >= min_distance:
            return x, y
    raise RuntimeError("generator failed to reach the distance floor")


def _densify(pts: list, R: float, eps: float) -> tuple[tuple[float, ...], tuple]:
    """Spread points over [0, R] with time gaps at most eps*R/4 (the
    sampling density the partition restriction requires), stuttering
    points where needed."""
    need = max(len(pts), int(math.ceil(4.0 / eps)) + 1)
    idx = [min(len(pts) - 1, int(i * (len(pts) - 1) / (need - 1)))
           for i in range(need)]
    ts = np.linspace(0.0, R, need)
    return tuple(float(t) for t in ts), tuple(pts[i] for i in idx)


def _uniform_trace(ts: Sequence[float], pts: Sequence, handle, C: float) -> PathTrace:
    """A trace on uniformly spaced times whose K is the largest jump per
    time step plus 0.1."""
    k = max(handle.distance(u, v) for u, v in zip(pts, pts[1:])) / (ts[1] - ts[0])
    return PathTrace(tuple(float(t) for t in ts), tuple(pts), handle, K=float(k) + 0.1, C=C)


def farey_efficient_trace(rng: np.random.Generator, R: float, eps: float) -> PathTrace:
    """A synthetic efficient path in the Farey graph at span R: a long
    geodesic with two detours about eps*R/4 deep, timed uniformly."""
    length = int(rng.integers(12, 25))
    a = int(rng.integers(2, 4))
    target = deep_slope(length, a)
    geo = list(farey_geodesic(INFINITY, target))
    depth = max(1, int(eps * R / 4))
    pts = list(geo)
    for _ in range(2):
        at = int(rng.integers(2, len(geo) - 2))
        fan = surfmodel.common_neighbors(geo[at], geo[at + 1])
        side = fan[int(rng.integers(len(fan)))]
        wiggle = [side, geo[at]] * (depth // 2 + 1)
        pts = pts[:at + 1] + wiggle[:depth] + pts[at + 1:]
    ts, pts = _densify(pts, R, eps)
    return _uniform_trace(ts, pts, farey_handle(), C=2.0)


def backtracked_trace(x: ModelPoint, y: ModelPoint, eps: float, R: float,
                      rng: np.random.Generator, constants: Constants) -> PathTrace:
    """A preferred path between x and y, re-timed to span R, with two
    inserted retraces about eps*R steps deep."""
    path = preferred_path(x, y, constants, verify=False)
    pts = list(path.points)
    depth = max(2, int(eps * R * 0.6))
    for _ in range(2):
        if len(pts) < 3 * depth:
            break
        at = int(rng.integers(depth + 1, len(pts) - depth))
        pts = pts[:at] + pts[at - depth:at] + pts[at:]
    ts, pts = _densify(pts, R, eps)
    # efficiency is judged in the glued product metric: the thresholded
    # formula cannot see single moves, so fine grids would be free
    h = bbf.embedded_handle(pts, constants["k_pk"])
    return _uniform_trace(ts, pts, h, C=2.0 * x.surface.threshold + 4)


def twist_flat(surface: ModelSurface, span: int) -> StandardFlat:
    """The standard twist flat: every component pinned on the base curve
    with the twist lattice as its factor."""
    base = base_point(surface)
    factors = tuple(FlatFactor(c, "twist", (-span, span), core=ZERO, tau0=INFINITY)
                    for c in range(surface.n_components))
    return StandardFlat(base, factors)


def orthant_flat(surface: ModelSurface, span: int) -> StandardFlat:
    """Horoball rays in every component (augmented flavor): the image of
    a Euclidean orthant."""
    base = base_point(surface)
    factors = tuple(FlatFactor(c, "ray", (0, span), core=ZERO, tau0=INFINITY)
                    for c in range(surface.n_components))
    return StandardFlat(base, factors)


def noisy_flat_map(flat: StandardFlat, noise: int, seed: int) -> BoxMap:
    """The flat evaluated on lattice points, perturbed off the flat by a
    deterministic burst of at most `noise` small moves (unit twists and
    flips) on one component.  Small moves keep every projection change
    below the distance-formula threshold, so the perturbation cost is
    bounded by the stated noise.

    The map works a batch at a time (`BoxMap.images`; `fn` is a batch
    of one): points are rounded half to even and clamped to the flat's
    box, each burst is read off the hash of the lattice point, and
    `StandardFlat.eval_rows` applies it and builds the point from the
    flat's state table, so images at one lattice point and burst share
    their state keys.  A point with the wrong number of coordinates
    raises `ValueError`, and a non-finite one what `round` raises."""
    surface = flat.surface
    h = model_handle(surface)
    lo, hi = np.array(flat.box().intervals, float).T
    noisy = noise > 0 and surface.fl.annuli
    n_comp = surface.n_components

    def images(P) -> list[ModelPoint]:
        T = np.rint(np.asarray(P, float))  # half to even, as round() does
        if T.ndim != 2 or T.shape[1] != flat.dim:
            raise ValueError(f"box-map points need {flat.dim} coordinates")
        if not np.isfinite(T).all():  # raise what round() raises: ValueError or OverflowError
            int(T[~np.isfinite(T)][0])
        # Python ints, which the noise hash reads through repr
        rows = list(map(tuple, np.clip(T, lo, hi).astype(np.int64).tolist()))
        if not noisy:
            return flat.eval_rows(rows)
        bursts = []
        for t in rows:
            mix = hashlib.sha256(repr((seed, t)).encode()).digest()
            # an optional flip at step 0, then unit twists about one pants
            # curve, which compose into n twists
            flip, n = False, 0
            for step in range(mix[1] % (noise + 1)):
                b = mix[2 + step]
                if b % 3 == 0 and step == 0:
                    flip = True
                else:
                    n += 1 if b % 2 else -1
            bursts.append((mix[0] % n_comp, flip, n))
        return flat.eval_rows(rows, bursts)

    return BoxMap(images, h, K=2.0, C=_flat_map_c(surface, noise))


def _flat_map_c(surface: ModelSurface, noise: int) -> float:
    """The additive constant of `noisy_flat_map` at this noise."""
    return 2.0 * surface.threshold + 2 * noise + 4


def adversarial_maps(flat: StandardFlat, n: int, box_side: int) -> list[tuple[str, BoxMap]]:
    """Quasi-Lipschitz maps from an n-box through an (n-1)-flat: each
    collapses one direction, so no sub-box can stay quasi-isometric."""
    if n != flat.dim + 1:
        raise ValueError("suite maps collapse exactly one dimension")
    inner = noisy_flat_map(flat, 0, seed=0)
    r = flat.dim

    def wrap(name: str, lin: Callable[[np.ndarray], np.ndarray]) -> tuple[str, BoxMap]:
        # lin acts on the last axis, so it maps a batch of rows at once
        return name, BoxMap(lambda P: inner.images(lin(np.asarray(P, float))),
                            inner.target, K=inner.K * 2 + 2, C=inner.C)

    def cat(*cols) -> np.ndarray:
        return np.concatenate(cols, axis=-1)

    half = box_side / 2.0
    a, b = slice(r - 1, r), slice(r, r + 1)  # the last two coordinates, as columns
    suite = [
        wrap("drop-last", lambda q: q[..., :r]),
        wrap("sum-last-two", lambda q: cat(q[..., :r - 1], q[..., a] + q[..., b] - half)),
        wrap("fold-last", lambda q: cat(q[..., :r - 1], abs(q[..., b] - half) + q[..., a] - half)),
        wrap("mean-pair", lambda q: cat(q[..., :r - 1], (q[..., a] + q[..., b]) / 2.0)),
        wrap("swap-collapse", lambda q: cat(q[..., b] - half + q[..., :1] - half, q[..., 1:r])),
    ]
    return suite


# ---------------------------------------------------------------------------
# Configs and reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    surface: ModelSurface
    eps0: float = 0.05
    theta0: float = 0.1
    r0: float = 50.0
    seed: int = 0
    box_side: int | None = None
    noise: int = 3

    def __post_init__(self):
        if not (0 < self.eps0 < 1) or self.r0 < 1:
            raise ValueError("need eps0 in (0,1) and r0 >= 1")
        if not math.isfinite(self.r0):
            raise ValueError(f"need a finite r0, got {self.r0}")
        if not 0 < self.theta0 < math.inf:
            raise ValueError(f"need a finite theta0 > 0, got {self.theta0}")
        for name, lo in (("seed", 0), ("noise", 0), ("box_side", 1)):
            v = getattr(self, name)
            if name == "box_side" and v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)) or (
                    isinstance(v, float) and not v.is_integer()):  # JSON may write 7.0
                raise ValueError(f"need an integer {name}, got {v!r}")
            if v < lo:  # a negative noise would shrink the map's declared C
                raise ValueError(f"need {name} >= {lo}, got {v!r}")
            setattr(self, name, int(v))

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "surface": self.surface.to_json(),
            "eps0": self.eps0, "theta0": self.theta0, "r0": self.r0,
            "seed": self.seed, "box_side": self.box_side, "noise": self.noise,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        given = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}  # the rest default
        return cls(**{**given, "surface": ModelSurface.from_json(doc["surface"])})

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Report:
    experiment: str
    config_digest: str
    stages: list[dict] = field(default_factory=list)
    passed: bool = True

    def add(self, name: str, **data) -> None:
        self.stages.append({"stage": name, **data})

    def to_json(self) -> dict:
        return {"schema_version": 1, "experiment": self.experiment,
                "config_digest": self.config_digest,
                "passed": self.passed, "stages": self.stages}


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def run_pipeline(config: ExperimentConfig, fmap: BoxMap, dim: int,
                 constants: Constants | None = None,
                 flat_hint: StandardFlat | None = None) -> Report:
    """Box map to standard flat.

    Differentiate, take an efficient sub-box, and handle each component
    by its branch: components whose pants shadow pins a curve are
    product-region factors; moving components get their shadow sub-box
    narrowed against the edge geodesics and a preferred path extracted
    from the diagonal trace.  Candidate flats come from the samples'
    endpoint data (plus the extracted factors) and the worst sample
    residual decides the verdict.
    """
    cn = constants or default_constants()
    config.surface.validate_threshold(cn)
    rep = Report("pipeline", config.digest())
    box = Box.cube(_pipeline_side(config, fmap.C), dim)
    diff = effdiff.differentiate_box(
        fmap, box, config.eps0, config.theta0, config.r0,
        max_directions=max(2, dim + 2), lines_per_direction=10, constants=cn)
    rep.add("differentiate", scale=diff.scale, level=diff.level,
            fraction=diff.fraction_efficient, boxes=len(diff.box_verdicts))
    good = diff.efficient_boxes()
    if not good:
        rep.passed = False
        rep.add("subbox", error="no efficient sub-box")
        return rep
    sub = good[0]
    surface = config.surface
    # narrow the sub-box against each component's curve-graph shadow
    for comp in range(surface.n_components):
        shadow = BoxMap(lambda P, c=comp: [x.alpha(c) for x in fmap.images(P)],
                        farey_handle(), fmap.K, fmap.C)
        try:
            sub, _edge = effdiff.hyperbolic_subbox(shadow, sub, config.eps0,
                                                   constants=cn, grid_max=9)
        except effdiff.NotEfficientError:
            rep.add("shadow-subbox", component=comp, error="no stable label")
    r_prime = sub.size
    rep.add("subbox", box=sub.to_json(), size=r_prime)
    # grid samples on the chosen sub-box, reused by every later stage
    axes = [np.linspace(lo, hi, 7) for lo, hi in sub.intervals]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    samples = fmap.images(grid)
    branches = []
    moving = []
    for comp in range(surface.n_components):
        _core, hits, pinned = pinned_curve(samples, comp)
        if not pinned:
            moving.append(comp)
        branches.append({"component": comp,
                         "branch": "product-region" if pinned else "preferred-path",
                         "curves": len({s.alpha(comp) for s in samples}),
                         "majority": hits / len(samples)})
    rep.add("branches", per_component=branches)
    flats = candidate_flats(samples, cn)
    extracted = _extract_moving_factors(fmap, sub, moving, surface, cn, rep)
    if extracted is not None:
        flats.append(extracted)
    if flat_hint is not None:
        flats = flats + [flat_hint]
    fit, best = flat_fit(samples, flats)
    cap = cn["c_fit"] * config.eps0 * r_prime
    rep.add("flat_fit", fit=fit, cap=cap, flat=best.to_json(),
            candidates=len(flats))
    rep.passed = fit <= cap
    return rep


def _pipeline_side(config: ExperimentConfig, c: float) -> int:
    """The side of the box `run_pipeline` differentiates for a map with
    additive constant c: the configured side, else the least size
    `differentiate_box` accepts."""
    return config.box_side or int(effdiff.required_size(config.eps0, config.r0, c))


def _flat_pipeline(config: ExperimentConfig, constants: Constants) -> Report:
    """`run_pipeline` on the config's twist flat under noise `config.noise`,
    with the flat as a hint.  The flat covers the whole box the pipeline
    differentiates, or every sample clamps to the flat's corner."""
    surface = config.surface
    flat = twist_flat(surface, _pipeline_side(config, _flat_map_c(surface, config.noise)))
    fmap = noisy_flat_map(flat, config.noise, config.seed)
    return run_pipeline(config, fmap, dim=flat.dim, constants=constants, flat_hint=flat)


def _extract_moving_factors(fmap: BoxMap, sub: Box, moving: list[int],
                            surface: ModelSurface, cn: Constants,
                            rep: Report) -> StandardFlat | None:
    """Trace the sub-box diagonal and extract a preferred path per
    moving component; the product of those factors (with the pinned
    components left at the trace's start) is an extra flat candidate."""
    if not moving:
        return None
    lo = np.array([a for a, _ in sub.intervals], float)
    hi = np.array([b for _, b in sub.intervals], float)
    n_samp = 33
    diag = fmap.images(lo + np.linspace(0.0, 1.0, n_samp)[:, None] * (hi - lo))
    base = diag[0]
    factors = []
    for comp in moving:
        pts = [base.with_state(comp, p.state_keys[comp]) for p in diag]
        ts = np.linspace(0.0, float(sub.size), n_samp).tolist()
        trace = _uniform_trace(ts, pts, bbf.embedded_handle(pts, cn["k_pk"]),
                               C=2 * surface.threshold + 4)
        try:
            path = pathsflats.extract_no_backtrack(
                trace, pts[0], pts[-1], eps=max(0.05, 2.0 / math.sqrt(n_samp)),
                constants=cn)
        except pathsflats.NotEfficientInputError:
            rep.add("factor-extraction", component=comp, error="trace not efficient")
            return None
        factors.append(FlatFactor(comp, "path", (0, len(path.points) - 1),
                                  path=path))
        rep.add("factor-extraction", component=comp,
                points=len(path.points), excursion=path.excursion)
    for comp in range(surface.n_components):
        if comp in moving or not surface.fl.annuli:
            continue
        st = base.state(comp)
        w = surfmodel.Subsurface("annulus", comp, st.alpha)
        tw = surfmodel.project(base, w).twist
        factors.append(FlatFactor(comp, "twist", (tw - 4 * int(sub.size), tw + 4 * int(sub.size)),
                                  core=st.alpha, tau0=st.tau))
    return StandardFlat(base, tuple(factors))


# ---------------------------------------------------------------------------
# Rank experiments
# ---------------------------------------------------------------------------


def greedy_packing(images: Sequence[Any], distance: Callable[[Any, Any], float],
                   separation: float) -> list[Any]:
    """The images a greedy pass keeps, in order: each is kept when it is
    at least `separation` from every image kept before it."""
    if separation <= 0:
        raise ValueError("separation must be positive")
    kept: list[Any] = []
    # an image equal to an earlier one is at distance 0 < separation from
    # it, so only first occurrences can be kept
    for img in dict.fromkeys(images):
        if all(distance(img, other) >= separation for other in kept):
            kept.append(img)
    return kept


def net_separation_count(fmap: BoxMap, box: Box, spacing: float,
                         separation: float) -> tuple[int, int]:
    """(domain net size, greedy image packing count at the separation)."""
    axes = [np.arange(lo, hi + 1e-9, spacing) for lo, hi in box.intervals]
    mesh = np.meshgrid(*axes, indexing="ij")
    net = np.stack([m.ravel() for m in mesh], axis=-1)
    images = fmap.images(net)
    return len(net), len(greedy_packing(images, fmap.target.distance, separation))


def rank_experiment(config: ExperimentConfig, n: int,
                    constants: Constants | None = None) -> Report:
    """For n at most the top rank, the product embedding must pass the
    pipeline (and the augmented orthant passes a ray check); for
    n = rank + 1 every suite map is refuted by the separation count."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    cn = constants or default_constants()
    config.surface.validate_threshold(cn)
    rep = Report("rank", config.digest())
    surface = config.surface
    xi, rank = surface_stats(surface)
    rep.add("stats", complexity=xi, rank_top=rank, n=n)
    k1 = cn["k1_net"]
    kappa_net = cn["kappa_net"]
    if n <= rank:
        pipe = _flat_pipeline(replace(config, noise=0), cn)
        rep.add("embedding-pipeline", passed=pipe.passed,
                stages=pipe.stages)
        rep.passed = pipe.passed
        if surface.fl.heights:
            ortho = orthant_flat(surface, span=60)
            lo_band, hi_band = _flat_qi_band(ortho, config.seed)
            ok = lo_band >= 1.0 / cn["orthant_band"] and hi_band <= cn["orthant_band"]
            rep.add("orthant-ray-check", low=lo_band, high=hi_band, passed=ok)
            rep.passed = rep.passed and ok
        return rep
    if n != rank + 1:
        raise ValueError("refutation is run at n = rank + 1")
    side = int(config.box_side or 60)
    box = Box.cube(side, n)
    flat = twist_flat(surface, span=2 * side)
    spacing = max(1.0, k1 * config.eps0 * side)
    separation = config.eps0 * side
    expected = int(np.prod([len(np.arange(lo, hi + 1e-9, spacing))
                            for lo, hi in box.intervals]))
    results = []
    all_refuted = True
    for name, fmap in adversarial_maps(flat, n, side):
        net, packed = net_separation_count(fmap, box, spacing, separation)
        refuted = packed < net / kappa_net
        all_refuted = all_refuted and refuted
        results.append({"map": name, "net": net, "packed": packed,
                        "refuted": refuted})
    # the honest n = rank embedding keeps its net separated
    hmap = noisy_flat_map(flat, 0, config.seed)
    hnet, hpacked = net_separation_count(hmap, Box.cube(side, rank),
                                         spacing, separation)
    honest_ok = hpacked >= hnet / kappa_net
    rep.add("net-separation", expected=expected, maps=results,
            honest={"net": hnet, "packed": hpacked, "ok": honest_ok})
    rep.passed = all_refuted and honest_ok
    return rep


def _flat_qi_band(flat: StandardFlat, seed: int) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    box = flat.box()
    lo_band, hi_band = math.inf, 0.0
    for _ in range(40):  # seeded lattice pairs, kept when 20 apart in L1
        s = [int(rng.integers(lo, hi + 1)) for lo, hi in box.intervals]
        t = [int(rng.integers(lo, hi + 1)) for lo, hi in box.intervals]
        l1 = sum(abs(a - b) for a, b in zip(s, t))
        if l1 < 20:
            continue
        d = model_distance(flat.eval(s), flat.eval(t))
        lo_band = min(lo_band, d / l1)
        hi_band = max(hi_band, d / l1)
    return lo_band, hi_band


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _measure_path_constants(surface: ModelSurface, rng: np.random.Generator,
                            n_pairs: int) -> tuple[float, float]:
    """Worst multiplicative and additive quasi-geodesic defects of
    constructed paths over a random suite."""
    lam, add = 1.0, 0.0
    for _ in range(n_pairs):
        x, y = random_pair(surface, rng, steps=18, big_twist=25, min_distance=30)
        path = preferred_path(x, y, verify=False)
        pts = path.points
        n = len(pts)
        stride = max(1, n // 30)
        idx = list(range(0, n, stride)) + [n - 1]
        pairs = [(model_distance(pts[i], pts[j]), j - i)
                 for ai, i in enumerate(idx) for j in idx[ai + 1:]]
        for d, gap in pairs:
            if d > 0 and gap >= 20:
                lam = max(lam, gap / d, d / gap)
        for d, gap in pairs:
            add = max(add, d - lam * gap, gap / lam - d)
    return lam, add


def calibrate(seed: int = 42, scale: float = 1.0) -> Constants:
    """Deterministic sweep freezing every constant the toolkit treats as
    uniform.  Idempotent given the seed; meta records the stability
    margins (window doubling, walk-length doubling)."""
    rng = np.random.default_rng(seed)
    values: dict[str, float] = {}
    meta: dict[str, Any] = {"seed": seed, "scale": scale}
    n = lambda k: max(4, int(k * scale))
    marking2 = ModelSurface(((1, 1), (1, 1)), flavor="marking")
    marking1 = ModelSurface(((1, 1),), flavor="marking")
    augmented1 = ModelSurface(((1, 1),), flavor="augmented")

    # Farey thinness: random triples, plus every triple of a small ball
    tris = [[random_slope(rng, 40) for _ in range(3)] for _ in range(n(200))]
    tris = [tri for tri in tris if len(set(tri)) == 3]
    tris += itertools.combinations(farey_ball(0, 1, 3), 3)
    values["delta_farey"] = farey_thinness(tris)
    values["delta_horoball"] = 1.0  # log(1+sqrt(2)) rounded up

    # bounded geodesic image constant, with window-doubling stability
    def _bgit_max(span: int, count: int) -> float:
        out = 0.0
        for _ in range(count):
            a, b = random_slope(rng, span), random_slope(rng, span)
            core = random_slope(rng, 8)
            if a == b or a == core or b == core:
                continue
            v = consreal.bgit_audit(farey_geodesic(a, b), core, math.inf)
            if not v.disjoint_hit:
                out = max(out, v.realized)
        return out

    m0_a = _bgit_max(30, n(400))
    m0_b = _bgit_max(60, n(400))
    values["m0_bgit"] = max(m0_a, m0_b) + 2.0  # margin over the sweep
    meta["m0_window_doubling"] = [m0_a, m0_b]

    # consistency constant over widened windows, and realization round trips
    m1 = 0.0
    d_rt = 0.0
    d_real = 0.0
    for surf in (marking2, augmented1):
        for _ in range(n(120)):
            x = random_point(surf, rng, steps=20)
            extra = [(int(rng.integers(surf.n_components)), random_slope(rng, 10))
                     for _ in range(4)]
            sys = consreal.exact_system_for(x, extra_cores=[
                (c, s) for c, s in extra if s != x.alpha(c)])
            z = consreal.tuple_of_projections(x, sys)
            rep = consreal.consistency_check(sys, z, m=math.inf)
            m1 = max(m1, rep.realized_m)
    values["m1_consistency"] = m1 + 2.0  # margin over the sweep
    values["m_realize"] = values["m1_consistency"] + 2.0
    for surf in (marking2, augmented1):
        for _ in range(n(120)):
            x = random_point(surf, rng, steps=20)
            sys = consreal.exact_system_for(x)
            z = consreal.tuple_of_projections(x, sys)
            x2 = consreal.realize(sys, z, m=values["m_realize"])
            d_rt = max(d_rt, model_distance(x, x2))
            z2 = consreal.tuple_of_projections(x2, sys)
            d_real = max(d_real, consreal.consistency_check(sys, z2, math.inf).realized_m)
    values["d_roundtrip"] = d_rt + 2.0
    values["d_realization"] = max(d_real, m1) + 2.0

    # efficiency allowance, Morse bound, extraction bound
    theta_meas = 0.0
    m_morse = 0.0
    fh = farey_handle()
    for R in (100.0, 200.0, 400.0, 800.0):
        for _ in range(n(12)):
            tr = farey_efficient_trace(rng, R, eps=0.05)
            eR = 0.05 * R
            delta = effdiff.coarse_length(tr, eR)
            theta_meas = max(theta_meas, (delta - tr.endpoint_distance()) / eR)
            seg = fh.geodesic(tr.points[0], tr.points[-1])
            exc = max(min(fh.distance(p, v) for v in seg) for p in tr.points)
            m_morse = max(m_morse, exc / eR)
    values["theta_eff"] = max(6.0, math.ceil(theta_meas * 1.5))
    values["m_morse"] = max(1.0, math.ceil(m_morse * 1.5 * 4) / 4)
    values["kappa_subsegment"] = 2.0

    lam, add = _measure_path_constants(marking2, rng, n_pairs=n(15))
    lam_a, add_a = _measure_path_constants(augmented1, rng, n_pairs=n(8))
    values["lambda_path"] = math.ceil(max(lam, lam_a) * 2.0) + 1
    values["c_path"] = math.ceil(max(add, add_a) * 2.0) + 4 * marking2.threshold
    values["lambda_unparam"] = 4.0
    values["c_unparam"] = 8.0

    # hull constant: every constructed path stays in its own hull
    kappa0 = 0.0
    for _ in range(n(12)):
        x, y = random_pair(marking2, rng, steps=15, big_twist=20)
        path = preferred_path(x, y, verify=False)
        q = pathsflats.HullQuery(x, y, kappa=math.inf)
        for p in path.points[:: max(1, len(path.points) // 25)]:
            kappa0 = max(kappa0, max(q.side_distance(w, surfmodel.project(p, w))
                                     for w in q.sides))
    values["kappa_hull"] = math.ceil(kappa0) + 2.0
    values["kappa_hull_transfer"] = 2 * values["kappa_hull"] + 2.0

    # projection-graph thresholds
    k_edge = 0.0
    for _ in range(n(40)):
        x, y = random_pair(marking1, rng, steps=12, big_twist=18)
        win = surfmodel.working_window(x, y)[0]
        geo = farey_geodesic(x.alpha(0), y.alpha(0))
        for u, v in zip(geo, geo[1:]):
            for w in win:
                if w in (u, v):
                    continue
                # d_W of the boundaries of U and V, in the marking annular metric
                k_edge = max(k_edge, float(abs(twist_number(w, u) - twist_number(w, v))))
    values["k_pk"] = math.ceil(k_edge) + 2.0
    k_prime = values["k_pk"] + 1.0
    pairs = [random_pair(marking1, rng, steps=14, big_twist=25) for _ in range(n(60))]
    while True:
        if all(bbf.lower_bound_audit(x, y, values["k_pk"], k_prime).ok
               for x, y in pairs):
            break
        k_prime *= 2.0
        if k_prime > 1e6:
            raise RuntimeError("no admissible K' found")
    values["k_prime"] = 2.0 * k_prime  # headroom over the sweep

    # single-move displacement of the embedding
    l_psi = 0.0
    x0 = base_point(marking1)
    for mv in (lambda p: twist_move(p, 0, 1), lambda p: flip_move(p, 0)):
        y0 = mv(x0)
        l_psi = max(l_psi, bbf.embedded_distance(x0, y0, values["k_pk"]))
    values["l_psi"] = l_psi + 1.0

    # embedding band, stable under doubling the walk length
    def band(steps: int, count: int) -> tuple[float, float]:
        ps = [random_pair(marking1, rng, steps=steps, big_twist=25,
                          min_distance=12) for _ in range(count)]
        return bbf.embedding_audit(ps, values["k_pk"], cutoff=10.0)

    b1, b2 = band(12, n(40)), band(24, n(40))
    values["psi_ratio_lo"] = min(b1[0], b2[0]) * 0.5
    values["psi_ratio_hi"] = max(b1[1], b2[1]) * 2.0
    meta["psi_band_doubling"] = [list(b1), list(b2)]

    # antichain and threshold-change coefficients; pairs whose every
    # coordinate falls between the thresholds have an unbounded ratio
    # (the comparability carries additive slack), so the coefficient is
    # frozen over pairs with at least one surviving term
    a_ac = 1.0
    a_th = 1.0
    th_skipped = 0
    for _ in range(n(150)):
        x, y = random_pair(marking2, rng, steps=18, big_twist=60)
        for comp in range(2):
            ac = pathsflats.antichain_build(x, y, comp, t0=10.0, t1=20.0,
                                            a_bound=math.inf)
            a_ac = max(a_ac, len(ac.members) / max(1.0, ac.d_w))
        if model_distance(x, y) >= 100:
            ratio = surfmodel.threshold_audit(x, y, 10.0, 40.0)
            if math.isinf(ratio):
                th_skipped += 1
            else:
                a_th = max(a_th, ratio)
    values["a_antichain"] = math.ceil(a_ac * 1.5)
    values["a_threshold"] = math.ceil(a_th * 1.5)
    meta["threshold_infinite_pairs"] = th_skipped

    # backtrack extraction bound
    c_bb = 0.5
    for _ in range(n(6)):
        x, y = random_pair(marking1, rng, steps=14, big_twist=40, min_distance=60)
        tr = backtracked_trace(x, y, eps=0.05, R=400.0, rng=rng,
                               constants=Constants(values=dict(values)))
        out = extract_no_backtrack(tr, x, y, eps=0.05,
                                   constants=Constants(values=dict(values)))
        c_bb = max(c_bb, out.excursion / (0.05 * 400.0))
    values["c_bb"] = max(1.0, math.ceil(c_bb * 1.5 * 4) / 4)

    # fellow-traveling and design constants (the pipeline probe below
    # reads several of these)
    values["c0_steady"] = 2.0
    values["d0_progress"] = 30.0
    values["c0_endpoints"] = 0.05
    values["c_region_proximity"] = 2.0 * marking2.threshold
    values["kappa_fellow"] = 5.0
    values["c1_separation"] = values["delta_farey"] * 2 + 3.0
    values["c_near"] = 8.0
    values["sigma0"] = 0.125
    values["bdelta_mult"] = 2.0
    values["kappa_m"] = 4.0
    values["kappa_theta"] = 2.0

    # fit coefficient from noisy flats at a small scale
    values["c_fit"] = 1.0
    values["k1_net"] = 2.0
    values["kappa_net"] = 4.0
    values["orthant_band"] = 4.0
    cfg = ExperimentConfig(marking2, eps0=0.1, theta0=0.1, r0=8.0, seed=seed,
                           noise=2)
    cn_try = Constants(values=dict(values), meta=dict(meta))
    pipe = _flat_pipeline(cfg, cn_try)
    fits = [s for s in pipe.stages if s["stage"] == "flat_fit"]
    if fits:
        realized = fits[0]["fit"] / (fits[0]["cap"] / cn_try["c_fit"])
        values["c_fit"] = max(1.0, math.ceil(realized * 2 * 4) / 4)
    meta["pipeline_probe_passed"] = bool(pipe.passed)

    return Constants(values=values, meta=meta)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load_json_arg(arg: str, what: str, parse: Callable[[Any], Any]):
    """`parse` of the JSON document `arg` (inline, or @file); a missing key, a
    wrong type or values a validating constructor rejects are usage errors."""
    try:
        return parse(json.loads(Path(arg[1:]).read_text() if arg.startswith("@") else arg))
    except KeyError as exc:
        raise argparse.ArgumentError(None, f"{what} lacks the key {exc.args[0]!r}") from None
    except (OSError, TypeError, ValueError, IndexError) as exc:
        raise argparse.ArgumentError(None, f"bad {what}: {exc}") from None


def _from_flags(build: Callable, *args, **kwargs):
    """`build(*args, **kwargs)` on values read from flags; the ValueError
    of a rejected value is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from None


def _emit(doc: dict, out: str | None) -> None:
    """Write a verb's document as strict JSON: a NaN or an infinity raises
    instead of printing a token no JSON parser reads."""
    text = json.dumps(doc, indent=1, sort_keys=True, default=str, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _surface_arg(ns) -> ModelSurface:
    if ns.surface:
        return _load_json_arg(ns.surface, "surface", ModelSurface.from_json)
    return _from_flags(ModelSurface, tuple((1, 1) for _ in range(ns.components)),
                       flavor=ns.flavor)


def _points_arg(ns, *names: str) -> list[ModelPoint]:
    """The named point arguments, on the surface the flags describe."""
    surface = _surface_arg(ns)
    return [_load_json_arg(getattr(ns, n), "point", lambda doc: ModelPoint.from_json(surface, doc))
            for n in names]


def _constants_arg(ns) -> Constants:
    if getattr(ns, "constants", None):
        return Constants.load(ns.constants)
    return default_constants()


def _config_arg(ns, **fields) -> ExperimentConfig:
    """The --config document, else a config from the surface flags, the
    seed and the verb's own fields."""
    if ns.config:
        return _load_json_arg(ns.config, "config", ExperimentConfig.from_json)
    return _from_flags(ExperimentConfig, _surface_arg(ns), seed=ns.seed, **fields)


def _slope_arg(text: str) -> Slope:
    """An argparse type for a slope written p/q."""
    try:
        p, q = text.split("/")
        return Slope(int(p), int(q))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a slope p/q, got {text!r}") from None


def _int_at_least(lo: int) -> Callable[[str], int]:
    """An argparse type for a flag that counts something: an integer >= lo."""
    def parse(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or int(text) < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return int(text)
    return parse


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _stats(ns):
    if (ns.genus is None) != (ns.punctures is None):
        raise argparse.ArgumentError(None, "--genus and --punctures must be given together")
    if ns.genus is not None:
        xi, rank = _from_flags(lambda: surfmodel.topology_stats(
            ns.genus, ns.punctures, ns.components, surfmodel.Flavor.named(ns.flavor)))
        return {"complexity": xi, "rank_top": rank, "surface": None}
    surface = _surface_arg(ns)
    xi, rank = surface_stats(surface)
    return {"complexity": xi, "rank_top": rank, "surface": surface.to_json()}


def _dist(ns):
    x, y = _points_arg(ns, "x", "y")
    total, contrib = surfmodel.distance_formula(x, y)
    return {"distance": total, "contributions": [[repr(w), d] for w, d in contrib]}


def _project(ns):
    x, = _points_arg(ns, "x")
    w = Subsurface("component" if ns.core is None else "annulus", ns.comp, ns.core)
    return {"subsurface": repr(w),
            "coordinate": consreal._coord_json(surfmodel.project(x, w))}


def _delta(ns):
    """Thinness of seeded triples of a Farey ball: a prefix of one seeded
    stream, so the estimate never falls as --samples grows."""
    ball = _from_flags(farey_ball, ns.lo, ns.hi, ns.depth)
    n = len(ball)
    rng = np.random.default_rng(ns.seed)
    tris = ([ball[int(i)] for i in rng.choice(n, size=3, replace=False)]
            for _ in range(ns.samples if n >= 3 else 0))
    edges = sum(farey_adjacent(a, b) for a, b in itertools.combinations(ball, 2))
    return {"delta": farey_thinness(tris), "vertices": n, "edges": edges}


def _efficiency(ns):
    ts, vals = _load_json_arg(ns.trace, "trace", lambda doc: (
        tuple(float(t) for t in doc["times"]), tuple(float(v) for v in doc["values"])))
    cn = _constants_arg(ns)
    try:  # the samples, then a scale fitting their span and time steps
        # no (K, C) bounds raw input, and nothing below reads them
        tr = PathTrace(ts, vals, real_line_handle(), K=math.inf, C=0.0)
        ok = effdiff.efficiency_test(tr, ns.scale, ns.eps, cn["theta_eff"])
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from None
    delta = effdiff.coarse_length(tr, ns.eps * ns.scale)
    if ns.csv:
        lo, hi = min(vals[0], vals[-1]), max(vals[0], vals[-1])
        _write_csv(ns.csv, ["time", "value", "excursion"],
                   ([t, v, max(0.0, lo - v, v - hi)] for t, v in zip(ts, vals)))
    return {"efficient": bool(ok), "coarse_length": delta,
            "endpoint_distance": tr.endpoint_distance()}, ok


def _differentiate(ns):
    if ns.map == "staircase":
        step = ns.step

        def stair(P):
            k, rem = np.divmod(np.asarray(P, float)[:, 0], 2 * step)
            return list(zip((step * k + np.minimum(rem, step)).tolist(),
                            (step * k + np.maximum(0.0, rem - step)).tolist()))

        fmap = BoxMap(stair, lp_handle(math.inf), K=1.0, C=1.0)
        box = Box.cube(ns.box, 1)
    else:
        flat = twist_flat(_surface_arg(ns), span=2 * ns.box)
        fmap = noisy_flat_map(flat, 2, ns.seed)
        box = Box.cube(ns.box, flat.dim)
    return _from_flags(effdiff.differentiate_box, fmap, box, ns.eps0, ns.theta0, ns.r0,
                       constants=_constants_arg(ns)).to_json()


def _tuple_coords(surface: ModelSurface, doc) -> dict:
    """The [subsurface, coordinate] pairs of a `realize` tuple: a slope for
    a component, an annular coordinate of the surface's flavor for an
    annulus, each on a component of the surface."""
    coords = {}
    for w, c in doc:
        core = Slope.from_json(w["core"]) if w.get("core") else None
        sub = Subsurface(w["kind"], w["comp"], core)
        if not 0 <= sub.comp < surface.n_components:
            raise ValueError(f"{sub} is not on a component of the surface")
        coords[sub] = (Slope.from_json(c["slope"]) if sub.kind == "component" else
                       surfmodel.annular_coordinate_point(surface, c["twist"], c.get("height")))
    return coords


def _realize(ns):
    surface = _surface_arg(ns)
    m = _constants_arg(ns)["m_realize"]
    coords = _load_json_arg(ns.tuple, "tuple", lambda doc: _tuple_coords(surface, doc))
    system = consreal.ExactSystem(surface, coords.keys())
    try:
        return consreal.realize(system, coords, m=m).to_json()
    except (consreal.MissingProjectionError, consreal.InconsistentTupleError) as exc:
        raise argparse.ArgumentError(None, exc.args[0]) from None


def _hull(ns):
    x, y, z = _points_arg(ns, "x", "y", "z")
    cn = _constants_arg(ns)
    kappa = ns.kappa if ns.kappa is not None else cn["kappa_hull"]
    ok, worst = pathsflats.hull_membership(_from_flags(pathsflats.HullQuery, x, y, kappa), z)
    return {"member": bool(ok), "kappa": kappa if math.isfinite(kappa) else None,
            "worst": repr(worst) if worst else None}, ok


def _psi(ns):
    x, y = _points_arg(ns, "x", "y")
    emb = bbf.embedding_for_pair(x, y, _constants_arg(ns)["k_pk"])
    dc = emb.distance(emb.project(x), emb.project(y))
    return {"embedded_distance": dc, "model_distance": model_distance(x, y),
            "window_dump": [t.dump() for t in emb.trees.values()]}


def _bbf_audit(ns):
    surface = _surface_arg(ns)
    cn = _constants_arg(ns)
    rng = np.random.default_rng(ns.seed)
    fails = []
    for i in range(ns.pairs):
        x, y = random_pair(surface, rng, steps=14, big_twist=25)
        v = bbf.lower_bound_audit(x, y, cn["k_pk"], cn["k_prime"])
        if not v.ok:
            fails.append({"pair": i, "lhs": v.lhs, "rhs": v.rhs})
    return {"pairs": ns.pairs, "failures": fails}, not fails


def _preferred(ns):
    x, y = _points_arg(ns, "x", "y")
    path = preferred_path(x, y, _constants_arg(ns))
    if ns.csv:
        _write_csv(ns.csv, ["step", "d_to_start", "d_to_end"],
                   ([i, model_distance(pt, x), model_distance(pt, y)]
                    for i, pt in enumerate(path.points)))
    return path.to_json()


def _flat_fit(ns):
    surface = _surface_arg(ns)
    cn = _constants_arg(ns)
    rng = np.random.default_rng(ns.seed)
    flat = twist_flat(surface, ns.span)
    fmap = noisy_flat_map(flat, ns.noise, ns.seed)
    pts = fmap.images(np.array([[int(rng.integers(lo, hi + 1)) for lo, hi in flat.box().intervals]
                                for _ in range(ns.samples)], float))
    fit, _best = flat_fit(pts, candidate_flats(pts, cn) + [flat])
    return {"fit": fit, "samples": ns.samples, "noise": ns.noise}


def _pipeline(ns):
    cn = _constants_arg(ns)
    rep = _flat_pipeline(_config_arg(ns, eps0=ns.eps0, theta0=ns.theta0, r0=ns.r0,
                                     noise=ns.noise), cn)
    return rep.to_json(), rep.passed


def _rank(ns):
    """--box sizes the refutation's box (60 when unset); for n <= rank it
    overrides the side of the pipeline's box, which must then hold level 1."""
    cn = _constants_arg(ns)
    cfg = _config_arg(ns, eps0=ns.eps0, box_side=ns.box)
    rank = surface_stats(cfg.surface)[1]
    if ns.n > rank + 1:
        raise argparse.ArgumentError(None, f"--n {ns.n} exceeds rank + 1 = {rank + 1}")
    if ns.n == rank + 1 and ns.box is None and not ns.config:
        cfg.box_side = 60
    if ns.n <= rank and cfg.box_side:
        # the twist flat's pipeline differentiates a cube with one axis per component
        need = effdiff.required_size(cfg.eps0, cfg.r0, _flat_map_c(cfg.surface, 0))
        size = Box.cube(cfg.box_side, cfg.surface.n_components).size
        if size < need:
            raise argparse.ArgumentError(
                None, f"box side {cfg.box_side} is below the pipeline's required size "
                f"{need:g} for n = {ns.n} <= rank {rank}")
    rep = rank_experiment(cfg, ns.n, constants=cn)
    return rep.to_json(), rep.passed


def _calibrate(ns):
    """Writes the constants file itself: no JSON document on stdout."""
    cn = calibrate(seed=ns.seed, scale=ns.scale)
    out = ns.out or "constants.json"
    cn.save(out)
    print(f"wrote {out} ({len(cn.values)} constants)", file=sys.stderr)


def _arg(*names: str, **kw) -> tuple[tuple[str, ...], dict]:
    return names, kw


# the types of flags that count samples, pairs or a span, and of a noise level
COUNT, NOISE = _int_at_least(1), _int_at_least(0)
# flags every verb takes
COMMON_ARGS = [
    _arg("--seed", type=_int_at_least(0), default=0), _arg("--constants"), _arg("--out"),
    _arg("--surface", help="surface JSON (inline or @file)"),
    _arg("--components", type=int, default=1), _arg("--flavor", default="marking"),
]
XY = [_arg("x"), _arg("y")]

# verb -> (help, its own arguments, handler).  A handler returns its JSON
# document, or (document, verdict) when a failed verdict exits with code 1.
VERBS: dict[str, tuple[str, list, Callable]] = {
    "stats": ("complexity and rank",
              [_arg("--genus", type=int), _arg("--punctures", type=int)], _stats),
    "dist": ("distance formula between two points", XY, _dist),
    "project": ("subsurface projection", [
        _arg("x"), _arg("--comp", type=int, default=0),
        _arg("--core", type=_slope_arg, help="annulus core 'p/q' (else component)")],
        _project),
    "delta": ("thin-triangle estimate on a Farey chunk", [
        _arg("--lo", type=int, default=-2), _arg("--hi", type=int, default=3),
        _arg("--depth", type=int, default=5), _arg("--samples", type=COUNT, default=400)],
        _delta),
    "efficiency": ("coarse length test of a trace", [
        _arg("trace", help="JSON {times, values} on the real line"),
        _arg("--scale", type=float, required=True), _arg("--eps", type=float, required=True),
        _arg("--csv", help="write the excursion profile")], _efficiency),
    "differentiate": ("scale search on a built-in map", [
        _arg("--map", choices=["staircase", "flat-noise"], default="staircase"),
        _arg("--step", type=COUNT, default=16), _arg("--box", type=COUNT, default=4096),
        _arg("--eps0", type=float, default=0.1), _arg("--theta0", type=float, default=0.1),
        _arg("--r0", type=float, default=8.0)], _differentiate),
    "realize": ("realize a consistent tuple",
                [_arg("tuple", help="JSON list of [subsurface, coordinate]")], _realize),
    "hull": ("hull membership", XY + [_arg("z"), _arg("--kappa", type=float)], _hull),
    "psi": ("embed two points and compare metrics", XY, _psi),
    "bbf-audit": ("lower bound audit on seeded pairs",
                  [_arg("--pairs", type=COUNT, default=50)], _bbf_audit),
    "preferred": ("construct a preferred path",
                  XY + [_arg("--csv", help="write the distance profile")], _preferred),
    "flat-fit": ("fit samples of a noisy flat", [
        _arg("--span", type=COUNT, default=40), _arg("--noise", type=NOISE, default=2),
        _arg("--samples", type=COUNT, default=25)], _flat_fit),
    "pipeline": ("box map to standard flat", [
        _arg("--config", help="ExperimentConfig JSON"),
        _arg("--eps0", type=float, default=0.05), _arg("--theta0", type=float, default=0.1),
        _arg("--r0", type=float, default=50.0), _arg("--noise", type=NOISE, default=3)],
        _pipeline),
    "rank": ("rank experiment", [
        _arg("--config"), _arg("--n", type=COUNT, required=True),
        _arg("--eps0", type=float, default=0.05),
        _arg("--box", type=COUNT, help="box side (default: 60 for n = rank + 1, else the "
             "pipeline's own side)")],
        _rank),
    "calibrate": ("freeze the constants file",
                  [_arg("--scale", type=float, default=1.0)], _calibrate),
}


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="coarsegeo",
                                 description="desk-scale coarse geometry toolkit")
    sub = ap.add_subparsers(dest="verb", required=True)
    parsers = {}
    for verb, (help_text, args, _handler) in VERBS.items():
        p = parsers[verb] = sub.add_parser(verb, help=help_text)
        for names, kw in COMMON_ARGS + args:
            p.add_argument(*names, **kw)
    parsers["calibrate"].set_defaults(seed=42)  # the seed data/constants.json was frozen with
    ns = ap.parse_args(argv)
    try:
        out = VERBS[ns.verb][2](ns)
    except argparse.ArgumentError as exc:
        parsers[ns.verb].error(str(exc))
    except surfmodel.InessentialSubsurfaceError as exc:
        print(f"coarsegeo {ns.verb}: {exc}", file=sys.stderr)
        return 2
    if out is None:
        return 0
    doc, ok = out if isinstance(out, tuple) else (out, True)
    _emit(doc, ns.out)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
