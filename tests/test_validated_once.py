"""Box-map images are validated once.  Points built by the private
`ModelPoint._trusted` constructor are checked against the validating
constructor, and the closed-form twist state against the twist matrix.
The checks that moved to where each invariant is established raise,
also under `python -O`, as do the argument checks of `farey_ball`,
`coarse_length` and `HullQuery`."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from coarsegeo import surfmodel
from coarsegeo.consreal import exact_system_for, realize, tuple_of_projections
from coarsegeo.effdiff import PathTrace, coarse_length
from coarsegeo.harness import noisy_flat_map, orthant_flat, random_slope, twist_flat
from coarsegeo.hypgraph import real_line_handle
from coarsegeo.pathsflats import (FlatFactor, HullQuery, PreferredPath, StandardFlat,
                                  candidate_flats, point_to_flat, preferred_path)
from coarsegeo.surfmodel import (INFINITY, ZERO, ComponentState, ModelPoint, ModelSurface,
                                 Slope, apply_matrix, base_point, flip_move, length_move,
                                 product_project, twist_move)

from oracles import canonical_transversal, twist_matrix

PANTS2 = ModelSurface(((1, 1), (0, 4)), flavor="pants")
MARKING2 = ModelSurface(((1, 1), (1, 1)), flavor="marking")
AUGMENTED2 = ModelSurface(((1, 1), (1, 1)), flavor="augmented", bers=2.0)


def assert_validated(x: ModelPoint) -> None:
    """The validating constructor accepts the states viewed from x's key
    and builds an equal point with the same hash and the same key, float
    for float; each `state(c)` view equals `states[c]`."""
    y = ModelPoint(x.surface, x.states)
    assert x == y and hash(x) == hash(y)
    assert x._key == y._key and repr(x._key) == repr(y._key)
    assert all(x.state(c) == st for c, st in enumerate(x.states))


def _lattice(flat: StandardFlat, rng, n: int):
    for _ in range(n):
        yield tuple(int(rng.integers(lo, hi + 1)) for lo, hi in flat.box().intervals)


def _path_flat(cn) -> StandardFlat:
    base = base_point(MARKING2)
    y = twist_move(flip_move(twist_move(base, 0, 30), 0), 0, -20)
    path = preferred_path(base, y, cn, verify=False)
    core = Slope(2, 5)
    return StandardFlat(base, (
        FlatFactor(0, "path", (0, len(path.points) - 1), path=path),
        FlatFactor(1, "twist", (-50, 50), core=core, tau0=canonical_transversal(core))))


def _pants_path_flat(cn) -> StandardFlat:
    base = base_point(PANTS2)
    y = ModelPoint(PANTS2, (ComponentState(Slope(7, 3)), ComponentState(Slope(-5, 2))))
    path = preferred_path(base, y, cn, verify=False)
    return StandardFlat(base, (FlatFactor(1, "path", (0, len(path.points) - 1), path=path),))


@pytest.mark.parametrize("make", [
    lambda cn: twist_flat(MARKING2, 60),
    lambda cn: twist_flat(AUGMENTED2, 60),
    lambda cn: orthant_flat(AUGMENTED2, 40),
    _path_flat,
    _pants_path_flat,
], ids=["twist-marking", "twist-augmented-bers2", "orthant", "path-and-twist", "path-pants"])
def test_flat_lattice_points_equal_the_validated_points(make, cn, rng):
    flat = make(cn)
    for t in _lattice(flat, rng, 200):
        assert_validated(flat.eval(t))
    for noise_seed in (1, 2):
        fmap = noisy_flat_map(flat, 3, noise_seed)
        for t in _lattice(flat, rng, 200):
            assert_validated(fmap.fn(t))


@pytest.mark.parametrize("surface", [MARKING2, AUGMENTED2], ids=["marking", "augmented"])
def test_images_at_one_lattice_point_and_burst_share_their_states(surface, rng):
    """The flat's state table hands out one state key per (component,
    coordinate, move): a second image at the same lattice point and burst
    shares every state key with the first, through `eval`, `eval_rows`
    and the noisy box map."""
    flat = twist_flat(surface, 60)
    fmap = noisy_flat_map(flat, 3, 5)
    for t in _lattice(flat, rng, 100):
        burst = (int(rng.integers(0, 2)), bool(rng.integers(0, 2)), int(rng.integers(-3, 4)))
        for make in (lambda: flat.eval(t), lambda: flat.eval_rows([t], [burst])[0],
                     lambda: fmap.fn(t)):
            x, y = make(), make()
            assert x is not y and x._key == y._key
            assert all(x._key[c + 1] is y._key[c + 1] for c in range(2))
    # no burst and an empty one read the same entries
    x, y = flat.eval((3, -4)), flat.eval_rows([(3, -4)], [(1, False, 0)])[0]
    assert all(x._key[c + 1] is y._key[c + 1] for c in range(2))


@pytest.mark.parametrize("surface", [MARKING2, AUGMENTED2], ids=["marking", "augmented"])
def test_burst_on_a_component_without_a_factor(surface, rng):
    """A burst on a component the flat has no factor for moves the base
    state, and the key put together from the table matches the key the
    validating constructor builds."""
    core = Slope(2, 5)
    base = twist_move(base_point(surface), 1, 7)
    flat = StandardFlat(base, (FlatFactor(0, "twist", (-50, 50), core=core,
                                          tau0=canonical_transversal(core)),))
    for t in _lattice(flat, rng, 50):
        for flip in (False, True):
            n = int(rng.integers(-5, 6))
            x = flat.eval_rows([t], [(1, flip, n)])[0]
            y = flip_move(base, 1) if flip else base
            y = twist_move(y, 1, n)
            assert_validated(x)
            assert x.states[0] == flat.eval(t).states[0] and x.states[1] == y.states[1]


def test_burst_component_out_of_range_is_refused():
    flat = twist_flat(MARKING2, 10)
    for comp in (-1, 2):
        with pytest.raises(IndexError):
            flat.eval_rows([(0, 0)], [(comp, True, 1)])


def test_orthant_points_off_the_lattice_equal_the_validated_points(rng):
    flat = orthant_flat(AUGMENTED2, 40)
    for t in rng.uniform(-1.0, 700.0, size=(200, 2)):
        assert_validated(flat.eval(tuple(t)))


@pytest.mark.parametrize("surface", [PANTS2, MARKING2, AUGMENTED2],
                         ids=["pants", "marking", "augmented"])
def test_move_chains_equal_the_validated_points(surface, cn, rng):
    """Chains of moves, product-region projections and realized
    projection tuples; a pants point has no twist, flip or length move."""
    x = base_point(surface)
    for _ in range(400):
        comp = int(rng.integers(0, 2))
        step = int(rng.integers(0, 5))
        if step == 3:
            x = product_project(x, {comp: random_slope(rng, 9)})
        elif step == 4:
            system = exact_system_for(x)
            x = realize(system, tuple_of_projections(x, system), m=cn["m_realize"])
        elif surface.flavor == "pants":
            continue
        elif step == 0:
            x = twist_move(x, comp, int(rng.integers(-10**6, 10**6 + 1)))
        elif step == 1:
            x = flip_move(x, comp)
        elif surface.flavor == "augmented":
            x = length_move(x, comp, float(rng.uniform(0.1, 3.0)))
        assert_validated(x)


@pytest.mark.parametrize("make, moving", [(_path_flat, True),
                                          (lambda cn: orthant_flat(AUGMENTED2, 40), False)],
                         ids=["path-and-twist", "orthant"])
def test_rebuilt_points_equal_the_validated_points(make, moving, cn, monkeypatch):
    """Every point `ModelPoint.with_state` builds while `candidate_flats`
    reads a noisy flat's samples and `point_to_flat` measures them
    against each candidate (`_factor_min_distance`) equals the
    validated point.  Where a component of the samples moves,
    `candidate_flats` builds a path factor's endpoint and its path."""
    flat = make(cn)
    axes = [np.linspace(lo, hi, 4) for lo, hi in flat.box().intervals]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    samples = noisy_flat_map(flat, 3, 7).images(grid)
    built, with_state = [], ModelPoint.with_state

    def recording(x, comp, key):
        built.append(with_state(x, comp, key))
        return built[-1]

    monkeypatch.setattr(ModelPoint, "with_state", recording)
    flats = candidate_flats(samples, cn) + [flat]
    from_candidates = len(built)
    for f in flats:
        for p in samples[:4]:
            point_to_flat(f, p)
    assert (from_candidates > 0) == moving and len(built) > from_candidates
    for x in built:
        assert_validated(x)


def test_closed_form_twist_state_is_the_twist_matrix_image(rng):
    base = base_point(ModelSurface(((1, 1),), flavor="marking"))
    cores = [INFINITY, Slope(1, 1), Slope(-3, 7)]
    cores += [Slope(int(rng.integers(-500, 501)), int(rng.integers(1, 500))) for _ in range(60)]
    for core in cores:
        if core == ZERO:
            continue
        tau0 = apply_matrix(twist_matrix(core, int(rng.integers(-99, 100))),
                            canonical_transversal(core))
        f = FlatFactor(0, "twist", (-3 * 10**6, 3 * 10**6), core=core, tau0=tau0)
        flat = StandardFlat(base, (f,))
        for k in [0, 1, -1, 10**6, -10**6] + rng.integers(-10**6, 10**6 + 1, 20).tolist():
            tau = apply_matrix(twist_matrix(core, k), tau0)
            assert flat.factor_state(f, f._twist0 + k) == (core.p, core.q, tau.p, tau.q, None)


# --- invariants checked once, where they are established ------------------------------

def _path_on_another_surface():
    other = ModelSurface(((1, 1), (1, 1)), flavor="marking", threshold=12.0)
    x = base_point(other)
    path = PreferredPath((x, twist_move(x, 0, 3)), (("twist", 0, 3),))
    StandardFlat(base_point(MARKING2), (FlatFactor(0, "path", (0, 1), path=path),))


NEGATIVE = {
    "twist-factor-not-adjacent":
        lambda: FlatFactor(0, "twist", (0, 4), core=ZERO, tau0=Slope(2, 3)),
    "ray-length-underflow": lambda: orthant_flat(AUGMENTED2, 1000).eval((800, 0)),
    "path-factor-on-another-surface": _path_on_another_surface,
    "ray-factor-on-marking": lambda: StandardFlat(base_point(MARKING2), (
        FlatFactor(0, "ray", (0, 5), core=ZERO, tau0=INFINITY),)),
    "twist-factor-on-pants": lambda: StandardFlat(
        base_point(ModelSurface(((1, 1),), flavor="pants")),
        (FlatFactor(0, "twist", (0, 5), core=ZERO, tau0=INFINITY),)),
    "factor-component-out-of-range": lambda: StandardFlat(base_point(MARKING2), (
        FlatFactor(2, "twist", (0, 5), core=ZERO, tau0=INFINITY),)),
    "flat-eval-wrong-length": lambda: twist_flat(MARKING2, 10).eval((1, 2, 3)),
    "box-map-point-wrong-length": lambda: noisy_flat_map(twist_flat(MARKING2, 10), 3, 1).fn(
        np.array([1.0, 2.0, 3.0])),
    "batch-wrong-width": lambda: noisy_flat_map(twist_flat(MARKING2, 10), 3, 1).images(
        np.zeros((4, 3))),
    "farey-ball-reversed": lambda: surfmodel.farey_ball(3, -2, 2),
    "coarse-length-scale-nan": lambda: coarse_length(
        PathTrace((0.0, 1.0), (0.0, 1.0), real_line_handle(), K=1.0, C=0.0), math.nan),
    "hull-kappa-negative": lambda: HullQuery(base_point(MARKING2), base_point(MARKING2), -1.0),
}


@pytest.mark.parametrize("name", NEGATIVE)
def test_established_invariants_raise(name):
    with pytest.raises(ValueError):
        NEGATIVE[name]()


def test_established_invariants_raise_under_optimize_flag():
    script = textwrap.dedent("""
        import sys
        if __debug__:
            sys.exit("not running under -O")
        from test_validated_once import NEGATIVE
        for name, case in NEGATIVE.items():
            try:
                case()
            except ValueError as err:
                print(name, "raised:", err)
            else:
                sys.exit(f"{name} went through")
    """)
    here = Path(__file__).resolve().parent
    src = str(Path(surfmodel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(here)])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, cwd=here,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("raised:") == len(NEGATIVE)
