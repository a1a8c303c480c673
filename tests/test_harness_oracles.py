"""The noisy box map and the greedy net packing against the loops they
replaced (`tests/oracles.py`), on seeded inputs.

`harness.noisy_flat_map` builds one point per image: it composes its
burst of unit twists into one twist, applies the burst to the component's
state before `StandardFlat.eval` builds the point, reads each component
state and its key from the flat's state table, and rounds the lattice
point with Python `round`; the oracle evaluates each factor state by its
definition and applies the burst one move at a time, each move a
validated `ModelPoint`, with twist matrices conjugated from a shear and
slopes reduced by gcd.
`harness.greedy_packing` skips images equal to an earlier one; the
oracle compares every image with every kept one.  Both must give the
same points, in the same order.
"""

import numpy as np
import pytest

from coarsegeo import pathsflats
from coarsegeo.effdiff import Box
from coarsegeo.harness import (adversarial_maps, greedy_packing, net_separation_count,
                               noisy_flat_map, orthant_flat, twist_flat)
from coarsegeo.pathsflats import FlatFactor, StandardFlat, preferred_path
from coarsegeo.surfmodel import (ZERO, ComponentState, ModelPoint, ModelSurface, Slope,
                                 base_point, canonical_transversal, flip_move, twist_move)

import oracles

MARKING2 = ModelSurface(((1, 1), (1, 1)), flavor="marking")
AUGMENTED = ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0)
PANTS2 = ModelSurface(((1, 1), (1, 1)), flavor="pants")
POINTS_PER_CASE = 5000


@pytest.mark.parametrize("tau_shift", [0, 7])
@pytest.mark.parametrize("noise", [0, 1, 3, 6])
@pytest.mark.parametrize("surface", [MARKING2, AUGMENTED], ids=["marking", "augmented"])
def test_noisy_flat_map_matches_step_by_step_burst(surface, noise, tau_shift):
    flat = twist_flat(surface, 300, tau_shift=tau_shift)
    # tau_shift moves the hoisted twist constant off 0
    assert all((f._twist0 == 0) == (tau_shift == 0) for f in flat.factors)
    seed = 1000 + 10 * noise + tau_shift
    fmap = noisy_flat_map(flat, noise, seed)
    rng = np.random.default_rng([noise, tau_shift, len(surface.components)])
    # lattice points inside and outside the flat's box, some on half-integers
    pts = rng.uniform(-400.0, 400.0, size=(POINTS_PER_CASE, flat.dim))
    pts[:500] = np.floor(pts[:500]) + 0.5
    flipped = 0
    for p in pts:
        got, want = fmap.fn(p), oracles.noisy_flat_image(flat, noise, seed, p)
        _assert_same_image(got, want, p)
        flipped += any(st.alpha != ZERO for st in got.states)
    # about one burst in nine starts with a flip, off the core 0/1
    assert (flipped > POINTS_PER_CASE // 20) == (noise > 0)


def _path_flat(surface: ModelSurface, cn) -> StandardFlat:
    """A preferred path on component 0 and, off the pants flavor, a twist
    lattice about 2/5 on component 1."""
    base = base_point(surface)
    if surface.flavor == "pants":
        y = ModelPoint(surface, (ComponentState(Slope(7, 3)), base.states[1]))
        return StandardFlat(base, (FlatFactor(0, "path", (0, 6), path=preferred_path(
            base, y, cn, verify=False)),))
    y = twist_move(flip_move(twist_move(base, 0, 30), 0), 0, -20)
    core = Slope(2, 5)
    return StandardFlat(base, (
        FlatFactor(0, "path", (-3, 40), path=preferred_path(base, y, cn, verify=False)),
        FlatFactor(1, "twist", (-50, 50), core=core, tau0=canonical_transversal(core))))


@pytest.mark.parametrize("make", [
    lambda cn: orthant_flat(AUGMENTED, 60),
    lambda cn: _path_flat(MARKING2, cn),
    lambda cn: _path_flat(AUGMENTED, cn),
    lambda cn: _path_flat(PANTS2, cn),
], ids=["orthant", "path-marking", "path-augmented", "path-pants"])
def test_noisy_ray_and_path_flats_match_the_unfused_composition(make, cn):
    flat = make(cn)
    rng = np.random.default_rng(7)
    for noise, seed in ((0, 0), (2, 31), (5, 32)):
        fmap = noisy_flat_map(flat, noise, seed)
        pts = rng.uniform(-80.0, 80.0, size=(600, flat.dim))
        for p in pts:
            got, want = fmap.fn(p), oracles.noisy_flat_image(flat, noise, seed, p)
            _assert_same_image(got, want, p)


@pytest.mark.parametrize("make", [
    lambda cn: twist_flat(MARKING2, 300, tau_shift=7),
    lambda cn: twist_flat(AUGMENTED, 300),
    lambda cn: orthant_flat(AUGMENTED, 60),
    lambda cn: _path_flat(MARKING2, cn),
], ids=["twist-marking", "twist-augmented", "orthant", "path-marking"])
def test_bounded_state_table_gives_the_unbounded_images(make, cn, monkeypatch):
    """A flat whose state table is emptied every 5 misses gives the same
    images, bit for bit, as one that is never emptied, and the table
    never holds more than 5 entries."""
    seed, noise = 77, 3
    unbounded = make(cn)
    pts = np.random.default_rng(11).uniform(-30.0, 30.0, size=(400, unbounded.dim))
    pts = np.concatenate([pts, pts[:100]])
    want = list(map(noisy_flat_map(unbounded, noise, seed).fn, pts))
    assert len(unbounded._states) > 5
    monkeypatch.setattr(pathsflats, "_FLAT_STATES_MAX", 5)
    flat = make(cn)
    fmap = noisy_flat_map(flat, noise, seed)
    for p, w in zip(pts, want):
        got = fmap.fn(p)
        assert len(flat._states) <= 5
        _assert_same_image(got, w, p)
        assert repr(got._key) == repr(w._key), p


def _assert_same_image(got: ModelPoint, want: ModelPoint, p) -> None:
    """Equal keys, float for float, equal hashes and equal state views."""
    assert got == want and hash(got) == hash(want), p
    assert got.states == want.states and repr(got._key) == repr(want._key), p


def _net(box: Box, spacing: float) -> np.ndarray:
    axes = [np.arange(lo, hi + 1e-9, spacing) for lo, hi in box.intervals]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _assert_same_packing(fmap, box: Box, spacing: float, separation: float) -> None:
    net = _net(box, spacing)
    images = [fmap.fn(p) for p in net]
    got = greedy_packing(images, fmap.target.distance, separation)
    want = oracles.greedy_packing(images, fmap.target.distance, separation)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))
    assert net_separation_count(fmap, box, spacing, separation) == (len(net), len(want))


# acceptance 12: side 60, eps0 0.05, the flat of span 2 * side
SIDE, EPS0 = 60, 0.05


def test_packing_matches_all_pairs_loop_on_collapse_maps(cn):
    """The five collapse maps do not depend on the config seed."""
    spacing = max(1.0, cn["k1_net"] * EPS0 * SIDE)
    flat = twist_flat(MARKING2, 2 * SIDE)
    suite = adversarial_maps(flat, 3, SIDE)
    assert len(suite) == 5
    for _name, fmap in suite:
        _assert_same_packing(fmap, Box.cube(SIDE, 3), spacing, EPS0 * SIDE)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_packing_matches_all_pairs_loop_on_honest_map(seed, cn):
    spacing = max(1.0, cn["k1_net"] * EPS0 * SIDE)
    flat = twist_flat(MARKING2, 2 * SIDE)
    for noise in (0, 3):
        _assert_same_packing(noisy_flat_map(flat, noise, seed), Box.cube(SIDE, 2),
                             spacing, EPS0 * SIDE)


def test_packing_needs_positive_separation():
    with pytest.raises(ValueError):
        greedy_packing([1, 1], lambda a, b: abs(a - b), 0.0)
