"""The noisy box map and the greedy net packing against the loops they
replaced (`tests/oracles.py`), on seeded inputs.

`harness.noisy_flat_map` maps a batch of points at a time
(`BoxMap.images`): it rounds and clamps the batch with `np.rint` and
`np.clip`, composes each burst of unit twists into one twist, and
`StandardFlat.eval_rows` applies the burst to the component's state,
read with its key from the flat's state table, before it builds the
point; `fn` is a batch of one.  The oracle rounds with Python `round`,
evaluates each factor state by its definition and applies the burst one
move at a time, each move a validated `ModelPoint`, with twist matrices
conjugated from a shear and slopes reduced by gcd.  The collapse suite
maps a batch along its last axis; its oracle is the per-point map of
each collapse.
`harness.greedy_packing` skips images equal to an earlier one; the
oracle compares every image with every kept one.  Both must give the
same points, in the same order.
"""

import numpy as np
import pytest

from coarsegeo import pathsflats
from coarsegeo.effdiff import Box
from coarsegeo.harness import (adversarial_maps, greedy_packing,
                               net_separation_count, noisy_flat_map, orthant_flat, twist_flat)
from coarsegeo.pathsflats import FlatFactor, StandardFlat, preferred_path
from coarsegeo.surfmodel import (INFINITY, ZERO, ComponentState, ModelPoint, ModelSurface,
                                 Slope, apply_matrix, base_point, flip_move, twist_move)

import oracles
from oracles import canonical_transversal, twist_matrix

MARKING2 = ModelSurface(((1, 1), (1, 1)), flavor="marking")
AUGMENTED = ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0)
PANTS2 = ModelSurface(((1, 1), (1, 1)), flavor="pants")
POINTS_PER_CASE = 5000


def _shifted_twist_flat(surface: ModelSurface, span: int, shift: int) -> StandardFlat:
    """`twist_flat` with every base transversal twisted `shift` times
    about the core 0/1 (shift 0 is `twist_flat` itself)."""
    tau0 = apply_matrix(twist_matrix(ZERO, shift), INFINITY)
    return StandardFlat(base_point(surface), tuple(
        FlatFactor(c, "twist", (-span, span), core=ZERO, tau0=tau0)
        for c in range(surface.n_components)))


@pytest.mark.parametrize("tau_shift", [0, 7])
@pytest.mark.parametrize("noise", [0, 1, 3, 6])
@pytest.mark.parametrize("surface", [MARKING2, AUGMENTED], ids=["marking", "augmented"])
def test_noisy_flat_map_matches_step_by_step_burst(surface, noise, tau_shift):
    flat = _shifted_twist_flat(surface, 300, tau_shift)
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
    lambda cn: _shifted_twist_flat(MARKING2, 300, 7),
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
    # the same points 50 at a time through images, on a fresh flat
    flat = make(cn)
    fmap = noisy_flat_map(flat, noise, seed)
    for lo in range(0, len(pts), 50):
        for p, got, w in zip(pts[lo:lo + 50], fmap.images(pts[lo:lo + 50]), want[lo:lo + 50]):
            _assert_same_image(got, w, p)
        assert len(flat._states) <= 5


def _assert_same_image(got: ModelPoint, want: ModelPoint, p) -> None:
    """Equal keys, float for float, equal hashes and equal state views."""
    assert got == want and hash(got) == hash(want), p
    assert got.states == want.states and repr(got._key) == repr(want._key), p


# --- images(P): the batch path against fn and the oracle ------------------------

def _batches(box: Box, seed: int) -> list[np.ndarray]:
    """Seeded lines through the box and past its sides, every third point
    on a half-integer, and a net that overhangs the box by a quarter side
    on each end, all on half-integers."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box.intervals, float).T
    span = hi - lo
    out = []
    for _ in range(3):
        origin = lo + rng.uniform(-0.25, 1.25, lo.size) * span
        direction = rng.normal(size=lo.size)
        ts = np.linspace(-0.75, 0.75, 101) * span.max()
        line = origin + ts[:, None] * (direction / np.linalg.norm(direction))
        line[::3] = np.floor(line[::3]) + 0.5
        out.append(line)
    axes = [np.linspace(a - (b - a) / 4, b + (b - a) / 4, 7) for a, b in box.intervals]
    net = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    out.append(np.floor(net) + 0.5)
    return out


def _assert_images(fmap, P: np.ndarray, oracle) -> None:
    """images(P) is fn of each row and the oracle's image, key for key."""
    got = fmap.images(P)
    assert isinstance(got, list) and len(got) == len(P)
    for p, x in zip(P, got):
        _assert_same_image(x, fmap.fn(p), p)
        _assert_same_image(x, oracle(p), p)


FLATS = {
    "twist-marking": lambda cn: twist_flat(MARKING2, 300),
    "twist-marking-shifted": lambda cn: _shifted_twist_flat(MARKING2, 300, 7),
    "twist-augmented": lambda cn: twist_flat(AUGMENTED, 300),
    "orthant": lambda cn: orthant_flat(AUGMENTED, 60),
    "path-marking": lambda cn: _path_flat(MARKING2, cn),
    "path-augmented": lambda cn: _path_flat(AUGMENTED, cn),
    "path-pants": lambda cn: _path_flat(PANTS2, cn),
}


@pytest.mark.parametrize("noise", [0, 2, 3, 5])
@pytest.mark.parametrize("name", FLATS)
def test_images_equal_fn_and_the_oracle_on_every_flat(name, noise, cn):
    flat = FLATS[name](cn)
    seed = 40 + noise
    fmap = noisy_flat_map(flat, noise, seed)
    for P in _batches(flat.box(), noise):
        _assert_images(fmap, P, lambda p: oracles.noisy_flat_image(flat, noise, seed, p))


@pytest.mark.parametrize("noise", [0, 3])
def test_folded_map_images_go_through_fn(noise):
    flat = twist_flat(MARKING2, 300)
    """The folded map maps its batch through the noisy map's `images`,
    and each image is the oracle's at the folded point."""
    fmap = oracles.folded_map(noisy_flat_map(flat, noise, 5), axis=0, at=100.0)

    def folded(p):
        return np.concatenate([[100.0 - abs(p[0] - 100.0)], p[1:]])

    for P in _batches(flat.box(), 3):
        _assert_images(fmap, P, lambda p: oracles.noisy_flat_image(flat, noise, 5, folded(p)))


@pytest.mark.parametrize("surface", [MARKING2, AUGMENTED], ids=["marking", "augmented"])
def test_equal_lattice_points_share_state_keys_within_a_batch(surface):
    """Rows that round and clamp to one lattice point have one burst, so
    their images share every state key."""
    flat = twist_flat(surface, 60)
    fmap = noisy_flat_map(flat, 3, 5)
    rng = np.random.default_rng(21)
    P = rng.uniform(-90.0, 90.0, size=(60, 2))
    P = np.concatenate([P, np.rint(P) + rng.uniform(-0.45, 0.45, P.shape), P[::-1]])
    groups: dict = {}
    for p, x in zip(P, fmap.images(P)):
        t = tuple(max(lo, min(hi, round(v))) for v, (lo, hi) in zip(p.tolist(),
                                                                    flat.box().intervals))
        groups.setdefault(t, []).append(x)
    shared = 0
    for first, *rest in groups.values():
        for y in rest:
            assert y is not first and y._key == first._key
            assert all(y._key[c + 1] is first._key[c + 1] for c in range(2))
            shared += 1
    assert shared >= 120


@pytest.mark.parametrize("noise", [0, 3])
@pytest.mark.parametrize("bad, error", [(np.nan, ValueError), (np.inf, OverflowError),
                                        (-np.inf, OverflowError)], ids=["nan", "inf", "-inf"])
def test_non_finite_points_raise_what_round_raises(bad, error, noise):
    """The error the oracle's `round` raises, from fn, from images with the
    bad point anywhere in the batch, and through a collapse map."""
    flat = twist_flat(MARKING2, 60)
    fmap = noisy_flat_map(flat, noise, 1)
    P = np.zeros((5, 2))
    P[3, 1] = bad
    drop_last = adversarial_maps(flat, 3, 60)[0][1]
    calls = [lambda: oracles.noisy_flat_image(flat, noise, 1, P[3]), lambda: fmap.fn(P[3]),
             lambda: fmap.images(P), lambda: drop_last.images(np.insert(P, 2, 7.0, axis=1))]
    for call in calls:
        with pytest.raises(Exception) as exc:
            call()
        assert type(exc.value) is error


def test_points_of_the_wrong_length_raise_value_error():
    fmap = noisy_flat_map(twist_flat(MARKING2, 10), 3, 1)
    calls = [lambda: fmap.fn(np.zeros(3)), lambda: fmap.fn([1.0]),
             lambda: fmap.images(np.zeros((4, 3))), lambda: fmap.images(np.zeros(4)),
             lambda: fmap.images(np.zeros((2, 2, 2)))]
    for call in calls:
        with pytest.raises(Exception) as exc:
            call()
        assert type(exc.value) is ValueError


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


# the collapse maps one point at a time, as the suite first wrote them
COLLAPSES = {
    "drop-last": lambda q, r, half: q[:r],
    "sum-last-two": lambda q, r, half: np.concatenate([q[:r - 1], [q[r - 1] + q[r] - half]]),
    "fold-last": lambda q, r, half: np.concatenate(
        [q[:r - 1], [abs(q[r] - half) + q[r - 1] - half]]),
    "mean-pair": lambda q, r, half: np.concatenate([q[:r - 1], [(q[r - 1] + q[r]) / 2.0]]),
    "swap-collapse": lambda q, r, half: np.concatenate([[q[r] - half + q[0] - half], q[1:r]]),
}


def test_images_equal_fn_and_the_oracle_on_the_collapse_suite():
    flat = twist_flat(MARKING2, 2 * SIDE)
    suite = adversarial_maps(flat, 3, SIDE)
    assert [name for name, _ in suite] == list(COLLAPSES)
    for name, fmap in suite:
        lin = COLLAPSES[name]
        for P in _batches(Box.cube(SIDE, 3), 9):
            _assert_images(fmap, P, lambda p: oracles.noisy_flat_image(
                flat, 0, 0, lin(p, flat.dim, SIDE / 2.0)))


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
