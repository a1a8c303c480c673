"""The twist-table consistency check of `ExactSystem` against the generic
pair loop of `tests/oracles.py`, which also checks synthetic systems:
same verdicts, bitwise-equal realized M, identical violations and the
same errors."""

import math
from typing import Mapping

import numpy as np
import pytest

from coarsegeo import surfmodel
from coarsegeo.consreal import (ExactSystem, consistency_check,
                                exact_system_for, tuple_of_projections)
from coarsegeo.harness import random_pair
from coarsegeo.surfmodel import INFINITY, ZERO, AnnularPoint, ModelSurface, Slope, Subsurface

from oracles import ExactRelations


def _exact_report(report) -> tuple:
    """A report with its floats written out bit for bit."""
    return (report.verdict, report.realized_m.hex(),
            [(u, v, val.hex()) for u, v, val in report.violations])


def _assert_matches_oracle(sys: ExactSystem, z: Mapping, m: float) -> None:
    oracle = ExactRelations(sys.surface, sys.members())
    assert _exact_report(consistency_check(sys, z, m)) == \
        _exact_report(consistency_check(oracle, z, m))


def _random_core(rng) -> Slope:
    return Slope(int(rng.integers(-9, 10)), int(rng.integers(0, 6)) or 1)


def _moved(c, rng):
    """An annular coordinate moved by a random twist, at a random height
    if it has one; other coordinates as they are."""
    if not isinstance(c, AnnularPoint):
        return c
    height = None if c.height is None else float(rng.uniform(0.05, 4.0))
    return AnnularPoint(c.twist + int(rng.integers(-40, 41)), height)


SURFACES = {
    "marking2": ModelSurface(((1, 1), (1, 1)), flavor="marking"),
    "augmented-bers1": ModelSurface(((1, 1),), flavor="augmented"),
    "augmented-bers2": ModelSurface(((1, 1),), flavor="augmented", bers=2.0),
    "augmented-11-04": ModelSurface(((1, 1), (0, 4)), flavor="augmented", bers=2.0),
}


@pytest.mark.parametrize("name", SURFACES)
def test_table_check_matches_generic_loop(name, cn):
    """Tuples of x, of y, and mixes of the two (often inconsistent), on
    seeded pair systems with extra annuli, some with coordinates dropped,
    and with annular coordinates moved off the model's dyadic heights."""
    surface = SURFACES[name]
    rng = np.random.default_rng(sorted(SURFACES).index(name))
    ms = (0.0, cn["m1_consistency"], math.inf)
    inconsistent = 0
    for _ in range(25):
        x, y = random_pair(surface, rng, steps=12, big_twist=25)
        extra = [(int(rng.integers(surface.n_components)), _random_core(rng)) for _ in range(3)]
        sys = exact_system_for(x, y, extra_cores=extra)
        zx, zy = tuple_of_projections(x, sys), tuple_of_projections(y, sys)
        mixed = {w: (zx if rng.random() < 0.5 else zy)[w] for w in zx.keys()}
        dropped = {w: c for w, c in mixed.items() if rng.random() < 0.8}
        moved = {w: _moved(c, rng) for w, c in mixed.items()}
        for z in (zx, zy, mixed, dropped, moved):
            for m in ms:
                _assert_matches_oracle(sys, z, m)
            inconsistent += not consistency_check(sys, z, cn["m1_consistency"]).verdict
    assert inconsistent > 0  # the mixes reach the violation branch


def test_pants_tuples_with_annulus_coordinates_match_generic_loop(cn):
    """The pants flavor has no annular complexes, so its system leaves the
    annuli out and a far twist demand in the tuple never counts; only
    the component branch can."""
    pants = ModelSurface(((1, 1), (1, 1)), flavor="pants")
    cores = [Slope(1, 2), Slope(1, 3), Slope(-2, 5), ZERO]
    sys = ExactSystem(pants, [Subsurface("annulus", c, s) for c in (0, 1) for s in cores]
                      + [Subsurface("annulus", 2, INFINITY)])  # no component 2 member
    for pants_slope in (ZERO, Slope(7, 3), INFINITY):
        coords = {Subsurface("component", 0): pants_slope,
                  Subsurface("component", 1): Slope(-1, 4),
                  Subsurface("annulus", 2, INFINITY): AnnularPoint(-90)}
        for c in (0, 1):
            for i, s in enumerate(cores):
                coords[Subsurface("annulus", c, s)] = AnnularPoint(200 * (-1) ** i, None)
        z = coords
        for m in (0.0, cn["m1_consistency"], math.inf):
            _assert_matches_oracle(sys, z, m)
        assert consistency_check(sys, z, math.inf).realized_m < 200


def test_augmented_coordinate_without_height_raises_like_generic_loop(augmented1):
    sys = ExactSystem(augmented1, [Subsurface("annulus", 0, s)
                                   for s in (ZERO, Slope(1, 2), Slope(2, 3))])
    coords = {Subsurface("component", 0): INFINITY,
              Subsurface("annulus", 0, ZERO): AnnularPoint(3, 0.5),
              Subsurface("annulus", 0, Slope(1, 2)): AnnularPoint(-4),
              Subsurface("annulus", 0, Slope(2, 3)): AnnularPoint(1, 2.0)}
    z = coords
    for check in (sys, ExactRelations(augmented1, sys.members())):
        with pytest.raises(ValueError, match="^augmented annular points need heights$"):
            consistency_check(check, z, 1.0)


def test_second_check_reads_overlaps_off_the_table(calls_to, marking2, cn):
    """Building a system builds one twist table per component; each
    check then builds none and computes one twisting number per nested
    pair (W, A) whose core is not the component coordinate, so a second
    check on the same system repeats exactly the first one's work."""
    cores = [Slope(1, 2), Slope(1, 3), Slope(-2, 5), Slope(3, 7)]
    x = surfmodel.base_point(marking2)
    real = surfmodel.twist_number
    calls = calls_to(surfmodel, "twist_number")
    tables = calls_to(surfmodel, "twist_table")
    sys = exact_system_for(x, extra_cores=[(c, s) for c in (0, 1) for s in cores])
    k = {c: sum(w.kind == "annulus" and w.comp == c for w in sys.members()) for c in (0, 1)}
    assert min(k.values()) >= len(cores)
    assert sorted(len(args[0]) for args in tables) == sorted(k.values())
    z = tuple_of_projections(x, sys)
    calls.clear()
    tables.clear()
    first = consistency_check(sys, z, cn["m1_consistency"])
    nested = sum(w.kind == "annulus" and w.core != x.alpha(w.comp) for w in sys.members())
    assert nested >= 2 * len(cores)
    assert tables == [] and len(calls) == nested
    calls.clear()
    second = consistency_check(sys, z, cn["m1_consistency"])
    assert tables == [] and len(calls) == nested
    assert all(curve in (x.alpha(0), x.alpha(1)) for _core, curve in calls)
    assert _exact_report(first) == _exact_report(second)
    for w, annuli, rows in sys.tables:
        assert len(annuli) == k[w.comp]
        assert rows == [[real(a.core, b.core) if b != a else 0 for b in annuli]
                        for a in annuli]
