"""Generators, configs, calibration determinism, and the CLI verbs."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from coarsegeo import harness
from coarsegeo.constants import Constants, MissingConstantError
from coarsegeo.harness import (
    ExperimentConfig, Report, adversarial_maps, backtracked_trace, calibrate,
    deep_slope, farey_efficient_trace, main, net_separation_count,
    noisy_flat_map, orthant_flat, random_pair, random_point, run_pipeline,
    twist_flat,
)
from coarsegeo.effdiff import Box
from coarsegeo.pathsflats import FlatFactor, StandardFlat, pinned_curve
from coarsegeo.surfmodel import (INFINITY, ZERO, InessentialSubsurfaceError, ModelSurface,
                                 Subsurface, annular_coordinate_point, base_point,
                                 farey_distance, flip_move, length_move, model_distance,
                                 project, twist_move)


def test_deep_slope_distances():
    for k in (2, 7, 19):
        assert farey_distance(INFINITY, deep_slope(k)) == k


def test_random_point_reaches_distance(marking2, augmented1, rng):
    for surface in (marking2, augmented1):
        x, y = random_pair(surface, rng, steps=20, big_twist=30,
                           min_distance=20)
        assert model_distance(x, y) >= 20


def test_config_json_and_digest(marking2):
    cfg = ExperimentConfig(marking2, eps0=0.05, seed=7)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back.digest() == cfg.digest()
    other = ExperimentConfig(marking2, eps0=0.06, seed=7)
    assert other.digest() != cfg.digest()


def test_config_integral_floats_are_read_as_integers(marking2):
    """A JSON float with an integral value is the int in every field that
    counts, so the config and its digest are the int's."""
    want = ExperimentConfig(marking2, seed=7, box_side=60, noise=2)
    got = ExperimentConfig.from_json({**want.to_json(), "seed": 7.0, "box_side": 60.0,
                                      "noise": 2.0})
    assert got == want and got.digest() == want.digest()
    assert all(type(getattr(got, k)) is int for k in ("seed", "box_side", "noise"))


def test_config_documents_missing_a_field_get_the_dataclass_default(marking2):
    """Each optional field a config document leaves out takes the
    dataclass's own default; the fields it has are kept."""
    full = ExperimentConfig(marking2, eps0=0.2, theta0=0.3, r0=9.0, seed=5, box_side=40,
                            noise=1).to_json()
    for name in ("eps0", "theta0", "r0", "seed", "box_side", "noise"):
        doc = {k: v for k, v in full.items() if k != name}
        back = ExperimentConfig.from_json(doc)
        assert getattr(back, name) == ExperimentConfig.__dataclass_fields__[name].default
        assert all(getattr(back, k) == v for k, v in doc.items()
                   if k not in ("schema_version", "surface"))
    assert ExperimentConfig.from_json({"surface": marking2.to_json()}) == \
        ExperimentConfig(marking2)


@pytest.mark.parametrize("fields, message", [
    ({"r0": math.nan}, "need a finite r0, got nan"),
    ({"r0": math.inf}, "need a finite r0, got inf"),
    ({"theta0": -1.0}, "need a finite theta0 > 0, got -1.0"),
    ({"theta0": 0.0}, "need a finite theta0 > 0, got 0.0"),
    ({"theta0": math.nan}, "need a finite theta0 > 0, got nan"),
    ({"theta0": math.inf}, "need a finite theta0 > 0, got inf"),
], ids=["r0-nan", "r0-inf", "theta0-negative", "theta0-0", "theta0-nan", "theta0-inf"])
def test_config_scales_must_be_finite(marking2, fields, message):
    with pytest.raises(ValueError) as err:
        ExperimentConfig(marking2, **fields)
    assert str(err.value) == message


def test_missing_constant_is_hard_error():
    cn = Constants(values={"delta_farey": 1.0})
    with pytest.raises(MissingConstantError):
        cn["m0_bgit"]


def test_calibrate_is_idempotent():
    a = calibrate(seed=11, scale=0.05)
    b = calibrate(seed=11, scale=0.05)
    assert a.values == b.values
    c = calibrate(seed=12, scale=0.05)
    assert c.values.keys() == a.values.keys()


def test_synthetic_trace_is_efficient(rng, cn):
    from coarsegeo.effdiff import efficiency_test
    tr = farey_efficient_trace(rng, R=200.0, eps=0.05)
    assert efficiency_test(tr, 200.0, 0.05, cn["theta_eff"])


def test_net_separation_refutes_collapse(marking2, cn):
    flat = twist_flat(marking2, span=200)
    side = 60
    eps0 = 0.05
    spacing = cn["k1_net"] * eps0 * side
    separation = eps0 * side
    for name, fmap in adversarial_maps(flat, 3, side):
        net, packed = net_separation_count(fmap, Box.cube(side, 3),
                                           spacing, separation)
        assert packed < net / cn["kappa_net"], name
    honest = noisy_flat_map(flat, 0, 0)
    net, packed = net_separation_count(honest, Box.cube(side, 2),
                                       spacing, separation)
    assert packed >= net / cn["kappa_net"]


# --- CLI ---------------------------------------------------------------------

def test_cli_stats(capsys):
    assert main(["stats", "--genus", "2", "--punctures", "0",
                 "--components", "1", "--flavor", "marking"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank_top"] == 3 and doc["complexity"] == 2


def test_cli_dist_project_hull_preferred(tmp_path, capsys, marking1):
    x = base_point(marking1)
    from coarsegeo.surfmodel import twist_move
    y = twist_move(x, 0, 30)
    xj, yj = json.dumps(x.to_json()), json.dumps(y.to_json())
    surf = json.dumps(marking1.to_json())
    assert main(["dist", "--surface", surf, xj, yj]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distance"] == 30.0
    assert main(["project", "--surface", surf, xj, "--core", "0/1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coordinate"]["twist"] == 0
    assert main(["hull", "--surface", surf, xj, yj, xj]) == 0
    capsys.readouterr()
    out = tmp_path / "path.json"
    csvf = tmp_path / "profile.csv"
    assert main(["preferred", "--surface", surf, xj, yj,
                 "--out", str(out), "--csv", str(csvf)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["points"]) == 31
    assert csvf.read_text().startswith("step,")


def test_cli_delta_and_efficiency(tmp_path, capsys):
    assert main(["delta", "--lo", "0", "--hi", "1", "--depth", "4",
                 "--samples", "60"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] <= 2.0
    trace = json.dumps({"times": list(range(41)), "values": list(range(41))})
    assert main(["efficiency", trace, "--scale", "40", "--eps", "0.2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["efficient"] is True


def test_cli_differentiate_and_realize(capsys, marking1):
    assert main(["differentiate", "--map", "staircase", "--step", "16",
                 "--box", "4096", "--eps0", "0.1", "--theta0", "0.1",
                 "--r0", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fraction_efficient"] >= 0.9
    surf = json.dumps(marking1.to_json())
    tup = json.dumps([
        [{"kind": "component", "comp": 0, "core": None}, {"slope": [1, 2]}],
    ])
    assert main(["realize", "--surface", surf, tup]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"][0]["alpha"] == [1, 2]


@pytest.mark.parametrize("verb", [["rank", "--n", "3"], ["pipeline"], ["flat-fit"]])
def test_cli_twist_flat_verbs_refuse_pants_flavor(capsys, verb):
    """Pants points have no transversal, so there is no twist flat: one
    line on stderr and exit code 2, not a traceback."""
    assert main(verb + ["--components", "2", "--flavor", "pants"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"coarsegeo {verb[0]}: a twist flat needs annular twist coordinates, " \
        "which the pants flavor does not have\n"
    with pytest.raises(ValueError, match="pants flavor"):
        twist_flat(ModelSurface(((1, 1),), flavor="pants"), 10)


def test_cli_psi_bbf_flatfit(capsys, marking1):
    surf = json.dumps(marking1.to_json())
    x = base_point(marking1)
    from coarsegeo.surfmodel import twist_move
    y = twist_move(x, 0, 25)
    xj, yj = json.dumps(x.to_json()), json.dumps(y.to_json())
    assert main(["psi", "--surface", surf, xj, yj]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["embedded_distance"] >= 12.0
    assert main(["bbf-audit", "--surface", surf, "--pairs", "12",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["flat-fit", "--surface", surf, "--span", "20",
                 "--noise", "2", "--samples", "10", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fit"] <= 4.0


def test_cli_psi_is_independent_of_the_hash_seed(marking1):
    """The window dump lists cross edges in key order; in set order it
    followed the string hashes, which PYTHONHASHSEED changes."""
    from coarsegeo.surfmodel import flip_move, twist_move
    x = base_point(marking1)
    y = twist_move(flip_move(twist_move(x, 0, 7), 0), 0, 5)
    argv = [sys.executable, "-m", "coarsegeo.harness", "psi",
            "--surface", json.dumps(marking1.to_json()),
            json.dumps(x.to_json()), json.dumps(y.to_json())]
    outs = [subprocess.run(argv, capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert json.loads(outs[0])["window_dump"][1]["cross_edges"]
    assert outs[0] == outs[1]


def test_cli_stats_needs_genus_and_punctures_together(capsys):
    """--genus alone used to print the default surface's stats."""
    for flag in ("--genus", "--punctures"):
        with pytest.raises(SystemExit) as exc:
            main(["stats", flag, "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: coarsegeo stats ")
        assert err.endswith("coarsegeo stats: error: "
                            "--genus and --punctures must be given together\n")


@pytest.mark.parametrize("core", ["5", "1/2/3", "0/0", "one/two"])
def test_cli_project_core_must_be_a_slope(capsys, marking1, core):
    """A malformed --core is a usage error, not a ValueError traceback."""
    x = json.dumps(base_point(marking1).to_json())
    with pytest.raises(SystemExit) as exc:
        main(["project", x, "--core", core])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: coarsegeo project ")
    assert err.endswith(f"coarsegeo project: error: argument --core: "
                        f"expected a slope p/q, got {core!r}\n")



@pytest.mark.parametrize("tup, message", [
    ([[{"kind": "annulus", "comp": 0, "core": [1, 2]}, {"twist": 3}]],
     "tuple lacks the component coordinate W0"),
    ([[{"kind": "component", "comp": 0, "core": None}, {"slope": [0, 1]}],
      [{"kind": "annulus", "comp": 0, "core": [1, 0]}, {"twist": 1000}],
      [{"kind": "annulus", "comp": 0, "core": [1, 1]}, {"twist": 1000}]],
     "tuple is not consistent: realized M = 999.00"),
], ids=["no-component-coordinate", "inconsistent"])
def test_cli_realize_rejects_bad_tuples(capsys, tup, message):
    """These ended in a MissingProjectionError or InconsistentTupleError
    traceback with exit code 1."""
    with pytest.raises(SystemExit) as exc:
        main(["realize", json.dumps(tup)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: coarsegeo realize ")
    assert err.endswith(f"coarsegeo realize: error: {message}\n")


def _ray_flat(surface: ModelSurface) -> StandardFlat:
    return StandardFlat(base_point(surface),
                        (FlatFactor(0, "ray", (0, 5), core=ZERO, tau0=INFINITY),))


# (flavor, the capability it lacks) -> an operation that needs it
REFUSALS = {
    ("pants", "annular-projection"):
        lambda s: project(base_point(s), Subsurface("annulus", 0, ZERO)),
    ("pants", "annular-coordinate"): lambda s: annular_coordinate_point(s, 3, None),
    ("pants", "twist-factor"): lambda s: StandardFlat(
        base_point(s), (FlatFactor(0, "twist", (0, 5), core=ZERO, tau0=INFINITY),)),
    ("pants", "twist-flat"): lambda s: twist_flat(s, 10),
    ("marking", "ray-factor"): _ray_flat,
    ("pants", "ray-factor"): _ray_flat,
    ("marking", "orthant-flat"): lambda s: orthant_flat(s, 10),
    ("pants", "orthant-flat"): lambda s: orthant_flat(s, 10),
    ("marking", "length"): lambda s: length_move(base_point(s), 0, 0.5),
    ("pants", "length"): lambda s: length_move(base_point(s), 0, 0.5),
    ("pants", "twist-move"): lambda s: twist_move(base_point(s), 0, 1),
    ("pants", "flip-move"): lambda s: flip_move(base_point(s), 0),
}


@pytest.mark.parametrize("flavor, capability", REFUSALS,
                         ids=[f"{c}-on-{f}" for f, c in REFUSALS])
def test_a_missing_capability_is_refused(flavor, capability):
    """What a flavor's table says it lacks is refused with the one error
    the CLI turns into exit code 2."""
    with pytest.raises(InessentialSubsurfaceError):
        REFUSALS[flavor, capability](ModelSurface(((1, 1), (1, 1)), flavor=flavor))


_PANTS_POINT = json.dumps({"components": [{"alpha": [0, 1]}]})


@pytest.mark.parametrize("argv, message", [
    (["project", _PANTS_POINT, "--core", "0/1"],
     "coarsegeo project: the pants flavor has no annular coordinates\n"),
    (["differentiate", "--map", "flat-noise"], "coarsegeo differentiate: a twist flat needs "
     "annular twist coordinates, which the pants flavor does not have\n"),
], ids=["annular-projection", "twist-flat"])
def test_cli_refusals_exit_2(capsys, argv, message):
    assert main(argv + ["--flavor", "pants"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == message


_W0 = [{"kind": "component", "comp": 0, "core": None}, {"slope": [0, 1]}]
_A0 = {"kind": "annulus", "comp": 0, "core": [1, 2]}


@pytest.mark.parametrize("flavor, tup, message", [
    ("augmented", [[_W0[0], {"twist": 3}]], "tuple lacks the key 'slope'"),
    ("augmented", [_W0, [_A0, {"slope": [1, 2]}]], "tuple lacks the key 'twist'"),
    ("augmented", [_W0, [_A0, {"twist": 3}]],
     "bad tuple: augmented annular points need heights"),
    ("augmented", [_W0, [_A0, {"twist": 3, "height": 0}]],
     "bad tuple: augmented annular heights are positive and finite, got 0.0"),
    ("augmented", [_W0, [_A0, {"twist": 3, "height": -2}]],
     "bad tuple: augmented annular heights are positive and finite, got -2.0"),
    ("augmented", [_W0, [_A0, {"twist": 3, "height": math.nan}]],
     "bad tuple: augmented annular heights are positive and finite, got nan"),
    ("augmented", [_W0, [_A0, {"twist": 3, "height": math.inf}]],
     "bad tuple: augmented annular heights are positive and finite, got inf"),
    ("pants", [_W0, [_A0, {"twist": 3}]],
     "bad tuple: the pants flavor has no annular coordinates"),
    ("marking", [_W0, [_A0, {"twist": 3, "height": 0.5}]],
     "bad tuple: marking annular coordinates have no height"),
    ("marking", [_W0, [{**_A0, "comp": 3}, {"twist": 3}]],
     "bad tuple: A3(1/2) is not on a component of the surface"),
    ("marking", [_W0, [_A0, {"twist": 3.7}]], "bad tuple: annular twists are integers, got 3.7"),
    ("augmented", [_W0, [_A0, {"twist": math.inf, "height": 1.0}]],
     "bad tuple: annular twists are integers, got inf"),
    ("marking", [[_W0[0], {"slope": [1.5, 2]}]], "bad tuple: slope entries are integers, got 1.5"),
    ("marking", [[_W0[0], {"slope": [1, math.inf]}]],
     "bad tuple: slope entries are integers, got inf"),
], ids=["component-twist", "annulus-slope", "no-height", "zero-height", "negative-height",
        "nan-height", "infinite-height", "pants-annulus", "marking-height", "no-such-component",
        "fractional-twist", "infinite-twist", "fractional-slope", "infinite-slope"])
def test_cli_realize_rejects_bad_coordinates(capsys, flavor, tup, message):
    """These ended in an AttributeError, ValueError or OverflowError
    traceback with exit code 1, or were accepted (a NaN or infinite
    height, a twist of 3.7 read as 3, a slope of [1.5, 2] read as 1/2) or
    silently ignored (annular coordinates on pants, a marking height, an
    annulus off the surface)."""
    with pytest.raises(SystemExit) as exc:
        main(["realize", "--flavor", flavor, json.dumps(tup)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: coarsegeo realize ")
    assert err.endswith(f"coarsegeo realize: error: {message}\n")


@pytest.mark.parametrize("trace, scale, eps, message", [
    ({"times": [0, 0, 1], "values": [0, 1, 2]}, "1", "0.5",
     "times must be strictly increasing"),
    ({"times": [0, 2, 1], "values": [0, 1, 2]}, "1", "0.5",
     "times must be strictly increasing"),
    ({"times": [0, 1, 2], "values": [0, 1]}, "1", "0.5",
     "times and points must be equal-length and nonempty"),
    ({"times": [0, 1, 2], "values": [0, 1, 2]}, "1000", "0.5",
     "trace span 2.0 is not comparable to the scale 1000.0"),
    ({"times": [0, 1, 2], "values": [0, 1, 2]}, "2", "0.1", "scale below resolution"),
], ids=["repeated-time", "decreasing-times", "unequal-lengths", "far-scale",
        "scale-below-steps"])
def test_cli_efficiency_rejects_bad_traces(capsys, trace, scale, eps, message):
    """These ended in a ZeroDivisionError or ValueError traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["efficiency", json.dumps(trace), "--scale", scale, "--eps", eps])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: coarsegeo efficiency ")
    assert err.endswith(f"coarsegeo efficiency: error: {message}\n")


NO_TRANSVERSAL = json.dumps({"components": [{"alpha": [0, 1]}]})
SURFACE = '{{"components": [[1, 1]], "flavor": "marking", "bers": {}, "threshold": {}}}'
BASE = json.dumps({"components": [{"alpha": [0, 1], "tau": [1, 0]}]})
FAR = json.dumps({"components": [{"alpha": [13, 21], "tau": [8, 13]}]})
AUG_BASE = '{{"components": [{{"alpha": [0, 1], "tau": [1, 0], "length": {}}}]}}'
LINE = json.dumps({"times": list(range(11)), "values": list(range(11))})


def _config(**fields) -> str:
    """A pipeline config document on a one-component marking surface."""
    return json.dumps({"surface": ModelSurface(((1, 1),)).to_json(), **fields})



@pytest.mark.parametrize("argv, message", [
    (["realize", '[[{"comp": 0}, {"slope": [1, 2]}]]'], "tuple lacks the key 'kind'"),
    (["efficiency", '{"times": [0, 1, 2]}', "--scale", "2", "--eps", "0.5"],
     "trace lacks the key 'values'"),
    (["efficiency", "[0, 1, 2]", "--scale", "2", "--eps", "0.5"],
     "bad trace: list indices must be integers or slices, not str"),
    (["dist", '{"a": 1}', "{}"], "point lacks the key 'components'"),
    (["dist", NO_TRANSVERSAL, NO_TRANSVERSAL], "bad point: marking points need transversals"),
    (["pipeline", "--config", '{"surface": 1}'],
     "bad config: 'int' object is not subscriptable"),
    (["project", json.dumps({"components": [{"alpha": [0.9, 1], "tau": [1, 0]}]})],
     "bad point: slope entries are integers, got 0.9"),
    (["pipeline", "--config", _config(noise=-1)],
     "bad config: need noise >= 0, got -1"),
    (["pipeline", "--config", _config(noise=2.5)],
     "bad config: need an integer noise, got 2.5"),
    (["pipeline", "--config", _config(box_side=40000.5)],
     "bad config: need an integer box_side, got 40000.5"),
    (["pipeline", "--config", _config(box_side=-5)],
     "bad config: need box_side >= 1, got -5"),
    (["pipeline", "--config", _config(seed="7")],
     "bad config: need an integer seed, got '7'"),
    (["pipeline", "--config", _config(seed=True)],
     "bad config: need an integer seed, got True"),
    (["pipeline", "--config", _config(noise=31)],
     "bad config: need noise <= 30, got 31"),
    (["dist", AUG_BASE.format("true"), AUG_BASE.format("1.0"), "--flavor", "augmented"],
     "bad point: augmented length must be a real number, got True"),
    (["dist", AUG_BASE.format('"1"'), AUG_BASE.format("1.0"), "--flavor", "augmented"],
     "bad point: augmented length must be a real number, got '1'"),
    (["dist", BASE, FAR, "--surface", SURFACE.format("1.0", "NaN")],
     "bad surface: bers bound and threshold must be finite and positive"),
    (["dist", BASE, FAR, "--surface", SURFACE.format("Infinity", "3")],
     "bad surface: bers bound and threshold must be finite and positive"),
    (["pipeline", "--r0", "nan"], "need a finite r0, got nan"),
    (["pipeline", "--r0", "inf"], "need a finite r0, got inf"),
    (["pipeline", "--theta0", "-1"], "need a finite theta0 > 0, got -1.0"),
    (["pipeline", "--theta0", "nan"], "need a finite theta0 > 0, got nan"),
    (["differentiate", "--r0", "nan"], "need a finite r0 > 0, got nan"),
    (["differentiate", "--r0", "inf"], "need a finite r0 > 0, got inf"),
    (["differentiate", "--theta0", "nan"], "need a finite theta0 > 0, got nan"),
    (["differentiate", "--theta0", "-1"], "need a finite theta0 > 0, got -1.0"),
    (["differentiate", "--eps0", "nan"], "need eps0 in (0, 1), got nan"),
], ids=["realize-no-kind", "efficiency-no-values", "efficiency-list", "dist-no-components",
        "dist-no-transversal", "pipeline-config-surface", "project-fractional-slope",
        "pipeline-config-negative-noise", "pipeline-config-fractional-noise",
        "pipeline-config-fractional-box-side", "pipeline-config-negative-box-side",
        "pipeline-config-string-seed", "pipeline-config-bool-seed", "pipeline-config-noise-31",
        "dist-bool-length", "dist-string-length", "dist-surface-nan-threshold",
        "dist-surface-infinite-bers", "pipeline-r0-nan", "pipeline-r0-inf",
        "pipeline-theta0-negative", "pipeline-theta0-nan", "differentiate-r0-nan",
        "differentiate-r0-inf", "differentiate-theta0-nan", "differentiate-theta0-negative",
        "differentiate-eps0-nan"])
def test_cli_documents_of_the_wrong_shape_are_usage_errors(capsys, argv, message):
    """These ended in a KeyError, TypeError or ValueError traceback with
    exit code 1, or, for the fractional slope, projected 0/1 with exit
    code 0, or, for the NaN threshold, measured every distance as 0.0
    with exit code 0, or, for a non-finite r0, theta0 or eps0 or a
    negative theta0, ended in a ValueError, OverflowError or
    QuasiLipschitzViolationError traceback with exit code 1.  A
    fractional noise or box side ended in a TypeError traceback, a
    negative box side in a ValueError one, both with exit code 1, and a
    string seed ran with exit code 0 on another noise stream than the
    integer's.  A noise of 31 ended in an IndexError traceback with exit
    code 1, and an augmented length of true measured 0.0 with exit code
    0."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: coarsegeo {argv[0]} ")
    assert err.endswith(f"coarsegeo {argv[0]}: error: {message}\n")
    assert err.count("error:") == 1


def test_cli_integral_float_slopes_are_read_as_integers(capsys):
    outs = []
    for slope in ([2.0, 4], [1, 2]):
        assert main(["realize", json.dumps([[_W0[0], {"slope": slope}]])]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["components"][0]["alpha"] == [1, 2]


@pytest.mark.parametrize("argv, message", [
    (["stats", "--flavor", "bogus"], "unknown flavor 'bogus'"),
    (["stats", "--components", "0"], "surface needs at least one component"),
    (["stats", "--genus", "1", "--punctures", "1", "--flavor", "bogus"],
     "unknown flavor 'bogus'"),
    (["pipeline", "--eps0", "2"], "need eps0 in (0,1) and r0 >= 1"),
    (["rank", "--components", "2", "--n", "2", "--box", "60"],
     "box side 60 is below the pipeline's required size 40000 for n = 2 <= rank 2"),
    (["rank", "--components", "2", "--n", "4"], "--n 4 exceeds rank + 1 = 3"),
    (["rank", "--components", "2", "--n", "0"], "argument --n: expected an integer >= 1, got '0'"),
    (["rank", "--components", "2", "--n", "-3"],
     "argument --n: expected an integer >= 1, got '-3'"),
    (["flat-fit", "--samples", "0"], "argument --samples: expected an integer >= 1, got '0'"),
    (["flat-fit", "--span", "0"], "argument --span: expected an integer >= 1, got '0'"),
    (["flat-fit", "--noise", "-1"], "argument --noise: expected an integer >= 0, got '-1'"),
    (["pipeline", "--noise", "-1"], "argument --noise: expected an integer >= 0, got '-1'"),
    (["flat-fit", "--noise", "31"], "argument --noise: expected an integer <= 30, got '31'"),
    (["pipeline", "--noise", "31"], "argument --noise: expected an integer <= 30, got '31'"),
    (["bbf-audit", "--pairs", "0"], "argument --pairs: expected an integer >= 1, got '0'"),
    (["bbf-audit", "--pairs", "-1"], "argument --pairs: expected an integer >= 1, got '-1'"),
    (["delta", "--samples", "0"], "argument --samples: expected an integer >= 1, got '0'"),
    (["delta", "--samples", "many"], "argument --samples: expected an integer >= 1, got 'many'"),
    (["differentiate", "--box", "64"], "box of size 65 is below the required size 1600 for "
     "eps0=0.1, r0=8.0 (engine-reported minimum)"),
    (["differentiate", "--box", "0"], "argument --box: expected an integer >= 1, got '0'"),
    (["differentiate", "--step", "0"], "argument --step: expected an integer >= 1, got '0'"),
    (["differentiate", "--step", "-4"], "argument --step: expected an integer >= 1, got '-4'"),
    (["delta", "--lo", "3", "--hi", "-2"],
     "need lo <= hi and depth >= 0, got lo=3, hi=-2, depth=5"),
    (["delta", "--depth", "-1"], "need lo <= hi and depth >= 0, got lo=-2, hi=3, depth=-1"),
    (["efficiency", LINE, "--scale", "10", "--eps", "nan"],
     "scale must be finite and positive, got nan"),
    (["efficiency", LINE, "--scale", "10", "--eps", "inf"],
     "scale must be finite and positive, got inf"),
    (["hull", BASE, FAR, BASE, "--kappa", "nan"], "kappa must be >= 0, got nan"),
    (["delta", "--seed", "-3"], "argument --seed: expected an integer >= 0, got '-3'"),
    (["bbf-audit", "--seed", "-3"], "argument --seed: expected an integer >= 0, got '-3'"),
    (["rank", "--n", "2", "--box", "-5"], "argument --box: expected an integer >= 1, got '-5'"),
    (["rank", "--n", "2", "--box", "0"], "argument --box: expected an integer >= 1, got '0'"),
], ids=["stats-flavor", "stats-components", "stats-genus-flavor", "pipeline-eps0",
        "rank-box-below-pipeline", "rank-n-above-rank-plus-one", "rank-n-0",
        "rank-n-negative", "flat-fit-samples-0",
        "flat-fit-span-0", "flat-fit-noise-negative", "pipeline-noise-negative",
        "flat-fit-noise-31", "pipeline-noise-31",
        "bbf-audit-pairs-0", "bbf-audit-pairs-negative", "delta-samples-0",
        "delta-samples-not-an-integer", "differentiate-box-below-required",
        "differentiate-box-0", "differentiate-step-0", "differentiate-step-negative",
        "delta-reversed", "delta-depth-negative", "efficiency-eps-nan", "efficiency-eps-inf",
        "hull-kappa-nan", "delta-seed-negative", "bbf-audit-seed-negative",
        "rank-box-negative", "rank-box-0"])
def test_cli_flag_values_are_usage_errors(capsys, argv, message):
    """These ended in a ValueError or ZeroDivisionError traceback with
    exit code 1, or, for a count of 0 pairs or samples or a negative
    staircase step, in a vacuous pass with exit code 0, or, for a
    negative noise, in a noiseless run that reported the negative noise.
    A reversed or negative-depth Farey ball and an infinite efficiency
    scale passed with exit code 0; a NaN scale printed an invalid JSON
    Infinity and a NaN kappa a failed membership, both with exit code 1.
    A negative seed ended in numpy's ValueError traceback with exit
    code 1, as did a negative rank box; a rank box of 0 ran at side 60.
    A noise above 30 read past the 32-byte burst digest: an IndexError
    traceback with exit code 1."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: coarsegeo {argv[0]} ")
    assert err.endswith(f"coarsegeo {argv[0]}: error: {message}\n")
    assert err.count("error:") == 1


@pytest.mark.parametrize("components, flavor, n", [
    (2, "marking", 2), (1, "augmented", 1), (2, "augmented", 2)])
def test_cli_rank_at_most_rank_runs_the_pipeline_on_its_own_box(capsys, components, flavor, n):
    """These ended in a ValueError traceback: the refutation's default box
    of 60 went to the pipeline, which needs a side of 40000."""
    code = main(["rank", "--components", str(components), "--flavor", flavor, "--n", str(n)])
    doc = json.loads(capsys.readouterr().out)
    assert code == (0 if doc["passed"] else 1)
    assert any(s["stage"] == "embedding-pipeline" for s in doc["stages"])
    # no box side in the config: the pipeline picks its own
    surface = ModelSurface(tuple((1, 1) for _ in range(components)), flavor=flavor)
    assert doc["config_digest"] == ExperimentConfig(surface).digest()


def test_cli_rank_refutation_box_defaults_to_60(capsys):
    main(["rank", "--components", "2", "--n", "3"])
    unset = json.loads(capsys.readouterr().out)
    main(["rank", "--components", "2", "--n", "3", "--box", "60"])
    assert json.loads(capsys.readouterr().out) == unset


def test_cli_differentiate_reads_the_constants_file(capsys, tmp_path, cn):
    """bdelta_mult and kappa_theta were keyword defaults the flag never
    reached."""
    path = tmp_path / "c.json"
    Constants({**cn.values, "bdelta_mult": 3.0, "kappa_theta": 4.0}).save(str(path))
    assert main(["differentiate", "--constants", str(path)]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert (params["bdelta_mult"], params["kappa_theta"]) == (3.0, 4.0)

def test_cli_pipeline_and_rank_small(capsys, marking2):
    surf = json.dumps(marking2.to_json())
    assert main(["pipeline", "--surface", surf, "--eps0", "0.2",
                 "--theta0", "0.2", "--r0", "8", "--noise", "2",
                 "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert main(["rank", "--surface", surf, "--n", "3", "--eps0", "0.05",
                 "--box", "60", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_cli_calibrate_writes_file(tmp_path):
    out = tmp_path / "constants.json"
    assert main(["calibrate", "--scale", "0.02", "--seed", "9",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1 and "delta_farey" in doc["values"]


@pytest.mark.parametrize("argv, seed", [([], 42), (["--seed", "0"], 0),
                                        (["--seed", "9"], 9)])
def test_cli_calibrate_seed_is_honoured(monkeypatch, tmp_path, argv, seed):
    seen = []

    def fake_calibrate(seed, scale):
        seen.append(seed)
        return Constants(values={"delta_farey": 1.0})

    monkeypatch.setattr(harness, "calibrate", fake_calibrate)
    assert main(["calibrate", "--out", str(tmp_path / "c.json")] + argv) == 0
    assert seen == [seed]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "coarsegeo.harness",
                           "stats", "--genus", "1", "--punctures", "1",
                           "--components", "1", "--flavor", "pants"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank_top"] == 1


@pytest.mark.parametrize("argv", [["pipeline", "--components", "3"],
                                  ["differentiate", "--map", "flat-noise", "--components", "3"]],
                         ids=["pipeline", "differentiate-flat-noise"])
def test_cli_three_components_finish(argv):
    """The scale search on a 3-D box builds only the directions it
    evaluates.  Listing the whole grid of 2,011,840 directions at
    eps0^2 = 0.0025 and checking it dense never finished, so the
    subprocess runs under a timeout instead of hanging the suite."""
    proc = subprocess.run([sys.executable, "-m", "coarsegeo.harness", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_pipeline_path_flat_extraction(marking2, cn):
    """Moving components go through the shadow sub-box and the diagonal
    extraction, and the reconstructed flat still fits."""
    from coarsegeo.pathsflats import FlatFactor, StandardFlat, preferred_path
    from coarsegeo.surfmodel import base_point, flip_move, twist_move

    base = base_point(marking2)

    def long_endpoint(comp, seed):
        r = np.random.default_rng(seed)
        y = base
        for _ in range(6):
            y = twist_move(y, comp, int(r.choice([-1, 1])) * int(r.integers(60, 90)))
            y = flip_move(y, comp)
        return y

    factors = []
    for comp in range(2):
        p = preferred_path(base, long_endpoint(comp, 10 + comp), cn,
                           verify=False)
        factors.append(FlatFactor(comp, "path", (0, len(p.points) - 1), path=p))
    flat = StandardFlat(base, tuple(factors))
    cfg = ExperimentConfig(marking2, eps0=0.45, theta0=0.2, r0=4.0, seed=5,
                           noise=0, box_side=min(flat.box().sides))
    rep = run_pipeline(cfg, noisy_flat_map(flat, 0, 5), dim=2, constants=cn)
    assert rep.passed
    stages = {s["stage"] for s in rep.stages}
    assert "factor-extraction" in stages


@pytest.mark.parametrize("k, sub", [(14, (10000, 24142)), (15, (10000, 24142)),
                                    (16, (10000, 24142)), (22, (10000, 22374))])
def test_pinned_curve_decides_label_and_flat_near_the_threshold(marking2, cn, k, sub):
    """Noise seeds of the acceptance-11 map (the draws of default_rng([k, 1])
    the flat-pipeline benchmark skips) whose 7x7 grid, on the sub-box the
    pipeline picks, keeps component 1 on its curve at just under four
    fifths of the samples.  `run_pipeline`'s branch label and
    `candidate_flats` both read `pinned_curve`: component 1 gets a path
    factor, and component 0 a twist factor on the majority curve."""
    seed = int(np.random.default_rng([k, 1]).integers(1, 2**31 - 1))
    fmap = noisy_flat_map(twist_flat(marking2, 40000), 3, seed)
    axes = [np.linspace(*sub, 7), np.linspace(10000, 24142, 7)]
    samples = fmap.images(np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], -1))
    (core0, _, pinned0), (core1, hits1, pinned1) = (pinned_curve(samples, c) for c in (0, 1))
    assert pinned0 and not pinned1 and hits1 in (38, 39)  # 0.776 or 0.796 of 49
    counts = {}
    for p in samples:
        counts[p.alpha(1)] = counts.get(p.alpha(1), 0) + 1
    assert core1 == min((c for c, h in counts.items() if h == hits1), key=lambda c: c.key())
    (flat,) = harness.candidate_flats(samples, cn)
    assert [f.kind for f in flat.factors] == ["twist", "path"]
    assert flat.factors[0].core == core0


def test_rank_embedding_flat_covers_the_pipeline_box(monkeypatch, marking2, cn):
    """The n <= rank branch must build its flat over the whole box the
    pipeline differentiates: clamped to a smaller flat, the 7x7 sub-box
    grid would map to a single point and the fit would say nothing."""
    maps = []

    def spy(flat, noise, seed):
        maps.append(noisy_flat_map(flat, noise, seed))
        return maps[-1]

    monkeypatch.setattr(harness, "noisy_flat_map", spy)
    cfg = ExperimentConfig(marking2, eps0=0.05, theta0=0.1, r0=50.0, seed=112)
    rep = harness.rank_experiment(cfg, 2, constants=cn)
    assert rep.passed and len(maps) == 1
    pipe = next(s for s in rep.stages if s["stage"] == "embedding-pipeline")
    sub = next(s for s in pipe["stages"] if s["stage"] == "subbox")
    axes = [np.linspace(lo, hi, 7) for lo, hi in sub["box"]]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert len({maps[0].fn(p) for p in grid}) > 1


@pytest.mark.parametrize("n", [0, -3])
def test_rank_experiment_refuses_a_dimension_below_one(marking2, cn, n):
    with pytest.raises(ValueError, match="need n >= 1"):
        harness.rank_experiment(ExperimentConfig(marking2), n, constants=cn)


def test_module_entry_point_runs_without_warnings():
    """The package no longer imports harness eagerly, so runpy does not
    warn that coarsegeo.harness is already in sys.modules."""
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "coarsegeo.harness",
                           "stats"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["rank_top"] == 1


def test_documents_are_strict_json(tmp_path, capsys):
    """A non-finite value in a verb's document is refused rather than
    printed as a token that is not JSON; an infinite hull kappa is null."""
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            harness._emit({"value": bad}, None)
        with pytest.raises(ValueError):
            harness._emit({"nested": [1.0, {"value": bad}]}, str(tmp_path / "out.json"))
    assert capsys.readouterr().out == ""
    harness._emit({"value": 1.5, "none": None}, None)
    assert json.loads(capsys.readouterr().out) == {"value": 1.5, "none": None}
