"""Byte-for-byte goldens of the command line: stdout, stderr, the --csv
file and the exit code of each recorded invocation.

After a deliberate change of output, rerecord some or all entries with
``PYTHONPATH=src python tests/test_cli_golden.py [name ...]``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from coarsegeo.harness import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
CSV = "{csv}"  # replaced by a temporary file path when the case runs


def run(argv: list[str], tmp: Path) -> dict:
    csv_path = tmp / "out.csv"
    argv = [str(csv_path) if a == CSV else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(),
            "csv": csv_path.read_text() if csv_path.exists() else None, "exit": code}


def _cases() -> dict[str, list[str]]:
    from coarsegeo.surfmodel import (ModelSurface, base_point, flip_move, length_move,
                                     twist_move)

    marking1 = ModelSurface(((1, 1),), flavor="marking")
    marking2 = ModelSurface(((1, 1), (1, 1)), flavor="marking")
    augmented1 = ModelSurface(((1, 1),), flavor="augmented")
    js = lambda o: json.dumps(o.to_json())
    s1, s2, sa = js(marking1), js(marking2), js(augmented1)
    x = base_point(marking1)
    xj, y25, y30, y60 = (js(twist_move(x, 0, n)) for n in (0, 25, 30, 60))
    flipped = js(twist_move(flip_move(twist_move(x, 0, 7), 0), 0, 5))
    a = base_point(augmented1)
    aj = js(a)
    bj = js(length_move(twist_move(a, 0, 20000), 0, 1 / 64))
    slope_tuple = json.dumps([[{"kind": "component", "comp": 0, "core": None},
                               {"slope": [1, 2]}]])
    twist_tuple = json.dumps([[{"kind": "component", "comp": 0, "core": None},
                               {"slope": [1, 2]}],
                              [{"kind": "annulus", "comp": 0, "core": [1, 2]},
                               {"twist": 40, "height": 8.0}]])
    trace = json.dumps({"times": list(range(41)), "values": list(range(41))})
    detour = json.dumps({"times": list(range(41)),
                         "values": [10 * min(t, 40 - t) for t in range(41)]})
    pants = ["--components", "2", "--flavor", "pants"]
    return {
        "stats-genus": ["stats", "--genus", "2", "--punctures", "0",
                        "--components", "1", "--flavor", "marking"],
        "stats-surface": ["stats", "--surface", s2],
        "dist": ["dist", "--surface", s1, xj, y30],
        "dist-augmented": ["dist", "--surface", sa, aj, bj],
        "project-core": ["project", "--surface", s1, xj, "--core", "0/1"],
        "project-component": ["project", "--surface", s1, y30],
        "project-augmented": ["project", "--surface", sa, bj, "--core", "1/3"],
        "hull": ["hull", "--surface", s1, xj, y30, xj],
        "hull-kappa": ["hull", "--surface", s1, xj, y30, y60, "--kappa", "3"],
        "hull-kappa-inf": ["hull", "--surface", s1, xj, y30, xj, "--kappa", "inf"],
        "preferred-csv": ["preferred", "--surface", s1, xj, y30, "--csv", CSV],
        "preferred-augmented": ["preferred", "--surface", sa, aj, bj],
        "delta": ["delta", "--lo", "0", "--hi", "1", "--depth", "4", "--samples", "60"],
        "delta-readme": ["delta", "--lo", "-2", "--hi", "3", "--depth", "5", "--samples", "400"],
        "efficiency-csv": ["efficiency", trace, "--scale", "40", "--eps", "0.2",
                           "--csv", CSV],
        "efficiency-fails": ["efficiency", detour, "--scale", "40", "--eps", "0.2"],
        "differentiate-staircase": ["differentiate", "--map", "staircase", "--step", "16",
                                    "--box", "4096", "--eps0", "0.1", "--theta0", "0.1",
                                    "--r0", "8"],
        "differentiate-flat-noise": ["differentiate", "--map", "flat-noise", "--surface", s1,
                                     "--box", "1500", "--eps0", "0.2", "--r0", "8",
                                     "--seed", "3"],
        "realize": ["realize", "--surface", s1, slope_tuple],
        "realize-augmented": ["realize", "--surface", sa, twist_tuple],
        "psi": ["psi", "--surface", s1, xj, y25],
        "psi-flip": ["psi", "--surface", s1, xj, flipped],
        "bbf-audit": ["bbf-audit", "--surface", s1, "--pairs", "12", "--seed", "5"],
        "flat-fit": ["flat-fit", "--surface", s1, "--span", "20", "--noise", "2",
                     "--samples", "10", "--seed", "1"],
        "pipeline": ["pipeline", "--surface", s2, "--eps0", "0.2", "--theta0", "0.2",
                     "--r0", "8", "--noise", "2", "--seed", "4"],
        "rank": ["rank", "--surface", s2, "--n", "3", "--eps0", "0.05", "--box", "60",
                 "--seed", "2"],
        "rank-pants": ["rank", "--n", "3"] + pants,
        "pipeline-pants": ["pipeline"] + pants,
        "flat-fit-pants": ["flat-fit"] + pants,
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_golden()))
def test_cli_output_matches_golden(name, tmp_path):
    want = _golden()[name]
    assert run(want["argv"], tmp_path) == {k: v for k, v in want.items() if k != "argv"}


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def test_every_golden_stdout_is_strict_json():
    """Each recorded document parses with NaN and the infinities refused;
    a usage error prints none.  `hull --kappa inf` writes its kappa as
    null."""
    documents = 0
    for name, want in sorted(_golden().items()):
        if want["stdout"]:
            json.loads(want["stdout"], parse_constant=_refuse_constant)
            documents += 1
        else:
            assert want["exit"] == 2, name
    assert documents >= 25
    assert json.loads(_golden()["hull-kappa-inf"]["stdout"])["kappa"] is None


def test_goldens_do_not_depend_on_the_hash_seed():
    """The golden comparisons, rerun in two processes under the string
    hash seeds 0 and 1."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    node = f"{Path(__file__)}::test_cli_output_matches_golden"
    procs = [subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               node], env={**env, "PYTHONHASHSEED": seed},
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
             for seed in ("0", "1")]
    for seed, proc in zip(("0", "1"), procs):
        out = proc.communicate(timeout=600)[0]
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}:\n{out[-3000:]}"
        assert f"{len(_golden())} passed" in out, out[-500:]


if __name__ == "__main__":
    cases = _cases()
    doc = _golden() if GOLDEN.exists() else {}
    for name in sys.argv[1:] or cases:
        with tempfile.TemporaryDirectory() as tmp:
            doc[name] = {"argv": cases[name], **run(cases[name], Path(tmp))}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
