"""Seeded benchmark of coarsegeo: flat-pipeline, pair-audit, extraction.

    python3 perfbench/run.py --workload flat-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  One
process, one thread.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  Op times are scaled to the reference speed of
``speedprobe.py``: a probe chunk interrupts the pass every 50 ms, its
own time is taken out, and the rest is divided by how much slower than
usual the chunk ran in that pass.  The raw wall times go to the detail
file.

* ``setup_s``: median over ten fresh processes, half started before the
  rounds and half after them, of the wall time from
  spawning the interpreter to the first op (imports, constants load,
  seeded input generation, cache clear), not scaled: it is mostly
  imports, which do not slow down with the host as the probe chunk does;
* ``cold_s`` / ``warm_s``: median over rounds of one pass over the op
  list right after ``surfmodel.clear_caches()`` / right after that;
* ``op_p50_ms``: median op time over every warm pass;
* ``peak_rss_mb``: peak resident memory of this process.

Rounds repeat while the next one would end at most half a round past
``--seconds``.

``--trace 1`` runs a warm-up round and an untraced round, installs the
per-layer wrappers (``tracer.py``) and runs one traced round of the same
ops; it reports the per-layer counters of the traced round and
``trace.overhead_s``, the traced op time minus the untraced op time, in
raw wall time with no speed probe.

Details of every run (provenance, per-pass times, probe samples) go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("flat-pipeline", "pair-audit", "extraction")
SETUP_PROBES = 5  # before the rounds, and as many again after them


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int):
    """Import the package from the checkout, load constants, build the
    seeded inputs and clear the caches input generation filled."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import coarsegeo
    from coarsegeo import constants, surfmodel
    if not Path(coarsegeo.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"coarsegeo was imported from {coarsegeo.__file__}, not {SRC}")
    import workloads
    cn = constants.default_constants()
    wl = workloads.WORKLOADS[workload](seed, cn)
    surfmodel.clear_caches()
    return wl, cn


def probe_setup(args) -> float:
    """Wall time from spawning a fresh interpreter to its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {code}")
    return dt


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(cn) -> dict:
    import coarsegeo
    import numpy
    override = os.environ.get("COARSEGEO_CONSTANTS")
    digest = hashlib.sha256(json.dumps(cn.to_json(), sort_keys=True).encode()).hexdigest()
    return {
        "git_sha": git_sha(),
        "coarsegeo_path": str(Path(coarsegeo.__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "constants_sha256": digest[:16],
        "constants_override": override,
    }


class Runner:
    """Times passes over a workload's op list and checks every result."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # ops that raised
        self.mismatches: list[str] = []  # results that failed their check

    def run_pass(self, tracer=None, probe=None) -> tuple[list[float], float]:
        """Op times of one pass, without the time the probe took, and
        the pass's speed factor (1.0 without a probe)."""
        gc.collect()
        times, results = [], []
        start = probe.reading() if probe else None
        if tracer is not None:
            tracer.install()
        try:
            for i in range(len(self.wl)):
                self.attempted += 1
                spent = probe.spent if probe else 0.0
                t0 = time.perf_counter()
                try:
                    out = self.wl.run(i)
                except Exception as exc:  # an op that raises counts as failed
                    out = None
                    self.failed += 1
                    self.errors.append(f"op {i} raised {type(exc).__name__}: {exc}")
                dt = time.perf_counter() - t0
                times.append(dt - (probe.spent - spent if probe else 0.0))
                results.append(out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for i, out in enumerate(results):
            if out is not None:
                try:
                    self.wl.check(i, out)
                except Exception as exc:  # a missing stage or field is a mismatch too
                    self.mismatches.append(f"op {i}: {type(exc).__name__}: {exc}")
        return times, speedprobe.factor(start, probe.reading()) if probe else 1.0

    def round(self, tracer=None, probe=None):
        from coarsegeo import surfmodel
        surfmodel.clear_caches()
        cold = self.run_pass(tracer, probe)
        warm = self.run_pass(tracer, probe)
        return cold, warm


def measure(args, runner: Runner) -> tuple[dict, dict]:
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    probe = speedprobe.SpeedProbe()
    probe.start()
    try:
        t_start = time.perf_counter()
        colds, warms, warm_ops, raw = [], [], [], {"cold": [], "warm": [], "factor": []}
        while True:
            (cold, f_cold), (warm, f_warm) = runner.round(probe=probe)
            colds.append(sum(cold) / f_cold)
            warms.append(sum(warm) / f_warm)
            warm_ops += [t / f_warm for t in warm]
            raw["cold"].append(sum(cold))
            raw["warm"].append(sum(warm))
            raw["factor"] += [f_cold, f_warm]
            elapsed = time.perf_counter() - t_start
            # whole rounds only: start another while it would end at most
            # half a round past the requested time
            if elapsed + 0.5 * elapsed / len(colds) > args.seconds:
                break
    finally:
        probe.stop()
    probes += [probe_setup(args) for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "cold_s": (statistics.median(colds), "s"),
        "warm_s": (statistics.median(warms), "s"),
        "op_p50_ms": (1e3 * statistics.median(warm_ops), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"setup_probes_s": probes,
              "cold_passes_s": colds, "warm_passes_s": warms,
              "cold_passes_raw_s": raw["cold"], "warm_passes_raw_s": raw["warm"],
              "pass_speed_factors": raw["factor"], "probe_chunks": probe.count,
              "ops_per_pass": len(runner.wl), "warm_op_count": len(warm_ops)}
    if len(warm_ops) >= 40:
        detail["op_p90_ms"] = 1e3 * statistics.quantiles(warm_ops, n=10)[-1]
    return metrics, detail


def measure_traced(runner: Runner) -> tuple[dict, dict]:
    import tracer as tracing
    from coarsegeo import constants
    runner.round()  # the first round of a process runs slow; not compared
    untraced = sum(sum(times) for times, _ in runner.round())
    tr = tracing.Tracer()
    tr.install()
    try:
        constants.reset_cache()
        constants.default_constants()
    finally:
        tr.uninstall()
    traced = sum(sum(times) for times, _ in runner.round(tr))
    metrics = tr.metrics()
    metrics["trace.overhead_s"] = (traced - untraced, tracing.unit("trace.overhead_s"))
    return metrics, {"untraced_op_s": untraced, "traced_op_s": traced}


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "coarsegeo" / "__init__.py").is_file():
        return fail(f"no coarsegeo package under {SRC}; run from a source checkout")
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    wl, cn = setup(args.workload, args.seed)
    prov = provenance(cn)
    if prov["constants_override"]:
        print(f"perfbench: COARSEGEO_CONSTANTS is set ({prov['constants_override']}); "
              "figures are not comparable with the shipped constants", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    wl.prepare()
    runner = Runner(wl)
    if args.trace:
        metrics, detail = measure_traced(runner)
    else:
        metrics, detail = measure(args, runner)
    for err in (runner.errors + runner.mismatches)[:20]:
        print(f"perfbench: {err}", file=sys.stderr)
    result = {
        "correct": not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "detail": detail,
              "errors": runner.errors, "mismatches": runner.mismatches, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
