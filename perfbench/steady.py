"""Steadiness check: run one workload k times in fresh processes.

    python3 perfbench/steady.py --workload pair-audit --runs 10

Each run gets its own seed (``--first-seed``, then +1, ...) and the run
length from BENCHMARK.json.  For every end-to-end metric the command
prints the median, the quartiles of ``statistics.quantiles(values, n=4)``,
the spread (q3 - q1) / median and the metric's bound; a spread above a
third of the bound is marked, since a later comparison of two commits
can only resolve changes larger than the spread.  It also prints the
share of failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    values: dict[str, list[float]] = {}
    shares = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: results failed their checks", file=sys.stderr)
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}"
                                          for n, m in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s, "
          f"failed share {sorted(set(shares))}")
    print(f"{'metric':<14}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>9}{'bound':>8}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= metric["bound"] / 3 else "  > bound/3"
        print(f"{metric['name']:<14}{med:>11.4g}{q1:>11.4g}{q3:>11.4g}"
              f"{spread:>9.3f}{metric['bound']:>8.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
