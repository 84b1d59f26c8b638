#!/usr/bin/env python3
"""Run the benchmark over several seeds and report medians and spreads.

    python3 benches/spread.py --runs 10 [--workloads stab-large,sample-small]

Runs benches/run.py once per seed (1..runs, or from --first-seed) and
workload, one process at a time, cycling through the workloads for each
seed so that a slow spell of the machine does not land on one workload
only.  Prints each run's result as a JSON line on stdout, then for every
workload and metric its median and its quartile spread, (Q3 - Q1) / median
with quartiles from ``statistics.quantiles(n=4)``, next to the bound in
BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            result.update(workload=workload, seed=seed, exit=proc.returncode)
            print(json.dumps(result), flush=True)
            results[workload].append(result)
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs if r.get("attempted")})
        correct = all(r.get("correct") for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct in every run: {correct}, "
              f"failed shares: {shares}", file=sys.stderr)
        for name in runs[0].get("metrics", {}):
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            spread = checks.quartile_spread(values) if len(values) > 1 and mid else float("nan")
            bound = bounds[name]
            print(f"  {name:34s} median {mid:14.6g}  spread {spread:7.4f}  "
                  f"bound {bound}  third {bound / 3:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
