#!/usr/bin/env python3
"""Reference scaling sweep, kept apart from the gated workloads.

    python3 benches/sweep.py

Times ``catalab catalyze --model cluster-1d --catalyst ghz --n N`` in-process
once for each N in SIZES, reading back the report's own ``results.wall_seconds`` (time in
``verify_catalysis``) next to the whole operation, and fits the exponent k
of t ~ N^k by least squares on log t against log N.  Prints a table to
stderr and one JSON object as the last line of stdout.
"""
from __future__ import annotations

import io
import json
import math
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import run

SIZES = (32, 64, 128, 256)


def fit_exponent(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    catalab = run.import_catalab()
    run.OUT.mkdir(parents=True, exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        out = Path(tmp) / "report.json"
        for n in SIZES:
            argv = ["catalyze", "--model", "cluster-1d", "--catalyst", "ghz",
                    "--n", str(n), "--out", str(out)]
            start = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                code = catalab.cli.main(argv)
            op_s = time.perf_counter() - start
            report = json.loads(out.read_text())
            if code != 0 or not report["passed"]:
                run.log(f"error: catalyze failed at n={n}")
                return 1
            rows.append({"n": n, "verify_s": report["results"]["wall_seconds"], "op_s": op_s})
            run.log(f"n={n:5d}  verify_catalysis {rows[-1]['verify_s']:8.3f}s  "
                    f"whole catalyze {rows[-1]['op_s']:8.3f}s")
    result = {
        "rows": rows,
        "verify_exponent": fit_exponent(SIZES, [r["verify_s"] for r in rows]),
        "op_exponent": fit_exponent(SIZES, [r["op_s"] for r in rows]),
    }
    run.log(f"fitted exponent: verify_catalysis {result['verify_exponent']:.2f}, "
            f"whole catalyze {result['op_exponent']:.2f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
