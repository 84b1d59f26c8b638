"""Batch experiment runner and report emitter.

One command produces one report.  Reports are deterministic given the config
and seed, apart from the timing fields listed in the README (section "Command
line"), which golden comparisons mask.  Exit codes: 0 all checks passed,
1 check failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from . import acceptance as acc
from . import dense as dn
from .cohomology import (
    FiniteAbelianGroup,
    bilinear_cocycle,
    cohomology_group,
    normalize_cocycle,
)
from .models import RegistryError, build_catalyst, build_model
from .pauli import PauliOperator
from .protocols import (
    RecipeError,
    audit_schedule,
    catalyzed_pipeline,
    execute_schedule,
    measurement_prepare_catalyst,
    register_a_matches,
)
from .verify import (
    disorder_parameter,
    fidelity_correlator,
    spt_invariant,
    strong_localization,
    verify_catalysis,
    weak_localization,
)
from .stabilizer import renyi_correlator


class UsageError(Exception):
    pass


def _model_params(args) -> dict:
    keys = ("n", "lx", "ly", "l", "sites")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _emit(envelope: dict, out: Optional[str], fmt: str, rows=None) -> None:
    """Render the report as JSON, or as the CSV table `rows`, then write it
    to `out` or stdout.  `_report`'s render step, kept apart so that the
    benchmark can time it (`cli.emit_s`)."""
    if fmt == "csv":
        if rows is None:
            raise UsageError("csv output is only available for tabular payloads")
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(envelope, indent=2, sort_keys=True, default=str) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"{'PASS' if envelope['passed'] else 'FAIL'} report written to {out}")
    else:
        sys.stdout.write(text)


def _report(args, results, passed: bool = True, rows=None, config=None) -> int:
    """Emit the command's report and return its exit code.  The config
    defaults to every parsed option that is set, apart from those that route
    or render the report.  A command without `--format` (selftest) writes
    its report only to `--out`."""
    if config is None:
        skip = ("command", "fn", "out", "format")
        config = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    envelope = {
        "tool": "catalab",
        "version": __version__,
        "command": args.command,
        "config": config,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": results,
        "passed": passed,
    }
    if args.out or hasattr(args, "format"):
        _emit(envelope, args.out, getattr(args, "format", "json"), rows)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_catalyze(args) -> int:
    bundle = build_model(args.model, **_model_params(args))
    catalyst = build_catalyst(bundle, args.catalyst)
    if args.engine == "stabilizer" and catalyst.engine != "stabilizer":
        raise UsageError(f"catalyst {args.catalyst!r} has no stabilizer realization")
    if args.engine == "dense" and catalyst.engine == "stabilizer":
        if catalyst.mixed:
            raise UsageError("mixed catalysts are verified exactly, not densely")
        catalyst.engine = "dense"
        catalyst.dense_state = dn.stabilizer_to_dense(catalyst.stab)
    report = verify_catalysis(bundle, catalyst)
    return _report(args, report.to_json_dict(), report.passed)


def cmd_invariant(args) -> int:
    if args.n < 12:
        raise UsageError("the invariant needs a ring of at least 12 sites")
    bundle = build_model(args.model, n=args.n)
    table = spt_invariant(bundle.entangler, bundle.symmetry, args.n)
    payload = table.to_json_dict()
    nontrivial = any(v != 1 for v in table.entries.values())
    rows = [["g", "h", "re", "im", "ipower"]] + [
        [e["g"], e["h"], e["re"], e["im"], e.get("ipower")] for e in payload["entries"]
    ]
    return _report(args, {**payload, "nontrivial": nontrivial}, rows=rows)


def cmd_localization(args) -> int:
    bundle = build_model(args.model, n=args.n)
    catalyst = build_catalyst(bundle, args.catalyst)
    if catalyst.engine != "stabilizer":
        raise UsageError("localization diagnostics need a stabilizer catalyst")
    low, high = 4 * args.radius, args.n - 4 * args.radius
    for length in args.lengths:
        if not low <= length <= high:
            raise UsageError(
                f"--lengths entry {length} does not fit: at --n {args.n} and "
                f"--radius {args.radius} a length must lie in [{low}, {high}]"
            )
    solver = strong_localization if args.mode == "strong" else weak_localization
    results = []
    for gen in bundle.symmetry.generators:
        for length in args.lengths:
            gamma = (0, length - 1)
            witness = solver(catalyst.stab, gamma, gen.pauli, args.radius)
            results.append(
                {
                    "generator": gen.name,
                    "interval": list(gamma),
                    "radius": args.radius,
                    "witness": None
                    if witness is None
                    else [str(witness[0]), str(witness[1])],
                }
            )
    return _report(args, results)


def cmd_correlators(args) -> int:
    bundle = build_model(args.model, **_model_params(args))
    catalyst = build_catalyst(bundle, args.catalyst)
    if catalyst.engine != "stabilizer":
        raise UsageError("correlator diagnostics need a stabilizer catalyst")
    state = catalyst.stab
    results = []
    if bundle.name == "lieb-2d":
        lat = bundle.lattice
        loops = [PauliOperator.z_at(bundle.n, *loop) for loop in lat.dual_loops()]
        string = PauliOperator.x_at(bundle.n, *lat.open_string(lat.lx - 1))
        for tag, op in zip(("dual-loop-h", "dual-loop-v", "open-string"), loops + [string]):
            exp, fid = disorder_parameter(state, op)
            results.append({"observable": tag, "expectation": exp, "fidelity": str(fid)})
    else:
        pairs = [(0, 2), (0, 1), (0, 4)]
        if bundle.n <= 4:
            raise UsageError(
                f"the correlator pairs {pairs} need sites 0 to 4; "
                f"{args.model} at this size has {bundle.n} sites"
            )
        for i, j in pairs:
            o_i = PauliOperator.z_at(bundle.n, i)
            o_j = PauliOperator.z_at(bundle.n, j)
            results.append(
                {
                    "observable": f"z{i}-z{j}",
                    "expectation": state.expectation(o_i * o_j),
                    "fidelity": str(fidelity_correlator(state, o_i, o_j)),
                    "renyi2": str(renyi_correlator(state, o_i, o_j, 2)),
                }
            )
    rows = [["observable", "expectation", "fidelity", "renyi2"]] + [
        [r["observable"], r["expectation"], r["fidelity"], r.get("renyi2", "")]
        for r in results
    ]
    return _report(args, results, rows=rows)


def _measure_prep_run(n: int, seed: np.random.SeedSequence) -> dict:
    """One run of the protocol, as its report entry."""
    try:
        record = measurement_prepare_catalyst(n, np.random.default_rng(seed))
    except AssertionError as exc:
        # The protocol asserts its parity, invariance and symmetry claims;
        # a violation is a failed run, not a crash of the whole command.
        return {"error": str(exc)}
    return {
        "outcomes": list(record.outcomes),
        "parity_even": record.parity_even,
        "parity_odd": record.parity_odd,
        "invariant": record.invariant_under_entangler,
    }


def cmd_measure_prep(args) -> int:
    if args.runs < 1:
        raise UsageError(f"--runs must be at least 1, got {args.runs}")
    seeds = np.random.SeedSequence(args.seed).spawn(args.runs)
    results = [_measure_prep_run(args.n, seed) for seed in seeds]
    failures = [(idx, r["error"]) for idx, r in enumerate(results) if "error" in r]
    summary = {"runs": results, "all_valid": not failures}
    if failures:
        idx, message = failures[0]
        summary["first_failure"] = {"run": idx, "error": message}
    return _report(args, summary, not failures)


def cmd_pipeline(args) -> int:
    bundle = build_model(args.model, **_model_params(args))
    catalyst = build_catalyst(bundle, args.catalyst)
    schedule = catalyzed_pipeline(bundle, catalyst, args.mode)
    audited = audit_schedule(schedule, bundle.symmetry)
    rng = np.random.default_rng(args.seed)
    final, outcomes = execute_schedule(schedule, rng)
    if schedule.ancilla_offset is not None:
        reached = register_a_matches(final, bundle.target)
    else:
        reached = final.same_state(bundle.target)
    results = {
        **schedule.to_json_dict(),
        "audited": audited,
        "target_reached": reached,
        "measurement_outcomes": [list(o) for o in outcomes],
    }
    return _report(args, results, audited and reached)


_GROUPS = {
    "Z2": (2,),
    "Z3": (3,),
    "Z4": (4,),
    "Z2xZ2": (2, 2),
    "Z2xZ4": (2, 4),
    "Z3xZ3": (3, 3),
}


def cmd_cohomology(args) -> int:
    factors = _GROUPS.get(args.group)
    if factors is None:
        raise UsageError(f"unknown group {args.group!r}; known: {sorted(_GROUPS)}")
    group = FiniteAbelianGroup(factors)
    result = cohomology_group(group, args.degree)
    payload = {
        "group": args.group,
        "degree": args.degree,
        "modulus": result.modulus,
        "invariant_factors": list(result.invariant_factors),
        "representatives": [rep.to_json_dict() for rep in result.representatives],
    }
    if args.normalize and args.group == "Z2xZ2" and args.degree == 2:
        nu = normalize_cocycle(bilinear_cocycle(group, 0, 1))
        payload["normalized_entangler_class"] = nu.to_json_dict()
    return _report(args, payload, config={"group": args.group, "degree": args.degree})


def cmd_selftest(args) -> int:
    keys = args.criteria.split(",") if args.criteria else None
    results = acc.run_all(keys)
    for result in results:
        print(result.line())
    entries = [
        {
            "criterion": r.key,
            "title": r.title,
            "passed": r.passed,
            "seconds": round(r.seconds, 3),
            "details": r.details,
        }
        for r in results
    ]
    passed = all(r.passed for r in results)
    return _report(args, entries, passed, config={"criteria": keys or "all"})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalab",
        description="Exact desk-scale verification of catalyzed transformations "
        "between phases of matter.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sizes(p):
        p.add_argument("--n", type=int, default=None, help="ring size (1D models)")
        p.add_argument("--lx", type=int, default=None)
        p.add_argument("--ly", type=int, default=None)
        p.add_argument("--l", type=int, default=None, help="square torus size")
        p.add_argument("--sites", type=int, default=None, help="cocycle chain sites")

    def add_common(p):
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("catalyze", help="verify one catalyzed transformation")
    p.add_argument("--model", required=True)
    p.add_argument("--catalyst", required=True)
    p.add_argument("--engine", choices=("auto", "stabilizer", "dense"), default="auto")
    add_sizes(p)
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_catalyze)

    p = sub.add_parser("invariant", help="entangler invariant table")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_invariant)

    p = sub.add_parser("localization", help="symmetry localization witnesses")
    p.add_argument("--model", required=True)
    p.add_argument("--catalyst", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--lengths", type=_int_list, default="4,6,8")
    add_common(p)
    p.set_defaults(fn=cmd_localization)

    p = sub.add_parser("correlators", help="mixed-state correlator diagnostics")
    p.add_argument("--model", required=True)
    p.add_argument("--catalyst", required=True)
    add_sizes(p)
    add_common(p)
    p.set_defaults(fn=cmd_correlators)

    p = sub.add_parser("measure-prep", help="measurement-based catalyst preparation")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--runs", type=int, default=100)
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_measure_prep)

    p = sub.add_parser("pipeline", help="catalyzed preparation schedules")
    p.add_argument("--model", required=True)
    p.add_argument("--catalyst", required=True)
    p.add_argument("--mode", choices=("ancilla", "four-step", "measurement"), default="ancilla")
    add_sizes(p)
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("cohomology", help="cohomology groups and representatives")
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--normalize", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,3,7")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, RegistryError, RecipeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
