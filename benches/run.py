#!/usr/bin/env python3
"""catalab benchmark: one workload, one seed, one process.

    python3 benches/run.py --workload stab-large --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats whole rounds of the workload's fixed batch of
operations until ``--seconds`` have passed, and at least two rounds, so
that every report is produced twice.  Then it runs the correctness checks
outside the timed region and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
warm-up round, then alternates an untraced round with a traced one, and
reports the per-layer metrics plus the tracing overhead against the
untraced rounds.  See benches/README.md.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benches" / "out"

# One process and one BLAS thread: the reference machine has two cores shared
# with other tenants, and a single thread keeps the eigensolves steady.  Must be
# set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Probe, Tracer, layer_totals  # noqa: E402

MIN_ROUNDS = 2
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
PURE = "group-equality-up-to-phase"
MIXED = "operator-equality"
OVERLAP = "overlap"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportOp:
    """One CLI report: argv for ``catalab.cli.main`` and the expected match."""

    name: str
    argv: tuple[str, ...]
    state_match: Optional[str] = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _catalyze(model: str, catalyst: str, *sizes: str, match: str) -> ReportOp:
    argv = ("catalyze", "--model", model, "--catalyst", catalyst) + sizes
    label = " ".join(sizes[i].lstrip("-") + "=" + sizes[i + 1] for i in range(0, len(sizes), 2))
    return ReportOp(f"{model}/{catalyst} {label}", argv, match)


REPORT_BATCHES = {
    "stab-large": (
        _catalyze("cluster-1d", "ghz", "--n", "128", match=PURE),
        _catalyze("cluster-1d", "swssb", "--n", "128", match=MIXED),
        _catalyze("lieb-2d", "toric-code", "--lx", "6", "--ly", "6", match=PURE),
        _catalyze("square-sspt", "pim-symmetric", "--l", "8", match=MIXED),
    ),
    "dense-oracle": (
        ReportOp("selftest criterion 2", ("selftest", "--criteria", "2")),
        _catalyze("cluster-1d", "gapless", "--n", "10", match=OVERLAP),
        _catalyze("cocycle-z2z2", "gapless", "--sites", "5", match=OVERLAP),
        _catalyze("cluster-1d", "ghz", "--engine", "dense", "--n", "10", match=OVERLAP),
    ),
}

SAMPLE_N = 8
SAMPLE_BATCH = 512


@dataclass
class Outcome:
    name: str
    seconds: float
    problems: list[str] = field(default_factory=list)


class Reports:
    """Report operations through ``catalab.cli.main``, in-process."""

    def __init__(self, ops: tuple[ReportOp, ...]):
        self.ops = ops

    def setup(self, catalab, seed: int, tmp: Path) -> None:
        self.cli = catalab.cli
        self.seed = seed
        self.tmp = tmp
        self.first: dict[str, str] = {}
        self.mismatched: list[str] = []

    def round(self, tracer: Optional[Tracer]) -> list[Outcome]:
        return [self._run(i, op, tracer) for i, op in enumerate(self.ops)]

    def _run(self, index: int, op: ReportOp, tracer: Optional[Tracer]) -> Outcome:
        path = self.tmp / f"report{index}.json"
        path.unlink(missing_ok=True)
        argv = list(op.argv)
        if op.command == "catalyze":
            argv += ["--seed", str(self.seed)]
        argv += ["--out", str(path)]
        with _op_span(tracer, op.name):
            start = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                return Outcome(op.name, time.perf_counter() - start, [_describe(exc)])
            seconds = time.perf_counter() - start
        if code != 0 or not path.is_file():
            return Outcome(op.name, seconds, [f"exit code {code}"])
        try:
            report = json.loads(path.read_text())
            problems = checks.report_problems(report, op.command, op.state_match)
            canonical = checks.masked(report)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return Outcome(op.name, seconds, [f"malformed report: {_describe(exc)}"])
        if self.first.setdefault(op.name, canonical) != canonical:
            self.mismatched.append(op.name)
        return Outcome(op.name, seconds, problems)

    def finish(self) -> list[str]:
        return [f"report not reproducible: {name}" for name in sorted(set(self.mismatched))]


class Samples:
    """Measurement-based catalyst preparation, one sample per operation.

    Each operation is one ``measurement_prepare_catalyst`` call plus the
    criterion-6 catalysis check of its post-measurement state against a
    doubled circuit compiled once per run (in set-up, outside the rounds).
    """

    def __init__(self, n: int, batch: int):
        self.n = n
        self.batch = batch

    def setup(self, catalab, seed: int, tmp: Path) -> None:
        self.protocols = catalab.protocols
        self.bundle = catalab.models.build_model("cluster-1d", n=self.n)
        self.doubled = catalab.verify.build_doubled_fdqc(
            self.bundle.entangler, self.n, self.bundle.lattice
        )
        self.seeds = np.random.SeedSequence(seed)
        self.counts: Counter = Counter()
        self.replay = None

    def round(self, tracer: Optional[Tracer]) -> list[Outcome]:
        return [self._run(child, tracer) for child in self.seeds.spawn(self.batch)]

    def _run(self, child, tracer: Optional[Tracer]) -> Outcome:
        name = "sample"
        with _op_span(tracer, name):
            start = time.perf_counter()
            try:
                record = self.protocols.measurement_prepare_catalyst(
                    self.n, np.random.default_rng(child)
                )
                combined = self.bundle.trivial.tensor(record.post_state)
                evolved = self.doubled.apply_stab(combined)
                expected = self.bundle.target.tensor(record.post_state)
                matched = evolved.same_state(expected)
            except Exception as exc:  # a crash is a failed operation
                return Outcome(name, time.perf_counter() - start, [_describe(exc)])
            seconds = time.perf_counter() - start
        outcomes = tuple(record.outcomes)
        problems = [] if matched else ["catalysis check failed"]
        if len(outcomes) != self.n or set(outcomes) - {1, -1}:
            problems.append(f"malformed outcomes {outcomes}")
        elif math.prod(outcomes[0::2]) != 1 or math.prod(outcomes[1::2]) != 1:
            problems.append(f"sublattice parity violated by {outcomes}")
        self.counts[outcomes] += 1
        if self.replay is None:
            self.replay = (child, outcomes)
        return Outcome(name, seconds, problems)

    def finish(self) -> list[str]:
        if self.replay is None:
            return ["no sample completed"]
        problems = []
        pvalue = checks.uniformity_pvalue(self.counts, self.n)
        if not pvalue >= checks.CHI2_P_FLOOR:
            problems.append(f"outcome patterns not uniform: p = {pvalue:.3g}")
        child, outcomes = self.replay
        again = self.protocols.measurement_prepare_catalyst(self.n, np.random.default_rng(child))
        if tuple(again.outcomes) != outcomes:
            problems.append("the same seed gave different outcomes")
        return problems


def make_workload(name: str):
    if name == "sample-small":
        return Samples(SAMPLE_N, SAMPLE_BATCH)
    return Reports(REPORT_BATCHES[name])


WORKLOADS = ("stab-large", "dense-oracle", "sample-small")


def _op_span(tracer: Optional[Tracer], name: str):
    if tracer is None:
        return nullcontext()
    tracer.op = name
    return tracer.span("bench.op")


def _describe(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# per-layer probes
# ---------------------------------------------------------------------------


def _bytes_moved(state, *args, **kwargs) -> int:
    """Computed, not measured: one read and one write of the state vector."""
    return 2 * state.amps.nbytes


def _gf2(attr: str) -> Probe:
    return Probe("catalab.gf2.BitMatrix", attr, "gf2.elimination_s", count="gf2.eliminations")


PROBES = [
    Probe("catalab.cli", "_emit", "cli.emit_s"),
    Probe("catalab.models", "build_model", "models.build_model_s"),
    Probe("catalab.models", "build_catalyst", "models.build_catalyst_s"),
    Probe("catalab.verify", "build_doubled_fdqc", "verify.build_doubled_fdqc_s"),
    Probe("catalab.verify", "audit_gate_symmetric", "verify.audit_s"),
    Probe("catalab.verify", "audit_dense_gate_symmetric", "verify.audit_s"),
    Probe("catalab.verify.DoubledCircuit", "apply_dense", "verify.dense_evolve_s"),
    Probe("catalab.verify.DoubledDiagonalCircuit", "apply_dense", "verify.dense_evolve_s"),
    Probe("catalab.stabilizer.StabilizerMixture", "apply_circuit", "stabilizer.apply_circuit_s"),
    Probe("catalab.stabilizer.StabilizerMixture", "apply_qca", "stabilizer.apply_circuit_s"),
    Probe("catalab.stabilizer.StabilizerMixture", "same_state", "stabilizer.same_state_s"),
    Probe("catalab.stabilizer", "is_invariant", "stabilizer.is_invariant_s"),
    Probe("catalab.stabilizer.StabilizerMixture", "measure", "stabilizer.measure_s"),
    Probe("catalab.stabilizer.CliffordGate", "conjugate", count="stabilizer.gate_conjugations"),
    Probe("catalab.pauli.PauliOperator", "__init__", count="pauli.constructions"),
    Probe("catalab.pauli.PauliOperator", "__mul__", count="pauli.products"),
    _gf2("rref"),
    _gf2("rref_with_transform"),
    _gf2("solve_mask"),
    Probe(
        "catalab.dense",
        "apply_matrix",
        "dense.apply_matrix_s",
        count="dense.apply_matrix_calls",
        weigh=("dense.bytes_moved", _bytes_moved),
    ),
    Probe("catalab.dense", "gate_unitary", "dense.gate_unitary_s"),
    Probe("catalab.dense", "ground_state", "dense.ground_state_s"),
    Probe("catalab.cohomology", "bilinear_cocycle", "cohomology.build_s"),
    Probe("catalab.cohomology", "normalize_cocycle", "cohomology.build_s"),
    Probe("catalab.cohomology", "compile_cocycle_circuit", "cohomology.build_s"),
    Probe(
        "catalab.protocols", "measurement_prepare_catalyst", "protocols.measurement_prepare_s"
    ),
    Probe("catalab.acceptance", "criterion_2", "acceptance.criterion2_s"),
]

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# name -> unit; ``_s`` metrics are span self times summed over one round.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "cli.emit_s": "s",
    "models.build_model_s": "s",
    "models.build_catalyst_s": "s",
    "verify.build_doubled_fdqc_s": "s",
    "verify.audit_s": "s",
    "verify.dense_evolve_s": "s",
    "stabilizer.apply_circuit_s": "s",
    "stabilizer.same_state_s": "s",
    "stabilizer.is_invariant_s": "s",
    "stabilizer.measure_s": "s",
    "stabilizer.gate_conjugations": "count",
    "pauli.constructions": "count",
    "pauli.products": "count",
    "gf2.eliminations": "count",
    "gf2.elimination_s": "s",
    "dense.apply_matrix_calls": "count",
    "dense.apply_matrix_s": "s",
    "dense.bytes_moved": "B",
    "dense.gate_unitary_s": "s",
    "dense.ground_state_s": "s",
    "cohomology.build_s": "s",
    "protocols.measurement_prepare_s": "s",
    "acceptance.criterion2_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import_seconds() -> float:
    """Wall time from spawning a fresh interpreter until ``import catalab.cli``
    returns in it (CLOCK_MONOTONIC is shared by all processes on Linux)."""
    code = "import catalab.cli, time; print(time.monotonic())"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def import_breakdown() -> dict[str, float]:
    """Cumulative seconds from ``python -X importtime -c 'import catalab.cli'``
    of the outermost catalab entry and of ``scipy.stats``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import catalab.cli"],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    """Sum the cumulative time of the outermost entries of each family; the
    scipy.stats package line itself may be missing (scipy loads it lazily),
    so its submodules stand in for it."""
    entries = []  # (depth, name, cumulative seconds), children before parents
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue
        raw = parts[2][1:]
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(parts[1]) / 1e6))
    return {
        "cli.import_s": _outermost_total(entries, "catalab"),
        "cli.import_scipy_stats_s": _outermost_total(entries, "scipy.stats"),
    }


def _outermost_total(entries, package: str) -> float:
    def member(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if member(name) and not any(member(a) for _, a in ancestors):
            total += cumulative
        ancestors.append((depth, name))
    return total


def round_layers(tracer: Tracer) -> dict[str, float]:
    own, _ = layer_totals(tracer.spans)
    values = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            values[name] = own.get(name, 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    values["trace.unattributed_s"] = own.get("bench.op", 0.0)
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def independent_checks(catalab) -> list[str]:
    problems = []
    if checks.negative_control_passes(catalab):
        problems.append("negative control: a |+> product passed as a catalyst")
    error = checks.doubled_reference_error(catalab)
    if not error <= checks.ORACLE_BOUND:
        problems.append(f"doubled circuit differs from numpy U(x)U^-1 by {error:.3g}")
    return problems


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def timed_run(workload, seconds: float) -> tuple[list[Outcome], dict]:
    setup = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    walls: list[float] = []
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        outcomes += workload.round(None)
        walls.append(time.perf_counter() - begin)
    log(f"rounds {len(walls)}: " + ", ".join(f"{w:.3f}s" for w in walls))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median([o.seconds for o in outcomes]),
        "peak_rss_mb": peak_rss_mb(),
    }
    return outcomes, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced_run(workload, seconds: float, trace_path: Path) -> tuple[list[Outcome], dict]:
    imports = [import_breakdown() for _ in range(IMPORTTIME_REPEATS)]
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    spans: list[list] = []
    # A first, cold round is compared with nothing: it would make the
    # untraced side look slow.
    outcomes: list[Outcome] = workload.round(None)
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        outcomes += workload.round(None)
        plain.append(time.perf_counter() - begin)
        tracer = Tracer()
        with tracer.installed(PROBES):
            begin = time.perf_counter()
            outcomes += workload.round(tracer)
            traced.append(time.perf_counter() - begin)
        layers.append(round_layers(tracer))
        spans.append(tracer.spans)
    values = {name: statistics.median([r[name] for r in layers]) for name in layers[0]}
    for name in ("cli.import_s", "cli.import_scipy_stats_s"):
        values[name] = statistics.median([i[name] for i in imports])
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    values["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    log(f"rounds {len(plain)}: untraced {plain_s:.3f}s, traced {traced_s:.3f}s")
    own, inclusive = layer_totals(spans[-1])
    log("last traced round, per layer (self / inclusive seconds):")
    for layer in sorted(inclusive, key=inclusive.get, reverse=True):
        log(f"  {layer:34s} {own[layer]:10.4f} {inclusive[layer]:10.4f}")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["layer", "start", "end", "parent", "op"]
    trace_path.write_text(json.dumps({"fields": fields, "rounds": spans}))
    log(f"spans written to {trace_path.relative_to(ROOT)}")
    return outcomes, {name: {"value": values[name], "unit": u} for name, u in PER_LAYER.items()}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_catalab():
    """Import catalab from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import catalab
    import catalab.cli  # noqa: F401  (also imports every layer below it)

    if Path(catalab.__file__).resolve().parent != (SRC / "catalab").resolve():
        raise ImportError(f"catalab was imported from {catalab.__file__}, not {SRC}")
    return catalab


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "catalab" / "__init__.py").is_file():
        log(f"error: no catalab sources under {SRC}; run from a source checkout")
        return 2
    try:
        catalab = import_catalab()
    except ImportError as exc:
        log(f"error: {exc}")
        return 2
    workload = make_workload(args.workload)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload.setup(catalab, args.seed, Path(tmp))
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            outcomes, metrics = traced_run(workload, args.seconds, trace_path)
        else:
            outcomes, metrics = timed_run(workload, args.seconds)
        problems = run_checks(workload.finish, lambda: independent_checks(catalab))
    result = summarize(outcomes, metrics, problems)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_checks(*run_level) -> list[str]:
    """Problems found by the run-level checks; a check that raises is one
    more problem, so the result line is still printed."""
    problems = []
    for check in run_level:
        try:
            problems += check()
        except Exception as exc:
            problems.append(f"run-level check {_describe(exc)}")
    return problems


def summarize(outcomes: list[Outcome], metrics: dict, problems: list[str]) -> dict:
    """The result line: an operation with any problem counts as failed; a
    failed run-level check makes the run incorrect."""
    failed = [o for o in outcomes if o.problems]
    for outcome in failed[:10]:
        log(f"FAILED {outcome.name}: {'; '.join(outcome.problems)}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    by_op: dict[str, list[float]] = {}
    for outcome in outcomes:
        by_op.setdefault(outcome.name, []).append(outcome.seconds)
    for name, times in by_op.items():
        log(f"  {name:40s} x{len(times):<5d} median {statistics.median(times):.4f}s")
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
