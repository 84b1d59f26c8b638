"""Tests of the benchmark itself: arithmetic, tracing, checks and failure
accounting.  Run with ``python -m pytest benches`` from the repository root."""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from spans import Probe, Tracer, layer_totals, self_times

catalab = run.import_catalab()


# -- statistics ----------------------------------------------------------------


def test_quartile_spread_matches_hand_values():
    # quantiles(n=4) of 1..10: Q1 = 2.75, Q3 = 8.25, median 5.5.
    assert checks.quartile_spread([float(v) for v in range(1, 11)]) == pytest.approx(1.0)
    # 10, 10, 11, 12: Q1 = 10, Q3 = 11.75, median 10.5.
    assert checks.quartile_spread([10.0, 12.0, 10.0, 11.0]) == pytest.approx(1.75 / 10.5)


class FixedRounds:
    """A workload whose operations report fixed latencies."""

    def __init__(self, latencies):
        self.latencies = latencies
        self.rounds = 0

    def round(self, tracer):
        self.rounds += 1
        return [run.Outcome("op", s) for s in self.latencies]


def test_timed_run_reports_medians(monkeypatch):
    setups = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)
    monkeypatch.setattr(run, "fresh_import_seconds", lambda: next(setups))
    workload = FixedRounds([0.4, 0.1, 0.3, 0.2])
    outcomes, metrics = run.timed_run(workload, seconds=0)
    assert workload.rounds == run.MIN_ROUNDS == 2
    assert len(outcomes) == 8
    assert metrics["setup_s"] == {"value": 2.0, "unit": "s"}
    # 0.1 0.1 0.2 0.2 | 0.3 0.3 0.4 0.4: median (0.2 + 0.3) / 2
    assert metrics["op_p50_s"]["value"] == pytest.approx(0.25)
    assert metrics["wall_s"]["unit"] == "s" and metrics["wall_s"]["value"] > 0


def test_chi2_tail_matches_closed_forms_and_scipy():
    assert checks.chi2_sf(2.0, 2) == pytest.approx(math.exp(-1.0))
    assert checks.chi2_sf(4.0, 4) == pytest.approx(math.exp(-2.0) * 3.0)
    assert checks.chi2_sf(1.5, 1) == pytest.approx(math.erfc(math.sqrt(0.75)))
    x = 2.5
    three = math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    assert checks.chi2_sf(x, 3) == pytest.approx(three)
    assert checks.chi2_sf(0.0, 63) == 1.0
    stats = pytest.importorskip("scipy.stats")
    for x, df in ((40.0, 63), (63.0, 63), (103.0, 63), (150.0, 63), (7.0, 10)):
        assert checks.chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), rel=1e-9)


# -- spans ----------------------------------------------------------------------


def test_self_time_is_span_minus_direct_children():
    spans = [
        ["op", 0.0, 10.0, -1, "a"],
        ["x", 1.0, 4.0, 0, "a"],
        ["gf2", 5.0, 9.0, 0, "a"],
        ["gf2", 6.0, 7.0, 2, "a"],
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    own, inclusive = layer_totals(spans)
    assert own == {"op": 3.0, "x": 3.0, "gf2": 4.0}
    # the nested gf2 span is inside the outer one and is not counted twice
    assert inclusive == {"op": 10.0, "x": 3.0, "gf2": 4.0}


def test_tracer_nests_spans_with_a_fake_clock():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.op = "op-1"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.spans == [["outer", 0.0, 5.0, -1, "op-1"], ["inner", 1.0, 2.0, 0, "op-1"]]
    assert self_times(tracer.spans) == [4.0, 1.0]


def test_probes_wrap_every_import_site_and_restore_them():
    dense, models, acceptance = catalab.dense, catalab.models, catalab.acceptance
    originals = (dense.apply_matrix, models.is_invariant, acceptance.ALL_CRITERIA["2"])
    probes = [p for p in run.PROBES if p.attr in ("apply_matrix", "is_invariant", "criterion_2")]
    tracer = Tracer()
    with tracer.installed(probes):
        assert models.is_invariant is not originals[1]
        assert catalab.stabilizer.is_invariant is models.is_invariant
        assert acceptance.ALL_CRITERIA["2"] is acceptance.criterion_2
        assert acceptance.criterion_2 is not originals[2]
        state = dense.DenseState.computational(2, 3, 0)
        dense.apply_local_unitary(state, np.eye(2), [1])
    assert (dense.apply_matrix, models.is_invariant, acceptance.ALL_CRITERIA["2"]) == originals
    assert tracer.counts["dense.apply_matrix_calls"] == 1
    assert tracer.counts["dense.bytes_moved"] == 2 * 16 * 8
    assert [s[0] for s in tracer.spans] == ["dense.apply_matrix_s"]


def test_method_probes_count_and_restore():
    pauli = catalab.pauli.PauliOperator
    original = pauli.__mul__
    tracer = Tracer()
    with tracer.installed([Probe("catalab.pauli.PauliOperator", "__mul__", count="products")]):
        pauli.x_at(2, 0) * pauli.z_at(2, 1)
    assert pauli.__mul__ is original
    assert tracer.counts["products"] == 1
    assert tracer.spans == []


def test_a_missing_probe_target_is_skipped():
    tracer = Tracer()
    probes = [Probe("catalab.gf2.BitMatrix", "no_such_method", "gf2.elimination_s"),
              Probe("catalab.no_such_module.Thing", "f", "x")]
    with tracer.installed(probes):
        pass
    assert tracer.spans == [] and not tracer.counts


# -- import-time parsing ----------------------------------------------------------


def test_importtime_totals_take_outermost_entries():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | site",
            "import time:        10 |         40 |       scipy.stats._a",
            "import time:        20 |         20 |       scipy.stats._b",
            "import time:        30 |        300 |     catalab.acceptance",
            "import time:        50 |        500 |   catalab",
            "import time:         5 |       1000 | catalab.cli",
        ]
    )
    assert run.parse_importtime(text) == pytest.approx(
        {"cli.import_s": 1000e-6, "cli.import_scipy_stats_s": 60e-6}
    )


# -- correctness checks --------------------------------------------------------------


def test_independent_checks_hold_on_the_package():
    assert run.independent_checks(catalab) == []
    assert checks.negative_control_passes(catalab) is False


def test_cz_ring_reference_phases():
    phases = checks.cz_ring_phases(4)
    assert phases[0b0000] == 1 and phases[0b0011] == -1
    assert phases[0b0101] == 1  # sites 0 and 2 are not neighbours
    assert phases[0b1001] == -1  # the ring closes: sites 3 and 0
    assert phases[0b0111] == 1  # two edges


def test_allowed_patterns_and_uniformity():
    patterns = checks.allowed_patterns(8)
    assert len(patterns) == 64
    assert all(math.prod(p[0::2]) == 1 and math.prod(p[1::2]) == 1 for p in patterns)
    assert checks.uniformity_pvalue({p: 5 for p in patterns}, 8) == 1.0
    assert checks.uniformity_pvalue({patterns[0]: 320}, 8) < 1e-100


def test_masking_covers_exactly_the_timing_fields():
    report = {
        "command": "catalyze",
        "timestamp": "t1",
        "results": {"wall_seconds": 1.0, "passed": True},
        "passed": True,
    }
    other = json.loads(json.dumps(report))
    other["timestamp"], other["results"]["wall_seconds"] = "t2", 2.0
    assert checks.masked(report) == checks.masked(other)
    other["results"]["passed"] = False
    assert checks.masked(report) != checks.masked(other)
    selftest = {
        "command": "selftest",
        "timestamp": "t1",
        "results": [{"seconds": 1.0, "details": {"elapsed_seconds": 2.0, "x": 1}}],
    }
    changed = json.loads(json.dumps(selftest))
    changed["results"][0]["seconds"] = 3.0
    changed["results"][0]["details"]["elapsed_seconds"] = 4.0
    assert checks.masked(selftest) == checks.masked(changed)
    changed["results"][0]["details"]["x"] = 2
    assert checks.masked(selftest) != checks.masked(changed)


# -- failure accounting ----------------------------------------------------------------


SMALL = (run._catalyze("cluster-1d", "ghz", "--n", "8", match=run.PURE),)


class EditingCli:
    """Runs the real CLI, then edits the report it wrote."""

    def __init__(self, edit):
        self.edit = edit

    def main(self, argv):
        code = catalab.cli.main(argv)
        path = Path(argv[argv.index("--out") + 1])
        report = json.loads(path.read_text())
        self.edit(report)
        path.write_text(json.dumps(report))
        return code


def _flip_first_audit(report):
    report["results"]["gate_audits"][0]["symmetric"] = False


def test_a_corrupted_report_is_a_failed_operation(tmp_path):
    workload = run.Reports(SMALL)
    workload.setup(catalab, 3, tmp_path)
    honest = workload.round(None)
    workload.cli = EditingCli(_flip_first_audit)
    corrupted = workload.round(None)
    result = run.summarize(honest + corrupted, {}, workload.finish())
    assert result["attempted"] == 2 and result["failed"] == 1
    assert "not symmetric" in corrupted[0].problems[0]
    # the corrupted field is not a masked one, so determinism fails too
    assert result["correct"] is False


def test_a_malformed_report_is_a_failed_operation(tmp_path):
    workload = run.Reports(SMALL)
    workload.setup(catalab, 3, tmp_path)
    workload.cli = EditingCli(lambda report: report.pop("results"))
    (outcome,) = workload.round(None)
    assert outcome.problems and "malformed report" in outcome.problems[0]


def test_a_corrupted_sample_is_a_failed_operation(tmp_path, monkeypatch):
    workload = run.Samples(8, 4)
    workload.setup(catalab, 3, tmp_path)
    assert not any(o.problems for o in workload.round(None))
    real = catalab.protocols.measurement_prepare_catalyst

    def flipped(n, rng):
        record = real(n, rng)
        record.outcomes = (-record.outcomes[0],) + tuple(record.outcomes[1:])
        return record

    monkeypatch.setattr(workload.protocols, "measurement_prepare_catalyst", flipped)
    outcomes = workload.round(None)
    assert all("parity" in o.problems[0] for o in outcomes)
    assert run.summarize(outcomes, {}, [])["failed"] == 4


def test_benchmark_file_lists_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {p.layer for p in run.PROBES if p.layer} <= set(run.PER_LAYER)


def test_a_run_whose_every_sample_raises_still_prints_its_result(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "fresh_import_seconds", lambda: 1.0)
    monkeypatch.setattr(catalab.protocols, "measurement_prepare_catalyst", broken)
    monkeypatch.setattr(checks, "doubled_reference_error", broken)
    code = run.main(["--workload", "sample-small", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["attempted"] == run.MIN_ROUNDS * run.SAMPLE_BATCH
    assert result["failed"] == result["attempted"]
