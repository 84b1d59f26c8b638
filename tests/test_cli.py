import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catalab
import catalab.cli as cli
from catalab.verify import CatalysisReport


def run_cli(args):
    return cli.main(args)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_catalyze_pass_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        [
            "catalyze",
            "--model",
            "cluster-1d",
            "--catalyst",
            "ghz",
            "--n",
            "8",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    assert report["passed"] is True
    assert report["results"]["logical_depth"] == 2
    assert all(g["symmetric"] for g in report["results"]["gate_audits"])


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run_cli(["catalyze", "--model", "bogus", "--catalyst", "ghz"]) == 2
    assert run_cli(["catalyze", "--model", "cluster-1d", "--catalyst", "nope"]) == 2
    err = capsys.readouterr().err
    for kind in ("ghz", "ghz-one-sublattice", "superposition", "gapless", "swssb", "group-average"):
        assert repr(kind) in err
    assert run_cli(["invariant", "--model", "cluster-1d", "--n", "8"]) == 2
    assert run_cli(["bogus-command"]) == 2
    # A size key the model does not take names the keys it does take.
    out = ["--out", str(tmp_path / "r.json")]
    for argv in (
        "catalyze --model lieb-2d --catalyst ghz-vertices --n 8",
        "localization --model lieb-2d --catalyst toric-code --n 30",
        "invariant --model cocycle-z2z2 --n 12",
        "invariant --model lieb-2d --n 12",
    ):
        assert run_cli(argv.split() + out) == 2
        assert "takes the size keys" in capsys.readouterr().err
    argv = "localization --model cluster-1d --catalyst swssb --n 12 --radius -1"
    assert run_cli(argv.split() + out) == 2
    assert "the radius must be at least 0, got -1" in capsys.readouterr().err
    # A length outside [4 radius, n - 4 radius] is named, not dropped.
    argv = "localization --model cluster-1d --catalyst swssb --n 12 --lengths 100,13"
    assert run_cli(argv.split() + out) == 2
    assert "--lengths entry 100 does not fit" in capsys.readouterr().err
    # The 1D correlator pairs reach site 4, so 4 sites are too few.
    for argv in (
        "correlators --model cluster-1d --catalyst swssb --n 4",
        "correlators --model square-sspt --catalyst group-average --l 2",
    ):
        assert run_cli(argv.split() + out) == 2
        err = capsys.readouterr().err
        assert "need sites 0 to 4" in err and "has 4 sites" in err
    assert not (tmp_path / "r.json").exists()
    assert (
        run_cli(
            [
                "catalyze",
                "--model",
                "cluster-1d",
                "--catalyst",
                "swssb",
                "--engine",
                "dense",
            ]
        )
        == 2
    )


def test_check_failure_exit_one(monkeypatch, tmp_path):
    failing = CatalysisReport(
        model="cluster-1d",
        catalyst="ghz",
        engine="stabilizer",
        logical_depth=2,
        max_gate_support=4,
        gate_audits=[("g", True)],
        state_match="mismatch",
        overlap_modulus=None,
        passed=False,
        wall_seconds=0.0,
    )
    monkeypatch.setattr(cli, "verify_catalysis", lambda *a, **k: failing)
    out = tmp_path / "fail.json"
    code = run_cli(
        ["catalyze", "--model", "cluster-1d", "--catalyst", "ghz", "--n", "8", "--out", str(out)]
    )
    assert code == 1
    assert load_report(out)["passed"] is False


GOLDEN = Path(__file__).parent / "data"
TIMING_FIELDS = {"timestamp", "wall_seconds", "seconds", "elapsed_seconds"}


def without_timing(report):
    if isinstance(report, dict):
        return {k: without_timing(v) for k, v in report.items() if k not in TIMING_FIELDS}
    if isinstance(report, list):
        return [without_timing(v) for v in report]
    return report


GOLDEN_REPORTS = {
    "catalyze-cluster-1d-ghz-n16": "catalyze --model cluster-1d --catalyst ghz --n 16",
    "catalyze-cluster-1d-swssb-n16": "catalyze --model cluster-1d --catalyst swssb --n 16",
    "measure-prep-n8-runs32-seed1": "measure-prep --n 8 --runs 32 --seed 1",
    "invariant-cluster-1d-n12": "invariant --model cluster-1d --n 12",
    "localization-cluster-1d-swssb-n12-r1": (
        "localization --model cluster-1d --catalyst swssb --n 12 --radius 1"
    ),
    "localization-cluster-1d-swssb-n12-r1-weak": (
        "localization --model cluster-1d --catalyst swssb --n 12 --radius 1 --mode weak"
    ),
    "correlators-cluster-1d-swssb-n8": "correlators --model cluster-1d --catalyst swssb --n 8",
    "correlators-lieb-2d-lieb-mixed-2x2": (
        "correlators --model lieb-2d --catalyst lieb-mixed --lx 2 --ly 2"
    ),
    "pipeline-cluster-1d-ghz-ancilla-n8": (
        "pipeline --model cluster-1d --catalyst ghz --mode ancilla --n 8"
    ),
    "pipeline-cluster-1d-swssb-measurement-n8-seed4": (
        "pipeline --model cluster-1d --catalyst swssb --mode measurement --n 8 --seed 4"
    ),
    "pipeline-lsm-dimer-long-range-bell-four-step-n8": (
        "pipeline --model lsm-dimer --catalyst long-range-bell --mode four-step --n 8"
    ),
    "cohomology-Z2xZ2-degree2-normalize": "cohomology --group Z2xZ2 --degree 2 --normalize",
    "selftest-criteria5": "selftest --criteria 5",
    "catalyze-lieb-2d-lieb-mixed-2x2": (
        "catalyze --model lieb-2d --catalyst lieb-mixed --lx 2 --ly 2"
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
def test_reports_match_golden_files(tmp_path, name):
    """Reports are pinned byte for byte, timing fields removed.  Each file
    under tests/data is the report of `catalab GOLDEN_REPORTS[name] --out
    FILE` with every key in TIMING_FIELDS dropped, written by
    json.dump(indent=2, sort_keys=True) plus a newline.  Regenerate a file
    only for an intended change of output."""
    out = tmp_path / "report.json"
    assert run_cli(GOLDEN_REPORTS[name].split() + ["--out", str(out)]) == 0
    got = json.dumps(without_timing(load_report(out)), indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / f"{name}.json").read_text()


def test_reports_deterministic_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "catalyze",
        "--model",
        "lsm-dimer",
        "--catalyst",
        "ghz",
        "--n",
        "8",
        "--seed",
        "3",
    ]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    ra, rb = load_report(a), load_report(b)
    ra.pop("timestamp")
    rb.pop("timestamp")
    # wall-clock is measurement metadata, not payload
    ra["results"].pop("wall_seconds")
    rb["results"].pop("wall_seconds")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_invariant_reports_mixed_entry(tmp_path):
    out = tmp_path / "inv.json"
    assert run_cli(["invariant", "--model", "cluster-1d", "--n", "12", "--out", str(out)]) == 0
    report = load_report(out)
    entries = {(e["g"], e["h"]): e["re"] for e in report["results"]["entries"]}
    assert entries[("x-even", "x-odd")] == -1
    assert report["results"]["nontrivial"] is True


def test_invariant_csv(tmp_path):
    out = tmp_path / "inv.csv"
    assert (
        run_cli(
            [
                "invariant",
                "--model",
                "cluster-1d",
                "--n",
                "12",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    text = out.read_text().splitlines()
    assert text[0].startswith("g,h,re")
    assert any("-1" in line for line in text[1:])


@pytest.mark.parametrize("flag, value", [("--runs", "-3"), ("--runs", "0")])
def test_measure_prep_rejects_bad_counts(tmp_path, capsys, flag, value):
    out = tmp_path / "mp.json"
    argv = ["measure-prep", "--n", "8", "--runs", "4", flag, value, "--out", str(out)]
    assert run_cli(argv) == 2
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_loads_no_scipy():
    # scipy.stats costs most of a second; only criterion 6 imports it, when
    # it runs, so the CLI's start-up time stays free of it.
    code = "import sys, catalab.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(catalab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_measure_prep_invariance_failure_under_python_O(tmp_path):
    # The ring without its closing CZ does not fix the sublattice-X
    # stabilizers, so the invariance proof fails for every outcome.  The
    # proof raises rather than asserts, so it holds with asserts stripped.
    out = tmp_path / "mp.json"
    code = (
        "import sys\n"
        "import catalab.protocols as protocols\n"
        "from catalab.cli import main\n"
        "from catalab.stabilizer import cz_gate, pack_gates_into_layers\n"
        "protocols.cz_ring_circuit = lambda n: pack_gates_into_layers(\n"
        "    n, [cz_gate(n, i, i + 1) for i in range(n - 1)])\n"
        f"sys.exit(main(['measure-prep', '--n', '8', '--runs', '3', '--out', {str(out)!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(catalab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1, proc.stderr
    results = load_report(out)["results"]
    claim = "post-measurement state is not entangler-invariant"
    assert results["first_failure"] == {"run": 0, "error": claim}
    assert results["runs"] == [{"error": claim}] * 3


def test_measure_prep_protocol_violation_fails_the_report(tmp_path, monkeypatch):
    real = cli.measurement_prepare_catalyst
    calls = []

    def flaky(n, rng):
        calls.append(n)
        if len(calls) in (3, 5):
            raise AssertionError(f"sublattice parity constraint violated ({len(calls)})")
        return real(n, rng)

    monkeypatch.setattr(cli, "measurement_prepare_catalyst", flaky)
    out = tmp_path / "mp.json"
    argv = ["measure-prep", "--n", "8", "--runs", "6", "--seed", "2"]
    assert run_cli(argv + ["--out", str(out)]) == 1
    report = load_report(out)
    assert report["passed"] is False
    assert report["results"]["all_valid"] is False
    assert report["results"]["first_failure"] == {
        "run": 2,
        "error": "sublattice parity constraint violated (3)",
    }
    runs = report["results"]["runs"]
    assert runs[2] == {"error": "sublattice parity constraint violated (3)"}
    assert runs[4] == {"error": "sublattice parity constraint violated (5)"}
    assert all(r["invariant"] for i, r in enumerate(runs) if i not in (2, 4))


def test_localization_report(tmp_path):
    out = tmp_path / "loc.json"
    code = run_cli(
        [
            "localization",
            "--model",
            "cluster-1d",
            "--catalyst",
            "swssb",
            "--n",
            "12",
            "--radius",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    assert all(row["witness"] is None for row in report["results"])


def test_readme_localization_example_writes_every_row(tmp_path):
    # The default radius 1 fits every default length 4, 6, 8 at n = 12.
    out = tmp_path / "loc.json"
    argv = "localization --model cluster-1d --catalyst swssb --n 12 --mode strong"
    assert run_cli(argv.split() + ["--out", str(out)]) == 0
    assert len(load_report(out)["results"]) == 6


def test_correlators_report(tmp_path):
    out = tmp_path / "corr.json"
    code = run_cli(
        [
            "correlators",
            "--model",
            "lieb-2d",
            "--catalyst",
            "lieb-mixed",
            "--lx",
            "2",
            "--ly",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    for row in report["results"]:
        assert row["expectation"] == 0
        assert row["fidelity"] == "1"


def test_cohomology_report(tmp_path):
    out = tmp_path / "coh.json"
    code = run_cli(
        ["cohomology", "--group", "Z2", "--degree", "2", "--out", str(out)]
    )
    assert code == 0
    report = load_report(out)
    assert report["results"]["invariant_factors"] == [2]


def test_pipeline_report(tmp_path):
    out = tmp_path / "pipe.json"
    code = run_cli(
        [
            "pipeline",
            "--model",
            "cluster-1d",
            "--catalyst",
            "ghz",
            "--mode",
            "ancilla",
            "--n",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    assert report["results"]["total_depth"] == 9
    assert report["results"]["target_reached"] is True


def test_selftest_subset(capsys, tmp_path):
    out = tmp_path / "self.json"
    code = run_cli(["selftest", "--criteria", "7", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "PASS criterion 7" in captured.out
    report = load_report(out)
    assert report["results"][0]["passed"] is True


def test_localization_weak_mode(tmp_path):
    out = tmp_path / "weak.json"
    code = run_cli(
        [
            "localization",
            "--model",
            "cluster-1d",
            "--catalyst",
            "swssb",
            "--n",
            "12",
            "--mode",
            "weak",
            "--radius",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    assert all(row["witness"] is not None for row in report["results"])


def test_pipeline_measurement_mode(tmp_path):
    out = tmp_path / "mpipe.json"
    code = run_cli(
        [
            "pipeline",
            "--model",
            "cluster-1d",
            "--catalyst",
            "swssb",
            "--mode",
            "measurement",
            "--n",
            "8",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    assert report["results"]["target_reached"] is True
    assert len(report["results"]["measurement_outcomes"][0]) == 8


def test_correlators_csv(tmp_path):
    out = tmp_path / "corr.csv"
    code = run_cli(
        [
            "correlators",
            "--model",
            "cluster-1d",
            "--catalyst",
            "swssb",
            "--n",
            "8",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("observable")
    assert len(lines) > 1


def test_csv_format_on_stdout(capsys, tmp_path):
    argv = ["invariant", "--model", "cluster-1d", "--n", "12", "--format", "csv"]
    assert run_cli(argv) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("g,h,re,im,ipower")
    out = tmp_path / "inv.csv"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert out.read_bytes().decode() == printed


def test_json_on_stdout_matches_the_report_file(capsys, tmp_path):
    argv = ["cohomology", "--group", "Z2", "--degree", "2"]
    assert run_cli(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    out = tmp_path / "c.json"
    assert run_cli(argv + ["--out", str(out)]) == 0
    written = load_report(out)
    printed.pop("timestamp")
    written.pop("timestamp")
    assert printed == written


def test_csv_without_rows_is_a_usage_error(tmp_path):
    argv = ["catalyze", "--model", "cluster-1d", "--catalyst", "ghz", "--n", "8", "--format", "csv"]
    assert run_cli(argv) == 2
    assert run_cli(argv + ["--out", str(tmp_path / "r.csv")]) == 2
