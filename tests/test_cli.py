import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import catalab
import catalab.cli as cli
import catalab.dense as dn
from catalab._numpy import _lazy
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
    # At radius 0 a length of 0 would name the interval [0, -1].
    argv = "localization --model cluster-1d --catalyst swssb --n 12 --radius 0 --lengths 0,12"
    assert run_cli(argv.split() + out) == 2
    assert "--lengths entry 0 does not fit" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "argv, message",
    [
        ("catalyze --model cluster-1d --catalyst gapless --n 16", "dense state of 4294967296 amplitudes"),
        ("catalyze --model lsm-dimer --catalyst superposition --n 12", "dense state of 16777216 amplitudes"),
        ("catalyze --model cocycle-z2z2 --catalyst gapless --sites 6", "dense state of 16777216 amplitudes"),
        ("catalyze --model cluster-1d --catalyst ghz --engine dense --n 12", "dense state of 16777216 amplitudes"),
        ("catalyze --model cluster-1d --catalyst gapless --engine stabilizer --n 16", "no stabilizer realization"),
        # The commands that read a stabilizer group refuse a dense catalyst,
        # and check their own arguments, before anything is built.
        ("localization --model cluster-1d --catalyst gapless --n 12", "localization diagnostics need a stabilizer catalyst"),
        ("localization --model lsm-dimer --catalyst superposition --n 12", "localization diagnostics need a stabilizer catalyst"),
        ("localization --model cluster-1d --catalyst swssb --n 12 --lengths 100", "--lengths entry 100 does not fit"),
        ("correlators --model cluster-1d --catalyst gapless --n 12", "correlator diagnostics need a stabilizer catalyst"),
        ("correlators --model cluster-1d --catalyst swssb --n 4", "need sites 0 to 4"),
        ("pipeline --model cluster-1d --catalyst gapless --n 12", "pipelines are realized for Clifford bundles and stabilizer catalysts"),
        ("pipeline --model cocycle-z2z2 --catalyst ghz", "pipelines are realized for Clifford bundles and stabilizer catalysts"),
    ],
)
def test_dense_catalysts_beyond_the_doubled_limit_are_refused_unbuilt(
    monkeypatch, tmp_path, capsys, argv, message
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the catalyst was built")

    monkeypatch.setattr(cli, "build_catalyst", unreachable)
    monkeypatch.setattr(dn, "ground_state", unreachable)
    monkeypatch.setattr(dn, "stabilizer_to_dense", unreachable)
    out = ["--out", str(tmp_path / "r.json")]
    assert run_cli([*argv.split(), *out]) == 2
    assert message in capsys.readouterr().err


def test_stabilizer_catalysts_are_not_held_to_the_dense_limit(tmp_path):
    out = ["--out", str(tmp_path / "r.json")]
    assert run_cli(["catalyze", "--model", "cluster-1d", "--catalyst", "ghz", "--n", "16", *out]) == 0


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
    "catalyze-cluster-1d-ghz-dense-n8-seed1": (
        "catalyze --model cluster-1d --catalyst ghz --engine dense --n 8 --seed 1"
    ),
    "catalyze-cocycle-z2z2-ghz-sites4-seed1": (
        "catalyze --model cocycle-z2z2 --catalyst ghz --sites 4 --seed 1"
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


def _fresh_python(*args):
    """Run a fresh interpreter on this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(catalab.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_the_benchmark_tests_pass_against_this_package():
    # benches/test_bench.py pins names in the package that the benchmark
    # probes; bytecode is not written, so the run leaves nothing behind.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benches", "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# Benchmark probes whose target the package no longer has, each with why:
# their metrics read 0 and every traced round prints "not found" for them.
DARK_PROBES = {
    "catalab.stabilizer.StabilizerMixture.apply_qca": "a QCA is applied by `apply_circuit`",
    "catalab.gf2.BitMatrix.rref": "`BitMatrix` is gone; every elimination is `span_basis`",
    "catalab.gf2.BitMatrix.rref_with_transform": "`BitMatrix` is gone; see `span_basis`",
    "catalab.gf2.BitMatrix.solve_mask": "`BitMatrix` is gone; see `span_combination`",
}


def test_the_benchmark_probes_that_find_no_target_are_the_known_ones():
    # A subprocess, since the benchmark pins BLAS variables when imported.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path.insert(0, 'benches')\n"
        "import run, spans\n"
        "run.import_catalab()\n"
        "for p in run.PROBES:\n"
        "    if getattr(spans._resolve(p.owner), p.attr, None) is None:\n"
        "        print(f'{p.owner}.{p.attr}')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.split()) == sorted(DARK_PROBES)


def test_importing_the_cli_loads_no_scipy():
    # scipy.stats costs most of a second; only criterion 6 imports it, when
    # it runs, so the CLI's start-up time stays free of it.
    code = "import sys, catalab.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The benchmark's four stabilizer reports (workload stab-large).
STABILIZER_REPORTS = [
    "catalyze --model cluster-1d --catalyst ghz --n 128",
    "catalyze --model cluster-1d --catalyst swssb --n 128",
    "catalyze --model lieb-2d --catalyst toric-code --lx 6 --ly 6",
    "catalyze --model square-sspt --catalyst pim-symmetric --l 8",
]


def test_stabilizer_reports_load_no_numpy_and_a_dense_one_does(tmp_path):
    # `numpy` itself is in sys.modules from `import catalab` on, as a module
    # whose code has not run; its submodules appear only once it has.  The
    # deferred catalab modules are in sys.modules as placeholders, whose
    # type becomes the plain module type once their code has run.
    code = (
        "import io, json, sys, types\n"
        "from contextlib import redirect_stdout\n"
        "import catalab.cli as cli\n"
        "deferred = ['catalab.' + m for m in ('dense', 'cohomology', 'protocols', 'acceptance')]\n"
        "def loaded(): return sorted([m for m in sys.modules if m.startswith('numpy.')]\n"
        "    + [m for m in deferred if type(sys.modules.get(m)) is types.ModuleType])\n"
        "out, runs = sys.argv[1], [(None, loaded())]\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        runs.append((cli.main(argv.split() + ['--out', out]), loaded()))\n"
        "print(json.dumps([runs, json.load(open(out))['passed']]))\n"
    )
    dense = GOLDEN_REPORTS["catalyze-cluster-1d-ghz-dense-n8-seed1"]
    argvs = json.dumps(STABILIZER_REPORTS + [dense])
    proc = _fresh_python("-c", code, str(tmp_path / "r.json"), argvs)
    assert proc.returncode == 0, proc.stderr
    runs, dense_passed = json.loads(proc.stdout)
    assert runs[:-1] == [[None, []]] + [[0, []]] * len(STABILIZER_REPORTS)
    assert runs[-1][0] == 0 and {"numpy.linalg", "catalab.dense"} <= set(runs[-1][1])
    assert dense_passed is True


@pytest.mark.parametrize(
    "argv",
    [
        GOLDEN_REPORTS["catalyze-cluster-1d-ghz-dense-n8-seed1"],
        "cohomology --group Z2xZ2 --degree 2 --normalize",
        "measure-prep --n 8 --runs 2",
        "pipeline --model cluster-1d --catalyst ghz --mode four-step --n 8",
        "selftest --criteria 9",
    ],
)
def test_commands_that_read_deferred_modules_run_from_a_fresh_interpreter(tmp_path, argv):
    out = tmp_path / "r.json"
    proc = _fresh_python("-m", "catalab.cli", *argv.split(), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert load_report(out)["passed"] is True


def test_every_module_and_public_name_resolves_after_importing_the_cli():
    modules = sorted(p.stem for p in Path(catalab.__file__).parent.glob("*.py") if p.stem != "__init__")
    code = (
        "import json, sys\n"
        "import catalab.cli\n"
        "package = sys.modules['catalab']\n"
        "names = [getattr(package, m).__name__ for m in json.loads(sys.argv[1])]\n"
        "from catalab import *\n"
        "print(json.dumps([names, [n for n in package.__all__ if n not in globals()],\n"
        "    DenseState is package.dense.DenseState, Cochain is package.cohomology.Cochain]))\n"
    )
    proc = _fresh_python("-c", code, json.dumps(modules))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[f"catalab.{m}" for m in modules], [], True, True]


@pytest.mark.parametrize("group, degree", [("Z3", 2), ("Z2xZ2", 3)])
def test_normalize_outside_its_one_case_is_a_usage_error(tmp_path, capsys, group, degree):
    out = tmp_path / "r.json"
    argv = ["cohomology", "--group", group, "--degree", str(degree), "--normalize", "--out", str(out)]
    assert run_cli(argv) == 2
    assert "--normalize is supported for --group Z2xZ2 --degree 2 only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "--model cluster-1d --catalyst swssb --mode ancilla --n 8",
            "catalyst 'swssb' is prepared by measurement; use --mode measurement",
        ),
        (
            "--model lieb-2d --catalyst toric-code --lx 2 --ly 2",
            "catalyst 'toric-code' has no preparation recipe",
        ),
    ],
    ids=["measure-zz", "no-recipe"],
)
def test_pipeline_recipe_errors_name_the_problem(tmp_path, capsys, argv, message):
    assert run_cli(["pipeline", *argv.split(), "--out", str(tmp_path / "r.json")]) == 2
    assert f"error: {message}\n" == capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["catalyze-cluster-1d-ghz-n16", "catalyze-cluster-1d-ghz-dense-n8-seed1"]
)
def test_reports_from_a_fresh_interpreter_match_golden_files(tmp_path, name):
    # The in-process golden test runs after numpy is loaded; here the
    # stabilizer report never loads it and the dense one loads it on first use.
    out = tmp_path / "report.json"
    argv = GOLDEN_REPORTS[name].split() + ["--out", str(out)]
    proc = _fresh_python("-m", "catalab.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    got = json.dumps(without_timing(load_report(out)), indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / f"{name}.json").read_text()


def test_numpy_shim_returns_a_loaded_module_and_refuses_a_missing_one():
    import numpy

    assert _lazy("numpy") is numpy is catalab._numpy.np
    with pytest.raises(ModuleNotFoundError, match="catalab_no_such_module"):
        _lazy("catalab_no_such_module")
    proc = _fresh_python("-c", "import sys\nsys.modules['numpy'] = None\nimport catalab")
    assert proc.returncode == 1 and "ModuleNotFoundError" in proc.stderr


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
    proc = _fresh_python("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    results = load_report(out)["results"]
    claim = "post-measurement state is not entangler-invariant"
    assert results["first_failure"] == {"run": 0, "error": claim}
    assert results["runs"] == [{"error": claim}] * 3


def test_measure_prep_protocol_violation_fails_the_report(tmp_path, monkeypatch):
    real = catalab.protocols.measurement_prepare_catalyst
    calls = []

    def flaky(n, rng):
        calls.append(n)
        if len(calls) in (3, 5):
            raise AssertionError(f"sublattice parity constraint violated ({len(calls)})")
        return real(n, rng)

    monkeypatch.setattr(catalab.protocols, "measurement_prepare_catalyst", flaky)
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


def test_cohomology_past_the_coboundary_limit_exits_two_at_once(tmp_path, capsys, monkeypatch):
    # Z3xZ3 at degree 3 has a 9^7-entry coboundary matrix; its Smith form
    # ran for over a minute before the limit.  Should the limit let it
    # through, the matrix build fails at once instead.
    monkeypatch.setattr("catalab.cohomology.inhomogeneous_delta_matrix", None)
    out = tmp_path / "coh.json"
    start = time.perf_counter()
    assert run_cli(["cohomology", "--group", "Z3xZ3", "--degree", "3", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    message = "the degree-3 coboundary matrix of a group of order 9 has 4782969 entries"
    assert capsys.readouterr().err == f"error: {message}, over the limit of 131072\n"
    assert not out.exists()


def test_a_negative_cohomology_degree_is_a_usage_error_naming_it(tmp_path, capsys):
    out = tmp_path / "coh.json"
    assert run_cli(["cohomology", "--group", "Z2", "--degree", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the cohomology degree must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("catalyst", ["gapless", "superposition"])
def test_a_cocycle_report_builds_each_gate_term_once(tmp_path, monkeypatch, catalyst):
    # Five terms for the entangler, however often it is applied, and five
    # for the doubled circuit's v-terms.
    calls = []
    build = dn.gate_term

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(dn, "gate_term", counted)
    argv = ["catalyze", "--model", "cocycle-z2z2", "--catalyst", catalyst, "--sites", "5"]
    assert run_cli(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 10


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


@pytest.mark.parametrize("criteria, unknown", [("1,10", "['10']"), ("1,,2", "['']"), ("0,x", "['0', 'x']")])
def test_selftest_with_an_unknown_criterion_is_a_usage_error(tmp_path, capsys, monkeypatch, criteria, unknown):
    # Every entry is checked before any criterion runs.
    import catalab.acceptance as acceptance

    ran = []
    monkeypatch.setitem(acceptance.ALL_CRITERIA, "1", lambda: ran.append("1"))
    out = tmp_path / "self.json"
    assert run_cli(["selftest", "--criteria", criteria, "--out", str(out)]) == 2
    known = list(acceptance.ALL_CRITERIA)
    assert capsys.readouterr().err == f"error: unknown --criteria entries {unknown}; known: {known}\n"
    assert ran == [] and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["catalyze", "--model", "cluster-1d", "--catalyst", "ghz", "--n", "8"],
        ["measure-prep", "--n", "8", "--runs", "2"],
        ["pipeline", "--model", "cluster-1d", "--catalyst", "ghz", "--n", "8"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_negative_seed_is_a_usage_error_naming_it(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "argument --seed: a seed is a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


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
