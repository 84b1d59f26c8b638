"""Correctness checks that run outside the timed region.

Everything here is independent of the code under test where it can be: the
U (x) U^-1 reference is plain numpy, and the parity, pattern enumeration and
chi-square tail are computed here, not taken from catalab.
"""
from __future__ import annotations

import copy
import itertools
import json
import math
import statistics
from typing import Optional

import numpy as np

OVERLAP_FLOOR = 1 - 1e-10
ORACLE_BOUND = 1e-10
# Uniformity is rejected below this tail probability.  The benchmark runs
# under many seeds, so the floor is far below criterion 6's 1e-3.
CHI2_P_FLOOR = 1e-6

# Fields that vary between two productions of the same report.  The project
# README promises that only ``timestamp`` varies; the other three are timing
# fields that reports also carry.  Masking exactly these keeps the check
# honest: a report that gains another varying field fails it.
VARYING_FIELDS = {
    "catalyze": (("timestamp",), ("results", "wall_seconds")),
    "selftest": (
        ("timestamp",),
        ("results", "*", "seconds"),
        ("results", "*", "details", "elapsed_seconds"),
    ),
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def chi2_sf(x: float, df: int) -> float:
    """Exact upper tail P(X > x) of a chi-square law with integer df."""
    if df < 1:
        raise ValueError("df must be a positive integer")
    if x <= 0:
        return 1.0
    if df % 2 == 0:
        term = total = 1.0
        for j in range(1, df // 2):
            term *= (x / 2) / j
            total += term
        return math.exp(-x / 2) * total
    root = math.sqrt(x)
    tail = math.erfc(root / math.sqrt(2))
    term, total = root, 0.0
    for j in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    density = math.exp(-x / 2) / math.sqrt(2 * math.pi)
    return tail + 2 * density * total


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report_problems(report: dict, command: str, expected_match: Optional[str]) -> list[str]:
    """Property checks on one report; an empty list means the report holds."""
    problems = []
    if report.get("command") != command:
        problems.append(f"command is {report.get('command')!r}, not {command!r}")
    if report.get("passed") is not True:
        problems.append("report did not pass")
    results = report.get("results")
    if command == "catalyze":
        problems += _catalyze_problems(results, expected_match)
    else:
        problems += _selftest_problems(results)
    return problems


def _catalyze_problems(results: dict, expected_match: Optional[str]) -> list[str]:
    problems = []
    if results.get("passed") is not True:
        problems.append("catalysis result did not pass")
    if results.get("logical_depth") != 2:
        problems.append(f"logical depth {results.get('logical_depth')} is not 2")
    audits = results.get("gate_audits") or []
    if not audits:
        problems.append("no gate audits")
    asymmetric = [a["gate"] for a in audits if a.get("symmetric") is not True]
    if asymmetric:
        problems.append(f"{len(asymmetric)} gate(s) not symmetric, first {asymmetric[0]}")
    if results.get("state_match") != expected_match:
        problems.append(
            f"state match {results.get('state_match')!r}, expected {expected_match!r}"
        )
    if results.get("engine") == "dense":
        modulus = results.get("overlap_modulus")
        if not isinstance(modulus, float) or modulus < OVERLAP_FLOOR:
            problems.append(f"overlap modulus {modulus} below 1 - 1e-10")
    return problems


def _selftest_problems(results: list) -> list[str]:
    problems = []
    if not results:
        return ["selftest report has no criteria"]
    for entry in results:
        details = entry.get("details", {})
        if entry.get("passed") is not True:
            problems.append(f"criterion {entry.get('criterion')} did not pass")
        if "error" in details:
            problems.append(f"criterion {entry.get('criterion')}: {details['error']}")
        for key, value in details.items():
            if key.endswith("-dense-maxerr") and not value <= ORACLE_BOUND:
                problems.append(f"{key} = {value} above 1e-10")
        for key, value in details.get("audits", {}).items():
            if isinstance(value, bool) and not value:
                problems.append(f"audit {key} failed")
            elif not isinstance(value, bool) and not value <= ORACLE_BOUND:
                problems.append(f"audit {key} = {value} above 1e-10")
    return problems


def masked(report: dict) -> str:
    """Canonical JSON of a report with its known varying fields removed."""
    out = copy.deepcopy(report)
    for path in VARYING_FIELDS.get(report.get("command"), (("timestamp",),)):
        _drop(out, path)
    return json.dumps(out, sort_keys=True)


def _drop(node, path: tuple[str, ...]) -> None:
    head, rest = path[0], path[1:]
    if head == "*":
        children = node if isinstance(node, list) else []
    elif isinstance(node, dict) and head in node:
        if not rest:
            del node[head]
            return
        children = [node[head]]
    else:
        return
    for child in children:
        _drop(child, rest)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def cz_ring_phases(n: int) -> np.ndarray:
    """Diagonal of the ring of CZ gates on n qubits, site 0 least significant."""
    idx = np.arange(1 << n)
    bits = [(idx >> i) & 1 for i in range(n)]
    edges = sum(bits[i] & bits[(i + 1) % n] for i in range(n))
    return np.where(edges % 2 == 0, 1.0, -1.0).astype(np.complex128)


def doubled_reference_error(catalab, n: int = 4) -> float:
    """max |compiled doubled circuit - U (x) U^-1| over all 4^n matrix entries.

    The reference is numpy alone: U is the CZ ring on register A (sites
    [0, n)), U^-1 its inverse on register B (sites [n, 2n)).
    """
    verify, dense, models = catalab.verify, catalab.dense, catalab.models
    bundle = models.build_model("cluster-1d", n=n)
    doubled = verify.build_doubled_fdqc(bundle.entangler, n, bundle.lattice)
    u = np.diag(cz_ring_phases(n))
    reference = np.kron(u.conj().T, u)  # register B holds the high digits
    dim = 1 << (2 * n)
    compiled = np.zeros((dim, dim), dtype=np.complex128)
    for idx in range(dim):
        basis = dense.DenseState.computational(2, 2 * n, idx)
        compiled[:, idx] = doubled.apply_dense(basis).amps
    return float(np.max(np.abs(compiled - reference)))


def negative_control_passes(catalab, n: int = 8) -> bool:
    """A |+>^n product handed to the verifier as a cluster-1d 'catalyst'.

    It is not invariant under the CZ ring, so the doubled circuit does not
    return it unchanged: a verifier that reports success here is vacuous.
    Returns the verifier's verdict, which must be False.
    """
    models, verify, stabilizer = catalab.models, catalab.verify, catalab.stabilizer
    bundle = models.build_model("cluster-1d", n=n)
    fake = models.Catalyst(
        name="plus-product",
        engine="stabilizer",
        mixed=False,
        stab=stabilizer.StabilizerMixture.plus_state(n),
    )
    return verify.verify_catalysis(bundle, fake).passed


def allowed_patterns(n: int) -> list[tuple[int, ...]]:
    """Outcome patterns of the n next-nearest-neighbour ZZ measurements with
    unit product on each sublattice: 2^(n-2) of them."""
    return [
        p
        for p in itertools.product((1, -1), repeat=n)
        if math.prod(p[0::2]) == 1 and math.prod(p[1::2]) == 1
    ]


def uniformity_pvalue(counts: dict[tuple[int, ...], int], n: int) -> float:
    """Chi-square tail of the observed counts against the uniform law on the
    allowed patterns; patterns never seen count as zero."""
    patterns = allowed_patterns(n)
    total = sum(counts.values())
    expected = total / len(patterns)
    chi2 = sum((counts.get(p, 0) - expected) ** 2 / expected for p in patterns)
    return chi2_sf(chi2, len(patterns) - 1)
