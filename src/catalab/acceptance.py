"""The acceptance suite: one callable per criterion, exact tolerances pinned.

Each criterion returns a CriterionResult with structured details; the CLI
selftest command and tests/test_acceptance.py both run these.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from ._numpy import np

from . import dense as dn
from .cohomology import (
    FiniteAbelianGroup,
    bilinear_cocycle,
    cohomology_group,
    compile_cocycle_circuit,
    inhomogeneous_delta_matrix,
    normalize_cocycle,
    ring_triangulation,
)
from .gf2 import span_basis
from .models import build_catalyst, build_model, catalyst_kinds
from .pauli import PauliOperator
from .protocols import (
    audit_schedule,
    catalyzed_pipeline,
    execute_schedule,
    measurement_prepare_catalyst,
    register_a_matches,
)
from .stabilizer import (
    CliffordCircuit,
    StabilizerMixture,
    cnot_gate,
    cz_gate,
    fidelity,
    h_gate,
    pack_gates_into_layers,
    renyi_correlator,
    s_gate,
)
from .verify import (
    audit_gate_symmetric,
    build_doubled_fdqc,
    disorder_parameter,
    fidelity_correlator,
    spt_invariant,
    spt_invariant_dense,
    strong_localization,
    verify_catalysis,
    weak_localization,
)


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    details: dict
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} criterion {self.key}: {self.title} ({self.seconds:.2f}s)"


def _timed(key: str, title: str, fn: Callable[[dict], bool]) -> CriterionResult:
    details: dict = {}
    start = time.perf_counter()
    try:
        ok = fn(details)
    except Exception as exc:  # a crash is a failure with the reason recorded
        details["error"] = f"{type(exc).__name__}: {exc}"
        ok = False
    return CriterionResult(key, title, ok, details, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# 1. Catalysis matrix
# ---------------------------------------------------------------------------

CATALYSIS_MATRIX = [
    ("lsm-dimer", {"n": 8}),
    ("cluster-1d", {"n": 8}),
    ("lieb-2d", {"lx": 2, "ly": 2}),
    ("square-sspt", {"l": 3}),
]


def criterion_1() -> CriterionResult:
    def run(details: dict) -> bool:
        t0 = time.perf_counter()
        ok = True
        rows = []
        for model, params in CATALYSIS_MATRIX:
            bundle = build_model(model, **params)
            doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
            for kind in catalyst_kinds(model):
                cat = build_catalyst(bundle, kind)
                report = verify_catalysis(bundle, cat, doubled=doubled)
                rows.append(report.to_json_dict())
                ok = ok and report.passed
                if report.engine == "dense":
                    ok = ok and report.overlap_modulus >= 1 - 1e-10
        elapsed = time.perf_counter() - t0
        details["reports"] = rows
        details["elapsed_seconds"] = elapsed
        details["within_budget"] = elapsed < 60.0
        return ok and elapsed < 60.0

    return _timed("1", "catalysis matrix over the full registry", run)


# ---------------------------------------------------------------------------
# 2. Doubled-circuit audit and operator equality
# ---------------------------------------------------------------------------


def _basis_images(n: int, perm, terms) -> tuple[np.ndarray, np.ndarray]:
    """Labels and signs of the images of all n-qubit basis states under a site
    permutation (the bit of site i moves to perm[i]) followed by (support,
    dense gate) terms in temporal order, each read as a signed permutation."""
    labels = sum(((np.arange(1 << n) >> i) & 1) << p for i, p in enumerate(perm))
    signs = np.ones(1 << n)
    for support, matrix in terms:
        read = dn.monomial(matrix)
        if read is None or np.any((read[1] != 1) & (read[1] != -1)):
            raise ValueError(f"gate on {list(support)} is not a signed permutation")
        rows, gate_signs = read[0], read[1].real
        local = sum(((labels >> s) & 1) << k for k, s in enumerate(support))
        moved = sum(((rows[local] >> k) & 1) << s for k, s in enumerate(support))
        labels = (labels & ~sum(1 << s for s in support)) | moved
        signs = signs * gate_signs[local]
    return labels, signs


def _qca_images(qca) -> tuple[np.ndarray, np.ndarray]:
    """Labels and signs of all basis images of a QCA handle on one register."""
    return _basis_images(qca.n, qca.perm, [(g.support, dn.gate_unitary(g)) for g in qca.gates])


def _doubled_operator_equality_dense(bundle, doubled, details_key, details) -> bool:
    """Full-operator comparison of the compiled doubled circuit (the register
    swap, then the v-terms) with U x U^-1, phase included, as signed
    permutations of the basis.  Register A holds the low digits, so the
    reference image of idx is U^-1's of idx >> n beside U's of idx mod 2^n.
    The largest entry of the difference is |s_ref - s| where the labels agree
    and 1 where they differ."""
    n, low = bundle.n, (1 << bundle.n) - 1
    u_labels, u_signs = _qca_images(bundle.entangler)
    inv_labels, inv_signs = _qca_images(bundle.entangler.inverse())
    labels, signs = _basis_images(2 * n, [*range(n, 2 * n), *range(n)], doubled.v_terms)
    idx = np.arange(1 << (2 * n))
    ref_labels = inv_labels[idx >> n] << n | u_labels[idx & low]
    ref_signs = inv_signs[idx >> n] * u_signs[idx & low]
    worst = float(np.max(np.where(ref_labels == labels, np.abs(ref_signs - signs), 1.0)))
    details[details_key] = worst
    return worst <= 1e-10


def _per_gate_dense_equality(bundle, doubled) -> float:
    """Compare each compiled v-gate with L s_i L^-1 built locally, both read
    as signed permutations of the gate's basis states by `_basis_images`.

    L relabels site i to perm[i], so the swap is of perm[i] and n+i, and
    then applies its gates touching i, all on the compiled gate support.
    The largest difference is |s_ref - s| where the labels agree and 1
    where they differ, the largest entry of the difference of the two
    matrices.
    """
    n, qca = bundle.n, bundle.entangler
    swap = np.eye(4)[[0, 2, 1, 3]]
    unitary = {g: dn.gate_unitary(g) for g in qca.gates}
    swapped = [(qca.perm[i], n + i) for i in range(n)]
    worst = 0.0
    for i, (sites, got) in enumerate(doubled.v_terms):
        m, pos = len(sites), {s: k for k, s in enumerate(sites)}
        gates = [g for g in unitary if i in g.support]
        for support in [g.support for g in gates] + [swapped[i]]:
            if any(s not in pos for s in support):
                raise AssertionError(f"gate on {list(support)} leaves v-gate {i}'s support")
        local = [([pos[s] for s in g.support], unitary[g]) for g in gates]
        terms = [(support, mat.conj().T) for support, mat in reversed(local)]
        terms += [([pos[s] for s in swapped[i]], swap)] + local
        ref_labels, ref_signs = _basis_images(m, range(m), terms)
        labels, signs = _basis_images(m, range(m), [(range(m), got)])
        diff = np.where(ref_labels == labels, np.abs(ref_signs - signs), 1.0)
        worst = max(worst, float(np.max(diff)))
    return worst


def _walked_gates_match(doubled) -> bool:
    """Whether the compiled gates, packed and walked, conjugate every X_a
    and Z_a of both registers as U (x) U^-1's own table does (signs
    included); `doubled.conjugate` reads that table off U's tableau and its
    dual, not off the gates."""
    n = doubled.n
    circuit = pack_gates_into_layers(n, doubled.gates)
    return all(
        circuit.conjugate(p) == doubled.conjugate(p)
        for a in range(n)
        for p in (PauliOperator.x_at(n, a), PauliOperator.z_at(n, a))
    )


def criterion_2() -> CriterionResult:
    def run(details: dict) -> bool:
        ok = True
        audits = {}
        for model, params in CATALYSIS_MATRIX:
            bundle = build_model(model, **params)
            doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
            dsym = bundle.symmetry.doubled()
            gate_ok = all(audit_gate_symmetric(g, dsym) for g in doubled.gates)
            audits[model] = gate_ok
            ok = ok and gate_ok
            # exact tableau identity of the walked gates with U (x) U^-1
            tab_ok = _walked_gates_match(doubled)
            audits[model + "-tableau"] = tab_ok
            ok = ok and tab_ok
            # per-gate dense equality (local, covers every entangler)
            worst = _per_gate_dense_equality(bundle, doubled)
            audits[model + "-per-gate-dense"] = worst
            ok = ok and worst <= 1e-10
        # full dense operator equality at <= 6 sites per register
        for model, params in (
            ("lsm-dimer", {"n": 4}),
            ("cluster-1d", {"n": 4}),
            ("cluster-1d", {"n": 6}),
            ("square-sspt", {"l": 2}),
        ):
            bundle = build_model(model, **params)
            doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
            key = f"{model}-n{bundle.n}-dense-maxerr"
            ok = _doubled_operator_equality_dense(bundle, doubled, key, details) and ok
        details["audits"] = audits
        return ok

    return _timed("2", "doubled-circuit symmetric audit and operator equality", run)


# ---------------------------------------------------------------------------
# 3. Invariant tables
# ---------------------------------------------------------------------------


def criterion_3() -> CriterionResult:
    def run(details: dict) -> bool:
        n = 12
        bundle = build_model("cluster-1d", n=n)
        ok = True
        identity_table = spt_invariant(CliffordCircuit(n, ()), bundle.symmetry, n)
        ok = ok and all(v == 1 for v in identity_table.entries.values())
        table = spt_invariant(bundle.entangler, bundle.symmetry, n)
        ok = ok and table.entries[("x-even", "x-odd")] == -1

        czm = np.diag([1.0, 1, 1, -1]).astype(complex)
        ring = [dn.gate_term([i, (i + 1) % n], czm) for i in range(n)]

        def apply_u(state):
            return dn.apply_gates(state, range(n), ring)

        dense_table = spt_invariant_dense(apply_u, apply_u, bundle.symmetry, n)
        worst = 0.0
        for key, value in table.entries.items():
            worst = max(worst, abs(dense_table.entries[key] - complex(value)))
        ok = ok and worst < 1e-9
        circuit = bundle.entangler
        squared = CliffordCircuit(n, circuit.layers + circuit.layers)
        squared_table = spt_invariant(squared, bundle.symmetry, n)
        ok = ok and all(v == 1 for v in squared_table.entries.values())
        details["mixed_entry"] = str(table.entries[("x-even", "x-odd")])
        details["dense_oracle_max_error"] = worst
        return ok

    return _timed("3", "entangler invariant tables against the dense oracle", run)


# ---------------------------------------------------------------------------
# 4. Localization suite
# ---------------------------------------------------------------------------


def criterion_4() -> CriterionResult:
    def run(details: dict) -> bool:
        n = 12
        ok = True
        gammas = {4: (0, 3), 6: (0, 5), 8: (0, 7)}
        summary = {}
        cases = [
            ("cluster-1d", ("ghz", "ghz-one-sublattice", "swssb", "group-average")),
            ("lsm-dimer", ("ghz", "long-range-bell")),
        ]
        for model, kinds in cases:
            bundle = build_model(model, n=n)
            for kind in kinds:
                cat = build_catalyst(bundle, kind)
                found_generator = False
                for gen in bundle.symmetry.generators:
                    all_none = True
                    for length, gamma in gammas.items():
                        for radius in (1, 2, 3):
                            # Both the interval and its complement must be at
                            # least four radii long: on a ring the truncation
                            # equals a full symmetry times the complement
                            # string, so a short complement that fits inside
                            # the endpoint regions yields a finite-size
                            # witness that says nothing about localization.
                            if length < 4 * radius or (n - length) < 4 * radius:
                                continue
                            witness = strong_localization(
                                cat.stab, gamma, gen.pauli, radius
                            )
                            if witness is not None:
                                all_none = False
                    if all_none:
                        found_generator = True
                        break
                summary[f"{model}:{kind}"] = found_generator
                ok = ok and found_generator
        # explicit witnesses
        bundle = build_model("cluster-1d", n=n)
        gen = bundle.symmetry.by_name("x-even").pauli
        witness = strong_localization(bundle.target, (2, 7), gen, 1)
        ok = ok and witness is not None and (witness[0] * witness[1]).x == 0
        plus = StabilizerMixture.plus_state(n)
        witness_plus = strong_localization(
            plus, (3, 8), PauliOperator.x_at(n, *range(n)), 1
        )
        ok = ok and witness_plus is not None
        ok = ok and (witness_plus[0] * witness_plus[1]).is_identity()
        swssb = build_catalyst(bundle, "swssb")
        weak = weak_localization(swssb.stab, (0, 5), gen, 1)
        ok = ok and weak is not None
        ok = ok and weak[0].is_identity() and weak[1].is_identity()
        details["no_strong_localization"] = summary
        details["cluster_string_order_witness"] = [str(w) for w in witness]
        details["weak_witness_identity"] = True
        return ok

    return _timed("4", "localization obstruction for every registry catalyst", run)


# ---------------------------------------------------------------------------
# 5. Correlator values
# ---------------------------------------------------------------------------


def criterion_5() -> CriterionResult:
    def run(details: dict) -> bool:
        ok = True
        n = 8
        bundle = build_model("cluster-1d", n=n)
        swssb = build_catalyst(bundle, "swssb")
        zz = PauliOperator.z_at(n, 0) * PauliOperator.z_at(n, 2)
        ok = ok and swssb.stab.expectation(zz) == 0
        ok = ok and fidelity_correlator(
            swssb.stab, PauliOperator.z_at(n, 0), PauliOperator.z_at(n, 2)
        ) == Fraction(1)
        ok = ok and renyi_correlator(
            swssb.stab, PauliOperator.z_at(n, 0), PauliOperator.z_at(n, 2), 2
        ) == Fraction(1)
        lieb_values = {}
        for lx, ly in ((2, 2), (3, 3)):
            lb = build_model("lieb-2d", lx=lx, ly=ly)
            cat = build_catalyst(lb, "lieb-mixed")
            lat = lb.lattice
            for tag, loop in zip(("dual-h", "dual-v"), lat.dual_loops()):
                w = PauliOperator.z_at(lb.n, *loop)
                exp, fid = disorder_parameter(cat.stab, w)
                lieb_values[f"{lx}x{ly}:{tag}"] = (exp, str(fid))
                ok = ok and exp == 0 and fid == Fraction(1)
            string = PauliOperator.x_at(lb.n, *lat.open_string(lx - 1))
            exp, fid = disorder_parameter(cat.stab, string)
            lieb_values[f"{lx}x{ly}:open-string"] = (exp, str(fid))
            ok = ok and exp == 0 and fid == Fraction(1)
        details["lieb"] = lieb_values
        return ok

    return _timed("5", "mixed-state correlator values match exactly", run)


# ---------------------------------------------------------------------------
# 6. Measurement protocol
# ---------------------------------------------------------------------------


def criterion_6() -> CriterionResult:
    # Imported by its only user, outside the timed run: it costs most of a second.
    from scipy import stats

    def run(details: dict) -> bool:
        n, runs = 8, 1000
        bundle = build_model("cluster-1d", n=n)
        doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
        counts: dict[tuple[int, ...], int] = {}
        ok = True
        seeds = np.random.SeedSequence(1).spawn(runs)
        for child in seeds:
            rng = np.random.default_rng(child)
            # Raises on a parity violation or a non-invariant post-state.
            record = measurement_prepare_catalyst(n, rng)
            counts[record.outcomes] = counts.get(record.outcomes, 0) + 1
            combined = bundle.trivial.tensor(record.post_state)
            evolved = doubled.apply_stab(combined)
            expected = bundle.target.tensor(record.post_state)
            ok = ok and evolved.same_state(expected)
        num_patterns = 2 ** (n - 2)
        observed = np.zeros(num_patterns)
        for idx, pattern in enumerate(sorted(counts)):
            observed[idx] = counts[pattern]
        # patterns never seen keep zero counts
        expected_count = runs / num_patterns
        chi2 = float(np.sum((observed - expected_count) ** 2 / expected_count))
        pvalue = float(stats.chi2.sf(chi2, num_patterns - 1))
        details["distinct_patterns"] = len(counts)
        details["chi2"] = chi2
        details["pvalue"] = pvalue
        ok = ok and all(len(p) == n for p in counts)
        ok = ok and pvalue > 0.001
        return ok

    return _timed("6", "measurement protocol: invariance, parity, uniformity", run)


# ---------------------------------------------------------------------------
# 7. Cohomology
# ---------------------------------------------------------------------------


def criterion_7() -> CriterionResult:
    def run(details: dict) -> bool:
        ok = True
        z2 = FiniteAbelianGroup((2,))
        z2z2 = FiniteAbelianGroup((2, 2))
        res_z2 = cohomology_group(z2, 2)
        ok = ok and res_z2.invariant_factors == (2,)
        # independent rank oracle over GF(2)
        for group, result in ((z2, res_z2), (z2z2, cohomology_group(z2z2, 2))):
            d2 = inhomogeneous_delta_matrix(group, 2)
            d1 = inhomogeneous_delta_matrix(group, 1)
            rank2, rank1 = (
                len(span_basis([sum((v & 1) << c for c, v in enumerate(row)) for row in d], len(d[0]))[1])
                for d in (d2, d1)
            )
            kernel_dim = len(d2[0]) - rank2
            class_count = 2 ** (kernel_dim - rank1)
            expected = 1
            for f in result.invariant_factors:
                expected *= f
            ok = ok and class_count == expected
        res = cohomology_group(z2z2, 2)
        ok = ok and 2 in res.invariant_factors
        details["h2_z2"] = list(res_z2.invariant_factors)
        details["h2_z2z2"] = list(res.invariant_factors)
        # normalization conditions, pointwise
        nu = normalize_cocycle(bilinear_cocycle(z2z2, 0, 1))
        for v in nu.table.values():
            ok = ok and (2 * v) % nu.modulus == 0
        for g in z2z2.elements():
            ok = ok and nu.table[((0, 0), g, g)] == 0
        # compiled circuit: squares to identity, matches the cluster state
        circuit = compile_cocycle_circuit(nu, ring_triangulation(4), 4)
        ok = ok and circuit.order() == 2
        state = circuit.apply(dn.DenseState.uniform(4, 4))
        cluster = dn.DenseState.uniform(2, 8)
        czm = np.diag([1.0, 1, 1, -1]).astype(complex)
        for i in range(8):
            cluster = dn.apply_local_unitary(cluster, czm, [i, (i + 1) % 8])
        # The q=4 state read as 8 qubits: site k's digit is qubits 2k and 2k + 1,
        # so the flat index is the same.
        modulus = abs(dn.overlap(dn.DenseState(2, 8, state.amps), cluster))
        details["cluster_overlap"] = modulus
        ok = ok and modulus >= 1 - 1e-10
        return ok

    return _timed("7", "cohomology groups, normalization, compiled circuit", run)


# ---------------------------------------------------------------------------
# 8. Cross-engine oracle
# ---------------------------------------------------------------------------


def _random_stab_state(n: int, rng: np.random.Generator, mixed: bool) -> StabilizerMixture:
    state = StabilizerMixture.zero_state(n)
    for _ in range(4 * n):
        # One site takes no two-site gate: it draws H and S only.
        choice = int(rng.integers(0, 4 if n > 1 else 2))
        if choice == 0:
            state = state.apply_circuit(h_gate(n, int(rng.integers(0, n))))
        elif choice == 1:
            state = state.apply_circuit(s_gate(n, int(rng.integers(0, n))))
        elif choice == 2:
            a, b = rng.choice(n, size=2, replace=False)
            state = state.apply_circuit(cnot_gate(n, int(a), int(b)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            state = state.apply_circuit(cz_gate(n, int(a), int(b)))
    if mixed and n > 1:
        keep = int(rng.integers(1, n))
        state = StabilizerMixture(n, state.generators[:keep])
    return state


def _random_hermitian_pauli(n: int, rng: np.random.Generator) -> PauliOperator:
    x = int(rng.integers(0, 1 << n))
    z = int(rng.integers(0, 1 << n))
    return PauliOperator(n, x, z, ((x & z).bit_count() + 2 * int(rng.integers(0, 2))) % 4)


def criterion_8() -> CriterionResult:
    def run(details: dict) -> bool:
        cases = 200
        rng = np.random.default_rng(2024)
        ok = True
        worst = 0.0
        for case in range(cases):
            n = int(rng.integers(2, 7))
            mixed = bool(rng.integers(0, 2))
            state = _random_stab_state(n, rng, mixed)
            rho = dn.stabilizer_density(state)
            p = _random_hermitian_pauli(n, rng)
            kind = case % 5
            if kind == 4:
                # apply a random circuit in both engines
                gates = []
                for _ in range(6):
                    which = int(rng.integers(0, 3))
                    if which == 0:
                        gates.append(h_gate(n, int(rng.integers(0, n))))
                    elif which == 1:
                        gates.append(s_gate(n, int(rng.integers(0, n))))
                    else:
                        a, b = rng.choice(n, size=2, replace=False)
                        gates.append(cz_gate(n, int(a), int(b)))
                evolved = state
                dense_rho = rho
                for gate in gates:
                    evolved = evolved.apply_circuit(gate)
                    u = dn.embed_operator(
                        dn.gate_unitary(gate), list(gate.support), n, 2
                    )
                    dense_rho = u @ dense_rho @ u.conj().T
                worst = max(
                    worst,
                    float(np.max(np.abs(dn.stabilizer_density(evolved) - dense_rho))),
                )
            elif kind == 0:
                got = float(state.expectation(p))
                expected = float(np.trace(rho @ dn.pauli_matrix(p)).real)
                worst = max(worst, abs(got - expected))
            elif kind == 1:
                prob_plus = 0.5 * (1.0 + float(np.trace(rho @ dn.pauli_matrix(p)).real))
                sign = state.membership_sign(p)
                stab_prob = 0.5 if sign is None else (1.0 if sign == 1 else 0.0)
                worst = max(worst, abs(stab_prob - prob_plus))
                outcome, post = state.measure(p, np.random.default_rng(int(rng.integers(0, 2**31))))
                proj = (np.eye(1 << n) + outcome * dn.pauli_matrix(p)) / 2.0
                dense_post = proj @ rho @ proj
                trace = float(np.trace(dense_post).real)
                if trace > 1e-12:
                    dense_post = dense_post / trace
                    worst = max(
                        worst,
                        float(
                            np.max(np.abs(dense_post - dn.stabilizer_density(post)))
                        ),
                    )
            elif kind == 2:
                w = _random_hermitian_pauli(n, rng)
                sigma_state = StabilizerMixture(
                    n,
                    tuple(
                        g if w.commutes(g) else g.negate() for g in state.generators
                    ),
                )
                got = float(fidelity(state, sigma_state))
                expected = dn.dense_fidelity(rho, dn.stabilizer_density(sigma_state))
                worst = max(worst, abs(got - expected))
            else:
                sites = rng.choice(n, size=2, replace=False)
                o_i = PauliOperator.z_at(n, int(sites[0]))
                o_j = PauliOperator.z_at(n, int(sites[1]))
                got = float(renyi_correlator(state, o_i, o_j, 2))
                expected = dn.dense_renyi_correlator(
                    rho, dn.pauli_matrix(o_i), dn.pauli_matrix(o_j), 2
                )
                worst = max(worst, abs(got - expected))
        ok = ok and worst <= 1e-10
        details["cases"] = cases
        details["worst_discrepancy"] = worst
        # exhaustive Pauli algebra at n <= 3
        pair_worst = 0.0
        for n in (1, 2, 3):
            ops = []
            for code in range(4**n):
                x = z = 0
                for site in range(n):
                    k = (code >> (2 * site)) & 3
                    if k in (1, 3):
                        x |= 1 << site
                    if k in (2, 3):
                        z |= 1 << site
                ops.append(PauliOperator(n, x, z, 0))
            mats = {op: dn.pauli_matrix(op) for op in ops}
            for p1 in ops:
                for p2 in ops:
                    got = dn.pauli_matrix(p1 * p2)
                    pair_worst = max(
                        pair_worst, float(np.max(np.abs(got - mats[p1] @ mats[p2])))
                    )
        details["pauli_exhaustive_worst"] = pair_worst
        return ok and pair_worst <= 1e-12

    return _timed("8", "cross-engine oracle agreement", run)


# ---------------------------------------------------------------------------
# 9. Pipelines
# ---------------------------------------------------------------------------


def criterion_9() -> CriterionResult:
    def run(details: dict) -> bool:
        ok = True
        n = 8
        bundle = build_model("cluster-1d", n=n)
        ghz = build_catalyst(bundle, "ghz")
        schedule = catalyzed_pipeline(bundle, ghz, "ancilla")
        ok = ok and schedule.total_depth == (n - 1) + 2
        ok = ok and audit_schedule(schedule, bundle.symmetry)
        ok = ok and all(stage.audited for stage in schedule.stages)
        final, _ = execute_schedule(schedule)
        ok = ok and final.same_state(bundle.target.tensor(ghz.stab))
        details["ghz_ancilla_depth"] = schedule.total_depth
        depths = {}
        for m in (4, 8, 12):
            lb = build_model("lsm-dimer", n=m)
            cat = build_catalyst(lb, "long-range-bell")
            sched = catalyzed_pipeline(lb, cat, "ancilla")
            ok = ok and audit_schedule(sched, lb.symmetry)
            ok = ok and sched.stages[0].long_range
            ok = ok and sched.long_range_gate_count > 0
            final, _ = execute_schedule(sched)
            ok = ok and register_a_matches(final, lb.target)
            depths[m] = sched.total_depth
        ok = ok and len(set(depths.values())) == 1
        details["long_range_depths"] = depths
        return ok

    return _timed("9", "pipeline depth accounting and audits", run)


ALL_CRITERIA: dict[str, Callable[[], CriterionResult]] = {
    "1": criterion_1,
    "2": criterion_2,
    "3": criterion_3,
    "4": criterion_4,
    "5": criterion_5,
    "6": criterion_6,
    "7": criterion_7,
    "8": criterion_8,
    "9": criterion_9,
}


def run_all(keys: Optional[list[str]] = None) -> list[CriterionResult]:
    selected = keys or list(ALL_CRITERIA)
    np.ndarray  # the first read loads numpy, before any criterion's clock starts
    return [ALL_CRITERIA[k]() for k in selected]
