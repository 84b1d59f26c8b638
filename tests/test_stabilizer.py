import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalab
from catalab.pauli import PauliOperator
from catalab.stabilizer import (
    CliffordCircuit,
    PermutationQca,
    SignFamily,
    StabilizerMixture,
    UnsupportedCaseError,
    ZeroProjectionError,
    cnot_gate,
    cz_gate,
    fidelity,
    h_gate,
    is_invariant,
    pack_gates_into_layers,
    renyi_correlator,
    s_gate,
    swap_gate,
    tableau_gate,
)

P = PauliOperator.from_string


def cz_ring(n: int) -> CliffordCircuit:
    gates = [cz_gate(n, i, (i + 1) % n) for i in range(n)]
    return pack_gates_into_layers(n, gates)


def swssb_mixture(n: int) -> StabilizerMixture:
    u_e = PauliOperator.x_at(n, *range(0, n, 2))
    u_o = PauliOperator.x_at(n, *range(1, n, 2))
    return StabilizerMixture.from_generators(n, (u_e, u_o))


def test_gate_conjugation_rules():
    h = h_gate(1, 0)
    assert h.conjugate(P("X")) == P("Z")
    assert h.conjugate(P("Z")) == P("X")
    assert h.conjugate(P("Y")) == P("-Y")
    s = s_gate(1, 0)
    assert s.conjugate(P("X")) == P("Y")
    assert s.conjugate(P("Y")) == P("-X")
    cz = cz_gate(2, 0, 1)
    assert cz.conjugate(P("XI")) == P("XZ")
    assert cz.conjugate(P("XX")) == P("YY")
    assert cz.conjugate(P("ZI")) == P("ZI")


def test_gate_inverse_round_trip():
    rng = np.random.default_rng(8)
    gates = [
        h_gate(3, 1),
        s_gate(3, 0),
        cz_gate(3, 0, 2),
        cnot_gate(3, 2, 1),
        swap_gate(3, 0, 1),
    ]
    for g in gates:
        inv = g.inverse()
        for _ in range(40):
            p = PauliOperator(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)), 0)
            p = PauliOperator(3, p.x, p.z, (p.x & p.z).bit_count() % 4)
            assert inv.conjugate(g.conjugate(p)) == p


def test_tableau_gate_matches_named():
    n = 2
    images = {
        0: (PauliOperator.x_at(n, 0, 1), PauliOperator.z_at(n, 0)),
        1: (PauliOperator.x_at(n, 1), PauliOperator.z_at(n, 0, 1)),
    }
    g = tableau_gate(n, images)
    named = cnot_gate(n, 0, 1)
    rng = np.random.default_rng(1)
    for _ in range(60):
        p = PauliOperator(n, int(rng.integers(0, 4)), int(rng.integers(0, 4)), 0)
        p = PauliOperator(n, p.x, p.z, (p.x & p.z).bit_count() % 4)
        assert g.conjugate(p) == named.conjugate(p)
    inv = g.inverse()
    for _ in range(60):
        p = PauliOperator(n, int(rng.integers(0, 4)), int(rng.integers(0, 4)), 0)
        p = PauliOperator(n, p.x, p.z, (p.x & p.z).bit_count() % 4)
        assert inv.conjugate(g.conjugate(p)) == p


def test_tableau_gate_rejects_bad_images():
    n = 2
    bad = {
        0: (PauliOperator.x_at(n, 0), PauliOperator.x_at(n, 0)),
        1: (PauliOperator.x_at(n, 1), PauliOperator.z_at(n, 1)),
    }
    with pytest.raises(ValueError):
        tableau_gate(n, bad)


def test_cluster_state_generators():
    n = 8
    state = StabilizerMixture.plus_state(n).apply_circuit(cz_ring(n))
    for i in range(n):
        stab = (
            PauliOperator.z_at(n, (i - 1) % n)
            * PauliOperator.x_at(n, i)
            * PauliOperator.z_at(n, (i + 1) % n)
        )
        assert state.membership_sign(stab) == 1


def test_diagonal_circuit_fixes_zero_state():
    n = 6
    state = StabilizerMixture.zero_state(n)
    assert state.apply_circuit(cz_ring(n)).same_state(state)


def test_layer_overlap_rejected():
    with pytest.raises(ValueError):
        CliffordCircuit(3, ((cz_gate(3, 0, 1), cz_gate(3, 1, 2)),))


def test_membership_sign_combines_generators():
    state = StabilizerMixture.from_generators(2, (P("XX"), P("ZZ")))
    # XX * ZZ = -YY: the row space holds YY, with sign -1
    assert state.membership_sign(P("-YY")) == 1
    assert state.membership_sign(P("YY")) == -1
    assert state.element_with_vector(P("YY").symplectic()) == P("-YY")
    assert state.membership_sign(P("XZ")) is None
    assert state.element_with_vector(P("XZ").symplectic()) is None


def test_measure_plus_state_seeded():
    state = StabilizerMixture.plus_state(1)
    outcomes = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        outcome, post = state.measure(PauliOperator.z_at(1, 0), rng)
        outcomes.add(outcome)
        assert post.membership_sign(PauliOperator.z_at(1, 0)) == outcome
    assert outcomes == {1, -1}
    # reproducibility
    o1, _ = state.measure(PauliOperator.z_at(1, 0), np.random.default_rng(12))
    o2, _ = state.measure(PauliOperator.z_at(1, 0), np.random.default_rng(12))
    assert o1 == o2


def test_measure_generator_deterministic():
    state = StabilizerMixture.plus_state(3)
    outcome, post = state.measure(PauliOperator.x_at(3, 1), np.random.default_rng(0))
    assert outcome == 1
    assert post.same_state(state)


def test_measure_zz_on_plus():
    state = StabilizerMixture.plus_state(4)
    zz = PauliOperator.z_at(4, 1, 3)
    outcome, post = state.measure(zz, np.random.default_rng(5))
    assert outcome in (1, -1)
    assert post.membership_sign(zz) == outcome
    assert post.is_pure


def test_measure_mixed_state_growth():
    state = StabilizerMixture(2, ())
    zz = PauliOperator.z_at(2, 0, 1)
    outcome, post = state.measure(zz, np.random.default_rng(3))
    assert post.k == 1
    assert post.membership_sign(zz) == outcome


def test_expectation_swssb():
    n = 8
    rho = swssb_mixture(n)
    assert rho.expectation(rho.generators[0]) == 1
    assert rho.expectation(PauliOperator.z_at(n, 0, 2)) == 0
    assert rho.expectation(PauliOperator.z_at(n, 0, 2).negate()) == 0


def test_expectation_requires_hermitian():
    rho = StabilizerMixture.plus_state(2)
    with pytest.raises(ValueError):
        rho.expectation(P("-iZZ"))


@pytest.mark.parametrize(
    "sign",
    [
        lambda state, p: state.membership_sign(p),
        lambda state, p: SignFamily(state, (0,) * state.k).sign_of(p),
    ],
    ids=["membership_sign", "sign_of"],
)
@pytest.mark.parametrize("op", ["+iX", "-iXX", "+iZY"], ids=["in-group", "in-group-2", "outside"])
def test_group_signs_refuse_a_non_hermitian_operator(sign, op):
    # i X is in the group of |+> up to a phase, so the check must come
    # before any sign comparison; +iZY is outside the group altogether.
    p = P(op)
    with pytest.raises(ValueError, match="requires a hermitian operator"):
        sign(StabilizerMixture.plus_state(p.n), p)


def test_fidelity_self():
    rho = swssb_mixture(6)
    assert fidelity(rho, rho) == Fraction(1)


def test_fidelity_orthogonal():
    zero = StabilizerMixture.zero_state(1)
    one = StabilizerMixture.from_generators(1, (PauliOperator.z_at(1, 0).negate(),))
    assert fidelity(zero, one) == Fraction(0)


def test_fidelity_swssb_conjugated():
    n = 8
    rho = swssb_mixture(n)
    w = PauliOperator.z_at(n, 0, 2)
    sigma = StabilizerMixture.from_generators(
        n, tuple(g if w.commutes(g) else g.negate() for g in rho.generators)
    )
    assert fidelity(rho, sigma) == Fraction(1)


def test_fidelity_noncommuting_raises():
    a = StabilizerMixture.zero_state(1)
    b = StabilizerMixture.plus_state(1)
    with pytest.raises(UnsupportedCaseError):
        fidelity(a, b)


def test_renyi_order_one():
    rho = swssb_mixture(6)
    assert renyi_correlator(rho, PauliOperator.z_at(6, 0), PauliOperator.z_at(6, 2), 1) == 1


def test_renyi_swssb_same_sublattice():
    rho = swssb_mixture(6)
    assert renyi_correlator(rho, PauliOperator.z_at(6, 0), PauliOperator.z_at(6, 2), 2) == 1


def test_renyi_plus_state_charged():
    rho = StabilizerMixture.plus_state(1)
    assert renyi_correlator(rho, PauliOperator.z_at(1, 0), PauliOperator.identity(1), 2) == 0


def test_is_invariant_swssb_under_entangler():
    n = 8
    rho = swssb_mixture(n)
    assert is_invariant(rho, cz_ring(n))


def test_is_invariant_pattern_shifts():
    n = 6
    gens = tuple(
        PauliOperator(n, 0, 1 << i, 2 * (i % 2)) for i in range(n)
    )
    state = StabilizerMixture.from_generators(n, gens)
    translation = PermutationQca([(i + 1) % n for i in range(n)])
    assert not is_invariant(state, translation)
    uniform = StabilizerMixture.zero_state(n)
    assert is_invariant(uniform, translation)


def test_project_forced_and_zero():
    state = StabilizerMixture.zero_state(2)
    with pytest.raises(ZeroProjectionError):
        state.project(PauliOperator.z_at(2, 0), -1)
    plus = StabilizerMixture.plus_state(2)
    post = plus.project(PauliOperator.z_at(2, 0), -1)
    assert post.membership_sign(PauliOperator.z_at(2, 0).negate()) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.expectation(PauliOperator.z_at(2, 0)),
        lambda s: s.membership_sign(PauliOperator.z_at(2, 0, 1)),
        lambda s: s.project(PauliOperator.z_at(2, 0), 1),
        lambda s: s.measure(PauliOperator.z_at(2, 0), np.random.default_rng(0)),
        lambda s: s.measure(PauliOperator.x_at(2, 0), np.random.default_rng(0)),
        lambda s: s.measure(PauliOperator.z_at(6, 0), np.random.default_rng(0)),
    ],
    ids=["expectation", "membership-sign", "project", "measure-random", "measure-known", "measure-wider"],
)
def test_operator_on_another_register_raises(call):
    # The bits of a 2-qubit Z_0 would read as Z_0 on the 4-qubit state.
    with pytest.raises(ValueError, match="operator size does not match state register"):
        call(StabilizerMixture.plus_state(4))


@pytest.mark.parametrize("sign", [0, 2, -2])
@pytest.mark.parametrize(
    "state, op",
    [
        (StabilizerMixture.plus_state(2), PauliOperator.x_at(2, 0)),
        (StabilizerMixture.plus_state(2), PauliOperator.z_at(2, 0)),
        (StabilizerMixture(2, (PauliOperator.x_at(2, 0),)), PauliOperator.z_at(2, 1)),
    ],
    ids=["in-group", "anticommuting", "new-generator"],
)
def test_project_rejects_a_sign_other_than_plus_or_minus_one(state, op, sign):
    with pytest.raises(ValueError, match=f"projection sign must be \\+1 or -1, got {sign}"):
        state.project(op, sign)


@pytest.mark.parametrize(
    "call",
    [
        lambda q: q.conjugate(PauliOperator.x_at(4, 0, 3)),
        lambda q: q.conjugate_inverse(PauliOperator.x_at(4, 0, 3)),
        lambda q: q.conjugate(PauliOperator.x_at(1, 0)),
        lambda q: is_invariant(StabilizerMixture.plus_state(4), q),
    ],
    ids=["wider", "wider-inverse", "narrower", "is-invariant"],
)
def test_permutation_on_another_register_raises(call):
    with pytest.raises(ValueError, match="operator size does not match permutation register"):
        call(PermutationQca([1, 0]))


def test_tableau_gate_keeps_its_own_images():
    # Editing the caller's dict afterwards would change the gate's action
    # without a new proof; the gate copied the images it proved.
    n = 2
    images = {0: (PauliOperator.z_at(n, 0), PauliOperator.x_at(n, 0))}
    gate = tableau_gate(n, images)
    images[0] = (PauliOperator.z_at(n, 1), PauliOperator.x_at(n, 0))
    assert gate.rows[0][0] == (0, 1, 0)  # Z_0
    assert gate.conjugate(PauliOperator.x_at(n, 0)) == PauliOperator.z_at(n, 0)
    evolved = StabilizerMixture.plus_state(n).apply_circuit(gate)
    assert evolved.generators == (PauliOperator.z_at(n, 0), PauliOperator.x_at(n, 1))
    evolved.validate()


def test_canonical_serialization_stable():
    n = 4
    rho = swssb_mixture(n)
    # Re-express the same group with multiplied generators.
    other = StabilizerMixture.from_generators(
        n, (rho.generators[0] * rho.generators[1], rho.generators[1])
    )
    assert rho.same_state(other)
    assert rho.to_json() == other.to_json()
    back = StabilizerMixture.from_json_dict(rho.to_json_dict())
    assert back.same_state(rho)


def test_validation_rejects_bad_groups():
    n = 2
    with pytest.raises(ValueError):
        StabilizerMixture.from_generators(
            n, (PauliOperator.x_at(n, 0), PauliOperator.z_at(n, 0))
        )
    with pytest.raises(ValueError):
        StabilizerMixture.from_generators(
            n, (PauliOperator.x_at(n, 0), PauliOperator.x_at(n, 0))
        )


@pytest.mark.parametrize(
    "image, message",
    [
        ("PauliOperator.z_at(2, 1)", "circuit tableau does not preserve commutation"),
        ("PauliOperator(2, 0, 1, 1)", "circuit tableau has a non-hermitian image"),
    ],
)
def test_circuit_tableau_is_proven_under_python_O(image, message):
    # A wrong image of X_0 under H_0 (Z_1, or i Z_0), put into the gate's
    # rows after it was built and read while the circuit's tableau is built:
    # the first conjugation raises, although apply_circuit does not validate.
    code = (
        "from catalab.pauli import PauliOperator\n"
        "from catalab.stabilizer import CliffordCircuit, StabilizerMixture, h_gate\n"
        "gate = h_gate(2, 0)\n"
        f"img = {image}\n"
        "object.__setattr__(gate, 'rows', {0: ((img.x, img.z, img.phase), (1, 0, 0))})\n"
        "StabilizerMixture.plus_state(2).apply_circuit(CliffordCircuit(2, ((gate,),)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(catalab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1
    assert f"ValueError: {message}" in proc.stderr


def test_corrupted_circuit_tableau_has_no_dual_under_python_O():
    # H_0's tableau, proven, then given the image Z_1 for X_0, which
    # anticommutes with X_1's image: the dual's forward check refuses it.
    code = (
        "from catalab.pauli import PauliOperator\n"
        "from catalab.stabilizer import CliffordCircuit, h_gate\n"
        "circuit = CliffordCircuit(2, ((h_gate(2, 0),),))\n"
        "proven = circuit._tableau\n"
        "object.__setattr__(circuit, '_tableau', (((0, 2, 0), proven[0][1]), proven[1]))\n"
        "circuit.conjugate_inverse(PauliOperator.x_at(2, 0))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(catalab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1
    assert "ValueError: tableau does not preserve commutation, so it has no dual" in proc.stderr


def test_translation_relabels_sites():
    qca = PermutationQca([(i + 1) % 4 for i in range(4)])
    assert qca.conjugate(P("XZII")) == P("IXZI")
    assert qca.conjugate_inverse(P("IXZI")) == P("XZII")
    assert qca.conjugate(P("-YIIZ")) == P("-ZYII")


@pytest.mark.parametrize(
    "perm, message",
    [
        ([0, 0, 1], r"perm\[1\] = 0 is out of range or repeated"),
        ([0, 5, 1], r"perm\[1\] = 5 is out of range or repeated"),
        ([1, -1, 0], r"perm\[1\] = -1 is out of range or repeated"),
        ([0, 1.0], r"perm\[1\] = 1.0 is out of range or repeated"),
    ],
)
def test_permutation_qca_rejects_a_bad_entry(perm, message):
    with pytest.raises(ValueError, match=message):
        PermutationQca(perm)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"generators": ["+XX"]}, "keys 'n' and 'generators'"),
        ({"n": 2}, "keys 'n' and 'generators'"),
        (["+XX"], "keys 'n' and 'generators'"),
        ({"n": -1, "generators": []}, "non-negative integer, got -1"),
        ({"n": "2", "generators": ["+XX"]}, "non-negative integer, got '2'"),
        ({"n": True, "generators": ["+X"]}, "non-negative integer, got True"),
        ({"n": 2, "generators": [5]}, "list of Pauli strings"),
        ({"n": 2, "generators": "+XX"}, "list of Pauli strings"),
        ({"n": 2, "generators": ["+XQ"]}, "bad Pauli letter"),
        ({"n": 2, "generators": ["+XXX"]}, "register size mismatch"),
        ({"n": 2, "generators": ["+iXX"]}, "not hermitian"),
        ({"n": 2, "generators": ["+XI", "+ZI"]}, "anticommute"),
        ({"n": 2, "generators": ["+XX", "-XX"]}, "not independent"),
    ],
)
def test_from_json_dict_rejects_malformed_payloads(payload, message):
    with pytest.raises(ValueError, match=message):
        StabilizerMixture.from_json_dict(payload)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 6), data=st.data())
def test_json_round_trip_gives_the_same_state(n, data):
    state = StabilizerMixture.zero_state(n)
    for _ in range(data.draw(st.integers(0, 3 * n))):
        a, b = data.draw(st.permutations(range(n)))[:2] if n > 1 else (0, None)
        gate = data.draw(st.sampled_from([h_gate, s_gate] + ([cnot_gate] if n > 1 else [])))
        state = state.apply_circuit(gate(n, a) if gate is not cnot_gate else gate(n, a, b))
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flip = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gens = [g.negate() if f else g for g, k, f in zip(state.generators, keep, flip) if k]
    state = StabilizerMixture.from_generators(n, gens)
    back = StabilizerMixture.from_json_dict(state.to_json_dict())
    assert back.same_state(state) and state.same_state(back)
    assert back.to_json_dict() == state.to_json_dict()
    assert back.generators == state.canonical().generators


def test_purification_consistency():
    # fidelity(|psi>,|phi>)^2 equals the dense |<psi|phi>|^2 for pure states
    from catalab.dense import stabilizer_to_dense
    import numpy as np

    rng = np.random.default_rng(21)
    from catalab.stabilizer import cnot_gate, h_gate

    for _ in range(20):
        n = int(rng.integers(2, 5))
        psi = StabilizerMixture.zero_state(n)
        for _ in range(2 * n):
            if rng.integers(0, 2):
                psi = psi.apply_circuit(h_gate(n, int(rng.integers(0, n))))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                psi = psi.apply_circuit(cnot_gate(n, int(a), int(b)))
        w = PauliOperator(
            n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 0
        )
        w = PauliOperator(n, w.x, w.z, (w.x & w.z).bit_count() % 4)
        phi = StabilizerMixture.from_generators(
            n, tuple(g if w.commutes(g) else g.negate() for g in psi.generators)
        )
        f = float(fidelity(psi, phi))
        dense_overlap = abs(
            np.vdot(stabilizer_to_dense(psi).amps, stabilizer_to_dense(phi).amps)
        )
        assert abs(f**2 - dense_overlap**2) < 1e-10


def test_measure_anticommuting_keeps_mixed_rank():
    n = 6
    rho = swssb_mixture(n)
    z0 = PauliOperator.z_at(n, 0)
    outcome, post = rho.measure(z0, np.random.default_rng(2))
    assert post.k == 2
    assert post.membership_sign(z0) == outcome
    # the untouched sublattice symmetry survives
    assert post.membership_sign(PauliOperator.x_at(n, *range(1, n, 2))) == 1


def test_canonical_form_invariant_under_regeneration():
    rng = np.random.default_rng(33)
    from catalab.stabilizer import cnot_gate, h_gate, s_gate

    for _ in range(30):
        n = int(rng.integers(2, 6))
        state = StabilizerMixture.zero_state(n)
        for _ in range(3 * n):
            choice = int(rng.integers(0, 3))
            if choice == 0:
                state = state.apply_circuit(h_gate(n, int(rng.integers(0, n))))
            elif choice == 1:
                state = state.apply_circuit(s_gate(n, int(rng.integers(0, n))))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                state = state.apply_circuit(cnot_gate(n, int(a), int(b)))
        # multiply a random pair of generators: same group, same canonical form
        gens = list(state.generators)
        if len(gens) >= 2:
            gens[0] = gens[0] * gens[1]
            other = StabilizerMixture.from_generators(n, gens)
            assert state.canonical().generators == other.canonical().generators
