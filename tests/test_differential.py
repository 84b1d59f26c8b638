"""Differential tests: the light-cone, conjugation-table, int-level and
cached-basis fast paths against plain reference forms of the same
computation, compared exactly, and the dense oracle's entangler action,
doubled-circuit check and fidelity; criterion 2's basis-label images against
the per-column dense action, and index-placed Hamiltonian assembly against
the kron embedding; the cocycle chain's v-terms and Hamiltonians against the
gate-conjugation loops `CocycleCircuit.conjugate_term` replaced; and the
measurement protocol's affine-sign template against the per-sample loop and
the dense projectors; and the one catalyst symmetry contract against the
three loops it replaced."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalab.acceptance as acceptance
from catalab.acceptance import (
    _basis_images,
    _doubled_operator_equality_dense,
    _qca_matrix,
)
from catalab.dense import (
    DenseOperator,
    DenseState,
    apply_pauli,
    dense_fidelity,
    embed_operator,
    overlap,
    pauli_matrix,
    qca_dense_action,
    stabilizer_density,
    stabilizer_to_dense,
)
from catalab.cohomology import CocycleCircuit
from catalab.gf2 import BitMatrix
from catalab.models import (
    Catalyst,
    RingLattice,
    _independent_subset,
    build_catalyst,
    build_hamiltonian,
    build_model,
    catalyst_kinds,
    cz_ring_circuit,
    symmetry_defect,
)
from catalab.pauli import PauliOperator
from catalab.protocols import _measurement_template, measurement_prepare_catalyst
from catalab.stabilizer import (
    CliffordCircuit,
    StabilizerMixture,
    cnot_gate,
    cz_gate,
    fidelity,
    h_gate,
    is_invariant,
    pack_gates_into_layers,
    s_gate,
    sdg_gate,
    swap_gate,
    tableau_gate,
    x_gate,
    y_gate,
    z_gate,
)
from catalab.verify import build_doubled_diagonal, build_doubled_fdqc

ONE_SITE = (h_gate, s_gate, sdg_gate, x_gate, y_gate, z_gate)
TWO_SITE = (cz_gate, cnot_gate, swap_gate)
SEEDS = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# random local Clifford circuits
# ---------------------------------------------------------------------------


def random_named_gate(rng, n, sites):
    if len(sites) == 1 or rng.random() < 0.4:
        return ONE_SITE[rng.integers(len(ONE_SITE))](n, int(rng.choice(sites)))
    a, b = rng.choice(sites, size=2, replace=False)
    return TWO_SITE[rng.integers(len(TWO_SITE))](n, int(a), int(b))


def random_tableau_gate(rng, n, sites):
    """A TABLEAU gate carrying the images of a few random named gates."""
    return tableau_of(n, sites, [random_named_gate(rng, n, sites) for _ in range(4)])


def tableau_of(n, sites, named):
    """A TABLEAU gate on `sites` with the images of the named gates in turn."""
    images = {}
    for a in sites:
        pair = []
        for p in (PauliOperator.x_at(n, a), PauliOperator.z_at(n, a)):
            for g in named:
                p = g.conjugate(p)
            pair.append(p)
        images[a] = (pair[0], pair[1])
    return tableau_gate(n, images)


def random_gate(rng, n, sites):
    if rng.random() < 0.3:
        return random_tableau_gate(rng, n, sites)
    return random_named_gate(rng, n, sites)


def random_circuit(rng, n, num_gates):
    """Gates on arbitrary sets of up to three sites, packed into layers."""
    gates = []
    for _ in range(num_gates):
        size = int(rng.integers(1, min(3, n) + 1))
        sites = [int(a) for a in rng.choice(n, size=size, replace=False)]
        gates.append(random_gate(rng, n, sites))
    return pack_gates_into_layers(n, gates)


def random_ring_circuit(rng, n):
    """Single-site layer, one nearest-neighbour pair layer, single-site layer:
    every single-site operator spreads by at most one site on the ring."""

    def singles():
        return tuple(random_gate(rng, n, [a]) for a in range(n) if rng.random() < 0.7)

    offset = int(rng.integers(2))
    pairs = tuple(
        random_gate(rng, n, [(2 * j + offset) % n, (2 * j + 1 + offset) % n])
        for j in range(n // 2)
        if rng.random() < 0.8
    )
    return CliffordCircuit(n, (singles(), pairs, singles()))


def random_pauli(rng, n):
    return PauliOperator(
        n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(4))
    )


def hermitian(p):
    return PauliOperator(p.n, p.x, p.z, (p.x & p.z).bit_count() + 2 * (p.phase >> 1))


# ---------------------------------------------------------------------------
# light-cone circuit conjugation against the gate-by-gate loop
# ---------------------------------------------------------------------------


def naive_conjugate(circuit, p):
    for layer in circuit.layers:
        for g in layer:
            p = g.conjugate(p)
    return p


def naive_conjugate_inverse(circuit, p):
    for layer in reversed(circuit.layers):
        for g in reversed(layer):
            p = g.inverse().conjugate(p)
    return p


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), num_gates=st.integers(0, 16), seed=SEEDS)
def test_light_cone_conjugation_matches_gate_by_gate(n, num_gates, seed):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, num_gates)
    for _ in range(8):
        p = random_pauli(rng, n)
        assert circuit.conjugate(p) == naive_conjugate(circuit, p)
        assert circuit.conjugate_inverse(p) == naive_conjugate_inverse(circuit, p)
        assert circuit.conjugate_inverse(circuit.conjugate(p)) == p


def test_size_mismatch_raises_even_when_no_gate_is_touched():
    circuit = CliffordCircuit(4, ((cz_gate(4, 0, 1),),))
    for far in (PauliOperator.x_at(5, 3), PauliOperator.identity(5), PauliOperator.z_at(3, 2)):
        with pytest.raises(ValueError):
            circuit.conjugate(far)
        with pytest.raises(ValueError):
            circuit.conjugate_inverse(far)
    with pytest.raises(ValueError):
        CliffordCircuit(4, ()).conjugate(PauliOperator.identity(5))


# ---------------------------------------------------------------------------
# table-driven gate conjugation against the image-product loop
# ---------------------------------------------------------------------------


def reference_gate_conjugate(gate, p):
    """Multiply the site images into a Pauli object, in site order with X
    before Z, starting from p's phase; then multiply in the untouched rest."""
    acc = PauliOperator(gate.n, 0, 0, p.phase)
    touched = 0
    for a in gate.support:
        bit = 1 << a
        if p.x & bit:
            acc = acc * gate.images[a][0]
        if p.z & bit:
            acc = acc * gate.images[a][1]
        touched |= bit
    return acc * PauliOperator(gate.n, p.x & ~touched, p.z & ~touched, 0)


def support_patterns(rng, gate):
    """Every (x, z) pattern on the gate support, each on random bits off the
    support and with all four phases."""
    n, sites = gate.n, list(gate.support)
    off = ((1 << n) - 1) & ~sum(1 << a for a in sites)
    for bits in range(4 ** len(sites)):
        x = z = 0
        for k, a in enumerate(sites):
            x |= ((bits >> (2 * k)) & 1) << a
            z |= ((bits >> (2 * k + 1)) & 1) << a
        rx, rz = (int(rng.integers(0, 1 << n)) & off for _ in range(2))
        for phase in range(4):
            yield PauliOperator(n, x | rx, z | rz, phase)


def assert_table_matches_loop(rng, gate):
    for p in support_patterns(rng, gate):
        want = reference_gate_conjugate(gate, p)
        # The first call may fill the entry, the second reads it back.
        assert gate.conjugate(p) == want
        assert gate.conjugate(p) == want


@pytest.mark.parametrize("make", ONE_SITE + TWO_SITE, ids=lambda f: f.__name__)
def test_named_gate_table_matches_image_product_loop(make):
    rng = np.random.default_rng(5)
    sites = (2,) if make in ONE_SITE else (3, 1)
    assert_table_matches_loop(rng, make(4, *sites))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=SEEDS)
def test_tableau_gate_table_matches_image_product_loop(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        size = int(rng.integers(1, min(3, n) + 1))
        sites = [int(a) for a in rng.choice(n, size=size, replace=False)]
        assert_table_matches_loop(rng, random_tableau_gate(rng, n, sites))
        assert_table_matches_loop(rng, random_named_gate(rng, n, sites))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=SEEDS)
def test_tableau_gate_inverse_round_trips_every_support_pauli(n, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(3, n) + 1))
    sites = [int(a) for a in rng.choice(n, size=size, replace=False)]
    gate = random_tableau_gate(rng, n, sites)
    inv = gate.inverse()
    for p in support_patterns(rng, gate):
        assert inv.conjugate(gate.conjugate(p)) == p
        assert gate.conjugate(inv.conjugate(p)) == p


def test_equal_tableau_gates_keep_their_own_tables():
    n = 3
    a = tableau_of(n, [0, 2], [h_gate(n, 0), cnot_gate(n, 0, 2)])
    b = tableau_of(n, [0, 2], [s_gate(n, 2), cz_gate(n, 0, 2)])
    assert a == b and hash(a) == hash(b)
    rng = np.random.default_rng(11)
    patterns = list(support_patterns(rng, a))
    for _ in range(2):
        for p in patterns:
            assert a.conjugate(p) == reference_gate_conjugate(a, p)
            assert b.conjugate(p) == reference_gate_conjugate(b, p)
    assert any(a.conjugate(p) != b.conjugate(p) for p in patterns)


# ---------------------------------------------------------------------------
# doubled compile from single-site images against the full-width compile
# ---------------------------------------------------------------------------


def _conjugate_register_a(conj, n, p):
    mask = (1 << n) - 1
    img = conj(PauliOperator(n, p.x & mask, p.z & mask, 0))
    return PauliOperator(2 * n, img.x | (p.x & ~mask), img.z | (p.z & ~mask), p.phase + img.phase)


def reference_doubled_images(qca, n):
    """v_i images with every basis operator pushed full width through
    U^-1 (x) 1, the swap s_i and U (x) 1, one site at a time."""
    n2 = 2 * n
    reach = [
        set(qca.conjugate_inverse(PauliOperator.x_at(n, a)).support())
        | set(qca.conjugate_inverse(PauliOperator.z_at(n, a)).support())
        for a in range(n)
    ]
    gates = []
    for i in range(n):
        support = [a for a in range(n) if i in reach[a]] + [n + i]
        images = {}
        for a in support:
            pair = []
            for basis in (PauliOperator.x_at(n2, a), PauliOperator.z_at(n2, a)):
                inner = _conjugate_register_a(qca.conjugate_inverse, n, basis)
                swapped = inner.permute({i: n + i, n + i: i})
                pair.append(_conjugate_register_a(qca.conjugate, n, swapped))
            images[a] = tuple(pair)
        gates.append(images)
    return gates


def assert_doubled_matches_reference(qca, n, lattice):
    doubled = build_doubled_fdqc(qca, n, lattice)
    reference = reference_doubled_images(qca, n)
    assert len(doubled.v_gates) == len(reference)
    for gate, images in zip(doubled.v_gates, reference):
        assert list(gate.support) == sorted(images)
        for a in gate.support:
            assert gate.images[a] == images[a]
    assert [tuple(g.support) for g in doubled.s_gates] == [(i, n + i) for i in range(n)]


@pytest.mark.parametrize(
    "model, params",
    [
        ("lsm-dimer", {"n": 8}),
        ("cluster-1d", {"n": 4}),
        ("cluster-1d", {"n": 8}),
        ("lieb-2d", {"lx": 2, "ly": 2}),
        ("lieb-2d", {"lx": 3, "ly": 2}),
        ("square-sspt", {"l": 3}),
    ],
)
def test_doubled_compile_matches_reference_on_registry(model, params):
    bundle = build_model(model, **params)
    assert_doubled_matches_reference(bundle.entangler, bundle.n, bundle.lattice)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), seed=SEEDS)
def test_doubled_compile_matches_reference_on_random_ring_circuits(n, seed):
    qca = random_ring_circuit(np.random.default_rng(seed), n)
    assert_doubled_matches_reference(qca, n, RingLattice(n))


# ---------------------------------------------------------------------------
# dense oracle: the entangler action and the criterion-2 full-matrix check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model, params",
    [("lsm-dimer", {"n": 4}), ("cluster-1d", {"n": 6}), ("square-sspt", {"l": 2})],
)
def test_dense_qca_action_maps_trivial_to_target(model, params):
    bundle = build_model(model, **params)
    moved = qca_dense_action(bundle.entangler)(stabilizer_to_dense(bundle.trivial))
    assert abs(abs(overlap(stabilizer_to_dense(bundle.target), moved)) - 1) < 1e-10


def _negate_one_image(gate):
    """The same gate with its first X image negated: still a valid tableau."""
    images = dict(gate.images)
    a = gate.support[0]
    px, pz = images[a]
    images[a] = (PauliOperator(px.n, px.x, px.z, px.phase + 2), pz)
    return tableau_gate(gate.n, images)


@pytest.mark.parametrize("model", ["cluster-1d", "lsm-dimer"])
def test_full_matrix_check_catches_a_corrupted_v_gate(model):
    bundle = build_model(model, n=4)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    details = {}
    assert _doubled_operator_equality_dense(bundle, doubled, "err", details)
    assert details["err"] == 0.0
    for k in range(len(doubled.v_gates)):
        v_gates = list(doubled.v_gates)
        v_gates[k] = _negate_one_image(v_gates[k])
        corrupted = replace(doubled, v_gates=tuple(v_gates))
        assert not _doubled_operator_equality_dense(bundle, corrupted, "err", details)
        assert details["err"] > 1e-10
        assert details["err"] == reference_doubled_maxerr(bundle, corrupted)


CRITERION_2_DENSE = [
    ("lsm-dimer", {"n": 4}),
    ("cluster-1d", {"n": 4}),
    ("cluster-1d", {"n": 6}),
    ("square-sspt", {"l": 2}),
]


def reference_columns(act, sites):
    """Each computational basis column of a dense state map, one at a time."""
    for j in range(1 << sites):
        yield j, act(DenseState.computational(2, sites, j)).amps


def reference_doubled_maxerr(bundle, doubled):
    """The full-matrix check column by column: each basis state through the
    doubled circuit's dense action, against kron(U^-1 column, U column)."""
    n = bundle.n
    u = np.stack([c for _, c in reference_columns(qca_dense_action(bundle.entangler), n)], 1)
    inverse = qca_dense_action(bundle.entangler.inverse())
    u_inv = np.stack([c for _, c in reference_columns(inverse, n)], 1)
    worst = 0.0
    for idx, got in reference_columns(doubled.apply_dense, 2 * n):
        expected = np.outer(u_inv[:, idx >> n], u[:, idx & ((1 << n) - 1)]).reshape(-1)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


@pytest.mark.parametrize("model, params", CRITERION_2_DENSE)
def test_basis_images_match_per_column_dense_action(model, params):
    bundle = build_model(model, **params)
    n = bundle.n
    for qca in (bundle.entangler, bundle.entangler.inverse()):
        matrix = _qca_matrix(qca)
        for j, column in reference_columns(qca_dense_action(qca), n):
            assert np.array_equal(matrix[:, j], column), j
    doubled = build_doubled_fdqc(bundle.entangler, n, bundle.lattice)
    labels, signs = _basis_images(2 * n, [*range(n, 2 * n), *range(n)], doubled.v_terms)
    for j, column in reference_columns(doubled.apply_dense, 2 * n):
        expected = np.zeros(1 << (2 * n))
        expected[labels[j]] = signs[j]
        assert np.array_equal(column, expected), j


@pytest.mark.parametrize(
    "gate, support",
    [
        (np.array([[1, 1], [1, -1]]) / np.sqrt(2), (3,)),
        (np.diag([1, 1j]), (5,)),
        (np.array([[1, 1], [0, -1]]), (6,)),
    ],
    ids=["hadamard", "phase", "two-entries"],
)
def test_full_matrix_check_rejects_a_v_term_that_is_not_a_signed_permutation(gate, support):
    bundle = build_model("cluster-1d", n=4)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    vars(doubled)["v_terms"] = doubled.v_terms + ((support, gate),)
    with pytest.raises(ValueError, match=rf"gate on \[{support[0]}\] is not a signed permutation"):
        _doubled_operator_equality_dense(bundle, doubled, "err", {})


def test_one_flipped_v_term_sign_fails_criterion_2(monkeypatch):
    def with_flipped_sign(*args):
        doubled = build_doubled_fdqc(*args)
        (support, matrix), *rest = doubled.v_terms
        matrix = matrix.copy()
        matrix[np.flatnonzero(matrix[:, 0])[0], 0] *= -1
        vars(doubled)["v_terms"] = ((support, matrix), *rest)
        return doubled

    monkeypatch.setattr(acceptance, "build_doubled_fdqc", with_flipped_sign)
    result = acceptance.criterion_2()
    assert not result.passed
    maxerr = {k: v for k, v in result.details.items() if k.endswith("-dense-maxerr")}
    assert maxerr == {
        "lsm-dimer-n4-dense-maxerr": 2.0,
        "cluster-1d-n4-dense-maxerr": 2.0,
        "cluster-1d-n6-dense-maxerr": 2.0,
        "square-sspt-n4-dense-maxerr": 2.0,
    }


# ---------------------------------------------------------------------------
# Hamiltonian assembly by index against the kron embedding
# ---------------------------------------------------------------------------


def kron_embed(mat, support, sites, q):
    """One full np.kron with the identity on the other sites, then a transpose
    of the 2 * sites digit axes that puts each digit on its site."""
    support = list(support)
    rest = [s for s in range(sites) if s not in support]
    full = np.kron(mat, np.eye(q ** len(rest), dtype=np.complex128))
    # Axis j of the reshaped tensor holds the j-th most significant digit:
    # support digits first (support[0] least significant), then rest digits;
    # site s lives on axis sites - 1 - s of the state tensor.
    order = list(reversed(support)) + list(reversed(rest))
    perm = [0] * sites
    for axis_pos, site in enumerate(order):
        perm[sites - 1 - site] = axis_pos
    tensor = full.reshape((q,) * (2 * sites)).transpose(perm + [p + sites for p in perm])
    return tensor.reshape(q**sites, q**sites)


def kron_sum(op):
    total = np.zeros((op.q**op.sites,) * 2, dtype=np.complex128)
    for support, mat in op.terms:
        total += kron_embed(mat, support, op.sites, op.q)
    return total


# lieb-2d is left out: its smallest torus has 12 qubits, where the kron
# reference alone allocates 268 MB per term.
@pytest.mark.parametrize(
    "model, params",
    [
        ("lsm-dimer", {"n": 8}),
        ("cluster-1d", {"n": 8}),
        ("square-sspt", {"l": 2}),
        ("cocycle-z2z2", {"sites": 4}),
    ],
)
@pytest.mark.parametrize("kind", ["triv", "spt", "interpolated", "catalyst-sum"])
def test_hamiltonian_assembly_matches_kron_sum(model, params, kind):
    op = build_hamiltonian(build_model(model, **params), kind, alpha=0.3)
    assert op.to_matrix().tobytes() == kron_sum(op).tobytes()


# ---------------------------------------------------------------------------
# cocycle chain: one conjugation by the diagonal gates, against the loops it
# replaced (the doubled v-term loop and the Hamiltonian term loop)
# ---------------------------------------------------------------------------


def reference_conjugate_by_gates(gates, q, support, mat):
    """D mat D^dagger for D the product of the gates' phase diagonals, written
    on `support` (support[0] least significant; it holds every gate site)."""
    m = len(support)
    pos = {s: k for k, s in enumerate(support)}
    dim = q**m
    diag = np.ones(dim, dtype=np.complex128)
    for gate in gates:
        phases = gate.phases()
        for idx in range(dim):
            digits = [(idx // q**k) % q for k in range(m)]
            gidx = sum(digits[pos[s]] * q**k for k, s in enumerate(gate.sites))
            diag[idx] *= phases[gidx]
    return (diag[:, None] * mat) * diag.conj()[None, :]


def reference_qudit_swap_matrix(q, m, pa, pb):
    dim = q**m
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for idx in range(dim):
        digits = [(idx // q**k) % q for k in range(m)]
        digits[pa], digits[pb] = digits[pb], digits[pa]
        jdx = sum(d * q**k for k, d in enumerate(digits))
        mat[jdx, idx] = 1.0
    return mat


def reference_doubled_diagonal_v_terms(circuit):
    """v_i from the gates on site i and an explicit swap of sites i, n+i."""
    n, q = circuit.num_sites, circuit.q
    v_terms = []
    for i in range(n):
        gates = [g for g in circuit.gates if i in g.sites]
        support = tuple(sorted({s for g in gates for s in g.sites})) + (n + i,)
        m = len(support)
        swap = reference_qudit_swap_matrix(q, m, support.index(i), m - 1)
        v_terms.append((support, reference_conjugate_by_gates(gates, q, support, swap)))
    return v_terms


def reference_conjugate_term(circuit, support, mat):
    """Conjugate a local term by the diagonal circuit, growing the support."""
    touching = []
    halo = set(support)
    for gate in circuit.gates:
        if any(s in support for s in gate.sites):
            touching.append(gate)
            halo.update(gate.sites)
    new_support = tuple(sorted(halo))
    embedded = embed_operator(
        mat, [new_support.index(s) for s in support], len(new_support), circuit.q
    )
    return new_support, reference_conjugate_by_gates(touching, circuit.q, new_support, embedded)


@pytest.mark.parametrize("sites", [3, 4, 5])
def test_doubled_diagonal_v_terms_match_reference_loop(sites):
    circuit = build_model("cocycle-z2z2", sites=sites).entangler
    got = build_doubled_diagonal(circuit).v_terms
    want = reference_doubled_diagonal_v_terms(circuit)
    assert [support for support, _ in got] == [support for support, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("sites", [3, 4, 5])
@pytest.mark.parametrize("kind", ["triv", "spt", "interpolated", "catalyst-sum"])
def test_cocycle_hamiltonian_matches_reference_conjugation(monkeypatch, sites, kind):
    bundle = build_model("cocycle-z2z2", sites=sites)
    got = build_hamiltonian(bundle, kind, alpha=0.3)
    monkeypatch.setattr(CocycleCircuit, "conjugate_term", reference_conjugate_term)
    want = build_hamiltonian(bundle, kind, alpha=0.3)
    assert [support for support, _ in got.terms] == [support for support, _ in want.terms]
    assert got.to_matrix().tobytes() == want.to_matrix().tobytes()


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 4]), seed=SEEDS, data=st.data())
def test_local_term_assembly_matches_kron_sum(q, seed, data):
    sites = data.draw(st.integers(1, 5 if q == 2 else 4))
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        order = data.draw(st.permutations(range(sites)))
        support = tuple(order[: data.draw(st.integers(0, min(sites, 3)))])
        dim = q ** len(support)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        terms.append((support, a + a.conj().T))
    op = DenseOperator(sites, q, terms)
    assert op.to_matrix().tobytes() == kron_sum(op).tobytes()
    for support, mat in op.terms:
        assert np.array_equal(embed_operator(mat, support, sites, q), kron_embed(mat, support, sites, q))


# ---------------------------------------------------------------------------
# cached reduced basis against a fresh elimination per query
# ---------------------------------------------------------------------------


def fresh_reduction(state):
    rows = [g.symplectic() for g in state.generators]
    return BitMatrix(rows, 2 * state.n).rref_with_transform()


def product_of(state, combo):
    acc = PauliOperator.identity(state.n)
    for j, g in enumerate(state.generators):
        if (combo >> j) & 1:
            acc = acc * g
    return acc


def fresh_membership_sign(state, p):
    red, pivots, transform = fresh_reduction(state)
    residue, combo = p.symplectic(), 0
    for r, c in enumerate(pivots):
        if (residue >> c) & 1:
            residue ^= red.rows[r]
            combo ^= transform[r]
    if residue:
        return None
    return {0: 1, 2: -1}[(product_of(state, combo).phase - p.phase) & 3]


def fresh_canonical(state):
    _, pivots, transform = fresh_reduction(state)
    return tuple(product_of(state, transform[r]) for r in range(len(pivots)))


def random_mixture(rng, n):
    """A random Clifford image of |0...0>, some generators dropped or negated."""
    pure = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    gens = [g.negate() if rng.random() < 0.3 else g for g in pure.generators]
    keep = [g for g in gens if rng.random() < 0.7]
    return StabilizerMixture.from_generators(n, keep)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=SEEDS)
def test_cached_basis_matches_fresh_elimination(n, seed):
    rng = np.random.default_rng(seed)
    state = random_mixture(rng, n)
    queries = [hermitian(random_pauli(rng, n)) for _ in range(6)]
    for _ in range(6):
        member = product_of(state, int(rng.integers(0, 1 << state.k)))
        queries.append(member.negate() if rng.random() < 0.5 else member)
    for p in queries:
        assert state.membership_sign(p) == fresh_membership_sign(state, p)
    assert state.canonical().generators == fresh_canonical(state)


# ---------------------------------------------------------------------------
# same_state by membership against canonical-form equality
# ---------------------------------------------------------------------------


def reference_same_state(a, b):
    """Equal canonical generators: the canonical form is unique per signed
    group."""
    return a.n == b.n and fresh_canonical(a) == fresh_canonical(b)


def regenerated(rng, state):
    """Another generating set of the same signed group: generator j times a
    random product of those before it, in shuffled order."""
    gens = [product_of(state, (1 << j) | int(rng.integers(0, 1 << j))) for j in range(state.k)]
    return [gens[i] for i in rng.permutation(state.k)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    mixed=st.booleans(),
    change=st.sampled_from(("none", "sign-flip", "dropped", "unrelated")),
    seed=SEEDS,
)
def test_same_state_by_membership_matches_canonical_form(n, mixed, change, seed):
    rng = np.random.default_rng(seed)
    if mixed:
        state = random_mixture(rng, n)
    else:
        state = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    gens = regenerated(rng, state)
    if change == "unrelated":
        other = random_mixture(rng, n)
    else:
        if gens and change == "sign-flip":
            gens[0] = gens[0].negate()
        elif gens and change == "dropped":
            gens.pop(int(rng.integers(len(gens))))
        other = StabilizerMixture.from_generators(n, gens)
    for a, b in ((state, other), (other, state)):
        assert a.same_state(b) == reference_same_state(a, b)
    if change == "none":
        assert state.same_state(other)
    elif change != "unrelated" and state.k:
        assert not state.same_state(other)


# ---------------------------------------------------------------------------
# int-level mixture arithmetic against Pauli-object products
# ---------------------------------------------------------------------------


def reference_tensor(a, b):
    gens = [g.tensor(PauliOperator.identity(b.n)) for g in a.generators]
    gens += [PauliOperator.identity(a.n).tensor(g) for g in b.generators]
    return tuple(gens)


def reference_validate(state):
    """The generator checks with pairwise object symplectic products."""
    gens = state.generators
    for g in gens:
        if g.n != state.n:
            raise ValueError("generator register size mismatch")
        if not g.is_hermitian():
            raise ValueError(f"generator {g} is not hermitian")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i].symplectic_product(gens[j]):
                raise ValueError(f"generators {gens[i]} and {gens[j]} anticommute")
    if BitMatrix([g.symplectic() for g in gens], 2 * state.n).rank() != len(gens):
        raise ValueError("generators are not independent")


def validation_error(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 4), seed=SEEDS)
def test_int_level_mixture_arithmetic_matches_objects(n, m, seed):
    rng = np.random.default_rng(seed)
    state, other = random_mixture(rng, n), random_mixture(rng, m)
    for _ in range(8):
        mask = int(rng.integers(0, 1 << state.k))
        assert state._combine(mask) == product_of(state, mask)
    assert state.canonical().generators == fresh_canonical(state)
    assert state.tensor(other).generators == reference_tensor(state, other)
    # Valid, then with one more generator: often anticommuting or dependent.
    extra = [hermitian(random_pauli(rng, n)), product_of(state, int(rng.integers(0, 1 << state.k)))]
    for gens in (state.generators, state.generators + (extra[int(rng.integers(2))],)):
        candidate = StabilizerMixture(n, gens)
        assert validation_error(candidate.validate) == validation_error(
            lambda: reference_validate(candidate)
        )


def test_anticommuting_pair_still_raises():
    gens = (PauliOperator.z_at(6, 1, 2), PauliOperator.x_at(6, 4), PauliOperator.z_at(6, 4))
    with pytest.raises(ValueError, match="anticommute"):
        StabilizerMixture.from_generators(6, gens)
    state = StabilizerMixture.plus_state(6)
    with pytest.raises(ValueError, match="anticommute"):
        StabilizerMixture(6, state.generators + (PauliOperator.z_at(6, 5),)).validate()


# ---------------------------------------------------------------------------
# one elimination routine against the textbook loop
# ---------------------------------------------------------------------------


def reference_rref_with_transform(rows, cols):
    """Plain Gauss-Jordan with the transform kept in a separate list."""
    rows = list(rows)
    transform = [1 << i for i in range(len(rows))]
    pivots, rank = [], 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if (rows[r] >> c) & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        transform[rank], transform[pivot] = transform[pivot], transform[rank]
        for r in range(len(rows)):
            if r != rank and (rows[r] >> c) & 1:
                rows[r] ^= rows[rank]
                transform[r] ^= transform[rank]
        pivots.append(c)
        rank += 1
    return rows, pivots, transform


@settings(max_examples=100, deadline=None)
@given(nrows=st.integers(0, 9), cols=st.integers(0, 12), data=st.data())
def test_eliminations_match_reference_loop(nrows, cols, data):
    rows = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=nrows, max_size=nrows))
    b = data.draw(st.integers(0, (1 << nrows) - 1))
    m = BitMatrix(rows, cols)
    red, pivots, transform = reference_rref_with_transform(rows, cols)
    assert m.rref() == (BitMatrix(red, cols), pivots)
    assert m.rref_with_transform() == (BitMatrix(red, cols), pivots, transform)
    rhs = [(t & b).bit_count() & 1 for t in transform]
    if any(rhs[len(pivots):]):
        expected = None
    else:
        expected = sum(1 << c for r, c in enumerate(pivots) if rhs[r])
    assert m.solve_mask(b) == expected


def greedy_independent_subset(n, gens):
    """Keep each generator that raises the rank of those kept so far."""
    out, rows = [], []
    for g in gens:
        candidate = rows + [g.symplectic()]
        if BitMatrix(candidate, 2 * n).rank() == len(candidate):
            out.append(g)
            rows.append(g.symplectic())
    return out


@st.composite
def pauli_lists(draw):
    """Random Paulis on at most 12 qubits, with repeats and products of
    earlier entries mixed in so that some rows are dependent."""
    n = draw(st.integers(1, 12))
    gens = []
    for _ in range(draw(st.integers(0, 2 * n + 4))):
        kind = draw(st.sampled_from(("fresh", "repeat", "product")) if gens else st.just("fresh"))
        if kind == "fresh":
            x, z = draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1))
            gens.append(PauliOperator(n, x, z, draw(st.integers(0, 3))))
        elif kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(draw(st.sampled_from(gens)) * draw(st.sampled_from(gens)))
    return n, gens


@settings(max_examples=100, deadline=None)
@given(pauli_lists())
def test_independent_subset_matches_greedy_rank_loop(case):
    n, gens = case
    assert _independent_subset(n, gens) == greedy_independent_subset(n, gens)


# ---------------------------------------------------------------------------
# exact fidelity against the dense oracle on unrelated commuting groups
# ---------------------------------------------------------------------------


def independent_masks(rng, n, k, first=()):
    """k GF(2)-independent nonzero n-bit masks, starting with `first`."""
    masks = list(first)
    while len(masks) < k:
        mask = int(rng.integers(1, 1 << n))
        if BitMatrix(masks + [mask], n).rank() == len(masks) + 1:
            masks.append(mask)
    return masks


def signed_products(rng, pure, masks):
    """The product of the pure state's generators selected by each mask,
    each with an independent random sign."""
    return [product_of(pure, m).with_sign(int(rng.choice((1, -1)))) for m in masks]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5), opposite=st.booleans(), seed=SEEDS, data=st.data())
def test_fidelity_matches_dense_on_unrelated_commuting_groups(n, opposite, seed, data):
    """rho and sigma are independently drawn, randomly signed subgroups of one
    random pure stabilizer group: they commute but share only part of their
    groups.  With `opposite`, sigma also holds one of rho's generators with
    the other sign, so the two are orthogonal (F = 0)."""
    rng = np.random.default_rng(seed)
    pure = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    k1 = data.draw(st.integers(int(opposite), n))
    k2 = data.draw(st.integers(int(opposite), n))
    masks1 = independent_masks(rng, n, k1)
    gens1 = signed_products(rng, pure, masks1)
    if opposite:
        masks2 = independent_masks(rng, n, k2, first=masks1[:1])
        gens2 = [gens1[0].negate()] + signed_products(rng, pure, masks2[1:])
    else:
        gens2 = signed_products(rng, pure, independent_masks(rng, n, k2))
    rho = StabilizerMixture.from_generators(n, gens1)
    sigma = StabilizerMixture.from_generators(n, gens2)
    got = fidelity(rho, sigma)
    expected = dense_fidelity(stabilizer_density(rho), stabilizer_density(sigma))
    assert abs(float(got) - expected) < 1e-10
    if opposite:
        assert got == 0
    elif got:
        # 2^(s - (k1 + k2)/2): exact for even k1 + k2, the float branch for odd.
        assert isinstance(got, float) == bool((k1 + k2) % 2)


# ---------------------------------------------------------------------------
# measurement template against the per-sample loop and the dense projectors
# ---------------------------------------------------------------------------


def reference_measurement(n, rng):
    """The per-sample protocol: one `measure` per next-nearest-neighbor ZZ
    on |+>^n, then the parity, invariance and symmetry claims checked on
    this sample's own state."""
    state = StabilizerMixture.plus_state(n)
    outcomes = []
    for i in range(n):
        outcome, state = state.measure(PauliOperator.z_at(n, i, (i + 2) % n), rng)
        outcomes.append(outcome)
    assert math.prod(outcomes[0::2]) == 1 and math.prod(outcomes[1::2]) == 1
    assert is_invariant(state, cz_ring_circuit(n))
    for first in (0, 1):
        assert state.membership_sign(PauliOperator.x_at(n, *range(first, n, 2))) == 1
    return tuple(outcomes), state


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 6).map(lambda k: 2 * k), seed=SEEDS)
def test_measurement_template_matches_per_sample_loop(n, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    record = measurement_prepare_catalyst(n, rng_a)
    outcomes, state = reference_measurement(n, rng_b)
    assert record.outcomes == outcomes
    # Exact generators: order, unsigned parts and phases.
    assert record.post_state.generators == state.generators
    assert (record.parity_even, record.parity_odd) == (1, 1)
    # Both drew the same number of bits.
    assert rng_a.integers(0, 2**32) == rng_b.integers(0, 2**32)


@pytest.mark.parametrize("n", [4, 6])
def test_measurement_template_matches_dense_projections(n):
    """Every assignment of the random outcome bits: the template's state is
    |+><+|^n after the projectors (1 + s_i Z_i Z_{i+2})/2 in sequence, each
    renormalized; a random outcome has weight 1/2, a deterministic one 1."""
    template = _measurement_template(n)
    dim = 1 << n
    plus = np.full((dim, dim), 1.0 / dim, dtype=np.complex128)
    zz = [pauli_matrix(PauliOperator.z_at(n, i, (i + 2) % n)) for i in range(n)]
    assert len(template.random) == n - 2
    for draws in range(1 << len(template.random)):
        bits = sum(((draws >> k) & 1) << t for k, t in enumerate(template.random))
        outcomes, state = template.evaluate(bits)
        rho = plus
        for t, (sign, op) in enumerate(zip(outcomes, zz)):
            proj = (np.eye(dim) + sign * op) / 2
            rho = proj @ rho @ proj
            weight = np.trace(rho).real
            assert abs(weight - (0.5 if t in template.random else 1.0)) <= 1e-12
            rho = rho / weight
        assert np.abs(stabilizer_density(state) - rho).max() <= 1e-12


# ---------------------------------------------------------------------------
# catalyst symmetry contract
# ---------------------------------------------------------------------------


def reference_build_check_stab(bundle, cat):
    """The symmetry loop `build_catalyst` ran on stabilizer catalysts."""
    state = cat.stab
    for gen in bundle.symmetry.generators:
        if gen.name in cat.broken:
            continue
        if gen.name in cat.weak_under:
            if any(gen.pauli.symplectic_product(g) for g in state.generators):
                return gen.name
        elif state.membership_sign(gen.pauli) != 1:
            return gen.name
    return None


def reference_build_check_dense(bundle, cat):
    """The symmetry loops `build_catalyst` ran on dense catalysts; they
    skipped `weak_under` generators outright."""
    state = cat.dense_state
    if bundle.qudit_symmetry is not None:
        qsym = bundle.qudit_symmetry
        for g in qsym.group.elements():
            moved = qsym.apply(state, g)
            if abs(complex(np.vdot(state.amps, moved.amps)) - 1) > 1e-9:
                return str(g)
        return None
    for gen in bundle.symmetry.generators:
        if gen.name in cat.weak_under or gen.name in cat.broken:
            continue
        moved = apply_pauli(state, gen.pauli)
        if abs(complex(np.vdot(state.amps, moved.amps)) - 1) > 1e-9:
            return gen.name
    return None


def reference_first_asymmetry(bundle, catalyst):
    """The weak-symmetry loop `verify_catalysis` ran before the doubled circuit."""
    state = catalyst.dense_state
    if bundle.qudit_symmetry is not None:
        qsym = bundle.qudit_symmetry
        for g in qsym.group.elements():
            if abs(np.vdot(state.amps, qsym.apply(state, g).amps)) < 1 - 1e-9:
                return str(g)
        return None
    for gen in bundle.symmetry.generators:
        if gen.name in catalyst.broken:
            continue
        if catalyst.engine == "stabilizer":
            ok = not any(gen.pauli.symplectic_product(g) for g in catalyst.stab.generators)
        else:
            ok = abs(np.vdot(state.amps, apply_pauli(state, gen.pauli).amps)) >= 1 - 1e-9
        if not ok:
            return gen.name
    return None


def as_dense(cat):
    return replace(cat, engine="dense", stab=None, dense_state=stabilizer_to_dense(cat.stab))


def contract_cases():
    """(bundle, catalyst) pairs: every registry catalyst at the criterion
    sizes, pure stabilizer ones also densely; |0...0>, |+...+> and
    |-+...+> (weakly but not strongly symmetric) on every Clifford model on
    both engines; the qudit |0...0> and a qudit state that picks up a sign
    under half the group; and toric-code with its broken loops unnamed."""
    models = acceptance.CATALYSIS_MATRIX + [("cocycle-z2z2", {"sites": 4})]
    for model, params in models:
        bundle = build_model(model, **params)
        for kind in catalyst_kinds(model):
            cat = build_catalyst(bundle, kind)
            yield bundle, cat
            if cat.engine == "stabilizer" and not cat.mixed:
                yield bundle, as_dense(cat)
        n = bundle.n
        if bundle.qudit_symmetry is not None:
            group = bundle.qudit_symmetry.group
            # Site 0 carries the character (-1)^{h_0}; the other sites are uniform.
            charge = [(-1) ** h[0] for h in group.elements()]
            charged = np.kron(np.ones(group.order ** (n - 1)), charge)
            for name, state in (
                ("zero", DenseState.computational(group.order, n)),
                ("charged", DenseState.from_amplitudes(group.order, n, charged)),
            ):
                yield bundle, Catalyst(name, "dense", False, dense_state=state)
            continue
        minus_first = [PauliOperator.x_at(n, i).with_sign(-1 if i == 0 else 1) for i in range(n)]
        for name, stab in (
            ("zero", StabilizerMixture.zero_state(n)),
            ("plus", StabilizerMixture.plus_state(n)),
            ("minus-first", StabilizerMixture.from_generators(n, minus_first)),
        ):
            cat = Catalyst(name, "stabilizer", False, stab=stab)
            yield bundle, cat
            yield bundle, as_dense(cat)
        if model == "lieb-2d":
            yield bundle, replace(build_catalyst(bundle, "toric-code"), broken=())


def test_symmetry_defect_matches_the_loops_it_replaced():
    seen = set()
    for bundle, cat in contract_cases():
        build_check = (
            reference_build_check_stab
            if cat.engine == "stabilizer"
            else reference_build_check_dense
        )
        expected = {False: build_check(bundle, cat), True: reference_first_asymmetry(bundle, cat)}
        for weak_only in (False, True):
            assert symmetry_defect(bundle, cat, weak_only) == expected[weak_only], (
                bundle.name, cat.name, cat.engine, weak_only
            )
            seen.add(expected[weak_only] is None)
    # Both outcomes occur, so neither side can pass by always agreeing on one.
    assert seen == {True, False}


def test_dense_weak_under_generators_are_checked_weakly():
    # The dense build check skipped `weak_under` generators; the contract
    # checks them weakly on both engines.  |0...0> has <X...X> = 0 on a
    # sublattice, so it is not even weakly symmetric there.
    bundle = build_model("cluster-1d", n=8)
    zero = StabilizerMixture.zero_state(8)
    cat = Catalyst("zero", "stabilizer", False, stab=zero, weak_under=("x-even",))
    assert symmetry_defect(bundle, cat, weak_only=False) == "x-even"
    assert symmetry_defect(bundle, as_dense(cat), weak_only=False) == "x-even"
