"""Differential tests: the light-cone, gate-image, int-level and
cached-basis fast paths against plain reference forms of the same
computation, compared exactly; circuit conjugation through the proven
tableau against the light-cone walk that builds it, the tensor
product's basis against the column-sweep elimination, the pivot-dict
elimination against that sweep by its stated contract on every input, and
strong localization on masked rows against the transposed solve it replaced,
and weak localization's column read against the row solve it replaced;
and the dense oracle's entangler action, doubled-circuit check and
fidelity; the Gram rows on the columns their bits touch against one
register-wide column list; the Gram-matrix tableau and generator
checks and the masked symmetric-gate audit against the basis-pair, pairwise
and restrict-and-conjugate loops they replaced; the dense gate runner against the
per-gate contraction loop it replaced, on criterion 2's and the cocycle
chain's circuits, on random Clifford circuits and on runs of phase gates
multiplied in blocks; criterion 2's basis-label
images against that loop's per-column action, and its label-and-sign
comparison against the full-matrix one, and its per-gate label comparison
against the embedded matrix products; one gate conjugated through a
Clifford's tableau against the doubled compile's proven single-site
shortcut, the pipeline's PauliOperator conjugation and U (x) U^-1 applied
register by register; dense gates read from the tableau
against the per-column projected builder, each cached one against its
uncached build, the stabilizer vector's start, read off the reduced rows,
against the basis-state search it replaced, and the stabilizer density as
row permutations against the product of dense projectors; the i < j
commutation loop of `SymmetryRep` against the ordered-pair loop; the dense symmetric-gate
audit by index against the kron audit it replaced; and index-placed Hamiltonian assembly against
the kron embedding; the cocycle chain's v-terms and Hamiltonians against the
gate-conjugation loops `CocycleCircuit.conjugate_term` replaced; and the
measurement protocol's sign-family template against the mirrored-mask
template it replaced, the per-sample loop, sequential projections and the
dense projectors, and sign-family steps against the projection they
replaced; projection, measurement and single-gate evolution,
none re-validated, against `validate()` and the dense update; the one
catalyst symmetry contract against the
three loops it replaced; and the ground-state solve by symmetry-character
block, built from the terms with the translation as a generator, against
one full eigensolve of the whole space."""
import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catalab.acceptance as acceptance
import catalab.dense as dense
import catalab.gf2 as gf2
from catalab.acceptance import (
    CATALYSIS_MATRIX,
    _basis_images,
    _doubled_operator_equality_dense,
    _qca_images,
)
from catalab.dense import (
    DenseOperator,
    DenseState,
    _restrict_pauli,
    apply_gates,
    apply_matrix,
    apply_pauli,
    apply_site_relabel,
    dense_fidelity,
    embed_operator,
    gate_term,
    gate_unitary,
    ground_state,
    overlap,
    pauli_basis_map,
    pauli_matrix,
    qca_dense_action,
    relabel_basis_map,
    stabilizer_density,
    stabilizer_to_dense,
)
from catalab.cohomology import CocycleCircuit
from catalab.gf2 import span_basis, span_combination
from catalab.models import (
    Catalyst,
    RingLattice,
    SymmetryGenerator,
    SymmetryRep,
    _independent_subset,
    build_catalyst,
    build_hamiltonian,
    build_model,
    catalyst_is_dense,
    catalyst_kinds,
    cz_ring_circuit,
    symmetry_defect,
)
from catalab.pauli import PauliOperator, SiteSet
from catalab.protocols import _measurement_template, measurement_prepare_catalyst
from catalab.stabilizer import (
    CliffordCircuit,
    CliffordGate,
    PermutationQca,
    SignFamily,
    StabilizerMixture,
    UnsupportedCaseError,
    ZeroProjectionError,
    _gram,
    _image,
    cnot_gate,
    conjugated_gate,
    cz_gate,
    fidelity,
    h_gate,
    is_invariant,
    pack_gates_into_layers,
    s_gate,
    swap_gate,
    tableau_gate,
)
from catalab.verify import (
    _split_endpoint_operator,
    _truncation,
    audit_dense_gate_symmetric,
    audit_gate_symmetric,
    build_doubled_diagonal,
    build_doubled_fdqc,
    strong_localization,
    weak_localization,
)

from named_gates import ROWS, images as gate_images, sdg_gate, x_gate, y_gate, z_gate

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


def rows_of(images):
    """A gate's integer rows for a table of PauliOperator image pairs."""
    return {a: tuple((p.x, p.z, p.phase) for p in pair) for a, pair in images.items()}


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


# ---------------------------------------------------------------------------
# tableau circuit conjugation against the light-cone walk
# ---------------------------------------------------------------------------


def reference_circuit_conjugate(circuit, p):
    """The light-cone walk: in each layer only the gates touching the
    operator's current support act, each through its images."""
    x, z, phase = p.x, p.z, p.phase
    for layer in circuit.layers:
        at = {a: g for g in layer for a in g.support}
        todo = x | z
        while todo:
            low = todo & -todo
            gate = at.get(low.bit_length() - 1)
            if gate is None:
                todo ^= low
                continue
            mask = gate._mask
            ix, iz, iphase = _image(gate.rows, x & mask, z & mask)
            x, z, phase = ix | (x & ~mask), iz | (z & ~mask), phase + iphase
            todo &= ~mask
    return PauliOperator(circuit.n, x, z, phase)


def assert_tableau_matches_walk(rng, circuit, extra=8):
    """Single-site X and Z on every site and random operators, each with all
    four phases, forward and backward."""
    n = circuit.n
    ops = [q(n, a) for a in range(n) for q in (PauliOperator.x_at, PauliOperator.z_at)]
    ops += [random_pauli(rng, n) for _ in range(extra)]
    for op in ops:
        for phase in range(4):
            p = PauliOperator(n, op.x, op.z, phase)
            assert circuit.conjugate(p) == reference_circuit_conjugate(circuit, p)
            assert circuit.conjugate_inverse(p) == reference_circuit_conjugate(circuit.inverse(), p)


def packed_doubled_gates(bundle):
    """The doubled compile's gates in temporal order, packed into a circuit
    whose tableau is walked: the swap layer, then the v-gates."""
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    return pack_gates_into_layers(doubled.n, doubled.gates)


@pytest.mark.parametrize("model, params", CATALYSIS_MATRIX + [("cluster-1d", {"n": 6})])
def test_tableau_conjugation_matches_walk_on_registry_circuits(model, params):
    rng = np.random.default_rng(19)
    bundle = build_model(model, **params)
    circuits = [packed_doubled_gates(bundle)]
    if isinstance(bundle.entangler, CliffordCircuit):
        circuits += [bundle.entangler, bundle.entangler.inverse()]
    for circuit in circuits:
        assert_tableau_matches_walk(rng, circuit)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), num_gates=st.integers(0, 16), seed=SEEDS)
def test_tableau_conjugation_matches_walk_on_random_circuits(n, num_gates, seed):
    rng = np.random.default_rng(seed)
    assert_tableau_matches_walk(rng, random_circuit(rng, n, num_gates))


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
# gate conjugation on ints against the image-product loop
# ---------------------------------------------------------------------------


def reference_gate_conjugate(gate, p):
    """Multiply the site images into a Pauli object, in site order with X
    before Z, starting from p's phase; then multiply in the untouched rest."""
    acc = PauliOperator(gate.n, 0, 0, p.phase)
    touched = 0
    for a in gate.support:
        bit = 1 << a
        if p.x & bit:
            acc = acc * gate_images(gate)[a][0]
        if p.z & bit:
            acc = acc * gate_images(gate)[a][1]
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
        assert gate.conjugate(p) == reference_gate_conjugate(gate, p)


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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=SEEDS)
def test_image_kernel_matches_ordered_image_product(n, seed):
    # The bit-loop kernel on a gate's integer rows against the product of
    # its `images` objects in site order, X before Z, signs included: a
    # random proven tableau gate on up to 4 sites and every named kind.
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(4, n) + 1))
    sites = [int(a) for a in rng.choice(n, size=size, replace=False)]
    gates = [random_tableau_gate(rng, n, sites)] + [make(n, sites[0]) for make in ONE_SITE]
    if size > 1:
        gates += [make(n, sites[0], sites[1]) for make in TWO_SITE]
    for gate in gates:
        for _ in range(8):
            x, z = (int(rng.integers(0, 1 << n)) & gate._mask for _ in range(2))
            want = reference_gate_conjugate(gate, PauliOperator(n, x, z, 0))
            assert _image(gate.rows, x, z) == (want.x, want.z, want.phase), gate


@pytest.mark.parametrize("make", ONE_SITE + TWO_SITE, ids=lambda f: f.__name__)
def test_named_kinds_take_the_tableau_proof(make):
    # A named kind's rows, corrupted as `corrupted_images` does, are refused
    # with the message `tableau_gate` gives for the same images.
    rng = np.random.default_rng(23)
    n = 4
    gate = make(n, *((2,) if make in ONE_SITE else (3, 1)))
    for _ in range(6):
        for name, case, refused in corrupted_images(rng, n, gate_images(gate)):
            got = validation_error(lambda: CliffordGate(gate.kind, n, gate.support, rows_of(case)))
            assert got == validation_error(lambda: tableau_gate(n, case)), name
            assert (got is not None) == refused, name


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
    # Two TABLEAU gates on one support, acting differently: gates compare
    # by identity, so they are not equal.
    n = 3
    a = tableau_of(n, [0, 2], [h_gate(n, 0), cnot_gate(n, 0, 2)])
    b = tableau_of(n, [0, 2], [s_gate(n, 2), cz_gate(n, 0, 2)])
    assert a != b
    rng = np.random.default_rng(11)
    patterns = list(support_patterns(rng, a))
    for p in patterns:
        assert a.conjugate(p) == reference_gate_conjugate(a, p)
        assert b.conjugate(p) == reference_gate_conjugate(b, p)
    assert any(a.conjugate(p) != b.conjugate(p) for p in patterns)


# ---------------------------------------------------------------------------
# inverses by symplectic duality against the paths they replaced
# ---------------------------------------------------------------------------


def reference_invert_gate(gate):
    """The per-gate search `_dual` replaced: each preimage candidate is read
    off the images' symplectic products as PauliOperator objects, then one
    forward conjugation picks its sign."""
    images = gate_images(gate)

    def preimage(target):
        x = z = 0
        for b in gate.support:
            img_x, img_z = images[b]
            x |= target.symplectic_product(img_z) << b
            z |= target.symplectic_product(img_x) << b
        cand = PauliOperator(gate.n, x, z, (x & z).bit_count() % 4)
        forward = gate.conjugate(cand)
        if forward == target:
            return cand
        if forward == target.negate():
            return cand.negate()
        raise AssertionError("inverse candidate does not conjugate back")

    return tableau_gate(gate.n, {
        a: (preimage(PauliOperator.x_at(gate.n, a)), preimage(PauliOperator.z_at(gate.n, a)))
        for a in gate.support
    })


def reference_inverse_circuit(circuit):
    """The inverse circuit rebuilt gate by gate, in reverse order, from the
    reference gate inverses."""
    return CliffordCircuit(circuit.n, tuple(
        tuple(reference_invert_gate(g) for g in reversed(layer))
        for layer in reversed(circuit.layers)
    ))


def walked_tableau(circuit):
    """The images of every X_a and Z_a, walked through the circuit's light cone."""
    n = circuit.n
    basis = [(PauliOperator.x_at(n, a), PauliOperator.z_at(n, a)) for a in range(n)]
    walked = [[reference_circuit_conjugate(circuit, q) for q in pair] for pair in basis]
    return tuple(tuple((img.x, img.z, img.phase) for img in pair) for pair in walked)


def reference_permute(p, perm):
    """The site relabelling `PauliOperator.permute` did: bit i moves to
    perm[i], the phase is kept."""
    lookup = perm if isinstance(perm, dict) else dict(enumerate(perm))
    x = z = 0
    for i in range(p.n):
        j = lookup.get(i, i)
        x |= ((p.x >> i) & 1) << j
        z |= ((p.z >> i) & 1) << j
    return PauliOperator(p.n, x, z, p.phase)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=SEEDS)
def test_gate_dual_matches_reference_inverse(n, seed):
    # A random proven tableau gate on up to 4 sites: its dual rows are the
    # reference inverse's, and inverse after forward fixes every X_a and
    # Z_a, signs included.
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(4, n) + 1))
    sites = [int(a) for a in rng.choice(n, size=size, replace=False)]
    gate = random_tableau_gate(rng, n, sites)
    inv = gate.inverse()
    assert inv.rows == reference_invert_gate(gate).rows
    for a in sites:
        for q in (PauliOperator.x_at(n, a), PauliOperator.z_at(n, a)):
            assert inv.conjugate(gate.conjugate(q)) == q
            assert gate.conjugate(inv.conjugate(q)) == q


@pytest.mark.parametrize("make", ONE_SITE + TWO_SITE, ids=lambda f: f.__name__)
def test_named_kind_duals(make):
    # S's inverse has SDG's literal rows and SDG's has S's; every other
    # kind is its own inverse, shown on its rows, and comes back as itself.
    n = 4
    gate = make(n, *((2,) if make in ONE_SITE else (3, 1)))
    inv = gate.inverse()
    assert inv.rows == reference_invert_gate(gate).rows
    if gate.kind == "S":
        assert inv.kind == "TABLEAU"
        assert inv.rows == {2: tuple((x << 2, z << 2, ph) for x, z, ph in ROWS["SDG"])}
    elif gate.kind == "SDG":
        assert inv.kind == "TABLEAU" and inv.rows == s_gate(n, 2).rows
    else:
        assert inv is gate


@pytest.mark.parametrize(
    "model, params",
    [
        ("cluster-1d", {"n": 8}),
        ("cluster-1d", {"n": 16}),
        ("lsm-dimer", {"n": 8}),
        ("lsm-dimer", {"n": 16}),
        ("lieb-2d", {"lx": 2, "ly": 2}),
        ("lieb-2d", {"lx": 3, "ly": 3}),
        ("square-sspt", {"l": 3}),
        ("square-sspt", {"l": 4}),
    ],
)
def test_doubled_tableau_evolution_matches_the_walked_gates(model, params):
    # A report evolves by U (x) U^-1's tableau, read off U's and its dual;
    # the packed v- and s-gates, walked, give the same table and the same
    # generators, signs included, on every registry stabilizer catalyst.
    bundle = build_model(model, **params)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    circuit = packed_doubled_gates(bundle)
    assert doubled._tableau == circuit._tableau
    kinds = [k for k in catalyst_kinds(model) if not catalyst_is_dense(model, k)]
    assert kinds
    for kind in kinds:
        state = bundle.trivial.tensor(build_catalyst(bundle, kind).stab)
        evolved = doubled.apply_stab(state).generators
        assert evolved == state.apply_circuit(circuit).generators, kind


@pytest.mark.parametrize("model, params", CATALYSIS_MATRIX + [("cluster-1d", {"n": 6})])
def test_circuit_dual_matches_walked_inverse(model, params):
    # The dual of each registry entangler's tableau, and of its doubled
    # circuit's, is the tableau walked through the rebuilt inverse circuit.
    bundle = build_model(model, **params)
    circuits = [packed_doubled_gates(bundle)]
    if isinstance(bundle.entangler, CliffordCircuit):
        circuits.append(bundle.entangler)
    for circuit in circuits:
        walked = walked_tableau(reference_inverse_circuit(circuit))
        assert circuit._inverse_tableau == walked
        assert walked_tableau(circuit.inverse()) == walked


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), seed=SEEDS)
def test_permutation_conjugation_matches_reference_permute(n, seed):
    rng = np.random.default_rng(seed)
    qca = PermutationQca([int(p) for p in rng.permutation(n)])
    for _ in range(8):
        p = random_pauli(rng, n)
        assert qca.conjugate(p) == reference_permute(p, qca.perm)
        assert qca.conjugate_inverse(p) == reference_permute(p, qca.perm_inv)
    assert qca._inverse_tableau == qca.inverse()._tableau


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
                swapped = reference_permute(inner, {i: n + i, n + i: i})
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
            assert gate_images(gate)[a] == images[a]
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


@pytest.mark.parametrize(
    "model, params",
    [
        ("cluster-1d", {"n": 64}),
        ("lieb-2d", {"lx": 6, "ly": 6}),
        ("lsm-dimer", {"n": 64}),
        ("square-sspt", {"l": 4}),
    ],
)
def test_doubled_compile_builds_no_pauli_operator(monkeypatch, model, params):
    # U's and U^-1's site images, the locality check and every gate's rows
    # are ints, for circuits and permutations alike.
    bundle = build_model(model, **params)
    built = []
    inner = PauliOperator.__post_init__

    def counting(self):
        built.append(self)
        inner(self)

    monkeypatch.setattr(PauliOperator, "__post_init__", counting)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    assert len(doubled.v_gates) == len(doubled.s_gates) == bundle.n
    assert built == []


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), seed=SEEDS)
def test_doubled_compile_matches_reference_on_random_ring_circuits(n, seed):
    qca = random_ring_circuit(np.random.default_rng(seed), n)
    assert_doubled_matches_reference(qca, n, RingLattice(n))


# ---------------------------------------------------------------------------
# one gate conjugated through a Clifford's tableau (`conjugated_gate`) against
# the three paths it replaced: the doubled compile's single-site shortcut
# with its per-gate proof, the four-step pipeline's PauliOperator
# conjugation, and U (x) U^-1 applied register by register
# ---------------------------------------------------------------------------


def _reach(pair):
    """The sites, ascending, that a site's (X image, Z image) pair acts on."""
    (xx, xz, _), (zx, zz, _) = pair
    bits = xx | xz | zx | zz
    return [c for c in range(bits.bit_length()) if bits >> c & 1]


def reference_padded_conjugated_gate(gate, qca):
    """U g U^dagger read through U's tableau and its dual padded with
    identity rows to the gate's register, one table lookup per bit: the
    form `conjugated_gate` replaced by its pass-through past qca.n."""
    n, width = gate.n, qca.n
    fixed = tuple(((1 << c, 0, 0), (0, 1 << c, 0)) for c in range(width, n))
    tableau, dual = qca._tableau + fixed, qca._inverse_tableau + fixed
    reach = 0
    for a in gate.support:
        (xx, xz, _), (zx, zz, _) = tableau[a]
        reach |= xx | xz | zx | zz
    own, mask = gate.rows, gate._mask
    rows = {}
    while reach:
        low = reach & -reach
        reach ^= low
        c = low.bit_length() - 1
        pair = []
        for qx, qz, qphase in dual[c]:
            gx, gz, gphase = _image(own, qx & mask, qz & mask)
            x, z, phase = _image(tableau, gx | (qx & ~mask), gz | (qz & ~mask))
            pair.append((x, z, (qphase + gphase + phase) & 3))
        rows[c] = tuple(pair)
    return CliffordGate("TABLEAU", n, SiteSet(rows), rows)


def reference_prove_v_gates(forward, backward, v_gates):
    """Raise ValueError, naming the first wrong image, unless v_gates[i] is
    (U (x) 1) s_i (U^-1 (x) 1) for each i: U^dagger P_a U = i^k R S splits
    into its site-i factor S and the rest R, so v_i sends P_a to
    i^k (U R U^dagger) S_{n+i} and P_{n+i} to U P_i U^dagger, and fixes
    every other site."""
    n = len(forward)
    for a, pair in enumerate(backward):
        for i in _reach(pair):
            if a not in v_gates[i].rows:
                raise ValueError(f"v-gate {i} misses site {a}, whose U^-1 image reaches site {i}")
    for i, gate in enumerate(v_gates):
        m, b = 1 << i, n + i
        for c, got in gate.rows.items():
            if c < n:
                want = []
                for qx, qz, qphase in backward[c]:
                    rx, rz, rphase = _image(forward, qx & ~m, qz & ~m)
                    want.append((rx | (qx >> i & 1) << b, rz | (qz >> i & 1) << b, qphase + rphase & 3))
            else:
                want = forward[i] if c == b else ((1 << c, 0, 0), (0, 1 << c, 0))
            for name, g, w in zip("XZ", got, want):
                if g != w:
                    raise ValueError(f"v-gate {i} maps {name}_{c} to {g}, not {w}")


def reference_shortcut_compile(qca, n):
    """The v-gates from single-site images: write U^dagger P_a U = R S with
    S the phase-free site-i factor; the swap moves S to site n+i and U maps
    R to P_a (U S U^dagger)^dagger, and P_{n+i} maps to U P_i U^dagger.
    Each gate is then proven against its definition."""
    forward, backward = qca._tableau, qca._inverse_tableau
    touching = [[] for _ in range(n)]
    for a, pair in enumerate(backward):
        for i in _reach(pair):
            touching[i].append(a)
    v_gates = []
    for i in range(n):
        b = n + i
        rows = {}
        for a in touching[i]:
            pair = []
            for px, pz, (qx, qz, _) in ((1 << a, 0, backward[a][0]), (0, 1 << a, backward[a][1])):
                sx, sz = (qx >> i) & 1, (qz >> i) & 1
                ux, uz, uphase = _image(forward, sx << i, sz << i)
                phase = (2 * (ux & uz).bit_count() - uphase) & 3
                pair.append(((px ^ ux) | sx << b, (pz ^ uz) | sz << b, phase))
            rows[a] = tuple(pair)
        rows[b] = forward[i]
        v_gates.append(CliffordGate("TABLEAU", 2 * n, SiteSet(rows), rows))
    reference_prove_v_gates(forward, backward, v_gates)
    return v_gates


def reference_conjugate_gate_by_qca(gate, qca):
    """U g U^dagger from PauliOperator conjugations, on the gate's own sites
    and every site U's images of them reach."""
    n = gate.n
    support = set(gate.support)
    for s in gate.support:
        for p in (PauliOperator.x_at(n, s), PauliOperator.z_at(n, s)):
            support.update(qca.conjugate(p).support())
    images = {}
    for a in sorted(support):
        pair = [
            qca.conjugate(gate.conjugate(qca.conjugate_inverse(p)))
            for p in (PauliOperator.x_at(n, a), PauliOperator.z_at(n, a))
        ]
        images[a] = (pair[0], pair[1])
    return tableau_gate(n, images)


def reference_doubled_conjugate(qca, n, p):
    """Conjugation by U (x) U^-1 on a 2n-qubit operator, register by register."""
    mask = (1 << n) - 1
    img_a = qca.conjugate(PauliOperator(n, p.x & mask, p.z & mask, 0))
    img_b = qca.conjugate_inverse(PauliOperator(n, p.x >> n, p.z >> n, 0))
    return PauliOperator(
        2 * n, img_a.x | (img_b.x << n), img_a.z | (img_b.z << n), p.phase + img_a.phase + img_b.phase
    )


@pytest.mark.parametrize(
    "model, params",
    CATALYSIS_MATRIX
    + [("cluster-1d", {"n": 128}), ("lieb-2d", {"lx": 6, "ly": 6}), ("square-sspt", {"l": 8})],
)
def test_doubled_compile_matches_the_proven_shortcut(model, params):
    # The gates, their rows in order and their names are the shortcut's,
    # and the table a report evolves by is U (x) U^-1's, register by register.
    bundle = build_model(model, **params)
    n, qca = bundle.n, bundle.entangler
    doubled = build_doubled_fdqc(qca, n, bundle.lattice)
    reference = reference_shortcut_compile(qca, n)
    assert [repr(g) for g in doubled.v_gates] == [repr(g) for g in reference]
    assert [list(g.rows.items()) for g in doubled.v_gates] == [list(g.rows.items()) for g in reference]
    assert [g.kind for g in doubled.v_gates] == ["TABLEAU"] * n

    def row(p):
        img = reference_doubled_conjugate(qca, n, p)
        return img.x, img.z, img.phase

    n2 = 2 * n
    assert doubled._tableau == tuple(
        (row(PauliOperator.x_at(n2, a)), row(PauliOperator.z_at(n2, a))) for a in range(n2)
    )


def reached_sites(qca, gate):
    """The sites U's images of the gate's sites act on."""
    n = gate.n
    sites = set()
    for s in gate.support:
        for p in (PauliOperator.x_at(n, s), PauliOperator.z_at(n, s)):
            sites.update(qca.conjugate(p).support())
    return sites


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=SEEDS, permutation=st.booleans())
def test_conjugated_gate_matches_pauli_object_conjugation(n, seed, permutation):
    rng = np.random.default_rng(seed)
    if permutation:
        qca = PermutationQca([int(p) for p in rng.permutation(n)])
    else:
        qca = random_ring_circuit(rng, n)
    size = int(rng.integers(1, min(3, n) + 1))
    gate = random_tableau_gate(rng, n, [int(a) for a in rng.choice(n, size=size, replace=False)])
    got = conjugated_gate(gate, qca)
    want = reference_conjugate_gate_by_qca(gate, qca)
    assert set(got.support) == reached_sites(qca, gate)
    for a in range(n):
        for p in (PauliOperator.x_at(n, a), PauliOperator.z_at(n, a)):
            assert got.conjugate(p) == want.conjugate(p)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=SEEDS, permutation=st.booleans())
def test_conjugated_gate_on_two_registers_matches_the_padded_table(n, seed, permutation):
    # A gate on 2n sites, through a handle on the first n: the rows, in
    # order, are those of U's tables padded with identity rows.
    rng = np.random.default_rng(seed)
    if permutation:
        qca = PermutationQca([int(p) for p in rng.permutation(n)])
    else:
        qca = random_ring_circuit(rng, n)
    size = int(rng.integers(1, 4))
    sites = [int(a) for a in rng.choice(2 * n, size=size, replace=False)]
    for gate in (random_tableau_gate(rng, 2 * n, sites), swap_gate(2 * n, sites[0], n + sites[0] % n)):
        got, want = conjugated_gate(gate, qca), reference_padded_conjugated_gate(gate, qca)
        assert list(got.rows.items()) == list(want.rows.items())


def test_conjugated_gate_refuses_a_wider_handle_and_fixes_past_a_narrower_one():
    qca = cz_ring_circuit(6)
    with pytest.raises(ValueError, match="^the conjugating handle is wider than the gate register$"):
        conjugated_gate(swap_gate(4, 0, 1), qca)
    # On 8 sites the handle acts on [0, 6): sites 6 and 7 pass through.
    assert conjugated_gate(swap_gate(8, 6, 7), qca).rows == swap_gate(8, 6, 7).rows
    got = conjugated_gate(swap_gate(8, 0, 7), qca)
    assert tuple(got.support) == (0, 1, 5, 7)
    assert list(got.rows.items()) == list(reference_padded_conjugated_gate(swap_gate(8, 0, 7), qca).rows.items())


# ---------------------------------------------------------------------------
# the int-level checks on the compile, audit and evolve path against the
# object loops they replaced: tableau images, generator commutation and the
# symmetric-gate audit, on registry and random inputs and corruptions of them
# ---------------------------------------------------------------------------


def reference_validate_tableau_images(n, support, images):
    """The basis-pair check: every pair of basis operators X_a, Z_a keeps
    its symplectic product under the images; escape read off the support."""
    for a in support:
        if a not in images:
            raise ValueError("tableau gate must give images for every support site")
        ix, iz = images[a]
        for img in (ix, iz):
            if img.n != n:
                raise ValueError("image register size mismatch")
            if not img.is_hermitian():
                raise ValueError("tableau images must be hermitian")
            if any(s not in support for s in img.support()):
                raise ValueError("tableau image escapes the gate support")
    basis = []
    for a in support:
        basis.append((PauliOperator.x_at(n, a), images[a][0]))
        basis.append((PauliOperator.z_at(n, a), images[a][1]))
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            src = basis[i][0].symplectic_product(basis[j][0])
            dst = basis[i][1].symplectic_product(basis[j][1])
            if src != dst:
                raise ValueError("tableau images do not preserve commutation")


def reference_audit(gate, symmetry):
    """Restrict each generator to the gate support as an object and
    conjugate it through the gate."""
    for gen in symmetry.generators:
        restricted = gen.pauli.restrict(gate.support)
        if (restricted.x or restricted.z) and gate.conjugate(restricted) != restricted:
            return False
    return True


def with_image(images, site, k, image):
    out = dict(images)
    pair = list(out[site])
    pair[k] = image
    out[site] = tuple(pair)
    return out


def corrupted_images(rng, n, images):
    """(name, images, whether the check must refuse them): the images, one
    flipped image phase (still a valid tableau), a non-hermitian image, two
    images with the wrong commutation and an image that escapes the support."""
    support = sorted(images)
    a = support[int(rng.integers(len(support)))]
    ix, iz = images[a]
    cases = [
        ("valid", images, False),
        ("flipped-phase", with_image(images, a, 0, ix.negate()), False),
        ("non-hermitian", with_image(images, a, 1, PauliOperator(n, iz.x, iz.z, iz.phase + 1)), True),
    ]
    others = [b for b in support if b != a]
    if others:
        # X images of two sites exchanged: X_b's image meets Z_a's.
        b = others[int(rng.integers(len(others)))]
        wrong = with_image(with_image(images, a, 0, images[b][0]), b, 0, ix)
    else:
        wrong = with_image(images, a, 0, iz)
    cases.append(("wrong-commutation", wrong, True))
    outside = [s for s in range(n) if s not in images]
    if outside:
        escaped = ix * PauliOperator.z_at(n, outside[int(rng.integers(len(outside)))])
        cases.append(("escape", with_image(images, a, 0, escaped), True))
    return cases


def assert_tableau_check_matches_basis_pairs(rng, n, images):
    for name, case, refused in corrupted_images(rng, n, images):
        got = validation_error(lambda: tableau_gate(n, case))
        want = validation_error(lambda: reference_validate_tableau_images(n, sorted(case), case))
        assert got == want, name
        assert (got is not None) == refused, name


def corrupted_generators(rng, state):
    """(generators, a word of the refusal or None): the state's own, one
    negated (still valid), one made non-hermitian, one dependent extra, and
    one multiplied by a site Pauli that anticommutes with another generator
    at that site."""
    gens, n = list(state.generators), state.n
    if not gens:
        return [((), None)]
    j = int(rng.integers(len(gens)))
    g = gens[j]
    cases = [
        (gens, None),
        (gens[:j] + [g.negate()] + gens[j + 1 :], None),
        (gens[:j] + [PauliOperator(n, g.x, g.z, g.phase + 1)] + gens[j + 1 :], "hermitian"),
        (gens + [state._combine(int(rng.integers(1, 1 << min(len(gens), 62))))], "independent"),
    ]
    if len(gens) > 1:
        i = (j + 1 + int(rng.integers(len(gens) - 1))) % len(gens)
        site = int(rng.choice(list(gens[i].support())))
        flip = PauliOperator.z_at(n, site) if gens[i].x >> site & 1 else PauliOperator.x_at(n, site)
        cases.append((gens[:j] + [hermitian(g * flip)] + gens[j + 1 :], "anticommute"))
    return [(tuple(c), word) for c, word in cases]


def assert_validate_matches_pairwise_loop(rng, state):
    for gens, word in corrupted_generators(rng, state):
        candidate = StabilizerMixture(state.n, gens)
        # The message names the first anticommuting pair, so equal messages
        # mean the same pair.
        got = validation_error(candidate.validate)
        assert got == validation_error(lambda: reference_validate(candidate))
        assert got is None if word is None else word in got


def doubled_states(bundle, catalyst, doubled):
    start = bundle.trivial.tensor(catalyst.stab)
    return [bundle.trivial, bundle.target, catalyst.stab, start, doubled.apply_stab(start)]


@pytest.mark.parametrize("model, params", CATALYSIS_MATRIX + [("cluster-1d", {"n": 6})])
def test_int_level_checks_match_object_loops_on_registry(model, params):
    rng = np.random.default_rng(17)
    bundle = build_model(model, **params)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    gates = list(doubled.gates)
    if isinstance(bundle.entangler, CliffordCircuit):
        gates += [g for layer in bundle.entangler.layers for g in layer]
    for gate in gates:
        assert_tableau_check_matches_basis_pairs(rng, gate.n, gate_images(gate))
    dsym = bundle.symmetry.doubled()
    verdicts = set()
    for gate in doubled.gates:
        for audited in (gate, _negate_one_image(gate)):
            got = audit_gate_symmetric(audited, dsym)
            assert got == reference_audit(audited, dsym)
            verdicts.add(got)
    # Every compiled gate passes; a negated image flips some generator's
    # image by a sign only, and that gate fails.
    assert verdicts == {True, False}
    for kind in catalyst_kinds(model):
        if not catalyst_is_dense(model, kind):
            catalyst = build_catalyst(bundle, kind)
            for state in doubled_states(bundle, catalyst, doubled):
                assert_validate_matches_pairwise_loop(rng, state)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=SEEDS)
def test_int_level_checks_match_object_loops_on_random_inputs(n, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(3, n) + 1))
    sites = [int(a) for a in rng.choice(n, size=size, replace=False)]
    gate = random_tableau_gate(rng, n, sites)
    assert_tableau_check_matches_basis_pairs(rng, n, gate_images(gate))
    assert_tableau_check_matches_basis_pairs(rng, n, gate_images(random_named_gate(rng, n, sites)))
    state = random_mixture(rng, n)
    assert_validate_matches_pairwise_loop(rng, state)
    # A random state's commuting generators as the symmetry, audited on the
    # gate and on the gate with one image negated.
    symmetry = SymmetryRep(
        n, tuple(SymmetryGenerator(f"g{k}", g, "0-form") for k, g in enumerate(state.generators))
    )
    for audited in (gate, _negate_one_image(gate)):
        assert audit_gate_symmetric(audited, symmetry) == reference_audit(audited, symmetry)


def reference_gram(n, packed):
    """The Gram rows with one column list over the whole register, allocated
    per call: the form `_gram` replaced by columns kept only for the bits touched."""
    cols = [0] * (2 * n)
    rows = []
    bit = 1
    for bits in packed:
        row = 0
        while bits:
            low = bits & -bits
            c = low.bit_length() - 1
            row ^= cols[c - n]
            cols[c] |= bit
            bits ^= low
        rows.append(row & (bit - 1))
        bit <<= 1
    return rows


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 64),
    supports=st.lists(st.sets(st.integers(0, 127), max_size=6), max_size=12),
)
def test_gram_matches_register_wide_columns(n, supports):
    packed = [sum(1 << c for c in bits if c < 2 * n) for bits in supports]
    assert _gram(n, packed) == reference_gram(n, packed)


def reference_symmetry_rep_check(generators):
    """The loop over all ordered pairs that `SymmetryRep` narrows to i < j."""
    for a in generators:
        for b in generators:
            if not a.pauli.commutes(b.pauli):
                raise ValueError(f"symmetry generators {a.name}, {b.name} anticommute")


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), k=st.integers(0, 6), seed=SEEDS)
def test_symmetry_rep_names_the_pair_the_ordered_loop_named(n, k, seed):
    rng = np.random.default_rng(seed)
    # Mostly commuting: generators of a random mixture, with random strings mixed in.
    pool = list(random_mixture(rng, n).generators) + [hermitian(random_pauli(rng, n)) for _ in range(2)]
    gens = tuple(
        SymmetryGenerator(f"g{j}", pool[int(rng.integers(len(pool)))], "0-form") for j in range(k)
    )
    want = validation_error(lambda: reference_symmetry_rep_check(gens))
    assert validation_error(lambda: SymmetryRep(n, gens)) == want


def test_audit_of_a_generator_on_another_register_raises_as_before():
    gate = cz_gate(4, 0, 1)
    symmetry = SymmetryRep(5, (SymmetryGenerator("x", PauliOperator.x_at(5, 1, 4), "0-form"),))
    assert validation_error(lambda: audit_gate_symmetric(gate, symmetry)) == validation_error(
        lambda: reference_audit(gate, symmetry)
    )
    assert validation_error(lambda: audit_gate_symmetric(gate, symmetry)) is not None


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
    images = dict(gate_images(gate))
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
        assert details["err"] == reference_full_matrix_maxerr(bundle, corrupted)


CRITERION_2_DENSE = [
    ("lsm-dimer", {"n": 4}),
    ("cluster-1d", {"n": 4}),
    ("cluster-1d", {"n": 6}),
    ("square-sspt", {"l": 2}),
]


def reference_support_first(sites, support):
    """Axis permutation that brings the support to the front, and its inverse.

    Local matrices index support[0] as the least-significant digit, so the
    highest support site leads; the other axes keep their order."""
    axes = [sites - 1 - s for s in reversed(support)]
    perm = tuple(axes + [a for a in range(sites) if a not in axes])
    inverse = [0] * sites
    for i, a in enumerate(perm):
        inverse[a] = i
    return perm, tuple(inverse)


def reference_apply_matrix(state, matrix, support):
    """The per-gate contraction `apply_gates` replaced: the support's axes
    moved to the front, one matrix product, and the axes moved back."""
    q, n = state.q, state.sites
    m = len(support)
    if matrix.shape != (q**m, q**m):
        raise ValueError("matrix shape does not match the support")
    perm, inverse = reference_support_first(n, tuple(support))
    moved = state.amps.reshape((q,) * n).transpose(perm)
    out = matrix @ moved.reshape(q**m, -1)
    out = out.reshape(moved.shape).transpose(inverse)
    return state._evolved(out.reshape(-1))


def reference_apply_gates(state, perm, terms):
    """The per-gate path `apply_gates` replaced: the site permutation as one
    transpose, one `reference_apply_matrix` contraction per (support, matrix)
    term in temporal order, then the norm check of a fresh `DenseState`."""
    q, n = state.q, state.sites
    axes = [0] * n
    for i, p in enumerate(perm):
        axes[n - 1 - p] = n - 1 - i
    state = DenseState(q, n, state.amps.reshape((q,) * n).transpose(axes).reshape(-1))
    for support, matrix in terms:
        state = reference_apply_matrix(state, matrix, support)
    return DenseState(q, n, state.amps)


def reference_qca_action(qca):
    """A QCA handle's dense action by the per-gate loop."""
    if isinstance(qca, PermutationQca):
        return lambda state: reference_apply_gates(state, qca.perm, ())
    terms = [(gate.support, gate_unitary(gate)) for layer in qca.layers for gate in layer]
    return lambda state: reference_apply_gates(state, range(qca.n), terms)


def reference_doubled_action(doubled):
    """The register swap, then the v-terms, by the per-gate loop."""
    n = doubled.n // 2
    perm = [*range(n, 2 * n), *range(n)]
    return lambda state: reference_apply_gates(state, perm, doubled.v_terms)


def reference_columns(act, sites):
    """Each computational basis column of a dense state map, one at a time."""
    for j in range(1 << sites):
        yield j, act(DenseState.computational(2, sites, j)).amps


def reference_doubled_maxerr(bundle, doubled):
    """The full-matrix check column by column: each basis state through the
    doubled circuit's per-gate dense action, against kron(U^-1 column, U column)."""
    n = bundle.n
    u = np.stack([c for _, c in reference_columns(reference_qca_action(bundle.entangler), n)], 1)
    inverse = reference_qca_action(bundle.entangler.inverse())
    u_inv = np.stack([c for _, c in reference_columns(inverse, n)], 1)
    worst = 0.0
    for idx, got in reference_columns(reference_doubled_action(doubled), 2 * n):
        expected = np.outer(u_inv[:, idx >> n], u[:, idx & ((1 << n) - 1)]).reshape(-1)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


def reference_qca_matrix(qca):
    """Dense matrix of a QCA handle on one register, from all basis images at once."""
    labels, signs = _qca_images(qca)
    matrix = np.zeros((1 << qca.n,) * 2)
    matrix[labels, np.arange(1 << qca.n)] = signs
    return matrix


def reference_full_matrix_maxerr(bundle, doubled):
    """The full-matrix check that label comparison replaced: kron(U^-1, U)
    minus the doubled circuit's signed permutation, entrywise, in blocks of
    64 columns.  Column idx of the reference is kron(U^-1 column idx >> n,
    U column idx mod 2^n)."""
    n, dim = bundle.n, 1 << (2 * bundle.n)
    u, u_inv = reference_qca_matrix(bundle.entangler), reference_qca_matrix(bundle.entangler.inverse())
    labels, signs = _basis_images(2 * n, [*range(n, 2 * n), *range(n)], doubled.v_terms)
    worst = 0.0
    for start in range(0, dim, 64):
        cols = np.arange(start, min(start + 64, dim))
        diff = (u_inv[:, None, cols >> n] * u[None, :, cols & ((1 << n) - 1)]).reshape(dim, -1)
        diff[labels[cols], np.arange(len(cols))] -= signs[cols]
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


@pytest.mark.parametrize("model, params", CRITERION_2_DENSE)
def test_basis_images_match_per_column_dense_action(model, params):
    bundle = build_model(model, **params)
    n = bundle.n
    for qca in (bundle.entangler, bundle.entangler.inverse()):
        matrix = reference_qca_matrix(qca)
        for j, column in reference_columns(reference_qca_action(qca), n):
            assert np.array_equal(matrix[:, j], column), j
    doubled = build_doubled_fdqc(bundle.entangler, n, bundle.lattice)
    labels, signs = _basis_images(2 * n, [*range(n, 2 * n), *range(n)], doubled.v_terms)
    for j, column in reference_columns(reference_doubled_action(doubled), 2 * n):
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


def reference_per_gate_dense_equality(bundle, doubled):
    """The per-gate check that label comparison replaced: each v-gate's
    matrix against L s_i L^-1 multiplied out as embedded 2^m matrices."""
    n = bundle.n
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    worst = 0.0
    if isinstance(bundle.entangler, PermutationQca):
        for sites, got in doubled.v_terms:
            expected = swap if len(sites) == 2 else np.eye(1 << len(sites), dtype=np.complex128)
            worst = max(worst, float(np.max(np.abs(got - expected))))
        return worst
    for i, (sites, got) in enumerate(doubled.v_terms):
        pos = {s: k for k, s in enumerate(sites)}
        m = len(sites)
        local = np.eye(1 << m, dtype=np.complex128)
        for layer in bundle.entangler.layers:
            for gate in layer:
                if i in gate.support:
                    mat = embed_operator(gate_unitary(gate), [pos[s] for s in gate.support], m, 2)
                    local = mat @ local
        expected = local @ embed_operator(swap, [pos[i], pos[n + i]], m, 2) @ local.conj().T
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


def with_first_v_term(doubled, edit):
    """The doubled circuit with its first v-term's matrix changed by edit."""
    (support, matrix), *rest = doubled.v_terms
    matrix = matrix.copy()
    edit(matrix)
    vars(doubled)["v_terms"] = ((support, matrix), *rest)
    return doubled


def flip_first_column_sign(matrix):
    matrix[np.flatnonzero(matrix[:, 0])[0], 0] *= -1


@pytest.mark.parametrize("model, params", CATALYSIS_MATRIX)
def test_per_gate_check_matches_the_matrix_products(model, params):
    # Label-and-sign comparison reads the matrix check's value: 0 on the
    # compile, 2 for one flipped sign.
    def both(doubled):
        got = acceptance._per_gate_dense_equality(bundle, doubled)
        return got, reference_per_gate_dense_equality(bundle, doubled)

    bundle = build_model(model, **params)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    assert both(doubled) == (0.0, 0.0)
    assert both(with_first_v_term(doubled, flip_first_column_sign)) == (2.0, 2.0)


def test_label_check_names_a_moved_basis_state_as_one():
    # An identity in place of a v-term moves no label where the term did.
    bundle = build_model("cluster-1d", n=4)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    (support, matrix), *rest = doubled.v_terms
    vars(doubled)["v_terms"] = ((support, np.eye(len(matrix))), *rest)
    details = {}
    assert not _doubled_operator_equality_dense(bundle, doubled, "err", details)
    assert details["err"] == 1.0 == reference_full_matrix_maxerr(bundle, doubled)


# ---------------------------------------------------------------------------
# dense Clifford gates read from the tableau against the per-column
# projected builder, and the stabilizer density as row permutations against
# the product of dense projectors
# ---------------------------------------------------------------------------


def reference_projected_basis_state(n, gens):
    """prod_g (1 + g)/2 applied to the first basis state it does not
    annihilate, renormalized after each factor; None when it annihilates all:
    the basis-state search that `dense._stabilizer_vector` replaced."""
    for start in range(1 << n):
        vec = DenseState.computational(2, n, start)
        for g in gens:
            projected = 0.5 * (vec.amps + apply_pauli(vec, g).amps)
            norm = np.linalg.norm(projected)
            if norm < 1e-9:
                break
            vec = DenseState(2, n, projected / norm)
        else:
            return vec
    return None


def reference_gate_unitary(gate):
    """The per-column builder `gate_unitary` replaced: column 0 projected from
    the first basis state the Z images' projectors keep, column x the X
    images of x's set bits applied to it one `apply_pauli` at a time, then
    the same phase pin and unitarity check."""
    support = list(gate.support)
    m = len(support)
    dim = 1 << m
    img_x = [_restrict_pauli(gate_images(gate)[a][0], tuple(support)) for a in support]
    img_z = [_restrict_pauli(gate_images(gate)[a][1], tuple(support)) for a in support]
    v0 = reference_projected_basis_state(m, img_z)
    if v0 is None:
        raise AssertionError("could not build the image of |0...0>")
    cols = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(dim):
        col = v0
        for a in range(m):
            if (x >> a) & 1:
                col = apply_pauli(col, img_x[a])
        cols[:, x] = col.amps
    tr = np.trace(cols)
    if abs(tr) > 1e-9:
        cols = cols * (tr.conjugate() / abs(tr))
    else:
        flat = cols.reshape(-1)
        pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
        cols = cols * (pivot.conjugate() / abs(pivot))
    if not np.allclose(cols @ cols.conj().T, np.eye(dim), atol=1e-9):
        raise AssertionError("gate reconstruction is not unitary")
    return cols


def registry_gates():
    """The doubled v-gates and entangler gates of criterion 2's dense models
    and of cluster-1d at n=10."""
    gates = []
    for model, params in CRITERION_2_DENSE + [("cluster-1d", {"n": 10})]:
        bundle = build_model(model, **params)
        doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
        gates += doubled.v_gates
        if not isinstance(bundle.entangler, PermutationQca):
            gates += [g for layer in bundle.entangler.layers for g in layer]
    return gates


def test_gate_unitary_matches_per_column_builder_on_registry_gates():
    gates = registry_gates()
    assert {g.kind for g in gates} >= {"CZ", "TABLEAU"}
    for gate in gates:
        assert np.array_equal(gate_unitary(gate), reference_gate_unitary(gate)), gate


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=SEEDS)
def test_gate_unitary_matches_per_column_builder_on_random_gates(n, seed):
    rng = np.random.default_rng(seed)
    sites = [int(a) for a in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
    named = [random_named_gate(rng, n, sites) for _ in range(int(rng.integers(1, 5)))]
    for gate in (*named, tableau_of(n, sites, named), random_tableau_gate(rng, n, sites)):
        got, want = gate_unitary(gate), reference_gate_unitary(gate)
        assert np.max(np.abs(got - want)) <= 1e-12
        exact = np.isin(want, [0, 1, -1, 1j, -1j])
        assert np.array_equal(got[exact], want[exact])


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns the record."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_criterion_2_projects_no_basis_state_and_applies_no_pauli(monkeypatch):
    # The only stabilizer vectors criterion 2 builds are the column 0 of the
    # local unitaries it builds: one per cache miss of `_local_unitary`.
    misses = dense._local_unitary.cache_info().misses
    projected = counted(monkeypatch, dense, "_stabilizer_vector")
    applied = counted(monkeypatch, dense, "apply_pauli")
    assert acceptance.criterion_2().passed
    built = dense._local_unitary.cache_info().misses - misses
    assert (len(projected), len(applied)) == (built, 0)


def test_gate_unitary_reads_each_image_once(monkeypatch):
    gates = registry_gates()
    maps = counted(monkeypatch, dense, "pauli_basis_map")
    for gate in gates:
        maps.clear()
        dense._local_unitary.cache_clear()
        gate_unitary(gate)
        assert len(maps) <= 2 * len(gate.support), gate


def test_cached_gate_unitary_equals_the_uncached_build(monkeypatch):
    gates = [
        gate
        for model in ("lsm-dimer", "cluster-1d", "lieb-2d", "square-sspt")
        if isinstance(entangler := build_model(model).entangler, CliffordCircuit)
        for layer in entangler.layers
        for gate in layer
    ]
    assert len(gates) >= 40
    for case in range(len(CRITERION_2_DENSE)):
        gates += criterion_2_doubled(case)[1].v_gates
    cached = [gate_unitary(gate) for gate in gates]
    monkeypatch.setattr(dense, "_local_unitary", dense._local_unitary.__wrapped__)
    for gate, got in zip(gates, cached):
        assert not got.flags.writeable
        assert np.array_equal(got, gate_unitary(gate)), gate


def test_gates_whose_images_differ_in_one_sign_do_not_share_a_unitary():
    gate = cz_gate(3, 0, 2)
    flipped = _negate_one_image(gate)
    dense._local_unitary.cache_clear()
    u, v = gate_unitary(gate), gate_unitary(flipped)
    assert dense._local_unitary.cache_info().currsize == 2
    assert np.array_equal(u, reference_gate_unitary(gate))
    assert np.array_equal(v, reference_gate_unitary(flipped))
    assert not np.allclose(u, v)


def test_criterion_2_builds_each_distinct_local_unitary_once(monkeypatch):
    # 125 gate_unitary calls; their images restricted to the support take
    # 10 distinct forms, on 2, 4 and 6 sites.
    dense._local_unitary.cache_clear()
    builds = counted(monkeypatch, dense, "_stabilizer_vector")
    assert acceptance.criterion_2().passed
    assert 1 <= len(builds) <= 10


X0, X1 = PauliOperator.x_at(2, 0), PauliOperator.x_at(2, 1)
Z0, Z1 = PauliOperator.z_at(2, 0), PauliOperator.z_at(2, 1)


def test_a_named_gate_with_an_escaping_image_is_refused():
    # An H on site 0 with the images (Z_1, X_0) would evolve |++> into the
    # anticommuting generators +IZ, +IX, an invalid state.
    with pytest.raises(ValueError, match="tableau image escapes the gate support"):
        CliffordGate("H", 2, (0,), rows_of({0: (Z1, X0)}))


@pytest.mark.parametrize(
    "images, message",
    [
        ({0: (X0, Z0), 1: (X1, Z0.negate())}, "the stabilizer group annihilates its least support element"),
        ({0: (Z0, X0), 1: (Z1, X0.negate())}, "the stabilizer group annihilates its least support element"),
        ({0: (X0, Z0), 1: (X0, Z1)}, "gate reconstruction is not unitary"),
    ],
    ids=["z0-and-minus-z0", "x0-and-minus-x0", "x0-twice"],
)
def test_inconsistent_image_tables_raise(images, message):
    # Every kind is proven when built, so these tables are put into a valid
    # gate's rows afterwards to reach the builder's own checks.
    gate = cz_gate(2, 0, 1)
    object.__setattr__(gate, "rows", rows_of(images))
    with pytest.raises(AssertionError, match=message):
        gate_unitary(gate)


# ---------------------------------------------------------------------------
# the stabilizer vector's start, read off the reduced rows, against the
# basis-state search it replaced
# ---------------------------------------------------------------------------


def three_qubit_stabilizer_states():
    """Every pure stabilizer state on 3 qubits: |000> closed under H, S and
    CNOT, each state kept once by its canonical generators."""
    gates = [make(3, a) for make in (h_gate, s_gate) for a in range(3)]
    gates += [cnot_gate(3, a, b) for a in range(3) for b in range(3) if a != b]
    frontier = [StabilizerMixture.zero_state(3)]
    seen = {frontier[0].canonical().generators: frontier[0]}
    while frontier:
        images = [state.apply_circuit(gate) for state in frontier for gate in gates]
        keyed = [(image.canonical().generators, image) for image in images]
        frontier = [seen.setdefault(key, image) for key, image in keyed if key not in seen]
    return list(seen.values())


def test_the_start_is_the_least_support_element_of_every_three_qubit_state(monkeypatch):
    states = three_qubit_stabilizer_states()
    assert len(states) == 1080
    starts = []
    build = DenseState.computational.__func__
    monkeypatch.setattr(
        DenseState,
        "computational",
        classmethod(lambda cls, q, sites, index=0: starts.append(index) or build(cls, q, sites, index)),
    )
    for state in states:
        starts.clear()
        amps = stabilizer_to_dense(state).amps
        least = int(np.flatnonzero(np.diag(reference_stabilizer_density(state)).real > 1e-9)[0])
        assert starts == [least] and np.flatnonzero(amps)[0] == least, state
        assert amps[least].real > 0 and amps[least].imag == 0, state


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=SEEDS)
def test_stabilizer_to_dense_equals_the_basis_state_search_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    pure = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    gens = tuple(g.negate() if rng.random() < 0.5 else g for g in pure.generators)
    got = stabilizer_to_dense(StabilizerMixture(n, gens))
    assert got.amps.tobytes() == reference_projected_basis_state(n, gens).amps.tobytes()


@pytest.mark.parametrize("model", ["cluster-1d", "lsm-dimer"])
def test_stabilizer_to_dense_equals_the_basis_state_search_on_the_registry(model):
    bundle, states = registry_stabilizer_states(model, 10)
    pure = [state for state in [bundle.trivial, *states] if state.is_pure]
    assert len(pure) >= 3
    for state in pure:
        got = stabilizer_to_dense(state)
        assert got.amps.tobytes() == reference_projected_basis_state(10, state.generators).amps.tobytes()


def test_the_start_is_read_not_searched(monkeypatch):
    # -Z on every site: the support is the one basis state 1...1, the last
    # the search would reach after 2^n - 1 failed starts.
    n = 10
    state = StabilizerMixture(n, tuple(PauliOperator.z_at(n, i).negate() for i in range(n)))
    maps = counted(monkeypatch, dense, "pauli_basis_map")
    amps = stabilizer_to_dense(state).amps
    assert len(maps) == n and amps[-1] == 1


def reference_stabilizer_density(state):
    """The product of dense projectors that the row permutations replaced."""
    n = state.n
    dim = 1 << n
    rho = np.eye(dim, dtype=np.complex128)
    for g in state.generators:
        rho = rho @ (np.eye(dim) + pauli_matrix(g)) / 2.0
    return rho / (2 ** (n - state.k))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), pure=st.booleans(), seed=SEEDS)
def test_stabilizer_density_matches_product_of_projectors(n, pure, seed):
    rng = np.random.default_rng(seed)
    if pure:
        state = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    else:
        state = random_mixture(rng, n)
    assert np.array_equal(stabilizer_density(state), reference_stabilizer_density(state))


# ---------------------------------------------------------------------------
# dense gate runner: relabelled axes and in-place phases against the
# per-gate contraction loop
# ---------------------------------------------------------------------------


def random_dense_state(rng, q, sites):
    amps = rng.normal(size=q**sites) + 1j * rng.normal(size=q**sites)
    return DenseState.from_amplitudes(q, sites, amps)


@lru_cache(maxsize=None)
def criterion_2_doubled(case):
    model, params = CRITERION_2_DENSE[case]
    bundle = build_model(model, **params)
    return bundle, build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)


@pytest.mark.parametrize("case", range(len(CRITERION_2_DENSE)))
@settings(max_examples=8, deadline=None)
@given(seed=SEEDS)
def test_runner_matches_per_gate_loop_on_criterion_2_circuits(case, seed):
    # Every phase is exactly +-1 here, so the two paths agree bit for bit.
    bundle, doubled = criterion_2_doubled(case)
    rng = np.random.default_rng(seed)
    for qca in (bundle.entangler, bundle.entangler.inverse()):
        state = random_dense_state(rng, 2, bundle.n)
        got = qca_dense_action(qca)(state).amps
        assert np.array_equal(got, reference_qca_action(qca)(state).amps)
    state = random_dense_state(rng, 2, 2 * bundle.n)
    got = doubled.apply_dense(state).amps
    assert np.array_equal(got, reference_doubled_action(doubled)(state).amps)


@pytest.mark.parametrize("sites", [3, 4])
@settings(max_examples=8, deadline=None)
@given(seed=SEEDS)
def test_runner_matches_per_gate_loop_on_cocycle_circuits(sites, seed):
    # The cocycle phases are roots of unity with ~1e-16 round-off.
    bundle = build_model("cocycle-z2z2", sites=sites)
    circuit = bundle.entangler
    rng = np.random.default_rng(seed)
    state = random_dense_state(rng, 4, sites)
    diagonals = [(gate.sites, np.diag(gate.phases())) for gate in circuit.gates]
    want = reference_apply_gates(state, range(sites), diagonals).amps
    assert np.max(np.abs(circuit.apply(state).amps - want)) <= 1e-12
    doubled = build_doubled_diagonal(circuit)
    state = random_dense_state(rng, 4, 2 * sites)
    want = reference_doubled_action(doubled)(state).amps
    assert np.max(np.abs(doubled.apply_dense(state).amps - want)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), num_gates=st.integers(0, 16), seed=SEEDS)
def test_runner_matches_per_gate_loop_on_random_clifford_circuits(n, num_gates, seed):
    # h, s, cnot and tableau gates: most do not factor, so they take the
    # contraction branch, between relabelled axes and in-place phases.
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, num_gates)
    perm = [int(p) for p in rng.permutation(n)]
    terms = [(gate.support, gate_unitary(gate)) for layer in circuit.layers for gate in layer]
    state = random_dense_state(rng, 2, n)
    got = apply_gates(state, perm, [gate_term(*term) for term in terms]).amps
    assert np.max(np.abs(got - reference_apply_gates(state, perm, terms).amps)) <= 1e-12


def random_phase_gate(rng, q, m, exact):
    """A q^m x q^m gate that permutes its m sites after one phase per basis
    state: the phases from {1, i, -1, -i} when exact, else anywhere on the
    unit circle."""
    if exact:
        phases = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, size=q**m)]
    else:
        phases = np.exp(2j * np.pi * rng.random(q**m))
    idx = np.arange(q**m)
    digits = idx[:, None] // q ** np.arange(m) % q
    image = digits @ q ** rng.permutation(m)
    matrix = np.zeros((q**m, q**m), dtype=np.complex128)
    matrix[image, idx] = phases
    return matrix


def contraction_gate(rng, q, exact):
    """A one- or two-site gate that does not factor: H or CNOT on qubits; on
    qutrits |a, b> -> |a, a + b> when exact, else the Fourier matrix, whose
    complex entries round differently in the two paths' layouts."""
    if q == 3 and exact:
        return np.eye(9, dtype=np.complex128)[:, [a + 3 * ((a + b) % 3) for b in range(3) for a in range(3)]]
    if q == 3:
        return np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    if rng.random() < 0.5:
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    return np.eye(4, dtype=np.complex128)[[0, 3, 2, 1]]


def assert_phase_runs_match(rng, q, n, num_gates, exact, contract=0.15):
    """`apply_gates` on a random state, register permutation and gate list,
    phase gates on one to three sites with a contraction at each gate with
    probability `contract`, against the per-gate loop: bit for bit when
    every phase is a power of i, within 1e-12 otherwise."""
    state = random_dense_state(rng, q, n)
    perm = [int(p) for p in rng.permutation(n)]
    terms = []
    for _ in range(num_gates):
        if rng.random() < contract:
            matrix = contraction_gate(rng, q, exact)
        else:
            matrix = random_phase_gate(rng, q, int(rng.integers(1, 4)), exact)
        m = round(math.log(len(matrix), q))
        terms.append(([int(a) for a in rng.choice(n, size=m, replace=False)], matrix))
    got = apply_gates(state, perm, [gate_term(*term) for term in terms]).amps
    want = reference_apply_gates(state, perm, terms).amps
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=12, deadline=None)
@given(n=st.integers(14, 16), num_gates=st.integers(0, 30), exact=st.booleans(), seed=SEEDS)
def test_blocked_phases_match_per_gate_loop_on_qubits(n, num_gates, exact, seed):
    assert_phase_runs_match(np.random.default_rng(seed), 2, n, num_gates, exact)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(6, 9), num_gates=st.integers(0, 20), exact=st.booleans(), seed=SEEDS)
def test_blocked_phases_match_per_gate_loop_on_qutrits(n, num_gates, exact, seed):
    assert_phase_runs_match(np.random.default_rng(seed), 3, n, num_gates, exact)


def test_phase_blocks_flush_when_full(monkeypatch):
    # CZ and S on every site of 16 qubits, with no contraction: their axes
    # outgrow one block, so the run is multiplied in more than one pass.
    rng = np.random.default_rng(5)
    state = random_dense_state(rng, 2, 16)
    terms = [((i, i + 1), np.diag([1, 1, 1, -1])) for i in range(15)]
    terms += [((i,), np.diag([1, 1j])) for i in range(16)]
    flushes = counted(monkeypatch, dense, "_multiply_phases")
    got = apply_gates(state, range(16), [gate_term(*term) for term in terms]).amps
    assert sum(1 for _, pending in flushes if pending) >= 2
    assert np.array_equal(got, reference_apply_gates(state, range(16), terms).amps)


@settings(max_examples=12, deadline=None)
@given(q_n=st.sampled_from([(2, 14), (2, 16), (3, 8)]), num_gates=st.integers(0, 30), seed=SEEDS)
def test_runs_with_no_contraction_match_per_gate_loop_bit_for_bit(q_n, num_gates, seed):
    # Every term factors, so the one copy is made in the final layout that
    # the register permutation and the terms' site moves leave.
    assert_phase_runs_match(np.random.default_rng(seed), *q_n, num_gates, exact=True, contract=0)


@pytest.mark.parametrize("q, n", [(2, 14), (3, 8)])
def test_a_flush_that_drops_its_last_pending_term_is_caught(monkeypatch, q, n):
    flush = dense._multiply_phases
    monkeypatch.setattr(dense, "_multiply_phases", lambda psi, pending: flush(psi, pending[:-1]))
    with pytest.raises(AssertionError):
        assert_phase_runs_match(np.random.default_rng(11), q, n, 20, exact=True)


def reference_audit_dense(support, matrix, qsym):
    """The kron audit the index form replaced: ||M R - R M|| <= 1e-10 for R
    the on-site action of each group element on every support site."""
    q = qsym.group.order
    for g in qsym.group.elements():
        site = np.zeros((q, q))
        site[qsym.mapping(g), np.arange(q)] = 1.0
        restriction = np.eye(1)
        for _ in support:
            restriction = np.kron(site, restriction)
        if np.linalg.norm(matrix @ restriction - restriction @ matrix) > 1e-10:
            return False
    return True


@pytest.mark.parametrize("sites", [3, 4, 5])
def test_dense_audit_by_index_matches_kron_audit(sites):
    bundle = build_model("cocycle-z2z2", sites=sites)
    qsym = bundle.qudit_symmetry
    for support, matrix in build_doubled_diagonal(bundle.entangler).v_terms:
        rolled = matrix.copy()
        rolled[1] = np.roll(rolled[1], 1)
        for gate in (matrix, rolled, np.diag(np.arange(len(matrix)) % 3 + 0j)):
            want = reference_audit_dense(support, gate, qsym)
            assert audit_dense_gate_symmetric(support, gate, qsym) == want
        assert reference_audit_dense(support, matrix, qsym)
        assert not reference_audit_dense(support, rolled, qsym)


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


def sparse_to_full(op):
    """The full matrix holding the operator's sparse entries."""
    rows, cols, vals = op.entries()
    total = np.zeros((op.q**op.sites,) * 2, dtype=np.complex128)
    total[rows, cols] = vals
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
    assert sparse_to_full(op).tobytes() == kron_sum(op).tobytes()


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
    assert sparse_to_full(got).tobytes() == sparse_to_full(want).tobytes()


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
    assert sparse_to_full(op).tobytes() == kron_sum(op).tobytes()
    for support, mat in op.terms:
        assert np.array_equal(embed_operator(mat, support, sites, q), kron_embed(mat, support, sites, q))


# ---------------------------------------------------------------------------
# cached reduced basis against the reference elimination per query
# ---------------------------------------------------------------------------


def fresh_reduction(state):
    """The reference loop's elimination of the generators' (x|z) rows, so
    that the cached basis is not compared with the routine that built it."""
    return reference_rref_with_transform([g.symplectic() for g in state.generators], 2 * state.n)


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
            residue ^= red[r]
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
# a tensor product's basis against the reference elimination
# ---------------------------------------------------------------------------


def random_factor(rng, n, kind):
    if kind == "pure":
        return StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    if kind == "mixed":
        return random_mixture(rng, n)
    return StabilizerMixture.from_generators(n, ())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    kinds=st.tuples(*[st.sampled_from(("pure", "mixed", "empty"))] * 2),
    seed=SEEDS,
)
def test_tensor_basis_matches_reference_elimination(n, m, kinds, seed):
    rng = np.random.default_rng(seed)
    a, b = random_factor(rng, n, kinds[0]), random_factor(rng, m, kinds[1])
    product = a.tensor(b)
    red, pivots, transform, row_of = product._basis
    assert (red, pivots, transform) == fresh_reduction(product)
    assert row_of == {c: r for r, c in enumerate(pivots)}
    assert product.canonical() == StabilizerMixture(n + m, product.generators).canonical()
    assert product.canonical().generators == fresh_canonical(product)


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
    if len(reference_rref_with_transform([g.symplectic() for g in gens], 2 * state.n)[1]) != len(gens):
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


def rank_raising(rows, cols):
    """Bit i set for each row i that raises the rank of the rows before it."""
    mask = 0
    for i in range(len(rows)):
        _, before, _ = reference_rref_with_transform(rows[:i], cols)
        _, upto, _ = reference_rref_with_transform(rows[: i + 1], cols)
        if len(upto) > len(before):
            mask |= 1 << i
    return mask


def reference_solve_mask(rows, cols, b):
    """A·x = b (b packed over the rows) by the reference loop, with the free
    variables set to 0: the column bitmask x, or None when inconsistent."""
    _, pivots, transform = reference_rref_with_transform(rows, cols)
    rhs = [(t & b).bit_count() & 1 for t in transform]
    if any(rhs[len(pivots):]):
        return None
    return sum(1 << c for r, c in enumerate(pivots) if rhs[r])


def columns_of(rows, cols):
    """The columns of a bit-row matrix, each packed over the rows."""
    return [sum((row >> c & 1) << r for r, row in enumerate(rows)) for c in range(cols)]


def assert_elimination_contract(rows, cols, b):
    """What `span_basis` promises on every input, against the reference loop;
    the transform equals the reference's in full when the rows are
    independent, where it is unique.  `span_combination` reads every vector
    of the row space off the rows that raised the rank, and on A's columns
    it is the reference solve of A·x = b."""
    ref_red, ref_pivots, ref_transform = reference_rref_with_transform(rows, cols)
    basis = span_basis(rows, cols)
    red, pivots, transform, row_of = basis
    assert (red, pivots) == (ref_red, ref_pivots)
    assert row_of == {c: r for r, c in enumerate(ref_pivots)}
    # T·A = R row by row, and T is invertible.
    assert len(transform) == len(rows)
    for t, r in zip(transform, red):
        acc = 0
        for j, row in enumerate(rows):
            if t >> j & 1:
                acc ^= row
        assert acc == r
    assert len(reference_rref_with_transform(transform, len(rows))[1]) == len(rows)
    # The pivot rows' transforms combine only the rows that raised the rank.
    raising = rank_raising(rows, cols)
    assert all(t & ~raising == 0 for t in transform[: len(pivots)])
    if len(pivots) == len(rows):
        assert transform == ref_transform
    vec = 0
    for j, row in enumerate(rows):
        if b >> j & 1:
            vec ^= row
    combo = span_combination(basis, vec)
    assert combo is not None and combo & ~raising == 0
    assert combo == reference_solve_mask(columns_of(rows, cols), len(rows), vec)
    if cols and len(pivots) < cols:
        outside = next(1 << c for c in range(cols) if c not in row_of)
        assert span_combination(basis, vec ^ outside) is None
    got = span_combination(span_basis(columns_of(rows, cols), len(rows)), b)
    assert got == reference_solve_mask(rows, cols, b)


@settings(max_examples=150, deadline=None)
@given(nrows=st.integers(0, 9), cols=st.integers(0, 12), data=st.data())
def test_eliminations_match_reference_loop(nrows, cols, data):
    rows = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=nrows, max_size=nrows))
    b = data.draw(st.integers(0, (1 << nrows) - 1))
    assert_elimination_contract(rows, cols, b)


@pytest.mark.parametrize(
    "rows, cols", [([0, 0, 1], 1), ([0b10, 0b10, 0b01], 2), ([0b11, 0b01, 0b10, 0b11], 2)]
)
def test_rank_deficient_eliminations_keep_the_contract(rows, cols):
    for b in range(1 << len(rows)):
        assert_elimination_contract(rows, cols, b)


def greedy_independent_subset(n, gens):
    """Keep each generator that raises the rank of those kept so far."""
    out, rows = [], []
    for g in gens:
        candidate = rows + [g.symplectic()]
        if len(reference_rref_with_transform(candidate, 2 * n)[1]) == len(candidate):
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
# strong localization on masked rows against the transposed solve
# ---------------------------------------------------------------------------


def reference_strong_localization(rho, gamma, sym_pauli, radius):
    """The solve with one unknown per generator: one row per x and z bit
    outside the endpoint regions, built bit by bit and solved by
    `reference_solve_mask` with the free generators left out."""
    n = rho.n
    u_gamma, left, right = _truncation(n, gamma, sym_pauli, radius)
    allowed = set(left) | set(right)
    gens = rho.generators
    h = rho.element_with_vector(u_gamma.symplectic())
    if h is not None:
        return _split_endpoint_operator(h.dagger() * u_gamma, left, right)
    rows, target = [], 0
    for idx, s in enumerate(t for t in range(n) if t not in allowed):
        for offset, getter in enumerate((lambda p: (p.x >> s) & 1, lambda p: (p.z >> s) & 1)):
            rows.append(sum(1 << j for j, g in enumerate(gens) if getter(g)))
            if getter(u_gamma):
                target |= 1 << (2 * idx + offset)
    combo = reference_solve_mask(rows, len(gens), target)
    if combo is None:
        return None
    w = rho._combine(combo).dagger() * u_gamma
    assert rho.membership_sign(u_gamma * w.dagger()) == 1
    return _split_endpoint_operator(w, left, right)


def localization_cases(n):
    """Every interval (a, b) and radius that keeps the 4·r rule."""
    for a in range(n):
        for b in range(n):
            for radius in range(((b - a) % n + 1) // 4 + 1):
                yield (a, b), radius


def assert_strong_localization_matches_reference(rho, sym_pauli):
    for gamma, radius in localization_cases(rho.n):
        got = strong_localization(rho, gamma, sym_pauli, radius)
        assert got == reference_strong_localization(rho, gamma, sym_pauli, radius)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), mixed=st.booleans(), seed=SEEDS)
def test_strong_localization_matches_transposed_solve(n, mixed, seed):
    rng = np.random.default_rng(seed)
    if mixed:
        rho = random_mixture(rng, n)
    else:
        rho = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    for sym_pauli in (PauliOperator.x_at(n, *range(n)), hermitian(random_pauli(rng, n))):
        assert_strong_localization_matches_reference(rho, sym_pauli)


def registry_stabilizer_states(model, n):
    """The target and every stabilizer catalyst of a registry model."""
    bundle = build_model(model, n=n)
    states = [bundle.target] + [
        build_catalyst(bundle, k).stab for k in catalyst_kinds(model) if not catalyst_is_dense(model, k)
    ]
    return bundle, states


@pytest.mark.parametrize("model", ["cluster-1d", "lsm-dimer"])
@pytest.mark.parametrize("n", [12, 16])
def test_strong_localization_matches_transposed_solve_on_the_registry(model, n):
    bundle, states = registry_stabilizer_states(model, n)
    for rho in states:
        for gen in bundle.symmetry.generators:
            assert_strong_localization_matches_reference(rho, gen.pauli)


# ---------------------------------------------------------------------------
# weak localization on W's columns against the row solve it replaced
# ---------------------------------------------------------------------------


def reference_weak_localization(rho, gamma, sym_pauli, radius):
    """The solve with one equation per generator over W's x and z bits on
    the endpoint regions (x then z per site, ascending), solved by
    `reference_solve_mask` with the free bits set to 0."""
    n = rho.n
    u_gamma, left, right = _truncation(n, gamma, sym_pauli, radius)
    region = sorted(set(left) | set(right))
    rows, target = [], 0
    for j, g in enumerate(rho.generators):
        row = 0
        for c, s in enumerate(region):
            row |= ((g.z >> s) & 1) << (2 * c) | ((g.x >> s) & 1) << (2 * c + 1)
        rows.append(row)
        target |= u_gamma.symplectic_product(g) << j
    sol = reference_solve_mask(rows, 2 * len(region), target)
    if sol is None:
        return None
    x = sum(((sol >> (2 * c)) & 1) << s for c, s in enumerate(region))
    z = sum(((sol >> (2 * c + 1)) & 1) << s for c, s in enumerate(region))
    return _split_endpoint_operator(PauliOperator(n, x, z, (x & z).bit_count() % 4), left, right)


def weak_localization_outcomes(rho, sym_pauli):
    """Compare every case with the reference; the set of outcomes seen
    (True for a witness, False for None)."""
    seen = set()
    for gamma, radius in localization_cases(rho.n):
        got = weak_localization(rho, gamma, sym_pauli, radius)
        assert got == reference_weak_localization(rho, gamma, sym_pauli, radius), (gamma, radius)
        seen.add(got is not None)
    return seen


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), mixed=st.booleans(), seed=SEEDS)
def test_weak_localization_matches_the_row_solve(n, mixed, seed):
    rng = np.random.default_rng(seed)
    if mixed:
        rho = random_mixture(rng, n)
    else:
        rho = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    for sym_pauli in (PauliOperator.x_at(n, *range(n)), hermitian(random_pauli(rng, n))):
        weak_localization_outcomes(rho, sym_pauli)


@pytest.mark.parametrize("model", ["cluster-1d", "lsm-dimer"])
def test_weak_localization_matches_the_row_solve_on_the_registry(model):
    bundle, states = registry_stabilizer_states(model, 12)
    seen = set()
    for rho in states:
        for gen in bundle.symmetry.generators:
            seen |= weak_localization_outcomes(rho, gen.pauli)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# exact fidelity against the dense oracle on unrelated commuting groups
# ---------------------------------------------------------------------------


def independent_masks(rng, n, k, first=()):
    """k GF(2)-independent nonzero n-bit masks, starting with `first`."""
    masks = list(first)
    while len(masks) < k:
        mask = int(rng.integers(1, 1 << n))
        if len(reference_rref_with_transform(masks + [mask], n)[1]) == len(masks) + 1:
            masks.append(mask)
    return masks


def signed_products(rng, pure, masks):
    """The product of the pure state's generators selected by each mask,
    each with an independent random sign."""
    products = [product_of(pure, m) for m in masks]
    return [p if rng.choice((1, -1)) == 1 else p.negate() for p in products]


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
# fidelity on one span basis against the Zassenhaus intersection it replaced
# ---------------------------------------------------------------------------


def reference_rowspace_intersection(rows_a, rows_b, cols):
    """Basis of span(rows_a) ∩ span(rows_b) via the Zassenhaus construction.

    Rows [a | a] and [b | 0] are reduced by the reference loop with the
    first block in the low bits (eliminated first); reduced rows with
    vanishing first block carry an intersection basis in their second block.
    """
    for r in (*rows_a, *rows_b):
        if r < 0 or r >> cols:
            raise ValueError("row has bits outside the declared column range")
    stacked = [r | (r << cols) for r in rows_a] + list(rows_b)
    reduced = reference_rref_with_transform(stacked, 2 * cols)[0]
    return [row >> cols for row in reduced if row and not row & ((1 << cols) - 1)]


def reference_fidelity(rho, sigma):
    """`fidelity` by the pairwise commutation loop and the Zassenhaus
    intersection, each basis vector's sign read off both groups."""
    if rho.n != sigma.n:
        raise ValueError("register size mismatch")
    for g in rho.generators:
        for h in sigma.generators:
            if g.symplectic_product(h):
                raise UnsupportedCaseError("fidelity requires pairwise commuting generator sets")
    inter = reference_rowspace_intersection(
        [g.symplectic() for g in rho.generators],
        [h.symplectic() for h in sigma.generators],
        2 * rho.n,
    )
    for vec in inter:
        a, b = rho.element_with_vector(vec), sigma.element_with_vector(vec)
        if ((a.phase - b.phase) & 3) == 2:
            return Fraction(0)
    e2 = 2 * len(inter) - rho.k - sigma.k
    if e2 % 2 == 0:
        e = e2 // 2
        return Fraction(2**e) if e >= 0 else Fraction(1, 2**-e)
    return float(2.0 ** (e2 / 2.0))


def fidelity_outcome(fid, rho, sigma):
    """The value and its type, or the refusal."""
    try:
        value = fid(rho, sigma)
    except UnsupportedCaseError as exc:
        return "refused", str(exc)
    return value, type(value)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), mixed=st.booleans(), seed=SEEDS)
def test_fidelity_matches_the_zassenhaus_reference(n, mixed, seed):
    """rho from criterion 8's random states, against one generator's sign
    flip (F = 0), a subset of its generators (F > 0), a site Pauli that
    anticommutes with a generator (refused), a randomly signed subset and
    an independent state, in both orders."""
    rng = np.random.default_rng(seed)
    rho = acceptance._random_stab_state(n, rng, mixed)
    gens = rho.generators
    j = int(rng.integers(len(gens)))
    flipped = StabilizerMixture(n, gens[:j] + (gens[j].negate(),) + gens[j + 1 :])
    subset = [g for g in gens if rng.integers(2)]
    site = int(rng.choice(list(gens[j].support())))
    anti = PauliOperator.z_at(n, site) if gens[j].x >> site & 1 else PauliOperator.x_at(n, site)
    signed = [g.negate() if rng.integers(2) else g for g in subset]
    cases = {
        "zero": flipped,
        "positive": StabilizerMixture(n, tuple(subset)),
        "refused": StabilizerMixture(n, (anti,)),
        "signed": StabilizerMixture(n, tuple(signed)),
        "independent": acceptance._random_stab_state(n, rng, bool(rng.integers(2))),
    }
    for word, sigma in cases.items():
        for pair in ((rho, sigma), (sigma, rho)):
            got = fidelity_outcome(fidelity, *pair)
            assert got == fidelity_outcome(reference_fidelity, *pair), word
            if word == "zero":
                assert got[0] == 0
            elif word == "positive":
                assert got[0] > 0
            elif word == "refused":
                assert got[0] == "refused"


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


def reference_project(state, p, sign):
    """The CHP update `StabilizerMixture.project` ran before `SignFamily`."""
    signed = p if sign == 1 else p.negate()
    anti = [j for j, g in enumerate(state.generators) if g.symplectic_product(p)]
    if anti:
        gens = list(state.generators)
        for j in anti[1:]:
            gens[j] = gens[j] * gens[anti[0]]
        gens[anti[0]] = signed
        return StabilizerMixture(state.n, tuple(gens))
    known = state.membership_sign(p)
    if known is not None:
        if known != sign:
            raise ZeroProjectionError(f"projection onto {sign}*{p} has zero weight")
        return state
    return StabilizerMixture(state.n, state.generators + (signed,))


def reference_affine_sign(state, masks, p):
    """(base sign bit, mask) of p's sign, the mask read by a loop over every
    generator, as `protocols._affine_sign` did."""
    combo = state._hermitian_combination(p)
    if combo is None:
        return None
    diff = (state._combine(combo).phase - p.phase) & 3
    mask = 0
    for j, m in enumerate(masks):
        if combo >> j & 1:
            mask ^= m
    return diff >> 1, mask


def reference_template(n):
    """The template `_measurement_template` built before `SignFamily`: a
    side list of masks mirroring `reference_project`'s products, with the
    same three claims.  Returns (random, outcomes, (x, z, phase, mask) per
    generator)."""
    state = StabilizerMixture.plus_state(n)
    masks = [0] * n
    random, outcomes = [], []
    for t in range(n):
        op = PauliOperator.z_at(n, t, (t + 2) % n)
        anti = [j for j, g in enumerate(state.generators) if g.symplectic_product(op)]
        if not anti:
            outcomes.append(reference_affine_sign(state, masks, op))
            continue
        random.append(t)
        outcomes.append((0, 1 << t))
        for j in anti[1:]:
            masks[j] ^= masks[anti[0]]
        masks[anti[0]] = 1 << t
        state = reference_project(state, op, 1)
    for sublattice in (outcomes[0::2], outcomes[1::2]):
        base = mask = 0
        for b, m in sublattice:
            base ^= b
            mask ^= m
        assert not (base or mask), "sublattice parity constraint violated"
    entangler = cz_ring_circuit(n)
    for g, m in zip(state.generators, masks):
        assert reference_affine_sign(state, masks, entangler.conjugate(g)) == (0, m)
    for u in (PauliOperator.x_at(n, *range(0, n, 2)), PauliOperator.x_at(n, *range(1, n, 2))):
        assert reference_affine_sign(state, masks, u) == (0, 0)
    gens = tuple((g.x, g.z, g.phase, m) for g, m in zip(state.generators, masks))
    return tuple(random), tuple(outcomes), gens


@pytest.mark.parametrize("n", range(4, 66, 2))
def test_measurement_template_matches_the_mirrored_mask_template(n):
    template = _measurement_template(n)
    random, outcomes, gens = reference_template(n)
    assert template.random == random
    assert template.outcomes == outcomes
    family = template.family
    assert tuple(
        (g.x, g.z, g.phase, m) for g, m in zip(family.state.generators, family.masks)
    ) == gens


def template_matches_sequential_projections(template, n):
    """Every assignment of the random bits: each random outcome t is
    (-1)^(bit t), and `reference_project` with the template's outcomes, in
    order, gives exactly the template's state.  A wrong deterministic
    outcome raises ZeroProjectionError."""
    ops = [PauliOperator.z_at(n, t, (t + 2) % n) for t in range(n)]
    for draws in range(1 << len(template.random)):
        bits = sum(((draws >> k) & 1) << t for k, t in enumerate(template.random))
        outcomes, state = template.evaluate(bits)
        if any(outcomes[t] != 1 - 2 * (bits >> t & 1) for t in template.random):
            return False
        ref = StabilizerMixture.plus_state(n)
        for op, outcome in zip(ops, outcomes):
            ref = reference_project(ref, op, outcome)
        if ref.generators != state.generators:
            return False
    return True


@pytest.mark.parametrize("n", [4, 6, 8])
def test_measurement_template_matches_sequential_projections(n):
    assert template_matches_sequential_projections(_measurement_template(n), n)


def _flip_generator_mask(template, j):
    masks = list(template.family.masks)
    masks[j] ^= 1 << template.random[j % len(template.random)]
    return replace(template, family=SignFamily(template.family.state, tuple(masks)))


def _flip_outcome_mask(template, t):
    outcomes = list(template.outcomes)
    base, mask = outcomes[t]
    outcomes[t] = (base, mask ^ 1 << template.random[(t + 1) % len(template.random)])
    return replace(template, outcomes=tuple(outcomes))


@pytest.mark.parametrize("flip", [_flip_generator_mask, _flip_outcome_mask])
@pytest.mark.parametrize("index", range(8))
def test_one_flipped_mask_bit_fails_the_template_check(flip, index):
    template = flip(_measurement_template(8), index)
    try:
        assert not template_matches_sequential_projections(template, 8)
    except ZeroProjectionError:
        pass


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), mixed=st.booleans(), steps=st.integers(1, 6), seed=SEEDS)
def test_family_steps_match_projections_at_every_sign(n, mixed, steps, seed):
    """Family steps on random hermitian Paulis, evaluated at random bits,
    against `reference_project` with the matching signs: equal generators
    after every step, and ZeroProjectionError exactly for the opposite
    sign of a fixed outcome.  Mixed states reach the branch where an
    operator outside the group joins it."""
    rng = np.random.default_rng(seed)
    state = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    if mixed:
        state = StabilizerMixture(n, state.generators[: int(rng.integers(0, n + 1))])
    family, ref = SignFamily(state, (0,) * state.k), state
    bits = int(rng.integers(0, 1 << steps))
    for t in range(steps):
        p = hermitian(random_pauli(rng, n))
        (base, mask), after = family.measure(p, lambda: (0, 1 << t))
        sign = 1 - 2 * ((base + (mask & bits).bit_count()) & 1)
        if after is family:
            for project in (reference_project, StabilizerMixture.project):
                with pytest.raises(ZeroProjectionError):
                    project(ref, p, -sign)
        else:
            assert mask == 1 << t
        got, ref, family = ref.project(p, sign), reference_project(ref, p, sign), after
        assert got.generators == ref.generators
        assert family.evaluate(bits).generators == ref.generators


# ---------------------------------------------------------------------------
# projection, measurement and single-gate evolution, none re-validated,
# against the validating forms they replaced and the dense update
# ---------------------------------------------------------------------------


def reference_projection(rho, p, sign):
    """(1 + sign p)/2 rho (1 + sign p)/2, renormalized; None at zero weight."""
    proj = (np.eye(len(rho)) + sign * pauli_matrix(p)) / 2
    rho = proj @ rho @ proj
    weight = np.trace(rho).real
    return None if weight < 1e-9 else rho / weight


def assert_valid_and_dense(state, rho):
    """What `measure` and `apply_gate` checked after each step, and the dense
    density matrix of the step."""
    state.validate()
    assert np.abs(stabilizer_density(state) - rho).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), mixed=st.booleans(), seed=SEEDS)
def test_projection_measurement_and_evolution_stay_valid(n, mixed, seed):
    rng = np.random.default_rng(seed)
    state = StabilizerMixture.zero_state(n).apply_circuit(random_circuit(rng, n, 3 * n))
    if mixed:
        state = StabilizerMixture(n, state.generators[: int(rng.integers(0, n + 1))])
    rho = stabilizer_density(state)
    for _ in range(4):
        p = hermitian(random_pauli(rng, n))
        for sign in (1, -1):
            want = reference_projection(rho, p, sign)
            try:
                got = state.project(p, sign)
            except ZeroProjectionError:
                assert want is None
            else:
                assert want is not None
                assert_valid_and_dense(got, want)
        outcome, state = state.measure(p, rng)
        rho = reference_projection(rho, p, outcome)
        assert_valid_and_dense(state, rho)
        size = int(rng.integers(1, min(3, n) + 1))
        gate = random_gate(rng, n, [int(a) for a in rng.choice(n, size=size, replace=False)])
        state = state.apply_circuit(gate)
        u = embed_operator(gate_unitary(gate), list(gate.support), n, 2)
        rho = u @ rho @ u.conj().T
        assert_valid_and_dense(state, rho)


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_measurement_makes_one_elimination(monkeypatch, n):
    # Projections are not re-validated: the one elimination is the basis of
    # the state the last two, deterministic, measurements read.
    calls = []
    reduce = gf2._reduce

    def counted(*args):
        calls.append(1)
        return reduce(*args)

    monkeypatch.setattr(gf2, "_reduce", counted)
    _measurement_template.__wrapped__(n)
    assert len(calls) == 1
    calls.clear()
    state, rng = StabilizerMixture.plus_state(n), np.random.default_rng(n)
    for i in range(n):
        _, state = state.measure(PauliOperator.z_at(n, i, (i + 2) % n), rng)
    assert len(calls) == 1


@pytest.mark.parametrize("path", ["template", "measure-loop"])
def test_each_measurement_scans_the_generators_once(monkeypatch, path):
    # 64 measurements on 64 generators: one symplectic product per
    # generator and measurement, n^2 in all.
    n, calls = 64, []
    product = PauliOperator.symplectic_product

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(PauliOperator, "symplectic_product", counted)
    if path == "template":
        _measurement_template.__wrapped__(n)
    else:
        state, rng = StabilizerMixture.plus_state(n), np.random.default_rng(n)
        for i in range(n):
            _, state = state.measure(PauliOperator.z_at(n, i, (i + 2) % n), rng)
    assert len(calls) <= n * n


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
        minus_first = [PauliOperator(n, 1 << i, 0, 2 * (i == 0)) for i in range(n)]
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


def weak_everywhere(bundle, cat):
    """The catalyst declared weak under every symmetry element."""
    if bundle.qudit_symmetry is None:
        labels = [gen.name for gen in bundle.symmetry.generators]
    else:
        labels = [str(g) for g in bundle.qudit_symmetry.group.elements()]
    return replace(cat, weak_under=tuple(labels))


def test_symmetry_defect_matches_the_loops_it_replaced():
    # The declared rule is the loop `build_catalyst` ran; declared weak
    # everywhere, it is the weak loop `verify_catalysis` ran.
    seen = set()
    for bundle, cat in contract_cases():
        build_check = (
            reference_build_check_stab
            if cat.engine == "stabilizer"
            else reference_build_check_dense
        )
        expected = build_check(bundle, cat)
        assert symmetry_defect(bundle, cat) == expected, (bundle.name, cat.name, cat.engine)
        weak = reference_first_asymmetry(bundle, cat)
        got = symmetry_defect(bundle, weak_everywhere(bundle, cat))
        assert got == weak, (bundle.name, cat.name, cat.engine, "weak")
        seen.update((expected is None, weak is None))
    # Both outcomes occur, so neither side can pass by always agreeing on one.
    assert seen == {True, False}


def test_dense_weak_under_generators_are_checked_weakly():
    # The dense build check skipped `weak_under` generators; the contract
    # checks them weakly on both engines.  |0...0> has <X...X> = 0 on a
    # sublattice, so it is not even weakly symmetric there.
    bundle = build_model("cluster-1d", n=8)
    zero = StabilizerMixture.zero_state(8)
    cat = Catalyst("zero", "stabilizer", False, stab=zero, weak_under=("x-even",))
    assert symmetry_defect(bundle, cat) == "x-even"
    assert symmetry_defect(bundle, as_dense(cat)) == "x-even"


# ---------------------------------------------------------------------------
# ground states: the sector solve (one eigh per symmetry-character block)
# against the one full eigh of the whole space it replaced
# ---------------------------------------------------------------------------


def reference_ground_state(op):
    """One full eigh of the kron-assembled matrix, as before the symmetry
    blocks.  It solves H - (tr H / dim) I, which has the same eigenvectors,
    and adds the shift back to the energy: an identity term in H, such as
    the 4 I that 16 translates of one window term sum to, would otherwise
    leak eps ||H|| / gap across a small gap into the reference's
    eigenvectors."""
    h = kron_sum(op)
    shift = np.trace(h).real / len(h)
    evals, evecs = np.linalg.eigh(h - shift * np.eye(len(h)))
    e0 = float(evals[0])
    return e0 + shift, [evecs[:, i] for i in range(len(evals)) if evals[i] <= e0 + 1e-8]


def projector(basis):
    return sum(np.outer(v, v.conj()) for v in basis)


# The cocycle chain needs at least 3 sites (`build_model` refuses 2).
@pytest.mark.parametrize(
    "model, params",
    [("cluster-1d", {"n": n}) for n in (4, 6, 8)]
    + [("lsm-dimer", {"n": n}) for n in (4, 6, 8)]
    + [("cocycle-z2z2", {"sites": s}) for s in (3, 4)],
)
@pytest.mark.parametrize(
    "kind, alpha",
    [("triv", None), ("spt", None), ("interpolated", 0.25), ("interpolated", 0.5), ("catalyst-sum", None)],
)
def test_sector_ground_state_matches_full_eigh(model, params, kind, alpha):
    op = build_hamiltonian(build_model(model, **params), kind, alpha=alpha)
    assert len(op.symmetry) == 3
    assert_ground_state_matches_full_eigh(op)


def assert_ground_state_matches_full_eigh(op, projector_bound=1e-9):
    energy, basis = ground_state(op)
    want_energy, want_basis = reference_ground_state(op)
    assert abs(energy - want_energy) <= 1e-10
    assert len(basis) == len(want_basis)
    assert np.linalg.norm(projector(basis) - projector(want_basis)) <= projector_bound


# A window of three sites starting on either sublattice, its X part and
# whether Z acts on both window ends: the 16 Paulis per window that commute
# with both sublattice X strings, made hermitian by i^popcount(x & z), and a
# real coefficient.
WINDOW_TERMS = st.tuples(st.integers(0, 1), st.integers(0, 7), st.booleans(), st.floats(-2, 2))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), orbits=st.lists(WINDOW_TERMS, min_size=1, max_size=4))
# A 1e-8 term beside an identity of norm 4: the unshifted reference eigh
# leaked 1.57e-6 into its projector, over the 1.42e-6 bound.
@example(n=8, orbits=[(0, 0, False, 1.0), (0, 1, True, 1e-08)])
def test_block_solve_matches_full_eigh_on_random_translation_orbits(n, orbits):
    # Each drawn term comes with its translates by the two-site unit cell at
    # one coefficient, so the cluster-1d maps (both sublattice X strings and
    # the translation) commute with the sum.
    terms = []
    for start, x, z_ends, coeff in orbits:
        z = 0b101 if z_ends else 0
        for shift in range(start, start + n, 2):
            xs = [(shift + i) % n for i in range(3) if (x >> i) & 1]
            zs = [(shift + i) % n for i in range(3) if (z >> i) & 1]
            p = PauliOperator.x_at(n, *xs) * PauliOperator.z_at(n, *zs)
            terms.append((coeff, PauliOperator(n, p.x, p.z, (p.x & p.z).bit_count() % 4)))
    symmetry = build_hamiltonian(build_model("cluster-1d", n=n), "triv").symmetry
    op = DenseOperator.from_pauli_terms(n, terms, symmetry)
    evals = np.linalg.eigvalsh(kron_sum(op))
    inside = evals <= evals[0] + 1e-8
    if np.min(np.abs(evals - evals[0] - 1e-8)) < 1e-11:
        # A level on the edge of the 1e-8 window: round-off decides whether
        # either solve counts it, so only the energy is compared.
        assert abs(ground_state(op)[0] - evals[0]) <= 1e-10
        return
    # Each solve's eigenvectors leak about eps ||H|| / gap across the gap at
    # the window's edge (up to 6.3 times that over 4000 draws), so a small
    # gap widens the projector bound; the energy and count bounds stay.
    gap = np.inf if inside.all() else evals[~inside][0] - evals[inside][-1]
    spread = np.finfo(float).eps * np.abs(evals).max() / gap
    assert_ground_state_matches_full_eigh(op, 1e-9 + 32 * spread)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_pauli_basis_map_matches_kron_of_site_matrices(n):
    site = {(0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]), (0, 1): np.diag([1, -1])}
    site[(1, 1)] = site[(1, 0)] @ site[(0, 1)]
    rng = np.random.default_rng(n)
    for _ in range(8):
        x, z, phase = (int(v) for v in rng.integers(0, [1 << n, 1 << n, 4]))
        want = np.eye(1)
        for i in range(n):  # site 0 is the least-significant bit
            want = np.kron(site[((x >> i) & 1, (z >> i) & 1)], want)
        image, sign = pauli_basis_map(PauliOperator(n, x, z, phase))
        got = np.zeros((1 << n,) * 2, dtype=np.complex128)
        got[image, np.arange(1 << n)] = sign
        assert np.array_equal(got, (1j**phase) * want)


def reference_site_relabel(state, mapping):
    """The on-site relabel the scatter replaced: one `np.take` per axis."""
    q, n = state.q, state.sites
    psi = state.amps.reshape((q,) * n)
    inverse = np.argsort(np.asarray(mapping))
    for axis in range(n):
        psi = np.take(psi, inverse, axis=axis)
    return psi.reshape(-1)


def test_relabel_basis_map_matches_site_relabel():
    # The last mapping is not an involution, so a gather at the map would
    # move amplitudes the wrong way.
    for q, sites, mapping in [(2, 5, [1, 0]), (3, 4, [2, 0, 1]), (4, 3, [1, 3, 0, 2])]:
        image, sign = relabel_basis_map(q, sites, mapping)
        for index in range(q**sites):
            state = DenseState.computational(q, sites, index)
            want = np.zeros(q**sites, dtype=np.complex128)
            want[image[index]] = sign[index]
            assert np.array_equal(reference_site_relabel(state, mapping), want)
            assert np.array_equal(apply_site_relabel(state, mapping).amps, want)


@pytest.mark.parametrize("q, m", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
def test_apply_matrix_matches_per_gate_contraction(q, m):
    # A dense random unitary, so `gate_term` finds no factor form and
    # `apply_gates` contracts it; the two contractions agree exactly.
    rng = np.random.default_rng(10 * q + m)
    n = 4
    amps = rng.normal(size=q**n) + 1j * rng.normal(size=q**n)
    state = DenseState.from_amplitudes(q, n, amps)
    u = np.linalg.qr(rng.normal(size=(q**m,) * 2) + 1j * rng.normal(size=(q**m,) * 2))[0]
    for _ in range(4):
        support = [int(s) for s in rng.permutation(n)[:m]]
        want = reference_apply_matrix(state, u, support).amps
        assert np.array_equal(apply_matrix(state, u, support).amps, want)


def reference_overlap(a, b):
    """The BLAS inner product `overlap` replaced: one `np.vdot`, whose last
    bits depend on the BLAS thread count at the size of a doubled state."""
    return complex(np.vdot(a.amps, b.amps))


def _random_dense(rng, q, sites):
    amps = rng.normal(size=q**sites) + 1j * rng.normal(size=q**sites)
    return DenseState.from_amplitudes(q, sites, amps)


@pytest.mark.parametrize(
    "q, parts",
    [(2, [10]), (2, [1]), (4, [5]), (3, [4]), (2, [5, 5]), (2, [1, 9]), (2, [9, 1]), (4, [2, 3]),
     (3, [2, 3]), (2, [3, 4, 3]), (2, [0, 6]), (2, [2, 8, 0]), (4, [1, 2, 2]), (2, [10, 10]),
     (2, [15, 1, 4]), (4, [8, 2])],
)
def test_fixed_order_overlap_matches_vdot(q, parts):
    # A bra given as its factors, lowest sites first, against the vdot of
    # the product built whole, on random states of up to 2^20 amplitudes;
    # the last two have factors that start past one block.
    rng = np.random.default_rng(sum(parts) + 7 * q)
    factors = [_random_dense(rng, q, k) for k in parts]
    ket = _random_dense(rng, q, sum(parts))
    product = factors[0]
    for f in factors[1:]:
        product = product.tensor(f)
    want = reference_overlap(product, ket)
    assert abs(overlap(factors, ket) - want) <= 1e-12
    assert abs(overlap(product, ket) - want) <= 1e-12
    assert abs(overlap(ket, ket) - 1) <= 1e-12
    assert overlap(factors, ket) == overlap(tuple(factors), ket)


def test_fixed_order_overlap_refuses_a_bra_of_another_shape():
    rng = np.random.default_rng(3)
    ket = _random_dense(rng, 2, 6)
    for bra in ([_random_dense(rng, 2, 3), _random_dense(rng, 2, 2)], _random_dense(rng, 4, 3), [ket, ket]):
        with pytest.raises(ValueError, match="^shape mismatch$"):
            overlap(bra, ket)
