import sys
from dataclasses import replace

import numpy as np
import pytest

from catalab import gf2
from catalab.acceptance import CATALYSIS_MATRIX, _walked_gates_match
from catalab.dense import (
    DenseState,
    apply_local_unitary,
    apply_gates,
    stabilizer_to_dense,
)
from catalab.models import (
    Catalyst,
    build_catalyst,
    build_model,
    catalyst_is_dense,
    catalyst_kinds,
    symmetry_defect,
)
from catalab.pauli import PauliOperator, SiteSet
from catalab.stabilizer import (
    CliffordCircuit,
    CliffordGate,
    PermutationQca,
    StabilizerMixture,
    cz_gate,
    is_invariant,
    pack_gates_into_layers,
)
from catalab.verify import (
    RegionTooSmallError,
    audit_dense_gate_symmetric,
    audit_gate_symmetric,
    build_doubled_diagonal,
    build_doubled_fdqc,
    disorder_parameter,
    fidelity_correlator,
    qca_spread,
    spt_invariant,
    spt_invariant_dense,
    strong_localization,
    verify_catalysis,
    weak_localization,
)

from named_gates import z_gate


def ring_translation(n):
    return PermutationQca([(i + 1) % n for i in range(n)])


def random_stab_state(n, seed):
    """Random pure stabilizer state from a random Clifford circuit."""
    from catalab.stabilizer import cnot_gate, h_gate, s_gate

    rng = np.random.default_rng(seed)
    state = StabilizerMixture.zero_state(n)
    for _ in range(3 * n):
        choice = rng.integers(0, 3)
        if choice == 0:
            state = state.apply_circuit(h_gate(n, int(rng.integers(0, n))))
        elif choice == 1:
            state = state.apply_circuit(s_gate(n, int(rng.integers(0, n))))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            state = state.apply_circuit(cnot_gate(n, int(a), int(b)))
    return state


# ---------------------------------------------------------------------------
# spread and doubled circuits
# ---------------------------------------------------------------------------


def test_qca_spread_translation():
    bundle = build_model("lsm-dimer", n=8)
    assert qca_spread(bundle.entangler, 8, bundle.lattice) == 1


def test_qca_spread_cz_ring():
    bundle = build_model("cluster-1d", n=8)
    assert qca_spread(bundle.entangler, 8, bundle.lattice) == 1


def test_qca_spread_single_layer():
    n = 6
    circuit = CliffordCircuit(n, ((cz_gate(n, 0, 1), cz_gate(n, 2, 3)),))
    bundle = build_model("cluster-1d", n=n)
    assert qca_spread(circuit, n, bundle.lattice) <= 1


def test_doubled_identity_acts_trivially():
    n = 4
    qca = CliffordCircuit(n, ())
    bundle = build_model("cluster-1d", n=n)
    doubled = build_doubled_fdqc(qca, n, bundle.lattice)
    state = random_stab_state(2 * n, seed=5)
    assert doubled.apply_stab(state).same_state(state)
    rng = np.random.default_rng(0)
    amps = rng.normal(size=1 << (2 * n)) + 1j * rng.normal(size=1 << (2 * n))
    amps /= np.linalg.norm(amps)
    dense = DenseState(2, 2 * n, amps)
    out = doubled.apply_dense(dense)
    assert np.allclose(out.amps, dense.amps, atol=1e-10)


def test_doubled_translation_dense_product_check():
    n = 4
    bundle = build_model("lsm-dimer", n=n)
    doubled = build_doubled_fdqc(bundle.entangler, n, bundle.lattice)
    assert doubled.logical_depth == 2
    # v-layer is a single layer of disjoint swaps
    assert len(pack_gates_into_layers(doubled.n, doubled.v_gates).layers) == 1
    rng = np.random.default_rng(3)
    for _ in range(5):
        pa = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        pb = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = DenseState(2, n, pa / np.linalg.norm(pa))
        anc = DenseState(2, n, pb / np.linalg.norm(pb))
        combined = psi.tensor(anc)
        out = doubled.apply_dense(combined)
        expected = apply_gates(psi, bundle.entangler.perm, ()).tensor(
            apply_gates(anc, bundle.entangler.perm_inv, ())
        )
        assert np.linalg.norm(out.amps - expected.amps) < 1e-10


def test_doubled_cz_ring_matches_tableau_and_dense():
    n = 4
    bundle = build_model("cluster-1d", n=n)
    qca = bundle.entangler
    doubled = build_doubled_fdqc(qca, n, bundle.lattice)
    # exact tableau equality of the compiled gates with U (x) U^-1's table,
    # read off U's tableau and its dual
    circuit = pack_gates_into_layers(2 * n, doubled.gates)
    for a in range(2 * n):
        for p in (PauliOperator.x_at(2 * n, a), PauliOperator.z_at(2 * n, a)):
            assert circuit.conjugate(p) == doubled.conjugate(p)
    # dense operator equality, including the global phase
    rng = np.random.default_rng(9)
    for _ in range(5):
        amps = rng.normal(size=1 << (2 * n)) + 1j * rng.normal(size=1 << (2 * n))
        amps /= np.linalg.norm(amps)
        state = DenseState(2, 2 * n, amps)
        out = doubled.apply_dense(state)
        expected = state
        for i in range(n):
            czm = np.diag([1.0, 1, 1, -1]).astype(complex)
            expected = apply_local_unitary(expected, czm, [i, (i + 1) % n])
            expected = apply_local_unitary(expected, czm, [n + i, n + (i + 1) % n])
        assert np.linalg.norm(out.amps - expected.amps) < 1e-10


@pytest.mark.parametrize(
    "model, params", [("lsm-dimer", {"n": 8}), ("cluster-1d", {"n": 8}), ("lieb-2d", {"lx": 2, "ly": 2})]
)
def test_doubled_circuit_is_a_register_wide_handle(model, params):
    # n is the width of the tableau it conjugates through, as for every
    # other handle, and `gates` lists the swap layer first, as it acts.
    bundle = build_model(model, **params)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    assert doubled.n == len(bundle.entangler.doubled_tableau()) == 2 * bundle.n
    assert doubled.gates == doubled.s_gates + doubled.v_gates
    assert {g.n for g in doubled.gates} == {doubled.n}
    p = PauliOperator.x_at(doubled.n, doubled.n - 1)
    assert pack_gates_into_layers(doubled.n, doubled.gates).conjugate(p) == doubled.conjugate(p)
    cocycle = build_model("cocycle-z2z2", sites=3)
    assert build_doubled_diagonal(cocycle.entangler).n == 6


def test_doubled_action_checks_the_norm_at_its_end():
    # The gates of a dense action are not re-checked one by one; the action
    # checks the norm once, at its end, so a non-unitary v-term is caught.
    bundle = build_model("cocycle-z2z2", sites=3)
    doubled = build_doubled_diagonal(bundle.entangler)
    state = bundle.trivial_dense().tensor(bundle.trivial_dense())
    doubled.apply_dense(state)
    (support, mat), *rest = doubled.v_terms
    broken = replace(doubled, v_terms=((support, 1.5 * mat), *rest))
    with pytest.raises(ValueError, match=r"state norm .* is not 1 within 1e-12"):
        broken.apply_dense(state)


def test_dense_audit_rejects_a_gate_with_one_row_rolled():
    bundle = build_model("cocycle-z2z2", sites=5)
    support, matrix = build_doubled_diagonal(bundle.entangler).v_terms[0]
    assert audit_dense_gate_symmetric(support, matrix, bundle.qudit_symmetry)
    rolled = matrix.copy()
    rolled[1] = np.roll(rolled[1], 1)
    assert not audit_dense_gate_symmetric(support, rolled, bundle.qudit_symmetry)


def test_doubled_gate_supports_are_local():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    doubled = build_doubled_fdqc(bundle.entangler, n, bundle.lattice)
    spread = qca_spread(bundle.entangler, n, bundle.lattice)
    assert doubled.max_gate_support <= 2 * (2 * spread + 1)
    for gate in doubled.v_gates:
        a_sites = [s for s in gate.support if s < n]
        assert len(a_sites) <= 2 * spread + 1


# ---------------------------------------------------------------------------
# symmetric-gate audit
# ---------------------------------------------------------------------------


def test_audit_swap_against_doubled_symmetry():
    bundle = build_model("cluster-1d", n=8)
    doubled = build_doubled_fdqc(bundle.entangler, 8, bundle.lattice)
    dsym = bundle.symmetry.doubled()
    for gate in doubled.gates:
        assert audit_gate_symmetric(gate, dsym)


def test_audit_z_gate_fails_x_symmetry():
    bundle = build_model("cluster-1d", n=8)
    gate = z_gate(8, 0)
    assert not audit_gate_symmetric(gate, bundle.symmetry)


def test_audit_cz_passes_z_symmetry():
    bundle = build_model("lsm-dimer", n=8)
    gate = cz_gate(8, 2, 3)
    # CZ is diagonal, so it commutes with the all-Z generator restriction but
    # fails the all-X one.
    sym = bundle.symmetry
    z_gen = [g for g in sym.generators if g.name == "z-all"][0]
    restricted = z_gen.pauli.restrict(gate.support)
    assert gate.conjugate(restricted) == restricted


# ---------------------------------------------------------------------------
# catalysis verification
# ---------------------------------------------------------------------------


def test_catalysis_cluster_ghz_passes():
    bundle = build_model("cluster-1d", n=8)
    cat = build_catalyst(bundle, "ghz")
    report = verify_catalysis(bundle, cat)
    assert report.passed
    assert report.logical_depth == 2
    assert all(ok for _, ok in report.gate_audits)
    assert report.state_match == "group-equality-up-to-phase"


def test_catalysis_swssb_mixed_branch():
    bundle = build_model("cluster-1d", n=8)
    cat = build_catalyst(bundle, "swssb")
    report = verify_catalysis(bundle, cat)
    assert report.passed
    assert report.state_match == "operator-equality"


def test_catalysis_fake_catalyst_fails():
    # A Z-basis product state is not x-all symmetric, so the verifier
    # rejects it before it runs the doubled circuit.
    bundle = build_model("lsm-dimer", n=8)
    n = 8
    gens = tuple(
        PauliOperator(n, 0, 1 << i, 2 * (i % 2)) for i in range(n)
    )
    fake = Catalyst(
        name="fake-pattern",
        engine="stabilizer",
        mixed=False,
        stab=StabilizerMixture.from_generators(n, gens),
    )
    with pytest.raises(ValueError, match="fake-pattern is not symmetric under x-all$"):
        verify_catalysis(bundle, fake)


# A state that breaks a symmetry outright is no catalyst, even when the
# doubled circuit returns it unchanged: each is rejected, naming the first
# generator it fails.
ASYMMETRIC = [
    pytest.param("lsm-dimer", {"n": 8}, "zero", "x-all", id="lsm-dimer-zero"),
    pytest.param("cluster-1d", {"n": 8}, "zero", "x-even", id="cluster-1d-zero"),
    pytest.param("lieb-2d", {"lx": 2, "ly": 2}, "zero", "x-vertices", id="lieb-2d-zero"),
    pytest.param("square-sspt", {"l": 3}, "zero", "line-d0", id="square-sspt-zero"),
    pytest.param("lsm-dimer", {"n": 8}, "plus", "z-all", id="lsm-dimer-plus"),
]


@pytest.mark.parametrize("model, params, state, generator", ASYMMETRIC)
@pytest.mark.parametrize("engine", ["stabilizer", "dense"])
def test_asymmetric_catalyst_is_rejected(model, params, state, generator, engine):
    bundle = build_model(model, **params)
    n = bundle.n
    stab = StabilizerMixture.zero_state(n) if state == "zero" else StabilizerMixture.plus_state(n)
    fake = Catalyst(name=state, engine="stabilizer", mixed=False, stab=stab)
    if engine == "dense":
        fake = replace(fake, engine="dense", stab=None, dense_state=stabilizer_to_dense(stab))
    with pytest.raises(ValueError, match=f"{state} is not symmetric under {generator}$"):
        verify_catalysis(bundle, fake)


def test_toric_code_needs_its_broken_loops_named():
    bundle = build_model("lieb-2d", lx=2, ly=2)
    toric = build_catalyst(bundle, "toric-code")
    assert verify_catalysis(bundle, toric).passed
    with pytest.raises(ValueError, match="toric-code is not symmetric under loop-wind-h$"):
        verify_catalysis(bundle, replace(toric, broken=()))


def test_asymmetric_qudit_catalyst_is_rejected():
    bundle = build_model("cocycle-z2z2", sites=4)
    fake = Catalyst(
        name="zero", engine="dense", mixed=False, dense_state=DenseState.computational(4, 4)
    )
    with pytest.raises(ValueError, match=r"zero is not symmetric under \(0, 1\)$"):
        verify_catalysis(bundle, fake)


@pytest.mark.parametrize("model, generator", [("cluster-1d", "x-even"), ("lsm-dimer", "x-all")])
def test_maximally_mixed_state_catalyzes_only_as_weakly_symmetric(model, generator):
    # The maximally mixed state comes back from every U, and commutes with
    # every symmetry, but holds none of them strongly: declared strongly
    # symmetric it is refused, declared weakly symmetric it passes.
    bundle = build_model(model, n=16)
    mixed = Catalyst("mixed-all", "stabilizer", True, stab=StabilizerMixture(16, ()))
    with pytest.raises(ValueError, match=f"^catalyst mixed-all is not symmetric under {generator}$"):
        verify_catalysis(bundle, mixed)
    names = tuple(gen.name for gen in bundle.symmetry.generators)
    report = verify_catalysis(bundle, replace(mixed, weak_under=names))
    assert report.passed and report.state_match == "operator-equality"


def test_qudit_elements_are_declared_by_label():
    # Site 0 carries the character (-1)^{h_0}: strongly symmetric under half
    # the group, weakly under the other half, named by str(h).
    bundle = build_model("cocycle-z2z2", sites=4)
    group = bundle.qudit_symmetry.group
    charge = [(-1) ** h[0] for h in group.elements()]
    amps = np.kron(np.ones(group.order**3), charge)
    charged = Catalyst("charged", "dense", False, dense_state=DenseState.from_amplitudes(4, 4, amps))
    odd = tuple(str(h) for h in group.elements() if h[0])
    assert symmetry_defect(bundle, charged) == odd[0]
    assert symmetry_defect(bundle, replace(charged, weak_under=odd[1:])) == odd[0]
    assert symmetry_defect(bundle, replace(charged, weak_under=odd)) is None
    assert symmetry_defect(bundle, replace(charged, broken=odd)) is None


@pytest.mark.parametrize(
    "model, params, held, message",
    [
        ("cluster-1d", {"n": 16}, "plus-8", "on 8 sites of dimension 2, but cluster-1d has 16 of dimension 2"),
        ("cluster-1d", {"n": 16}, "dense-plus-8", "on 8 sites of dimension 2, but cluster-1d has 16 of dimension 2"),
        ("cocycle-z2z2", {"sites": 4}, "plus-4", "on 4 sites of dimension 2, but cocycle-z2z2 has 4 of dimension 4"),
        ("cocycle-z2z2", {"sites": 4}, "uniform-3", "on 3 sites of dimension 4, but cocycle-z2z2 has 4 of dimension 4"),
    ],
    ids=["qubits-stabilizer", "qubits-dense", "qudits-stabilizer", "qudits-dense"],
)
def test_catalyst_on_another_register_is_named(model, params, held, message):
    # Read in the model's layout, an 8-site |+> catalyst's bits on
    # cluster-1d n=16 would fail x-even: the register is checked first.
    bundle = build_model(model, **params)
    kind, sites = held.rsplit("-", 1)
    plus = StabilizerMixture.plus_state(int(sites))
    fake = {
        "plus": Catalyst(held, "stabilizer", False, stab=plus),
        "dense-plus": Catalyst(held, "dense", False, dense_state=stabilizer_to_dense(plus)),
        "uniform": Catalyst(held, "dense", False, dense_state=DenseState.uniform(4, int(sites))),
    }[kind]
    with pytest.raises(ValueError, match=f"^catalyst {held} is {message}$"):
        verify_catalysis(bundle, fake)


# Every Clifford model at the criterion-1 sizes with its own trivial state as
# the would-be catalyst, plus the |+>^n product on cluster-1d.
NEGATIVE_CONTROLS = [
    pytest.param(m, p, "trivial", id=f"{m}-trivial") for m, p in CATALYSIS_MATRIX
] + [pytest.param("cluster-1d", {"n": 8}, "plus-product", id="cluster-1d-plus-product")]


@pytest.mark.parametrize("model, params, state", NEGATIVE_CONTROLS)
def test_symmetric_product_state_is_not_a_catalyst(model, params, state):
    # A symmetric short-range-entangled state cannot catalyze: the verifier
    # must reject it on the state comparison.
    bundle = build_model(model, **params)
    stab = bundle.trivial if state == "trivial" else StabilizerMixture.plus_state(bundle.n)
    for gen in bundle.symmetry.generators:
        assert stab.membership_sign(gen.pauli) == 1
    fake = Catalyst(name=state, engine="stabilizer", mixed=False, stab=stab)
    report = verify_catalysis(bundle, fake)
    assert report.passed is False
    assert report.state_match == "mismatch"


def test_catalysis_dense_superposition():
    bundle = build_model("lsm-dimer", n=4)
    cat = build_catalyst(bundle, "superposition")
    report = verify_catalysis(bundle, cat)
    assert report.passed
    assert report.overlap_modulus >= 1 - 1e-10


def test_catalysis_cocycle_ghz():
    bundle = build_model("cocycle-z2z2", sites=3)
    cat = build_catalyst(bundle, "ghz")
    report = verify_catalysis(bundle, cat)
    assert report.passed


# ---------------------------------------------------------------------------
# entangler invariant
# ---------------------------------------------------------------------------


def test_invariant_identity_entangler():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    qca = CliffordCircuit(n, ())
    table = spt_invariant(qca, bundle.symmetry, n)
    for value in table.entries.values():
        assert value == 1


def test_invariant_cz_ring_table():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    table = spt_invariant(bundle.entangler, bundle.symmetry, n)
    assert table.entries[("x-even", "x-odd")] == -1
    assert table.entries[("x-odd", "x-even")] == -1
    assert table.entries[("x-even", "x-even")] == 1
    assert table.entries[("x-odd", "x-odd")] == 1
    assert table.entries[("1", "x-even")] == 1


def test_invariant_matches_dense_oracle():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    table = spt_invariant(bundle.entangler, bundle.symmetry, n)

    czm = np.diag([1.0, 1, 1, -1]).astype(complex)

    def apply_u(state):
        for i in range(n):
            state = apply_local_unitary(state, czm, [i, (i + 1) % n])
        return state

    dense_table = spt_invariant_dense(apply_u, apply_u, bundle.symmetry, n)
    for key, value in table.entries.items():
        assert abs(dense_table.entries[key] - value) < 1e-9


def test_invariant_squared_entangler_trivial():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    circuit = bundle.entangler
    squared = CliffordCircuit(n, circuit.layers + circuit.layers)
    table = spt_invariant(squared, bundle.symmetry, n)
    for value in table.entries.values():
        assert value == 1


def test_invariant_bilinearity():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    table = spt_invariant(bundle.entangler, bundle.symmetry, n)
    labels = {"1": 0, "x-even": 1, "x-odd": 2, "x-even*x-odd": 3}

    def compose(a, b):
        return a ^ b

    inverse_labels = {v: k for k, v in labels.items()}
    for ga in labels.values():
        for gb in labels.values():
            for h in labels.values():
                lhs = (
                    table.entries[(inverse_labels[ga], inverse_labels[h])]
                    * table.entries[(inverse_labels[gb], inverse_labels[h])]
                )
                rhs = table.entries[(inverse_labels[compose(ga, gb)], inverse_labels[h])]
                assert lhs == rhs


def test_invariant_region_too_small():
    # At n=4 the regions A = [0, 2) and B = [1, 3) touch: their boundaries
    # are closer than the spread-1 entangler reaches.
    n = 4
    bundle = build_model("cluster-1d", n=n)
    with pytest.raises(RegionTooSmallError):
        spt_invariant(bundle.entangler, bundle.symmetry, n)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def test_strong_localization_cluster_string_order():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    cluster = bundle.target
    gen = bundle.symmetry.by_name("x-even").pauli
    witness = strong_localization(cluster, (2, 7), gen, radius=1)
    assert witness is not None
    left, right = witness
    combined = left * right
    # Z-type endpoints just outside the interval
    assert combined.x == 0
    assert combined.z != 0


def test_strong_localization_plus_state():
    n = 12
    state = StabilizerMixture.plus_state(n)
    gen = PauliOperator.x_at(n, *range(n))
    witness = strong_localization(state, (3, 8), gen, radius=1)
    assert witness is not None
    left, right = witness
    assert (left * right).is_identity()


def test_strong_localization_none_for_swssb():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    cat = build_catalyst(bundle, "swssb")
    for name in ("x-even", "x-odd"):
        gen = bundle.symmetry.by_name(name).pauli
        for gamma in ((0, 3), (0, 5), (0, 7), (2, 9)):
            assert strong_localization(cat.stab, gamma, gen, radius=1) is None


def test_weak_localization_swssb_trivial_witness():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    cat = build_catalyst(bundle, "swssb")
    gen = bundle.symmetry.by_name("x-even").pauli
    witness = weak_localization(cat.stab, (0, 5), gen, radius=1)
    assert witness is not None
    left, right = witness
    assert left.is_identity() and right.is_identity()


def test_weak_localization_cluster_matches_strong():
    n = 12
    bundle = build_model("cluster-1d", n=n)
    gen = bundle.symmetry.by_name("x-even").pauli
    witness = weak_localization(bundle.target, (2, 7), gen, radius=1)
    assert witness is not None


def test_weak_localization_none_adversarial():
    n = 8
    state = StabilizerMixture.from_generators(n, (PauliOperator.z_at(n, 4),))
    gen = PauliOperator.x_at(n, *range(n))
    assert weak_localization(state, (2, 6), gen, radius=1) is None
    assert strong_localization(state, (2, 6), gen, radius=1) is None


def test_localization_radius_precondition():
    n = 12
    state = StabilizerMixture.plus_state(n)
    gen = PauliOperator.x_at(n, *range(n))
    with pytest.raises(ValueError):
        strong_localization(state, (0, 3), gen, radius=3)
    # A negative radius has empty endpoint regions; both solvers reject it.
    for solver in (strong_localization, weak_localization):
        with pytest.raises(ValueError, match="the radius must be at least 0, got -1"):
            solver(state, (0, 3), gen, radius=-1)


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------


def test_fidelity_correlator_swssb():
    bundle = build_model("cluster-1d", n=8)
    cat = build_catalyst(bundle, "swssb")
    same = fidelity_correlator(
        cat.stab, PauliOperator.z_at(8, 0), PauliOperator.z_at(8, 2)
    )
    assert same == 1
    cross = fidelity_correlator(
        cat.stab, PauliOperator.z_at(8, 0), PauliOperator.z_at(8, 1)
    )
    assert cross == 0


def test_lieb_mixed_diagnostics():
    bundle = build_model("lieb-2d", lx=2, ly=2)
    cat = build_catalyst(bundle, "lieb-mixed")
    lat = bundle.lattice
    n = bundle.n
    for loop in lat.dual_loops():
        w = PauliOperator.z_at(n, *loop)
        assert cat.stab.expectation(w) == 0
        exp, fid = disorder_parameter(cat.stab, w)
        assert exp == 0 and fid == 1
    open_string = PauliOperator.x_at(n, *lat.open_string(1))
    exp, fid = disorder_parameter(cat.stab, open_string)
    assert exp == 0 and fid == 1


def test_lieb_mixed_vertex_fidelity_correlator():
    bundle = build_model("lieb-2d", lx=2, ly=2)
    cat = build_catalyst(bundle, "lieb-mixed")
    lat = bundle.lattice
    v1, v2 = lat.vertex(0, 0), lat.vertex(1, 1)
    val = fidelity_correlator(
        cat.stab,
        PauliOperator.z_at(bundle.n, v1),
        PauliOperator.z_at(bundle.n, v2),
    )
    assert val == 1


def test_weak_localization_implies_long_range_fidelity():
    # a weak witness on the spin-glass mixture comes with a unit fidelity
    # correlator for the charged endpoint pair
    n = 12
    bundle = build_model("cluster-1d", n=n)
    cat = build_catalyst(bundle, "swssb")
    gen = bundle.symmetry.by_name("x-even").pauli
    witness = weak_localization(cat.stab, (0, 5), gen, radius=1)
    assert witness is not None
    val = fidelity_correlator(
        cat.stab, PauliOperator.z_at(n, 0), PauliOperator.z_at(n, 6)
    )
    assert val == 1


def test_catalysis_cocycle_dense_catalysts():
    bundle = build_model("cocycle-z2z2", sites=3)
    for kind in ("superposition", "gapless"):
        cat = build_catalyst(bundle, kind)
        report = verify_catalysis(bundle, cat)
        assert report.passed
        assert report.overlap_modulus >= 1 - 1e-10
        assert all(ok for _, ok in report.gate_audits)


def test_swssb_diagnostics_match_dense_oracle_n6():
    # the spin-glass mixture at N=6: expectation, fidelity, and Renyi values
    # against the dense density-matrix oracle
    from catalab.dense import (
        dense_fidelity,
        dense_renyi_correlator,
        pauli_matrix,
        stabilizer_density,
    )
    from catalab.stabilizer import fidelity, renyi_correlator

    n = 6
    bundle = build_model("cluster-1d", n=n)
    cat = build_catalyst(bundle, "swssb")
    rho = stabilizer_density(cat.stab)
    zz = PauliOperator.z_at(n, 0) * PauliOperator.z_at(n, 2)
    assert cat.stab.expectation(zz) == 0
    assert abs(np.trace(rho @ pauli_matrix(zz)).real) < 1e-12
    sigma_state = StabilizerMixture(
        n, tuple(g if zz.commutes(g) else g.negate() for g in cat.stab.generators)
    )
    stab_f = float(fidelity(cat.stab, sigma_state))
    dense_f = dense_fidelity(rho, stabilizer_density(sigma_state))
    assert abs(stab_f - dense_f) < 1e-10
    stab_r = float(
        renyi_correlator(cat.stab, PauliOperator.z_at(n, 0), PauliOperator.z_at(n, 2), 2)
    )
    dense_r = dense_renyi_correlator(
        rho,
        pauli_matrix(PauliOperator.z_at(n, 0)),
        pauli_matrix(PauliOperator.z_at(n, 2)),
        2,
    )
    assert stab_r == 1
    assert abs(stab_r - dense_r) < 1e-10


def test_doubled_rejects_nonlocal_unitary():
    # a permutation that teleports a site across the ring is not locality
    # preserving at this size
    n = 12
    perm = list(range(n))
    perm[0], perm[n // 2] = perm[n // 2], perm[0]
    bundle = build_model("cluster-1d", n=n)
    with pytest.raises(ValueError):
        build_doubled_fdqc(PermutationQca(perm), n, bundle.lattice)


# Negative controls on criterion 2's walked-gates check: each fault is a
# valid Clifford gate in the wrong place, so only the comparison of the
# walked gates with U (x) U^-1's table can catch it.


def walked_gates_match_with(edit, n=8):
    """Criterion 2's walked-gates check on the cluster-1d compile, its
    v-gate list first changed in place by edit."""
    bundle = build_model("cluster-1d", n=n)
    doubled = build_doubled_fdqc(bundle.entangler, n, bundle.lattice)
    gates = list(doubled.v_gates)
    edit(gates)
    return _walked_gates_match(replace(doubled, v_gates=tuple(gates)))


def with_flipped_sign(gate, a):
    (x, z, phase), z_image = gate.rows[a]
    rows = {**gate.rows, a: ((x, z, phase ^ 2), z_image)}
    return CliffordGate("TABLEAU", gate.n, gate.support, rows)


def flip_one_image_sign(gates):
    gates[2] = with_flipped_sign(gates[2], gates[2].support[1])


def flip_one_register_b_sign(gates):
    gates[0] = with_flipped_sign(gates[0], 8)


def drop_a_reached_site(gates):
    # U's images of site 3 reach site 2, so v_3 on its support less site 2
    # cannot carry v_3's images; the stand-in acts as the identity.
    rest = [c for c in gates[3].support if c != 2]
    rows = {c: ((1 << c, 0, 0), (0, 1 << c, 0)) for c in rest}
    gates[3] = CliffordGate("TABLEAU", gates[3].n, SiteSet(rest), rows)


def duplicate_one_gate(gates):
    gates[2] = gates[1]


def test_walked_gates_check_passes_the_compile():
    assert walked_gates_match_with(lambda gates: None)


@pytest.mark.parametrize(
    "edit", [flip_one_image_sign, flip_one_register_b_sign, drop_a_reached_site, duplicate_one_gate]
)
def test_walked_gates_check_catches_a_wrong_v_gate(edit):
    assert not walked_gates_match_with(edit)


def test_exchanging_two_v_gates_is_no_fault():
    # The v_i commute, so their order leaves V unchanged.
    def exchange(gates):
        gates[1], gates[2] = gates[2], gates[1]

    assert walked_gates_match_with(exchange)


def test_doubled_evolution_refuses_a_state_on_another_register():
    bundle = build_model("cluster-1d", n=4)
    doubled = build_doubled_fdqc(bundle.entangler, 4, bundle.lattice)
    for n in (4, 10):
        with pytest.raises(ValueError, match="^circuit register size mismatch$"):
            doubled.apply_stab(StabilizerMixture(n, ()))


GUARD_SIZES = [
    ("cluster-1d", {"n": 32}),
    ("lsm-dimer", {"n": 16}),
    ("lieb-2d", {"lx": 3, "ly": 3}),
    ("square-sspt", {"l": 4}),
]


def stabilizer_catalysts(model, params):
    bundle = build_model(model, **params)
    kinds = [k for k in catalyst_kinds(model) if not catalyst_is_dense(model, k)]
    return bundle, [build_catalyst(bundle, k) for k in kinds]


@pytest.mark.parametrize("model, params", GUARD_SIZES)
def test_stabilizer_catalysis_multiplies_no_pauli_objects(monkeypatch, model, params):
    # Compile, audit and evolve all run on (x, z, phase) ints; the count is
    # deterministic, so any object product on that path shows here.
    bundle, catalysts = stabilizer_catalysts(model, params)
    calls = []
    product = PauliOperator.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(PauliOperator, "__mul__", counted)
    for catalyst in catalysts:
        assert verify_catalysis(bundle, catalyst).passed
    assert len(calls) == 0


@pytest.mark.parametrize("model, params", GUARD_SIZES)
def test_stabilizer_catalysis_builds_no_inverse_handle(monkeypatch, model, params):
    # Conjugation by U^-1, in the compile and elsewhere, reads the dual of
    # U's tableau; no inverse circuit or permutation is built or walked.
    bundle, catalysts = stabilizer_catalysts(model, params)
    calls = []
    for cls in (CliffordCircuit, PermutationQca):
        inverse = cls.inverse

        def counted(self, inverse=inverse):
            calls.append(type(self).__name__)
            return inverse(self)

        monkeypatch.setattr(cls, "inverse", counted)
    for catalyst in catalysts:
        assert verify_catalysis(bundle, catalyst).passed
    assert calls == []


def verdicts_against_invariance(bundle, catalysts, flips):
    """V(triv (x) c) = target (x) U^-1 c, so catalysis of a weakly symmetric
    stabilizer catalyst holds exactly when U leaves c invariant.  Each
    catalyst is checked with the sign of each generator `flips(k)` names
    flipped in turn, built directly since `build_catalyst` would refuse it,
    and declared weak under every generator it does not break.  Under its
    registry declaration the flipped catalyst must be refused exactly when
    the flip costs it a strong symmetry.  The (invariance, refused) pairs
    seen are returned."""
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    seen = []
    for cat in catalysts:
        gens = cat.stab.generators
        names = [gen.name for gen in bundle.symmetry.generators if gen.name not in cat.broken]
        for j in flips(len(gens)):
            stab = StabilizerMixture(cat.stab.n, gens[:j] + (gens[j].negate(),) + gens[j + 1 :])
            flipped = replace(cat, stab=stab)
            invariant = is_invariant(stab, bundle.entangler)
            report = verify_catalysis(bundle, replace(flipped, weak_under=tuple(names)), doubled)
            assert (report.state_match != "mismatch") == invariant, (bundle.name, cat.name, j)
            lost = [
                name
                for name in names
                if name not in cat.weak_under
                and stab.membership_sign(bundle.symmetry.by_name(name).pauli) != 1
            ]
            if lost:
                with pytest.raises(ValueError, match=f"{cat.name} is not symmetric under {lost[0]}$"):
                    verify_catalysis(bundle, flipped, doubled)
            else:
                assert symmetry_defect(bundle, flipped) is None
            seen.append((invariant, bool(lost)))
    return seen


def test_catalysis_equals_invariance_on_every_sign_flip_of_the_registry():
    seen = []
    for model, params in [("cluster-1d", {"n": 16}), ("lsm-dimer", {"n": 16})] + GUARD_SIZES[2:]:
        seen += verdicts_against_invariance(*stabilizer_catalysts(model, params), range)
    invariant, refused = zip(*seen)
    # 73 of the 97 flips that cost a strong symmetry leave c invariant: a
    # weak-only check would have passed them.
    assert (len(seen), sum(invariant), sum(refused)) == (151, 95, 97)
    assert sum(i and r for i, r in seen) == 73


@pytest.mark.parametrize(
    "model, kinds", [("lsm-dimer", ("long-range-bell", "ghz")), ("cluster-1d", ("ghz-one-sublattice",))]
)
def test_catalysis_equals_invariance_at_1024_sites(model, kinds):
    bundle = build_model(model, n=1024)
    catalysts = [build_catalyst(bundle, k) for k in kinds]
    seen = verdicts_against_invariance(bundle, catalysts, lambda k: (0, k - 1))
    assert {invariant for invariant, _ in seen} == {True, False}


@pytest.mark.parametrize("model, params", GUARD_SIZES)
def test_stabilizer_catalysis_makes_one_elimination(monkeypatch, model, params):
    # The evolved state is not re-validated, so a report's one elimination
    # is the basis of target (x) catalyst, over its own rows.
    bundle, catalysts = stabilizer_catalysts(model, params)
    calls = []
    reduce = gf2._reduce

    def counted(rows, *args):
        calls.append(len(rows))
        return reduce(rows, *args)

    monkeypatch.setattr(gf2, "_reduce", counted)
    for catalyst in catalysts:
        calls.clear()
        assert verify_catalysis(bundle, catalyst).passed
        assert calls == [bundle.target.k + catalyst.stab.k]


def reduce_line_events(n):
    """`line` events inside `gf2._reduce` while cluster-1d at n, its GHZ
    catalyst and the basis of target (x) catalyst are built."""
    code, count = gf2._reduce.__code__, [0]

    def local(frame, event, arg):
        count[0] += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        bundle = build_model("cluster-1d", n=n)
        bundle.target.tensor(build_catalyst(bundle, "ghz").stab)._basis
    finally:
        sys.settrace(previous)
    return count[0]


def test_elimination_row_steps_grow_with_the_fill_in():
    # Registry rows are sparse, so doubling n about doubles the row steps of
    # the elimination; a sweep of every row per column quadruples them.
    small, large = reduce_line_events(256), reduce_line_events(512)
    assert large <= 2.2 * small


@pytest.mark.parametrize("model, params", GUARD_SIZES)
def test_stabilizer_catalysis_walks_no_doubled_circuit(monkeypatch, model, params):
    # The report evolves by U (x) U^-1's tableau, read off U's and its
    # dual, which the gates multiply out to by construction; nothing walks
    # the 2n-site circuit.
    bundle, catalysts = stabilizer_catalysts(model, params)
    widths = []
    walk = CliffordCircuit._walk

    def counted(self, x, z):
        widths.append(self.n)
        return walk(self, x, z)

    monkeypatch.setattr(CliffordCircuit, "_walk", counted)
    for catalyst in catalysts:
        assert verify_catalysis(bundle, catalyst).passed
    assert 2 * bundle.n not in widths


@pytest.mark.parametrize("model, params", GUARD_SIZES)
def test_weak_symmetry_check_takes_no_symplectic_product(monkeypatch, model, params):
    # The weak check reads one Gram pass over the catalyst's generators, not
    # one object call per (symmetry generator, catalyst generator) pair.
    bundle, catalysts = stabilizer_catalysts(model, params)
    calls = []
    product = PauliOperator.symplectic_product

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(PauliOperator, "symplectic_product", counted)
    names = tuple(gen.name for gen in bundle.symmetry.generators)
    for catalyst in catalysts:
        assert symmetry_defect(bundle, replace(catalyst, weak_under=names)) is None
    assert len(calls) == 0
