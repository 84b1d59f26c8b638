import re
import tracemalloc

import numpy as np
import pytest

from catalab import dense as dense_module
from catalab.dense import (
    BasisMap,
    DenseOperator,
    DenseState,
    _character_blocks,
    apply_gates,
    apply_local_unitary,
    apply_matrix,
    apply_pauli,
    apply_site_relabel,
    check_amps,
    dense_fidelity,
    dense_renyi_correlator,
    eig_limit,
    embed_operator,
    gate_term,
    gate_unitary,
    ground_state,
    overlap,
    pauli_basis_map,
    pauli_matrix,
    stabilizer_density,
    stabilizer_to_dense,
    translation_basis_map,
)
from catalab.models import build_hamiltonian, build_model
from catalab.pauli import PauliOperator
from catalab.verify import build_doubled_diagonal, build_doubled_fdqc
from catalab.stabilizer import (
    StabilizerMixture,
    cz_gate,
    h_gate,
    pack_gates_into_layers,
    s_gate,
    swap_gate,
)

from test_differential import reference_apply_matrix

XM = np.array([[0, 1], [1, 0]], dtype=complex)
ZM = np.diag([1.0, -1.0]).astype(complex)
YM = 1j * XM @ ZM
HM = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron_oracle(p: PauliOperator) -> np.ndarray:
    mat = np.array([[1.0 + 0j]])
    for site in range(p.n):
        local = np.eye(2, dtype=complex)
        if (p.x >> site) & 1:
            local = XM @ local
        if (p.z >> site) & 1:
            local = local @ ZM
        mat = np.kron(local, mat)
    return (1j**p.phase) * mat


def test_pauli_matrix_against_kron():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = PauliOperator(
            n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4))
        )
        assert np.allclose(pauli_matrix(p), kron_oracle(p), atol=1e-12)


def test_apply_pauli_matches_matrix():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = DenseState(2, n, amps)
        p = PauliOperator(
            n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4))
        )
        assert np.allclose(apply_pauli(state, p).amps, kron_oracle(p) @ amps, atol=1e-12)


def test_apply_z_on_plus():
    plus = DenseState.uniform(2, 1)
    minus = apply_local_unitary(plus, ZM, [0])
    assert np.allclose(minus.amps, np.array([1, -1]) / np.sqrt(2))


def test_cz_ring_on_plus4():
    state = DenseState.uniform(2, 4)
    czm = np.diag([1.0, 1, 1, -1]).astype(complex)
    for i in range(4):
        state = apply_local_unitary(state, czm, [i, (i + 1) % 4])
    for idx in range(16):
        bits = [(idx >> i) & 1 for i in range(4)]
        adjacent = sum(bits[i] & bits[(i + 1) % 4] for i in range(4))
        assert np.allclose(state.amps[idx], (-1) ** adjacent / 4.0)


def test_apply_matrix_embed_consistency():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        support = sorted(rng.choice(n, size=m, replace=False).tolist())
        # random unitary via QR
        a = rng.normal(size=(2**m, 2**m)) + 1j * rng.normal(size=(2**m, 2**m))
        u, _ = np.linalg.qr(a)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = DenseState(2, n, amps)
        got = apply_matrix(state, u, support).amps
        expected = embed_operator(u, support, n, 2) @ amps
        assert np.allclose(got, expected, atol=1e-11)


def test_qudit_relabel():
    # u(g)|h> = |g+h> for G=Z_3, g=1 acting on |0>
    state = DenseState.computational(3, 1, 0)
    mapped = apply_site_relabel(state, [1, 2, 0])
    assert np.allclose(mapped.amps, [0, 1, 0])


def test_site_permutation_translation():
    state = DenseState.computational(2, 3, 0b001)  # site 0 holds |1>
    moved = apply_gates(state, [1, 2, 0], ())
    assert np.allclose(moved.amps, DenseState.computational(2, 3, 0b010).amps)


def test_gate_term_reads_site_permutations_after_phases():
    swap = gate_term((3, 5), np.eye(4)[[0, 2, 1, 3]])
    assert (swap.moves, swap.phases) == ((1, 0), None)
    cz = gate_term((0, 1), np.diag([1.0, 1, 1, -1]))
    assert cz.moves == (0, 1) and np.array_equal(cz.phases, [[1, 1], [1, -1]])
    # phases[d0, d1] multiplies |d0 d1>, with support[0] the first digit.
    tilted = gate_term((0, 1), np.diag([1.0, 1j, 1, 1]))
    assert np.array_equal(tilted.phases, [[1, 1], [1j, 1]])
    # A qutrit swap factors; X, CNOT and H are contracted.
    assert gate_term((0, 1), np.eye(9)[[3 * (i % 3) + i // 3 for i in range(9)]]).moves == (1, 0)
    for support, matrix in (
        ((0,), np.eye(2)[[1, 0]]),
        ((0, 1), np.eye(4)[[0, 3, 2, 1]]),
        ((0,), np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
    ):
        assert gate_term(support, matrix).moves is None


CZM = np.diag([1.0, 1, 1, -1])


@pytest.mark.parametrize(
    "support, message",
    [
        ((-1, 0), r"gate support \[-1, 0\] must be one or more sites >= 0"),
        ((), r"gate support \[\] must be one or more sites >= 0"),
        ((0, 0), r"gate support \[0, 0\] repeats a site"),
    ],
)
def test_gate_term_rejects_a_negative_repeated_or_missing_site(support, message):
    with pytest.raises(ValueError, match=message):
        gate_term(support, CZM)


@pytest.mark.parametrize("perm", [[1, 2], [1, 1, 0], [0, 1, 3], [0, 1, 2, 3], [-1, 0, 1]])
def test_apply_gates_rejects_a_perm_that_is_not_a_permutation_of_the_sites(perm):
    state = DenseState.computational(2, 3, 0b001)
    with pytest.raises(ValueError, match=re.escape(f"perm {perm} is not a permutation of the 3 sites")):
        apply_gates(state, perm, ())


def test_apply_gates_rejects_a_term_past_the_register():
    state = DenseState.computational(2, 3, 0b001)
    for support in ((2, 3), (5,)):
        with pytest.raises(ValueError, match=re.escape(f"gate support {list(support)} reaches past the 3 sites")):
            apply_gates(state, range(3), [gate_term(support, CZM if len(support) == 2 else ZM)])


class _CountingNumpy:
    """numpy for `catalab.dense`, counting the `multiply` calls whose output
    has `size` entries."""

    def __init__(self, size):
        self.size, self.calls = size, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        out = np.multiply(*args, **kwargs)
        self.calls += out.size == self.size
        return out


def test_doubled_cluster_action_makes_at_most_two_state_sized_multiplies(monkeypatch):
    # Its 10 v-gates each carry +-1 phases; one multiply per gate made 10.
    bundle = build_model("cluster-1d", n=10)
    doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
    state = DenseState.computational(2, 20, 0b1011)
    want = doubled.apply_dense(state).amps
    counting = _CountingNumpy(2**20)
    monkeypatch.setattr(dense_module, "np", counting)
    got = doubled.apply_dense(state).amps
    assert 1 <= counting.calls <= 2
    assert np.array_equal(got, want)


@pytest.mark.parametrize("model", ["cluster-1d", "lsm-dimer", "cocycle-z2z2"])
def test_doubled_action_on_2_20_amplitudes_holds_one_state_copy(model):
    # The phase blocks stay small: no phase tensor the size of the state.
    # The lsm-dimer swaps leave the axes permuted, so its one copy is made
    # in the final layout, with no second copy left for the end.
    if model != "cocycle-z2z2":
        bundle = build_model(model, n=10)
        doubled, state = build_doubled_fdqc(bundle.entangler, 10, bundle.lattice), DenseState.uniform(2, 20)
    else:
        doubled, state = build_doubled_diagonal(build_model(model, sites=5).entangler), DenseState.uniform(4, 10)
    doubled.gate_terms
    tracemalloc.start()
    try:
        doubled.apply_dense(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= state.amps.nbytes + 2**20


def test_diagonal_matches_matrix():
    rng = np.random.default_rng(9)
    n = 3
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = DenseState(2, n, amps)
    phases = np.exp(2j * np.pi * rng.random(4))
    for support in ([0, 2], [2, 0]):
        got = apply_gates(state, range(n), [gate_term(support, np.diag(phases))]).amps
        expected = reference_apply_matrix(state, np.diag(phases), support).amps
        assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize(
    "q, matrix",
    [(4, np.kron(HM, HM)), (4, np.eye(4)), (2, np.eye(9)), (3, np.kron(HM, HM))],
)
def test_apply_gates_rejects_a_term_of_another_site_dimension(q, matrix):
    # A 4 x 4 gate on two q=4 sites was once contracted into one of them,
    # and a 9 x 9 gate on qubits failed inside a reshape.
    state = DenseState.uniform(q, 3)
    d = len(matrix)
    message = f"gate on support [0, 1] is {d} x {d}, not {q}^2 x {q}^2 for sites of dimension {q}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_gates(state, range(3), [gate_term([0, 1], matrix)])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_matrix(state, matrix, [0, 1])


def test_overlap_basics():
    psi = DenseState.uniform(2, 3)
    assert overlap(psi, psi) == pytest.approx(1)
    zero = DenseState.computational(2, 1, 0)
    one = DenseState.computational(2, 1, 1)
    assert overlap(zero, one) == 0


def test_cluster_state_overlap():
    n = 6
    circuit = pack_gates_into_layers(n, [cz_gate(n, i, (i + 1) % n) for i in range(n)])
    stab = StabilizerMixture.plus_state(n).apply_circuit(circuit)
    dense_cluster = stabilizer_to_dense(stab)
    state = DenseState.uniform(2, n)
    czm = np.diag([1.0, 1, 1, -1]).astype(complex)
    for i in range(n):
        state = apply_local_unitary(state, czm, [i, (i + 1) % n])
    assert abs(overlap(dense_cluster, state)) == pytest.approx(1, abs=1e-10)


def test_ground_state_paramagnet():
    n = 3
    terms = [(-1.0, PauliOperator.x_at(n, i)) for i in range(n)]
    op = DenseOperator.from_pauli_terms(n, terms)
    energy, basis = ground_state(op)
    assert energy == pytest.approx(-3.0, abs=1e-9)
    assert len(basis) == 1
    assert abs(np.vdot(basis[0], DenseState.uniform(2, n).amps)) == pytest.approx(1, abs=1e-10)


def test_ground_state_variational_consistency():
    rng = np.random.default_rng(3)
    n = 4
    terms = []
    for _ in range(6):
        p = PauliOperator(
            n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 0
        )
        p = PauliOperator(n, p.x, p.z, (p.x & p.z).bit_count() % 4)
        terms.append((float(rng.normal()), p))
    op = DenseOperator.from_pauli_terms(n, terms)
    energy, basis = ground_state(op)
    h = sum(embed_operator(mat, support, n, 2) for support, mat in op.terms)
    for v in basis:
        assert np.vdot(v, h @ v).real == pytest.approx(energy, abs=1e-9)


def pauli_map(name, p):
    return BasisMap(name, *pauli_basis_map(p))


def ising_chain(n, symmetry=()):
    """-(Z0 Z1 + ... + Z_{n-2} Z_{n-1}): ground level |0...0>, |1...1>."""
    terms = [(-1.0, PauliOperator.z_at(n, i, i + 1)) for i in range(n - 1)]
    return DenseOperator.from_pauli_terms(n, terms, symmetry)


def test_ground_level_split_across_sectors_comes_back_whole():
    n = 4
    x_all = PauliOperator.x_at(n, *range(n))
    energy, basis = ground_state(ising_chain(n, (pauli_map("x-all", x_all),)))
    assert energy == pytest.approx(-3.0, abs=1e-12)
    # One vector from each sector: the cat states with X-all = +1 and -1.
    assert len(basis) == 2
    charges = [np.vdot(v, apply_pauli(DenseState(2, n, v), x_all).amps) for v in basis]
    assert sorted(round(c.real, 9) for c in charges) == [-1.0, 1.0]
    want = np.zeros((1 << n,) * 2)
    want[0, 0] = want[-1, -1] = 1.0
    assert np.linalg.norm(sum(np.outer(v, v.conj()) for v in basis) - want) <= 1e-12


def apply_map(u, vec):
    out = np.zeros_like(vec)
    out[u.image] = u.sign * vec
    return out


def translation_map(n, shift):
    return BasisMap(f"translate-{shift}", *translation_basis_map(2, n, shift))


def roots(value):
    return round(value.real, 9), round(value.imag, 9)


def test_character_blocks_are_the_joint_eigenspaces():
    # X-all and Z-all on 4 qubits: four characters, each block one joint
    # eigenspace of dimension 4, so a dropped sign or a merged pair shows.
    x4, z4 = PauliOperator.x_at(4, *range(4)), PauliOperator.z_at(4, *range(4))
    assert_joint_eigenspaces(
        (pauli_map("x-all", x4), pauli_map("z-all", z4)),
        [4, 4, 4, 4],
        {(roots(a), roots(b)) for a in (1, -1) for b in (1, -1)},
    )
    # X-all and the order-5 translation on 5 qubits: ten characters, eight of
    # them complex; momentum 0 also holds the orbit {00000, 11111}.
    assert_joint_eigenspaces(
        (pauli_map("x-all", PauliOperator.x_at(5, *range(5))), translation_map(5, 1)),
        [4, 4, 3, 3, 3, 3, 3, 3, 3, 3],
        {(roots(a), roots(np.exp(2j * np.pi * k / 5))) for a in (1, -1) for k in range(5)},
    )


def assert_joint_eigenspaces(maps, sizes, want):
    blocks = _character_blocks(maps, len(maps[0].image))
    assert sorted((len(b.reps) for b in blocks), reverse=True) == sizes
    charges = set()
    for block in blocks:
        d = len(block.reps)
        columns = np.stack([block.lift(e) for e in np.eye(d)], axis=1)
        assert np.allclose(columns.conj().T @ columns, np.eye(d), atol=1e-12)
        charge = []
        for u in maps:
            value = np.vdot(columns[:, 0], apply_map(u, columns[:, 0]))
            moved = np.stack([apply_map(u, c) for c in columns.T], axis=1)
            assert np.allclose(moved, value * columns, atol=1e-12)
            charge.append(roots(value))
        charges.add(tuple(charge))
    assert charges == want


def test_symmetry_map_not_commuting_with_the_operator_is_refused():
    op = DenseOperator.from_pauli_terms(
        2,
        [(-1.0, PauliOperator.x_at(2, i)) for i in range(2)],
        (pauli_map("z0", PauliOperator.z_at(2, 0)),),
    )
    with pytest.raises(ValueError, match="symmetry map z0 does not commute with the operator"):
        ground_state(op)


@pytest.mark.parametrize(
    "image, sign, order",
    [
        ([0, 1, 2, 3], [1j, 1j, 1j, 1j], 4),  # squares to -1
        ([1, 2, 0, 3], [1, 1, 1, 1], 3),  # a 3-cycle
        ([0, 1, 2, 3], [np.exp(1j)] * 4, None),  # e^i is no root of unity
        ([1, 2, 0, 3], [1, 1, np.exp(0.1j), 1], None),  # nor is the 3-cycle's phase
    ],
)
def test_symmetry_maps_need_a_finite_order(image, sign, order):
    u = BasisMap("u", np.array(image), np.array(sign, dtype=np.complex128))
    if order is None:
        with pytest.raises(ValueError, match="^symmetry map u has no finite order up to 64$"):
            ground_state(ising_chain(2, (u,)))
    else:
        assert len(u.powers()) == order
        assert ising_chain(2, (u,)).symmetry == (u,)


def catalyst_sum(model, n):
    return build_hamiltonian(build_model(model, n=n), "catalyst-sum")


def with_z_on_sublattice(op, first):
    """The operator plus Z on every site first, first + 2, ...: a whole orbit
    of the two-site translation, which breaks one sublattice X string."""
    extra = [(0.5, PauliOperator.z_at(op.sites, s)) for s in range(first, op.sites, 2)]
    terms = op.terms + DenseOperator.from_pauli_terms(op.sites, extra).terms
    return DenseOperator(op.sites, op.q, terms, op.symmetry)


def test_terms_breaking_one_symmetry_map_are_refused_naming_it():
    op = catalyst_sum("cluster-1d", 8)
    assert [u.name for u in op.symmetry] == ["x-even", "x-odd", "translate-2"]
    # One coefficient off: the sublattice maps still hold, the translation
    # not, down to 1e-10; round-off under the 1e-12 bound is no break.
    (support, mat), rest = op.terms[0], op.terms[1:]
    for factor in (1.5, 1 + 1e-10):
        skewed = DenseOperator(op.sites, op.q, [(support, factor * mat)] + rest, op.symmetry)
        with pytest.raises(ValueError, match="^symmetry map translate-2 does not commute with the operator$"):
            ground_state(skewed)
    ground_state(DenseOperator(op.sites, op.q, [(support, (1 + 1e-14) * mat)] + rest, op.symmetry))
    for first, broken in ((0, "x-even"), (1, "x-odd")):
        with pytest.raises(ValueError, match=f"^symmetry map {broken} does not commute with the operator$"):
            ground_state(with_z_on_sublattice(op, first))


def test_translation_with_the_wrong_shift_is_refused_naming_it():
    # lsm-dimer's trivial dimers sit on even bonds, so a one-site shift maps
    # them off themselves; it commutes with x-all and z-all, so only the
    # operator sees it.  (Its catalyst sum covers every bond and is invariant.)
    one = translation_map(8, 1)
    triv = build_hamiltonian(build_model("lsm-dimer", n=8), "triv")
    wrong = DenseOperator(8, 2, triv.terms, triv.symmetry[:2] + (one,))
    with pytest.raises(ValueError, match="^symmetry map translate-1 does not commute with the operator$"):
        ground_state(wrong)
    # On cluster-1d a one-site shift swaps the sublattices, so the maps
    # themselves are refused.
    cluster = catalyst_sum("cluster-1d", 8)
    with pytest.raises(ValueError, match="symmetry maps translate-1 and x-even do not commute"):
        DenseOperator(8, 2, cluster.terms, cluster.symmetry[:2] + (one,))


def test_symmetric_ground_state_never_builds_the_full_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("full matrix built")

    sizes = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda h, solve=solve: sizes.append(len(h)) or solve(h))
    monkeypatch.setattr(dense_module, "embed_operator", refuse)
    op = catalyst_sum("cluster-1d", 8)
    energy, basis = ground_state(op)
    assert max(sizes) == 22 and len(basis) == 1  # 16 blocks of 12 to 22 states
    # With no symmetry the whole space is the one block.
    sizes.clear()
    whole_energy, whole_basis = ground_state(DenseOperator(op.sites, op.q, op.terms))
    assert sizes == [256, 256] and len(whole_basis) == 1
    assert abs(whole_energy - energy) <= 1e-10
    assert abs(abs(np.vdot(whole_basis[0], basis[0])) - 1) <= 1e-10


def test_symmetry_maps_must_commute_and_permute_the_basis():
    x0 = pauli_map("x0", PauliOperator.x_at(2, 0))
    z0 = pauli_map("z0", PauliOperator.z_at(2, 0))
    with pytest.raises(ValueError, match="symmetry maps z0 and x0 do not commute"):
        ising_chain(2, (x0, z0))
    scaled = BasisMap("scaled", np.array([1, 0, 2, 3]), np.array([2, 0.5, 1, 1], dtype=complex))
    with pytest.raises(ValueError, match="symmetry map scaled is not a signed permutation"):
        ising_chain(2, (scaled,))


# numpy's default rtol=1e-5 would let each of these through near 1, although
# the check's message states a bound of 1e-10 or 1e-12.


def test_a_matrix_off_unitary_by_more_than_1e_10_is_refused():
    zero = DenseState.computational(2, 1)
    with pytest.raises(ValueError, match="^matrix is not unitary within 1e-10$"):
        apply_local_unitary(zero, np.diag([1, 1 + 5e-6]), [0])
    apply_local_unitary(zero, np.diag([1, 1 + 1e-11]), [0])


def test_a_term_off_hermitian_by_more_than_1e_12_is_refused():
    with pytest.raises(ValueError, match="^hamiltonian term is not hermitian within 1e-12$"):
        DenseOperator(1, 2, [((0,), np.array([[1, 1 + 1e-6], [1, 1]]))])
    DenseOperator(1, 2, [((0,), np.array([[1, 1 + 1e-13], [1, 1]]))])


def test_a_sign_off_modulus_1_by_more_than_1e_12_is_refused():
    u = BasisMap("u", np.arange(2), np.array([1, 1 + 2e-6], dtype=np.complex128))
    with pytest.raises(ValueError, match="^symmetry map u is not a signed permutation of 2 states$"):
        DenseOperator(1, 2, [], (u,))
    with pytest.raises(ValueError, match="^symmetry map u has no finite order up to 64$"):
        u.powers()


def test_maps_off_commuting_by_more_than_1e_12_are_refused():
    a = BasisMap("a", np.arange(2), np.array([1, np.exp(1e-6j)]))
    b = BasisMap("b", np.array([1, 0]), np.ones(2, dtype=np.complex128))
    with pytest.raises(ValueError, match="^symmetry maps b and a do not commute$"):
        DenseOperator(1, 2, [], (a, b))


def test_density_and_fidelity():
    plus = DenseState.uniform(2, 1).amps
    minus = np.array([1, -1]) / np.sqrt(2)
    rho = 0.5 * np.outer(plus, plus.conj()) + 0.5 * np.outer(minus, minus.conj())
    assert dense_fidelity(rho, rho) == pytest.approx(1, abs=1e-10)


def test_stabilizer_density_matches_projector():
    n = 3
    rho_state = StabilizerMixture.from_generators(
        n, (PauliOperator.x_at(n, 0, 1, 2),)
    )
    rho = stabilizer_density(rho_state)
    assert np.trace(rho).real == pytest.approx(1, abs=1e-12)
    full = PauliOperator.x_at(n, 0, 1, 2)
    expected = (np.eye(8) + kron_oracle(full)) / 2.0 / 4.0
    assert np.allclose(rho, expected, atol=1e-12)


@pytest.mark.parametrize(
    "second, message",
    [("ZI", "generators are not independent"), ("XI", "generators .* anticommute")],
)
@pytest.mark.parametrize("bridge", [stabilizer_to_dense, stabilizer_density])
def test_dense_bridges_refuse_an_invalid_group(bridge, second, message):
    # Unchecked, (Z0, Z0) gave |00> and a density of trace 2, and (Z0, X0)
    # a vector and a non-hermitian matrix.
    gens = (PauliOperator.from_string("ZI"), PauliOperator.from_string(second))
    with pytest.raises(ValueError, match=message):
        bridge(StabilizerMixture(2, gens))


def test_dense_renyi_pure_charged():
    plus = DenseState.uniform(2, 1).amps
    rho = np.outer(plus, plus.conj())
    z = kron_oracle(PauliOperator.from_string("Z"))
    ident = np.eye(2, dtype=complex)
    val = dense_renyi_correlator(rho, z, ident, 2)
    assert val == pytest.approx(0, abs=1e-12)


def test_gate_unitary_known_gates():
    czm = np.diag([1.0, 1, 1, -1]).astype(complex)
    assert np.allclose(gate_unitary(cz_gate(2, 0, 1)), czm, atol=1e-10)
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    assert np.allclose(gate_unitary(swap_gate(2, 0, 1)), swap, atol=1e-10)
    # H has zero trace; the fallback pins the first significant entry positive.
    got_h = gate_unitary(h_gate(1, 0))
    assert np.allclose(got_h, HM, atol=1e-10)
    # S is phase-fixed by its trace; compare up to a global phase.
    got_s = gate_unitary(s_gate(1, 0))
    sm = np.diag([1.0, 1j])
    ratio = got_s[0, 0] / sm[0, 0]
    assert np.allclose(got_s, ratio * sm, atol=1e-10)
    assert abs(abs(ratio) - 1) < 1e-10


def test_gate_unitary_is_read_only_and_shared_by_equal_local_forms():
    u = gate_unitary(cz_gate(3, 0, 2))
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0
    # The same local images on other sites of another register: one build.
    assert gate_unitary(cz_gate(5, 1, 4)) is u


def test_gate_unitary_conjugation_action():
    rng = np.random.default_rng(11)
    for gate in (cz_gate(2, 0, 1), s_gate(2, 1), h_gate(2, 0), swap_gate(2, 0, 1)):
        u = embed_operator(gate_unitary(gate), list(gate.support), 2, 2)
        for _ in range(20):
            p = PauliOperator(2, int(rng.integers(0, 4)), int(rng.integers(0, 4)), 0)
            p = PauliOperator(2, p.x, p.z, (p.x & p.z).bit_count() % 4)
            lhs = u @ kron_oracle(p) @ u.conj().T
            rhs = kron_oracle(gate.conjugate(p))
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_norm_validation():
    with pytest.raises(ValueError):
        DenseState(2, 1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        apply_local_unitary(DenseState.uniform(2, 1), np.array([[1.0, 0], [0, 2.0]]), [0])


def test_norm_preserved_over_long_gate_sequences():
    rng = np.random.default_rng(13)
    n = 4
    state = DenseState.uniform(2, n)
    czm = np.diag([1.0, 1, 1, -1]).astype(complex)
    sm = np.diag([1.0, 1j])
    for _ in range(1000):
        which = int(rng.integers(0, 3))
        if which == 0:
            state = apply_local_unitary(state, HM, [int(rng.integers(0, n))])
        elif which == 1:
            state = apply_local_unitary(state, sm, [int(rng.integers(0, n))])
        else:
            a, b = rng.choice(n, size=2, replace=False)
            state = apply_local_unitary(state, czm, [int(a), int(b)])
    assert abs(np.linalg.norm(state.amps) - 1) < 1e-10


def test_symmetrize_plaquette_ising_ground_space():
    # the stabilizer-built line-symmetric state lies in the dense 2x2
    # plaquette-Ising ground space, and every line symmetry fixes it
    from catalab.models import build_catalyst, build_model

    bundle = build_model("square-sspt", l=2)
    lat = bundle.lattice
    n = bundle.n
    terms = [(-1.0, PauliOperator.z_at(n, *lat.neighbors(v))) for v in range(n)]
    energy, basis = ground_state(DenseOperator.from_pauli_terms(n, terms))
    assert len(basis) == 4
    cat = build_catalyst(bundle, "pim-symmetric")
    assert cat.stab.is_pure
    ref = stabilizer_to_dense(cat.stab)
    # its projection onto the orthonormal ground basis keeps the whole norm
    b = np.stack(basis, axis=1)
    assert np.linalg.norm(b.conj().T @ ref.amps) == pytest.approx(1, abs=1e-10)
    for g in bundle.symmetry.generators:
        moved = apply_pauli(ref, g.pauli)
        assert np.linalg.norm(moved.amps - ref.amps) < 1e-10


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5", ""])
def test_bad_dense_limit_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("CATALAB_DENSE_LIMIT", value)
    message = f"CATALAB_DENSE_LIMIT must be a positive integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DenseState.uniform(2, 2)


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5", ""])
def test_bad_eig_limit_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("CATALAB_EIG_LIMIT", value)
    message = f"CATALAB_EIG_LIMIT must be a positive integer, got {value!r}"
    plain = DenseOperator.from_pauli_terms(2, [(1.0, PauliOperator.z_at(2, 0))])
    for op in (plain, catalyst_sum("cluster-1d", 4)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ground_state(op)


def test_each_limit_text_is_parsed_once(monkeypatch):
    # The variables are read on every call, so a change takes effect at
    # once, but each distinct text is parsed only the first time.
    monkeypatch.setenv("CATALAB_DENSE_LIMIT", "4097")
    monkeypatch.setenv("CATALAB_EIG_LIMIT", "4099")
    check_amps(4097)
    assert eig_limit() == 4099
    parsed = dense_module._parse_limit.cache_info().misses
    for _ in range(3):
        check_amps(16)
        assert eig_limit() == 4099
    assert dense_module._parse_limit.cache_info().misses == parsed
    monkeypatch.setenv("CATALAB_DENSE_LIMIT", "8")
    with pytest.raises(ValueError, match="^dense state of 16 amplitudes exceeds the configured limit$"):
        check_amps(16)


def test_eig_limit_bounds_the_largest_block_not_the_space(monkeypatch):
    op = catalyst_sum("cluster-1d", 8)
    monkeypatch.setenv("CATALAB_EIG_LIMIT", "64")
    message = "^a symmetry block of at least 256 states exceeds the dense-eig limit$"
    with pytest.raises(ValueError, match=message):
        ground_state(DenseOperator(op.sites, op.q, op.terms))
    largest = 22  # 256 states in 16 character blocks of 12 to 22 states
    monkeypatch.setenv("CATALAB_EIG_LIMIT", str(largest))
    energy, basis = ground_state(op)
    assert len(basis) == 1
    monkeypatch.setenv("CATALAB_EIG_LIMIT", str(largest - 1))
    with pytest.raises(ValueError, match=f"^symmetry block dimension {largest} exceeds the dense-eig limit$"):
        ground_state(op)
    # |G| = 16 elements share 256 states, so some block holds 16; that is
    # refused from the group order alone.
    monkeypatch.setenv("CATALAB_EIG_LIMIT", "15")
    message = "^a symmetry block of at least 16 states exceeds the dense-eig limit$"
    with pytest.raises(ValueError, match=message):
        ground_state(op)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DenseState.computational(2, 32),
        lambda: DenseState.uniform(2, 32),
        lambda: pauli_basis_map(PauliOperator.x_at(32, 0)),
        lambda: dense_module.relabel_basis_map(2, 32, [1, 0]),
        lambda: translation_basis_map(2, 32, 1),
    ],
    ids=["computational", "uniform", "pauli", "relabel", "translation"],
)
def test_dense_limit_is_checked_before_allocating(build):
    # 2^32 entries: refused by the limit check, never allocated.
    with pytest.raises(ValueError, match="^dense state of 4294967296 amplitudes exceeds the configured limit$"):
        build()


def test_dense_limit_refuses_a_ground_state_before_any_block_is_built(monkeypatch):
    op = catalyst_sum("cluster-1d", 8)

    def refuse(symmetry, dim):
        raise AssertionError("character blocks built")

    monkeypatch.setattr(dense_module, "_character_blocks", refuse)
    monkeypatch.setenv("CATALAB_DENSE_LIMIT", "255")
    with pytest.raises(ValueError, match="^dense state of 256 amplitudes exceeds the configured limit$"):
        ground_state(op)
    monkeypatch.setenv("CATALAB_DENSE_LIMIT", "256")
    with pytest.raises(AssertionError, match="character blocks built"):
        ground_state(op)
