from dataclasses import replace

import numpy as np
import pytest

from catalab import cohomology, models
from catalab.acceptance import CATALYSIS_MATRIX
from catalab.cohomology import CocycleCircuit, bilinear_cocycle, normalize_cocycle
from catalab.dense import (
    BasisMap,
    DenseOperator,
    DenseState,
    apply_gates,
    embed_operator,
    gate_unitary,
    ground_state,
    overlap,
    pauli_basis_map,
    stabilizer_to_dense,
)
from catalab.models import (
    RegistryError,
    SymmetryGenerator,
    SymmetryRep,
    build_catalyst,
    build_hamiltonian,
    build_model,
    catalyst_is_dense,
    catalyst_kinds,
    cz_ring_circuit,
)
from catalab.pauli import PauliOperator
from catalab.stabilizer import is_invariant, tableau_gate

from named_gates import z_gate


def test_unknown_key():
    with pytest.raises(RegistryError):
        build_model("no-such-model")


def test_symmetry_rep_names_the_first_anticommuting_pair():
    # Only the second and third generators anticommute.
    gens = {"a": PauliOperator.x_at(2, 1), "b": PauliOperator.x_at(2, 0), "c": PauliOperator.z_at(2, 0)}
    with pytest.raises(ValueError) as err:
        SymmetryRep(2, tuple(SymmetryGenerator(name, p, "0-form") for name, p in gens.items()))
    assert str(err.value) == "symmetry generators b, c anticommute"


def test_symmetry_rep_refuses_a_generator_on_another_register():
    # The gate audit checks the register once, against the symmetry's n, so
    # every generator must be on that register.
    gen = SymmetryGenerator("x", PauliOperator.x_at(5, 1, 4), "0-form")
    with pytest.raises(ValueError, match="^symmetry generator x is not on the 4-site register$"):
        SymmetryRep(4, (gen,))


def test_bad_sizes():
    with pytest.raises(RegistryError):
        build_model("lsm-dimer", n=5)
    with pytest.raises(RegistryError):
        build_model("cluster-1d", n=2)
    with pytest.raises(RegistryError):
        build_model("lieb-2d", lx=1, ly=2)


def test_cluster_bundle_target():
    bundle = build_model("cluster-1d", n=8)
    n = 8
    for i in range(n):
        stab = (
            PauliOperator.z_at(n, (i - 1) % n)
            * PauliOperator.x_at(n, i)
            * PauliOperator.z_at(n, (i + 1) % n)
        )
        assert bundle.target.membership_sign(stab) == 1
    # The measurement protocol checks invariance under the same frozen
    # circuit, so the tableau it builds serves both.
    assert bundle.entangler is cz_ring_circuit(n)


def test_wrong_entangler_is_caught_at_build_time(monkeypatch):
    # CZ(2,3) and CZ(4,5) each gain a Z on their first site.  Either gate
    # alone breaks x-even, but the pair keeps it: the circuit becomes the CZ
    # ring times Z_2 Z_4, symmetric as a whole and wrong.
    real_cz = models.cz_gate

    def cz_with_z(n, a, b):
        gate = real_cz(n, a, b)
        if (a, b) not in ((2, 3), (4, 5)):
            return gate
        z = z_gate(n, a)
        images = {
            s: tuple(
                z.conjugate(gate.conjugate(p))
                for p in (PauliOperator.x_at(n, s), PauliOperator.z_at(n, s))
            )
            for s in (a, b)
        }
        return tableau_gate(n, images)

    monkeypatch.setattr(models, "cz_gate", cz_with_z)
    models.cz_circuit.cache_clear()
    try:
        with pytest.raises(AssertionError, match="target state mismatch"):
            build_model("cluster-1d", n=14)
    finally:
        models.cz_circuit.cache_clear()


def test_cocycle_entangler_with_one_phase_changed_is_caught():
    # One entry of one gate's phase table moves by one unit of 1/modulus
    # turns: the diagonal is no longer invariant under the on-site action.
    bundle = build_model("cocycle-z2z2", sites=4)
    circuit = bundle.entangler
    first = circuit.gates[0]
    numerators = ((first.numerators[0] + 1) % first.modulus,) + first.numerators[1:]
    changed = replace(first, numerators=numerators)
    gates = [changed, *circuit.gates[1:]]
    broken = replace(bundle, entangler=CocycleCircuit(circuit.group, circuit.num_sites, gates))
    models._check_bundle(bundle)
    with pytest.raises(AssertionError, match="^cocycle entangler is not symmetric as a whole$"):
        models._check_bundle(broken)


def test_lsm_dimer_translation_maps_trivial_to_target():
    bundle = build_model("lsm-dimer", n=4)
    moved = bundle.trivial.apply_circuit(bundle.entangler)
    assert moved.same_state(bundle.target)
    assert not bundle.trivial.same_state(bundle.target)


def test_lieb_bundle_shape():
    bundle = build_model("lieb-2d", lx=2, ly=2)
    assert bundle.n == 12
    cz_count = sum(len(layer) for layer in bundle.entangler.layers)
    assert cz_count == 16  # one CZ per edge-vertex incidence


def test_square_bundle_shape():
    bundle = build_model("square-sspt", l=3)
    assert bundle.n == 9
    cz_count = sum(len(layer) for layer in bundle.entangler.layers)
    assert cz_count == 18


@pytest.mark.parametrize(
    "model,params,kinds",
    [
        ("lsm-dimer", {"n": 8}, ("ghz", "superposition", "gapless", "long-range-bell")),
        (
            "cluster-1d",
            {"n": 8},
            ("ghz", "ghz-one-sublattice", "superposition", "gapless", "swssb", "group-average"),
        ),
        ("lieb-2d", {"lx": 2, "ly": 2}, ("ghz-vertices", "toric-code", "lieb-mixed")),
        ("square-sspt", {"l": 3}, ("pim-symmetric", "group-average")),
        ("cocycle-z2z2", {"sites": 4}, ("ghz", "superposition", "gapless")),
    ],
)
def test_registry_catalysts_build_and_validate(model, params, kinds):
    bundle = build_model(model, **params)
    for kind in kinds:
        cat = build_catalyst(bundle, kind)
        assert cat.name == kind


# (engine, mixed) of every registry catalyst at the criterion sizes.
CATALYST_TABLE = {
    ("lsm-dimer", "ghz"): ("stabilizer", False),
    ("lsm-dimer", "superposition"): ("dense", False),
    ("lsm-dimer", "gapless"): ("dense", False),
    ("lsm-dimer", "long-range-bell"): ("stabilizer", False),
    ("cluster-1d", "ghz"): ("stabilizer", False),
    ("cluster-1d", "ghz-one-sublattice"): ("stabilizer", False),
    ("cluster-1d", "superposition"): ("dense", False),
    ("cluster-1d", "gapless"): ("dense", False),
    ("cluster-1d", "swssb"): ("stabilizer", True),
    ("cluster-1d", "group-average"): ("stabilizer", True),
    ("lieb-2d", "ghz-vertices"): ("stabilizer", False),
    ("lieb-2d", "toric-code"): ("stabilizer", False),
    ("lieb-2d", "lieb-mixed"): ("stabilizer", True),
    ("square-sspt", "pim-symmetric"): ("stabilizer", False),
    ("square-sspt", "group-average"): ("stabilizer", True),
    ("cocycle-z2z2", "ghz"): ("dense", False),
    ("cocycle-z2z2", "superposition"): ("dense", False),
    ("cocycle-z2z2", "gapless"): ("dense", False),
}


@pytest.mark.parametrize("model, params", CATALYSIS_MATRIX + [("cocycle-z2z2", {"sites": 4})])
def test_catalyst_name_engine_and_mixedness_follow_from_the_state(model, params):
    assert catalyst_kinds(model) == tuple(k for m, k in CATALYST_TABLE if m == model)
    bundle = build_model(model, **params)
    for kind in catalyst_kinds(model):
        cat = build_catalyst(bundle, kind)
        assert (cat.name, cat.engine, cat.mixed) == (kind, *CATALYST_TABLE[(model, kind)])
        assert catalyst_is_dense(model, kind) == (cat.engine == "dense")


def test_cluster_ghz_pair_is_entangler_invariant():
    bundle = build_model("cluster-1d", n=8)
    cat = build_catalyst(bundle, "ghz")
    assert is_invariant(cat.stab, bundle.entangler)


def test_toric_code_catalyst_stabilizers():
    bundle = build_model("lieb-2d", lx=2, ly=2)
    cat = build_catalyst(bundle, "toric-code")
    lat = bundle.lattice
    for edges in lat.plaquettes():
        assert cat.stab.membership_sign(PauliOperator.x_at(bundle.n, *edges)) == 1
    assert cat.stab.is_pure


def test_pim_symmetric_is_pure_at_3x3():
    bundle = build_model("square-sspt", l=3)
    cat = build_catalyst(bundle, "pim-symmetric")
    assert cat.stab.is_pure
    lat = bundle.lattice
    for v in range(bundle.n):
        plaquette = PauliOperator.z_at(bundle.n, *lat.neighbors(v))
        assert cat.stab.membership_sign(plaquette) == 1


def test_superposition_catalyst_translation_invariant():
    bundle = build_model("lsm-dimer", n=8)
    cat = build_catalyst(bundle, "superposition")
    moved = apply_gates(cat.dense_state, bundle.entangler.perm, ())
    assert abs(overlap(moved, cat.dense_state)) == pytest.approx(1, abs=1e-10)


def test_gapless_catalyst_symmetric_eigenvalues():
    bundle = build_model("cluster-1d", n=8)
    cat = build_catalyst(bundle, "gapless")
    state = cat.dense_state
    for gen in bundle.symmetry.generators:
        from catalab.dense import apply_pauli

        moved = apply_pauli(state, gen.pauli)
        assert complex(np.vdot(state.amps, moved.amps)) == pytest.approx(1, abs=1e-9)


def test_degenerate_catalyst_sum_across_sectors_is_refused(monkeypatch):
    # A ground level split between the two X-all sectors: each sector's
    # ground state is unique, so only the count over all sectors sees it.
    bundle = build_model("cluster-1d", n=4)
    x_all = BasisMap("x-all", *pauli_basis_map(PauliOperator.x_at(4, *range(4))))
    chain = [(-1.0, PauliOperator.z_at(4, i, i + 1)) for i in range(3)]
    op = DenseOperator.from_pauli_terms(4, chain, (x_all,))
    monkeypatch.setattr(models, "build_hamiltonian", lambda bundle, kind: op)
    with pytest.raises(AssertionError, match=r"degenerate ground space \(2 states\)"):
        build_catalyst(bundle, "gapless")


@pytest.mark.parametrize("flip", [0, 5, 15])
@pytest.mark.parametrize("which", [0, 1])
def test_one_flipped_sign_in_a_symmetry_map_is_refused(which, flip):
    # lsm-dimer's maps are x-all (an involution pairing s with its
    # complement) and z-all (diagonal): a flipped sign breaks the first's
    # square, and the second's commutation with x-all and with the XX terms.
    op = build_hamiltonian(build_model("lsm-dimer", n=4), "triv")
    maps = list(op.symmetry)
    sign = maps[which].sign.copy()
    sign[flip] *= -1
    maps[which] = BasisMap(maps[which].name, maps[which].image, sign)
    for symmetry in (maps, [maps[which]]):
        with pytest.raises(ValueError, match=maps[which].name):
            ground_state(DenseOperator(op.sites, op.q, op.terms, tuple(symmetry)))


def _dense_circuit_unitary(circuit, n):
    u = np.eye(1 << n, dtype=np.complex128)
    for layer in circuit.layers:
        for gate in layer:
            u = embed_operator(gate_unitary(gate), list(gate.support), n, 2) @ u
    return u


def full_matrix(op):
    return sum(embed_operator(mat, support, op.sites, op.q) for support, mat in op.terms)


def test_interpolated_hamiltonian_commutes_with_entangler():
    bundle = build_model("cluster-1d", n=8)
    h = full_matrix(build_hamiltonian(bundle, "interpolated", alpha=0.5))
    u = _dense_circuit_unitary(bundle.entangler, 8)
    assert np.linalg.norm(h @ u - u @ h) < 1e-10
    # away from the self-dual point the commutator does not vanish
    h_away = full_matrix(build_hamiltonian(bundle, "interpolated", alpha=0.3))
    assert np.linalg.norm(h_away @ u - u @ h_away) > 1e-6


@pytest.mark.parametrize("model, params", [("cluster-1d", {"n": 6}), ("cocycle-z2z2", {"sites": 3})])
def test_each_hamiltonian_kind_is_its_weighted_sum_of_the_trivial_and_entangled_sides(model, params):
    # Qubit and qudit models share one dispatch: interpolated is the alpha-
    # weighted sum of triv and spt, and catalyst-sum their plain sum.
    bundle = build_model(model, **params)
    triv, spt = (full_matrix(build_hamiltonian(bundle, kind)) for kind in ("triv", "spt"))
    assert np.linalg.norm(triv - spt) > 1
    h = full_matrix(build_hamiltonian(bundle, "interpolated", alpha=0.3))
    assert np.abs(h - (0.3 * triv + 0.7 * spt)).max() <= 1e-12
    assert np.abs(full_matrix(build_hamiltonian(bundle, "catalyst-sum")) - (triv + spt)).max() <= 1e-12


def test_lsm_catalyst_sum_self_dual():
    # conjugating every term by translation permutes the term set
    bundle = build_model("lsm-dimer", n=8)
    h = build_hamiltonian(bundle, "catalyst-sum")
    terms = {tuple(sorted(support)) for support, _ in h.terms}
    moved = {tuple(sorted((s + 1) % 8 for s in support)) for support, _ in h.terms}
    assert terms == moved


def test_trivial_hamiltonian_ground_state():
    bundle = build_model("cluster-1d", n=4)
    from catalab.dense import ground_state

    energy, basis = ground_state(build_hamiltonian(bundle, "triv"))
    assert energy == pytest.approx(-4.0, abs=1e-9)
    assert len(basis) == 1
    plus = DenseState.uniform(2, 4)
    assert abs(np.vdot(basis[0], plus.amps)) == pytest.approx(1, abs=1e-10)


def test_unknown_catalyst_kind():
    bundle = build_model("cluster-1d", n=8)
    known = "('ghz', 'ghz-one-sublattice', 'superposition', 'gapless', 'swssb', 'group-average')"
    with pytest.raises(RegistryError) as err:
        build_catalyst(bundle, "no-such-catalyst")
    assert str(err.value).endswith(f"; known: {known}")


def test_cocycle_bundle_checks():
    bundle = build_model("cocycle-z2z2", sites=4)
    state = bundle.trivial_dense()
    target = bundle.target_dense()
    assert abs(overlap(bundle.entangler.apply(state), target)) == pytest.approx(
        1, abs=1e-10
    )


@pytest.mark.parametrize("fault", ["wrong-cocycle", "dropped-gate"])
def test_wrong_cocycle_circuit_is_caught_at_build_time(monkeypatch, fault):
    # The target is written from nu directly, so a circuit compiled from
    # the (1,0) bilinear cocycle instead of the (0,1) one, or missing one
    # gate, no longer matches it.
    real = cohomology.compile_cocycle_circuit

    def compile_wrong(nu, simplices, sites):
        if fault == "wrong-cocycle":
            return real(normalize_cocycle(bilinear_cocycle(nu.group, 1, 0)), simplices, sites)
        circuit = real(nu, simplices, sites)
        return CocycleCircuit(circuit.group, circuit.num_sites, circuit.gates[1:])

    monkeypatch.setattr(cohomology, "compile_cocycle_circuit", compile_wrong)
    with pytest.raises(AssertionError, match="cocycle target mismatch"):
        build_model("cocycle-z2z2", sites=4)


def test_swssb_equals_group_average_for_cluster():
    bundle = build_model("cluster-1d", n=8)
    a = build_catalyst(bundle, "swssb")
    b = build_catalyst(bundle, "group-average")
    assert a.stab.same_state(b.stab)


def test_spt_hamiltonian_ground_state_is_target():
    bundle = build_model("cluster-1d", n=6)
    from catalab.dense import ground_state, stabilizer_to_dense

    energy, basis = ground_state(build_hamiltonian(bundle, "spt"))
    assert energy == pytest.approx(-6.0, abs=1e-9)
    cluster = stabilizer_to_dense(bundle.target)
    assert abs(np.vdot(basis[0], cluster.amps)) == pytest.approx(1, abs=1e-10)


def test_lieb_hamiltonian_terms_are_cluster_terms():
    bundle = build_model("lieb-2d", lx=2, ly=2)
    h = build_hamiltonian(bundle, "spt")
    lat = bundle.lattice
    supports = {support for support, _ in h.terms}
    # every vertex term touches the vertex and its four incident edges
    v = lat.vertex(0, 0)
    star = tuple(sorted([v, lat.h_edge(0, 0), lat.h_edge(-1, 0), lat.v_edge(0, 0), lat.v_edge(0, -1)]))
    assert star in supports


@pytest.mark.parametrize("kind", ["superposition", "gapless"])
def test_dense_catalyst_past_the_limit_is_refused_before_allocating(kind):
    # 2^32 amplitudes: refused by the limit check, never allocated.
    with pytest.raises(ValueError, match="^dense state of 4294967296 amplitudes exceeds the configured limit$"):
        build_catalyst(build_model("cluster-1d", n=32), kind)


def test_dense_limit_override(monkeypatch):
    from catalab.dense import DenseState

    monkeypatch.setenv("CATALAB_DENSE_LIMIT", "4")
    with pytest.raises(ValueError):
        DenseState.uniform(2, 3)
    monkeypatch.delenv("CATALAB_DENSE_LIMIT")
    DenseState.uniform(2, 3)
