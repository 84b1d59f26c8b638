import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalab import cohomology
from catalab.cohomology import (
    Cochain,
    FiniteAbelianGroup,
    bilinear_cocycle,
    class_order,
    coboundary,
    cohomology_group,
    compile_cocycle_circuit,
    from_inhomogeneous,
    inhomogeneous_delta_matrix,
    is_cocycle,
    normalize_cocycle,
    ring_triangulation,
    to_inhomogeneous,
)
from catalab.dense import DenseState, apply_local_unitary, apply_site_relabel, overlap

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z2Z2 = FiniteAbelianGroup((2, 2))


def random_cochain(rng, group, degree, modulus):
    table = {
        t: int(rng.integers(0, modulus))
        for t in itertools.product(group.elements(), repeat=degree + 1)
    }
    return Cochain(group, degree, modulus, table)


def test_group_basics():
    assert Z2Z2.order == 4
    assert Z2Z2.exponent == 2
    els = Z2Z2.elements()
    assert els[0] == (0, 0)
    for idx, e in enumerate(els):
        assert Z2Z2.index(e) == idx
        assert Z2Z2.element(idx) == e
    assert Z3.add((1,), (2,)) == (0,)
    assert Z3.neg((1,)) == (2,)


# Inputs the old cochain-table limit admitted and that ran past a minute:
# the coboundary matrix has order^(2 degree + 1) entries.
@pytest.mark.parametrize(
    "factors, degree, entries",
    [
        ((3, 3), 3, 9**7),
        ((2, 4), 3, 8**7),
        ((4,), 4, 4**9),
        ((2, 2), 4, 4**9),
        ((2,), 9, 2**19),
        ((3,), 5, 3**11),
    ],
)
def test_cohomology_refuses_a_coboundary_past_the_limit(monkeypatch, factors, degree, entries):
    # Should the limit let one through, the matrix build fails at once
    # rather than running for minutes.
    monkeypatch.setattr(cohomology, "inhomogeneous_delta_matrix", None)
    group = FiniteAbelianGroup(factors)
    message = (
        f"the degree-{degree} coboundary matrix of a group of order {group.order} "
        f"has {entries} entries, over the limit of 131072"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        cohomology_group(group, degree)


def test_the_coboundary_limit_admits_exactly_its_entry_count(monkeypatch):
    # Z2 at degree 8 has 2^17 entries, the limit itself: it gets past the
    # check to the matrix build, stopped here so that nothing is reduced.
    class Reached(Exception):
        pass

    def reached(group, degree):
        raise Reached

    monkeypatch.setattr(cohomology, "inhomogeneous_delta_matrix", reached)
    with pytest.raises(Reached):
        cohomology_group(Z2, 8)


@pytest.mark.parametrize("degree", [-1, -3])
def test_cohomology_refuses_a_negative_degree_by_name(degree):
    with pytest.raises(ValueError, match=f"^the cohomology degree must be at least 0, got {degree}$"):
        cohomology_group(Z2, degree)


def test_coboundary_of_zero():
    z = Cochain.from_function(Z2, 1, 2, lambda *_: 0)
    assert coboundary(z).is_zero()


def test_coboundary_squared_random():
    rng = np.random.default_rng(0)
    for group, modulus in ((Z2, 2), (Z3, 3)):
        for _ in range(1000):
            c = random_cochain(rng, group, 1, modulus)
            assert coboundary(coboundary(c)).is_zero()


def test_coboundary_alternating_formula():
    # Direct evaluation for a specific Z2 1-cochain.
    lam = Cochain.from_function(Z2, 1, 2, lambda g0, g1: g0[0] * g1[0])
    d_lam = coboundary(lam)
    for g0, g1, g2 in itertools.product(Z2.elements(), repeat=3):
        expected = (g1[0] * g2[0] - g0[0] * g2[0] + g0[0] * g1[0]) % 2
        assert d_lam.table[(g0, g1, g2)] == expected


def test_coboundaries_are_cocycles():
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = random_cochain(rng, Z2, 1, 2)
        assert is_cocycle(coboundary(lam))


@pytest.mark.parametrize("factors", [(2, 2), (2, 4), (2, 6), (3, 6), (2, 3)])
@pytest.mark.parametrize("i, j", [(0, 1), (1, 0)])
def test_bilinear_cocycle_is_a_cocycle(factors, i, j):
    # Unequal factors need the 1/gcd(f_i, f_j) scale for the phase to
    # depend only on the residues mod f_i and f_j.
    nu = bilinear_cocycle(FiniteAbelianGroup(factors), i, j)
    assert nu.modulus == math.lcm(*factors)
    assert is_cocycle(nu)


def test_perturbed_cocycle_is_not_closed():
    nu = bilinear_cocycle(Z2Z2, 0, 1)
    assert is_cocycle(nu)
    t0 = next(iter(nu.table))
    table = dict(nu.table)
    table[t0] = (table[t0] + 1) % nu.modulus
    assert not is_cocycle(Cochain(Z2Z2, 2, nu.modulus, table))


def test_inhomogeneous_round_trip():
    rng = np.random.default_rng(2)
    for group, modulus in ((Z2, 2), (Z2Z2, 2), (Z3, 3)):
        vec = [int(rng.integers(0, modulus)) for _ in range(group.order**2)]
        c = from_inhomogeneous(group, 2, modulus, vec)
        assert c.is_equivariant()
        assert to_inhomogeneous(c) == vec


def test_delta_matrix_matches_homogeneous():
    rng = np.random.default_rng(3)
    for group, modulus in ((Z2, 2), (Z3, 3)):
        dmat = inhomogeneous_delta_matrix(group, 1)
        for _ in range(20):
            vec = [int(rng.integers(0, modulus)) for _ in range(group.order)]
            hom = from_inhomogeneous(group, 1, modulus, vec)
            lhs = to_inhomogeneous(coboundary(hom))
            rhs = [
                sum(dmat[r][c] * vec[c] for c in range(len(vec))) % modulus
                for r in range(len(dmat))
            ]
            assert lhs == rhs


def enumeration_class_count(group, modulus):
    """Oracle: exhaustively count 2-cocycle classes over (1/M)Z/Z."""
    dim1 = group.order
    dim2 = group.order**2
    d2 = inhomogeneous_delta_matrix(group, 2)
    d1 = inhomogeneous_delta_matrix(group, 1)
    cocycles = set()
    for vals in itertools.product(range(modulus), repeat=dim2):
        if all(
            sum(d2[r][c] * vals[c] for c in range(dim2)) % modulus == 0
            for r in range(len(d2))
        ):
            cocycles.add(vals)
    coboundaries = set()
    for vals in itertools.product(range(modulus), repeat=dim1):
        img = tuple(
            sum(d1[r][c] * vals[c] for c in range(dim1)) % modulus for r in range(len(d1))
        )
        coboundaries.add(img)
    return len(cocycles) // len(coboundaries)


def test_h2_z2():
    result = cohomology_group(Z2, 2)
    assert result.invariant_factors == (2,)
    assert enumeration_class_count(Z2, 2) == 2


def test_h2_z2z2_contains_the_entangler_class():
    result = cohomology_group(Z2Z2, 2)
    # Over (1/2)Z/Z coefficients the group is Z2^3; the U(1) entangler class
    # sits inside it.
    assert result.invariant_factors == (2, 2, 2)
    for rep in result.representatives:
        assert is_cocycle(rep)
        assert rep.is_equivariant()
        assert class_order(rep) > 1


def test_h1_z3():
    result = cohomology_group(Z3, 1)
    assert result.invariant_factors == (3,)
    rep = result.representatives[0]
    assert is_cocycle(rep)
    assert class_order(rep) == 3


def test_class_order():
    assert class_order(Cochain.from_function(Z2Z2, 2, 2, lambda *_: 0)) == 1
    assert class_order(bilinear_cocycle(Z2Z2, 0, 1)) == 2


def test_normalize_trivial():
    out = normalize_cocycle(Cochain.from_function(Z2Z2, 2, 2, lambda *_: 0))
    assert out.is_zero()


def test_normalize_h2_z2_representative():
    nu = cohomology_group(Z2, 2).representatives[0]
    out = normalize_cocycle(nu)
    ell = class_order(nu)
    for v in out.table.values():
        assert (ell * v) % out.modulus == 0
    for g in Z2.elements():
        assert out.table[((0,), g, g)] == 0
    assert is_cocycle(out)
    # cohomologous to the input: the difference class is trivial
    lift = out.modulus // nu.modulus
    diff = Cochain.from_function(
        Z2, 2, out.modulus, lambda *t: lift * nu.table[t] - out.table[t]
    )
    assert class_order(diff) == 1


def test_normalize_cluster_class():
    nu = bilinear_cocycle(Z2Z2, 0, 1)
    out = normalize_cocycle(nu)
    for g in Z2Z2.elements():
        assert out.table[((0, 0), g, g)] == 0
    for v in out.table.values():
        assert (2 * v) % out.modulus == 0


def test_compile_trivial_is_identity():
    nu = Cochain.from_function(Z2Z2, 2, 2, lambda *_: 0)
    circuit = compile_cocycle_circuit(nu, ring_triangulation(4), 4)
    state = DenseState.uniform(4, 4)
    out = circuit.apply(state)
    assert abs(overlap(out, state)) == pytest.approx(1, abs=1e-12)


def cz_ring_dense(n):
    state = DenseState.uniform(2, n)
    czm = np.diag([1.0, 1, 1, -1]).astype(complex)
    for i in range(n):
        state = apply_local_unitary(state, czm, [i, (i + 1) % n])
    return state


def test_compiled_cluster_class_matches_cluster_state():
    # Sites of dimension 4 regroup into qubit pairs (2i, 2i+1); the group
    # tuple (a, b) at site i maps a -> qubit 2i+1, b -> qubit 2i (the
    # lexicographic index convention).
    nu = normalize_cocycle(bilinear_cocycle(Z2Z2, 0, 1))
    circuit = compile_cocycle_circuit(nu, ring_triangulation(4), 4)
    state = circuit.apply(DenseState.uniform(4, 4))
    cluster = cz_ring_dense(8)
    fidelity = abs(np.vdot(state.amps, cluster.amps))
    assert fidelity >= 1 - 1e-10


def test_compiled_circuit_squares_to_identity():
    nu = normalize_cocycle(bilinear_cocycle(Z2Z2, 0, 1))
    circuit = compile_cocycle_circuit(nu, ring_triangulation(4), 4)
    assert circuit.order() == 2
    rng = np.random.default_rng(7)
    amps = rng.normal(size=4**4) + 1j * rng.normal(size=4**4)
    amps /= np.linalg.norm(amps)
    state = DenseState(4, 4, amps)
    out = circuit.apply(circuit.apply(state))
    assert np.allclose(out.amps, state.amps, atol=1e-12)


def test_compiled_state_is_symmetric():
    nu = normalize_cocycle(bilinear_cocycle(Z2Z2, 0, 1))
    circuit = compile_cocycle_circuit(nu, ring_triangulation(4), 4)
    state = circuit.apply(DenseState.uniform(4, 4))
    for g in Z2Z2.elements():
        mapping = [Z2Z2.index(Z2Z2.add(g, h)) for h in Z2Z2.elements()]
        moved = apply_site_relabel(state, mapping)
        assert abs(overlap(moved, state)) == pytest.approx(1, abs=1e-10)


def test_normalized_circuit_fixes_uniform_site_states():
    nu = normalize_cocycle(bilinear_cocycle(Z2Z2, 0, 1))
    circuit = compile_cocycle_circuit(nu, ring_triangulation(4), 4)
    for g in Z2Z2.elements():
        idx = sum(Z2Z2.index(g) * 4**i for i in range(4))
        state = DenseState.computational(4, 4, idx)
        out = circuit.apply(state)
        assert abs(overlap(out, state)) == pytest.approx(1, abs=1e-12)


def test_compile_degree_mismatch():
    nu = Cochain.from_function(Z2Z2, 2, 2, lambda *_: 0)
    with pytest.raises(ValueError):
        compile_cocycle_circuit(nu, [((0, 1, 2), 1)], 4)


def test_cochain_json_round_trip():
    nu = bilinear_cocycle(Z2Z2, 0, 1)
    back = Cochain.from_json_dict(nu.to_json_dict())
    assert back.table == nu.table
    assert back.modulus == nu.modulus



def _zero_payload(edit):
    """The Z2 x Z2 degree-2 zero cocycle's payload, changed by edit."""
    payload = Cochain.from_function(Z2Z2, 2, 2, lambda *_: 0).to_json_dict()
    edit(payload)
    return payload


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["entries"][5].update(den=4), "has den 4, the first entry has 2"),
        (lambda p: p["entries"][5].update(tuple=[[0, 0], [0, 1], [5, 7]]), "not 3 elements"),
        (lambda p: p["entries"][5].update(tuple=[[0, 0], [0, 1]]), "not 3 elements"),
        (lambda p: p["entries"][5].update(tuple=[[0, 0], [0, 1], [1, True]]), "not 3 elements"),
        (lambda p: p["entries"][5].update(num="1"), "num '1', not an integer in"),
        (lambda p: p["entries"][5].update(num=3), "num 3, not an integer in"),
        (lambda p: p["entries"][5].pop("num"), "keys 'tuple', 'num', 'den'"),
        (lambda p: p.pop("degree"), "keys 'factors', 'degree', 'entries'"),
        (lambda p: p.update(degree="2"), "'degree' must be a non-negative integer"),
        (lambda p: p.update(factors=[2, 0]), "'factors' must be a list of positive integers"),
        (lambda p: p["entries"].append(dict(p["entries"][0])), "lists some tuple twice"),
        (lambda p: p["entries"].pop(), "has 63 entries, expected 64"),
        (lambda p: p["entries"][0].update(den=0), "has den 0"),
    ],
)
def test_cochain_from_json_dict_rejects_malformed_payloads(edit, message):
    with pytest.raises(ValueError, match=message):
        Cochain.from_json_dict(_zero_payload(edit))


@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(st.integers(1, 3), max_size=2),
    degree=st.sampled_from([1, 2]),
    modulus=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_cochain_json_round_trip_on_small_groups(factors, degree, modulus, seed):
    group = FiniteAbelianGroup(tuple(factors))
    nu = random_cochain(np.random.default_rng(seed), group, degree, modulus)
    back = Cochain.from_json_dict(nu.to_json_dict())
    assert (back.group, back.degree, back.modulus, back.table) == (
        nu.group, nu.degree, nu.modulus, nu.table
    )
    assert back.to_json_dict() == nu.to_json_dict()

def test_h2_z4():
    z4 = FiniteAbelianGroup((4,))
    result = cohomology_group(z4, 2)
    assert result.invariant_factors == (4,)
    assert class_order(result.representatives[0]) == 4
