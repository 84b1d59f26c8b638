import numpy as np
import pytest

from catalab.pauli import PauliOperator, SiteSet

I2 = np.eye(2, dtype=complex)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
ZM = np.diag([1.0, -1.0]).astype(complex)
YM = 1j * XM @ ZM  # standard Y


def dense(p: PauliOperator) -> np.ndarray:
    """Independent oracle: i^phase times a kron of per-site X^x Z^z factors."""
    mat = np.array([[1.0 + 0j]])
    for site in range(p.n):
        local = np.eye(2, dtype=complex)
        if (p.x >> site) & 1:
            local = XM @ local
        if (p.z >> site) & 1:
            local = local @ ZM
        mat = np.kron(local, mat)  # site 0 least significant
    return (1j**p.phase) * mat


def test_single_qubit_products():
    x = PauliOperator.from_string("X")
    z = PauliOperator.from_string("Z")
    assert (x * z).to_string() == "-iY"
    assert (z * x).to_string() == "+iY"


def test_two_qubit_product():
    xx = PauliOperator.from_string("XX")
    zz = PauliOperator.from_string("ZZ")
    assert (xx * zz).to_string() == "-YY"


def test_commutes():
    n2 = PauliOperator
    assert not n2.x_at(2, 1).commutes(n2.z_at(2, 1))
    assert n2.x_at(2, 1).commutes(n2.z_at(2, 0))
    assert PauliOperator.from_string("XX").commutes(PauliOperator.from_string("ZZ"))


def test_support():
    assert PauliOperator.identity(5).support() == SiteSet()
    assert PauliOperator.z_at(5, 1, 3).support() == SiteSet([1, 3])
    assert PauliOperator.from_string("ZXZ").support() == SiteSet([0, 1, 2])


def test_multiply_matches_dense_exhaustively():
    # All Pauli letter pairs on n <= 3 qubits, trivial input phases.
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
        for p in ops:
            for q in ops:
                got = dense(p * q)
                expected = dense(p) @ dense(q)
                assert np.allclose(got, expected, atol=1e-12)


def test_multiply_matches_dense_with_phases():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        p = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        q = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        assert np.allclose(dense(p * q), dense(p) @ dense(q), atol=1e-12)


def test_phase_algebra_property():
    # multiply(p,q) * multiply(q,p)^-1 = (-1)^<p,q> * identity
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        p = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        q = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        lhs = (p * q) * (q * p).dagger()
        expected_phase = 2 * p.symplectic_product(q)
        assert lhs.x == 0 and lhs.z == 0
        assert lhs.phase == expected_phase


def test_inverse_and_dagger():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        p = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        assert (p * p.dagger()).is_identity()
        assert np.allclose(dense(p.dagger()), dense(p).conj().T, atol=1e-12)


def test_hermitian_predicate():
    assert PauliOperator.from_string("+XIZY").is_hermitian()
    assert PauliOperator.from_string("-iZZ").is_hermitian() is False
    assert PauliOperator.y_at(3, 1).is_hermitian()


def test_string_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        p = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        assert PauliOperator.from_string(p.to_string()) == p
    for text in ("+XIZY", "-iZZ", "+III", "-Y"):
        assert PauliOperator.from_string(text).to_string() == text


def test_tensor():
    a = PauliOperator.from_string("X")
    b = PauliOperator.from_string("Z")
    assert a.tensor(b).to_string() == "+XZ"


def test_restrict():
    p = PauliOperator.from_string("XYZ")
    assert p.restrict([0, 2]).to_string() == "+XIZ"


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        PauliOperator.identity(2) * PauliOperator.identity(3)


@pytest.mark.parametrize("x, z", [(1 << 3, 0), (0, 0b1001), (-1, 0), (0, -2), (-1, -1)])
def test_bits_outside_the_register_raise(x, z):
    with pytest.raises(ValueError):
        PauliOperator(3, x, z)


def test_phase_is_reduced_mod_4():
    assert PauliOperator(3, 0b111, 0b100, 7) == PauliOperator(3, 0b111, 0b100, 3)
    assert PauliOperator(3, 0, 0, -1).phase == 3


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.data())
def test_multiplication_associative(n, data):
    def draw_pauli():
        return PauliOperator(
            n,
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, 3)),
        )

    p, q, r = draw_pauli(), draw_pauli(), draw_pauli()
    assert (p * q) * r == p * (q * r)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.data())
def test_dagger_is_involution_and_antihomomorphism(n, data):
    def draw_pauli():
        return PauliOperator(
            n,
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, 3)),
        )

    p, q = draw_pauli(), draw_pauli()
    assert p.dagger().dagger() == p
    assert (p * q).dagger() == q.dagger() * p.dagger()
