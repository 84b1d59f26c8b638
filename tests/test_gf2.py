import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalab.gf2 import (
    hermite_column_basis,
    lattice_quotient,
    smith_normal_form_int,
    solve_mod,
    span_basis,
    span_combination,
)

from test_differential import reference_rowspace_intersection


def _bits(values):
    return sum((v & 1) << i for i, v in enumerate(values))


def _rank(rows, ncols):
    return len(span_basis(rows, ncols)[1])


def _solve(rows, ncols, b):
    """A·x = b (b packed over the rows) as a combination of A's columns."""
    columns = [sum((row >> c & 1) << r for r, row in enumerate(rows)) for c in range(ncols)]
    return span_combination(span_basis(columns, len(rows)), b)


def test_rank_identity():
    assert _rank([0b001, 0b010, 0b100], 3) == 3


def test_rank_equal_rows():
    assert _rank([0b11, 0b11], 2) == 1


def test_rank_zero_matrix():
    assert _rank([0, 0, 0], 4) == 0


def test_solve_identity():
    assert _solve([0b01, 0b10], 2, _bits([1, 0])) == _bits([1, 0])


def test_solve_free_variable_rule():
    # Two solutions exist; the deterministic rule picks free variables = 0.
    assert _solve([0b11], 2, _bits([1])) == _bits([1, 0])


def test_solve_inconsistent():
    assert _solve([1, 1], 1, _bits([1, 0])) is None


def test_span_basis_rejects_bits_outside_the_columns():
    for row in (1 << 3, (1 << 3) | 1, 1 << 40, -1):
        with pytest.raises(ValueError, match="^row has bits outside the declared column range$"):
            span_basis([0b001, row], 3)
    assert _rank([0b111], 3) == 1 and span_basis([], 3) == ([], [], [], {})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_rank_nullity(nrows, ncols, data):
    rows = [data.draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows)]
    # The kernel, by enumeration of all 2^ncols vectors.
    kernel = sum(
        1 for x in range(1 << ncols) if not any((row & x).bit_count() & 1 for row in rows)
    )
    assert kernel == 1 << (ncols - _rank(rows, ncols))


def test_solve_against_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        nrows = int(rng.integers(1, 7))
        ncols = int(rng.integers(1, 9))
        rows = [int(rng.integers(0, 1 << ncols)) for _ in range(nrows)]
        b = [int(rng.integers(0, 2)) for _ in range(nrows)]
        # Oracle: exhaustive search over all 2^ncols candidates.
        expected_exists = False
        for x in range(1 << ncols):
            if all(((rows[r] & x).bit_count() & 1) == b[r] for r in range(nrows)):
                expected_exists = True
                break
        xmask = _solve(rows, ncols, _bits(b))
        assert (xmask is not None) == expected_exists
        if xmask is not None:
            assert all(((rows[r] & xmask).bit_count() & 1) == b[r] for r in range(nrows))


def test_span_basis_transform_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ncols = int(rng.integers(1, 10))
        nrows = int(rng.integers(1, 8))
        rows = [int(rng.integers(0, 1 << ncols)) for _ in range(nrows)]
        red, pivots, transform, _ = span_basis(rows, ncols)
        for r in range(nrows):
            acc = 0
            for j in range(nrows):
                if (transform[r] >> j) & 1:
                    acc ^= rows[j]
            assert acc == red[r]


def test_rowspace_intersection_rejects_a_rows_b_row_outside_the_columns():
    # The fidelity oracle's intersection: masking the row would intersect
    # with a row that was never given.
    for row in (1 << 3, (1 << 5) | 1, -1):
        with pytest.raises(ValueError, match="^row has bits outside the declared column range$"):
            reference_rowspace_intersection([0b001], [row], 3)


def test_rowspace_intersection_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(100):
        cols = int(rng.integers(1, 7))
        ra = [int(rng.integers(0, 1 << cols)) for _ in range(int(rng.integers(1, 4)))]
        rb = [int(rng.integers(0, 1 << cols)) for _ in range(int(rng.integers(1, 4)))]
        inter = reference_rowspace_intersection(ra, rb, cols)

        def span(rows):
            vals = {0}
            for r in rows:
                vals |= {v ^ r for v in vals}
            return vals

        expected = span(ra) & span(rb)
        got = span(inter)
        assert got == expected


def test_smith_identity_mod4():
    diagonal = smith_normal_form_int([[1, 0], [0, 1]]).diagonal
    assert tuple(math.gcd(d, 4) for d in diagonal) == (1, 1)


def test_smith_two_two_mod4():
    diagonal = smith_normal_form_int([[2, 0], [0, 2]]).diagonal
    assert tuple(math.gcd(d, 4) for d in diagonal) == (2, 2)


def test_smith_transform_pullback():
    rng = np.random.default_rng(3)
    for _ in range(60):
        nr = int(rng.integers(1, 5))
        nc = int(rng.integers(1, 5))
        a = [[int(rng.integers(-6, 7)) for _ in range(nc)] for _ in range(nr)]
        dec = smith_normal_form_int(a)
        # U A V == D exactly
        ua = [[sum(dec.u[i][k] * a[k][j] for k in range(nr)) for j in range(nc)] for i in range(nr)]
        uav = [[sum(ua[i][k] * dec.v[k][j] for k in range(nc)) for j in range(nc)] for i in range(nr)]
        for i in range(nr):
            for j in range(nc):
                expected = dec.diagonal[i] if i == j and i < len(dec.diagonal) else 0
                assert uav[i][j] == expected
        # divisibility chain
        diag = [d for d in dec.diagonal if d != 0]
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0
        # the recorded inverse of U, and V unimodular
        uui = [[sum(dec.u[i][k] * dec.u_inv[k][j] for k in range(nr)) for j in range(nr)] for i in range(nr)]
        assert uui == [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
        assert round(abs(np.linalg.det(np.array(dec.v, dtype=float)))) == 1


def test_solve_mod_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        modulus = int(rng.choice([2, 3, 4, 6]))
        nr = int(rng.integers(1, 4))
        nc = int(rng.integers(1, 4))
        a = [[int(rng.integers(0, modulus)) for _ in range(nc)] for _ in range(nr)]
        b = [int(rng.integers(0, modulus)) for _ in range(nr)]
        got = solve_mod(a, b, modulus)
        # Oracle: exhaustive enumeration.
        expected_exists = False
        for xi in range(modulus**nc):
            x = [(xi // modulus**j) % modulus for j in range(nc)]
            if all(sum(a[i][j] * x[j] for j in range(nc)) % modulus == b[i] % modulus for i in range(nr)):
                expected_exists = True
                break
        assert (got is not None) == expected_exists
        if got is not None:
            assert all(
                sum(a[i][j] * got[j] for j in range(nc)) % modulus == b[i] % modulus
                for i in range(nr)
            )


def test_hermite_basis_full_rank():
    cols = [[2, 0], [0, 3], [4, 0], [0, 4]]
    basis = hermite_column_basis(cols, 2)
    assert len(basis) == 2
    assert basis[0][0] > 0 and basis[1][1] > 0


def test_lattice_quotient_simple():
    # (<e1> + 2Z^2) / 2Z^2 = Z_2.
    factors, reps = lattice_quotient([[1, 0]], [], 2, 2)
    assert factors == (2,)
    # Z_2^2 / <e1> = Z_2 generated by e2.
    factors, reps = lattice_quotient([[1, 0], [0, 1]], [[1, 0]], 2, 2)
    assert factors == (2,)
    assert reps[0][1] % 2 == 1


def test_lattice_quotient_z4():
    # <1> / <2> inside Z_4 is Z_2.
    factors, _ = lattice_quotient([[1]], [[2]], 1, 4)
    assert factors == (2,)
