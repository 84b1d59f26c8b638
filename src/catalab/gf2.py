"""Exact linear algebra over GF(2) and over Z_M.

GF(2) matrices are stored as packed bit rows (one Python int per row, bit c
of row r holding the entry (r, c)) with an explicit column count.  One
Gauss–Jordan routine does all elimination, in place on copies, and one basis
form answers every question asked of it: `span_basis` reduces the rows with
the row transform riding in low payload bits, and `span_combination` reads a
vector's combination of the rows off its pivot bits.  Z_M arithmetic (used
for cohomology exponent systems) is kept separate and works through integer
Smith normal form; there is no generic ring abstraction on purpose.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


def _reduce(rows: list[int], low: int) -> list[int]:
    """Gauss–Jordan elimination in place on the bits at and above `low`.

    Returns the pivot columns ascending (counted from bit `low`); the rows come
    back reduced in pivot order, then the vanished rows.  The bits below `low`
    ride along with every XOR as a payload: `span_basis`'s row transform.
    Each row in turn is reduced by the pivot row of its lowest set bit until
    it owns a new pivot or vanishes, then the pivot rows are cleared from the
    highest pivot down, so sparse rows cost their fill-in, not rows times
    columns (structured elimination, LaMacchia–Odlyzko).
    """
    body = -1 << low
    owner: dict[int, int] = {}  # bit length of a pivot bit -> its row
    vanished = []
    for row in rows:
        bits = row & body
        while bits and (key := (bits & -bits).bit_length()) in owner:
            row ^= owner[key]
            bits = row & body
        if bits:
            owner[key] = row
        else:
            vanished.append(row)
    keys = sorted(owner)
    taken = 0
    for key in reversed(keys):
        row = owner[key]
        bits = row & taken
        while bits:
            bit = bits & -bits
            row ^= owner[bit.bit_length()]
            bits ^= bit
        owner[key] = row
        taken |= 1 << (key - 1)
    rows[:] = [owner[key] for key in keys] + vanished
    return [key - 1 - low for key in keys]


# Reduced rows, pivot columns, row transform and pivot column -> reduced row.
SpanBasis = tuple[list[int], list[int], list[int], dict[int, int]]


def span_basis(rows: Sequence[int], cols: int) -> SpanBasis:
    """One `_reduce` of the rows with the row transform T in the low bits.

    T·A = R row by row and T is invertible; the pivot rows' transforms
    combine only the rows that raised the rank, in order, so they are
    unique.  A vanished row's transform is a dependency among the rows, and
    not unique.
    """
    k = len(rows)
    work = []
    for i, row in enumerate(rows):
        if row < 0 or row >> cols:
            raise ValueError("row has bits outside the declared column range")
        work.append((row << k) | (1 << i))
    pivots = _reduce(work, k)
    mask = (1 << k) - 1
    return [r >> k for r in work], pivots, [r & mask for r in work], {c: r for r, c in enumerate(pivots)}


def span_combination(basis: SpanBasis, vec: int) -> Optional[int]:
    """The rows (bit j for row j) of a `span_basis` whose sum is vec, or
    None when vec is outside their span; only rows that raised the rank take
    part.  A reduced row is the only one with a bit in its pivot column, so
    the rows to add are read off vec's own pivot bits, in any order."""
    red, _, transform, row_of = basis
    residue, combo, bits = vec, 0, vec
    while bits:
        low = bits & -bits
        bits ^= low
        r = row_of.get(low.bit_length() - 1)
        if r is not None:
            residue ^= red[r]
            combo ^= transform[r]
    return None if residue else combo


# ---------------------------------------------------------------------------
# Z_M matrices and integer Smith normal form
# ---------------------------------------------------------------------------


@dataclass
class SmithDecomposition:
    """U·A·V = D over the integers with U, V unimodular (U's inverse recorded)."""

    diagonal: list[int]
    u: list[list[int]]
    v: list[list[int]]
    u_inv: list[list[int]]


def _mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form_int(a: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Integer Smith normal form with full transform bookkeeping."""
    m = [list(row) for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = _mat_identity(nr)
    u_inv = _mat_identity(nr)
    v = _mat_identity(nc)

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def row_add(i, j, c):
        # row_j += c * row_i
        for k in range(nc):
            m[j][k] += c * m[i][k]
        for k in range(nr):
            u[j][k] += c * u[i][k]
        for row in u_inv:
            row[i] -= c * row[j]

    def row_neg(i):
        for k in range(nc):
            m[i][k] = -m[i][k]
        for k in range(nr):
            u[i][k] = -u[i][k]
        for row in u_inv:
            row[i] = -row[i]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, c):
        # col_j += c * col_i
        for row in m:
            row[j] += c * row[i]
        for row in v:
            row[j] += c * row[i]

    t = 0
    while t < min(nr, nc):
        # Locate the smallest-magnitude nonzero entry in the remaining block.
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    row_add(t, i, -q)
                    if m[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    col_add(t, j, -q)
                    if m[t][j]:
                        col_swap(t, j)
                        dirty = True
        if m[t][t] < 0:
            row_neg(t)
        # Enforce divisibility d_t | d_{t+1}: fold offending entries back in.
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(offender, t, 1)
            continue
        t += 1
    diag = [m[i][i] for i in range(min(nr, nc))]
    return SmithDecomposition(diag, u, v, u_inv)


def solve_mod(a: Sequence[Sequence[int]], b: Sequence[int], modulus: int) -> Optional[list[int]]:
    """Solve A·x ≡ b (mod M) exactly, or return None when inconsistent."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if len(b) != nr:
        raise ValueError("shape mismatch")
    if nc == 0:
        return [] if all(v % modulus == 0 for v in b) else None
    dec = smith_normal_form_int(a)
    ub = [sum(dec.u[i][k] * b[k] for k in range(nr)) % modulus for i in range(nr)]
    y = [0] * nc
    for i in range(nr):
        d = dec.diagonal[i] if i < len(dec.diagonal) else 0
        rhs = ub[i] % modulus
        if d % modulus == 0:
            if rhs != 0:
                return None
            continue
        g = math.gcd(d, modulus)
        if rhs % g != 0:
            return None
        dd, mm = d // g, modulus // g
        y[i] = (rhs // g) * pow(dd, -1, mm) % mm
    x = [sum(dec.v[i][k] * y[k] for k in range(nc)) % modulus for i in range(nc)]
    return x


def hermite_column_basis(cols: Sequence[Sequence[int]], dim: int) -> list[list[int]]:
    """Column-style Hermite basis of the lattice spanned by integer columns.

    Returns a list of `dim` basis columns; the input lattice must have full
    rank (always true here, callers include M·e_i generators).
    """
    work = [list(c) for c in cols]
    basis: list[list[int]] = []
    for r in range(dim):
        # Reduce on row r by repeated gcd elimination.
        while True:
            nz = [c for c in work if c[r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[r]))
            p = nz[0]
            for c in nz[1:]:
                q = c[r] // p[r]
                for k in range(dim):
                    c[k] -= q * p[k]
        pivot = None
        for c in work:
            if c[r] != 0:
                pivot = c
                break
        if pivot is None:
            raise ValueError("lattice does not have full rank")
        if pivot[r] < 0:
            for k in range(dim):
                pivot[k] = -pivot[k]
        basis.append(list(pivot))
        work.remove(pivot)
    return basis


def lattice_quotient(
    gens_k: Sequence[Sequence[int]], gens_i: Sequence[Sequence[int]], dim: int, modulus: int
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Invariant factors and representatives of (K + MZ^dim)/(I + MZ^dim).

    gens_k / gens_i are integer column generators of the two subgroups of
    Z_M^dim (K must contain I).  Representatives are returned for every
    nontrivial invariant factor, as integer vectors mod M.
    """
    ext_k = [list(g) for g in gens_k] + [
        [modulus if i == j else 0 for i in range(dim)] for j in range(dim)
    ]
    ext_i = [list(g) for g in gens_i] + [
        [modulus if i == j else 0 for i in range(dim)] for j in range(dim)
    ]
    hk = hermite_column_basis(ext_k, dim)
    # Express each generator of I in the basis hk (integer back-substitution
    # after exact fraction-free elimination via SNF of the basis matrix).
    basis_mat = [[hk[j][i] for j in range(dim)] for i in range(dim)]  # columns hk
    dec = smith_normal_form_int(basis_mat)
    coords = []
    for g in ext_i:
        ug = [sum(dec.u[i][k] * g[k] for k in range(dim)) for i in range(dim)]
        y = []
        for i in range(dim):
            d = dec.diagonal[i]
            if ug[i] % d != 0:
                raise ValueError("I is not contained in K")
            y.append(ug[i] // d)
        x = [sum(dec.v[i][k] * y[k] for k in range(dim)) for i in range(dim)]
        coords.append(x)
    rel = [[coords[g][i] for g in range(len(coords))] for i in range(dim)]
    rel_dec = smith_normal_form_int(rel)
    factors = []
    reps: list[list[int]] = []
    for i in range(dim):
        d = rel_dec.diagonal[i] if i < len(rel_dec.diagonal) else 0
        f = abs(d)
        if f == 1:
            continue
        factors.append(f)
        # Representative: column i of (basis · Uinv of the relation SNF).
        rep = [
            sum(basis_mat[r][k] * rel_dec.u_inv[k][i] for k in range(dim)) % modulus
            for r in range(dim)
        ]
        reps.append(rep)
    return tuple(factors), reps
