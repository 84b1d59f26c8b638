"""Finite abelian group cohomology in exact arithmetic.

Cochains are tables over group tuples with values in (1/M)Z / Z for a tracked
exponent M (stored as integer numerators mod M; a value v means the phase
e^{2 pi i v / M}).  Cohomology groups are computed on the equivariant
(translation-invariant) subcomplex in inhomogeneous coordinates, where they
reduce to integer Smith normal form; representatives are returned as
homogeneous tables.  Degree-d cochains have d+1 homogeneous arguments and the
compiled diagonal gate for a degree-d cocycle touches d sites, so spatial
dimension D uses (D+1)-cocycles (the 1D chain compiles 2-cocycles onto
edges).
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from ._numpy import _lazy, np

from .gf2 import lattice_quotient, smith_normal_form_int, solve_mod

_dense = _lazy("catalab.dense")

# Entries of the largest coboundary matrix `cohomology_group` reduces.  The
# Smith form's time follows the entry count: Z2 at degree 8, exactly 2^17
# entries, takes about 6 s on a 2-core machine, and the cases above it
# (Z3xZ3 at degree 3, Z4 at degree 4, ...) did not finish in a minute.
_MAX_DELTA_ENTRIES = 2**17


class NormalizationError(Exception):
    """Raised when a cocycle cannot be brought to the normalized form."""


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic factors; elements are residue tuples."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(f < 1 for f in self.factors):
            raise ValueError("cyclic factors must be positive")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors) if self.factors else 1

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.factors)

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(e) for e in itertools.product(*(range(f) for f in self.factors))]

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % f for x, y, f in zip(a, b, self.factors))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((-x) % f for x, f in zip(a, self.factors))

    def sub(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return self.add(a, self.neg(b))

    def index(self, a: Sequence[int]) -> int:
        idx = 0
        for x, f in zip(a, self.factors):
            idx = idx * f + (x % f)
        return idx

    def element(self, idx: int) -> tuple[int, ...]:
        out = []
        for f in reversed(self.factors):
            out.append(idx % f)
            idx //= f
        return tuple(reversed(out))


@dataclass
class Cochain:
    """Map G^(d+1) -> (1/M)Z/Z stored as integer numerators mod M."""

    group: FiniteAbelianGroup
    degree: int
    modulus: int
    table: dict[tuple[tuple[int, ...], ...], int] = field(default_factory=dict)

    def __post_init__(self):
        expected = self.group.order ** (self.degree + 1)
        if len(self.table) != expected:
            raise ValueError(
                f"cochain table has {len(self.table)} entries, expected {expected}"
            )
        self.table = {t: v % self.modulus for t, v in self.table.items()}

    @classmethod
    def from_function(cls, group, degree, modulus, fn) -> "Cochain":
        table = {
            t: fn(*t) % modulus
            for t in itertools.product(group.elements(), repeat=degree + 1)
        }
        return cls(group, degree, modulus, table)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.table.values())

    def is_equivariant(self) -> bool:
        g_all = self.group.elements()
        for t, v in self.table.items():
            for h in g_all:
                shifted = tuple(self.group.add(h, gi) for gi in t)
                if self.table[shifted] != v:
                    return False
        return True

    def reduced(self) -> "Cochain":
        """Shrink the tracked exponent to the actual denominator lcm."""
        g = self.modulus
        for v in self.table.values():
            g = math.gcd(g, v)
        if g <= 1:
            return self
        return Cochain(
            self.group, self.degree, self.modulus // g, {t: v // g for t, v in self.table.items()}
        )

    def to_json_dict(self) -> dict:
        return {
            "factors": list(self.group.factors),
            "degree": self.degree,
            "entries": [
                {"tuple": [list(g) for g in t], "num": v, "den": self.modulus}
                for t, v in sorted(self.table.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Cochain":
        """The cochain of a `to_json_dict` payload; a malformed one raises ValueError."""
        keys = {"factors", "degree", "entries"}
        if not isinstance(payload, dict) or not keys <= payload.keys():
            raise ValueError("a cochain payload is a dict with keys 'factors', 'degree', 'entries'")
        factors, degree, entries = payload["factors"], payload["degree"], payload["entries"]
        if not isinstance(factors, list) or not all(type(f) is int and f > 0 for f in factors):
            raise ValueError(f"'factors' must be a list of positive integers, got {factors!r}")
        if type(degree) is not int or degree < 0:
            raise ValueError(f"'degree' must be a non-negative integer, got {degree!r}")
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and {"tuple", "num", "den"} <= e.keys() for e in entries
        ):
            raise ValueError("'entries' must be a list of dicts with keys 'tuple', 'num', 'den'")
        modulus = entries[0]["den"] if entries else 2
        table = {}
        for e in entries:
            t, num, den = e["tuple"], e["num"], e["den"]
            if type(den) is not int or den != modulus or den < 1:
                raise ValueError(f"entry {t!r} has den {den!r}, the first entry has {modulus!r}")
            if not isinstance(t, list) or len(t) != degree + 1 or not all(
                isinstance(g, list) and len(g) == len(factors)
                and all(type(x) is int and 0 <= x < f for x, f in zip(g, factors))
                for g in t
            ):
                raise ValueError(f"entry {t!r} is not {degree + 1} elements of the group {factors}")
            if type(num) is not int or not 0 <= num < den:
                raise ValueError(f"entry {t!r} has num {num!r}, not an integer in [0, {den})")
            table[tuple(tuple(g) for g in t)] = num
        if len(table) != len(entries):
            raise ValueError("a cochain payload lists some tuple twice")
        return cls(FiniteAbelianGroup(tuple(factors)), degree, modulus, table)


def coboundary(c: Cochain) -> Cochain:
    """Homogeneous alternating coboundary; satisfies d(d(c)) = 0 identically."""
    group = c.group
    table = {}
    for t in itertools.product(group.elements(), repeat=c.degree + 2):
        total = 0
        for i in range(c.degree + 2):
            dropped = t[:i] + t[i + 1 :]
            if i % 2 == 0:
                total += c.table[dropped]
            else:
                total -= c.table[dropped]
        table[t] = total % c.modulus
    return Cochain(group, c.degree + 1, c.modulus, table)


def is_cocycle(c: Cochain) -> bool:
    return coboundary(c).is_zero()


# ---------------------------------------------------------------------------
# Inhomogeneous coordinates (the equivariant subcomplex)
# ---------------------------------------------------------------------------


def _tuples(group: FiniteAbelianGroup, length: int) -> list[tuple[tuple[int, ...], ...]]:
    return list(itertools.product(group.elements(), repeat=length))


def _tuple_index(group: FiniteAbelianGroup, t: Sequence[tuple[int, ...]]) -> int:
    idx = 0
    for g in t:
        idx = idx * group.order + group.index(g)
    return idx


def to_inhomogeneous(c: Cochain) -> list[int]:
    """Vector of the equivariant cochain in inhomogeneous coordinates."""
    if not c.is_equivariant():
        raise ValueError("only equivariant cochains have inhomogeneous coordinates")
    group = c.group
    vec = [0] * (group.order**c.degree)
    for t in _tuples(group, c.degree):
        homog = [group.identity]
        for h in t:
            homog.append(group.add(homog[-1], h))
        vec[_tuple_index(group, t)] = c.table[tuple(homog)]
    return vec


def from_inhomogeneous(
    group: FiniteAbelianGroup, degree: int, modulus: int, vec: Sequence[int]
) -> Cochain:
    table = {}
    for t in itertools.product(group.elements(), repeat=degree + 1):
        diffs = tuple(group.sub(t[i + 1], t[i]) for i in range(degree))
        table[t] = vec[_tuple_index(group, diffs)] % modulus
    return Cochain(group, degree, modulus, table)


def inhomogeneous_delta_matrix(group: FiniteAbelianGroup, degree: int) -> list[list[int]]:
    """Integer matrix of the coboundary C^degree -> C^(degree+1) (inhomogeneous)."""
    src = _tuples(group, degree)
    dst = _tuples(group, degree + 1)
    ncols = len(src)
    mat = [[0] * ncols for _ in dst]
    for r, t in enumerate(dst):
        # face 0: drop the first argument
        mat[r][_tuple_index(group, t[1:])] += 1
        for i in range(1, degree + 1):
            merged = t[: i - 1] + (group.add(t[i - 1], t[i]),) + t[i + 1 :]
            mat[r][_tuple_index(group, merged)] += -1 if i % 2 else 1
        # face degree+1: drop the last argument
        mat[r][_tuple_index(group, t[:-1])] += -1 if (degree + 1) % 2 else 1
    return mat


@dataclass
class CohomologyResult:
    modulus: int
    invariant_factors: tuple[int, ...]
    representatives: list[Cochain]


def _kernel_generators_mod(mat: list[list[int]], modulus: int) -> list[list[int]]:
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    dec = smith_normal_form_int(mat)
    gens = []
    for i in range(nc):
        d = dec.diagonal[i] if i < len(dec.diagonal) else 0
        scale = 1 if d == 0 else modulus // math.gcd(d, modulus)
        col = [dec.v[r][i] * scale % modulus for r in range(nc)]
        if any(col):
            gens.append(col)
    return gens


def cohomology_group(group: FiniteAbelianGroup, degree: int) -> CohomologyResult:
    """H^degree(G, Z_M) = ker(delta)/im(delta) via Smith normal form.

    The coefficient module is the cyclic group (1/M)Z/Z with M the group
    exponent, which is where all the entangler classes used in the registry
    live.
    """
    if degree < 0:
        raise ValueError(f"the cohomology degree must be at least 0, got {degree}")
    m = group.exponent
    dim = group.order**degree
    entries = dim * dim * group.order  # of the coboundary matrix delta_d
    if entries > _MAX_DELTA_ENTRIES:
        raise ValueError(
            f"the degree-{degree} coboundary matrix of a group of order {group.order} "
            f"has {entries} entries, over the limit of {_MAX_DELTA_ENTRIES}"
        )
    delta_d = inhomogeneous_delta_matrix(group, degree)
    kernel = _kernel_generators_mod(delta_d, m)
    if degree >= 1:
        delta_prev = inhomogeneous_delta_matrix(group, degree - 1)
        image = [
            [delta_prev[r][c] % m for r in range(len(delta_prev))]
            for c in range(len(delta_prev[0]))
        ]
    else:
        image = []
    factors, reps = lattice_quotient(kernel, image, dim, m)
    rep_cochains = [from_inhomogeneous(group, degree, m, rep) for rep in reps]
    return CohomologyResult(m, factors, rep_cochains)


def class_order(nu: Cochain) -> int:
    """Order L of [nu]: the least L with nu^L a coboundary (L divides M)."""
    if not is_cocycle(nu):
        raise ValueError("class order is defined for cocycles")
    group, d, m = nu.group, nu.degree, nu.modulus
    vec = to_inhomogeneous(nu)
    delta_prev = inhomogeneous_delta_matrix(group, d - 1) if d >= 1 else None
    for ell in sorted(k for k in range(1, m + 1) if m % k == 0):
        target = [(ell * v) % m for v in vec]
        if delta_prev is None:
            if all(v == 0 for v in target):
                return ell
            continue
        if solve_mod(delta_prev, target, m) is not None:
            return ell
    return m


def normalize_cocycle(nu: Cochain) -> Cochain:
    """Representative in the same class with nu^L trivial pointwise and
    nu(e, g, ..., g) = 0 for all g.

    Both conditions are solved jointly as one linear system for a coboundary
    correction in exponent space.  The tracked exponent may grow to L*M
    before reduction.
    """
    if not is_cocycle(nu):
        raise ValueError("normalize_cocycle needs a cocycle")
    if not nu.is_equivariant():
        raise ValueError("normalize_cocycle needs an equivariant cocycle")
    group, d, m = nu.group, nu.degree, nu.modulus
    ell = class_order(nu)
    for m_big in (ell * m, ell * m * group.order):
        result = _try_normalize(nu, ell, m_big)
        if result is not None:
            return result
    raise NormalizationError(
        "no normalizing coboundary found; this indicates a convention bug"
    )


def _try_normalize(nu: Cochain, ell: int, m_big: int) -> Optional[Cochain]:
    group, d, m = nu.group, nu.degree, nu.modulus
    scale = m_big // m
    vec = [v * scale for v in to_inhomogeneous(nu)]
    if d == 0:
        return None
    # dmat maps C^{d-1} vectors to C^d vectors: rows indexed by C^d tuples.
    dmat = inhomogeneous_delta_matrix(group, d - 1)
    n_rows = len(dmat)
    n_unknown = len(dmat[0])
    rows: list[list[int]] = []
    rhs: list[int] = []
    # (1) L * (nu - d mu) = 0 pointwise.
    for r in range(n_rows):
        rows.append([(ell * dmat[r][c]) % m_big for c in range(n_unknown)])
        rhs.append((ell * vec[r]) % m_big)
    # (2) (nu - d mu)(e, g, ..., g) = 0; the diagonal homogeneous tuple has
    # inhomogeneous coordinates (g, e, ..., e).
    for g in group.elements():
        t = (g,) + (group.identity,) * (d - 1)
        r = _tuple_index(group, t)
        rows.append([dmat[r][c] % m_big for c in range(n_unknown)])
        rhs.append(vec[r] % m_big)
    mu = solve_mod(rows, rhs, m_big)
    if mu is None:
        return None
    correction = [
        sum(dmat[r][c] * mu[c] for c in range(n_unknown)) % m_big for r in range(n_rows)
    ]
    new_vec = [(vec[r] - correction[r]) % m_big for r in range(n_rows)]
    out = from_inhomogeneous(group, d, m_big, new_vec).reduced()
    # Post-conditions are part of the contract; verify them exactly.
    if any((ell * v) % out.modulus for v in out.table.values()):
        return None
    for g in group.elements():
        diag = (group.identity,) + (g,) * d
        if out.table[diag] != 0:
            return None
    if not is_cocycle(out):
        return None
    return out


# ---------------------------------------------------------------------------
# Compilation onto oriented triangulations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalQuditGate:
    """Diagonal gate on `sites` (in simplex vertex order) with exact phases."""

    sites: tuple[int, ...]
    numerators: tuple[int, ...]
    modulus: int

    def phases(self) -> np.ndarray:
        angle = 2j * np.pi / self.modulus
        return np.exp(angle * np.asarray(self.numerators, dtype=np.float64))


@dataclass
class CocycleCircuit:
    """Product of diagonal cocycle gates over an oriented triangulation."""

    group: FiniteAbelianGroup
    num_sites: int
    gates: list[DiagonalQuditGate]

    @property
    def q(self) -> int:
        return self.group.order

    @cached_property
    def gate_terms(self) -> tuple["_dense.GateTerm", ...]:
        """Each gate's diagonal read once for `_dense.apply_gates`."""
        return tuple(_dense.gate_term(gate.sites, np.diag(gate.phases())) for gate in self.gates)

    def apply(self, state: "_dense.DenseState") -> "_dense.DenseState":
        """Every gate in order; the norm is checked once, at the end."""
        return _dense.apply_gates(state, range(state.sites), self.gate_terms)

    def conjugate_term(
        self, support: Sequence[int], mat: np.ndarray
    ) -> tuple[tuple[int, ...], np.ndarray]:
        """D mat D^dagger for a local term on `support` (support[0] least
        significant), with D the product of the gates that touch the support.
        Returns the support grown by those gates' sites, sorted, and the
        conjugated term written on it; sites the gates never act on (a second
        register, say) pass through."""
        gates = [g for g in self.gates if any(s in support for s in g.sites)]
        grown = tuple(sorted(set(support).union(*(g.sites for g in gates))))
        pos = {s: k for k, s in enumerate(grown)}
        q, m = self.q, len(grown)
        diag = np.ones(q**m, dtype=np.complex128)
        for gate in gates:
            phases = gate.phases()
            for idx in range(q**m):
                digits = [(idx // q**k) % q for k in range(m)]
                gidx = sum(digits[pos[s]] * q**k for k, s in enumerate(gate.sites))
                diag[idx] *= phases[gidx]
        embedded = _dense.embed_operator(mat, [pos[s] for s in support], m, q)
        return grown, (diag[:, None] * embedded) * diag.conj()[None, :]

    def order(self) -> int:
        out = 1
        for g in self.gates:
            for v in g.numerators:
                out = math.lcm(out, g.modulus // math.gcd(g.modulus, v) if v else 1)
        return out


def ring_triangulation(num_sites: int) -> list[tuple[tuple[int, ...], int]]:
    """1D ring: edges (i, i+1) oriented by increasing index, signs all +1."""
    return [(((i, (i + 1) % num_sites)), 1) for i in range(num_sites)]


def compile_cocycle_circuit(
    nu: Cochain,
    simplices: Iterable[tuple[tuple[int, ...], int]],
    num_sites: int,
) -> CocycleCircuit:
    """One diagonal gate per oriented simplex; the gate on (v_1..v_d) applies
    the phase of nu(e, g_{v_1}, ..., g_{v_d}) to the power of the orientation
    sign."""
    group = nu.group
    d = nu.degree
    q = group.order
    gates = []
    for sites, sign in simplices:
        sites = tuple(sites)
        if len(sites) != d:
            raise ValueError(
                f"simplex {sites} has {len(sites)} vertices; degree-{d} gates need {d}"
            )
        if sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        nums = []
        for idx in range(q ** len(sites)):
            assignment = []
            rest = idx
            for _ in sites:
                assignment.append(group.element(rest % q))
                rest //= q
            val = nu.table[(group.identity,) + tuple(assignment)]
            nums.append((sign * val) % nu.modulus)
        gates.append(DiagonalQuditGate(sites, tuple(nums), nu.modulus))
    return CocycleCircuit(group, num_sites, gates)


def bilinear_cocycle(group: FiniteAbelianGroup, i: int, j: int) -> Cochain:
    """The 2-cocycle omega(h1, h2) = h1[i] * h2[j] / gcd(f_i, f_j), as a
    homogeneous equivariant cochain (the in-cohomology entangler classes).

    Dividing by the gcd of the two factors makes the phase depend only on
    h1[i] mod f_i and h2[j] mod f_j; the table is kept in units of 1/M with
    M the group exponent, which the gcd divides."""
    m = group.exponent
    scale = m // math.gcd(group.factors[i], group.factors[j])

    def fn(g0, g1, g2):
        h1 = group.sub(g1, g0)
        h2 = group.sub(g2, g1)
        return scale * h1[i] * h2[j]

    return Cochain.from_function(group, 2, m, fn)
