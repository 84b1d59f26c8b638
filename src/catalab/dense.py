"""Exact small-system oracle: dense state vectors and density matrices.

Sites carry dimension q (2 for qubits, |G| for cocycle models).  A state is
acted on by one of two routines, neither of which changes it, and `overlap`
is the one inner product.  `apply_gates`, the one contraction kernel, runs a
gate list on one copy of the amplitude tensor, or in place on a product it
builds: a gate that permutes its sites after one phase per basis state
relabels axes and its phases join a block of at most 2^12 entries that
multiplies the tensor in one pass, and any other gate is contracted into
the tensor; `apply_matrix` is its one-term call, and each distinct local
Clifford unitary is built once.  `overlap` sums in one fixed order, whatever
the BLAS thread count: numpy's pairwise sum over each block of at most
_SUM_BLOCK products, then over the block sums.  `_scatter` applies a signed
permutation of the basis, a Pauli or an on-site relabelling, from its basis
map.  A Hamiltonian is eigensolved in full one symmetry-character block at
a time (one full `eigh` per block, with no iterative methods), each block
read from the sparse columns of its orbit representatives; an operator with
no symmetry is one block.  Configured limits keep sizes at desk scale;
override with CATALAB_DENSE_LIMIT (amplitudes) / CATALAB_EIG_LIMIT (the
dimension of one eigensolve: the largest block), positive integers.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Optional, Sequence, Union

from ._numpy import np

from .pauli import PauliOperator, _gather
from .stabilizer import CliffordGate, QcaLike, StabilizerMixture

_DEFAULT_AMP_LIMIT = 2**20
_DEFAULT_EIG_LIMIT = 2**14
_MAX_ORDER = 64  # of a symmetry map: each order multiplies the character blocks
# Entries of a phase block (64 KB, cache-sized): the least that brings the
# doubled cluster-1d n=10 and cocycle sites=5 actions to 2 and 3 passes over
# the state; larger blocks timed no better.
_PHASE_BLOCK = 2**12
_SUM_BLOCK = 2**14  # products per overlap block (256 KB): q^k of them, for the largest such k


def _env_limit(name: str, default: int) -> int:
    """A positive integer read from the environment, or the default if unset."""
    return _parse_limit(name, os.environ.get(name, str(default)))


@lru_cache(maxsize=64)
def _parse_limit(name: str, raw: str) -> int:
    """The limit a variable's text gives, parsed once per distinct text."""
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw)


def check_amps(dim: int) -> int:
    """dim, or raise if a dense state of dim amplitudes exceeds the limit."""
    if dim > _env_limit("CATALAB_DENSE_LIMIT", _DEFAULT_AMP_LIMIT):
        raise ValueError(f"dense state of {dim} amplitudes exceeds the configured limit")
    return dim


def eig_limit() -> int:
    return _env_limit("CATALAB_EIG_LIMIT", _DEFAULT_EIG_LIMIT)


def check_norm(state: "DenseState") -> "DenseState":
    """Return the state, or raise if its norm is not 1 within 1e-12."""
    norm = np.linalg.norm(state.amps)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state norm {norm} is not 1 within 1e-12")
    return state


@dataclass
class DenseState:
    """Complex amplitude vector over `sites` qudits of dimension q.

    The size limit and the norm are checked where amplitudes come from
    outside: the constructor and the classmethods below, and `tensor`.  The
    state operations further down apply unitaries, so their results skip
    the re-check; each multi-gate action checks the norm once at its end.
    """

    q: int
    sites: int
    amps: np.ndarray

    def __post_init__(self):
        dim = check_amps(self.q**self.sites)
        self.amps = np.asarray(self.amps, dtype=np.complex128).reshape(dim)
        check_norm(self)

    @classmethod
    def from_amplitudes(cls, q: int, sites: int, amps: np.ndarray) -> "DenseState":
        """The state along the given amplitudes, normalized."""
        amps = np.asarray(amps, dtype=np.complex128)
        return cls(q, sites, amps / np.linalg.norm(amps))

    @classmethod
    def computational(cls, q: int, sites: int, index: int = 0) -> "DenseState":
        amps = np.zeros(check_amps(q**sites), dtype=np.complex128)
        amps[index] = 1.0
        return cls(q, sites, amps)

    @classmethod
    def uniform(cls, q: int, sites: int) -> "DenseState":
        dim = check_amps(q**sites)
        return cls(q, sites, np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))

    def tensor(self, other: "DenseState") -> "DenseState":
        if self.q != other.q:
            raise ValueError("site dimensions differ")
        # Site 0 is the least-significant axis throughout the package.
        amps = np.kron(other.amps, self.amps)
        return DenseState(self.q, self.sites + other.sites, amps)

    def _evolved(self, amps: np.ndarray) -> "DenseState":
        """A state on the same register from the flat image of this one under
        a unitary; its norm was checked on the way in, so no re-check."""
        out = object.__new__(DenseState)
        out.q, out.sites, out.amps = self.q, self.sites, amps
        return out


def apply_matrix(state: DenseState, matrix: np.ndarray, support: Sequence[int]) -> DenseState:
    """Contract a q^m x q^m unitary into the state on the given sites: one
    `apply_gates` term, so the result is norm-checked (see
    `apply_local_unitary` for the entry point that checks unitarity first)."""
    return apply_gates(state, range(state.sites), [gate_term(support, matrix)])


def apply_local_unitary(state: DenseState, matrix: np.ndarray, support: Sequence[int]) -> DenseState:
    """Apply a local unitary; rejects non-unitary input (1e-10)."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    dim = matrix.shape[0]
    if not np.allclose(matrix @ matrix.conj().T, np.eye(dim), rtol=0, atol=1e-10):
        raise ValueError("matrix is not unitary within 1e-10")
    return apply_matrix(state, matrix, support)


def _scatter(state: DenseState, image: np.ndarray, sign: np.ndarray) -> DenseState:
    """The signed permutation U|s> = sign[s] |image[s]> applied to the state:
    each sign[s] amps[s] is written to image[s]."""
    out = np.zeros_like(state.amps)
    out[image] = sign * state.amps
    return state._evolved(out)


def apply_site_relabel(state: DenseState, mapping: Sequence[int]) -> DenseState:
    """Relabel local basis states |v> -> |mapping[v]> on every site."""
    return _scatter(state, *relabel_basis_map(state.q, state.sites, mapping))


def pauli_basis_map(p: PauliOperator) -> tuple[np.ndarray, np.ndarray]:
    """The Pauli as a signed permutation of the basis: p|s> = sign[s] |image[s]>,
    with image[s] = s ^ x and sign[s] = i^phase (-1)^popcount(s & z)."""
    idx = np.arange(check_amps(1 << p.n), dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(p.z)) & np.uint64(1)).astype(np.float64)
    return (idx ^ np.uint64(p.x)).astype(np.int64), (1j**p.phase) * signs


def relabel_basis_map(q: int, sites: int, mapping: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The on-site relabelling |v> -> |mapping[v]> on every site as a basis
    map (image, sign), in the form `pauli_basis_map` returns; every sign is 1.
    Built once per distinct (q, sites, mapping) of the last 64, read-only."""
    return _relabel_basis_map(q, sites, tuple(mapping))


@lru_cache(maxsize=64)
def _relabel_basis_map(q: int, sites: int, mapping: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(check_amps(q**sites))
    image = sum((np.asarray(mapping)[idx // q**i % q] * q**i for i in range(sites)), 0 * idx)
    image.flags.writeable = False
    return image, np.broadcast_to(np.complex128(1), image.shape)  # a read-only view


def translation_basis_map(q: int, sites: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """The translation that moves the content of site i to site i + shift
    (mod sites), as a basis map (image, sign); every sign is 1."""
    dim = check_amps(q**sites)
    return _offsets([(i + shift) % sites for i in range(sites)], q), np.ones(dim, dtype=np.complex128)


def apply_pauli(state: DenseState, p: PauliOperator) -> DenseState:
    """Exact Pauli action for qubit states via index arithmetic."""
    if state.q != 2 or p.n != state.sites:
        raise ValueError("apply_pauli expects a qubit state of matching size")
    return _scatter(state, *pauli_basis_map(p))


def overlap(bra: Union[DenseState, Sequence[DenseState]], ket: DenseState) -> complex:
    """<bra|ket> for a bra that is a state or a product state's factors, lowest
    sites first: a block's bra multiplies each factor's digits in the block."""
    factors = [bra] if isinstance(bra, DenseState) else list(bra)
    if {f.q for f in factors} != {ket.q} or sum(f.sites for f in factors) != ket.sites:
        raise ValueError("shape mismatch")
    step = ket.q ** min(ket.sites, len(np.base_repr(_SUM_BLOCK, ket.q)) - 1)
    strides = np.cumprod([1] + [len(f.amps) for f in factors])
    sums = []
    for start in range(0, len(ket.amps), step):
        slices = [f.amps[start // s % len(f.amps) :][: max(1, step // s)] for f, s in zip(factors, strides)]
        block = reduce(lambda low, high: np.multiply.outer(high, low).reshape(-1), map(np.conjugate, slices))
        sums.append(np.multiply(block, ket.amps[start : start + step], out=block).sum())
    return complex(np.sum(sums))


def monomial(matrix: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Read a gate exactly as one nonzero entry per column: (rows, phases)
    with column c equal to phases[c] e_rows[c], or None if it is not so."""
    nonzero = matrix != 0
    if np.any(nonzero.sum(axis=0) != 1):
        return None
    rows = np.argmax(nonzero, axis=0)
    return rows, matrix[rows, np.arange(len(rows))]


@dataclass(frozen=True)
class GateTerm:
    """A q^m x q^m gate on `support`, read once for `apply_gates`.  When it is
    a permutation of its support sites after one phase per input basis
    state, the content of support[k] moves to support[moves[k]] and `phases`
    has axis k on support[k] (None when every phase is 1); otherwise `moves`
    is None and the matrix is contracted."""

    support: tuple[int, ...]
    matrix: np.ndarray
    moves: Optional[tuple[int, ...]]
    phases: Optional[np.ndarray]


def gate_term(support: Sequence[int], matrix: np.ndarray) -> GateTerm:
    """The gate on `support` as a `GateTerm`, its factor form read exactly.
    Raises ValueError on an empty support, a negative site or a repeated one."""
    support, matrix = tuple(support), np.asarray(matrix, dtype=np.complex128)
    m = len(support)
    if not support or min(support) < 0:
        raise ValueError(f"gate support {list(support)} must be one or more sites >= 0")
    if len(set(support)) != m:
        raise ValueError(f"gate support {list(support)} repeats a site")
    q = round(len(matrix) ** (1 / m))
    if matrix.shape != (q**m, q**m):
        raise ValueError("matrix shape does not match the support")
    read = monomial(matrix)
    if read is not None:
        # same[k, j]: digit k of every input is digit j of its image.
        digits = np.stack([np.arange(q**m), read[0]])[:, :, None] // q ** np.arange(m) % q
        same = (digits[0][:, :, None] == digits[1][:, None, :]).all(axis=0)
        moves = tuple(same.argmax(axis=1).tolist())
        if same.any(axis=1).all() and len(set(moves)) == m:
            phases = read[1].reshape((q,) * m).T
            return GateTerm(support, matrix, moves, None if np.all(phases == 1) else phases)
    return GateTerm(support, matrix, None, None)


def _multiply_phases(psi: np.ndarray, pending: list[tuple[list[int], np.ndarray]]) -> None:
    """Multiply psi in place by every pending (axes, phases) pair, phases'
    axis k on psi's axis axes[k]: their product is built over the union of
    their axes, then broadcast over psi in one pass."""
    if not pending:
        return
    union = sorted({a for at, _ in pending for a in at})
    q = psi.shape[union[0]]
    block = np.ones((q,) * len(union), dtype=np.complex128)
    for at, phases in pending:
        where = [union.index(a) for a in at]
        shape = [q if k in where else 1 for k in range(len(union))]
        block *= phases.transpose(np.argsort(where)).reshape(shape)
    np.multiply(psi, block.reshape([q if a in union else 1 for a in range(psi.ndim)]), out=psi)


def apply_gates(
    state: Union[DenseState, Sequence[DenseState]], perm: Sequence[int], terms: Sequence[GateTerm]
) -> DenseState:
    """Move the content of site i to site perm[i], then apply the terms in
    temporal order; the norm is checked once, at the end.  Raises ValueError
    if perm is not a permutation of the sites, or a term reaches past them or
    its matrix is not q^m x q^m for its m sites and the state's q.

    A state is copied once into a tensor with a site -> axis map; factors of
    a product state, lowest sites first, are built into a fresh tensor.  A
    site permutation, the register's or a term's own, only updates the map,
    so the phases of the terms between two contractions commute: they are
    collected and multiplied in by `_multiply_phases`, one pass per block
    of at most _PHASE_BLOCK entries, before each contraction and at the end.
    A term that does not factor is contracted on its current axes, its
    support brought to the front.  One transpose at the end restores the
    layout; with no contraction, the copy is made in the final layout
    instead, and none of a fresh tensor already in it (U (x) U^-1's)."""
    state, copy = (state, True) if isinstance(state, DenseState) else (reduce(DenseState.tensor, state), None)
    q, n = state.q, state.sites
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {list(perm)} is not a permutation of the {n} sites")
    for term in terms:
        if max(term.support) >= n:
            raise ValueError(f"gate support {list(term.support)} reaches past the {n} sites")
        d, m = len(term.matrix), len(term.support)
        if d != q**m:
            raise ValueError(
                f"gate on support {list(term.support)} is {d} x {d}, "
                f"not {q}^{m} x {q}^{m} for sites of dimension {q}"
            )
    psi = state.amps.reshape((q,) * n)
    axis = [0] * n
    for i, p in enumerate(perm):
        axis[p] = n - 1 - i  # reshape((q,) * n) puts the highest site on axis 0
    if all(term.moves is not None for term in terms):
        final = list(axis)
        for term in terms:
            for k, a in zip(term.moves, [final[s] for s in term.support]):
                final[term.support[k]] = a
        order = [final[s] for s in reversed(range(n))]
        psi, axis = psi.transpose(order), [order.index(a) for a in axis]
    psi = np.array(psi, order="C", copy=copy)  # copy=None: only if not already in this layout
    pending = []
    for term in terms:
        at = [axis[s] for s in term.support]
        if term.moves is None:
            _multiply_phases(psi, pending)
            pending = []
            order = at[::-1] + [a for a in range(n) if a not in at]
            moved = psi.transpose(order).reshape(len(term.matrix), -1)
            psi = (term.matrix @ moved).reshape((q,) * n)
            axis = [order.index(a) for a in axis]
            continue
        if term.phases is not None:
            if q ** len(set(at).union(*(axes for axes, _ in pending))) > _PHASE_BLOCK:
                _multiply_phases(psi, pending)
                pending = []
            pending.append((at, term.phases))
        for k, a in zip(term.moves, at):
            axis[term.support[k]] = a
    _multiply_phases(psi, pending)
    flat = psi.transpose([axis[s] for s in reversed(range(n))]).reshape(-1)
    return check_norm(state._evolved(flat))


def qca_dense_action(qca: QcaLike) -> Callable[[DenseState], DenseState]:
    """Dense action of a QCA handle: its site relabelling, then its gates
    in temporal order.  Each gate is read once here and reused on every
    state the action is applied to."""
    terms = [gate_term(gate.support, gate_unitary(gate)) for gate in qca.gates]
    return lambda state: apply_gates(state, qca.perm, terms)


# ---------------------------------------------------------------------------
# Operators and Hamiltonians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisMap:
    """A named unitary that maps basis states to basis states up to a phase:
    U|s> = sign[s] |image[s]>, in the form the `*_basis_map` functions
    return."""

    name: str
    image: np.ndarray
    sign: np.ndarray

    def compose(self, other: "BasisMap") -> "BasisMap":
        """This map after `other`: U V|s> = sign_v[s] sign_u[image_v[s]] |image_u[image_v[s]]>."""
        return BasisMap(
            f"{self.name}*{other.name}", self.image[other.image], other.sign * self.sign[other.image]
        )

    def powers(self) -> list["BasisMap"]:
        """1, U, ..., U^(k-1) for k the order of U: the least k with U^k = 1
        within 1e-12.  Raises ValueError naming the map past _MAX_ORDER."""
        out = [BasisMap("1", np.arange(len(self.image)), np.ones(len(self.sign), dtype=np.complex128))]
        while len(out) <= _MAX_ORDER:
            power = self.compose(out[-1])
            if np.all(power.image == out[0].image) and np.allclose(power.sign, 1, rtol=0, atol=1e-12):
                return out
            out.append(power)
        raise ValueError(f"symmetry map {self.name} has no finite order up to {_MAX_ORDER}")


@dataclass
class DenseOperator:
    """A sum of hermitian local terms, with the symmetry it commutes with.

    `symmetry` lists commuting basis maps of finite order, such as on-site
    symmetries and translations; `ground_state` solves one character block
    of the group they generate at a time.  Each map is checked here to be a
    signed permutation and to commute with the others; `ground_state` checks
    that it has a finite order and commutes with the operator."""

    sites: int
    q: int
    terms: list[tuple[tuple[int, ...], np.ndarray]]
    symmetry: tuple[BasisMap, ...] = ()

    def __post_init__(self):
        checked = []
        for support, mat in self.terms:
            mat = np.asarray(mat, dtype=np.complex128)
            support = tuple(support)
            if len(set(support)) != len(support):
                raise ValueError("term support has repeated sites")
            if any(not 0 <= s < self.sites for s in support):
                raise ValueError("term support out of range")
            if mat.shape != (self.q ** len(support),) * 2:
                raise ValueError("term matrix does not match its support")
            if not np.allclose(mat, mat.conj().T, rtol=0, atol=1e-12):
                raise ValueError("hamiltonian term is not hermitian within 1e-12")
            checked.append((support, mat))
        self.terms = checked
        dim = self.q**self.sites
        for u in self.symmetry:
            if (
                u.image.shape != (dim,)
                or np.any((u.image < 0) | (u.image >= dim))
                or not np.allclose(np.abs(u.sign), 1, rtol=0, atol=1e-12)
            ):
                raise ValueError(f"symmetry map {u.name} is not a signed permutation of {dim} states")
        for i, a in enumerate(self.symmetry):
            for b in self.symmetry[:i]:
                ab, ba = a.compose(b), b.compose(a)
                if np.any(ab.image != ba.image) or not np.allclose(ab.sign, ba.sign, rtol=0, atol=1e-12):
                    raise ValueError(f"symmetry maps {a.name} and {b.name} do not commute")

    @classmethod
    def from_pauli_terms(
        cls,
        sites: int,
        terms: Iterable[tuple[float, PauliOperator]],
        symmetry: Sequence[BasisMap] = (),
    ) -> "DenseOperator":
        out = []
        for coeff, p in terms:
            support = tuple(p.support())
            local = _restrict_pauli(p, support)
            out.append((support, coeff * pauli_matrix(local)))
        return cls(sites, 2, out, symmetry)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The operator in sparse form: rows, columns and values, one entry per
        position any term reaches, ordered column by column.  Each term adds
        its nonzero local entries at the placements `embed_operator` writes."""
        dim = self.q**self.sites
        keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.complex128)]
        for support, mat in self.terms:
            place = _placements(support, self.sites, self.q)
            out, into = np.nonzero(mat)
            keys.append((place[into] * dim + place[out]).ravel())
            vals.append(np.repeat(mat[out, into], place.shape[1]))
        keys, vals = _summed(np.concatenate(keys), np.concatenate(vals))
        return keys % dim, keys // dim, vals


def _summed(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the sum of the values at each."""
    keys, inverse = np.unique(keys, return_inverse=True)
    return keys, np.bincount(inverse, vals.real, len(keys)) + 1j * np.bincount(inverse, vals.imag, len(keys))


def _restrict_pauli(p: PauliOperator, support: tuple[int, ...]) -> PauliOperator:
    return PauliOperator(len(support), _gather(p.x, support), _gather(p.z, support), p.phase)


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a signed Pauli."""
    image, sign = pauli_basis_map(p)
    mat = np.zeros((image.size,) * 2, dtype=np.complex128)
    mat[image, np.arange(image.size)] = sign
    return mat


def embed_operator(mat: np.ndarray, support: Sequence[int], sites: int, q: int) -> np.ndarray:
    """Embed a local operator into the full q^sites space, at the
    q^m x q^sites entries where it can be nonzero."""
    place = _placements(support, sites, q)
    full = np.zeros((q**sites,) * 2, dtype=np.complex128)
    full[place[:, None, :], place[None, :, :]] += np.asarray(mat)[:, :, None]
    return full


def _offsets(group: Sequence[int], q: int) -> np.ndarray:
    """The full index of each index on the sites `group` (group[0] least
    significant), with digit 0 on every other site."""
    idx = np.arange(q ** len(group))
    return sum((idx // q**k % q * q**s for k, s in enumerate(group)), 0 * idx)


def _placements(support: Sequence[int], sites: int, q: int) -> np.ndarray:
    """place[l, r]: the full index with index l on the support (support[0]
    least significant) and index r on the other sites."""
    return _offsets(support, q)[:, None] + _offsets([s for s in range(sites) if s not in support], q)


@dataclass
class _CharacterBlock:
    """The isometry B onto one character block: column j is b_j = P|r_j> /
    |P|r_j>|, for P the block's projector and r_j the least basis state of
    the j-th orbit it reaches.  `column[s]` is b_j[s] for s in orbit j, whose
    column `slot[s]` is j, and 0 on the orbits the block does not reach, so
    B vec = column * vec[slot]."""

    reps: np.ndarray
    column: np.ndarray
    slot: np.ndarray

    def matrix(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """B^dagger H B from the entries of H in the representatives' columns:
        P H = H P, so column j is B^dagger H|r_j> / b_j[r_j].  An entry in a
        row off the block meets a zero of `column` and adds nothing."""
        mine = np.isin(cols, self.reps)
        rows, cols, vals = rows[mine], cols[mine], vals[mine]
        out = np.zeros((len(self.reps),) * 2, dtype=np.complex128)
        weights = self.column[rows].conj() * vals / self.column[cols].real
        np.add.at(out, (self.slot[rows], self.slot[cols]), weights)
        return out

    def lift(self, vec: np.ndarray) -> np.ndarray:
        """B vec, as a vector on the full space."""
        return self.column * vec[self.slot]


def _character_blocks(symmetry: Sequence[BasisMap], dim: int) -> list[_CharacterBlock]:
    """One block per character of the abelian group the commuting maps
    generate whose block is not empty.  Distinct orbits have disjoint
    supports, so each block's columns are orthonormal and the blocks
    together span the space.  Raises ValueError if a block exceeds the
    dense-eig limit, before the group is built when its order alone shows it."""
    generated = [u.powers() for u in symmetry]
    order = int(np.prod([len(powers) for powers in generated]))
    if dim > order * eig_limit():  # at most |G| blocks share the dim states
        raise ValueError(f"a symmetry block of at least {-(-dim // order)} states exceeds the dense-eig limit")
    elements = [BasisMap("1", np.arange(dim), np.ones(dim, dtype=np.complex128))]
    # turns[c, e]: the phase of character c at element e, in turns.  With
    # generator orders k_i, element e = prod u_i^a_i and character c take
    # mixed-radix digits a_i and c_i, the first generator least significant.
    turns = np.zeros((1, 1))
    for powers in generated:
        k = len(powers)
        elements = [p.compose(g) for p in powers for g in elements]
        own = np.outer(np.arange(k), np.arange(k)) / k
        turns = (own[:, None, :, None] + turns[None, :, None, :]).reshape(len(elements), -1)
    images = np.stack([g.image for g in elements])
    signs = np.stack([g.sign for g in elements])
    least = images.min(axis=0)
    reps = np.flatnonzero(least == np.arange(dim))
    orbit = np.searchsorted(reps, least)
    blocks = []
    for chi in np.exp(2j * np.pi * turns):
        column = np.zeros(dim, dtype=np.complex128)
        np.add.at(column, images[:, reps].ravel(), (chi[:, None] * signs[:, reps]).ravel())
        norms = np.sqrt(np.bincount(orbit, np.abs(column) ** 2, minlength=len(reps)))
        keep = norms > 0.5
        if keep.any():
            scale = np.divide(1, norms, out=np.zeros_like(norms), where=keep)
            blocks.append(_CharacterBlock(reps[keep], column * scale[orbit], np.cumsum(keep)[orbit] - 1))
    if sum(len(b.reps) for b in blocks) != dim:
        raise AssertionError("character blocks do not add up to the whole space")
    largest = max(len(b.reps) for b in blocks)
    if largest > eig_limit():
        raise ValueError(f"symmetry block dimension {largest} exceeds the dense-eig limit")
    return blocks


def ground_state(op: DenseOperator) -> tuple[float, list[np.ndarray]]:
    """Full hermitian eigensolve; returns energy and an orthonormal basis of
    the eigenvectors within 1e-8 of the lowest eigenvalue.

    H is built once in sparse form, each symmetry map U is checked to
    satisfy U H U^dagger = H there within 1e-12, and each character block
    (the whole space when there is no symmetry) is solved on its own:
    eigenvalues of every block give the lowest energy, and the eigenvectors
    of each block that reaches it are lifted back, so the basis spans the
    whole ground space however it splits across blocks.  The basis vectors
    are dense states, so q^sites is checked against the dense limit first."""
    dim = check_amps(op.q**op.sites)
    blocks = _character_blocks(op.symmetry, dim)
    rows, cols, vals = op.entries()
    for u in op.symmetry:
        # U H U^dagger holds sign[a] H[a, b] conj(sign[b]) at (image[a], image[b]).
        moved = u.sign[rows] * vals * u.sign[cols].conj()
        keys = np.concatenate([cols * dim + rows, u.image[cols] * dim + u.image[rows]])
        if np.max(np.abs(_summed(keys, np.concatenate([vals, -moved]))[1]), initial=0) > 1e-12:
            raise ValueError(f"symmetry map {u.name} does not commute with the operator")
    # One block matrix is held at a time: those that reach e0 are built again.
    lowest = [float(np.linalg.eigvalsh(block.matrix(rows, cols, vals))[0]) for block in blocks]
    e0 = min(lowest)
    basis = []
    for block, low in zip(blocks, lowest):
        if low <= e0 + 1e-8:
            evals, evecs = np.linalg.eigh(block.matrix(rows, cols, vals))
            basis += [block.lift(evecs[:, i]) for i in np.flatnonzero(evals <= e0 + 1e-8)]
    return e0, basis


# ---------------------------------------------------------------------------
# Density-matrix diagnostics
# ---------------------------------------------------------------------------


def dense_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Eigenvalues below 1e-12 are treated as exact zeros: the states handled
    here have dyadic spectra bounded well away from that scale, and taking
    square roots of eigensolver noise would otherwise dominate the error.
    """
    evals, evecs = np.linalg.eigh(rho)
    evals = np.where(evals < 1e-12, 0.0, evals)
    sqrt_rho = (evecs * np.sqrt(evals)) @ evecs.conj().T
    middle = sqrt_rho @ sigma @ sqrt_rho
    mvals = np.linalg.eigvalsh(middle)
    mvals = np.where(mvals < 1e-12, 0.0, mvals)
    return float(np.sum(np.sqrt(mvals)))


def dense_renyi_correlator(
    rho: np.ndarray, o_i: np.ndarray, o_j: np.ndarray, order: int
) -> float:
    """Tr(rho sigma^(n-1)) / Tr(rho^n) with sigma = Oi' Oj rho Oj' Oi."""
    w = o_i.conj().T @ o_j
    sigma = w @ rho @ w.conj().T
    num = np.trace(rho @ np.linalg.matrix_power(sigma, order - 1))
    den = np.trace(np.linalg.matrix_power(rho, order))
    return float((num / den).real)


# ---------------------------------------------------------------------------
# Bridges from the stabilizer engine
# ---------------------------------------------------------------------------


def stabilizer_to_dense(state: StabilizerMixture) -> DenseState:
    """Dense vector for a pure stabilizer state (phase convention arbitrary)."""
    if not state.is_pure:
        raise ValueError("dense vector form needs a pure state")
    state.validate()
    return _stabilizer_vector(state)


def _stabilizer_vector(state: StabilizerMixture) -> DenseState:
    """prod_g (1 + g)/2 on the least basis state of the group's support,
    renormalized after each factor; AssertionError if a factor annihilates
    it.  A reduced row of `state._basis` whose pivot (lowest bit) is Z at site
    c has no X part and fixes bit c of the support to its sign bit; setting
    only those bits gives the least element (Dehaene–De Moor)."""
    n, (_, pivots, transform, _) = state.n, state._basis
    least = sum(
        1 << c - n for r, c in enumerate(pivots) if c >= n and state._combine(transform[r]).phase == 2
    )
    amps = DenseState.computational(2, n, least).amps
    for g in state.generators:
        image, sign = pauli_basis_map(g)
        moved = np.zeros_like(amps)
        moved[image] = sign * amps
        projected = 0.5 * (amps + moved)
        if (norm := np.linalg.norm(projected)) < 1e-9:
            raise AssertionError(f"the stabilizer group annihilates its least support element {least}")
        amps = projected / norm
    return DenseState(2, n, amps)


def stabilizer_density(state: StabilizerMixture) -> np.ndarray:
    """Dense density matrix of a stabilizer mixture (exact): 2^-n prod_g (1 + g),
    each factor applied as one signed permutation of the rows."""
    state.validate()
    out = np.eye(1 << state.n, dtype=np.complex128)
    for g in state.generators:
        image, sign = pauli_basis_map(g)
        out = out + (sign[:, None] * out)[image]
    return out / (1 << state.n)


def gate_unitary(gate: CliffordGate) -> np.ndarray:
    """Dense unitary of a Clifford gate on its support, read-only: the one
    `_local_unitary` builds for the gate's `local_rows`."""
    return _local_unitary(gate.local_rows)


@lru_cache(maxsize=64)
def _local_unitary(rows: tuple[tuple[int, int, int], ...]) -> np.ndarray:
    """The unitary on m sites that sends X_a and Z_a to the Paulis rows[2a]
    and rows[2a + 1], (x, z, phase) ints, built once per distinct rows and
    returned read-only.  Column 0 is the image of |0...0>, the
    `_stabilizer_vector` of the group the Z images generate, and columns 2^a
    to 2^(a+1) - 1 are X image a, one signed permutation, applied to columns
    0 to 2^a - 1.

    The tableau fixes the gate up to a global phase; the phase is pinned by
    making the trace positive real (all gates used on the dense path have
    nonzero trace, e.g. conjugated SWAPs with trace 2^(m-1)), falling back to
    the first significant matrix entry otherwise.
    """
    m = len(rows) // 2
    dim = 1 << m
    img_x = [PauliOperator(m, *row) for row in rows[::2]]
    img_z = [PauliOperator(m, *row) for row in rows[1::2]]
    cols = np.zeros((dim, dim), dtype=np.complex128)
    cols[:, 0] = _stabilizer_vector(StabilizerMixture(m, tuple(img_z))).amps
    for a, p in enumerate(img_x):
        image, sign = pauli_basis_map(p)
        cols[:, 1 << a : 2 << a] = (sign[:, None] * cols[:, : 1 << a])[image]
    tr = np.trace(cols)
    if abs(tr) > 1e-9:
        cols = cols * (tr.conjugate() / abs(tr))
    else:
        flat = cols.reshape(-1)
        pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
        cols = cols * (pivot.conjugate() / abs(pivot))
    if np.max(np.abs(cols @ cols.conj().T - np.eye(dim))) > 1e-9:
        raise AssertionError("gate reconstruction is not unitary")
    cols.flags.writeable = False
    return cols
