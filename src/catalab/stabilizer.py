"""Pure and mixed stabilizer states with exact Clifford evolution.

A StabilizerMixture holds k independent commuting signed Paulis g_j and
represents the density operator 2^(k-n) * prod_j (1 + g_j); k = n is the pure
case.  Every diagnostic (expectation, fidelity, Renyi correlator, invariance)
reduces to GF(2) algebra plus exact sign bookkeeping, so results are exact
rationals rather than samples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

from ._numpy import np

from .gf2 import SpanBasis, span_basis, span_combination
from .pauli import PauliOperator, SiteSet, _gather


class UnsupportedCaseError(Exception):
    """Raised when an exact stabilizer algorithm does not cover the input."""


class ZeroProjectionError(Exception):
    """Raised when a forced projection has probability zero."""


def _check_register(p: PauliOperator, n: int, register: str) -> PauliOperator:
    if p.n != n:
        raise ValueError(f"operator size does not match {register} register")
    return p


# ---------------------------------------------------------------------------
# Clifford gates and circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CliffordGate:
    """A local Clifford gate given by its conjugation images on its support.

    `rows[a]` holds the images of X_a and Z_a as (x, z, phase) ints, for
    every support site a; they are the only stored form.  Every kind is
    proven where it is built: each image is hermitian, stays on the
    support, and the images commute as X_a and Z_a do.  The inverse is
    read off the rows by `_dual`, whatever the kind.  Gates compare and
    hash by identity.
    """

    kind: str
    n: int
    support: SiteSet
    rows: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]]
    _mask: int = field(init=False, repr=False)

    def __post_init__(self):
        for a in self.support:
            if not 0 <= a < self.n:
                raise ValueError(f"gate support {a} out of range for n={self.n}")
        if sorted(self.rows) != list(self.support):
            raise ValueError("tableau gate must give images for every support site")
        object.__setattr__(self, "rows", dict(self.rows))
        object.__setattr__(self, "_mask", sum(1 << a for a in self.support))
        _prove(self.n, self._mask, (self.rows[a] for a in self.support), _GATE_PROOF)

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        """Exact Heisenberg conjugation g P g^dagger.

        Images stay on the support, so the image of the support part never
        overlaps the untouched rest and the product with it adds no phase.
        """
        _check_register(p, self.n, "gate")
        mask = self._mask
        x, z, phase = _image(self.rows, p.x & mask, p.z & mask)
        return PauliOperator(self.n, x | (p.x & ~mask), z | (p.z & ~mask), p.phase + phase)

    def fixes(self, paulis: Iterable[PauliOperator]) -> bool:
        """True iff g maps each p's restriction to its support to itself,
        sign included, for Paulis on the gate's register (not re-checked)."""
        rows, mask = self.rows, self._mask
        for p in paulis:
            x, z = p.x & mask, p.z & mask
            # Every gate fixes the identity: skip operators that miss the support.
            if (x | z) and _image(rows, x, z) != (x, z, 0):
                return False
        return True

    @property
    def local_rows(self) -> tuple[tuple[int, int, int], ...]:
        """The images of X_a and Z_a for each support site a in order, with
        bit k on the support's k-th site: the gate on its own m sites."""
        support, rows = self.support, self.rows
        flat = (row for a in support for row in rows[a])
        return tuple((_gather(x, support), _gather(z, support), phase & 3) for x, z, phase in flat)

    def inverse(self) -> "CliffordGate":
        """The gate itself when its dual rows are its own rows, else a
        TABLEAU gate on those rows."""
        rows = dict(zip(self.support, _dual(self.rows, self.support)))
        return self if rows == self.rows else CliffordGate("TABLEAU", self.n, self.support, rows)

    def __repr__(self) -> str:
        return f"{self.kind}{tuple(self.support)}"


def _image(rows, x: int, z: int) -> tuple[int, int, int]:
    """The image of X^x Z^z when rows[a] holds the images of X_a and Z_a:
    their product over the set bits of x | z in ascending site order, X
    before Z, by PauliOperator.__mul__'s phase rule, as (x, z, phase) ints."""
    ox = oz = phase = 0
    todo = x | z
    while todo:
        low = todo & -todo
        todo ^= low
        img_x, img_z = rows[low.bit_length() - 1]
        if x & low:
            ix, iz, iphase = img_x
            phase += iphase + 2 * (oz & ix).bit_count()
            ox ^= ix
            oz ^= iz
        if z & low:
            ix, iz, iphase = img_z
            phase += iphase + 2 * (oz & ix).bit_count()
            ox ^= ix
            oz ^= iz
    return ox, oz, phase & 3


def _dual(rows, sites) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """The inverse's rows for each site a of sites, in order: the preimages
    of X_a and Z_a when rows[b] holds the images of X_b and Z_b.

    A Clifford preserves the symplectic product, so the preimage of P has
    x bit <P, U Z_b U^dagger> and z bit <P, U X_b U^dagger> at each site b:
    the image bits, transposed.  One forward image fixes each sign, since
    it maps the phase-free preimage to i^phase P.  Rows that do not
    preserve commutation fail that image, and raise ValueError.
    """
    sites = list(sites)
    # x and z of X_a's preimage, then of Z_a's, for each site a.
    pre = {a: [0, 0, 0, 0] for a in sites}
    for b in sites:
        (xx, xz, _), (zx, zz, _) = rows[b]
        for k, bits in enumerate((zz, xz, zx, xx)):
            while bits:
                low = bits & -bits
                bits ^= low
                pre[low.bit_length() - 1][k] |= 1 << b
    dual = []
    for a in sites:
        ax, az, bx, bz = pre[a]
        fx, fz = _image(rows, ax, az), _image(rows, bx, bz)
        if fx[:2] != (1 << a, 0) or fz[:2] != (0, 1 << a):
            raise ValueError("tableau does not preserve commutation, so it has no dual")
        dual.append(((ax, az, -fx[2] & 3), (bx, bz, -fz[2] & 3)))
    return dual


_GATE_PROOF = ("tableau images must be hermitian", "tableau images do not preserve commutation")
_CIRCUIT_PROOF = (
    "circuit tableau has a non-hermitian image",
    "circuit tableau does not preserve commutation",
)


def _prove(n: int, mask: int, rows, messages: tuple[str, str]) -> None:
    """Raise ValueError unless every image in rows (pairs of X and Z images)
    is hermitian and stays inside mask, and the images commute as the X_a
    and Z_a they come from do."""
    flat = [img for pair in rows for img in pair]
    for x, z, phase in flat:
        if (phase ^ (x & z).bit_count()) & 1:
            raise ValueError(messages[0])
        if (x | z) & ~mask:
            raise ValueError("tableau image escapes the gate support")
    if _gram(n, [x | z << n for x, z, _ in flat]) != _paired(len(flat)):
        raise ValueError(messages[1])


def _paired(m: int) -> list[int]:
    """The Gram rows of X_0, Z_0, X_1, Z_1, ...: only X_a and Z_a anticommute."""
    return [1 << j - 1 if j & 1 else 0 for j in range(m)]


def _product(ops: Sequence[PauliOperator], mask: int) -> tuple[int, int, int]:
    """The product of the ops mask selects (bit j for ops[j]), ascending, as
    (x, z, phase) ints by PauliOperator.__mul__'s rule, with no objects."""
    x = z = phase = 0
    while mask:
        low = mask & -mask
        mask ^= low
        p = ops[low.bit_length() - 1]
        phase += p.phase + 2 * ((z & p.x).bit_count() & 1)
        x ^= p.x
        z ^= p.z
    return x, z, phase & 3


def _gram(n: int, packed: Sequence[int]) -> list[int]:
    """Lower-triangular symplectic Gram rows of packed (x|z) operators: bit
    i < j of row j is set when operators i and j anticommute.  Each bit reads
    its partner column (Z for X and X for Z) of the earlier operators, then
    joins its own; columns are kept only for the bits touched, so the cost is
    the total weight, not the register."""
    cols: dict[int, int] = {}
    rows = []
    bit = 1
    for bits in packed:
        row = 0
        while bits:
            low = bits & -bits
            c = low.bit_length() - 1
            row ^= cols.get(c - n if c >= n else c + n, 0)
            cols[c] = cols.get(c, 0) | bit
            bits ^= low
        rows.append(row & (bit - 1))
        bit <<= 1
    return rows


def h_gate(n: int, a: int) -> CliffordGate:
    m = 1 << a
    return CliffordGate("H", n, SiteSet([a]), {a: ((0, m, 0), (m, 0, 0))})


def s_gate(n: int, a: int) -> CliffordGate:
    m = 1 << a
    return CliffordGate("S", n, SiteSet([a]), {a: ((m, m, 1), (0, m, 0))})


def cz_gate(n: int, a: int, b: int) -> CliffordGate:
    ma, mb = 1 << a, 1 << b
    rows = {a: ((ma, mb, 0), (0, ma, 0)), b: ((mb, ma, 0), (0, mb, 0))}
    return CliffordGate("CZ", n, SiteSet([a, b]), rows)


def cnot_gate(n: int, control: int, target: int) -> CliffordGate:
    mc, mt = 1 << control, 1 << target
    rows = {control: ((mc | mt, 0, 0), (0, mc, 0)), target: ((mt, 0, 0), (0, mc | mt, 0))}
    return CliffordGate("CNOT", n, SiteSet([control, target]), rows)


def swap_gate(n: int, a: int, b: int) -> CliffordGate:
    ma, mb = 1 << a, 1 << b
    rows = {a: ((mb, 0, 0), (0, mb, 0)), b: ((ma, 0, 0), (0, ma, 0))}
    return CliffordGate("SWAP", n, SiteSet([a, b]), rows)


def conjugated_gate(gate: CliffordGate, qca: "_TableauHandle") -> CliffordGate:
    """U g U^dagger as a TABLEAU gate, for the handle U on the first qca.n
    sites of the gate's register; U fixes every site at or past qca.n.

    Its support is the sites that U's images of g's sites reach.  Any other
    site c is fixed: U^dagger P_c U misses g's support, since its bits at a
    site a are P_c's symplectic products with U's images of Z_a and X_a.
    Row c is U(g(U^dagger P_c U)) on ints, U^dagger P_c U read off the dual
    (P_c itself past qca.n); g and then U act as in `CliffordGate.conjugate`,
    on the part inside their sites.  The result is proven as every gate is."""
    n, tableau, dual = gate.n, qca._tableau, qca._inverse_tableau
    if len(tableau) > n:
        raise ValueError("the conjugating handle is wider than the gate register")
    inside, own, mask = (1 << len(tableau)) - 1, gate.rows, gate._mask
    reach = mask & ~inside  # sites past the handle reach themselves
    for a in gate.support:
        if a < len(tableau):
            (xx, xz, _), (zx, zz, _) = tableau[a]
            reach |= xx | xz | zx | zz
    rows = {}
    while reach:
        low = reach & -reach
        reach ^= low
        c = low.bit_length() - 1
        pair = []
        for qx, qz, qphase in dual[c] if low & inside else ((low, 0, 0), (0, low, 0)):
            gx, gz, gphase = _image(own, qx & mask, qz & mask)
            x, z = gx | (qx & ~mask), gz | (qz & ~mask)
            ix, iz, phase = _image(tableau, x & inside, z & inside)
            pair.append((ix | (x & ~inside), iz | (z & ~inside), (qphase + gphase + phase) & 3))
        rows[c] = tuple(pair)
    return CliffordGate("TABLEAU", n, SiteSet(rows), rows)


def tableau_gate(n: int, images: dict[int, tuple[PauliOperator, PauliOperator]]) -> CliffordGate:
    """A TABLEAU gate from PauliOperator images, read into rows once."""
    rows = {}
    for a, pair in images.items():
        if any(img.n != n for img in pair):
            raise ValueError("image register size mismatch")
        rows[a] = tuple((img.x, img.z, img.phase) for img in pair)
    return CliffordGate("TABLEAU", n, SiteSet(images), rows)


class _TableauHandle:
    """Conjugation through `_tableau`, the images of every X_a and Z_a on
    the handle's sites as (x, z, phase) ints, and backwards through its
    `_dual`, built once.  The register is as wide as the tableau;
    `_register` names the handle in a size mismatch.  Only this module
    reads the rows; callers ask the handle, or pass it on."""

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        """U p U^dagger as the product of the tableau images over p's
        support, on ints; one operator is built at the end."""
        return self._through(self._tableau, p)

    def conjugate_inverse(self, p: PauliOperator) -> PauliOperator:
        """U^dagger p U the same way, through the dual tableau."""
        return self._through(self._inverse_tableau, p)

    def _through(self, tableau, p: PauliOperator) -> PauliOperator:
        _check_register(p, len(tableau), self._register)
        x, z, phase = _image(tableau, p.x, p.z)
        return PauliOperator(p.n, x, z, p.phase + phase)

    @cached_property
    def _inverse_tableau(self) -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]:
        return tuple(_dual(self._tableau, range(len(self._tableau))))

    def spread(self, lattice) -> int:
        """Exact maximum support growth of single-site operators: the largest
        lattice distance from a to a site the images of X_a and Z_a act on."""
        worst = 0
        for a, ((xx, xz, _), (zx, zz, _)) in enumerate(self._tableau):
            bits = xx | xz | zx | zz
            while bits:
                low = bits & -bits
                bits ^= low
                worst = max(worst, lattice.distance(a, low.bit_length() - 1))
        return worst

    def doubled_tableau(self) -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]:
        """The rows of U (x) U^-1 on 2n sites: U's on [0, n), and its
        dual's moved up onto [n, 2n)."""
        n, dual = len(self._tableau), self._inverse_tableau
        return self._tableau + tuple(tuple((x << n, z << n, p) for x, z, p in pair) for pair in dual)


@dataclass(frozen=True)
class CliffordCircuit(_TableauHandle):
    """Layered local Clifford circuit; gates within a layer have disjoint supports.

    Conjugation reads the circuit's tableau.  It is built on first use by
    walking each X_a and Z_a through its light cone (per layer, only the
    gates touching the current support act), and proven as it is built:
    every image is hermitian and the images commute as X_a and Z_a do, so
    valid stabilizer states map to valid ones.  Inverse conjugation reads
    the tableau's dual; `inverse()` builds the layered inverse circuit from
    the gates' duals, for callers that need its gates.
    """

    n: int
    layers: tuple[tuple[CliffordGate, ...], ...]
    _site_gates: tuple[dict[int, tuple[dict, int]], ...] = field(
        init=False, repr=False, compare=False
    )
    _register = "circuit"

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple(tuple(layer) for layer in self.layers)
        )
        index = []
        for layer in self.layers:
            at: dict[int, tuple[dict, int]] = {}
            for g in layer:
                if g.n != self.n:
                    raise ValueError("gate register size mismatch")
                for a in g.support:
                    if a in at:
                        raise ValueError("overlapping gate supports within a layer")
                    at[a] = (g.rows, g._mask)
            index.append(at)
        object.__setattr__(self, "_site_gates", tuple(index))

    @property
    def depth(self) -> int:
        return len(self.layers)

    @cached_property
    def gates(self) -> tuple[CliffordGate, ...]:
        """Every gate, in temporal order."""
        return tuple(g for layer in self.layers for g in layer)

    @property
    def perm(self) -> range:
        return range(self.n)

    def _walk(self, x: int, z: int) -> tuple[int, int, int]:
        """The light-cone image of X^x Z^z as (x, z, phase), gate by gate."""
        phase = 0
        for at in self._site_gates:
            todo = x | z
            while todo:
                low = todo & -todo
                hit = at.get(low.bit_length() - 1)
                if hit is None:
                    todo ^= low
                else:
                    rows, mask = hit
                    ix, iz, iphase = _image(rows, x & mask, z & mask)
                    x = ix | (x & ~mask)
                    z = iz | (z & ~mask)
                    phase += iphase
                    todo &= ~mask
        return x, z, phase & 3

    @cached_property
    def _tableau(self) -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]:
        """The images of X_a and Z_a for every site a, walked and then proven."""
        n = self.n
        images = tuple((self._walk(1 << a, 0), self._walk(0, 1 << a)) for a in range(n))
        _prove(n, (1 << n) - 1, images, _CIRCUIT_PROOF)
        return images

    def inverse(self) -> "CliffordCircuit":
        layers = [[g.inverse() for g in reversed(layer)] for layer in reversed(self.layers)]
        return CliffordCircuit(self.n, layers)


def pack_gates_into_layers(n: int, gates: Sequence[CliffordGate]) -> CliffordCircuit:
    """Greedy first-fit packing of commuting/ordered gates into disjoint layers."""
    layers: list[list[CliffordGate]] = []
    masks: list[int] = []
    for g in gates:
        gmask = g._mask
        placed = False
        for i, m in enumerate(masks):
            if not (m & gmask):
                layers[i].append(g)
                masks[i] |= gmask
                placed = True
                break
        if not placed:
            layers.append([g])
            masks.append(gmask)
    return CliffordCircuit(n, tuple(tuple(layer) for layer in layers))


# ---------------------------------------------------------------------------
# Locality-preserving unitaries (QCA handles)
# ---------------------------------------------------------------------------


class PermutationQca(_TableauHandle):
    """QCA that relabels sites (e.g. lattice translation); not an FDQC.
    Its tableau sends X_a and Z_a to X_perm[a] and Z_perm[a]."""

    _register = "permutation"
    gates: tuple[CliffordGate, ...] = ()

    def __init__(self, perm: Sequence[int]):
        self.perm = tuple(perm)
        self.n = len(self.perm)
        inv: list = [None] * self.n
        for i, p in enumerate(self.perm):
            if type(p) is not int or not 0 <= p < self.n or inv[p] is not None:
                raise ValueError(f"permutation entry perm[{i}] = {p!r} is out of range or repeated")
            inv[p] = i
        self.perm_inv = tuple(inv)

    def inverse(self) -> "PermutationQca":
        return PermutationQca(self.perm_inv)

    @cached_property
    def _tableau(self) -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]:
        return tuple(((1 << p, 0, 0), (0, 1 << p, 0)) for p in self.perm)


# Both handles offer n, perm (a site relabelling) followed by gates (in
# temporal order), inverse, and the `_TableauHandle` methods.
QcaLike = Union[CliffordCircuit, PermutationQca]


# ---------------------------------------------------------------------------
# Stabilizer mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizerMixture:
    """rho = 2^(k-n) prod_j (1+g_j) for independent commuting signed Paulis."""

    n: int
    generators: tuple[PauliOperator, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_generators(cls, n: int, generators: Iterable[PauliOperator]) -> "StabilizerMixture":
        """The mixture of the given generators, validated."""
        state = cls(n, tuple(generators))
        state.validate()
        return state

    @classmethod
    def plus_state(cls, n: int) -> "StabilizerMixture":
        return cls(n, tuple(PauliOperator.x_at(n, i) for i in range(n)))

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerMixture":
        return cls(n, tuple(PauliOperator.z_at(n, i) for i in range(n)))

    # -- structure ------------------------------------------------------

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def is_pure(self) -> bool:
        return self.k == self.n

    def validate(self) -> None:
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator register size mismatch")
            if not g.is_hermitian():
                raise ValueError(f"generator {g} is not hermitian")
        gens = self.generators
        rows = _gram(self.n, [g.symplectic() for g in gens])
        if any(rows):
            # Name the first anticommuting pair (i, j), i < j, in lexicographic order.
            i = min((row & -row).bit_length() - 1 for row in rows if row)
            j = next(j for j, row in enumerate(rows) if row >> i & 1)
            raise ValueError(f"generators {gens[i]} and {gens[j]} anticommute")
        if len(self._basis[1]) != len(gens):
            raise ValueError("generators are not independent")

    def tensor(self, other: "StabilizerMixture") -> "StabilizerMixture":
        n, total = self.n, self.n + other.n
        gens = [PauliOperator(total, g.x, g.z, g.phase) for g in self.generators]
        gens += [PauliOperator(total, g.x << n, g.z << n, g.phase) for g in other.generators]
        return StabilizerMixture(total, tuple(gens))

    # -- group membership -------------------------------------------------

    @cached_property
    def _basis(self) -> SpanBasis:
        """One reduction of the generators' (x|z) rows, shared by every query:
        reduced rows, pivot columns, row transform, pivot column -> row."""
        return span_basis([g.symplectic() for g in self.generators], 2 * self.n)

    def _combine(self, mask: int) -> PauliOperator:
        """The product of the generators selected by mask, in ascending
        order, with PauliOperator.__mul__'s phase rule and one object."""
        return PauliOperator(self.n, *_product(self.generators, mask))

    def element_with_vector(self, vec: int) -> Optional[PauliOperator]:
        """The product of generators whose packed (x|z) row is vec, or None
        when vec is outside the row space."""
        combo = self.combination(vec)
        return None if combo is None else self._combine(combo)

    def combination(self, vec: int) -> Optional[int]:
        """The generators (bit j for generator j) whose product has packed
        (x|z) row vec, or None when vec is outside the row space."""
        return span_combination(self._basis, vec)

    def _hermitian_combination(self, p: PauliOperator) -> Optional[int]:
        """`combination` of the hermitian p's bits; an operator on another
        register, or a non-hermitian one, raises ValueError."""
        if not _check_register(p, self.n, "state").is_hermitian():
            raise ValueError(f"a group sign requires a hermitian operator, got {p}")
        return self.combination(p.symplectic())

    def membership_sign(self, p: PauliOperator) -> Optional[int]:
        """+1 if the hermitian p is in the signed group, -1 if -p is, None
        otherwise (ints only).  The member with p's bits is hermitian too, so
        the two phases differ by 0 or 2."""
        combo = self._hermitian_combination(p)
        if combo is None:
            return None
        return 1 - ((_product(self.generators, combo)[2] - p.phase) & 3)

    def expectation(self, p: PauliOperator) -> int:
        """Tr(rho p) for a hermitian Pauli: exactly -1, 0, or +1."""
        sign = self.membership_sign(p)
        return 0 if sign is None else sign

    # -- evolution ---------------------------------------------------------

    def apply_circuit(self, circuit: Union[CliffordGate, _TableauHandle]) -> "StabilizerMixture":
        """The evolved state under a gate or any tableau handle, not
        re-validated: each is proven when built, so a valid state maps to a
        valid one."""
        if circuit.n != self.n:
            raise ValueError("circuit register size mismatch")
        return StabilizerMixture(self.n, tuple(map(circuit.conjugate, self.generators)))

    def measure(self, p: PauliOperator, rng: np.random.Generator) -> tuple[int, "StabilizerMixture"]:
        """Projective measurement of a hermitian Pauli: one `SignFamily`
        step with zero masks, which draws a bit only for a random outcome."""
        family = SignFamily(self, (0,) * self.k)
        (bit, _), family = family.measure(p, lambda: (int(rng.integers(0, 2)), 0))
        return 1 - 2 * bit, family.state

    def project(self, p: PauliOperator, sign: int) -> "StabilizerMixture":
        """Forced projection onto the sign eigenspace of p (renormalized):
        one `SignFamily` step with zero masks."""
        if sign not in (1, -1):
            raise ValueError(f"projection sign must be +1 or -1, got {sign!r}")
        bit = (1 - sign) >> 1
        (known, _), family = SignFamily(self, (0,) * self.k).measure(p, lambda: (bit, 0))
        if known != bit:
            raise ZeroProjectionError(f"projection onto {sign}*{p} has zero weight")
        return family.state

    # -- comparison and canonical form --------------------------------------

    def canonical(self) -> "StabilizerMixture":
        """Row-echelon canonical generators (unique per signed group)."""
        _, pivots, transform, _ = self._basis
        gens = tuple(self._combine(transform[r]) for r in range(len(pivots)))
        return StabilizerMixture(self.n, gens)

    def same_state(self, other: "StabilizerMixture") -> bool:
        """Equal signed groups: with independent generators on both sides and
        equal k, self's group lies in other's exactly when it is all of it.
        Only other's basis is read, one elimination of its own rows, so other
        is the reference state (target, or target (x) catalyst) and a freshly
        evolved self needs no elimination."""
        if self.n != other.n or self.k != other.k:
            return False
        return all(other.membership_sign(g) == 1 for g in self.generators)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "generators": [g.to_string() for g in self.canonical().generators],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "StabilizerMixture":
        """The state of a `to_json_dict` payload; a malformed one raises ValueError."""
        if not isinstance(payload, dict) or not {"n", "generators"} <= payload.keys():
            raise ValueError("a stabilizer payload is a dict with keys 'n' and 'generators'")
        n, texts = payload["n"], payload["generators"]
        if type(n) is not int or n < 0:
            raise ValueError(f"'n' must be a non-negative integer, got {n!r}")
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ValueError("'generators' must be a list of Pauli strings")
        return cls.from_generators(n, (PauliOperator.from_string(t) for t in texts))


@dataclass(frozen=True)
class SignFamily:
    """A stabilizer state whose generator signs are affine GF(2) functions
    of outcome bits: generator j carries the base sign of `state`, flipped
    once for each set bit of masks[j] & bits.  This is the sign-tracking
    half of Pauli-frame simulation applied to the CHP update, so one run
    covers every outcome of its random measurements at once."""

    state: StabilizerMixture
    masks: tuple[int, ...]

    def measure(
        self, p: PauliOperator, draw: Callable[[], tuple[int, int]]
    ) -> tuple[tuple[int, int], "SignFamily"]:
        """The CHP update for the hermitian p in one scan of the generators:
        (base sign bit, mask) of the outcome, and the family after it.

        A p that commutes with every generator and is in the group up to
        sign has outcome `sign_of(p)` and leaves the family as it is.  Else
        `draw()` gives the outcome and p joins with that sign, in place of
        the first anticommuting generator (each other one is multiplied by
        it, masks too) or as a new one.  Nothing is re-checked: a
        projection keeps a valid state valid."""
        state, gens, masks = self.state, list(self.state.generators), list(self.masks)
        if not _check_register(p, state.n, "state").is_hermitian():
            raise ValueError("cannot measure a non-hermitian operator")
        anti = [j for j, g in enumerate(gens) if g.symplectic_product(p)]
        if not anti:
            known = self.sign_of(p)
            if known is not None:
                return known, self
            anti = [len(gens)]
            gens.append(p)
            masks.append(0)
        base, mask = draw()
        j0 = anti[0]
        for j in anti[1:]:
            gens[j] = gens[j] * gens[j0]
            masks[j] ^= masks[j0]
        gens[j0] = p.negate() if base else p
        masks[j0] = mask
        return (base, mask), SignFamily(StabilizerMixture(state.n, tuple(gens)), tuple(masks))

    def sign_of(self, p: PauliOperator) -> Optional[tuple[int, int]]:
        """(base sign bit, mask) of the hermitian p's sign in the group, or
        None when p is outside it up to sign.  The member with p's bits is
        the product of the generators `combination` selects, so its mask
        is the XOR of theirs; both are hermitian, so the phases differ by
        0 or 2."""
        state = self.state
        combo = state._hermitian_combination(p)
        if combo is None:
            return None
        phase = (_product(state.generators, combo)[2] - p.phase) & 3
        mask = 0
        while combo:
            low = combo & -combo
            combo ^= low
            mask ^= self.masks[low.bit_length() - 1]
        return phase >> 1, mask

    def evaluate(self, bits: int) -> StabilizerMixture:
        """The state at the given outcome bits, on integers only: each
        generator whose mask meets bits an odd number of times flips sign."""
        gens = zip(self.state.generators, self.masks)
        flipped = (g.negate() if (m & bits).bit_count() & 1 else g for g, m in gens)
        return StabilizerMixture(self.state.n, tuple(flipped))


# ---------------------------------------------------------------------------
# Exact mixed-state diagnostics
# ---------------------------------------------------------------------------


def fidelity(rho: StabilizerMixture, sigma: StabilizerMixture) -> Union[Fraction, float]:
    """Uhlmann fidelity of two commuting-projector stabilizer mixtures.

    Exact via sign bookkeeping on the group intersection: zero when some
    common unsigned element carries opposite signs, else 2^(s - (k1+k2)/2)
    with s the intersection dimension.  One `span_basis` of rho's rows, then
    sigma's, reads the intersection: each vanished row's transform pairs a
    product of rho's generators with one of sigma's with the same bits, and
    these s pairs span it.  The sign difference is a character of the
    intersection, so it is trivial exactly when it is on the pairs.  Raises
    UnsupportedCaseError when the two generator sets do not pairwise commute.
    """
    if rho.n != sigma.n:
        raise ValueError("register size mismatch")
    k, low = rho.k, (1 << rho.k) - 1
    rows = [g.symplectic() for g in rho.generators + sigma.generators]
    if any(row & low for row in _gram(rho.n, rows)[k:]):
        raise UnsupportedCaseError("fidelity requires pairwise commuting generator sets")
    _, pivots, transform, _ = span_basis(rows, 2 * rho.n)
    pairs = transform[len(pivots):]
    for t in pairs:
        if (_product(rho.generators, t & low)[2] - _product(sigma.generators, t >> k)[2]) & 3 == 2:
            return Fraction(0)
    e2 = 2 * len(pairs) - rho.k - sigma.k
    if e2 % 2 == 0:
        e = e2 // 2
        return Fraction(2**e) if e >= 0 else Fraction(1, 2**-e)
    return float(2.0 ** (e2 / 2.0))


def renyi_correlator(
    rho: StabilizerMixture, o_i: PauliOperator, o_j: PauliOperator, order: int
) -> Fraction:
    """Renyi-n correlator Tr(rho sigma^(n-1))/Tr(rho^n), sigma = Oi' Oj rho Oj' Oi.

    For Pauli charge operators the conjugated state shares the unsigned group
    of rho, so the value is the exact sign-consistency indicator for n >= 2
    and trivially 1 for n = 1.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        return Fraction(1)
    w = o_i.dagger() * o_j
    for g in rho.generators:
        if w.symplectic_product(g):
            return Fraction(0)
    return Fraction(1)


def is_invariant(state: StabilizerMixture, conj: QcaLike) -> bool:
    """True iff conjugation maps the signed stabilizer group onto itself."""
    return all(state.membership_sign(conj.conjugate(g)) == 1 for g in state.generators)
