"""Theorem checking: doubled circuits, symmetry audits, catalysis reports,
the entangler invariant, and symmetry-localization solvers.

The doubled construction writes U (x) U^-1 on two registers as exactly two
logical layers: conjugated swaps v_i = (U (x) 1) s_i (U^-1 (x) 1) followed by
the swap layer s_i.  Each v_i is compiled to an explicit local gate whose
dense form is pinned exactly (conjugated swaps have positive trace 2^(m-1),
so the trace-positive phase convention reproduces the operator with no
residual phase, and the compiled product equals U (x) U^-1 as an operator).
Sub-packing of the commuting v_i into disjoint-support layers is a storage
artifact and does not count toward the logical depth.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import dense as dn
from .cohomology import CocycleCircuit
from .gf2 import BitMatrix
from .models import (
    Catalyst,
    ModelBundle,
    QuditSymmetry,
    RingLattice,
    SymmetryRep,
    symmetry_defect,
)
from .pauli import PauliOperator, SiteSet
from .stabilizer import (
    CliffordCircuit,
    CliffordGate,
    QcaLike,
    StabilizerMixture,
    fidelity,
    pack_gates_into_layers,
    swap_gate,
    tableau_gate,
)


class RegionTooSmallError(Exception):
    """The commutator did not collapse to a phase times identity."""


# ---------------------------------------------------------------------------
# QCA locality audit
# ---------------------------------------------------------------------------


def _site_images(
    conj: Callable[[PauliOperator], PauliOperator], n: int
) -> list[tuple[PauliOperator, PauliOperator]]:
    """(conj(X_a), conj(Z_a)) for every site a."""
    return [(conj(PauliOperator.x_at(n, a)), conj(PauliOperator.z_at(n, a))) for a in range(n)]


def _spread(images: list[tuple[PauliOperator, PauliOperator]], lattice) -> int:
    worst = 0
    for i, pair in enumerate(images):
        for image in pair:
            for j in image.support():
                worst = max(worst, lattice.distance(i, j))
    return worst


def qca_spread(qca: QcaLike, n: int, lattice) -> int:
    """Exact maximum support growth of single-site operators under the QCA."""
    return _spread(_site_images(qca.conjugate, n), lattice)


# ---------------------------------------------------------------------------
# Doubled circuit construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubledCircuit:
    """U (x) U^-1 as one v-layer plus one s-layer on registers [0,n), [n,2n)."""

    n: int
    v_gates: tuple[CliffordGate, ...]
    s_gates: tuple[CliffordGate, ...]

    @property
    def logical_depth(self) -> int:
        return 2

    @property
    def max_gate_support(self) -> int:
        return max(len(g.support) for g in self.all_gates())

    def all_gates(self) -> list[CliffordGate]:
        return list(self.v_gates) + list(self.s_gates)

    def as_circuit(self) -> CliffordCircuit:
        """Temporal order: the swap layer acts first, then the v gates (the
        operator product (prod v_i)(prod s_i) has the swaps rightmost)."""
        return self._circuit

    @cached_property
    def _circuit(self) -> CliffordCircuit:
        packed = pack_gates_into_layers(2 * self.n, self.v_gates)
        return CliffordCircuit(2 * self.n, (self.s_gates,) + packed.layers)

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        return self.as_circuit().conjugate(p)

    def apply_stab(self, state: StabilizerMixture) -> StabilizerMixture:
        return state.apply_circuit(self.as_circuit())

    @cached_property
    def v_terms(self) -> tuple[tuple[SiteSet, np.ndarray], ...]:
        """(support, dense unitary) of each v gate, built once."""
        return tuple((g.support, dn.gate_unitary(g)) for g in self.v_gates)

    def apply_dense(self, state: dn.DenseState) -> dn.DenseState:
        """The s-layer (exchange registers [0, n) and [n, 2n)), then the
        v-terms; the norm is checked once, at the end."""
        n = self.n
        state = dn.apply_site_permutation(state, list(range(n, 2 * n)) + list(range(n)))
        for support, mat in self.v_terms:
            state = dn.apply_matrix(state, mat, support)
        return dn.check_norm(state)


def doubled_conjugate(qca: QcaLike, n: int, p: PauliOperator) -> PauliOperator:
    """Conjugation by U (x) U^-1 on a 2n-qubit operator."""
    mask = (1 << n) - 1
    part_a = PauliOperator(n, p.x & mask, p.z & mask, 0)
    part_b = PauliOperator(n, p.x >> n, p.z >> n, 0)
    img_a = qca.conjugate(part_a)
    img_b = qca.conjugate_inverse(part_b)
    return PauliOperator(
        2 * n,
        img_a.x | (img_b.x << n),
        img_a.z | (img_b.z << n),
        (p.phase + img_a.phase + img_b.phase) & 3,
    )


def build_doubled_fdqc(qca: QcaLike, n: int, lattice) -> DoubledCircuit:
    """Compile U (x) U^-1 into local symmetric gates (conjugated swaps + swaps).

    Each v_i = (U (x) 1) s_i (U^-1 (x) 1) is assembled from the single-site
    images U P U^dagger and U^dagger P U, computed once for all i.  For P_a on
    register A, write U^dagger P_a U = R S with S the phase-free site-i factor:
    the swap moves S to site n+i and U maps R = (U^dagger P_a U) S^dagger to
    P_a (U S U^dagger)^dagger.  P_{n+i} is swapped to P_i and maps to U P_i U^dagger.
    """
    forward = _site_images(qca.conjugate, n)
    if _spread(forward, lattice) > max(1, n // 3):
        raise ValueError("entangler failed the locality audit at this size")
    backward = _site_images(qca.conjugate_inverse, n)
    # touching[i] = register-A sites whose inverse-conjugated X/Z images reach i.
    touching: list[list[int]] = [[] for _ in range(n)]
    for a, (bx, bz) in enumerate(backward):
        for i in SiteSet(bx.support() + bz.support()):
            touching[i].append(a)
    n2 = 2 * n
    identity = PauliOperator.identity(n)
    v_gates = []
    for i in range(n):
        fx, fz = forward[i]
        b = n + i
        images = {}
        for a in touching[i]:
            pair = []
            for p, q in zip((PauliOperator.x_at(n, a), PauliOperator.z_at(n, a)), backward[a]):
                # S = X_i^sx Z_i^sz is the site-i factor of q = U^dagger p U.
                sx, sz = (q.x >> i) & 1, (q.z >> i) & 1
                u_s = fx if sx else identity
                if sz:
                    u_s = u_s * fz
                head = p * u_s.dagger()
                pair.append(PauliOperator(n2, head.x | sx << b, head.z | sz << b, head.phase))
            images[a] = tuple(pair)
        images[b] = (fx.shift(0, n2), fz.shift(0, n2))
        v_gates.append(tableau_gate(n2, images))
    s_gates = tuple(swap_gate(n2, i, n + i) for i in range(n))
    return DoubledCircuit(n, tuple(v_gates), s_gates)


# -- doubled form of diagonal qudit entanglers -------------------------------


@dataclass
class DoubledDiagonalCircuit:
    """U (x) U^-1 for a diagonal qudit circuit: dense v-layer plus swaps."""

    n: int
    v_terms: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    @property
    def logical_depth(self) -> int:
        return 2

    @property
    def max_gate_support(self) -> int:
        return max(len(s) for s, _ in self.v_terms)

    # The same two layers: the register swap, then the v-terms.
    apply_dense = DoubledCircuit.apply_dense


def build_doubled_diagonal(circuit: CocycleCircuit) -> DoubledDiagonalCircuit:
    """v_i is the register swap of sites i and n+i, conjugated by the gates
    that touch site i."""
    n, q = circuit.num_sites, circuit.q
    swap = np.eye(q * q, dtype=np.complex128).reshape((q,) * 4).transpose(1, 0, 2, 3)
    swap = swap.reshape(q * q, q * q)
    v_terms = tuple(circuit.conjugate_term((i, n + i), swap) for i in range(n))
    return DoubledDiagonalCircuit(n, v_terms)


# ---------------------------------------------------------------------------
# Symmetric-gate audit
# ---------------------------------------------------------------------------


def audit_gate_symmetric(gate: CliffordGate, symmetry: SymmetryRep) -> bool:
    """True iff the gate commutes with every generator's restriction to its
    support (exact; valid because 0-form generators are on-site products and
    loop/line generators restrict to their intersection with the support)."""
    for gen in symmetry.generators:
        restricted = gen.pauli.restrict(gate.support)
        # Every gate fixes the identity: skip generators that miss the support.
        if (restricted.x or restricted.z) and gate.conjugate(restricted) != restricted:
            return False
    return True


def audit_dense_gate_symmetric(
    support: Sequence[int],
    matrix: np.ndarray,
    qsym: QuditSymmetry,
) -> bool:
    """Dense audit for qudit gates: commutation with the on-site symmetry
    restricted to the support (doubled registers repeat the action)."""
    for g in qsym.group.elements():
        site_mat = qsym.site_matrix(g)
        restriction = np.eye(1, dtype=np.complex128)
        for _ in support:
            restriction = np.kron(site_mat, restriction)
        if np.linalg.norm(matrix @ restriction - restriction @ matrix) > 1e-10:
            return False
    return True


# ---------------------------------------------------------------------------
# Catalysis verification
# ---------------------------------------------------------------------------


@dataclass
class CatalysisReport:
    model: str
    catalyst: str
    engine: str
    logical_depth: int
    max_gate_support: int
    gate_audits: list[tuple[str, bool]]
    state_match: str
    overlap_modulus: Optional[float]
    passed: bool
    wall_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "catalyst": self.catalyst,
            "engine": self.engine,
            "logical_depth": self.logical_depth,
            "max_gate_support": self.max_gate_support,
            "gate_audits": [{"gate": g, "symmetric": ok} for g, ok in self.gate_audits],
            "state_match": self.state_match,
            "overlap_modulus": self.overlap_modulus,
            "passed": self.passed,
            "wall_seconds": round(self.wall_seconds, 6),
        }


def verify_catalysis(
    bundle: ModelBundle,
    catalyst: Catalyst,
    doubled: Optional[DoubledCircuit] = None,
) -> CatalysisReport:
    """Run the doubled circuit on (trivial x catalyst) and check the outcome.

    The catalyst must be at least weakly symmetric under every symmetry
    generator that `catalyst.broken` does not name; otherwise this raises
    ValueError, because a state that breaks the symmetry outright can be
    returned unchanged without the transformation being symmetric.
    Stabilizer catalysts are compared as exact signed groups (operator
    equality for mixtures, equality up to global phase for pure states);
    dense catalysts by overlap modulus.  A symmetric catalyst that does not
    come back unchanged is reported as a failure, not raised.
    """
    start = time.perf_counter()
    failed = symmetry_defect(bundle, catalyst, weak_only=True)
    if failed is not None:
        raise ValueError(f"catalyst {catalyst.name} is not symmetric under {failed}")
    if bundle.is_clifford:
        if doubled is None:
            doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
        dsym = bundle.symmetry.doubled()
        audits = [(repr(g), audit_gate_symmetric(g, dsym)) for g in doubled.all_gates()]
    else:
        # Diagonal qudit entangler: dense throughout.
        doubled = build_doubled_diagonal(bundle.entangler)
        qsym = bundle.qudit_symmetry
        audits = [
            (f"v{tuple(support)}", audit_dense_gate_symmetric(support, mat, qsym))
            for support, mat in doubled.v_terms
        ]
    stabilizer = catalyst.engine == "stabilizer"
    if stabilizer:
        evolved = doubled.apply_stab(bundle.trivial.tensor(catalyst.stab))
        matched = evolved.same_state(bundle.target.tensor(catalyst.stab))
        kind = "operator-equality" if catalyst.mixed else "group-equality-up-to-phase"
        modulus = None
    else:
        evolved = doubled.apply_dense(bundle.trivial_dense().tensor(catalyst.dense_state))
        expected = bundle.target_dense().tensor(catalyst.dense_state)
        modulus = abs(complex(np.vdot(expected.amps, evolved.amps)))
        matched = modulus >= 1 - 1e-10
        kind = "overlap"
    return CatalysisReport(
        model=bundle.name,
        catalyst=catalyst.name,
        engine="stabilizer" if stabilizer else "dense",
        logical_depth=doubled.logical_depth,
        max_gate_support=doubled.max_gate_support,
        gate_audits=audits,
        state_match=kind if matched else "mismatch",
        overlap_modulus=modulus,
        passed=matched and all(ok for _, ok in audits),
        wall_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Entangler invariant c_{g,h}
# ---------------------------------------------------------------------------


@dataclass
class InvariantTable:
    region_a: tuple[int, int]
    region_b: tuple[int, int]
    entries: dict[tuple[str, str], complex]
    exact_ipower: Optional[dict[tuple[str, str], int]] = None

    def to_json_dict(self) -> dict:
        return {
            "region_a": list(self.region_a),
            "region_b": list(self.region_b),
            "entries": [
                {
                    "g": g,
                    "h": h,
                    "re": self.entries[(g, h)].real,
                    "im": self.entries[(g, h)].imag,
                    **(
                        {"ipower": self.exact_ipower[(g, h)]}
                        if self.exact_ipower is not None
                        else {}
                    ),
                }
                for (g, h) in sorted(self.entries)
            ],
            "antisymmetry": [
                {
                    "g": g,
                    "h": h,
                    "product_re": (self.entries[(g, h)] * self.entries.get((h, g), 1.0)).real,
                }
                for (g, h) in sorted(self.entries)
            ],
        }


def _interval_sites(a: int, b: int, n: int) -> list[int]:
    return [(a + k) % n for k in range((b - a) % n + 1)]


def _invariant_regions(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The inclusive intervals A = [0, n/2) and B = [n/4, 3n/4) of a ring."""
    return (0, n // 2 - 1), (n // 4, 3 * n // 4 - 1)


def spt_invariant(qca: QcaLike, symmetry: SymmetryRep, n: int) -> InvariantTable:
    """Phases c_{g,h} from the truncated-symmetry commutator, exact i-powers.

    The symmetry is truncated to A = [0, n/2) and B = [n/4, 3n/4) of the
    ring of n sites.  The four boundary points a < b < c < d must be
    pairwise separated by more than the entangler spread, so that each
    truncation boundary sits either in the bulk or fully outside the other
    region; otherwise this raises RegionTooSmallError.  Rings of n >= 12
    satisfy this for spread-1 entanglers, as the dense oracle confirms.
    """
    region_a, region_b = _invariant_regions(n)
    spread = qca_spread(qca, n, RingLattice(n))
    a, c = region_a
    b, d = region_b
    gaps = ((b - a) % n, (c - b) % n, (d - c) % n, (a - d) % n)
    if min(gaps) < spread + 1:
        raise RegionTooSmallError(
            f"boundary separations {gaps} must exceed the entangler spread {spread}"
        )
    sites_a = _interval_sites(a, c, n)
    sites_b = _interval_sites(b, d, n)
    elements = symmetry.zero_form_elements()
    entries: dict[tuple[str, str], complex] = {}
    ipowers: dict[tuple[str, str], int] = {}
    for label_g, pauli_g in elements:
        trunc_a = pauli_g.restrict(sites_a)
        conj_a = qca.conjugate_inverse(trunc_a)
        for label_h, pauli_h in elements:
            trunc_b = pauli_h.restrict(sites_b)
            product = conj_a * trunc_b * conj_a.dagger() * trunc_b.dagger()
            if product.x or product.z:
                raise RegionTooSmallError(
                    "the commutator is not proportional to identity; enlarge the regions"
                )
            entries[(label_g, label_h)] = 1j**product.phase
            ipowers[(label_g, label_h)] = product.phase
    return InvariantTable(region_a, region_b, entries, ipowers)


def spt_invariant_dense(
    apply_u: Callable[[dn.DenseState], dn.DenseState],
    apply_u_inv: Callable[[dn.DenseState], dn.DenseState],
    symmetry: SymmetryRep,
    n: int,
) -> InvariantTable:
    """Brute-force oracle for `spt_invariant`, on the same regions: apply
    the commutator string to three random dense states, which must each
    return with one common phase."""
    region_a, region_b = _invariant_regions(n)
    sites_a = _interval_sites(*region_a, n)
    sites_b = _interval_sites(*region_b, n)
    rng = np.random.default_rng(1234)
    entries: dict[tuple[str, str], complex] = {}
    elements = symmetry.zero_form_elements()
    for label_g, pauli_g in elements:
        trunc_a = pauli_g.restrict(sites_a)
        for label_h, pauli_h in elements:
            trunc_b = pauli_h.restrict(sites_b)
            values = []
            for _ in range(3):
                amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                amps /= np.linalg.norm(amps)
                psi = dn.DenseState(2, n, amps)
                out = dn.apply_pauli(psi, trunc_b.dagger())
                out = apply_u(out)
                out = dn.apply_pauli(out, trunc_a.dagger())
                out = apply_u_inv(out)
                out = dn.apply_pauli(out, trunc_b)
                out = apply_u(out)
                out = dn.apply_pauli(out, trunc_a)
                out = apply_u_inv(out)
                phase = complex(np.vdot(psi.amps, out.amps))
                if abs(abs(phase) - 1) > 1e-10:
                    raise RegionTooSmallError("dense commutator is not a pure phase")
                if np.linalg.norm(out.amps - phase * psi.amps) > 1e-9:
                    raise RegionTooSmallError("dense commutator is not proportional to identity")
                values.append(phase)
            if max(abs(v - values[0]) for v in values) > 1e-9:
                raise RegionTooSmallError("dense phases disagree across trial states")
            entries[(label_g, label_h)] = values[0]
    return InvariantTable(region_a, region_b, entries)


# ---------------------------------------------------------------------------
# Symmetry localization
# ---------------------------------------------------------------------------


def _truncation(
    n: int, gamma: tuple[int, int], sym_pauli: PauliOperator, radius: int
) -> tuple[PauliOperator, list[int], list[int]]:
    """U_gamma and the left and right endpoint regions, each reaching
    `radius` sites outward from its endpoint (inclusive)."""
    a, b = gamma
    if radius < 0:
        raise ValueError(f"the radius must be at least 0, got {radius}")
    if (b - a) % n + 1 < 4 * radius:
        raise ValueError("the interval must be at least four times the radius")
    left = sorted({(a - k) % n for k in range(radius + 1)})
    right = sorted({(b + k) % n for k in range(radius + 1)})
    return sym_pauli.restrict(_interval_sites(a, b, n)), left, right


def _split_endpoint_operator(
    w: PauliOperator, left: Sequence[int], right: Sequence[int]
) -> tuple[PauliOperator, PauliOperator]:
    lmask = 0
    for s in left:
        lmask |= 1 << s
    l_part = PauliOperator(w.n, w.x & lmask, w.z & lmask, w.phase)
    r_part = PauliOperator(w.n, w.x & ~lmask, w.z & ~lmask, 0)
    return l_part, r_part


def strong_localization(
    rho: StabilizerMixture,
    gamma: tuple[int, int],
    sym_pauli: PauliOperator,
    radius: int,
) -> Optional[tuple[PauliOperator, PauliOperator]]:
    """Endpoint operators W = L (x) R with rho * U_gamma = rho * W, or None.

    U_gamma is the symmetry truncated to the interval gamma = (a, b); the
    endpoint regions reach `radius` sites outward from each endpoint
    (inclusive).  The search is a GF(2) solve over the quotient of the Pauli
    group by the stabilizer group: exact, no sampling.  Requires
    len(gamma) >= 4 * radius >= 0.
    """
    n = rho.n
    u_gamma, left, right = _truncation(n, gamma, sym_pauli, radius)
    allowed = set(left) | set(right)
    gens = rho.generators
    # Prefer the trivial witness: the truncated symmetry absorbed entirely.
    h = rho.element_with_vector(u_gamma.symplectic())
    if h is not None:
        w = h.dagger() * u_gamma
        return _split_endpoint_operator(w, left, right)
    forbidden = [s for s in range(n) if s not in allowed]
    rows = []
    target = 0
    for idx, s in enumerate(forbidden):
        for offset, getter in enumerate((lambda p: (p.x >> s) & 1, lambda p: (p.z >> s) & 1)):
            row = 0
            for j, g in enumerate(gens):
                if getter(g):
                    row |= 1 << j
            rows.append(row)
            if getter(u_gamma):
                target |= 1 << (2 * idx + offset)
    mat = BitMatrix(rows, len(gens))
    combo = mat.solve_mask(target)
    if combo is None:
        return None
    h = rho._combine(combo)
    w = h.dagger() * u_gamma
    if rho.membership_sign(u_gamma * w.dagger()) != 1:
        raise AssertionError("localization witness failed its defining identity")
    return _split_endpoint_operator(w, left, right)


def weak_localization(
    rho: StabilizerMixture,
    gamma: tuple[int, int],
    sym_pauli: PauliOperator,
    radius: int,
) -> Optional[tuple[PauliOperator, PauliOperator]]:
    """Endpoint W with U_gamma' rho U_gamma = W' rho W, or None (exact);
    the same regions and preconditions as `strong_localization`."""
    n = rho.n
    u_gamma, left, right = _truncation(n, gamma, sym_pauli, radius)
    region = sorted(set(left) | set(right))
    gens = rho.generators
    # Unknowns: x and z bits of W on the region; equations: one per generator.
    ncols = 2 * len(region)
    rows = []
    rhs = []
    for g in gens:
        row = 0
        for c, s in enumerate(region):
            if (g.z >> s) & 1:  # x-bit of W at s pairs with the z-bit of g
                row |= 1 << (2 * c)
            if (g.x >> s) & 1:
                row |= 1 << (2 * c + 1)
        rows.append(row)
        rhs.append(u_gamma.symplectic_product(g))
    mat = BitMatrix(rows, ncols)
    sol = mat.solve_mask(sum(bit << r for r, bit in enumerate(rhs)))
    if sol is None:
        return None
    x = z = 0
    for c, s in enumerate(region):
        if (sol >> (2 * c)) & 1:
            x |= 1 << s
        if (sol >> (2 * c + 1)) & 1:
            z |= 1 << s
    w = PauliOperator(n, x, z, (x & z).bit_count() % 4)
    for g in gens:
        if w.symplectic_product(g) != u_gamma.symplectic_product(g):
            raise AssertionError("weak localization witness failed its identity")
    return _split_endpoint_operator(w, left, right)


# ---------------------------------------------------------------------------
# Correlator diagnostics
# ---------------------------------------------------------------------------


def _pauli_conjugated(rho: StabilizerMixture, w: PauliOperator) -> StabilizerMixture:
    """W rho W^dagger for a Pauli W: the generators W anticommutes with flip
    sign.  The result keeps rho's unsigned group, so `fidelity` of the pair
    always applies (the two generator sets commute pairwise)."""
    return StabilizerMixture(
        rho.n, tuple(g if w.commutes(g) else g.negate() for g in rho.generators)
    )


def fidelity_correlator(
    rho: StabilizerMixture, o_i: PauliOperator, o_j: PauliOperator
) -> Union[Fraction, float]:
    """F(rho, Oi Oj' rho Oj Oi'), exact for commuting stabilizer mixtures."""
    return fidelity(rho, _pauli_conjugated(rho, o_i * o_j.dagger()))


def disorder_parameter(
    rho: StabilizerMixture, truncated_string: PauliOperator
) -> tuple[int, Union[Fraction, float]]:
    """(Tr(rho U_gamma-bar), F(rho, U rho U)) for a truncated 1-form string."""
    expectation = rho.expectation(truncated_string)
    return expectation, fidelity(rho, _pauli_conjugated(rho, truncated_string))
