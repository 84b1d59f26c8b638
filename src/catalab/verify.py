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

A stabilizer report evolves by V's tableau, not its gates.  The telescoping
holds by construction: `build_doubled_fdqc` makes each v_i as W s_i W^dagger,
W = U (x) 1, through `conjugated_gate`, so with S = prod s_i
(prod v_i)(prod s_i) = W S W^dagger S = (U (x) 1)(1 (x) U^dagger) = U (x) U^-1.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

from ._numpy import _lazy, np

from .gf2 import span_basis, span_combination
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
    CliffordGate,
    QcaLike,
    StabilizerMixture,
    _TableauHandle,
    conjugated_gate,
    fidelity,
    swap_gate,
)

dn = _lazy("catalab.dense")
coh = _lazy("catalab.cohomology")


class RegionTooSmallError(Exception):
    """The commutator did not collapse to a phase times identity."""


# ---------------------------------------------------------------------------
# QCA locality audit
# ---------------------------------------------------------------------------


def qca_spread(qca: QcaLike, n: int, lattice) -> int:
    """Exact maximum support growth of single-site operators under the QCA."""
    if qca.n != n:
        raise ValueError("operator size does not match the entangler register")
    return qca.spread(lattice)


# ---------------------------------------------------------------------------
# Doubled circuit construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubledCircuit(_TableauHandle):
    """U (x) U^-1 on the n sites of registers [0, n/2) and [n/2, n): the
    s-layer, then the v-layer.  `_tableau` holds U's `doubled_tableau`; the
    gates multiply out to it by construction (see the module docstring),
    and `conjugate` and `apply_stab` read it."""

    n: int
    v_gates: tuple[CliffordGate, ...]
    s_gates: tuple[CliffordGate, ...]
    _tableau: tuple = field(repr=False, compare=False)
    _register = "circuit"

    @property
    def logical_depth(self) -> int:
        return 2

    @property
    def gates(self) -> tuple[CliffordGate, ...]:
        """Every gate, in temporal order: the swaps act first, since the
        operator product (prod v_i)(prod s_i) has them rightmost."""
        return self.s_gates + self.v_gates

    @property
    def max_gate_support(self) -> int:
        return max(len(g.support) for g in self.gates)

    def apply_stab(self, state: StabilizerMixture) -> StabilizerMixture:
        """Each generator through the tableau, not re-validated."""
        return state.apply_circuit(self)

    @cached_property
    def v_terms(self) -> tuple[tuple[SiteSet, np.ndarray], ...]:
        """(support, dense unitary) of each v gate, built once."""
        return tuple((g.support, dn.gate_unitary(g)) for g in self.v_gates)

    @cached_property
    def gate_terms(self) -> tuple[dn.GateTerm, ...]:
        """The v-terms read once for `dn.apply_gates`."""
        return tuple(dn.gate_term(support, mat) for support, mat in self.v_terms)

    def apply_dense(self, state: Union[dn.DenseState, Sequence[dn.DenseState]]) -> dn.DenseState:
        """The s-layer (exchange registers [0, n/2) and [n/2, n)), then the
        v-terms, on a state or a product's factors as `dn.apply_gates` takes them."""
        n, m = self.n, self.n // 2
        return dn.apply_gates(state, [*range(m, n), *range(m)], self.gate_terms)


def build_doubled_fdqc(qca: QcaLike, n: int, lattice) -> DoubledCircuit:
    """Compile U (x) U^-1 into local symmetric gates (conjugated swaps + swaps).

    Each v_i is its definition, the swap s_i conjugated by W = U (x) 1
    through `conjugated_gate`, which fixes register B.  n is the size of
    one register; the handle spans both.
    """
    if qca_spread(qca, n, lattice) > max(1, n // 3):
        raise ValueError("entangler failed the locality audit at this size")
    s_gates = tuple(swap_gate(2 * n, i, n + i) for i in range(n))
    v_gates = tuple(conjugated_gate(s, qca) for s in s_gates)
    return DoubledCircuit(2 * n, v_gates, s_gates, qca.doubled_tableau())


# -- doubled form of diagonal qudit entanglers -------------------------------


@dataclass
class DoubledDiagonalCircuit:
    """U (x) U^-1 for a diagonal qudit circuit, on the n sites of both
    registers: dense v-layer plus swaps."""

    n: int
    v_terms: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    @property
    def logical_depth(self) -> int:
        return 2

    @property
    def max_gate_support(self) -> int:
        return max(len(s) for s, _ in self.v_terms)

    # The same two layers: the register swap, then the v-terms.
    gate_terms = DoubledCircuit.gate_terms
    apply_dense = DoubledCircuit.apply_dense


def build_doubled_diagonal(circuit: coh.CocycleCircuit) -> DoubledDiagonalCircuit:
    """v_i is the register swap of sites i and n+i, conjugated by the gates
    that touch site i."""
    n, q = circuit.num_sites, circuit.q
    swap = np.eye(q * q, dtype=np.complex128).reshape((q,) * 4).transpose(1, 0, 2, 3)
    swap = swap.reshape(q * q, q * q)
    v_terms = tuple(circuit.conjugate_term((i, n + i), swap) for i in range(n))
    return DoubledDiagonalCircuit(2 * n, v_terms)


# ---------------------------------------------------------------------------
# Symmetric-gate audit
# ---------------------------------------------------------------------------


def audit_gate_symmetric(gate: CliffordGate, symmetry: SymmetryRep) -> bool:
    """True iff the gate commutes with every generator's restriction to its
    support (exact; valid because 0-form generators are on-site products and
    loop/line generators restrict to their intersection with the support)."""
    if symmetry.n != gate.n:
        raise ValueError("operator size does not match gate register")
    return gate.fixes(symmetry.paulis)


def audit_dense_gate_symmetric(
    support: Sequence[int],
    matrix: np.ndarray,
    qsym: QuditSymmetry,
) -> bool:
    """Dense audit for qudit gates: commutation with the on-site symmetry
    restricted to the support (doubled registers repeat the action).  The
    restriction R permutes the basis, so R^dagger M R is M read at the
    images, and ||M R - R M|| = ||R^dagger M R - M|| (Frobenius)."""
    for g in qsym.group.elements():
        image, _ = dn.relabel_basis_map(qsym.group.order, len(support), qsym.mapping(g))
        if np.linalg.norm(matrix[np.ix_(image, image)] - matrix) > 1e-10:
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

    The catalyst must have the symmetry it declares, by the rule of
    `symmetry_defect` that `build_catalyst` runs too, or this raises
    ValueError: a state without it can come back unchanged, as the
    maximally mixed state does from every U, with no catalysis under it.
    Stabilizer catalysts are compared as exact signed groups (operator
    equality for mixtures, equality up to global phase for pure states);
    dense catalysts by overlap modulus.  A symmetric catalyst that does not
    come back unchanged is reported as a failure, not raised.
    """
    start = time.perf_counter()
    failed = symmetry_defect(bundle, catalyst)
    if failed is not None:
        raise ValueError(f"catalyst {catalyst.name} is not symmetric under {failed}")
    if bundle.is_clifford:
        if doubled is None:
            doubled = build_doubled_fdqc(bundle.entangler, bundle.n, bundle.lattice)
        dsym = bundle.symmetry.doubled()
        # Reports list the v-gate audits first, then the swaps.
        audits = [(repr(g), audit_gate_symmetric(g, dsym)) for g in doubled.v_gates + doubled.s_gates]
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
        evolved = doubled.apply_dense([bundle.trivial_dense(), catalyst.dense_state])
        modulus = abs(dn.overlap([bundle.target_dense(), catalyst.dense_state], evolved))
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
                phase = dn.overlap(psi, out)
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
    # Prefer the trivial witness: the truncated symmetry absorbed entirely.
    h = rho.element_with_vector(u_gamma.symplectic())
    if h is not None:
        w = h.dagger() * u_gamma
        return _split_endpoint_operator(w, left, right)
    # Otherwise h must agree with U_gamma off the endpoint regions: one
    # elimination of the generators' rows masked to those sites.
    outside = sum(1 << s for s in range(n) if s not in allowed)
    outside |= outside << n
    rows = [g.symplectic() & outside for g in rho.generators]
    combo = span_combination(span_basis(rows, 2 * n), u_gamma.symplectic() & outside)
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
    # One row per unknown bit of W over the generators, x then z at each
    # region site: W's x bit at s pairs with g's z bit there, and its z bit
    # with g's x bit.  The target holds U_gamma's product with each g.
    rows = []
    for s in region:
        rows.append(sum(((g.z >> s) & 1) << j for j, g in enumerate(gens)))
        rows.append(sum(((g.x >> s) & 1) << j for j, g in enumerate(gens)))
    target = sum(u_gamma.symplectic_product(g) << j for j, g in enumerate(gens))
    sol = span_combination(span_basis(rows, len(gens)), target)
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
