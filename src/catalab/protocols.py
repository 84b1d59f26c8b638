"""State-preparation pipelines built from symmetric stages.

Hamiltonian-evolution statements are modelled at the circuit level: depth is
the time proxy, and every unitary stage is audited gate by gate against the
symmetry.  The doubled stage counts its two logical layers (the commuting
conjugated-swap group and the swap layer); sub-packing for disjoint supports
is storage, not time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor
from typing import Optional, Union

from ._numpy import np

from .models import Catalyst, ModelBundle, SymmetryRep, cz_ring_circuit
from .pauli import PauliOperator
from .stabilizer import (
    CliffordCircuit,
    CliffordGate,
    SignFamily,
    StabilizerMixture,
    conjugated_gate,
    pack_gates_into_layers,
    swap_gate,
    tableau_gate,
)
from .verify import DoubledCircuit, audit_gate_symmetric, build_doubled_fdqc


class RecipeError(ValueError):
    """The catalyst has no circuit realization (e.g. gapless catalysts)."""


@dataclass
class Stage:
    label: str
    depth: int
    long_range: bool = False
    circuit: Optional[Union[CliffordCircuit, DoubledCircuit]] = None  # None in a measurement stage
    measurements: tuple[PauliOperator, ...] = ()
    audited: bool = False

    @property
    def kind(self) -> str:
        return "measurement" if self.circuit is None else "circuit"

    @property
    def long_range_gate_count(self) -> int:
        if not self.long_range or self.circuit is None:
            return 0
        return len(self.circuit.gates)


@dataclass
class PreparationSchedule:
    model: str
    catalyst: str
    mode: str
    initial_state: StabilizerMixture
    stages: list[Stage]

    @property
    def n_total(self) -> int:
        return self.initial_state.n

    @property
    def total_depth(self) -> int:
        return sum(s.depth for s in self.stages)

    @property
    def long_range_gate_count(self) -> int:
        return sum(s.long_range_gate_count for s in self.stages)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "catalyst": self.catalyst,
            "mode": self.mode,
            "n_total": self.n_total,
            "total_depth": self.total_depth,
            "long_range_gate_count": self.long_range_gate_count,
            "stages": [
                {
                    "kind": s.kind,
                    "label": s.label,
                    "depth": s.depth,
                    "long_range": s.long_range,
                    "audited": s.audited,
                }
                for s in self.stages
            ],
        }


@dataclass
class MeasurementRecord:
    outcomes: tuple[int, ...]
    parity_even: int
    parity_odd: int
    post_state: StabilizerMixture
    invariant_under_entangler: bool


# ---------------------------------------------------------------------------
# Symmetric staircase gates
# ---------------------------------------------------------------------------


def ghz_step_gate(n: int, a: int, b: int) -> CliffordGate:
    """Two-qubit gate used by the cat-state staircase.

    Conjugation table: X_a -> -Y_a Y_b, X_b -> Z_a Z_b, Z_a -> Z_a,
    Z_b -> -Y_b.  It commutes with X_a X_b exactly, so it is symmetric under
    any product-of-X symmetry containing both sites on equal footing.
    """
    mask = (1 << a) | (1 << b)
    images = {
        a: (PauliOperator(n, mask, mask, 0), PauliOperator.z_at(n, a)),
        b: (PauliOperator.z_at(n, a, b), PauliOperator.y_at(n, b).negate()),
    }
    return tableau_gate(n, images)


def sqrt_zz_gate(n: int, a: int, b: int) -> CliffordGate:
    """Ising-coupling half-turn: X_a -> Y_a Z_b, X_b -> Z_a Y_b, Z fixed."""
    images = {
        a: (PauliOperator.y_at(n, a) * PauliOperator.z_at(n, b), PauliOperator.z_at(n, a)),
        b: (PauliOperator.z_at(n, a) * PauliOperator.y_at(n, b), PauliOperator.z_at(n, b)),
    }
    return tableau_gate(n, images)


def ghz_staircase(n: int, n_total: int, offset: int, step: int) -> CliffordCircuit:
    """Staircase making cat states on the sublattices of an even ring.

    One two-qubit layer on (a, a + 2) for a = 0, step, 2 step, ... below
    n - 2: step 1 alternates the two sublattices, step 2 walks the even one
    only and leaves odd sites untouched.  The final layer closes the
    even-sublattice ring with a pure Ising half-turn that acts as a phase
    on the finished cat state.
    """
    if n < 4 or n % 2:
        raise ValueError("the staircase needs an even ring of at least 4 sites")
    layers = [(ghz_step_gate(n_total, a + offset, a + 2 + offset),) for a in range(0, n - 2, step)]
    layers.append((sqrt_zz_gate(n_total, (n - 2) + offset, offset),))
    return CliffordCircuit(n_total, tuple(layers))


def long_range_bell_layer(n: int, n_total: int, offset: int) -> CliffordCircuit:
    """Depth-1 layer of long-range swaps turning neighbor pairs into
    antipodal pairs: swap (2i+1, 2i+m) for i < m/2, with m = n/2."""
    if n % 4:
        raise ValueError("the antipodal-pair layer needs n divisible by 4")
    m = n // 2
    gates = tuple(
        swap_gate(n_total, (2 * i + 1) + offset, (2 * i + m) + offset)
        for i in range(m // 2)
    )
    return CliffordCircuit(n_total, (gates,))


# ---------------------------------------------------------------------------
# Measurement-based catalyst preparation
# ---------------------------------------------------------------------------


def measurement_prepare_catalyst(n: int, rng: np.random.Generator) -> MeasurementRecord:
    """Measure every next-nearest-neighbor ZZ on the all-plus state.

    The protocol is proven once per n, for every outcome, and then sampled
    (see `_measurement_template`): both sublattice parities are +1, and the
    post-measurement state is invariant under the ring-CZ entangler and
    keeps both sublattice symmetries.  A sample draws one bit per random
    measurement, in measurement order, and reads its outcomes and the signs
    of the post-measurement generators off the proven template.
    """
    if n < 4 or n % 2:
        raise ValueError("needs an even ring of at least 4 qubits")
    template = _measurement_template(n)
    bits = 0
    for t in template.random:
        bits |= int(rng.integers(0, 2)) << t
    outcomes, state = template.evaluate(bits)
    return MeasurementRecord(
        outcomes=outcomes,
        parity_even=math.prod(outcomes[0::2]),
        parity_odd=math.prod(outcomes[1::2]),
        post_state=state,
        invariant_under_entangler=True,
    )


@dataclass(frozen=True)
class MeasurementTemplate:
    """The measurement sequence with every sign an affine GF(2) function of
    the random outcome bits: bit t of `bits` is the draw of random
    measurement t, whose outcome is (-1)^bit.

    A sign is held as (base, mask): the base is its value when every random
    outcome is +1, and the sign flips once for each set bit of mask & bits.
    `outcomes` holds (base sign bit, mask) per measurement, and `family`
    the post-measurement generators with one mask each.
    """

    random: tuple[int, ...]
    outcomes: tuple[tuple[int, int], ...]
    family: SignFamily

    def evaluate(self, bits: int) -> tuple[tuple[int, ...], StabilizerMixture]:
        """The outcomes and the post-measurement state for the given bits."""
        outcomes = tuple(
            -1 if (base + (mask & bits).bit_count()) & 1 else 1
            for base, mask in self.outcomes
        )
        return outcomes, self.family.evaluate(bits)


@lru_cache(maxsize=16)
def _measurement_template(n: int) -> MeasurementTemplate:
    """Run the measurement sequence once as a `SignFamily`, random outcome
    t drawn as +1 with mask 1 << t, then prove the protocol's claims for
    all 2^r outcomes at once.

    Which measurements are random, and the unsigned post-measurement group,
    do not depend on earlier outcomes; only signs do.  A sign is +1 for
    every outcome exactly when its base is +1 and its mask is 0, so each
    claim is one exact comparison.
    """
    family = SignFamily(StabilizerMixture.plus_state(n), (0,) * n)
    outcomes: list[tuple[int, int]] = []
    for t in range(n):
        op = PauliOperator.z_at(n, t, (t + 2) % n)
        outcome, family = family.measure(op, lambda: (0, 1 << t))
        outcomes.append(outcome)
    # A fixed outcome is a product of earlier generators, so only a random
    # outcome t carries bit t.
    random = tuple(t for t, (_, mask) in enumerate(outcomes) if mask >> t & 1)
    for first in (0, 1):
        if any(reduce(xor, part) for part in zip(*outcomes[first::2])):
            raise AssertionError("sublattice parity constraint violated")
    entangler = cz_ring_circuit(n)
    for g, m in zip(family.state.generators, family.masks):
        if family.sign_of(entangler.conjugate(g)) != (0, m):
            raise AssertionError("post-measurement state is not entangler-invariant")
    for u in (PauliOperator.x_at(n, *range(0, n, 2)), PauliOperator.x_at(n, *range(1, n, 2))):
        if family.sign_of(u) != (0, 0):
            raise AssertionError("post-measurement state lost a sublattice symmetry")
    return MeasurementTemplate(random=random, outcomes=tuple(outcomes), family=family)


# ---------------------------------------------------------------------------
# Catalyzed pipelines
# ---------------------------------------------------------------------------


def _prep_circuit_for(
    bundle: ModelBundle, catalyst: Catalyst, n_total: int, offset: int
) -> tuple[CliffordCircuit, bool]:
    """Returns (circuit, long_range_flag) realizing the catalyst recipe."""
    recipe = catalyst.prep_recipe
    if recipe == "measure-zz":
        raise RecipeError(f"catalyst {catalyst.name!r} is prepared by measurement; use --mode measurement")
    if recipe == "ghz-staircase":
        return ghz_staircase(bundle.n, n_total, offset, 1), False
    if recipe == "ghz-staircase-even":
        return ghz_staircase(bundle.n, n_total, offset, 2), False
    if recipe == "lr-bell-swap":
        return long_range_bell_layer(bundle.n, n_total, offset), True
    raise RecipeError(f"catalyst {catalyst.name!r} has no preparation recipe")


def _conjugate_circuit_by_qca(circuit: CliffordCircuit, qca) -> tuple[CliffordCircuit, int]:
    """U C U^dagger as a circuit plus its logical depth.

    Each gate is conjugated by the entangler (`conjugated_gate`), so its
    support becomes the sites that U's images of its own sites reach.  The
    gates of one original layer may then overlap; they still commute
    pairwise (conjugation preserves commutation of disjoint gates), so each
    original layer counts once in the logical depth and is merely
    re-packed into disjoint-support sublayers for storage.
    """
    new_layers: list[tuple[CliffordGate, ...]] = []
    for layer in circuit.layers:
        conjugated = [conjugated_gate(g, qca) for g in layer]
        packed = pack_gates_into_layers(circuit.n, conjugated)
        new_layers.extend(packed.layers)
    return CliffordCircuit(circuit.n, tuple(new_layers)), len(circuit.layers)


def catalyzed_pipeline(
    bundle: ModelBundle, catalyst: Catalyst, mode: str
) -> PreparationSchedule:
    """Build the preparation schedule that uses the catalyst.

    ancilla mode: make the catalyst on register B (depth tau), then run the
    doubled circuit (depth 2), which hands the catalyst back unchanged.
    measurement mode: measure ZZ pairs on register B, prepared in |+>^n,
    then run the same doubled circuit.
    four-step mode: a single register, the catalyst maker followed by its
    entangler-conjugated inverse (total depth 2 tau).
    A catalyst without a recipe, as every dense one is, raises RecipeError.
    """
    n = bundle.n
    if mode == "four-step":
        prep, long_range = _prep_circuit_for(bundle, catalyst, n, offset=0)
        conjugated, logical_depth = _conjugate_circuit_by_qca(
            prep.inverse(), bundle.entangler
        )
        initial = bundle.trivial
        stages = [
            Stage(
                label=f"make-{catalyst.name}",
                depth=prep.depth,
                long_range=long_range,
                circuit=prep,
            ),
            Stage(
                label="conjugated-unmake",
                depth=logical_depth,
                long_range=long_range,
                circuit=conjugated,
            ),
        ]
    else:
        if mode == "ancilla":
            prep, long_range = _prep_circuit_for(bundle, catalyst, 2 * n, offset=n)
            first = Stage(
                label=f"make-{catalyst.name}-on-ancilla",
                depth=prep.depth,
                long_range=long_range,
                circuit=prep,
            )
            initial = bundle.trivial.tensor(bundle.trivial)
        elif mode == "measurement":
            if catalyst.prep_recipe != "measure-zz":
                raise RecipeError("measurement mode applies to the measured mixture catalyst")
            first = Stage(
                label="measure-ancilla-zz",
                depth=1,
                measurements=tuple(
                    PauliOperator.z_at(2 * n, n + i, n + (i + 2) % n) for i in range(n)
                ),
            )
            initial = bundle.trivial.tensor(StabilizerMixture.plus_state(n))
        else:
            raise RecipeError(f"unknown pipeline mode {mode!r}")
        doubled = build_doubled_fdqc(bundle.entangler, n, bundle.lattice)
        doubled_stage = Stage(
            label="doubled-entangler", depth=doubled.logical_depth, circuit=doubled
        )
        stages = [first, doubled_stage]
    return PreparationSchedule(
        model=bundle.name,
        catalyst=catalyst.name,
        mode=mode,
        initial_state=initial,
        stages=stages,
    )


def audit_schedule(schedule: PreparationSchedule, symmetry: SymmetryRep) -> bool:
    """Gate-level symmetry audit of every stage.

    Circuit stages: every gate commutes with every generator restriction.
    Measurement stages: every measured operator commutes with every
    generator outright.  Sets the per-stage audited flags.
    """
    sym = symmetry if symmetry.n == schedule.n_total else symmetry.doubled()
    all_ok = True
    for stage in schedule.stages:
        if stage.kind == "circuit":
            ok = all(audit_gate_symmetric(g, sym) for g in stage.circuit.gates)
        else:
            ok = all(p.commutes(g) for p in stage.measurements for g in sym.paulis)
        stage.audited = ok
        all_ok = all_ok and ok
    return all_ok


def execute_schedule(
    schedule: PreparationSchedule, rng: Optional[np.random.Generator] = None
) -> tuple[StabilizerMixture, list[tuple[int, ...]]]:
    """Run the schedule; returns the final state and per-stage outcomes."""
    state = schedule.initial_state
    outcome_log: list[tuple[int, ...]] = []
    for stage in schedule.stages:
        if stage.kind == "circuit":
            state = state.apply_circuit(stage.circuit)
            outcome_log.append(())
        else:
            if rng is None:
                raise ValueError("measurement stages need a seeded generator")
            outcomes = []
            for p in stage.measurements:
                outcome, state = state.measure(p, rng)
                outcomes.append(outcome)
            outcome_log.append(tuple(outcomes))
    return state, outcome_log


def register_a_matches(final: StabilizerMixture, target: StabilizerMixture) -> bool:
    """True iff register A of the final state is exactly the target state.
    Every mode's success rule: on the one register of a four-step final,
    both are pure on the same sites, so containment is equality."""
    for g in target.generators:
        embedded = PauliOperator(final.n, g.x, g.z, g.phase)
        if final.membership_sign(embedded) != 1:
            return False
    return True
