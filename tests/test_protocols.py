import numpy as np
import pytest

from catalab.models import build_catalyst, build_model, catalyst_is_dense, catalyst_kinds
from catalab.pauli import PauliOperator
from catalab.protocols import (
    PreparationSchedule,
    RecipeError,
    Stage,
    _conjugate_circuit_by_qca,
    audit_schedule,
    catalyzed_pipeline,
    execute_schedule,
    ghz_staircase,
    long_range_bell_layer,
    measurement_prepare_catalyst,
    register_a_matches,
    sqrt_zz_gate,
    ghz_step_gate,
)
from catalab.stabilizer import CliffordCircuit, StabilizerMixture, conjugated_gate, swap_gate
from catalab.verify import DoubledCircuit, audit_gate_symmetric

from named_gates import x_gate, z_gate


def test_ghz_step_gate_symmetric():
    bundle = build_model("cluster-1d", n=8)
    gate = ghz_step_gate(8, 0, 2)
    assert audit_gate_symmetric(gate, bundle.symmetry)
    closer = sqrt_zz_gate(8, 6, 0)
    assert audit_gate_symmetric(closer, bundle.symmetry)


def test_staircase_builds_ghz_pair():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    ghz = build_catalyst(bundle, "ghz")
    circuit = ghz_staircase(n, n, 0, 1)
    assert circuit.depth == n - 1
    assert all(len(layer) == 1 for layer in circuit.layers)
    out = StabilizerMixture.plus_state(n).apply_circuit(circuit)
    assert out.same_state(ghz.stab)


def test_even_staircase_builds_one_sublattice_ghz():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    cat = build_catalyst(bundle, "ghz-one-sublattice")
    circuit = ghz_staircase(n, n, 0, 2)
    assert circuit.depth == n // 2
    out = StabilizerMixture.plus_state(n).apply_circuit(circuit)
    assert out.same_state(cat.stab)


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("n", [2, 5, 7])
def test_both_staircases_need_an_even_ring_of_at_least_4_sites(step, n):
    with pytest.raises(ValueError, match="even ring of at least 4 sites"):
        ghz_staircase(n, 8, 0, step)


def test_long_range_layer_builds_antipodal_pairs():
    n = 8
    bundle = build_model("lsm-dimer", n=n)
    cat = build_catalyst(bundle, "long-range-bell")
    circuit = long_range_bell_layer(n, n, 0)
    assert circuit.depth == 1
    out = bundle.trivial.apply_circuit(circuit)
    assert out.same_state(cat.stab)


def test_measurement_protocol_parities_and_invariance():
    n = 8
    for seed in range(25):
        record = measurement_prepare_catalyst(n, np.random.default_rng(seed))
        assert record.parity_even == 1
        assert record.parity_odd == 1
        assert record.invariant_under_entangler
        assert len(record.outcomes) == n


def test_measurement_protocol_all_plus_seed_gives_ghz_pair():
    # Seed 214 produces the all-+1 outcome pattern at n=8.
    n = 8
    record = measurement_prepare_catalyst(n, np.random.default_rng(214))
    assert all(s == 1 for s in record.outcomes)
    bundle = build_model("cluster-1d", n=n)
    ghz = build_catalyst(bundle, "ghz")
    assert record.post_state.same_state(ghz.stab)


def test_measurement_protocol_reproducible():
    a = measurement_prepare_catalyst(8, np.random.default_rng(7))
    b = measurement_prepare_catalyst(8, np.random.default_rng(7))
    assert a.outcomes == b.outcomes


def test_ancilla_pipeline_cluster_ghz():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    ghz = build_catalyst(bundle, "ghz")
    schedule = catalyzed_pipeline(bundle, ghz, "ancilla")
    assert schedule.total_depth == (n - 1) + 2
    assert audit_schedule(schedule, bundle.symmetry)
    final, _ = execute_schedule(schedule)
    assert register_a_matches(final, bundle.target)
    assert final.same_state(bundle.target.tensor(ghz.stab))


def test_four_step_pipeline():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    ghz = build_catalyst(bundle, "ghz")
    schedule = catalyzed_pipeline(bundle, ghz, "four-step")
    assert schedule.total_depth == 2 * (n - 1)
    assert audit_schedule(schedule, bundle.symmetry)
    final, _ = execute_schedule(schedule)
    assert final.same_state(bundle.target)


def test_long_range_pipeline_constant_depth():
    depths = {}
    for n in (4, 8, 12):
        bundle = build_model("lsm-dimer", n=n)
        cat = build_catalyst(bundle, "long-range-bell")
        schedule = catalyzed_pipeline(bundle, cat, "ancilla")
        assert audit_schedule(schedule, bundle.symmetry)
        assert schedule.long_range_gate_count == n // 4
        lr_stage = schedule.stages[0]
        assert lr_stage.long_range
        final, _ = execute_schedule(schedule)
        assert register_a_matches(final, bundle.target)
        depths[n] = schedule.total_depth
    assert len(set(depths.values())) == 1
    assert depths[8] == 3


def test_measurement_pipeline_yields_cluster_for_any_seed():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    swssb = build_catalyst(bundle, "swssb")
    schedule = catalyzed_pipeline(bundle, swssb, "measurement")
    assert audit_schedule(schedule, bundle.symmetry)
    for seed in range(10):
        final, outcomes = execute_schedule(schedule, np.random.default_rng(seed))
        assert register_a_matches(final, bundle.target)
        assert len(outcomes[0]) == n


@pytest.mark.parametrize(
    "model, catalyst, mode",
    [("cluster-1d", "ghz", "ancilla"), ("lsm-dimer", "long-range-bell", "ancilla"), ("cluster-1d", "swssb", "measurement")],
)
def test_doubled_stage_evolves_through_the_doubled_tableau(monkeypatch, model, catalyst, mode):
    # The stage holds the handle that `catalyze` checks with, and evolves
    # by U (x) U^-1's tableau: no circuit holding its gates is walked.
    n = 8
    bundle = build_model(model, n=n)
    schedule = catalyzed_pipeline(bundle, build_catalyst(bundle, catalyst), mode)
    doubled = schedule.stages[-1].circuit
    assert isinstance(doubled, DoubledCircuit)
    assert doubled.n == schedule.n_total == 2 * n
    walked = []
    walk = CliffordCircuit._walk

    def recorded(self, x, z):
        walked.append(self)
        return walk(self, x, z)

    monkeypatch.setattr(CliffordCircuit, "_walk", recorded)
    final, _ = execute_schedule(schedule, np.random.default_rng(0))
    assert register_a_matches(final, bundle.target)
    compiled = set(doubled.gates)
    assert not any(compiled & set(circuit.gates) for circuit in walked)


@pytest.mark.parametrize("n", [8, 16])
def test_register_a_rule_is_state_equality_on_four_step_finals(n):
    # A four-step final is pure on the n sites of the target, so the one
    # success rule, containment of the reference's group, is equality.
    verdicts, finals = set(), 0
    for model in ("lsm-dimer", "cluster-1d"):
        bundle = build_model(model, n=n)
        for kind in catalyst_kinds(model):
            if catalyst_is_dense(model, kind):
                continue
            try:
                schedule = catalyzed_pipeline(bundle, build_catalyst(bundle, kind), "four-step")
            except RecipeError:
                continue
            final, _ = execute_schedule(schedule)
            finals += 1
            for reference in (bundle.target, bundle.trivial):
                verdict = register_a_matches(final, reference)
                assert verdict == final.same_state(reference), (model, kind)
                verdicts.add(verdict)
    assert finals == 3 and verdicts == {True, False}


def test_gapless_recipe_refused():
    bundle = build_model("cluster-1d", n=8)
    gapless = build_catalyst(bundle, "gapless")
    with pytest.raises(RecipeError):
        catalyzed_pipeline(bundle, gapless, "ancilla")


def test_audit_schedule_rejects_asymmetric_stage():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    bad_stage = Stage(
        label="bad",
        depth=1,
        circuit=CliffordCircuit(n, ((x_gate(n, 0),),)),
    )
    schedule = PreparationSchedule(
        model="cluster-1d",
        catalyst="none",
        mode="manual",
        initial_state=StabilizerMixture.plus_state(n),
        stages=[bad_stage],
    )
    # an X on an even site anticommutes with no generator; use a Z instead
    schedule.stages[0].circuit = CliffordCircuit(n, ((z_gate(n, 0),),))
    assert not audit_schedule(schedule, bundle.symmetry)


def test_measurement_stage_audit():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    swssb = build_catalyst(bundle, "swssb")
    schedule = catalyzed_pipeline(bundle, swssb, "measurement")
    audit_schedule(schedule, bundle.symmetry)
    assert schedule.stages[0].audited
    # measuring a single Z is not symmetric
    schedule.stages[0].measurements = (PauliOperator.z_at(2 * n, 0),)
    assert not audit_schedule(schedule, bundle.symmetry)


def test_conjugated_gate_locality():
    # The ring's CZs spread X_2 and X_4 to their neighbours.
    n = 8
    bundle = build_model("cluster-1d", n=n)
    conj = conjugated_gate(ghz_step_gate(n, 2, 4), bundle.entangler)
    assert tuple(conj.support) == (1, 2, 3, 4, 5)
    assert audit_gate_symmetric(conj, bundle.symmetry)


def test_four_step_gates_on_lsm_dimer_carry_only_translated_sites():
    # A translation moves each swap of the unmaking layer to the images of
    # its sites; the gate's own sites are no longer listed.
    n = 8
    bundle = build_model("lsm-dimer", n=n)
    perm = bundle.entangler.perm
    cat = build_catalyst(bundle, "long-range-bell")
    made, unmade = catalyzed_pipeline(bundle, cat, "four-step").stages
    (layer,) = made.circuit.inverse().layers
    assert len(unmade.circuit.layers) == 1 and len(layer) == n // 4
    for gate, conj in zip(layer, unmade.circuit.layers[0], strict=True):
        a, b = gate.support
        assert tuple(conj.support) == tuple(sorted((perm[a], perm[b])))
        assert conj.rows == swap_gate(n, perm[a], perm[b]).rows


@pytest.mark.parametrize("model, catalyst", [("cluster-1d", "ghz"), ("lsm-dimer", "long-range-bell")])
def test_four_step_conjugation_builds_no_pauli_operator(monkeypatch, model, catalyst):
    bundle = build_model(model, n=16)
    schedule = catalyzed_pipeline(bundle, build_catalyst(bundle, catalyst), "four-step")
    unmake = schedule.stages[0].circuit.inverse()
    built = []
    inner = PauliOperator.__post_init__

    def counting(self):
        built.append(self)
        inner(self)

    monkeypatch.setattr(PauliOperator, "__post_init__", counting)
    conjugated, depth = _conjugate_circuit_by_qca(unmake, bundle.entangler)
    assert depth == len(unmake.layers) and conjugated.layers
    assert built == []


def test_depth_accounting_exact():
    n = 8
    bundle = build_model("cluster-1d", n=n)
    ghz = build_catalyst(bundle, "ghz")
    schedule = catalyzed_pipeline(bundle, ghz, "ancilla")
    staircase_stage = schedule.stages[0]
    assert staircase_stage.depth == len(staircase_stage.circuit.layers)
    assert schedule.total_depth == sum(s.depth for s in schedule.stages)


def test_pipeline_verifier_consistency():
    # a schedule that executes to the target also passes the verifier with
    # the same catalyst
    from catalab.verify import verify_catalysis

    bundle = build_model("cluster-1d", n=8)
    ghz = build_catalyst(bundle, "ghz")
    schedule = catalyzed_pipeline(bundle, ghz, "ancilla")
    assert audit_schedule(schedule, bundle.symmetry)
    final, _ = execute_schedule(schedule)
    assert final.same_state(bundle.target.tensor(ghz.stab))
    assert verify_catalysis(bundle, ghz).passed


def test_four_step_pipeline_lsm_long_range():
    bundle = build_model("lsm-dimer", n=8)
    cat = build_catalyst(bundle, "long-range-bell")
    schedule = catalyzed_pipeline(bundle, cat, "four-step")
    # one logical layer per stage: the conjugated layer re-packs but still
    # counts once
    assert schedule.total_depth == 2
    assert audit_schedule(schedule, bundle.symmetry)
    final, _ = execute_schedule(schedule)
    assert final.same_state(bundle.target)


def test_identity_entangler_pipeline_acts_trivially_on_system():
    # with an identity entangler the doubled stage is swap-then-swap, so the
    # schedule leaves register A in the trivial state
    from catalab.models import ModelBundle

    n = 8
    base = build_model("cluster-1d", n=n)
    trivial = StabilizerMixture.plus_state(n)
    bundle = ModelBundle(
        name="identity-demo",
        lattice=base.lattice,
        symmetry=base.symmetry,
        entangler=CliffordCircuit(n, ()),
        trivial=trivial,
        target=trivial,
    )
    ghz = build_catalyst(base, "ghz")
    schedule = catalyzed_pipeline(bundle, ghz, "ancilla")
    assert audit_schedule(schedule, bundle.symmetry)
    final, _ = execute_schedule(schedule)
    assert register_a_matches(final, trivial)
    assert final.same_state(trivial.tensor(ghz.stab))
