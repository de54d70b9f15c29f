"""Unit and integration tests for the CutPipeline orchestration layer."""

import pytest

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting import (
    CutLocation,
    HaradaWireCut,
    NMEWireCut,
    plan_from_positions,
)
from repro.experiments import ghz_circuit
from repro.pipeline import CutPipeline
from repro.quantum.paulis import PauliString


class TestPlanStage:
    def test_automatic_two_cut_plan(self):
        pipeline = CutPipeline(max_fragment_width=2)
        plan_result = pipeline.plan(ghz_circuit(4))
        assert plan_result.num_cuts == 2
        assert plan_result.num_fragments == 3
        assert plan_result.alternatives and plan_result.alternatives[0] == plan_result.plan
        assert plan_result.max_fragment_width == 2

    def test_explicit_positions(self):
        pipeline = CutPipeline()
        plan_result = pipeline.plan(ghz_circuit(4), positions=(2,))
        assert [(loc.qubit, loc.position) for loc in plan_result.plan.locations] == [(1, 2)]

    def test_explicit_locations_allow_end_cut(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        pipeline = CutPipeline()
        plan_result = pipeline.plan(circuit, locations=[CutLocation(0, 1)])
        assert plan_result.plan.num_cuts == 1

    def test_explicit_plan_passthrough(self):
        circuit = ghz_circuit(4)
        plan = plan_from_positions(circuit, (2,))
        plan_result = CutPipeline().plan(circuit, plan=plan)
        assert plan_result.plan is plan
        assert plan_result.alternatives == ()

    def test_rejects_multiple_explicit_sources(self):
        circuit = ghz_circuit(4)
        plan = plan_from_positions(circuit, (2,))
        with pytest.raises(CuttingError):
            CutPipeline().plan(circuit, plan=plan, positions=(2,))

    def test_requires_width_for_automatic_planning(self):
        with pytest.raises(CuttingError, match="max_fragment_width"):
            CutPipeline().plan(ghz_circuit(4))

    def test_raises_when_no_plan_fits(self):
        with pytest.raises(CuttingError, match="no valid cut plan"):
            CutPipeline(max_fragment_width=1).plan(ghz_circuit(4))

    def test_failure_names_the_default_search_depth(self):
        with pytest.raises(CuttingError) as raised:
            CutPipeline(max_fragment_width=2).plan(ghz_circuit(12))
        message = str(raised.value)
        assert "need at least 10 slices" in message
        assert "_DEFAULT_MAX_SLICES" in message
        assert "max_fragments=11" in message
        # Following the advice finds the plan.
        plan = CutPipeline(max_fragment_width=2, max_fragments=11).plan(ghz_circuit(12)).plan
        assert plan.num_cuts == 10

    def test_failure_names_max_cuts(self):
        with pytest.raises(CuttingError, match="max_cuts=1 limits the search to 1 slice; raise max_cuts"):
            CutPipeline(max_fragment_width=2, max_cuts=1).plan(ghz_circuit(4))

    def test_failure_names_the_fewest_cuts_above_max_cuts(self):
        circuit = QuantumCircuit(5)
        for control, target in [(1, 0), (3, 0), (2, 0), (4, 2), (1, 4)]:
            circuit.cx(control, target)
        with pytest.raises(CuttingError, match="fewest cuts any plan needs is 4, above max_cuts=2"):
            CutPipeline(max_fragment_width=3, max_cuts=2).plan(circuit)

    def test_failure_names_an_instruction_wider_than_the_device(self):
        with pytest.raises(CuttingError, match=r"instruction 1 \(cx\) acts on 2 qubits"):
            CutPipeline(max_fragment_width=1).plan(ghz_circuit(3))

    def test_circuit_already_fitting_gets_trivial_plan(self):
        # A circuit no wider than the device needs no cut at all: the
        # planner returns the single-fragment plan first (kappa = 1).
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        pipeline = CutPipeline(max_fragment_width=2, backend="vectorized")
        result = pipeline.run(circuit, "ZZ", shots=1000, seed=3)
        assert result.plan.num_cuts == 0
        assert result.plan.num_fragments == 1
        assert result.kappa == pytest.approx(1.0)
        assert result.exact_value == pytest.approx(
            exact_expectation(circuit, PauliString("ZZ").to_matrix())
        )

    def test_identity_observable_identical_on_serial_and_vectorized(self):
        # The zero-cut identity term under an all-identity observable has no
        # measured bits; no backend may crash and both must return the
        # deterministic +1.
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 1).h(2).cx(2, 3)
        values = {}
        for backend in ("serial", "vectorized"):
            pipeline = CutPipeline(max_fragment_width=2, backend=backend)
            values[backend] = pipeline.run(circuit, "IIII", shots=100, seed=2).value
        assert values["serial"] == values["vectorized"] == pytest.approx(1.0)

    def test_entangled_pair_accounting(self):
        # Every teleportation-term shot consumes one pair per cut gadget.
        from repro.cutting import TeleportationWireCut

        pipeline = CutPipeline(
            max_fragment_width=2, protocol=TeleportationWireCut(), backend="vectorized"
        )
        result = pipeline.run(ghz_circuit(4), "ZZZZ", shots=500, seed=5)
        # Teleportation is a single-term protocol: every shot runs both cut
        # gadgets, consuming two pairs per shot.
        assert result.execution.entangled_pairs == 2 * result.total_shots

    def test_zero_cut_plan_runs_end_to_end(self):
        # Independent blocks need no cut: the pipeline plans a free split,
        # decomposes to the single identity term (kappa = 1) and estimates
        # the uncut circuit directly.
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 1).h(2).cx(2, 3)
        pipeline = CutPipeline(max_fragment_width=2, backend="vectorized")
        result = pipeline.run(circuit, "ZZZZ", shots=2000, seed=13)
        assert result.plan.num_cuts == 0
        assert result.kappa == pytest.approx(1.0)
        decomposition = result.execution.decomposition
        assert decomposition.num_terms == 1
        assert result.exact_value == pytest.approx(
            exact_expectation(circuit, PauliString("ZZZZ").to_matrix())
        )
        assert pipeline.exact_reconstruction(decomposition, "ZZZZ") == pytest.approx(
            result.exact_value
        )


class TestDecomposeStage:
    def test_tensor_product_term_set(self):
        pipeline = CutPipeline(max_fragment_width=2)
        decomposition = pipeline.decompose(pipeline.plan(ghz_circuit(4)))
        assert decomposition.num_terms == 9  # 3 terms per harada cut, 2 cuts
        assert decomposition.kappa == pytest.approx(9.0)
        assert decomposition.probabilities.sum() == pytest.approx(1.0)

    def test_protocol_sequence_must_match_cut_count(self):
        pipeline = CutPipeline(max_fragment_width=2, protocol=[HaradaWireCut()])
        plan_result = pipeline.plan(ghz_circuit(4))
        with pytest.raises(CuttingError, match="protocols"):
            pipeline.decompose(plan_result)

    def test_mixed_protocols_per_cut(self):
        protocols = [HaradaWireCut(), NMEWireCut.from_overlap(0.9)]
        pipeline = CutPipeline(max_fragment_width=2, protocol=protocols)
        decomposition = pipeline.decompose(pipeline.plan(ghz_circuit(4)))
        expected_kappa = protocols[0].kappa * protocols[1].kappa
        assert decomposition.kappa == pytest.approx(expected_kappa)

    def test_entanglement_overlap_selects_nme(self):
        pipeline = CutPipeline(max_fragment_width=2, entanglement_overlap=0.9)
        decomposition = pipeline.decompose(pipeline.plan(ghz_circuit(4)))
        assert all(p.name == "nme" for p in decomposition.protocols)
        assert decomposition.kappa < 2.0


class TestExecuteReconstructStages:
    def test_budget_is_spent_exactly(self):
        pipeline = CutPipeline(max_fragment_width=2, backend="vectorized")
        decomposition = pipeline.decompose(pipeline.plan(ghz_circuit(4)))
        execution = pipeline.execute(decomposition, "ZZZZ", shots=1000, seed=5)
        assert execution.total_shots == 1000
        assert len(execution.term_estimates) == decomposition.num_terms
        assert execution.backend_name == "vectorized"

    def test_reconstruct_reports_exact_and_error(self):
        pipeline = CutPipeline(max_fragment_width=2, backend="vectorized")
        result = pipeline.run(ghz_circuit(4), "ZZZZ", shots=20_000, seed=9)
        assert result.exact_value == pytest.approx(1.0)
        assert result.error == pytest.approx(abs(result.value - 1.0))
        assert result.plan.num_cuts == 2
        assert result.total_shots == 20_000

    def test_compute_exact_false_leaves_none(self):
        pipeline = CutPipeline(max_fragment_width=2, backend="vectorized")
        result = pipeline.run(ghz_circuit(4), "ZZZZ", shots=200, seed=9, compute_exact=False)
        assert result.exact_value is None
        assert result.error is None

    def test_single_letter_observable_refers_to_qubit_zero(self):
        pipeline = CutPipeline(backend="vectorized")
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        result = pipeline.run(circuit, "Z", shots=500, seed=3, positions=(1,))
        pauli = PauliString("ZI")
        assert result.exact_value == pytest.approx(
            exact_expectation(circuit, pauli.to_matrix())
        )


class TestCrossBackendDeterminism:
    @pytest.mark.integration
    def test_two_cut_ghz_identical_on_all_backends(self):
        # Acceptance criterion: a 2-cut GHZ plan runs end to end on all three
        # backends with bitwise-identical seeded estimates.
        results = {}
        for backend in ("serial", "vectorized", "process-pool"):
            pipeline = CutPipeline(max_fragment_width=2, backend=backend)
            result = pipeline.run(ghz_circuit(4), "ZZZZ", shots=3000, seed=11)
            assert result.plan.num_cuts == 2
            results[backend] = result
        reference = results["serial"]
        for backend, result in results.items():
            assert result.value == reference.value, backend
            assert result.standard_error == reference.standard_error, backend
            assert (
                result.execution.shots_per_term == reference.execution.shots_per_term
            ), backend

    def test_same_seed_same_result_same_backend(self):
        pipeline = CutPipeline(max_fragment_width=2, backend="vectorized")
        a = pipeline.run(ghz_circuit(4), "ZZZZ", shots=1000, seed=21)
        b = pipeline.run(ghz_circuit(4), "ZZZZ", shots=1000, seed=21)
        assert a.value == b.value


class TestExactReconstruction:
    def test_two_cut_exact_reconstruction_is_unbiased(self):
        circuit = ghz_circuit(4)
        pipeline = CutPipeline(max_fragment_width=2, backend="vectorized")
        decomposition = pipeline.decompose(pipeline.plan(circuit))
        assert pipeline.exact_reconstruction(decomposition, "ZZZZ") == pytest.approx(1.0)

    def test_same_wire_double_cut_exact(self):
        # A wire cut at two positions (chained receivers) still reconstructs
        # the uncut value exactly.
        circuit = QuantumCircuit(3)
        circuit.ry(0.7, 0).cx(0, 1).cx(0, 2)
        exact = exact_expectation(circuit, PauliString("ZZZ").to_matrix())
        pipeline = CutPipeline(backend="vectorized")
        plan_result = pipeline.plan(
            circuit, locations=[CutLocation(0, 1), CutLocation(0, 2)]
        )
        decomposition = pipeline.decompose(plan_result)
        assert pipeline.exact_reconstruction(decomposition, "ZZZ") == pytest.approx(exact)

    def test_mixed_protocol_exact_reconstruction(self):
        circuit = ghz_circuit(4)
        pipeline = CutPipeline(
            max_fragment_width=2,
            protocol=[HaradaWireCut(), NMEWireCut.from_overlap(0.8)],
            backend="vectorized",
        )
        decomposition = pipeline.decompose(pipeline.plan(circuit))
        assert pipeline.exact_reconstruction(decomposition, "ZZZZ") == pytest.approx(1.0)
