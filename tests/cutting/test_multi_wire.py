"""Unit tests for cutting several wires of one circuit."""

import pytest

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.cutter import CutLocation
from repro.cutting.multi_wire import (
    build_multi_cut_circuits,
    estimate_multi_cut_expectation,
    independent_cuts_decomposition,
)
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from repro.quantum.paulis import PauliString


def _three_qubit_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 0, name="chain")
    circuit.ry(0.7, 0)
    circuit.cx(0, 1)
    circuit.ry(0.4, 1)
    circuit.cx(1, 2)
    circuit.rz(0.9, 2)
    return circuit


class TestBuildMultiCut:
    def test_term_count_is_product(self):
        circuits = build_multi_cut_circuits(
            _three_qubit_circuit(),
            [CutLocation(0, 1), CutLocation(1, 3)],
            [HaradaWireCut(), HaradaWireCut()],
        )
        assert len(circuits) == 9

    def test_coefficient_products(self):
        circuits = build_multi_cut_circuits(
            _three_qubit_circuit(),
            [CutLocation(0, 1), CutLocation(1, 3)],
            [HaradaWireCut(), NMEWireCut(0.5)],
        )
        total_kappa = sum(abs(c.coefficient) for c in circuits)
        assert total_kappa == pytest.approx(HaradaWireCut().kappa * NMEWireCut(0.5).kappa)

    def test_length_mismatch(self):
        with pytest.raises(CuttingError):
            build_multi_cut_circuits(
                _three_qubit_circuit(), [CutLocation(0, 1)], [HaradaWireCut(), HaradaWireCut()]
            )

    def test_duplicate_locations(self):
        with pytest.raises(CuttingError):
            build_multi_cut_circuits(
                _three_qubit_circuit(),
                [CutLocation(0, 1), CutLocation(0, 1)],
                [HaradaWireCut(), HaradaWireCut()],
            )

    def test_empty_locations(self):
        with pytest.raises(CuttingError):
            build_multi_cut_circuits(_three_qubit_circuit(), [], [])

    def test_qubit_map_tracks_both_cuts(self):
        circuits = build_multi_cut_circuits(
            _three_qubit_circuit(),
            [CutLocation(0, 1), CutLocation(1, 3)],
            [HaradaWireCut(), HaradaWireCut()],
        )
        for term_circuit in circuits:
            # Both cut wires moved onto fresh receiver qubits.
            assert term_circuit.qubit_map[0] >= 3
            assert term_circuit.qubit_map[1] >= 3
            assert term_circuit.qubit_map[2] == 2


class TestEstimateMultiCut:
    def test_exact_reconstruction_two_cuts(self):
        circuit = _three_qubit_circuit()
        observable = PauliString("ZZZ")
        exact = exact_expectation(circuit, observable)
        result = estimate_multi_cut_expectation(
            circuit,
            [CutLocation(0, 1), CutLocation(1, 3)],
            [TeleportationWireCut(), TeleportationWireCut()],
            observable,
            shots=30_000,
            seed=0,
        )
        # Teleportation cuts have κ=1, so even moderate budgets are accurate.
        assert result.value == pytest.approx(exact, abs=0.05)
        assert result.kappa == pytest.approx(1.0)

    def test_kappa_product_and_shot_accounting(self):
        circuit = _three_qubit_circuit()
        result = estimate_multi_cut_expectation(
            circuit,
            [CutLocation(0, 1), CutLocation(1, 3)],
            [HaradaWireCut(), NMEWireCut(0.8)],
            PauliString("ZZZ"),
            shots=2000,
            seed=1,
        )
        assert result.kappa == pytest.approx(3.0 * NMEWireCut(0.8).kappa)
        assert sum(result.shots_per_term) == 2000

    def test_finite_shot_estimate_reasonable(self):
        circuit = _three_qubit_circuit()
        observable = PauliString("IZZ")
        exact = exact_expectation(circuit, observable)
        result = estimate_multi_cut_expectation(
            circuit,
            [CutLocation(1, 3)],
            [NMEWireCut(0.9)],
            observable,
            shots=20_000,
            seed=2,
        )
        assert result.value == pytest.approx(exact, abs=0.08)

    def test_observable_size_check(self):
        with pytest.raises(CuttingError):
            estimate_multi_cut_expectation(
                _three_qubit_circuit(),
                [CutLocation(0, 1)],
                [HaradaWireCut()],
                PauliString("ZZ"),
                shots=10,
            )

    def test_phased_observable_rejected(self):
        bell = QuantumCircuit(2, 0, name="bell")
        bell.h(0)
        bell.cx(0, 1)
        with pytest.raises(CuttingError, match="phase"):
            estimate_multi_cut_expectation(
                bell, [CutLocation(0, 1)], [HaradaWireCut()], PauliString("ZZ", phase=-1), 20_000
            )

    def test_single_letter_observable_refers_to_qubit_zero(self):
        circuit = _three_qubit_circuit()
        single, padded = (
            estimate_multi_cut_expectation(
                circuit, [CutLocation(0, 1)], [HaradaWireCut()], observable, shots=600, seed=4
            )
            for observable in ("Z", "ZII")
        )
        assert single.value == padded.value
        assert single.exact_value == padded.exact_value


class TestIndependentDecomposition:
    def test_kappa_product(self):
        decomposition = independent_cuts_decomposition([HaradaWireCut(), HaradaWireCut()])
        assert decomposition.kappa == pytest.approx(9.0)

    def test_identity_on_two_qubits(self):
        decomposition = independent_cuts_decomposition([HaradaWireCut(), NMEWireCut(0.7)])
        assert decomposition.matches_identity()

    def test_exponential_growth(self):
        protocols = [HaradaWireCut()] * 3
        decomposition = independent_cuts_decomposition(protocols)
        assert decomposition.kappa == pytest.approx(27.0)
        assert len(decomposition) == 27

    def test_requires_protocols(self):
        with pytest.raises(CuttingError):
            independent_cuts_decomposition([])


class TestMultiCutBackends:
    def test_backends_agree_bitwise(self):
        from repro.experiments import ghz_circuit

        circuit = ghz_circuit(4)
        locations = [CutLocation(1, 2), CutLocation(2, 3)]
        protocols = [HaradaWireCut(), HaradaWireCut()]
        results = [
            estimate_multi_cut_expectation(
                circuit, locations, protocols, "ZZZZ", shots=2000, seed=17, backend=backend
            )
            for backend in ("serial", "vectorized")
        ]
        assert results[0].value == results[1].value
        assert results[0].shots_per_term == results[1].shots_per_term

    def test_same_wire_two_positions_supported(self):
        circuit = QuantumCircuit(3)
        circuit.ry(0.9, 0)
        circuit.cx(0, 1)
        circuit.cx(0, 2)
        locations = [CutLocation(0, 1), CutLocation(0, 2)]
        result = estimate_multi_cut_expectation(
            circuit,
            locations,
            [HaradaWireCut(), HaradaWireCut()],
            "ZZZ",
            shots=40_000,
            seed=23,
            backend="vectorized",
        )
        assert result.exact_value == pytest.approx(result.value, abs=0.25)
