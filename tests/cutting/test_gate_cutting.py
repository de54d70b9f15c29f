"""Unit tests for gate cutting (ZZ rotations and CZ)."""

import numpy as np
import pytest

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.gate_cutting import (
    CZGateCut,
    ZZGateCut,
    build_gate_cut_circuits,
    estimate_gate_cut_expectation,
)
from repro.qpd.superop import apply_superoperator
from repro.quantum.paulis import PauliString
from repro.quantum.random import random_density_matrix


class TestZZGateCut:
    @pytest.mark.parametrize("theta", [0.0, 0.2, np.pi / 4, np.pi / 2, 1.3])
    def test_reconstructs_target_channel(self, theta):
        protocol = ZZGateCut(theta)
        target = protocol.target_unitary()
        total = sum(t.coefficient * t.superoperator() for t in protocol.terms)
        rho = random_density_matrix(2, seed=1).data
        assert np.allclose(
            apply_superoperator(total, rho), target @ rho @ target.conj().T, atol=1e-9
        )

    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, 1.0])
    def test_kappa_formula(self, theta):
        protocol = ZZGateCut(theta)
        assert protocol.kappa == pytest.approx(protocol.theoretical_overhead())
        assert protocol.theoretical_overhead() == pytest.approx(1 + 2 * abs(np.sin(2 * theta)))

    def test_theta_zero_is_trivial(self):
        protocol = ZZGateCut(0.0)
        assert protocol.kappa == pytest.approx(1.0)

    def test_coefficients_sum_to_one(self):
        protocol = ZZGateCut(0.9)
        assert sum(t.coefficient for t in protocol.terms) == pytest.approx(1.0)

    def test_cross_terms_have_sign_bits(self):
        protocol = ZZGateCut(np.pi / 4)
        cross = [t for t in protocol.terms if t.num_gadget_clbits == 1]
        assert len(cross) == 4
        assert all(t.sign_clbits == (0,) for t in cross)


class TestCZGateCut:
    def test_reconstructs_cz_channel(self):
        protocol = CZGateCut()
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        total = sum(t.coefficient * t.superoperator() for t in protocol.terms)
        rho = random_density_matrix(2, seed=2).data
        assert np.allclose(apply_superoperator(total, rho), cz @ rho @ cz, atol=1e-9)

    def test_kappa_is_three(self):
        assert CZGateCut().kappa == pytest.approx(3.0)

    def test_six_terms(self):
        assert len(CZGateCut().terms) == 6


class TestGateCutCircuits:
    def _circuit(self) -> QuantumCircuit:
        circuit = QuantumCircuit(2, 0, name="two_qubit")
        circuit.ry(0.6, 0)
        circuit.ry(1.1, 1)
        circuit.cz(0, 1)
        circuit.h(0)
        return circuit

    def test_one_circuit_per_term(self):
        circuits = build_gate_cut_circuits(self._circuit(), 2, CZGateCut())
        assert len(circuits) == 6

    def test_gate_replaced(self):
        circuits = build_gate_cut_circuits(self._circuit(), 2, CZGateCut())
        for term_circuit in circuits:
            assert "cz" not in term_circuit.circuit.count_ops()

    def test_qubit_count_unchanged(self):
        circuits = build_gate_cut_circuits(self._circuit(), 2, CZGateCut())
        assert all(c.circuit.num_qubits == 2 for c in circuits)

    def test_index_out_of_range(self):
        with pytest.raises(CuttingError):
            build_gate_cut_circuits(self._circuit(), 10, CZGateCut())

    def test_requires_two_qubit_gate(self):
        with pytest.raises(CuttingError):
            build_gate_cut_circuits(self._circuit(), 0, CZGateCut())

    def test_exact_estimate_matches_uncut(self):
        circuit = self._circuit()
        exact = exact_expectation(circuit, PauliString("ZZ"))
        result = estimate_gate_cut_expectation(
            circuit, 2, CZGateCut(), "ZZ", shots=60_000, seed=0
        )
        assert result.exact_value == pytest.approx(exact)
        assert result.value == pytest.approx(exact, abs=0.06)

    def test_rzz_gate_cut(self):
        theta = 0.8
        circuit = QuantumCircuit(2, 0)
        circuit.h(0).h(1).rzz(theta, 0, 1)
        exact = exact_expectation(circuit, PauliString("XX"))
        # rzz(θ) = exp(-iθ/2 Z⊗Z), so the matching protocol is ZZGateCut(-θ/2).
        result = estimate_gate_cut_expectation(
            circuit, 2, ZZGateCut(-theta / 2), "XX", shots=60_000, seed=1
        )
        assert result.value == pytest.approx(exact, abs=0.06)

    def test_observable_mismatch(self):
        with pytest.raises(CuttingError):
            estimate_gate_cut_expectation(self._circuit(), 2, CZGateCut(), "ZZZ", shots=10)

    def test_single_letter_observable_refers_to_qubit_zero(self):
        single = estimate_gate_cut_expectation(self._circuit(), 2, CZGateCut(), "Z", shots=500, seed=3)
        padded = estimate_gate_cut_expectation(self._circuit(), 2, CZGateCut(), "ZI", shots=500, seed=3)
        assert single.value == padded.value
        assert single.exact_value == padded.exact_value

    def test_phased_observable_rejected(self):
        with pytest.raises(CuttingError, match="phase"):
            estimate_gate_cut_expectation(
                self._circuit(), 2, CZGateCut(), PauliString("ZZ", phase=-1), shots=10
            )

    def test_shot_accounting(self):
        result = estimate_gate_cut_expectation(
            self._circuit(), 2, CZGateCut(), "ZZ", shots=500, seed=2
        )
        assert sum(result.shots_per_term) == 500
        assert result.kappa == pytest.approx(3.0)
