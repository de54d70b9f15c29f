"""Unit tests for the QuantumCircuit builder."""

import numpy as np
import pytest

from repro.exceptions import CircuitError
from repro.circuits.circuit import QuantumCircuit
from repro.quantum.gates import CX, H, X, Z


class TestBuilder:
    def test_chaining(self):
        circuit = QuantumCircuit(2, 1)
        result = circuit.h(0).cx(0, 1).measure(1, 0)
        assert result is circuit
        assert len(circuit) == 3

    def test_named_gates_record_matrices(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        assert np.allclose(circuit.instructions[0].matrix, X)

    def test_parametric_gates(self):
        circuit = QuantumCircuit(1)
        circuit.ry(0.7, 0).rz(0.2, 0).u(0.1, 0.2, 0.3, 0)
        assert circuit.count_ops() == {"ry": 1, "rz": 1, "u": 1}

    def test_two_qubit_gates(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cz(1, 2).swap(0, 2).ccx(0, 1, 2)
        assert len(circuit) == 4

    def test_unitary_append(self):
        circuit = QuantumCircuit(1)
        circuit.unitary(H, 0, name="my_h")
        assert circuit.instructions[0].name == "my_h"

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1).unitary(np.diag([1.0, 2.0]), 0)

    def test_qubit_range_check(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1).x(1)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).cx(0, 0)

    def test_clbit_range_check(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1, 1).measure(0, 1)

    def test_negative_register_sizes(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(-1)

    def test_conditional_gate(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0, condition=(0, 1))
        assert circuit.instructions[0].condition == (0, 1)
        assert circuit.has_conditionals()

    def test_measure_all(self):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0).measure_all()
        assert circuit.count_ops()["measure"] == 3

    def test_measure_all_requires_clbits(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2, 1).measure_all()

    def test_initialize_validation(self):
        circuit = QuantumCircuit(2)
        circuit.initialize(np.array([0, 1]), 0)
        with pytest.raises(CircuitError):
            circuit.initialize(np.array([1, 1]), 0)  # not normalised
        with pytest.raises(CircuitError):
            circuit.initialize(np.array([1, 0]), (0, 1))  # wrong dimension

    def test_barrier_defaults_to_all_qubits(self):
        circuit = QuantumCircuit(3)
        circuit.barrier()
        assert circuit.instructions[0].qubits == (0, 1, 2)


class TestAnalysis:
    def test_is_unitary_only(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0).cx(0, 1)
        assert circuit.is_unitary_only()
        circuit.measure(0, 0)
        assert not circuit.is_unitary_only()

    def test_depth_parallel_gates(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1)
        assert circuit.depth() == 1

    def test_depth_serial_gates(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).h(1)
        assert circuit.depth() == 3

    def test_depth_ignores_barriers(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).barrier().h(0)
        assert circuit.depth() == 2

    def test_depth_counts_classical_dependencies(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        assert circuit.depth() == 2

    def test_count_ops(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).cx(0, 1)
        assert circuit.count_ops() == {"h": 2, "cx": 1}

    def test_to_matrix_bell_circuit(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        expected = CX @ np.kron(H, np.eye(2))
        assert np.allclose(circuit.to_matrix(), expected)

    def test_to_matrix_respects_qubit_targets(self):
        circuit = QuantumCircuit(2)
        circuit.z(1)
        assert np.allclose(circuit.to_matrix(), np.kron(np.eye(2), Z))

    def test_to_matrix_rejects_measurement(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        with pytest.raises(CircuitError):
            circuit.to_matrix()


class TestComposition:
    def test_compose_identity_mapping(self):
        inner = QuantumCircuit(1)
        inner.x(0)
        outer = QuantumCircuit(2)
        combined = outer.compose(inner)
        assert combined.count_ops() == {"x": 1}
        assert len(outer) == 0  # not in place by default

    def test_compose_inplace(self):
        inner = QuantumCircuit(1)
        inner.x(0)
        outer = QuantumCircuit(2)
        outer.compose(inner, qubits=[1], inplace=True)
        assert outer.instructions[0].qubits == (1,)

    def test_compose_remaps_clbits(self):
        inner = QuantumCircuit(1, 1)
        inner.measure(0, 0)
        outer = QuantumCircuit(2, 2)
        outer.compose(inner, qubits=[1], clbits=[1], inplace=True)
        assert outer.instructions[0].clbits == (1,)

    def test_compose_wrong_mapping_length(self):
        inner = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            QuantumCircuit(3).compose(inner, qubits=[0])

    def test_compose_too_wide_raises(self):
        inner = QuantumCircuit(3)
        inner.cx(0, 2)
        with pytest.raises(CircuitError, match="qubit index 2"):
            QuantumCircuit(2).compose(inner)

    def test_compose_too_many_clbits_raises(self):
        inner = QuantumCircuit(1, 2)
        inner.measure(0, 1)
        with pytest.raises(CircuitError, match="clbit index 1"):
            QuantumCircuit(1, 1).compose(inner)

    def test_compose_condition_clbit_out_of_range_raises(self):
        inner = QuantumCircuit(1, 3)
        inner.x(0, condition=(2, 1))
        with pytest.raises(CircuitError, match="clbit index 2"):
            QuantumCircuit(1, 2).compose(inner)

    def test_compose_wider_circuit_whose_instructions_fit(self):
        # Only the indices the instructions use are checked, not the register
        # sizes of the composed circuit.
        inner = QuantumCircuit(3, 2)
        inner.h(0)
        outer = QuantumCircuit(1).compose(inner)
        assert outer.count_ops() == {"h": 1}

    def test_extend_checks_once_and_shares_instructions(self):
        source = QuantumCircuit(2, 1)
        source.h(0).cx(0, 1).measure(1, 0)
        target = QuantumCircuit(3, 1)
        assert target.extend(source.instructions) is target
        assert all(a is b for a, b in zip(target.instructions, source.instructions))
        with pytest.raises(CircuitError):
            QuantumCircuit(1, 1).extend(source.instructions)
        with pytest.raises(CircuitError):
            QuantumCircuit(2, 0).extend(source.instructions)

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        clone = circuit.copy()
        clone.x(0)
        assert len(circuit) == 1 and len(clone) == 2

    def test_inverse(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).s(0)
        inverse = circuit.inverse()
        combined = circuit.copy().compose(inverse)
        assert np.allclose(combined.to_matrix(), np.eye(2))

    def test_inverse_rejects_measurement(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        with pytest.raises(CircuitError):
            circuit.inverse()
