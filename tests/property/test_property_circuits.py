"""Property-based tests for the circuit simulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.backends import SerialBackend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import simulate_density_matrix
from repro.circuits.statevector_simulator import simulate_statevector

SETTINGS = settings(max_examples=30, deadline=None)

_GATE_CHOICES = ("h", "x", "y", "z", "s", "t", "sx")


@st.composite
def random_circuits(draw, max_qubits: int = 3, max_gates: int = 8):
    """Generate small random unitary circuits as (num_qubits, gate list)."""
    num_qubits = draw(st.integers(min_value=1, max_value=max_qubits))
    num_gates = draw(st.integers(min_value=0, max_value=max_gates))
    gates = []
    for _ in range(num_gates):
        kind = draw(st.sampled_from(("single", "rotation", "cx")))
        if kind == "single":
            gates.append((draw(st.sampled_from(_GATE_CHOICES)), (draw(st.integers(0, num_qubits - 1)),), ()))
        elif kind == "rotation":
            angle = draw(st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False))
            gates.append(("ry", (draw(st.integers(0, num_qubits - 1)),), (angle,)))
        else:
            if num_qubits < 2:
                continue
            control = draw(st.integers(0, num_qubits - 1))
            target = draw(st.integers(0, num_qubits - 1))
            if control == target:
                continue
            gates.append(("cx", (control, target), ()))
    return num_qubits, gates


def _build(num_qubits: int, gates, num_clbits: int = 0) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, num_clbits)
    for name, qubits, params in gates:
        circuit.gate(name, qubits, params)
    return circuit


class TestSimulatorConsistency:
    @SETTINGS
    @given(spec=random_circuits())
    def test_statevector_norm_preserved(self, spec):
        num_qubits, gates = spec
        state = simulate_statevector(_build(num_qubits, gates))
        assert np.linalg.norm(state.data) == pytest.approx(1.0)

    @SETTINGS
    @given(spec=random_circuits())
    def test_density_matrix_matches_statevector(self, spec):
        num_qubits, gates = spec
        circuit = _build(num_qubits, gates)
        pure = simulate_statevector(circuit)
        mixed = simulate_density_matrix(circuit).average_state()
        assert np.allclose(mixed.data, np.outer(pure.data, pure.data.conj()), atol=1e-9)

    @SETTINGS
    @given(spec=random_circuits(max_qubits=2, max_gates=5), seed=st.integers(0, 2**31 - 1))
    def test_exact_sampling_matches_born_probabilities(self, spec, seed):
        num_qubits, gates = spec
        circuit = _build(num_qubits, gates, num_clbits=num_qubits)
        circuit.measure_all()
        (counts,) = SerialBackend().run_batch([circuit], [4000], seed=seed)
        probabilities = np.abs(simulate_statevector(_build(num_qubits, gates)).data) ** 2
        for index, probability in enumerate(probabilities):
            key = format(index, f"0{num_qubits}b")
            assert counts[key] / 4000 == pytest.approx(probability, abs=0.06)

    @SETTINGS
    @given(spec=random_circuits(max_qubits=2, max_gates=4), seed=st.integers(0, 2**31 - 1))
    def test_counts_total_is_shot_budget(self, spec, seed):
        num_qubits, gates = spec
        circuit = _build(num_qubits, gates, num_clbits=num_qubits)
        circuit.measure_all()
        shots = 137
        (counts,) = SerialBackend().run_batch([circuit], [shots], seed=seed)
        assert counts.shots == shots
