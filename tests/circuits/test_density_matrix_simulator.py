"""Unit tests for the branching density-matrix simulator."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.circuits import density_matrix_simulator
from repro.circuits.backends import DistributionCache
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator, simulate_density_matrix
from repro.devices import NoiseModel, NoisyDeviceBackend
from repro.quantum.measures import state_fidelity
from repro.quantum.random import random_statevector
from repro.quantum.states import DensityMatrix, Statevector


class TestBasicExecution:
    def test_unitary_only_matches_statevector(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        result = simulate_density_matrix(circuit)
        assert len(result.branches) == 1
        expected = Statevector(np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density_matrix()
        assert np.allclose(result.average_state().data, expected.data)

    def test_initial_state(self):
        initial = random_statevector(1, seed=0)
        circuit = QuantumCircuit(1)
        circuit.z(0)
        result = simulate_density_matrix(circuit, initial_state=initial)
        expected = initial.evolve(np.diag([1, -1]).astype(complex))
        assert state_fidelity(expected, result.average_state()) == pytest.approx(1.0)

    def test_initial_state_dimension_check(self):
        with pytest.raises(SimulationError):
            simulate_density_matrix(QuantumCircuit(2), initial_state=Statevector("0"))


class TestMeasurement:
    def test_single_measurement_branches(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0).measure(0, 0)
        result = simulate_density_matrix(circuit)
        distribution = result.classical_distribution()
        assert distribution["0"] == pytest.approx(0.5)
        assert distribution["1"] == pytest.approx(0.5)

    def test_deterministic_measurement_single_branch(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0).measure(0, 0)
        result = simulate_density_matrix(circuit)
        assert result.classical_distribution() == {"1": pytest.approx(1.0)}

    def test_conditional_state(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0).cx(0, 1).measure(0, 0)
        result = simulate_density_matrix(circuit)
        conditioned = result.conditional_state("1")
        # Given outcome 1 on qubit 0, qubit 1 is |1>.
        assert np.allclose(conditioned.partial_trace([0]).data, np.diag([0.0, 1.0]))

    def test_conditional_state_missing_outcome(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        result = simulate_density_matrix(circuit)
        with pytest.raises(SimulationError):
            result.conditional_state("1")

    def test_measurement_correlations_ghz(self):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0).cx(0, 1).cx(1, 2).measure_all()
        distribution = simulate_density_matrix(circuit).classical_distribution()
        assert set(distribution) == {"000", "111"}

    def test_expectation_value(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0).measure(0, 0)
        result = simulate_density_matrix(circuit)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert result.expectation_value(z).real == pytest.approx(0.0)


class TestClassicalControl:
    def test_feedforward_x(self):
        circuit = QuantumCircuit(2, 1)
        circuit.x(0).measure(0, 0)
        circuit.x(1, condition=(0, 1))
        result = simulate_density_matrix(circuit)
        reduced = result.average_state().partial_trace([0])
        assert np.allclose(reduced.data, np.diag([0.0, 1.0]))

    def test_feedforward_not_triggered(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        result = simulate_density_matrix(circuit)
        reduced = result.average_state().partial_trace([0])
        assert np.allclose(reduced.data, np.diag([1.0, 0.0]))

    def test_condition_on_zero_value(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 0))
        result = simulate_density_matrix(circuit)
        reduced = result.average_state().partial_trace([0])
        assert np.allclose(reduced.data, np.diag([0.0, 1.0]))

    def test_teleportation_with_feedforward(self):
        message = random_statevector(1, seed=3)
        circuit = QuantumCircuit(3, 2)
        circuit.initialize(message.data, 0)
        circuit.h(1).cx(1, 2)
        circuit.cx(0, 1).h(0)
        circuit.measure(0, 0).measure(1, 1)
        circuit.x(2, condition=(1, 1))
        circuit.z(2, condition=(0, 1))
        result = simulate_density_matrix(circuit)
        output = result.average_state().partial_trace([0, 1])
        assert state_fidelity(message, output) == pytest.approx(1.0)

    def test_teleportation_without_corrections_fails(self):
        message = random_statevector(1, seed=4)
        circuit = QuantumCircuit(3, 2)
        circuit.initialize(message.data, 0)
        circuit.h(1).cx(1, 2)
        circuit.cx(0, 1).h(0)
        circuit.measure(0, 0).measure(1, 1)
        result = simulate_density_matrix(circuit)
        output = result.average_state().partial_trace([0, 1])
        assert state_fidelity(message, output) < 0.99


class TestResetAndInitialize:
    def test_reset(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).reset(0)
        result = simulate_density_matrix(circuit)
        assert np.allclose(result.average_state().data, np.diag([1.0, 0.0]))

    def test_initialize_overwrites(self):
        target = random_statevector(1, seed=6)
        circuit = QuantumCircuit(1)
        circuit.h(0).initialize(target.data, 0)
        result = simulate_density_matrix(circuit)
        assert state_fidelity(target, result.average_state()) == pytest.approx(1.0)

    def test_initialize_subset_of_qubits(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.initialize(np.array([0, 1]), 1)
        result = simulate_density_matrix(circuit)
        assert np.allclose(result.average_state().data, DensityMatrix("11").data)

    def test_initialize_decouples_from_entangled_partner(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        circuit.initialize(np.array([1, 0]), 1)
        result = simulate_density_matrix(circuit)
        # Qubit 1 is now |0> and qubit 0 is maximally mixed.
        state = result.average_state()
        assert np.allclose(state.partial_trace([0]).data, np.diag([1.0, 0.0]))
        assert np.allclose(state.partial_trace([1]).data, np.eye(2) / 2)

    def test_branch_probabilities_sum_to_one(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0).h(1).measure_all()
        result = simulate_density_matrix(circuit)
        assert sum(b.probability for b in result.branches) == pytest.approx(1.0)


def _wide_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(16, 1, name="wide16")
    circuit.h(0).cx(0, 15).measure(15, 0)
    return circuit


class TestResourceLimits:
    @pytest.mark.parametrize(
        "run",
        [
            simulate_density_matrix,
            lambda circuit: NoisyDeviceBackend(
                NoiseModel(depolarizing_1q=0.01), cache=DistributionCache()
            ).exact_distributions([circuit]),
        ],
        ids=["density-matrix", "gate-noise"],
    )
    def test_wide_circuit_raises_before_allocating(self, monkeypatch, run):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(DensityMatrixSimulator, "_initial_density", no_allocation)
        with pytest.raises(SimulationError, match=r"full width of 16 qubits") as info:
            run(_wide_circuit())
        assert str(16 * 4**16 * 2) in str(info.value)

    def test_bound_counts_measurements_up_to_clbits(self, monkeypatch):
        # Three measurements into one clbit branch at most twice: 16 · 4² · 2¹ bytes.
        circuit = QuantumCircuit(2, 1)
        circuit.h(0).measure(0, 0).h(1).measure(1, 0).measure(0, 0)
        limit = 16 * 4**2 * 2
        monkeypatch.setattr(density_matrix_simulator, "MAX_SIMULATION_BYTES", limit)
        assert sum(simulate_density_matrix(circuit).classical_distribution().values()) == pytest.approx(1.0)
        monkeypatch.setattr(density_matrix_simulator, "MAX_SIMULATION_BYTES", limit - 1)
        with pytest.raises(SimulationError, match="byte limit"):
            simulate_density_matrix(circuit)
