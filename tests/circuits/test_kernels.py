"""Unit tests for the axis-local simulation kernels."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.kernels import (
    PreparedOperator,
    apply_initialize,
    apply_kraus,
    apply_reset,
    apply_unitary,
    apply_unitary_statevector,
    clear_prepared_cache,
    matrix_fingerprint,
    prepare_operator,
    prepared_cache_info,
    project_qubit,
)
from repro.exceptions import SimulationError
from repro.quantum.states import Statevector
from repro.telemetry.metrics import REGISTRY
from repro.utils.linalg import expand_operator
from utils.dense_reference import expanded_projectors, expanded_reset_kraus, local_initialize_kraus


def random_density(num_qubits: int, seed: int = 0) -> np.ndarray:
    """A full-rank valid density matrix."""
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(k: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 2**k
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return q


class TestPreparedOperatorCache:
    def setup_method(self):
        clear_prepared_cache()

    def test_prepare_returns_matrix_and_dagger(self):
        u = random_unitary(2, seed=1)
        prepared = prepare_operator(u)
        assert isinstance(prepared, PreparedOperator)
        assert prepared.num_qubits == 2
        np.testing.assert_array_equal(prepared.matrix, u)
        np.testing.assert_array_equal(prepared.dagger, u.conj().T)

    def test_cache_hit_returns_same_object(self):
        u = random_unitary(1, seed=2)
        first = prepare_operator(u)
        second = prepare_operator(u.copy())  # equal payload, distinct array
        assert second is first
        info = prepared_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["size"] == 1

    def test_distinct_payloads_are_distinct_entries(self):
        prepare_operator(random_unitary(1, seed=3))
        prepare_operator(random_unitary(1, seed=4))
        assert prepared_cache_info()["size"] == 2

    def test_fingerprint_covers_shape_and_content(self):
        a = np.eye(2, dtype=complex)
        b = np.eye(4, dtype=complex)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)
        assert matrix_fingerprint(a) == matrix_fingerprint(np.eye(2))

    def test_non_square_rejected(self):
        with pytest.raises(SimulationError, match="square"):
            prepare_operator(np.ones((2, 3)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SimulationError, match="power of two"):
            prepare_operator(np.eye(3))

    def test_noise_kraus_share_the_cache(self):
        """Gate unitaries and Kraus operators hit the same LRU entries."""
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        prepare_operator(x)
        before = prepared_cache_info()
        prepare_operator(x)  # the "noise layer" preparing the same payload
        after = prepared_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["size"] == before["size"]


class TestApplyUnitary:
    @pytest.mark.parametrize(
        "num_qubits,qubits",
        [(1, [0]), (3, [0]), (3, [2]), (3, [0, 1]), (3, [1, 0]), (4, [0, 3]), (4, [3, 1])],
    )
    def test_matches_dense_sandwich(self, num_qubits, qubits):
        rho = random_density(num_qubits, seed=5)
        u = random_unitary(len(qubits), seed=6)
        full = expand_operator(u, qubits, num_qubits)
        expected = full @ rho @ full.conj().T
        result = apply_unitary(rho, prepare_operator(u), qubits, num_qubits)
        np.testing.assert_allclose(result, expected, atol=1e-12)

    def test_batched_slices_match_serial(self):
        """Each batch slice is bitwise identical to the serial application."""
        num_qubits, qubits = 3, [0, 2]
        u = prepare_operator(random_unitary(2, seed=7))
        stack = np.stack([random_density(num_qubits, seed=s) for s in range(4)])
        batched = apply_unitary(stack, u, qubits, num_qubits)
        for index in range(stack.shape[0]):
            serial = apply_unitary(stack[index], u, qubits, num_qubits)
            np.testing.assert_array_equal(batched[index], serial)

    def test_per_slice_operator_stack(self):
        num_qubits, qubits = 2, [1]
        stack = np.stack([random_density(num_qubits, seed=s) for s in range(3)])
        operators = np.stack([random_unitary(1, seed=10 + s) for s in range(3)])
        batched = apply_unitary(stack, operators, qubits, num_qubits)
        for index in range(3):
            full = expand_operator(operators[index], qubits, num_qubits)
            expected = full @ stack[index] @ full.conj().T
            np.testing.assert_allclose(batched[index], expected, atol=1e-12)

    def test_rejects_bad_rank(self):
        with pytest.raises(SimulationError, match="batch axis"):
            apply_unitary(np.zeros((2, 2, 2, 2)), prepare_operator(np.eye(2)), [0], 1)


class TestApplyKraus:
    def test_matches_dense_accumulation(self):
        num_qubits, qubits = 3, [1, 2]
        rho = random_density(num_qubits, seed=8)
        p = 0.1
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        kraus = [np.sqrt(1 - p) * np.eye(4, dtype=complex), np.sqrt(p) * np.kron(x, x)]
        expected = sum(
            expand_operator(k, qubits, num_qubits) @ rho @ expand_operator(k, qubits, num_qubits).conj().T
            for k in kraus
        )
        result = apply_kraus(rho, [prepare_operator(k) for k in kraus], qubits, num_qubits)
        np.testing.assert_allclose(result, expected, atol=1e-12)

    def test_empty_kraus_rejected(self):
        with pytest.raises(SimulationError, match="at least one"):
            apply_kraus(random_density(1), [], [0], 1)


class TestProjectAndReset:
    @pytest.mark.parametrize("num_qubits,qubit", [(1, 0), (3, 0), (3, 1), (3, 2)])
    def test_project_bitwise_matches_dense(self, num_qubits, qubit):
        rho = random_density(num_qubits, seed=9)
        p0, p1 = expanded_projectors(qubit, num_qubits)
        piece0, piece1 = project_qubit(rho, qubit, num_qubits)
        np.testing.assert_array_equal(piece0, p0 @ rho @ p0)
        np.testing.assert_array_equal(piece1, p1 @ rho @ p1)

    @pytest.mark.parametrize("num_qubits,qubit", [(1, 0), (3, 0), (3, 1), (3, 2)])
    def test_reset_bitwise_matches_dense(self, num_qubits, qubit):
        rho = random_density(num_qubits, seed=10)
        k0, k1 = expanded_reset_kraus(qubit, num_qubits)
        expected = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
        np.testing.assert_array_equal(apply_reset(rho, qubit, num_qubits), expected)

    def test_batched_project_matches_serial(self):
        stack = np.stack([random_density(2, seed=s) for s in range(3)])
        batched0, batched1 = project_qubit(stack, 1, 2)
        for index in range(3):
            serial0, serial1 = project_qubit(stack[index], 1, 2)
            np.testing.assert_array_equal(batched0[index], serial0)
            np.testing.assert_array_equal(batched1[index], serial1)


class TestApplyInitialize:
    @pytest.mark.parametrize(
        "num_qubits,qubits", [(1, [0]), (3, [1]), (3, [0, 2]), (3, [2, 0]), (2, [0, 1])]
    )
    def test_matches_dense_channel(self, num_qubits, qubits):
        rng = np.random.default_rng(11)
        rho = random_density(num_qubits, seed=12)
        target = rng.normal(size=2 ** len(qubits)) + 1j * rng.normal(size=2 ** len(qubits))
        target = target / np.linalg.norm(target)
        kraus_full = [
            expand_operator(k, qubits, num_qubits) for k in local_initialize_kraus(target)
        ]
        expected = sum(k @ rho @ k.conj().T for k in kraus_full)
        result = apply_initialize(rho, target, qubits, num_qubits)
        np.testing.assert_allclose(result, expected, atol=1e-12)
        # The channel output is the target pure state on the initialised
        # qubits, tensored with the marginal of the rest.
        assert np.isclose(np.trace(result).real, 1.0)

    def test_batched_targets(self):
        stack = np.stack([random_density(2, seed=s) for s in range(3)])
        rng = np.random.default_rng(13)
        targets = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        batched = apply_initialize(stack, targets, [0], 2)
        for index in range(3):
            serial = apply_initialize(stack[index], targets[index], [0], 2)
            np.testing.assert_array_equal(batched[index], serial)


class TestStatevectorKernel:
    @pytest.mark.parametrize("num_qubits,qubits", [(1, [0]), (3, [1]), (3, [2, 0]), (4, [1, 3])])
    def test_matches_evolve_bitwise(self, num_qubits, qubits):
        """The kernel is arithmetically identical to Statevector.evolve."""
        rng = np.random.default_rng(14)
        state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
        state = state / np.linalg.norm(state)
        u = random_unitary(len(qubits), seed=15)
        expected = Statevector(state).evolve(u, qubits).data
        result = apply_unitary_statevector(state, prepare_operator(u), qubits, num_qubits)
        np.testing.assert_array_equal(result, expected)


class TestLocalInitializeKraus:
    def test_matches_outer_product_construction(self):
        rng = np.random.default_rng(16)
        target = rng.normal(size=4) + 1j * rng.normal(size=4)
        target = target / np.linalg.norm(target)
        basis = np.eye(4)
        for j, kraus in enumerate(local_initialize_kraus(target)):
            np.testing.assert_array_equal(kraus, np.outer(target, basis[j]))


class TestKernelTelemetry:
    def test_gate_application_instruments_recorded(self):
        circuit = QuantumCircuit(2, 0)
        circuit.h(0)
        circuit.cx(0, 1)
        DensityMatrixSimulator().run(circuit)
        text = REGISTRY.render()
        assert 'repro_kernel_gate_applications_total{kernel="einsum",arity="1"}' in text
        assert 'repro_kernel_gate_applications_total{kernel="einsum",arity="2"}' in text
        assert "repro_kernel_gate_seconds_bucket" in text
        assert 'repro_kernel_gate_seconds_count{kernel="einsum"}' in text
