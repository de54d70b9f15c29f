"""Unit tests for Statevector and DensityMatrix."""

import numpy as np
import pytest

from repro.exceptions import DimensionError, StateError
from repro.quantum.gates import CX, H, X, Z
from repro.quantum.states import DensityMatrix, Statevector


class TestStatevectorConstruction:
    def test_from_label(self):
        assert np.allclose(Statevector("10").data, [0, 0, 1, 0])

    def test_from_array(self):
        state = Statevector(np.array([1, 1]) / np.sqrt(2))
        assert state.num_qubits == 1

    def test_copy_constructor(self):
        original = Statevector("0")
        copy = Statevector(original)
        assert copy == original
        assert copy.data is not original.data

    def test_rejects_unnormalised(self):
        with pytest.raises(StateError):
            Statevector(np.array([1.0, 1.0]))

    def test_rejects_bad_dimension(self):
        with pytest.raises(StateError):
            Statevector(np.array([1.0, 0.0, 0.0]))

    def test_zero_state(self):
        assert np.allclose(Statevector.zero_state(3).data, np.eye(8)[0])

    def test_dim_and_len(self):
        state = Statevector.zero_state(2)
        assert state.dim == 4 and len(state) == 4


class TestStatevectorEvolution:
    def test_full_register_unitary(self):
        state = Statevector("00").evolve(np.kron(H, np.eye(2)))
        expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
        assert np.allclose(state.data, expected)

    def test_subsystem_evolution_matches_full(self):
        state = Statevector("00")
        via_subsystem = state.evolve(H, [0])
        via_full = state.evolve(np.kron(H, np.eye(2)))
        assert via_subsystem.equiv(via_full, up_to_global_phase=False)

    def test_bell_state_construction(self):
        state = Statevector("00").evolve(H, [0]).evolve(CX, [0, 1])
        assert np.allclose(state.data, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_two_qubit_gate_on_reversed_qubits(self):
        # CX with control qubit 1 and target qubit 0.
        state = Statevector("01").evolve(CX, [1, 0])
        assert np.allclose(state.data, Statevector("11").data)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Statevector("0").evolve(CX)
        with pytest.raises(DimensionError):
            Statevector("00").evolve(CX, [0])

    def test_tensor(self):
        product = Statevector("1").tensor(Statevector("0"))
        assert np.allclose(product.data, Statevector("10").data)

    def test_equiv_up_to_global_phase(self):
        state = Statevector("0")
        phased = Statevector(np.exp(1j * 0.7) * state.data, validate=False)
        assert state.equiv(phased)
        assert not state.equiv(phased, up_to_global_phase=False)


class TestStatevectorMeasurement:
    def test_probabilities_full(self):
        state = Statevector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert np.allclose(state.probabilities(), [0.5, 0, 0, 0.5])

    def test_probabilities_marginal(self):
        state = Statevector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert np.allclose(state.probabilities([0]), [0.5, 0.5])

    def test_probabilities_marginal_order(self):
        state = Statevector("01")
        assert np.allclose(state.probabilities([1, 0]), [0, 0, 1, 0])

    def test_expectation_value(self):
        plus = Statevector(np.array([1, 1]) / np.sqrt(2))
        assert plus.expectation_value(X) == pytest.approx(1.0)
        assert plus.expectation_value(Z) == pytest.approx(0.0)

    def test_expectation_value_on_subsystem(self):
        state = Statevector("01")
        assert state.expectation_value(Z, [0]).real == pytest.approx(1.0)
        assert state.expectation_value(Z, [1]).real == pytest.approx(-1.0)


class TestStatevectorConversion:
    def test_to_density_matrix(self):
        rho = Statevector("1").to_density_matrix()
        assert np.allclose(rho.data, np.diag([0, 1]))

    def test_reduced_density_matrix_of_bell_state(self):
        bell = Statevector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = bell.reduced_density_matrix([0])
        assert np.allclose(reduced.data, np.eye(2) / 2)


class TestDensityMatrix:
    def test_from_statevector(self):
        rho = DensityMatrix(Statevector("0"))
        assert np.allclose(rho.data, np.diag([1, 0]))

    def test_from_label(self):
        assert np.allclose(DensityMatrix("1").data, np.diag([0, 1]))

    def test_rejects_non_psd(self):
        with pytest.raises(StateError):
            DensityMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateError):
            DensityMatrix(np.diag([0.4, 0.4]))

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert rho.purity() == pytest.approx(0.25)

    def test_purity_pure(self):
        assert DensityMatrix("0").purity() == pytest.approx(1.0)
        assert DensityMatrix("0").is_pure()

    def test_to_statevector_roundtrip(self):
        state = Statevector(np.array([1, 1j]) / np.sqrt(2))
        recovered = state.to_density_matrix().to_statevector()
        assert state.equiv(recovered)

    def test_to_statevector_rejects_mixed(self):
        with pytest.raises(StateError):
            DensityMatrix.maximally_mixed(1).to_statevector()

    def test_evolve_full(self):
        rho = DensityMatrix("0").evolve(X)
        assert np.allclose(rho.data, np.diag([0, 1]))

    def test_evolve_subsystem(self):
        rho = DensityMatrix("00").evolve(X, [1])
        assert np.allclose(rho.data, DensityMatrix("01").data)

    def test_apply_kraus_dephasing(self):
        plus = Statevector(np.array([1, 1]) / np.sqrt(2)).to_density_matrix()
        kraus = [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z]
        result = plus.apply_kraus(kraus)
        assert np.allclose(result.data, np.eye(2) / 2)

    def test_partial_trace(self):
        bell = Statevector(np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density_matrix()
        assert np.allclose(bell.partial_trace([1]).data, np.eye(2) / 2)

    def test_tensor(self):
        rho = DensityMatrix("0").tensor(DensityMatrix("1"))
        assert np.allclose(rho.data, DensityMatrix("01").data)

    def test_expectation_value(self):
        rho = DensityMatrix.maximally_mixed(1)
        assert rho.expectation_value(Z).real == pytest.approx(0.0)

    def test_eigenvalues(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert np.allclose(rho.eigenvalues(), [0.25, 0.75])
