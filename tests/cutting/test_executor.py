"""Unit tests for the cut executor (sampling and recombination)."""

import numpy as np
import pytest

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import (
    build_sampling_model,
    cut_expectation_value,
    estimate_cut_expectation,
    exact_cut_expectation,
)
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.peng_cut import PengWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from repro.quantum.paulis import PauliString
from repro.quantum.random import random_statevector

PROTOCOLS = [HaradaWireCut(), PengWireCut(), NMEWireCut(0.5), TeleportationWireCut()]


def _state_circuit(seed: int) -> tuple[QuantumCircuit, float]:
    state = random_statevector(1, seed=seed)
    circuit = QuantumCircuit(1, 0)
    circuit.initialize(state.data, 0)
    z = np.diag([1.0, -1.0]).astype(complex)
    return circuit, float(np.real(state.expectation_value(z)))


class TestExactReconstruction:
    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
    def test_single_qubit_z(self, protocol):
        circuit, exact = _state_circuit(3)
        value = exact_cut_expectation(circuit, CutLocation(0, len(circuit)), protocol, "Z")
        assert value == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("observable", ["X", "Y", "Z"])
    def test_all_single_qubit_paulis(self, observable):
        circuit, _ = _state_circuit(5)
        exact = exact_expectation(circuit, PauliString(observable))
        value = exact_cut_expectation(
            circuit, CutLocation(0, len(circuit)), NMEWireCut(0.4), observable
        )
        assert value == pytest.approx(exact, abs=1e-9)

    def test_two_qubit_circuit_cut_in_middle(self):
        circuit = QuantumCircuit(2, 0)
        circuit.ry(1.0, 0).cx(0, 1).rz(0.3, 1).h(0)
        exact = exact_expectation(circuit, PauliString("ZZ"))
        for protocol in (HaradaWireCut(), NMEWireCut(0.7)):
            value = exact_cut_expectation(circuit, CutLocation(0, 2), protocol, "ZZ")
            assert value == pytest.approx(exact, abs=1e-9)

    def test_cut_on_second_qubit(self):
        circuit = QuantumCircuit(2, 0)
        circuit.h(0).cx(0, 1).ry(0.8, 1)
        exact = exact_expectation(circuit, PauliString("IZ"))
        value = exact_cut_expectation(circuit, CutLocation(1, 2), HaradaWireCut(), "IZ")
        assert value == pytest.approx(exact, abs=1e-9)


class TestSamplingModel:
    def test_probabilities_sum_to_one(self):
        circuit, _ = _state_circuit(1)
        model = build_sampling_model(circuit, CutLocation(0, 1), NMEWireCut(0.5), "Z")
        assert model.probabilities.sum() == pytest.approx(1.0)

    def test_kappa(self):
        circuit, _ = _state_circuit(1)
        model = build_sampling_model(circuit, CutLocation(0, 1), NMEWireCut(0.5), "Z")
        assert model.kappa == pytest.approx(NMEWireCut(0.5).kappa)

    def test_estimate_reproducible(self):
        circuit, _ = _state_circuit(2)
        model = build_sampling_model(circuit, CutLocation(0, 1), HaradaWireCut(), "Z")
        a = model.estimate(1000, seed=7)
        b = model.estimate(1000, seed=7)
        assert a.value == b.value

    def test_estimate_converges(self):
        circuit, exact = _state_circuit(4)
        model = build_sampling_model(circuit, CutLocation(0, 1), HaradaWireCut(), "Z")
        result = model.estimate(200_000, seed=5)
        assert result.value == pytest.approx(exact, abs=0.02)

    def test_error_decreases_with_shots_on_average(self):
        circuit, _ = _state_circuit(6)
        model = build_sampling_model(circuit, CutLocation(0, 1), HaradaWireCut(), "Z")
        rng = np.random.default_rng(0)
        small = np.mean([abs(model.estimate(100, seed=rng).value - model.exact_value) for _ in range(40)])
        large = np.mean([abs(model.estimate(4000, seed=rng).value - model.exact_value) for _ in range(40)])
        assert large < small

    def test_expected_pairs(self):
        circuit, _ = _state_circuit(1)
        model = build_sampling_model(circuit, CutLocation(0, 1), NMEWireCut(1.0), "Z")
        assert model.expected_pairs(100) == pytest.approx(100)
        model_harada = build_sampling_model(circuit, CutLocation(0, 1), HaradaWireCut(), "Z")
        assert model_harada.expected_pairs(100) == 0.0

    def test_expected_pairs_under_multinomial_is_the_exact_expectation(self):
        circuit, _ = _state_circuit(2)
        protocol = NMEWireCut(0.4)
        model = build_sampling_model(circuit, CutLocation(0, 1), protocol, "Z")
        first = model.expected_pairs(1000, allocation="multinomial")
        assert model.expected_pairs(1000, allocation="multinomial") == first
        pair_share = sum(
            abs(term.coefficient) for term in protocol.terms if term.consumes_entangled_pair
        ) / protocol.kappa
        assert first == pytest.approx(1000 * pair_share, rel=1e-12)
        assert model.expected_pairs(0, allocation="multinomial") == 0.0
        # The deterministic strategies still count the allocated shots:
        # largest remainder gives the two pair-consuming terms 433 each.
        assert model.expected_pairs(1000) == 866.0
        assert model.expected_pairs(1001, "uniform") == 668.0

    def test_zero_shot_estimate(self):
        circuit, _ = _state_circuit(1)
        model = build_sampling_model(circuit, CutLocation(0, 1), HaradaWireCut(), "Z")
        result = model.estimate(0)
        assert result.total_shots == 0
        assert result.value == 0.0


class TestEstimateCutExpectation:
    def test_finite_shot_accuracy(self):
        circuit, exact = _state_circuit(8)
        result = estimate_cut_expectation(
            circuit, CutLocation(0, 1), NMEWireCut(0.8), "Z", shots=40_000, seed=3
        )
        assert result.value == pytest.approx(exact, abs=0.05)
        assert result.exact_value == pytest.approx(exact)
        assert result.error == pytest.approx(abs(result.value - exact))

    def test_shot_accounting(self):
        circuit, _ = _state_circuit(9)
        result = estimate_cut_expectation(
            circuit, CutLocation(0, 1), HaradaWireCut(), "Z", shots=999, seed=1
        )
        assert sum(result.shots_per_term) == 999
        assert result.total_shots == 999
        assert len(result.shots_per_term) == 3

    def test_allocation_strategies(self):
        circuit, _ = _state_circuit(10)
        for strategy in ("proportional", "multinomial", "uniform"):
            result = estimate_cut_expectation(
                circuit,
                CutLocation(0, 1),
                NMEWireCut(0.5),
                "Z",
                shots=600,
                allocation=strategy,
                seed=2,
            )
            assert sum(result.shots_per_term) == 600

    def test_protocol_name_recorded(self):
        circuit, _ = _state_circuit(11)
        result = estimate_cut_expectation(
            circuit, CutLocation(0, 1), PengWireCut(), "Z", shots=100, seed=0
        )
        assert result.protocol_name == "peng"

    def test_skip_exact_computation(self):
        circuit, _ = _state_circuit(12)
        result = estimate_cut_expectation(
            circuit, CutLocation(0, 1), HaradaWireCut(), "Z", shots=100, seed=0, compute_exact=False
        )
        assert result.exact_value is None
        assert result.error is None

    def test_observable_size_mismatch(self):
        circuit = QuantumCircuit(2, 0)
        circuit.h(0)
        with pytest.raises(CuttingError):
            estimate_cut_expectation(
                circuit, CutLocation(0, 1), HaradaWireCut(), "ZZZ", shots=10
            )

    def test_phased_observable_rejected(self):
        circuit, _ = _state_circuit(13)
        with pytest.raises(CuttingError):
            estimate_cut_expectation(
                circuit, CutLocation(0, 1), HaradaWireCut(), PauliString("Z", phase=-1), shots=10
            )


class TestCutExpectationValueConvenience:
    def test_accepts_statevector(self):
        state = random_statevector(1, seed=20)
        result = cut_expectation_value(state, TeleportationWireCut(), shots=2000, seed=4)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert result.exact_value == pytest.approx(float(np.real(state.expectation_value(z))))

    def test_accepts_raw_vector(self):
        result = cut_expectation_value(np.array([1.0, 0.0]), HaradaWireCut(), shots=3000, seed=5)
        assert result.value == pytest.approx(1.0, abs=0.15)

    def test_rejects_multi_qubit_state(self):
        with pytest.raises(CuttingError):
            cut_expectation_value(random_statevector(2, seed=0), HaradaWireCut(), shots=10)

    def test_x_observable(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        result = cut_expectation_value(plus, NMEWireCut(0.9), shots=4000, observable="X", seed=6)
        assert result.value == pytest.approx(1.0, abs=0.15)
