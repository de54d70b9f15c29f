"""Property-based tests: the multi-cut QPD pipeline estimate is unbiased."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting import CutLocation, NMEWireCut, build_sampling_model
from repro.cutting.executor import _measured_batch, _probability_plus
from repro.experiments import ghz_circuit
from repro.pipeline import CutPipeline
from repro.quantum.paulis import PauliString

from tests.property.strategies import angles, overlaps

FAST_SETTINGS = settings(max_examples=12, deadline=None)

_OBSERVABLES = st.sampled_from(["ZZZ", "ZIZ", "XXI", "IZZ", "ZXZ"])


def _chain_circuit(theta_a: float, theta_b: float, theta_c: float) -> QuantumCircuit:
    """A 3-qubit chain whose natural 2-cut plan has one cut per slice."""
    circuit = QuantumCircuit(3)
    circuit.ry(theta_a, 0)
    circuit.cx(0, 1)
    circuit.ry(theta_b, 1)
    circuit.cx(1, 2)
    circuit.ry(theta_c, 2)
    return circuit


class TestExactReconstructionIsUnbiased:
    """The infinite-shot limit of the 2-cut estimator equals the uncut value."""

    @FAST_SETTINGS
    @given(theta_a=angles, theta_b=angles, theta_c=angles, observable=_OBSERVABLES)
    def test_two_cut_chain_reconstructs_exactly(
        self, theta_a, theta_b, theta_c, observable
    ):
        circuit = _chain_circuit(theta_a, theta_b, theta_c)
        exact = exact_expectation(circuit, PauliString(observable).to_matrix())
        pipeline = CutPipeline(backend="vectorized")
        decomposition = pipeline.decompose(pipeline.plan(circuit, positions=(2, 4)))
        assert decomposition.plan_result.num_cuts == 2
        reconstructed = pipeline.exact_reconstruction(decomposition, observable)
        assert reconstructed == pytest.approx(exact, abs=1e-9)

    @FAST_SETTINGS
    @given(theta_a=angles, theta_b=angles, theta_c=angles)
    def test_entanglement_assisted_chain_reconstructs_exactly(
        self, theta_a, theta_b, theta_c
    ):
        circuit = _chain_circuit(theta_a, theta_b, theta_c)
        exact = exact_expectation(circuit, PauliString("ZZZ").to_matrix())
        pipeline = CutPipeline(entanglement_overlap=0.8, backend="vectorized")
        decomposition = pipeline.decompose(pipeline.plan(circuit, positions=(2, 4)))
        reconstructed = pipeline.exact_reconstruction(decomposition, "ZZZ")
        assert reconstructed == pytest.approx(exact, abs=1e-9)


def _exact_stderr(term_estimates, exact_means) -> float:
    """Standard error of the recombined estimate under the exact term means."""
    variance = sum(
        term.coefficient**2 * (1.0 - mean**2) / term.shots
        for term, mean in zip(term_estimates, exact_means)
        if term.shots > 0
    )
    return float(np.sqrt(variance))


def _check_unbiased(value, standard_error, term_estimates, exact, exact_means, mode):
    """|estimate − exact| within 5σ (plus round-off when every term is deterministic).

    Static mode checks the reported standard error.  Adaptive mode checks
    the standard error implied by the exact term means and the shots it
    spent: its reported error bar can collapse to zero early (see
    ``test_adaptive_stderr_collapses_on_a_unanimous_probe_round``).
    """
    if mode == "adaptive":
        standard_error = _exact_stderr(term_estimates, exact_means)
    assert abs(value - exact) <= 5 * standard_error + 1e-9


class TestEstimatesAreUnbiasedAtEveryOverlap:
    """NME cuts at a random overlap f: exact reconstruction and 5σ agreement.

    Both round sources of the term executor run in both modes: the backend
    source through the pipeline's 2-cut chain, the binomial source through
    the single-cut sampling model of the same chain.
    """

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        overlap=overlaps,
        theta_a=angles,
        theta_b=angles,
        theta_c=angles,
        mode=st.sampled_from(["static", "adaptive"]),
    )
    def test_backend_source_two_cut_chain(self, overlap, theta_a, theta_b, theta_c, mode):
        circuit = _chain_circuit(theta_a, theta_b, theta_c)
        exact = exact_expectation(circuit, PauliString("ZZZ").to_matrix())
        pipeline = CutPipeline(entanglement_overlap=overlap, backend="vectorized")
        decomposition = pipeline.decompose(pipeline.plan(circuit, positions=(2, 4)))
        assert decomposition.plan_result.num_cuts == 2
        assert pipeline.exact_reconstruction(decomposition, "ZZZ") == pytest.approx(exact, abs=1e-9)
        execution = pipeline.execute(
            decomposition, "ZZZ", 40_000, seed=3, mode=mode, target_error=0.03
        )
        measured, selected = _measured_batch(decomposition.term_circuits, PauliString("ZZZ"))
        exact_means = [
            2.0 * _probability_plus(distribution, bits) - 1.0
            for distribution, bits in zip(pipeline.backend.exact_distributions(measured), selected)
        ]
        result = pipeline.reconstruct(execution, compute_exact=False)
        _check_unbiased(
            result.value, result.standard_error, execution.term_estimates, exact, exact_means, mode
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        overlap=overlaps,
        theta_a=angles,
        theta_b=angles,
        theta_c=angles,
        mode=st.sampled_from(["static", "adaptive"]),
    )
    def test_binomial_source_single_cut_chain(self, overlap, theta_a, theta_b, theta_c, mode):
        circuit = _chain_circuit(theta_a, theta_b, theta_c)
        model = build_sampling_model(
            circuit, CutLocation(1, 2), NMEWireCut.from_overlap(overlap), "ZZZ"
        )
        assert model.exact_cut_value() == pytest.approx(model.exact_value, abs=1e-9)
        if mode == "static":
            result = model.estimate(40_000, seed=3)
        else:
            result = model.estimate_adaptive(40_000, 0.03, seed=3)
        exact_means = [term.exact_mean for term in model.terms]
        _check_unbiased(
            result.value, result.standard_error, result.term_estimates, model.exact_value, exact_means, mode
        )

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "known defect: the adaptive engine's plug-in variance is 0 for a term "
            "whose probe-round outcomes all agree, so it reports stderr 0 and stops "
            "after one round; fixing it changes seeded adaptive outputs"
        ),
    )
    def test_adaptive_stderr_collapses_on_a_unanimous_probe_round(self):
        circuit = _chain_circuit(0.0, 0.0, 3.0)
        model = build_sampling_model(circuit, CutLocation(1, 2), NMEWireCut.from_overlap(1.0), "ZZZ")
        result = model.estimate_adaptive(40_000, 0.03, seed=3)
        assert abs(result.value - model.exact_value) <= 5 * result.standard_error


@pytest.mark.integration
class TestFiniteShotUnbiasedness:
    """Finite-shot estimates average to the exact value within statistics."""

    def test_two_cut_ghz_mean_matches_exact(self):
        circuit = ghz_circuit(4)
        shots = 2000
        num_repeats = 200
        pipeline = CutPipeline(max_fragment_width=2, backend="vectorized")
        decomposition = pipeline.decompose(pipeline.plan(circuit))
        assert decomposition.plan_result.num_cuts == 2

        values = []
        errors = []
        for seed in range(num_repeats):
            execution = pipeline.execute(decomposition, "ZZZZ", shots, seed=seed)
            result = pipeline.reconstruct(execution, compute_exact=False)
            values.append(result.value)
            errors.append(result.standard_error)
        mean = float(np.mean(values))
        # Standard error of the mean, from the per-estimate spread.
        sem = float(np.std(values, ddof=1) / np.sqrt(num_repeats))
        assert mean == pytest.approx(1.0, abs=max(5 * sem, 1e-3)), (
            f"2-cut estimate looks biased: mean {mean:.4f}, sem {sem:.4f}"
        )
        # The propagated per-estimate error bar should match the empirical
        # spread to within a factor ~2 (it uses the Bernoulli bound).
        empirical = float(np.std(values, ddof=1))
        predicted = float(np.mean(errors))
        assert 0.3 * empirical < predicted < 3.0 * empirical
