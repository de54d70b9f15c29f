"""The term executor against the estimation loops it replaced, bit for bit.

``utils.reference_executor`` keeps the eight allocate → sample → combine loops
the cut estimators used to run.  These properties drive
:func:`repro.cutting.executor.execute_terms` — and the estimators built on it
— through both round sources and both modes, and require every term
estimate, every per-term shot count, every round record and every
``on_round`` call to equal the reference's exactly, including a resume from
persisted rounds.  Covered: static and adaptive mode; proportional,
multinomial and uniform allocation; serial, vectorized and process-pool
backends; Harada, NME and teleportation protocols.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.backends import ProcessPoolBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.cutting import (
    BackendRoundExecutor,
    BinomialRoundSource,
    HaradaWireCut,
    NMEWireCut,
    TeleportationWireCut,
    build_instance_table,
    build_multi_cut_circuits,
    build_sampling_model,
    estimate_cut_expectation,
    execute_terms,
    plan_from_positions,
    sampling_models_from_instances,
)
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import _measured_batch
from repro.exceptions import CuttingError
from repro.pipeline import CutPipeline
from repro.qpd.adaptive import AdaptiveConfig
from repro.quantum.paulis import PauliString
from utils.reference_executor import (
    reference_estimate_cut_expectation,
    reference_execute_instances,
    reference_execute_instances_adaptive,
    reference_execute_term_circuits,
    reference_execute_term_circuits_adaptive,
    reference_sampling_estimate,
    reference_sampling_estimate_adaptive,
)

SETTINGS = settings(max_examples=30, deadline=None)

PROTOCOLS = {
    "harada": HaradaWireCut,
    "nme": lambda: NMEWireCut.from_overlap(0.8),
    "teleportation": TeleportationWireCut,
}
ALLOCATIONS = ("proportional", "multinomial", "uniform")

protocol_names = st.sampled_from(sorted(PROTOCOLS))
allocations = st.sampled_from(ALLOCATIONS)
in_process_backends = st.sampled_from(["serial", "vectorized"])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
budgets = st.integers(min_value=0, max_value=3000)
angles = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
targets = st.sampled_from([0.02, 0.05, 0.1])
round_limits = st.integers(min_value=1, max_value=5)
planners = st.sampled_from([None, "proportional"])


def _chain(theta: float) -> QuantumCircuit:
    """A 3-qubit chain with one crossing wire per interior slice."""
    circuit = QuantumCircuit(3, name="chain")
    circuit.ry(theta, 0)
    circuit.cx(0, 1)
    circuit.ry(0.5 * theta + 0.3, 1)
    circuit.cx(1, 2)
    circuit.rx(0.7, 2)
    return circuit


def _terms_key(term_estimates) -> list:
    """Every field of every term estimate, floats as exact hex strings."""

    def exact(value):
        return None if value is None else float(value).hex()

    return [
        (exact(t.coefficient), exact(t.mean), int(t.shots), t.label, exact(t.variance), exact(t.m2))
        for t in term_estimates
    ]


def _rounds_key(rounds) -> list:
    return [
        (
            int(record.index),
            tuple(int(count) for count in record.shots_per_term),
            tuple(float(mean).hex() for mean in record.means),
        )
        for record in rounds
    ]


def _calls_key(calls) -> list:
    return [(_rounds_key([record]), sorted(progress.items())) for record, progress in calls]


def _backend_source(backend, term_circuits, pauli):
    return BackendRoundExecutor(resolve_backend(backend), *_measured_batch(term_circuits, pauli))


def _run_multi_cut(protocol, allocation, backend, seed, shots, mode, config, completed=()):
    """New executor and reference loop on the same multi-cut term set."""
    circuit = _chain(0.9)
    term_circuits = build_multi_cut_circuits(
        circuit, [CutLocation(0, 2), CutLocation(1, 4)], [protocol, protocol]
    )
    pauli = PauliString("ZZX")
    new_calls, reference_calls = [], []
    new = execute_terms(
        _backend_source(backend, term_circuits, pauli),
        [term.coefficient for term in term_circuits],
        [term.label for term in term_circuits],
        shots,
        seed=seed,
        mode=mode,
        allocation=allocation,
        target_error=None if config is None else config.target_error,
        rounds=5 if config is None else config.max_rounds,
        planner=None if config is None else config.planner,
        completed_rounds=completed,
        on_round=lambda record, progress: new_calls.append((record, progress)),
    )
    if mode == "static":
        reference = reference_execute_term_circuits(
            term_circuits, pauli, shots, allocation=allocation, seed=seed, backend=backend
        )
        return new, reference + (None,), new_calls, reference_calls
    reference = reference_execute_term_circuits_adaptive(
        term_circuits,
        pauli,
        config,
        seed=seed,
        backend=backend,
        completed_rounds=completed,
        on_round=lambda record, progress: reference_calls.append((record, progress)),
    )
    return new, reference, new_calls, reference_calls


def _assert_same(new, reference):
    new_terms, new_shots, new_adaptive = new
    reference_terms, reference_shots, reference_adaptive = reference
    assert _terms_key(new_terms) == _terms_key(reference_terms)
    assert list(new_shots) == [int(count) for count in reference_shots]
    if reference_adaptive is None:
        assert new_adaptive is None
        return
    assert _rounds_key(new_adaptive.rounds) == _rounds_key(reference_adaptive.rounds)
    assert new_adaptive.converged == reference_adaptive.converged
    assert _terms_key(new_adaptive.estimate.term_estimates) == _terms_key(
        reference_adaptive.estimate.term_estimates
    )


class TestBackendSourceMatchesReference:
    @SETTINGS
    @given(name=protocol_names, allocation=allocations, backend=in_process_backends, seed=seeds, shots=budgets)
    def test_static_multi_cut(self, name, allocation, backend, seed, shots):
        new, reference, _, _ = _run_multi_cut(
            PROTOCOLS[name](), allocation, backend, seed, shots, "static", None
        )
        _assert_same(new, reference)

    @SETTINGS
    @given(
        name=protocol_names,
        backend=in_process_backends,
        seed=seeds,
        shots=st.integers(min_value=1, max_value=4000),
        target=targets,
        rounds=round_limits,
        planner=planners,
    )
    def test_adaptive_multi_cut_with_round_hook_and_resume(
        self, name, backend, seed, shots, target, rounds, planner
    ):
        protocol = PROTOCOLS[name]()
        config = AdaptiveConfig(target_error=target, max_shots=shots, max_rounds=rounds, planner=planner)
        new, reference, new_calls, reference_calls = _run_multi_cut(
            protocol, "proportional", backend, seed, shots, "adaptive", config
        )
        _assert_same(new, reference)
        assert _calls_key(new_calls) == _calls_key(reference_calls)
        # Resume from every prefix of the persisted rounds.
        full_rounds = new[2].rounds
        for cut in range(len(full_rounds) + 1):
            resumed, reference_resumed, resumed_calls, reference_resumed_calls = _run_multi_cut(
                protocol, "proportional", backend, seed, shots, "adaptive", config, full_rounds[:cut]
            )
            _assert_same(resumed, reference_resumed)
            assert _calls_key(resumed_calls) == _calls_key(reference_resumed_calls)
            assert _rounds_key(resumed[2].rounds) == _rounds_key(full_rounds)

    @settings(max_examples=3, deadline=None)
    @given(name=protocol_names, allocation=allocations, seed=seeds, mode=st.sampled_from(["static", "adaptive"]))
    def test_process_pool_backend(self, name, allocation, seed, mode):
        backend = ProcessPoolBackend(max_workers=2, chunk_size=4)
        config = AdaptiveConfig(target_error=0.05, max_shots=1500, max_rounds=2)
        new, reference, new_calls, reference_calls = _run_multi_cut(
            PROTOCOLS[name](), allocation, backend, seed, 1500, mode, config
        )
        _assert_same(new, reference)
        assert _calls_key(new_calls) == _calls_key(reference_calls)

    @SETTINGS
    @given(
        name=protocol_names,
        allocation=allocations,
        backend=in_process_backends,
        seed=seeds,
        shots=budgets,
        theta=angles,
        observable=st.sampled_from(["Z", "ZI", "XZ", "YY", "II"]),
    )
    def test_single_cut_estimate(self, name, allocation, backend, seed, shots, theta, observable):
        circuit = QuantumCircuit(2, name="pair")
        circuit.ry(theta, 0)
        circuit.cx(0, 1)
        arguments = (circuit, CutLocation(0, 2), PROTOCOLS[name](), observable, shots)
        options = dict(allocation=allocation, seed=seed, backend=backend)
        assert estimate_cut_expectation(*arguments, **options) == (
            reference_estimate_cut_expectation(*arguments, **options)
        )
        adaptive = dict(options, mode="adaptive", target_error=0.05, rounds=3)
        if shots > 0:
            assert estimate_cut_expectation(*arguments, **adaptive) == (
                reference_estimate_cut_expectation(*arguments, **adaptive)
            )


class TestBinomialSourceMatchesReference:
    @SETTINGS
    @given(name=protocol_names, allocation=allocations, seed=seeds, shots=budgets, theta=angles)
    def test_sampling_model_static(self, name, allocation, seed, shots, theta):
        circuit = QuantumCircuit(1, name="state")
        circuit.ry(theta, 0)
        model = build_sampling_model(circuit, CutLocation(0, 1), PROTOCOLS[name](), "Z")
        assert model.estimate(shots, allocation=allocation, seed=seed) == (
            reference_sampling_estimate(model, shots, allocation=allocation, seed=seed)
        )

    @SETTINGS
    @given(
        name=protocol_names,
        seed=seeds,
        shots=st.integers(min_value=1, max_value=50_000),
        theta=angles,
        target=targets,
        rounds=round_limits,
        planner=planners,
    )
    def test_sampling_model_adaptive(self, name, seed, shots, theta, target, rounds, planner):
        circuit = QuantumCircuit(1, name="state")
        circuit.ry(theta, 0)
        model = build_sampling_model(circuit, CutLocation(0, 1), PROTOCOLS[name](), "Z")
        config = AdaptiveConfig(target_error=target, max_shots=shots, max_rounds=rounds, planner=planner)
        assert model.estimate_adaptive(
            shots, target, rounds=rounds, planner=planner, seed=seed
        ) == reference_sampling_estimate_adaptive(model, config, seed=seed)

    @SETTINGS
    @given(
        allocation=allocations,
        backend=in_process_backends,
        seed=seeds,
        shots=budgets,
        theta=angles,
        mode=st.sampled_from(["static", "adaptive"]),
    )
    def test_instance_table(self, allocation, backend, seed, shots, theta, mode):
        circuit = _chain(theta)
        plan = plan_from_positions(circuit, (2, 4))
        table = build_instance_table(circuit, plan, [HaradaWireCut()] * 2, "ZZX")
        terms = sampling_models_from_instances(table, backend)
        config = AdaptiveConfig(target_error=0.05, max_shots=max(shots, 1), max_rounds=4)

        def run(completed=()):
            new_calls, reference_calls = [], []
            new = execute_terms(
                BinomialRoundSource([term.probability_plus for term in terms]),
                [term.coefficient for term in terms],
                [term.label for term in terms],
                config.max_shots if mode == "adaptive" else shots,
                seed=seed,
                mode=mode,
                allocation=allocation,
                target_error=config.target_error,
                rounds=config.max_rounds,
                completed_rounds=completed,
                on_round=lambda record, progress: new_calls.append((record, progress)),
            )
            if mode == "static":
                reference = reference_execute_instances(
                    table, shots, allocation=allocation, seed=seed, backend=backend
                )
                _assert_same(new, reference[:2] + (None,))
                return new
            reference = reference_execute_instances_adaptive(
                table,
                config,
                seed=seed,
                backend=backend,
                completed_rounds=completed,
                on_round=lambda record, progress: reference_calls.append((record, progress)),
            )
            _assert_same(new, reference[:3])
            assert _calls_key(new_calls) == _calls_key(reference_calls)
            return new

        full = run()
        if mode == "adaptive":
            # Resume from every prefix of the persisted rounds.
            for cut in range(len(full[2].rounds) + 1):
                resumed = run(full[2].rounds[:cut])
                assert _rounds_key(resumed[2].rounds) == _rounds_key(full[2].rounds)


class TestPipelineMatchesReference:
    @settings(max_examples=8, deadline=None)
    @given(
        dedup=st.booleans(),
        allocation=allocations,
        seed=seeds,
        shots=st.integers(min_value=1, max_value=3000),
        mode=st.sampled_from(["static", "adaptive"]),
    )
    def test_execute_stage(self, dedup, allocation, seed, shots, mode):
        circuit = _chain(1.1)
        pipeline = CutPipeline(backend="vectorized", allocation=allocation, dedup=dedup)
        decomposition = pipeline.decompose(pipeline.plan(circuit, positions=(2, 4)))
        config = AdaptiveConfig(target_error=0.05, max_shots=shots, max_rounds=4)
        execution = pipeline.execute(
            decomposition, "ZZX", shots, seed=seed, mode=mode, target_error=0.05, rounds=4
        )
        pauli = PauliString("ZZX")
        if dedup:
            table = build_instance_table(circuit, decomposition.plan_result.plan, decomposition.protocols, pauli)
            if mode == "static":
                reference = reference_execute_instances(
                    table, shots, allocation=allocation, seed=seed, backend=pipeline.backend
                )
            else:
                reference = reference_execute_instances_adaptive(
                    table, config, seed=seed, backend=pipeline.backend
                )
            # The reference re-evaluates a fresh table, so only the backend's
            # distribution-cache counters may differ.
            dedup_counts = ("num_terms", "num_fragments", "num_cuts", "num_instances", "num_references")
            for name in dedup_counts:
                assert getattr(execution.instance_stats, name) == getattr(reference[-1], name)
        elif mode == "static":
            reference = reference_execute_term_circuits(
                decomposition.term_circuits, pauli, shots, allocation=allocation, seed=seed,
                backend=pipeline.backend,
            )
        else:
            reference = reference_execute_term_circuits_adaptive(
                decomposition.term_circuits, pauli, config, seed=seed, backend=pipeline.backend
            )
        assert _terms_key(execution.term_estimates) == _terms_key(reference[0])
        assert list(execution.shots_per_term) == [int(count) for count in reference[1]]
        if mode == "adaptive":
            assert _rounds_key(execution.rounds) == _rounds_key(reference[2].rounds)
            assert execution.converged == reference[2].converged


def test_zero_shot_terms_draw_nothing():
    # The guard every loop carried: a zero-shot term reports mean 0.0 and
    # leaves the generator untouched for the terms after it.
    means = BinomialRoundSource([0.3, 0.9])(0, [0, 5], np.random.default_rng(11))
    assert means[0] == 0.0
    assert means[1] == 2.0 * np.random.default_rng(11).binomial(5, 0.9) / 5 - 1.0


@pytest.mark.parametrize("mode", ["static", "adaptive"])
def test_executor_rejects_bad_configuration(mode):
    source = BinomialRoundSource([0.5])
    with pytest.raises(CuttingError, match="unknown execution"):
        execute_terms(source, [1.0], ["t"], 10, mode=mode, target_error=0.1, execution="sideways")
