"""The cut estimators' allocate → sample → combine loops, kept as the oracle of the term executor.

Before :func:`repro.cutting.executor.execute_terms` existed, every estimator
ran its own copy of the estimation loop: the static and adaptive multi-cut
executors, the static and adaptive instance-table executors,
:meth:`CutSamplingModel.estimate` / ``estimate_adaptive`` and the single-cut
:func:`estimate_cut_expectation`.  This module keeps those loops verbatim as
the reference ``tests/property/test_property_term_executor.py`` checks the
one executor against, bit for bit.

The changes from the original code: every function carries a ``reference_``
prefix; the two ``CutSamplingModel`` methods are module functions taking the
model as their first argument (``self`` renamed ``sampling_model``, and
``TermSamplingModel.sample_mean`` inlined as :func:`_reference_sample_mean`);
the one-line ``_backend_round_executor`` wrapper is replaced by the
:class:`BackendRoundExecutor` constructor it returned;
``CutExpectationResult.from_adaptive`` is kept as
:func:`_reference_from_adaptive`; the single-cut
loop measures its term circuits with
:func:`utils.reference_cut_builder.reference_measured_term_circuit`; and the
``method`` parameter is gone, together with the per-shot trajectory sampler
it selected (now :mod:`utils.trajectory_reference`).

Import it as ``from utils.reference_executor import ...`` inside ``tests/``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuits.backends import SimulatorBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import _BASIS_CHANGE, exact_expectation
from repro.cutting.base import WireCutProtocol
from repro.cutting.cutter import CutLocation, build_cut_circuits
from repro.cutting.executor import (
    ESTIMATION_MODES,
    BackendRoundExecutor,
    CutExpectationResult,
    CutSamplingModel,
    TermSamplingModel,
    _as_pauli,
)
from repro.cutting.instances import InstanceStats, InstanceTable
from repro.cutting.multi_wire import MultiCutTermCircuit
from repro.exceptions import CuttingError
from repro.qpd.adaptive import (
    DEFAULT_MAX_ROUNDS,
    AdaptiveConfig,
    AdaptiveResult,
    RoundRecord,
    run_adaptive_rounds,
)
from repro.qpd.allocation import allocate_shots
from repro.qpd.estimator import QPDEstimate, TermEstimate, combine_term_estimates
from repro.quantum.paulis import PauliString
from repro.utils.rng import SeedLike, as_generator

from utils.reference_cut_builder import reference_measured_term_circuit

__all__ = [
    "reference_estimate_cut_expectation",
    "reference_execute_instances",
    "reference_execute_instances_adaptive",
    "reference_execute_term_circuits",
    "reference_execute_term_circuits_adaptive",
    "reference_measured_multi_cut_circuit",
    "reference_sampling_estimate",
    "reference_sampling_estimate_adaptive",
]


def reference_estimate_cut_expectation(
    circuit: QuantumCircuit,
    location: CutLocation,
    protocol: WireCutProtocol,
    observable: str | PauliString = "Z",
    shots: int = 1000,
    allocation: str = "proportional",
    seed: SeedLike = None,
    compute_exact: bool = True,
    backend: SimulatorBackend | str | None = None,
    mode: str = "static",
    target_error: float | None = None,
    rounds: int = DEFAULT_MAX_ROUNDS,
    planner: str | None = None,
    execution: str = "inprocess",
    workers: int | None = None,
) -> CutExpectationResult:
    """Estimate ``⟨O⟩`` of ``circuit`` with the wire at ``location`` cut by ``protocol``.

    Parameters
    ----------
    circuit:
        The original (uncut) circuit; it is not modified.
    location:
        Where to cut (qubit and instruction position).
    protocol:
        The wire-cut protocol providing the QPD.
    observable:
        Pauli observable over the circuit's logical qubits (a single letter
        refers to qubit 0).
    shots:
        Total shot budget across all term circuits.  In adaptive mode this
        is the hard ``max_shots`` ceiling; fewer shots are spent when the
        target error is reached early.
    allocation:
        Shot-allocation strategy (``proportional``, ``multinomial``, ``uniform``).
    seed:
        Seed or generator for all sampling.  Static mode consumes it
        exactly as before this parameterisation (bitwise-identical
        results); adaptive mode derives one child stream per round.
    compute_exact:
        Also compute the exact uncut value for error reporting.
    backend:
        Execution backend (name or instance); ``None`` selects the serial
        backend.  All backends yield identical results for the same seed.
    mode:
        ``"static"`` (one up-front allocation, the default) or
        ``"adaptive"`` (round-structured execution with early stopping).
    target_error:
        Adaptive mode's stopping threshold on the pooled standard error
        (required when ``mode="adaptive"``).
    rounds:
        Adaptive mode's round limit.
    planner:
        Adaptive mode's per-round :class:`~repro.qpd.allocation.ShotPlanner`
        name (``"neyman"`` by default).
    execution:
        Adaptive mode's round execution: ``"inprocess"`` (default) or
        ``"distributed"`` (rounds fan out over the multi-process
        work-stealing pool of :mod:`repro.distributed`; bitwise identical
        to in-process for the same seed).
    workers:
        Distributed execution's worker-process count.
    """
    if mode not in ESTIMATION_MODES:
        raise CuttingError(f"unknown mode {mode!r}; expected one of {ESTIMATION_MODES}")
    if execution != "inprocess" and mode != "adaptive":
        raise CuttingError("distributed execution requires mode='adaptive'")
    pauli = _as_pauli(observable, circuit.num_qubits)
    decomposition = protocol.decomposition()
    term_circuits = build_cut_circuits(circuit, location, protocol)
    exec_backend = resolve_backend(backend)
    measured_circuits: list[QuantumCircuit] = []
    selected_clbits: list[list[int]] = []
    for term_circuit in term_circuits:
        measured, observable_clbits = reference_measured_term_circuit(term_circuit, pauli)
        measured_circuits.append(measured)
        selected_clbits.append(list(observable_clbits) + list(term_circuit.sign_clbits))
    exact_value = (
        exact_expectation(circuit, pauli.to_matrix()) if compute_exact else None
    )

    if mode == "adaptive":
        if target_error is None:
            raise CuttingError("adaptive mode requires target_error")
        config = AdaptiveConfig(
            target_error=target_error, max_shots=int(shots), max_rounds=rounds, planner=planner
        )
        adaptive = run_adaptive_rounds(
            [term.coefficient for term in term_circuits],
            BackendRoundExecutor(exec_backend, measured_circuits, selected_clbits),
            config,
            seed=seed,
            labels=[term.term.label for term in term_circuits],
            execution=execution,
            workers=workers,
        )
        return _reference_from_adaptive(adaptive, protocol.name, exact_value)

    rng = as_generator(seed)
    shots_per_term = allocate_shots(decomposition.probabilities, shots, strategy=allocation, seed=rng)
    counts_per_term = exec_backend.run_batch(
        measured_circuits, [int(s) for s in shots_per_term], seed=rng
    )
    term_estimates: list[TermEstimate] = []
    for term_circuit, term_shots, counts, selected in zip(
        term_circuits, shots_per_term, counts_per_term, selected_clbits
    ):
        if term_shots == 0:
            mean = 0.0
        elif selected:
            mean = counts.expectation_z(selected)
        else:
            mean = 1.0
        term_estimates.append(
            TermEstimate(
                coefficient=term_circuit.coefficient,
                mean=mean,
                shots=int(term_shots),
                label=term_circuit.term.label,
            )
        )

    estimate: QPDEstimate = combine_term_estimates(term_estimates)
    return CutExpectationResult(
        value=estimate.value,
        standard_error=estimate.standard_error,
        total_shots=estimate.total_shots,
        kappa=estimate.kappa,
        shots_per_term=tuple(int(s) for s in shots_per_term),
        term_estimates=estimate.term_estimates,
        protocol_name=protocol.name,
        exact_value=exact_value,
    )



def reference_measured_multi_cut_circuit(
    term_circuit: MultiCutTermCircuit, pauli: PauliString
) -> tuple[QuantumCircuit, list[int]]:
    """Append observable basis changes and measurements to a multi-cut term circuit.

    Parameters
    ----------
    term_circuit:
        The term circuit to measure.
    pauli:
        Pauli observable over the original circuit's logical qubits.

    Returns
    -------
    tuple[QuantumCircuit, list[int]]
        The measured circuit and the classical bits whose parity (together
        with the term's sign bits) gives the signed observable outcome.
    """
    base = term_circuit.circuit
    active = [
        (term_circuit.qubit_map[q], p) for q, p in enumerate(pauli.labels) if p != "I"
    ]
    measured = QuantumCircuit(
        base.num_qubits, base.num_clbits + len(active), name=f"{base.name}_meas"
    )
    measured.compose(base, inplace=True)
    observable_clbits = []
    for offset, (qubit, label) in enumerate(active):
        for gate_name, params in _BASIS_CHANGE[label]:
            measured.gate(gate_name, qubit, params)
        clbit = base.num_clbits + offset
        measured.measure(qubit, clbit)
        observable_clbits.append(clbit)
    return measured, observable_clbits + list(term_circuit.sign_clbits)


def reference_execute_term_circuits(
    term_circuits: Sequence[MultiCutTermCircuit],
    pauli: PauliString,
    shots: int,
    allocation: str = "proportional",
    seed: SeedLike = None,
    backend: SimulatorBackend | str | None = None,
) -> tuple[list[TermEstimate], list[int]]:
    """Allocate, measure, batch-run and summarise a product term set.

    This is the shared execute step of :func:`estimate_multi_cut_expectation`
    and :meth:`repro.pipeline.CutPipeline.execute`: the shot budget is split
    across the terms by ``allocation`` (proportional to coefficient
    magnitudes by default), every term circuit is measured in the
    observable's basis, and the batch runs through ``backend`` with one seed
    stream per circuit.

    Parameters
    ----------
    term_circuits:
        The product term set from :func:`build_multi_cut_circuits`.
    pauli:
        Normalised Pauli observable over the original logical qubits.
    shots:
        Total shot budget across all term circuits.
    allocation:
        Shot-allocation strategy.
    seed:
        Seed or generator for allocation and sampling.
    backend:
        Execution backend (name or instance); ``None`` selects serial.

    Returns
    -------
    tuple[list[TermEstimate], list[int]]
        Per-term empirical summaries and the shots assigned to each term.
    """
    rng = as_generator(seed)
    coefficients = np.array([t.coefficient for t in term_circuits])
    magnitudes = np.abs(coefficients)
    probabilities = magnitudes / magnitudes.sum()
    shots_per_term = allocate_shots(probabilities, shots, strategy=allocation, seed=rng)

    exec_backend = resolve_backend(backend)
    measured_circuits: list[QuantumCircuit] = []
    selected_clbits: list[list[int]] = []
    for term_circuit in term_circuits:
        measured, selected = reference_measured_multi_cut_circuit(term_circuit, pauli)
        measured_circuits.append(measured)
        selected_clbits.append(selected)

    # A term with no measured bits at all (e.g. the identity term of a
    # zero-cut plan under an all-identity observable) has a deterministic
    # +1 outcome: spend no simulator shots on it.  Submitting zeros keeps
    # the per-circuit seed streams aligned, so cross-backend identity holds.
    submitted_shots = [
        int(count) if selected else 0
        for count, selected in zip(shots_per_term, selected_clbits)
    ]
    counts_per_term = exec_backend.run_batch(measured_circuits, submitted_shots, seed=rng)
    term_estimates = []
    for term_circuit, term_shots, counts, selected in zip(
        term_circuits, shots_per_term, counts_per_term, selected_clbits
    ):
        if term_shots == 0:
            mean = 0.0
        elif selected:
            mean = counts.expectation_z(selected)
        else:
            mean = 1.0
        term_estimates.append(
            TermEstimate(
                coefficient=term_circuit.coefficient,
                mean=mean,
                shots=int(term_shots),
                label=term_circuit.label,
            )
        )
    return term_estimates, [int(s) for s in shots_per_term]


def reference_execute_term_circuits_adaptive(
    term_circuits: Sequence[MultiCutTermCircuit],
    pauli: PauliString,
    config: AdaptiveConfig,
    seed: SeedLike = None,
    backend: SimulatorBackend | str | None = None,
    completed_rounds: Sequence[RoundRecord] = (),
    on_round=None,
    execution: str = "inprocess",
    workers: int | None = None,
) -> tuple[list[TermEstimate], list[int], AdaptiveResult]:
    """Round-structured execution of a product term set with early stopping.

    The adaptive counterpart of :func:`execute_term_circuits`: the measured
    term circuits are built once, then the streaming engine of
    :mod:`repro.qpd.adaptive` plans each round's allocation from the terms'
    running statistics, submits the whole batch to ``backend`` with the
    round's shot counts (zero-shot entries keep the per-circuit seed
    streams aligned), merges the per-round means, and stops when the
    pooled standard error reaches ``config.target_error`` or the budget is
    exhausted.

    Parameters
    ----------
    term_circuits:
        The product term set from :func:`build_multi_cut_circuits`.
    pauli:
        Normalised Pauli observable over the original logical qubits.
    config:
        The adaptive-engine configuration (target error, budget, rounds,
        planner).
    seed:
        Master seed; round ``r`` always executes from the ``r``-th spawned
        child sequence.
    backend:
        Execution backend (name or instance); ``None`` selects serial.
    completed_rounds:
        Rounds persisted by an interrupted run; replayed into the running
        statistics without re-execution (crash resume is bitwise
        identical).
    on_round:
        Optional progress hook forwarded to the engine (called after every
        live round with the record and a progress summary).
    execution:
        ``"inprocess"`` (default) or ``"distributed"``: fan each round out
        over the multi-process work-stealing pool of
        :mod:`repro.distributed`.  Bitwise identical to in-process for the
        same seed, whatever the worker count or steal order.
    workers:
        Distributed execution's worker-process count.

    Returns
    -------
    tuple[list[TermEstimate], list[int], AdaptiveResult]
        Per-term summaries with running statistics, total shots per term,
        and the engine result (round records + convergence).
    """
    exec_backend = resolve_backend(backend)
    measured_circuits: list[QuantumCircuit] = []
    selected_clbits: list[list[int]] = []
    for term_circuit in term_circuits:
        measured, selected = reference_measured_multi_cut_circuit(term_circuit, pauli)
        measured_circuits.append(measured)
        selected_clbits.append(selected)

    adaptive = run_adaptive_rounds(
        [term.coefficient for term in term_circuits],
        BackendRoundExecutor(exec_backend, measured_circuits, selected_clbits),
        config,
        seed=seed,
        labels=[term.label for term in term_circuits],
        completed_rounds=completed_rounds,
        on_round=on_round,
        execution=execution,
        workers=workers,
    )
    term_estimates = list(adaptive.estimate.term_estimates)
    shots_per_term = [int(estimate.shots) for estimate in term_estimates]
    return term_estimates, shots_per_term, adaptive


def reference_execute_instances(
    table: InstanceTable,
    shots: int,
    allocation: str = "proportional",
    seed: SeedLike = None,
    backend: SimulatorBackend | str | None = None,
) -> tuple[list[TermEstimate], list[int], InstanceStats]:
    """Static execution of a product term set through the shared instance table.

    The dedup counterpart of
    :func:`repro.cutting.multi_wire.execute_term_circuits`: unique instances
    are evaluated once through ``backend``, each term's exact ``p₊`` is
    chained from the shared tensors, and the term's empirical mean is drawn
    as a binomial over ``p₊`` — statistically identical to simulating the
    monolithic term circuit (every shot is an i.i.d. draw from the same
    exact distribution) and bitwise identical across backends.

    Parameters
    ----------
    table:
        The instance table of the plan.
    shots:
        Total shot budget across all product terms.
    allocation:
        Shot-allocation strategy over the product term set.
    seed:
        Seed or generator for allocation and sampling.
    backend:
        Execution backend (name or instance); ``None`` selects serial.

    Returns
    -------
    tuple[list[TermEstimate], list[int], InstanceStats]
        Per-term empirical summaries, the shots assigned to each term, and
        the dedup accounting.
    """
    stats = table.evaluate(backend)
    rng = as_generator(seed)
    assignments = table.term_assignments()
    coefficients = np.array([table.term_coefficient(a) for a in assignments])
    magnitudes = np.abs(coefficients)
    probabilities = magnitudes / magnitudes.sum()
    shots_per_term = allocate_shots(probabilities, shots, strategy=allocation, seed=rng)
    term_estimates = []
    for assignment, coefficient, term_shots in zip(assignments, coefficients, shots_per_term):
        count = int(term_shots)
        if count <= 0:
            mean = 0.0
        else:
            probability_plus = table.term_probability_plus(assignment)
            successes = rng.binomial(count, probability_plus)
            mean = 2.0 * successes / count - 1.0
        term_estimates.append(
            TermEstimate(
                coefficient=float(coefficient),
                mean=mean,
                shots=count,
                label=table.term_label(assignment),
            )
        )
    return term_estimates, [int(count) for count in shots_per_term], stats


def reference_execute_instances_adaptive(
    table: InstanceTable,
    config: AdaptiveConfig,
    seed: SeedLike = None,
    backend: SimulatorBackend | str | None = None,
    completed_rounds: Sequence[RoundRecord] = (),
    on_round=None,
) -> tuple[list[TermEstimate], list[int], AdaptiveResult, InstanceStats]:
    """Round-structured execution of a product term set through the instance table.

    The dedup counterpart of
    :func:`repro.cutting.multi_wire.execute_term_circuits_adaptive`: the
    unique instances are evaluated once up front, and every round's
    outcomes are binomial draws from the chained exact ``p₊`` values —
    the same statistical model
    :meth:`repro.cutting.executor.CutSamplingModel.estimate_adaptive`
    uses for the single-cut sweep path.

    Parameters
    ----------
    table:
        The instance table of the plan.
    config:
        The adaptive-engine configuration (target error, budget, rounds,
        planner).
    seed:
        Master seed; round ``r`` draws from the ``r``-th spawned child
        sequence.
    backend:
        Execution backend (name or instance); ``None`` selects serial.
    completed_rounds:
        Rounds persisted by an interrupted run, replayed without
        re-execution.
    on_round:
        Optional progress hook forwarded to the engine.

    Returns
    -------
    tuple[list[TermEstimate], list[int], AdaptiveResult, InstanceStats]
        Per-term summaries, total shots per term, the engine result and
        the dedup accounting.
    """
    stats = table.evaluate(backend)
    assignments = table.term_assignments()
    coefficients = [table.term_coefficient(a) for a in assignments]
    p_plus = np.array([table.term_probability_plus(a) for a in assignments])

    def execute_round(index, round_shots, seed_sequence):
        """Draw one round's outcomes as binomials from the chained distributions."""
        rng = np.random.default_rng(seed_sequence)
        return [
            2.0 * rng.binomial(int(count), probability) / count - 1.0 if count > 0 else 0.0
            for probability, count in zip(p_plus, round_shots)
        ]

    adaptive = run_adaptive_rounds(
        coefficients,
        execute_round,
        config,
        seed=seed,
        labels=[table.term_label(a) for a in assignments],
        completed_rounds=completed_rounds,
        on_round=on_round,
    )
    term_estimates = list(adaptive.estimate.term_estimates)
    shots_per_term = [int(estimate.shots) for estimate in term_estimates]
    return term_estimates, shots_per_term, adaptive, stats


def _reference_from_adaptive(
    adaptive: AdaptiveResult,
    protocol_name: str,
    exact_value: float | None,
) -> CutExpectationResult:
    """Freeze an engine result into the shared result type."""
    estimate = adaptive.estimate
    return CutExpectationResult(
        value=estimate.value,
        standard_error=estimate.standard_error,
        total_shots=estimate.total_shots,
        kappa=estimate.kappa,
        shots_per_term=tuple(t.shots for t in estimate.term_estimates),
        term_estimates=estimate.term_estimates,
        protocol_name=protocol_name,
        exact_value=exact_value,
        mode="adaptive",
        converged=adaptive.converged,
        rounds=adaptive.rounds,
    )


def _reference_sample_mean(term: TermSamplingModel, shots: int, rng: np.random.Generator) -> float:
    """Return the empirical mean of ``shots`` i.i.d. ±1 outcomes."""
    if shots <= 0:
        return 0.0
    successes = rng.binomial(shots, term.probability_plus)
    return 2.0 * successes / shots - 1.0


def reference_sampling_estimate(
    sampling_model: CutSamplingModel,
    shots: int,
    allocation: str = "proportional",
    seed: SeedLike = None,
) -> CutExpectationResult:
    """Produce one finite-shot estimate with the given total budget."""
    rng = as_generator(seed)
    shots_per_term = allocate_shots(sampling_model.probabilities, shots, strategy=allocation, seed=rng)
    term_estimates = []
    for model, term_shots in zip(sampling_model.terms, shots_per_term):
        mean = _reference_sample_mean(model, int(term_shots), rng)
        term_estimates.append(
            TermEstimate(
                coefficient=model.coefficient,
                mean=mean,
                shots=int(term_shots),
                label=model.label,
            )
        )
    estimate = combine_term_estimates(term_estimates)
    return CutExpectationResult(
        value=estimate.value,
        standard_error=estimate.standard_error,
        total_shots=estimate.total_shots,
        kappa=estimate.kappa,
        shots_per_term=tuple(int(s) for s in shots_per_term),
        term_estimates=estimate.term_estimates,
        protocol_name=sampling_model.protocol_name,
        exact_value=sampling_model.exact_value,
    )


def reference_sampling_estimate_adaptive(
    sampling_model: CutSamplingModel,
    config: AdaptiveConfig,
    seed: SeedLike = None,
) -> CutExpectationResult:
    """Produce one adaptive estimate through the streaming round engine.

    The engine plans each round with the configured
    :class:`~repro.qpd.allocation.ShotPlanner`, draws the round's
    outcomes as binomial samples from the exact per-term distributions
    (statistically identical to re-running the simulator), merges the
    running statistics and stops as soon as the pooled standard error
    reaches ``config.target_error`` — or ``config.max_shots`` /
    ``config.max_rounds`` is exhausted.

    Parameters
    ----------
    config:
        The adaptive-engine configuration.
    seed:
        Master seed; round ``r`` draws from the ``r``-th spawned child
        stream.

    Returns
    -------
    CutExpectationResult
        The recombined estimate with ``mode="adaptive"``, the round
        records and the convergence flag attached.
    """
    p_plus = np.array([t.probability_plus for t in sampling_model.terms])

    def execute_round(index, round_shots, seed_sequence):
        """Draw one round's outcomes as binomials from the exact distributions."""
        rng = np.random.default_rng(seed_sequence)
        return [
            2.0 * rng.binomial(int(count), probability) / count - 1.0 if count > 0 else 0.0
            for probability, count in zip(p_plus, round_shots)
        ]

    adaptive: AdaptiveResult = run_adaptive_rounds(
        [t.coefficient for t in sampling_model.terms],
        execute_round,
        config,
        seed=seed,
        labels=[t.label for t in sampling_model.terms],
    )
    return _reference_from_adaptive(adaptive, sampling_model.protocol_name, sampling_model.exact_value)
