"""Executing wire cuts: sampling the QPD terms and recombining expectation values.

This module holds the estimator of Section IV of the paper (Eq. 12) and the
single-cut entry points built on it.  Multi-cut term sets (several fragments,
tensor-product term sets) come from :mod:`repro.cutting.multi_wire` and are
orchestrated by :class:`repro.pipeline.CutPipeline`; both run through the same
executor.

The procedure per estimate:

1. build one circuit per QPD term (:mod:`repro.cutting.cutter`),
2. split the total shot budget across the terms proportionally to the
   coefficient magnitudes (other allocation strategies are available for the
   ablation benchmarks),
3. draw each term's ±1 outcomes (observable parity × term-internal sign bits),
4. recombine the per-term means with the signed coefficients (Eq. 12).

:func:`execute_terms` is the one implementation of steps 2–4.  It spends the
budget either up front (``mode="static"``, the paper's procedure) or in
rounds that stop at a target standard error (``mode="adaptive"``, the engine
of :mod:`repro.qpd.adaptive`).  Where the outcomes come from is a *round
source* — a callable ``(round_index, shots_per_term, seed) → means``:

* :class:`BackendRoundExecutor` runs measured term circuits through a
  :class:`~repro.circuits.backends.SimulatorBackend` (serial, vectorized,
  process-pool or a device fleet) and can fan rounds out over the
  multi-process pool of :mod:`repro.distributed`;
* :class:`BinomialRoundSource` draws binomials over exact per-term ``p₊``
  values.  Every shot is an i.i.d. draw from the same exact distribution, so
  it is statistically identical to re-running the simulator.  It serves
  :class:`CutSamplingModel` (built once per circuit by
  :func:`build_sampling_model` / :func:`build_sampling_models`) and the
  instance-dedup path, whose ``p₊`` values come from
  :func:`sampling_models_from_instances`.

:func:`build_sampling_models` gets a sweep's ``p₊`` without one term circuit
per input where it can: with a noiseless backend and every cut after its
circuit's last instruction, each protocol's per-term Pauli transfer matrices
(measured once per protocol instance on four probe states) are applied to
every circuit's final state.  A mid-circuit cut, a noisy backend or a device
fleet keeps simulating every term circuit.

:meth:`CutSamplingModel.estimate_sweep` stays a separate, vectorised draw over
a whole shot grid: it is what lets the Figure-6 harness evaluate 1000 input
states × 6 entanglement levels × many shot budgets in seconds.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import CuttingError
from repro.circuits.backends import (
    ProcessPoolBackend,
    SerialBackend,
    SimulatorBackend,
    VectorizedBackend,
    resolve_backend,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation, final_state, measured_pauli_circuit
from repro.cutting.base import WireCutProtocol
from repro.cutting.cutter import (
    CutLocation,
    CutTermCircuit,
    _validate_location,
    build_cut_circuits,
)
from repro.qpd.adaptive import (
    DEFAULT_MAX_ROUNDS,
    EXECUTION_MODES,
    AdaptiveConfig,
    AdaptiveResult,
    RoundExecutor,
    RoundRecord,
    run_adaptive_rounds,
)
from repro.qpd.allocation import allocate_shot_grid, allocate_shots
from repro.qpd.estimator import TermEstimate, combine_term_estimates, combine_term_means
from repro.quantum.paulis import PauliString
from repro.quantum.states import Statevector
from repro.utils.rng import SeedLike, as_generator

#: Execution modes accepted by the estimation entry points.
ESTIMATION_MODES = ("static", "adaptive")

__all__ = [
    "BackendRoundExecutor",
    "BinomialRoundSource",
    "CutExpectationResult",
    "ESTIMATION_MODES",
    "estimate_cut_expectation",
    "execute_terms",
    "build_sampling_model",
    "build_sampling_models",
    "CutSamplingModel",
    "TermSamplingModel",
    "cut_expectation_value",
    "exact_cut_expectation",
    "sampling_models_from_instances",
]


@dataclass(frozen=True)
class CutExpectationResult:
    """Result of estimating an observable through a wire cut.

    Attributes
    ----------
    value:
        The recombined expectation-value estimate.
    standard_error:
        Propagated standard error.
    total_shots:
        Shots actually spent (across all term circuits).
    kappa:
        Sampling-overhead factor of the protocol used.
    shots_per_term:
        Shots assigned to each term.
    term_estimates:
        Per-term empirical summaries.
    protocol_name:
        Name of the wire-cut protocol.
    exact_value:
        The exact (uncut) expectation value, when it was computed alongside
        the estimate; ``None`` otherwise.
    mode:
        ``"static"`` (one up-front allocation) or ``"adaptive"`` (the
        round-structured engine of :mod:`repro.qpd.adaptive`).
    converged:
        Adaptive mode only: whether the pooled standard error reached the
        target before the budget ran out (``None`` in static mode).
    rounds:
        Adaptive mode only: the executed round records.
    """

    value: float
    standard_error: float
    total_shots: int
    kappa: float
    shots_per_term: tuple[int, ...]
    term_estimates: tuple[TermEstimate, ...]
    protocol_name: str
    exact_value: float | None = None
    mode: str = "static"
    converged: bool | None = None
    rounds: tuple[RoundRecord, ...] = ()

    @property
    def error(self) -> float | None:
        """Absolute deviation from the exact value (Eq. 28), when available."""
        if self.exact_value is None:
            return None
        return abs(self.value - self.exact_value)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


def _as_pauli(observable: str | PauliString, num_qubits: int) -> PauliString:
    """Normalise the observable argument to a PauliString over the logical qubits."""
    if isinstance(observable, PauliString):
        pauli = observable
    else:
        pauli = PauliString(observable)
    if pauli.num_qubits == 1 and num_qubits > 1:
        # A single-letter observable refers to qubit 0, identity elsewhere.
        pauli = PauliString(pauli.labels + "I" * (num_qubits - 1), pauli.phase)
    if pauli.num_qubits != num_qubits:
        raise CuttingError(
            f"observable acts on {pauli.num_qubits} qubits, circuit has {num_qubits}"
        )
    if pauli.phase != 1:
        raise CuttingError("observables with non-unit phase are not supported")
    return pauli


def _measured_term_circuit(
    term_circuit, pauli: PauliString
) -> tuple[QuantumCircuit, tuple[int, ...]]:
    """Append observable basis changes and measurements to a term circuit.

    ``term_circuit`` is a single-cut :class:`~repro.cutting.cutter.CutTermCircuit`,
    a :class:`~repro.cutting.multi_wire.MultiCutTermCircuit` or a
    :class:`~repro.cutting.gate_cutting.GateCutTermCircuit`; the
    observable's logical qubits are routed through its ``qubit_map``.
    Returns the measured circuit and the classical bits holding the
    observable outcomes.
    """
    targets = [
        (term_circuit.qubit_map[logical], label) for logical, label in enumerate(pauli.labels)
    ]
    measured, observable_clbits = measured_pauli_circuit(term_circuit.circuit, targets)
    return measured, tuple(observable_clbits)


def _measured_batch(
    term_circuits: Sequence, pauli: PauliString
) -> tuple[list[QuantumCircuit], list[list[int]]]:
    """Measure every term circuit of a term set in the observable's basis.

    Returns the measured circuits and, per term, the classical bits whose
    parity is the signed outcome (observable bits, then the term's sign bits).
    """
    measured_circuits: list[QuantumCircuit] = []
    selected_clbits: list[list[int]] = []
    for term_circuit in term_circuits:
        measured, observable_clbits = _measured_term_circuit(term_circuit, pauli)
        measured_circuits.append(measured)
        selected_clbits.append(list(observable_clbits) + list(term_circuit.sign_clbits))
    return measured_circuits, selected_clbits


# ---------------------------------------------------------------------------
# The term executor and its round sources
# ---------------------------------------------------------------------------


def execute_terms(
    source: RoundExecutor,
    coefficients: Sequence[float],
    labels: Sequence[str],
    shots: int,
    seed: SeedLike = None,
    mode: str = "static",
    allocation: str = "proportional",
    target_error: float | None = None,
    rounds: int = DEFAULT_MAX_ROUNDS,
    planner: str | None = None,
    completed_rounds: Sequence[RoundRecord] = (),
    on_round: Callable[[RoundRecord, dict], None] | None = None,
    execution: str = "inprocess",
    workers: int | None = None,
) -> tuple[list[TermEstimate], list[int], AdaptiveResult | None]:
    """Spend a shot budget on a QPD term set and summarise every term.

    Parameters
    ----------
    source:
        Round source ``(round_index, shots_per_term, seed) → means``: a
        :class:`BackendRoundExecutor` or a :class:`BinomialRoundSource`.
        Entries with zero shots must come back as ``0.0``.
    coefficients:
        QPD coefficient of every term.
    labels:
        Label of every term.
    shots:
        Total shot budget across all terms.  In adaptive mode this is the
        hard ceiling; fewer shots are spent when the target error is reached
        early.
    seed:
        Seed or generator for all sampling.  Static mode draws the
        allocation from it and then hands the same generator to the source
        for the one round; adaptive mode derives one child stream per round.
    mode:
        ``"static"`` (one up-front allocation) or ``"adaptive"``
        (round-structured execution with early stopping).
    allocation:
        Static mode's shot-allocation strategy (``proportional``,
        ``multinomial``, ``uniform``).
    target_error:
        Adaptive mode's stopping threshold on the pooled standard error
        (required when ``mode="adaptive"``).
    rounds:
        Adaptive mode's round limit.
    planner:
        Adaptive mode's per-round :class:`~repro.qpd.allocation.ShotPlanner`
        name (``"neyman"`` by default).
    completed_rounds:
        Adaptive rounds persisted by an interrupted run; replayed into the
        running statistics without re-execution (crash resume is bitwise
        identical).
    on_round:
        Optional adaptive progress hook, called after every live round with
        the record and a progress summary.
    execution:
        ``"inprocess"`` (default) or ``"distributed"``: adaptive rounds fan
        out over the multi-process work-stealing pool of
        :mod:`repro.distributed` (the source needs a ``distribute()`` hook).
        Bitwise identical to in-process for the same seed.
    workers:
        Distributed execution's worker-process count.

    Returns
    -------
    tuple[list[TermEstimate], list[int], AdaptiveResult | None]
        Per-term summaries, the shots spent on each term, and the engine
        result (round records + convergence) in adaptive mode, ``None`` in
        static mode.
    """
    if mode not in ESTIMATION_MODES:
        raise CuttingError(f"unknown mode {mode!r}; expected one of {ESTIMATION_MODES}")
    if execution not in EXECUTION_MODES:
        raise CuttingError(f"unknown execution {execution!r}; expected one of {EXECUTION_MODES}")
    if execution != "inprocess" and mode != "adaptive":
        raise CuttingError("distributed execution requires mode='adaptive'")
    if mode == "adaptive":
        if target_error is None:
            raise CuttingError("adaptive mode requires target_error")
        config = AdaptiveConfig(
            target_error=target_error, max_shots=int(shots), max_rounds=rounds, planner=planner
        )
        adaptive = run_adaptive_rounds(
            coefficients,
            source,
            config,
            seed=seed,
            labels=labels,
            completed_rounds=completed_rounds,
            on_round=on_round,
            execution=execution,
            workers=workers,
        )
        term_estimates = list(adaptive.estimate.term_estimates)
        return term_estimates, [int(estimate.shots) for estimate in term_estimates], adaptive

    rng = as_generator(seed)
    magnitudes = np.abs(np.asarray(coefficients, dtype=float))
    shots_per_term = allocate_shots(magnitudes / magnitudes.sum(), shots, strategy=allocation, seed=rng)
    means = source(0, shots_per_term, rng)
    term_estimates = [
        TermEstimate(coefficient=float(coefficient), mean=float(mean), shots=int(count), label=label)
        for coefficient, mean, count, label in zip(coefficients, means, shots_per_term, labels)
    ]
    return term_estimates, [int(count) for count in shots_per_term], None


def _estimate(
    source: RoundExecutor,
    coefficients: Sequence[float],
    labels: Sequence[str],
    shots: int,
    protocol_name: str,
    exact_value: float | None,
    **options,
) -> CutExpectationResult:
    """Run :func:`execute_terms` and recombine its terms into a cut result."""
    term_estimates, shots_per_term, adaptive = execute_terms(
        source, coefficients, labels, shots, **options
    )
    estimate = combine_term_estimates(term_estimates) if adaptive is None else adaptive.estimate
    return CutExpectationResult(
        value=estimate.value,
        standard_error=estimate.standard_error,
        total_shots=estimate.total_shots,
        kappa=estimate.kappa,
        shots_per_term=tuple(shots_per_term),
        term_estimates=estimate.term_estimates,
        protocol_name=protocol_name,
        exact_value=exact_value,
        mode="static" if adaptive is None else "adaptive",
        converged=None if adaptive is None else adaptive.converged,
        rounds=() if adaptive is None else adaptive.rounds,
    )


class BackendRoundExecutor:
    """The round source over a simulator backend.

    Each round submits the full measured-circuit batch with the round's
    per-term shot counts (zero-shot terms keep the per-circuit seed streams
    aligned) and reduces the counts to per-term signed means.  Terms with
    no measured bits are deterministic +1 and never pay simulator shots.

    The executor also implements the engine's distribution hook:
    :meth:`distribute` lifts it into a
    :class:`~repro.distributed.DistributedRoundExecutor` over the same
    batch and backend, which produces bitwise-identical rounds through the
    multi-process work-stealing pool.
    """

    def __init__(
        self,
        exec_backend: SimulatorBackend,
        measured_circuits: list[QuantumCircuit],
        selected_clbits: list[list[int]],
    ) -> None:
        self.backend = exec_backend
        self.measured_circuits = list(measured_circuits)
        self.selected_clbits = [list(bits) for bits in selected_clbits]

    def __call__(self, index, round_shots, seed_sequence):
        """Run one round's batch and reduce counts to per-term signed means."""
        submitted = [
            int(count) if selected else 0
            for count, selected in zip(round_shots, self.selected_clbits)
        ]
        counts_per_term = self.backend.run_batch(
            self.measured_circuits, submitted, seed=seed_sequence
        )
        means = []
        for counts, selected, count in zip(counts_per_term, self.selected_clbits, round_shots):
            if count == 0:
                means.append(0.0)
            elif selected:
                means.append(counts.expectation_z(selected))
            else:
                means.append(1.0)
        return means

    def distribute(self, workers: int | None = None, **options):
        """Return the distributed round executor over the same batch and backend.

        Parameters
        ----------
        workers:
            Worker-process count (the distributed default when ``None``).
        options:
            Forwarded to
            :class:`~repro.distributed.DistributedRoundExecutor` (steal
            policy, pool mode, simulated latencies, ...).
        """
        from repro.distributed import DistributedRoundExecutor

        return DistributedRoundExecutor(
            self.measured_circuits,
            self.selected_clbits,
            backend=self.backend,
            workers=workers,
            **options,
        )


class BinomialRoundSource:
    """The round source over exact per-term ``p₊`` values.

    Each round draws every term's successes as one binomial over its exact
    probability of a +1 signed outcome, in term order, from
    ``numpy.random.default_rng(seed)`` — the generator itself when ``seed``
    already is one.  Zero-shot terms draw nothing.

    Parameters
    ----------
    probabilities_plus:
        Exact ``p₊`` of every term.
    """

    def __init__(self, probabilities_plus: Sequence[float]) -> None:
        self.probabilities_plus = np.asarray(probabilities_plus, dtype=float)

    def __call__(self, index, round_shots, seed):
        """Draw one round's per-term means as binomials over the exact ``p₊``."""
        rng = np.random.default_rng(seed)
        return [
            2.0 * rng.binomial(int(count), probability) / count - 1.0 if count > 0 else 0.0
            for probability, count in zip(self.probabilities_plus, round_shots)
        ]


# ---------------------------------------------------------------------------
# General (backend) path
# ---------------------------------------------------------------------------


def estimate_cut_expectation(
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

    Every call samples the term circuits afresh through the execution
    backend (a :class:`BackendRoundExecutor` source for
    :func:`execute_terms`).

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
        Seed or generator for all sampling (see :func:`execute_terms`).
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
    pauli = _as_pauli(observable, circuit.num_qubits)
    term_circuits = build_cut_circuits(circuit, location, protocol)
    source = BackendRoundExecutor(
        resolve_backend(backend), *_measured_batch(term_circuits, pauli)
    )
    exact_value = (
        exact_expectation(circuit, pauli.to_matrix()) if compute_exact else None
    )
    return _estimate(
        source,
        [term.coefficient for term in term_circuits],
        [term.term.label for term in term_circuits],
        shots,
        protocol.name,
        exact_value,
        seed=seed,
        mode=mode,
        allocation=allocation,
        target_error=target_error,
        rounds=rounds,
        planner=planner,
        execution=execution,
        workers=workers,
    )



# ---------------------------------------------------------------------------
# Fast sweep path: precomputed exact per-term distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermSamplingModel:
    """Exact sampling model of one term circuit.

    Attributes
    ----------
    coefficient:
        QPD coefficient of the term.
    probability_plus:
        Exact probability that one shot of the term circuit yields a signed
        outcome of +1 (observable parity × sign-bit parity).
    label:
        Term label.
    consumes_entangled_pair:
        Resource accounting flag.
    """

    coefficient: float
    probability_plus: float
    label: str
    consumes_entangled_pair: bool = False

    @property
    def exact_mean(self) -> float:
        """The term's exact expectation ``2 p₊ − 1``."""
        return 2.0 * self.probability_plus - 1.0


@dataclass(frozen=True)
class CutSamplingModel:
    """Exact per-term outcome distributions for fast repeated estimation.

    Built once per (circuit, protocol, observable) combination; estimates for
    any shot budget are then produced with binomial draws only.
    """

    terms: tuple[TermSamplingModel, ...]
    exact_value: float
    protocol_name: str

    @property
    def kappa(self) -> float:
        """Sampling-overhead factor of the underlying protocol."""
        return float(sum(abs(t.coefficient) for t in self.terms))

    @property
    def probabilities(self) -> np.ndarray:
        """Coefficient-proportional sampling distribution over terms."""
        magnitudes = np.array([abs(t.coefficient) for t in self.terms])
        return magnitudes / magnitudes.sum()

    def exact_cut_value(self) -> float:
        """The exact value reconstructed through the decomposition (should equal ``exact_value``)."""
        return float(sum(t.coefficient * t.exact_mean for t in self.terms))

    def _source(self) -> BinomialRoundSource:
        """The binomial round source over the terms' exact ``p₊`` values."""
        return BinomialRoundSource([t.probability_plus for t in self.terms])

    def estimate(
        self,
        shots: int,
        allocation: str = "proportional",
        seed: SeedLike = None,
    ) -> CutExpectationResult:
        """Produce one finite-shot estimate with the given total budget."""
        return _estimate(
            self._source(),
            [t.coefficient for t in self.terms],
            [t.label for t in self.terms],
            shots,
            self.protocol_name,
            self.exact_value,
            seed=seed,
            allocation=allocation,
        )

    def estimate_adaptive(
        self,
        shots: int,
        target_error: float,
        rounds: int = DEFAULT_MAX_ROUNDS,
        planner: str | None = None,
        seed: SeedLike = None,
    ) -> CutExpectationResult:
        """Produce one adaptive estimate through the streaming round engine.

        The engine plans each round with the configured
        :class:`~repro.qpd.allocation.ShotPlanner`, draws the round's
        outcomes as binomial samples from the exact per-term distributions
        (statistically identical to re-running the simulator), merges the
        running statistics and stops as soon as the pooled standard error
        reaches ``target_error`` — or ``shots`` / ``rounds`` is exhausted.

        Parameters
        ----------
        shots:
            Hard ceiling on the total shots.
        target_error:
            Stopping threshold on the pooled standard error.
        rounds:
            Round limit.
        planner:
            Per-round planner name (``"neyman"`` by default).
        seed:
            Master seed; round ``r`` draws from the ``r``-th spawned child
            stream.

        Returns
        -------
        CutExpectationResult
            The recombined estimate with ``mode="adaptive"``, the round
            records and the convergence flag attached.
        """
        return _estimate(
            self._source(),
            [t.coefficient for t in self.terms],
            [t.label for t in self.terms],
            shots,
            self.protocol_name,
            self.exact_value,
            seed=seed,
            mode="adaptive",
            target_error=target_error,
            rounds=rounds,
            planner=planner,
        )

    def estimate_sweep(
        self,
        shot_grid: Sequence[int],
        allocation: str = "proportional",
        seed: SeedLike = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Estimate once per budget in ``shot_grid`` with vectorised draws.

        Every (budget, term) cell draws its binomial successes in one batched
        NumPy call and the recombination runs through
        :func:`~repro.qpd.estimator.combine_term_means`, so sweeping a shot
        grid costs a handful of array operations instead of
        ``len(shot_grid) × num_terms`` Python-level samples.

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(values, standard_errors)`` arrays of length ``len(shot_grid)``.
        """
        rng = as_generator(seed)
        coefficients = np.array([t.coefficient for t in self.terms])
        p_plus = np.array([t.probability_plus for t in self.terms])
        shots_matrix = allocate_shot_grid(self.probabilities, shot_grid, strategy=allocation, seed=rng)
        successes = rng.binomial(shots_matrix, p_plus)
        with np.errstate(divide="ignore", invalid="ignore"):
            means = np.where(
                shots_matrix > 0, 2.0 * successes / np.maximum(shots_matrix, 1) - 1.0, 0.0
            )
        return combine_term_means(coefficients, means, shots_matrix)

    def expected_pairs(self, shots: int, allocation: str = "proportional") -> float:
        """Expected number of entangled pairs consumed by a ``shots``-shot estimate.

        The deterministic strategies count the pair-consuming terms' shots.
        Under ``multinomial`` every shot draws its term independently, so the
        expectation is ``shots · Σ p_i`` over the pair-consuming terms.
        """
        probabilities = self.probabilities
        consumes = np.array([model.consumes_entangled_pair for model in self.terms])
        if allocation == "multinomial":
            if shots < 0:
                raise ValueError(f"shots must be non-negative, got {shots}")
            return float(shots * probabilities[consumes].sum())
        shots_per_term = allocate_shots(probabilities, shots, strategy=allocation)
        return float(shots_per_term[consumes].sum())


def _probability_plus(distribution: dict[str, float], selected: list[int]) -> float:
    """Exact probability of a +1 signed outcome (even parity of the selected bits)."""
    probability_plus = 0.0
    for bitstring, probability in distribution.items():
        parity = sum(int(bitstring[c]) for c in selected) % 2
        if parity == 0:
            probability_plus += probability
    return float(min(max(probability_plus, 0.0), 1.0))


#: Backends whose exact distributions are the noiseless circuit semantics.
_IDEAL_BACKENDS = (SerialBackend, VectorizedBackend, ProcessPoolBackend)

#: Pauli letters in transfer-matrix order.
_PAULI_LETTERS = "IXYZ"

#: Probe states |0⟩, |1⟩, |+⟩, |+i⟩ and their Bloch vectors ``(1, x, y, z)``.
_PROBE_STATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
)
_PROBE_BLOCH = np.array(
    [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]]
)

#: Row ``p``, column ``b``: the weight of probe ``p`` in the Pauli basis vector
#: ``σ_b``, so a term's transfer matrix is its probe means times this matrix.
_PROBE_WEIGHTS = np.linalg.inv(_PROBE_BLOCH.T)


def _uses_transfer_matrices(
    backend: SimulatorBackend,
    circuits: Sequence[QuantumCircuit],
    locations: Sequence[CutLocation],
) -> bool:
    """The one rule choosing how :func:`build_sampling_models` computes ``p₊``.

    Transfer matrices need a noiseless backend (a device fleet or noisy
    backend carries device semantics only its term circuits show) and a cut
    after the circuit's last instruction (so the wire's final state is all
    the term acts on).
    """
    return type(backend) in _IDEAL_BACKENDS and all(
        location.position == len(circuit) for circuit, location in zip(circuits, locations)
    )


def _signed_mean(distribution: dict[str, float], selected: list[int]) -> float:
    """Exact mean of the signed outcome (parity of the selected bits).

    Summing signed probabilities, rather than taking ``2 p₊ − 1``, cancels
    exactly when both parities are equally likely, whatever the rounding of
    the total.  A term whose exact mean is 0 then gets an exact-zero
    transfer-matrix entry and ``p₊ = ½`` exactly: NumPy's binomial draws for
    an odd shot count differ between ``p = ½`` and ``p = ½ − ulp``.
    """
    return float(
        sum(
            -probability if sum(int(bitstring[c]) for c in selected) % 2 else probability
            for bitstring, probability in distribution.items()
        )
    )


def _transfer_matrices(
    protocols: Sequence[WireCutProtocol], backend: SimulatorBackend
) -> list[np.ndarray]:
    """Return every protocol's per-term Pauli transfer matrices (memoised).

    Term ``i`` acts on the cut wire as a signed one-qubit linear map with
    real transfer matrix ``T_i[a, b] = ½ Tr[σ_a Λ_i(σ_b)]``.  The protocol's
    own term circuits run on the probe states |0⟩, |1⟩, |+⟩, |+i⟩, measured
    in I, X, Y and Z: the exact signed means ``M_i[a, p]`` then give
    ``T_i = M_i · _PROBE_WEIGHTS``.  All protocols still missing their
    matrices share one ``exact_distributions`` batch; the result is stored
    on each protocol instance, like its gadgets.
    """
    pending = [protocol for protocol in protocols if protocol._transfer_matrices is None]
    batch: list[QuantumCircuit] = []
    selected_per_circuit: list[list[int]] = []
    for protocol in pending:
        for state in _PROBE_STATES:
            probe = QuantumCircuit(1, 0, name="probe")
            probe.initialize(state, 0)
            term_circuits = build_cut_circuits(probe, CutLocation(0, 1), protocol)
            for letter in _PAULI_LETTERS:
                measured, selected = _measured_batch(term_circuits, PauliString(letter))
                batch.extend(measured)
                selected_per_circuit.extend(selected)
    means = np.array(
        [
            _signed_mean(distribution, selected)
            for distribution, selected in zip(backend.exact_distributions(batch), selected_per_circuit)
        ]
    )
    offset = 0
    for protocol in pending:
        size = len(_PROBE_STATES) * len(_PAULI_LETTERS) * protocol.num_terms
        # Batch order is (probe, letter, term); M_i[letter, probe] per term.
        probe_means = means[offset : offset + size].reshape(len(_PROBE_STATES), len(_PAULI_LETTERS), -1)
        protocol._transfer_matrices = probe_means.transpose(2, 1, 0) @ _PROBE_WEIGHTS
        offset += size
    return [protocol._transfer_matrices for protocol in protocols]


def _transfer_matrix_models(
    circuits: Sequence[QuantumCircuit],
    locations: Sequence[CutLocation],
    protocols: Sequence[WireCutProtocol],
    observable: str | PauliString,
    backend: SimulatorBackend,
) -> list[list[CutSamplingModel]]:
    """Sampling models from per-term transfer matrices (cuts at the circuit's end).

    The input side runs once per circuit: its final state gives
    ``e_b = ⟨O with the cut wire's letter replaced by σ_b⟩`` and the exact
    value (:func:`~repro.circuits.expectation.exact_expectation`'s
    arithmetic).  Term ``i``'s ``p₊`` is then ``½(1 + Σ_b T_i[o, b] e_b)``
    with ``o`` the observable's letter on the cut wire.
    """
    bloch = np.zeros((len(circuits), len(_PAULI_LETTERS)))
    cut_letters = np.zeros(len(circuits), dtype=int)
    exact_values = []
    matrices: dict[tuple[str, int], list[np.ndarray]] = {}
    for index, (circuit, location) in enumerate(zip(circuits, locations)):
        _validate_location(circuit, location)
        pauli = _as_pauli(observable, circuit.num_qubits)
        key = (pauli.labels, location.qubit)
        if key not in matrices:
            matrices[key] = [
                PauliString(
                    pauli.labels[: location.qubit] + letter + pauli.labels[location.qubit + 1 :]
                ).to_matrix()
                for letter in _PAULI_LETTERS
            ]
        state = final_state(circuit)
        bloch[index] = [float(np.real(state.expectation_value(m))) for m in matrices[key]]
        cut_letters[index] = _PAULI_LETTERS.index(pauli.labels[location.qubit])
        exact_values.append(bloch[index, cut_letters[index]])

    models = []
    for protocol, transfer in zip(protocols, _transfer_matrices(protocols, backend)):
        # transfer[:, cut_letters] is (terms, circuits, 4): each circuit's row o.
        means = np.einsum("nb,tnb->nt", bloch, transfer[:, cut_letters])
        p_plus = np.clip(0.5 * (1.0 + means), 0.0, 1.0)
        models.append(
            [
                CutSamplingModel(
                    terms=tuple(
                        TermSamplingModel(
                            coefficient=term.coefficient,
                            probability_plus=float(p_plus[index, term_index]),
                            label=term.label,
                            consumes_entangled_pair=term.consumes_entangled_pair,
                        )
                        for term_index, term in enumerate(protocol.terms)
                    ),
                    exact_value=float(exact_value),
                    protocol_name=protocol.name,
                )
                for index, exact_value in enumerate(exact_values)
            ]
        )
    return models


def _term_circuit_models(
    circuits: Sequence[QuantumCircuit],
    locations: Sequence[CutLocation],
    protocol: WireCutProtocol,
    observable: str | PauliString,
    backend: SimulatorBackend,
) -> list[CutSamplingModel]:
    """Sampling models from simulated term circuits (any cut, any backend)."""
    measured_circuits: list[QuantumCircuit] = []
    term_metadata: list[list[tuple[CutTermCircuit, list[int]]]] = []
    paulis = []
    for circuit, location in zip(circuits, locations):
        pauli = _as_pauli(observable, circuit.num_qubits)
        paulis.append(pauli)
        term_circuits = build_cut_circuits(circuit, location, protocol)
        measured, selected_clbits = _measured_batch(term_circuits, pauli)
        measured_circuits.extend(measured)
        term_metadata.append(list(zip(term_circuits, selected_clbits)))

    distributions = backend.exact_distributions(measured_circuits)

    models: list[CutSamplingModel] = []
    cursor = 0
    for circuit, pauli, per_circuit in zip(circuits, paulis, term_metadata):
        terms = []
        for term_circuit, selected in per_circuit:
            terms.append(
                TermSamplingModel(
                    coefficient=term_circuit.coefficient,
                    probability_plus=_probability_plus(distributions[cursor], selected),
                    label=term_circuit.term.label,
                    consumes_entangled_pair=term_circuit.term.consumes_entangled_pair,
                )
            )
            cursor += 1
        exact_value = exact_expectation(circuit, pauli.to_matrix())
        models.append(
            CutSamplingModel(
                terms=tuple(terms), exact_value=float(exact_value), protocol_name=protocol.name
            )
        )
    return models


def build_sampling_models(
    circuits: Sequence[QuantumCircuit],
    locations: CutLocation | Sequence[CutLocation],
    protocols: Sequence[WireCutProtocol],
    observable: str | PauliString = "Z",
    backend: SimulatorBackend | str | None = None,
) -> list[list[CutSamplingModel]]:
    """Build one :class:`CutSamplingModel` per input circuit, for every protocol.

    One rule picks how the exact per-term ``p₊`` are computed.  With a
    noiseless backend (serial, vectorized or process-pool) and every cut
    after its circuit's last instruction — the shape of every experiment
    sweep — each protocol's per-term Pauli transfer matrices (measured once
    per protocol instance on four probe states, one backend batch for all
    protocols of the call) are applied to each circuit's final state, and
    no term circuit is built.  Otherwise (a mid-circuit cut, a noisy
    backend or a device fleet) every term circuit of every input is
    simulated, one backend batch per protocol.  Both agree to rounding.

    Parameters
    ----------
    circuits:
        The (uncut) circuits to model.
    locations:
        One cut location shared by all circuits, or one per circuit.
    protocols:
        The wire-cut protocols providing the QPDs.
    observable:
        Pauli observable (as in :func:`estimate_cut_expectation`).
    backend:
        Execution backend (name or instance); ``None`` selects the serial
        backend.

    Returns
    -------
    list[list[CutSamplingModel]]
        Per protocol, one model per circuit.
    """
    if isinstance(locations, CutLocation):
        locations = [locations] * len(circuits)
    if len(locations) != len(circuits):
        raise CuttingError(
            f"got {len(circuits)} circuits but {len(locations)} cut locations"
        )
    exec_backend = resolve_backend(backend)
    if _uses_transfer_matrices(exec_backend, circuits, locations):
        return _transfer_matrix_models(circuits, locations, protocols, observable, exec_backend)
    return [
        _term_circuit_models(circuits, locations, protocol, observable, exec_backend)
        for protocol in protocols
    ]


def build_sampling_model(
    circuit: QuantumCircuit,
    location: CutLocation,
    protocol: WireCutProtocol,
    observable: str | PauliString = "Z",
    backend: SimulatorBackend | str | None = None,
) -> CutSamplingModel:
    """Compute the exact per-term ``p₊`` of one cut circuit.

    The one-circuit case of :func:`build_sampling_models`, which picks
    between transfer matrices and simulated term circuits.
    """
    return build_sampling_models([circuit], location, [protocol], observable, backend=backend)[0][0]


def sampling_models_from_instances(table, backend=None) -> list[TermSamplingModel]:
    """Bridge an instance table into the per-term sampling-model machinery.

    The table (a :class:`repro.cutting.instances.InstanceTable`; accepted
    structurally to keep this module import-light) is evaluated once through
    ``backend``, then every QPD product term's exact ``p₊`` is chained from
    the shared fragment tensors — so a full multi-cut term set becomes a
    list of :class:`TermSamplingModel` objects without ever materialising
    the monolithic term circuits.

    Parameters
    ----------
    table:
        An :class:`~repro.cutting.instances.InstanceTable` (evaluated or
        not; evaluation is idempotent).
    backend:
        Execution backend (name or instance) for the instance evaluation;
        ``None`` selects the serial backend.

    Returns
    -------
    list[TermSamplingModel]
        One exact sampling model per QPD product term, in the monolithic
        product order.
    """
    table.evaluate(backend)
    return [
        TermSamplingModel(
            coefficient=table.term_coefficient(assignment),
            probability_plus=table.term_probability_plus(assignment),
            label=table.term_label(assignment),
            consumes_entangled_pair=table.term_entangled_pairs(assignment) > 0,
        )
        for assignment in table.term_assignments()
    ]


def exact_cut_expectation(
    circuit: QuantumCircuit,
    location: CutLocation,
    protocol: WireCutProtocol,
    observable: str | PauliString = "Z",
    backend: SimulatorBackend | str | None = None,
) -> float:
    """Return the cut estimator's exact (infinite-shot) value.

    For a valid protocol this equals the uncut expectation value; tests use
    the agreement of the two as an end-to-end correctness check of the
    circuit-level gadgets.
    """
    model = build_sampling_model(circuit, location, protocol, observable, backend=backend)
    return model.exact_cut_value()


# ---------------------------------------------------------------------------
# Single-qubit convenience entry point (the paper's Section IV workload)
# ---------------------------------------------------------------------------


def _state_preparation_circuit(state: Statevector | np.ndarray) -> QuantumCircuit:
    vector = state.data if isinstance(state, Statevector) else np.asarray(state, dtype=complex)
    if vector.shape != (2,):
        raise CuttingError(
            f"cut_expectation_value expects a single-qubit state, got dimension {vector.shape}"
        )
    circuit = QuantumCircuit(1, 0, name="state_prep")
    circuit.initialize(vector, 0)
    return circuit


def cut_expectation_value(
    state: Statevector | np.ndarray,
    protocol: WireCutProtocol,
    shots: int,
    observable: str | PauliString = "Z",
    allocation: str = "proportional",
    seed: SeedLike = None,
    backend: SimulatorBackend | str | None = None,
) -> CutExpectationResult:
    """Estimate ``⟨O⟩`` of a single-qubit ``state`` transmitted through a cut wire.

    This is the exact workload of the paper's numerical experiments: the
    state is prepared on the sender, the wire is cut with ``protocol``, and
    the observable (default Pauli Z) is measured on the receiver.
    """
    circuit = _state_preparation_circuit(state)
    location = CutLocation(qubit=0, position=len(circuit))
    return estimate_cut_expectation(
        circuit,
        location,
        protocol,
        observable=observable,
        shots=shots,
        allocation=allocation,
        seed=seed,
        backend=backend,
    )
