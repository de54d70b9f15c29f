"""The :class:`CutPipeline`: plan → decompose → execute → reconstruct.

The pipeline is the orchestration layer that turns *any*
:class:`~repro.circuits.circuit.QuantumCircuit` plus device constraints into
a cut-circuit expectation-value estimate:

1. **plan** — find where to cut (:func:`~repro.cutting.cut_finding.plan_cuts`,
   or an explicit plan / slice positions supplied by the caller).  Plans may
   contain several time slices, splitting the circuit into more than two
   fragments.
2. **decompose** — apply one single-wire protocol per cut and build the full
   tensor-product QPD term set
   (:func:`~repro.cutting.multi_wire.build_multi_cut_circuits`): n cuts with
   m-term protocols yield mⁿ term circuits whose coefficients multiply, so
   the total overhead is κⁿ.
3. **execute** — spend the shot budget on the product term set through the
   term executor (:func:`~repro.cutting.executor.execute_terms`), running
   every measured term circuit as one batch through a
   :class:`~repro.circuits.backends.SimulatorBackend` (identical results on
   every backend for the same seed).
4. **reconstruct** — recombine the per-term means with the signed
   coefficient products (Eq. 12) and propagate the standard error.

With ``dedup=True`` (or ``"auto"``) the execute stage routes full-slice
plans through the instance-dedup layer of :mod:`repro.cutting.instances`:
every unique (fragment, basis-config) subcircuit instance is simulated
exactly once, the executor draws each product term's outcomes from its
chained exact ``p₊``, and the execution artifact carries the dedup
accounting.
:meth:`CutPipeline.exact_reconstruction` can likewise fold the full κⁿ
summation into one fragment-chain contraction (``method="contraction"``).

Each stage returns a frozen artifact (:mod:`repro.pipeline.stages`), so the
stages can be run separately for inspection, or all at once with
:meth:`CutPipeline.run`.

Example
-------
>>> from repro.experiments import ghz_circuit
>>> from repro.pipeline import CutPipeline
>>> pipeline = CutPipeline(max_fragment_width=3, backend="vectorized")
>>> result = pipeline.run(ghz_circuit(4), observable="ZZZZ", shots=8000, seed=7)
>>> result.plan.num_cuts
1
"""

from __future__ import annotations

from collections.abc import Sequence

import repro.telemetry as telemetry
from repro.exceptions import CuttingError
from repro.telemetry.metrics import REGISTRY
from repro.circuits.backends import BACKEND_NAMES, SimulatorBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.base import WireCutProtocol
from repro.cutting.cut_finding import (
    MultiCutPlan,
    _no_plan_reason,
    plan_cuts,
    plan_from_locations,
    plan_from_positions,
)
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import (
    BackendRoundExecutor,
    BinomialRoundSource,
    _as_pauli,
    _measured_batch,
    _probability_plus,
    execute_terms,
    sampling_models_from_instances,
)
from repro.cutting.instances import build_instance_table, instance_support_reason
from repro.cutting.multi_wire import MultiCutTermCircuit, build_multi_cut_circuits
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.pipeline.stages import Decomposition, Execution, PipelineResult, PlanResult
from repro.qpd.adaptive import DEFAULT_MAX_ROUNDS, RoundRecord
from repro.qpd.allocation import resolve_planner
from repro.qpd.estimator import combine_term_estimates
from repro.quantum.paulis import PauliString
from repro.utils.rng import SeedLike

__all__ = ["CutPipeline", "DEDUP_MODES", "RECONSTRUCTION_METHODS"]

#: Accepted values of the pipeline's ``dedup`` configuration: ``False`` keeps
#: the monolithic per-term path (bitwise identical to earlier releases),
#: ``True`` requires the instance-dedup path (raising when the plan or
#: protocols cannot be factorised), ``"auto"`` uses dedup whenever it is
#: supported and silently falls back otherwise.
DEDUP_MODES = (False, True, "auto")

#: Accepted values of :meth:`CutPipeline.exact_reconstruction`'s ``method``:
#: ``"summation"`` materialises every product term (the κⁿ reference),
#: ``"contraction"`` folds the whole summation into one fragment-chain
#: contraction through the instance table.
RECONSTRUCTION_METHODS = ("summation", "contraction")

#: κ and κ² of every decomposition built, the paper's central cost quantity
#: (conf_ipps_BechtoldBLM24): κⁿ total sampling overhead per plan.
_KAPPA_HISTOGRAM = REGISTRY.histogram(
    "repro_plan_kappa",
    "Total kappa (QPD 1-norm) of each built decomposition.",
    buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 16.0, 27.0, 81.0, 243.0),
)
_OVERHEAD_HISTOGRAM = REGISTRY.histogram(
    "repro_plan_sampling_overhead",
    "Sampling overhead kappa^2 of each built decomposition.",
    buckets=(1.0, 4.0, 9.0, 16.0, 36.0, 81.0, 256.0, 729.0, 6561.0, 59049.0),
)


class CutPipeline:
    """Composable plan → decompose → execute → reconstruct cut estimation.

    The pipeline holds the *configuration* (device constraints, protocol
    choice, execution backend, allocation strategy); the circuit, observable
    and shot budget are supplied per call, so one pipeline instance serves a
    whole workload.

    Parameters
    ----------
    max_fragment_width:
        Maximum number of qubits any device can hold; drives the planner.
        May be ``None`` when every call supplies an explicit plan or slice
        positions.
    protocol:
        The single-wire protocol applied at every cut, or a sequence with
        one protocol per cut location.  Defaults to the optimal
        entanglement-free cut (κ = 3) — or the paper's NME cut when
        ``entanglement_overlap`` is given.
    entanglement_overlap:
        Entanglement level ``f(Φ_k)`` shared between the devices.  Sets the
        default protocol to ``NMEWireCut.from_overlap(...)`` and informs the
        planner's overhead ranking.
    backend:
        Execution backend (name or instance); ``None`` selects the serial
        backend.  All backends yield identical results for the same seed.
        A :class:`~repro.devices.DeviceFleet` instance runs every term
        circuit shot-wise distributed across its noisy virtual devices.
    allocation:
        Shot-allocation strategy over the product term set
        (``proportional``, ``multinomial``, ``uniform``).
    max_cuts:
        Optional planner bound on the total number of wire cuts.
    max_fragments:
        Optional planner bound on the number of fragments (devices).
    dedup:
        Instance-dedup execution (:mod:`repro.cutting.instances`):
        ``False`` (default) keeps the monolithic per-term path, ``True``
        requires the shared instance table (raising when the plan or
        protocols cannot be factorised), ``"auto"`` uses it whenever
        supported and falls back silently otherwise.  Per-call override via
        :meth:`execute`'s ``dedup`` argument.

    Examples
    --------
    Run everything at once:

    >>> from repro.experiments import ghz_circuit
    >>> pipeline = CutPipeline(max_fragment_width=3)
    >>> result = pipeline.run(ghz_circuit(4), "ZZZZ", shots=4000, seed=11)

    Or stage by stage:

    >>> plan = pipeline.plan(ghz_circuit(4))
    >>> decomposition = pipeline.decompose(plan)
    >>> execution = pipeline.execute(decomposition, "ZZZZ", shots=4000, seed=11)
    >>> result = pipeline.reconstruct(execution)
    """

    def __init__(
        self,
        max_fragment_width: int | None = None,
        protocol: WireCutProtocol | Sequence[WireCutProtocol] | None = None,
        entanglement_overlap: float | None = None,
        backend: SimulatorBackend | str | None = None,
        allocation: str = "proportional",
        max_cuts: int | None = None,
        max_fragments: int | None = None,
        dedup: bool | str = False,
    ):
        if max_fragment_width is not None and max_fragment_width < 1:
            raise CuttingError("max_fragment_width must be at least 1")
        if dedup not in DEDUP_MODES:
            raise CuttingError(f"unknown dedup mode {dedup!r}; expected one of {DEDUP_MODES}")
        self.max_fragment_width = max_fragment_width
        self.protocol = protocol
        self.entanglement_overlap = entanglement_overlap
        self.backend = resolve_backend(backend)
        self.allocation = allocation
        self.max_cuts = max_cuts
        self.max_fragments = max_fragments
        self.dedup = dedup

    # -- stage 1: plan -----------------------------------------------------------------

    def plan(
        self,
        circuit: QuantumCircuit,
        plan: MultiCutPlan | None = None,
        positions: Sequence[int] | None = None,
        locations: Sequence[CutLocation] | None = None,
    ) -> PlanResult:
        """Choose where to cut ``circuit``.

        Parameters
        ----------
        circuit:
            The circuit to split.
        plan:
            Use this explicit plan instead of searching.
        positions:
            Build an explicit plan cutting at these time-slice positions
            (every wire crossing a slice is cut there).
        locations:
            Build an explicit plan from these exact wire-cut locations
            (including end-of-circuit cuts the slice model cannot express).

        Returns
        -------
        PlanResult
            The selected plan plus the ranked alternatives when the planner
            searched.

        Raises
        ------
        CuttingError
            When more than one of ``plan`` / ``positions`` / ``locations``
            is given, when no constraint is available to search with, or
            when no valid plan exists under the constraints.
        """
        with telemetry.stage("plan", circuit=str(circuit.name)) as span_record:
            result = self._plan_impl(circuit, plan, positions, locations)
            span_record.set(num_cuts=result.plan.num_cuts)
            return result

    def _plan_impl(
        self,
        circuit: QuantumCircuit,
        plan: MultiCutPlan | None,
        positions: Sequence[int] | None,
        locations: Sequence[CutLocation] | None,
    ) -> PlanResult:
        """Stage body of :meth:`plan` (runs inside the stage span)."""
        explicit_args = [arg for arg in (plan, positions, locations) if arg is not None]
        if len(explicit_args) > 1:
            raise CuttingError(
                "pass at most one of an explicit plan, positions or locations"
            )
        if plan is not None:
            return PlanResult(circuit=circuit, plan=plan)
        if positions is not None:
            explicit = plan_from_positions(
                circuit, tuple(positions), entanglement_overlap=self.entanglement_overlap
            )
            return PlanResult(circuit=circuit, plan=explicit)
        if locations is not None:
            explicit = plan_from_locations(
                circuit, tuple(locations), entanglement_overlap=self.entanglement_overlap
            )
            return PlanResult(circuit=circuit, plan=explicit)
        if self.max_fragment_width is None:
            raise CuttingError(
                "CutPipeline needs max_fragment_width to plan automatically "
                "(or pass an explicit plan / positions)"
            )
        candidates = plan_cuts(
            circuit,
            self.max_fragment_width,
            entanglement_overlap=self.entanglement_overlap,
            max_cuts=self.max_cuts,
            max_fragments=self.max_fragments,
        )
        if not candidates:
            reason = _no_plan_reason(
                circuit, self.max_fragment_width, self.max_cuts, self.max_fragments
            )
            raise CuttingError(
                f"no valid cut plan splits {circuit.name!r} into fragments of width "
                f"<= {self.max_fragment_width}: {reason}"
            )
        return PlanResult(
            circuit=circuit,
            plan=candidates[0],
            alternatives=tuple(candidates),
            max_fragment_width=self.max_fragment_width,
        )

    # -- stage 2: decompose ------------------------------------------------------------

    def decompose(self, plan_result: PlanResult) -> Decomposition:
        """Build the tensor-product QPD term set for a plan.

        One protocol is applied per cut location (the configured protocol is
        replicated when a single instance was given); the term set is the
        Cartesian product of the per-cut term sets with multiplied
        coefficients, so its κ is the product of the per-cut κ values.  A
        zero-cut plan (the circuit factorises into fitting fragments at
        free slices) decomposes into the single identity term with κ = 1.

        Parameters
        ----------
        plan_result:
            The plan-stage artifact.

        Returns
        -------
        Decomposition
            The executable term circuits with coefficients and κ.
        """
        with telemetry.stage("decompose") as span_record:
            decomposition = self._decompose_impl(plan_result)
            kappa = float(decomposition.kappa)
            _KAPPA_HISTOGRAM.observe(kappa)
            _OVERHEAD_HISTOGRAM.observe(kappa * kappa)
            span_record.set(kappa=kappa, num_terms=len(decomposition.term_circuits))
            return decomposition

    def _decompose_impl(self, plan_result: PlanResult) -> Decomposition:
        """Stage body of :meth:`decompose` (runs inside the stage span)."""
        protocols = self._protocols_for(plan_result.plan)
        if plan_result.plan.num_cuts == 0:
            circuit = plan_result.circuit
            identity_term = MultiCutTermCircuit(
                circuit=circuit,
                coefficient=1.0,
                term_indices=(),
                qubit_map={q: q for q in range(circuit.num_qubits)},
                sign_clbits=(),
                labels=(),
            )
            return Decomposition(
                plan_result=plan_result,
                protocols=(),
                term_circuits=(identity_term,),
            )
        term_circuits = build_multi_cut_circuits(
            plan_result.circuit, list(plan_result.plan.locations), list(protocols)
        )
        return Decomposition(
            plan_result=plan_result,
            protocols=protocols,
            term_circuits=tuple(term_circuits),
        )

    # -- stage 3: execute --------------------------------------------------------------

    def execute(
        self,
        decomposition: Decomposition,
        observable: str | PauliString,
        shots: int,
        seed: SeedLike = None,
        mode: str = "static",
        target_error: float | None = None,
        rounds: int = DEFAULT_MAX_ROUNDS,
        planner: str | None = None,
        completed_rounds: Sequence[RoundRecord] = (),
        on_round=None,
        dedup: bool | str | None = None,
        execution: str = "inprocess",
        workers: int | None = None,
    ) -> Execution:
        """Spend the shot budget on the term set through the execution backend.

        In the default **static** mode the budget is split across the
        product terms by the configured allocation strategy, every term
        circuit is measured in the observable's basis, and the whole batch
        is submitted to the backend in one call — so the vectorized backend
        simulates structurally identical terms as stacked NumPy
        computations and every backend draws circuit ``i`` from seed stream
        ``i`` (bitwise identical results across backends).

        In **adaptive** mode execution is round-structured: after each
        round the per-term running statistics feed a variance-aware planner
        that allocates the next round, stopping as soon as the pooled
        standard error reaches ``target_error`` or ``shots`` is exhausted.
        Each round runs through the same backend batch call (one spawned
        seed stream per round), so cross-backend identity holds per round.

        Parameters
        ----------
        decomposition:
            The decompose-stage artifact.
        observable:
            Pauli observable over the original circuit's logical qubits (a
            single letter refers to qubit 0).
        shots:
            Total shot budget across all term circuits (the hard ceiling in
            adaptive mode).
        seed:
            Seed or generator for allocation and sampling.
        mode:
            ``"static"`` (default) or ``"adaptive"``.
        target_error:
            Adaptive stopping threshold on the pooled standard error
            (required in adaptive mode).
        rounds:
            Adaptive round limit.
        planner:
            Adaptive per-round planner name (``"neyman"`` by default).
        completed_rounds:
            Round records persisted by an interrupted adaptive run; they
            are replayed without re-execution so the resumed execution is
            bitwise identical to an uninterrupted one.
        on_round:
            Optional progress hook called after every live adaptive round
            with the :class:`~repro.qpd.adaptive.RoundRecord` and a
            progress summary dict.
        dedup:
            Per-call override of the pipeline's dedup configuration
            (``False`` / ``True`` / ``"auto"``); ``None`` uses the
            configured default.  When dedup engages, the unique fragment
            instances are simulated once through the backend and every
            term's outcomes are drawn from its chained exact distribution
            — statistically identical to the monolithic path and bitwise
            identical across backends — and the returned execution carries
            the table's accounting in ``instance_stats``.
        execution:
            Round execution: ``"inprocess"`` (default) or ``"distributed"``
            (adaptive mode only; each round fans out over the
            multi-process work-stealing pool of :mod:`repro.distributed`).
            Distributed execution is bitwise identical to in-process for
            the same seed, so the stage artifact does not record it — a
            stored run resumes interchangeably under either.  The dedup
            path consumes one sequential RNG across terms and therefore
            cannot distribute: an explicit ``dedup=True`` conflicts, and
            ``"auto"`` falls back to the monolithic term path.
        workers:
            Distributed execution's worker-process count.

        Returns
        -------
        Execution
            Raw per-term empirical summaries (plus round records in
            adaptive mode, plus dedup accounting when the instance table
            served the execution).
        """
        with telemetry.stage(
            "execute",
            mode=str(mode),
            backend=str(self.backend.name),
            execution=str(execution),
            shots=int(shots),
        ) as span_record:
            result = self._execute_impl(
                decomposition,
                observable,
                shots,
                seed=seed,
                mode=mode,
                target_error=target_error,
                rounds=rounds,
                planner=planner,
                completed_rounds=completed_rounds,
                on_round=on_round,
                dedup=dedup,
                execution=execution,
                workers=workers,
            )
            span_record.set(
                num_terms=len(result.term_estimates),
                total_shots=int(sum(result.shots_per_term)),
            )
            return result

    def _execute_impl(
        self,
        decomposition: Decomposition,
        observable: str | PauliString,
        shots: int,
        seed: SeedLike,
        mode: str,
        target_error: float | None,
        rounds: int,
        planner: str | None,
        completed_rounds: Sequence[RoundRecord],
        on_round,
        dedup: bool | str | None,
        execution: str,
        workers: int | None,
    ) -> Execution:
        """Stage body of :meth:`execute` (runs inside the stage span)."""
        if execution == "distributed":
            if (self.dedup if dedup is None else dedup) is True:
                raise CuttingError(
                    "dedup execution cannot distribute (the instance fast path "
                    "draws terms from one sequential stream); pass dedup=False"
                )
            # "auto" falls back to the distributable monolithic term path.
            dedup = False
        pauli = _as_pauli(observable, decomposition.circuit.num_qubits)
        instance_stats = None
        if self._dedup_engages(decomposition, dedup):
            table = build_instance_table(
                decomposition.circuit,
                decomposition.plan_result.plan,
                decomposition.protocols,
                pauli,
            )
            terms = sampling_models_from_instances(table, self.backend)
            instance_stats = table.stats
            source = BinomialRoundSource([term.probability_plus for term in terms])
        else:
            terms = decomposition.term_circuits
            source = BackendRoundExecutor(self.backend, *_measured_batch(terms, pauli))
        term_estimates, shots_per_term, adaptive = execute_terms(
            source,
            [term.coefficient for term in terms],
            [term.label for term in terms],
            shots,
            seed=seed,
            mode=mode,
            allocation=self.allocation,
            target_error=target_error,
            rounds=rounds,
            planner=planner,
            completed_rounds=completed_rounds,
            on_round=on_round,
            execution=execution,
            workers=workers,
        )
        return Execution(
            decomposition=decomposition,
            observable=pauli,
            term_estimates=tuple(term_estimates),
            shots_per_term=tuple(shots_per_term),
            backend_name=self.backend.name,
            # Adaptive rounds are planned from the running statistics, not
            # the static allocation strategy — record what split the shots.
            allocation=self.allocation if adaptive is None else resolve_planner(planner).name,
            mode=mode,
            target_error=None if adaptive is None else float(target_error),
            converged=None if adaptive is None else adaptive.converged,
            rounds=() if adaptive is None else adaptive.rounds,
            instance_stats=instance_stats,
        )

    def _dedup_reason(self, decomposition: Decomposition) -> str | None:
        """Explain why dedup cannot serve this decomposition, or ``None``."""
        if self.backend.name not in BACKEND_NAMES:
            return (
                f"dedup requires an ideal simulator backend, got {self.backend.name!r}"
            )
        return instance_support_reason(
            decomposition.circuit,
            decomposition.plan_result.plan,
            decomposition.protocols,
        )

    def _dedup_engages(self, decomposition: Decomposition, dedup: bool | str | None) -> bool:
        """Resolve the effective dedup setting against the decomposition."""
        requested = self.dedup if dedup is None else dedup
        if requested not in DEDUP_MODES:
            raise CuttingError(
                f"unknown dedup mode {requested!r}; expected one of {DEDUP_MODES}"
            )
        if requested is False:
            return False
        reason = self._dedup_reason(decomposition)
        if reason is None:
            return True
        if requested is True:
            raise CuttingError(f"dedup execution unavailable: {reason}")
        return False

    # -- stage 4: reconstruct ----------------------------------------------------------

    def reconstruct(self, execution: Execution, compute_exact: bool = True) -> PipelineResult:
        """Recombine the per-term means into the final estimate (Eq. 12).

        Parameters
        ----------
        execution:
            The execute-stage artifact.
        compute_exact:
            Also compute the exact uncut expectation value for error
            reporting.

        Returns
        -------
        PipelineResult
            The estimate with propagated standard error and links to all
            upstream artifacts.
        """
        with telemetry.stage("reconstruct", exact=bool(compute_exact)) as span_record:
            result = self._reconstruct_impl(execution, compute_exact)
            span_record.set(total_shots=int(result.total_shots))
            return result

    def _reconstruct_impl(self, execution: Execution, compute_exact: bool) -> PipelineResult:
        """Stage body of :meth:`reconstruct` (runs inside the stage span)."""
        estimate = combine_term_estimates(list(execution.term_estimates))
        exact_value = None
        if compute_exact:
            exact_value = float(
                exact_expectation(
                    execution.decomposition.circuit, execution.observable.to_matrix()
                )
            )
        return PipelineResult(
            value=estimate.value,
            standard_error=estimate.standard_error,
            total_shots=estimate.total_shots,
            kappa=estimate.kappa,
            exact_value=exact_value,
            execution=execution,
        )

    # -- convenience -------------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        observable: str | PauliString,
        shots: int,
        seed: SeedLike = None,
        plan: MultiCutPlan | None = None,
        positions: Sequence[int] | None = None,
        locations: Sequence[CutLocation] | None = None,
        compute_exact: bool = True,
        mode: str = "static",
        target_error: float | None = None,
        rounds: int = DEFAULT_MAX_ROUNDS,
        planner: str | None = None,
        dedup: bool | str | None = None,
        execution: str = "inprocess",
        workers: int | None = None,
    ) -> PipelineResult:
        """Run all four stages and return the final estimate.

        Parameters
        ----------
        circuit:
            The circuit to cut and estimate.
        observable:
            Pauli observable over the circuit's logical qubits.
        shots:
            Total shot budget (the hard ceiling in adaptive mode).
        seed:
            Seed or generator for all sampling.
        plan:
            Optional explicit plan (skips the planner search).
        positions:
            Optional explicit time-slice positions (skips the search).
        locations:
            Optional explicit wire-cut locations (skips the search).
        compute_exact:
            Also compute the exact uncut value for error reporting.
        mode:
            Execution mode: ``"static"`` (default) or ``"adaptive"``
            (round-structured with early stopping).
        target_error:
            Adaptive stopping threshold on the pooled standard error.
        rounds:
            Adaptive round limit.
        planner:
            Adaptive per-round planner name.
        dedup:
            Per-call override of the pipeline's instance-dedup setting
            (see :meth:`execute`).
        execution:
            Round execution, ``"inprocess"`` or ``"distributed"`` (see
            :meth:`execute`).
        workers:
            Distributed execution's worker-process count.

        Returns
        -------
        PipelineResult
            The reconstructed estimate with stage artifacts attached.
        """
        plan_result = self.plan(circuit, plan=plan, positions=positions, locations=locations)
        decomposition = self.decompose(plan_result)
        executed = self.execute(
            decomposition,
            observable,
            shots,
            seed=seed,
            mode=mode,
            target_error=target_error,
            rounds=rounds,
            planner=planner,
            dedup=dedup,
            execution=execution,
            workers=workers,
        )
        return self.reconstruct(executed, compute_exact=compute_exact)

    def exact_reconstruction(
        self,
        decomposition: Decomposition,
        observable: str | PauliString,
        method: str = "summation",
    ) -> float:
        """Return the decomposition's exact (infinite-shot) reconstructed value.

        With the default ``"summation"`` method every term circuit's exact
        outcome distribution is computed through the configured backend and
        recombined as ``Σ_i c_i (2 p⁺_i − 1)`` — the κⁿ reference, bitwise
        identical to earlier releases.  With ``"contraction"`` the unique
        fragment instances are simulated once and the whole summation is
        folded into a single tensor-network-style chain contraction
        (:meth:`repro.cutting.instances.InstanceTable.contract_exact_value`)
        — linear in the number of fragments instead of exponential in the
        number of cuts, and agreeing with the summation to float
        round-off.  For valid protocols either value equals the uncut
        expectation; tests use the agreement as the end-to-end
        unbiasedness check of the multi-cut gadget chain.

        Parameters
        ----------
        decomposition:
            The decompose-stage artifact.
        observable:
            Pauli observable over the original circuit's logical qubits.
        method:
            ``"summation"`` (default) or ``"contraction"``.

        Returns
        -------
        float
            The exactly reconstructed expectation value.

        Raises
        ------
        CuttingError
            With ``method="contraction"`` when the plan or protocols cannot
            be served by the instance table (the message names the
            obstruction).
        """
        if method not in RECONSTRUCTION_METHODS:
            raise CuttingError(
                f"unknown reconstruction method {method!r}; "
                f"expected one of {RECONSTRUCTION_METHODS}"
            )
        pauli = _as_pauli(observable, decomposition.circuit.num_qubits)
        if method == "contraction":
            reason = self._dedup_reason(decomposition)
            if reason is not None:
                raise CuttingError(f"contraction reconstruction unavailable: {reason}")
            table = build_instance_table(
                decomposition.circuit,
                decomposition.plan_result.plan,
                decomposition.protocols,
                pauli,
            )
            table.evaluate(self.backend)
            return table.contract_exact_value()
        measured, selected_clbits = _measured_batch(decomposition.term_circuits, pauli)
        distributions = self.backend.exact_distributions(measured)
        value = 0.0
        for term_circuit, distribution, selected in zip(
            decomposition.term_circuits, distributions, selected_clbits
        ):
            probability_plus = _probability_plus(distribution, selected)
            value += term_circuit.coefficient * (2.0 * probability_plus - 1.0)
        return float(value)

    # -- internals ---------------------------------------------------------------------

    def _protocols_for(self, plan: MultiCutPlan) -> tuple[WireCutProtocol, ...]:
        """Resolve the configured protocol(s) into one protocol per cut location."""
        num_cuts = plan.num_cuts
        if num_cuts == 0:
            return ()
        if self.protocol is None:
            if self.entanglement_overlap is not None:
                template: WireCutProtocol = NMEWireCut.from_overlap(self.entanglement_overlap)
            else:
                template = HaradaWireCut()
            return tuple([template] * num_cuts)
        if isinstance(self.protocol, WireCutProtocol):
            return tuple([self.protocol] * num_cuts)
        protocols = tuple(self.protocol)
        if len(protocols) != num_cuts:
            raise CuttingError(
                f"pipeline was configured with {len(protocols)} protocols but the plan "
                f"has {num_cuts} cuts"
            )
        return protocols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Return a short configuration summary."""
        return (
            f"CutPipeline(max_fragment_width={self.max_fragment_width}, "
            f"backend={self.backend.name!r}, allocation={self.allocation!r})"
        )
