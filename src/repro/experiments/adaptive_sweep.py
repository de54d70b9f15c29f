"""Static versus adaptive shots-to-target on the Figure-6 NME sweep.

The paper's static procedure fixes the whole shot budget before execution:
to hit a mean absolute error ε it must budget for the κ²/ε² worst case (in
this repository: search the doubling candidate-budget grid of
:mod:`repro.experiments.shots_to_target` for the smallest budget whose
measured workload error is below ε).  The streaming adaptive engine
(:mod:`repro.qpd.adaptive`) instead observes each instance's running
statistics round by round and stops the moment the pooled standard error
reaches the target — paying the instance's *actual* cost rather than the
sweep's worst case, with no budget-grid overshoot.

This module measures that difference on exactly the Figure-6 workload
(Haar-random single-qubit states through the Theorem-2 NME cut, Pauli-Z
observable, entanglement levels ``f(Φ_k)``): both arms must reach the same
mean-absolute-error target, and the result table reports the per-level and
total shot savings.  ``benchmarks/bench_adaptive.py`` asserts the ≥20%
savings floor on this table and archives it as ``BENCH_adaptive.json``.

Both arms are sized to the *same* statistical criterion, which makes the
comparison deterministic rather than a race of lucky draws: for an
asymptotically normal estimator ``E|error| = σ·√(2/π)``, so a
mean-absolute-error target ε is equivalent to the standard-error target
``ε·√(π/2)``.  The static arm picks the smallest grid budget whose
*exactly predicted* standard error (closed form from the model's term
probabilities) meets that threshold; the adaptive arm stops when its
*achieved* pooled standard error meets it.  The measured absolute errors of
both arms are reported so the equivalence is checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ExperimentError
from repro.circuits.backends import BACKEND_NAMES
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import CutSamplingModel, build_sampling_models
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from repro.experiments.records import SweepTable
from repro.experiments.workloads import random_single_qubit_states, state_preparation_circuit
from repro.qpd.allocation import PLANNER_NAMES, allocate_shots
from repro.quantum.bell import k_from_overlap
from repro.utils.rng import SeedLike, as_generator, spawn_seed_sequences

__all__ = ["AdaptiveSweepConfig", "adaptive_vs_static_sweep"]

#: Mean-absolute-error → standard-error conversion factor (half-normal mean).
ABS_ERROR_TO_STDERR = float(np.sqrt(np.pi / 2.0))


@dataclass(frozen=True)
class AdaptiveSweepConfig:
    """Configuration of the static-versus-adaptive comparison sweep.

    Attributes
    ----------
    target_error:
        Mean absolute error both arms must reach.
    overlaps:
        Entanglement levels ``f(Φ_k)`` of the Figure-6 sweep.
    num_states:
        Haar-random input states per entanglement level.
    candidate_budgets:
        The static arm's increasing budget grid (the repo's pre-adaptive
        shots-to-target methodology).
    max_rounds:
        Adaptive round limit per instance.
    planner:
        Adaptive per-round planner name.
    stderr_safety:
        Optional extra conservatism (in ``(0, 1]``) multiplying the shared
        standard-error criterion; 1.0 (the default) sizes both arms to
        exactly the equivalent-expected-error threshold.
    seed:
        Master seed for the workload and both arms.
    backend:
        Execution backend used to build the exact sampling models.
    """

    target_error: float = 0.05
    overlaps: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    num_states: int = 24
    candidate_budgets: tuple[int, ...] = (100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600)
    max_rounds: int = 16
    planner: str = "neyman"
    stderr_safety: float = 1.0
    seed: int = 77
    backend: str = "vectorized"

    def validate(self) -> None:
        """Raise :class:`ExperimentError` on invalid settings."""
        if self.target_error <= 0:
            raise ExperimentError("target_error must be positive")
        if not self.candidate_budgets or list(self.candidate_budgets) != sorted(
            self.candidate_budgets
        ):
            raise ExperimentError("candidate_budgets must be a non-empty increasing sequence")
        if self.num_states < 1:
            raise ExperimentError("num_states must be positive")
        if self.max_rounds < 1:
            raise ExperimentError("max_rounds must be positive")
        for f in self.overlaps:
            if not 0.5 <= f <= 1.0:
                raise ExperimentError(f"overlap {f} outside [0.5, 1.0]")
        if self.backend not in BACKEND_NAMES:
            raise ExperimentError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.planner not in PLANNER_NAMES:
            raise ExperimentError(
                f"unknown planner {self.planner!r}; expected one of {PLANNER_NAMES}"
            )
        if not 0.0 < self.stderr_safety <= 1.0:
            raise ExperimentError(
                f"stderr_safety must be in (0, 1], got {self.stderr_safety}"
            )


def _protocol_for_overlap(overlap: float):
    """Return the Theorem-2 protocol of one entanglement level."""
    if abs(overlap - 1.0) < 1e-12:
        return TeleportationWireCut()
    return NMEWireCut(k_from_overlap(overlap))


def _predicted_static_error(model: CutSamplingModel, budget: int) -> float:
    """Exact expected absolute error of one static estimate at ``budget`` shots.

    The static estimator's standard error is computable in closed form from
    the model's exact per-term outcome probabilities (``σ_j² = 4p_j(1−p_j)``)
    and the proportional allocation; the expected absolute error of the
    asymptotically normal estimator is then ``σ·√(2/π)``.  A term left
    without shots makes the error unbounded.
    """
    coefficients = np.array([t.coefficient for t in model.terms])
    sigmas_sq = np.array([4.0 * t.probability_plus * (1.0 - t.probability_plus) for t in model.terms])
    shots_per_term = allocate_shots(model.probabilities, int(budget))
    if np.any((shots_per_term == 0) & (np.abs(coefficients) > 0)):
        return float("inf")
    variance = float(np.sum(coefficients**2 * sigmas_sq / np.maximum(shots_per_term, 1)))
    return float(np.sqrt(variance) / ABS_ERROR_TO_STDERR)


def adaptive_vs_static_sweep(
    config: AdaptiveSweepConfig | None = None, seed: SeedLike = None
) -> SweepTable:
    """Compare static and adaptive shots-to-target on the Figure-6 workload.

    Per entanglement level the static arm searches the candidate-budget
    grid for the smallest per-state budget whose exactly predicted mean
    error over the workload meets the target; the adaptive arm runs the
    streaming engine per state with the equivalent standard-error target
    and records the shots it actually spent.  Both arms draw from the same
    exact sampling models, so the comparison isolates the allocation
    policy.

    Returns
    -------
    SweepTable
        One row per entanglement level (static/adaptive shots per state,
        measured errors, convergence fraction, savings) with sweep totals
        in the metadata.
    """
    config = config or AdaptiveSweepConfig()
    config.validate()
    rng = as_generator(config.seed if seed is None else seed)
    workload = random_single_qubit_states(config.num_states, seed=rng)
    circuits = [state_preparation_circuit(unitary) for unitary in workload.unitaries]
    locations = [CutLocation(0, len(circuit)) for circuit in circuits]
    stderr_target = config.target_error * ABS_ERROR_TO_STDERR * config.stderr_safety
    budget_ceiling = int(config.candidate_budgets[-1])

    columns: dict[str, list] = {
        "overlap_f": [],
        "kappa": [],
        "static_shots_per_state": [],
        "static_mean_error": [],
        "adaptive_shots_per_state": [],
        "adaptive_mean_error": [],
        "adaptive_stderr_max": [],
        "adaptive_rounds_mean": [],
        "converged_fraction": [],
        "savings_fraction": [],
    }
    total_static = 0
    total_adaptive = 0
    protocols = [_protocol_for_overlap(overlap) for overlap in config.overlaps]
    models_per_overlap = build_sampling_models(
        circuits, locations, protocols, "Z", backend=config.backend
    )
    for overlap, protocol, models in zip(config.overlaps, protocols, models_per_overlap):

        # Static arm: the repo's pre-adaptive methodology — one budget for
        # the whole workload, from the doubling grid.  The selection uses
        # the *predicted* mean error (exact, from the model variances), so
        # the chosen budget is deterministic rather than a lucky draw; the
        # measured error at that budget is reported alongside.
        static_budget = -1
        static_error = float("nan")
        for budget in config.candidate_budgets:
            predicted = float(
                np.mean([_predicted_static_error(model, int(budget)) for model in models])
            )
            if predicted <= config.target_error:
                static_budget = int(budget)
                break
        if static_budget > 0:
            errors = [
                abs(model.estimate(static_budget, seed=rng).value - model.exact_value)
                for model in models
            ]
            static_error = float(np.mean(errors))

        # Adaptive arm: per-instance streaming engine at the equivalent
        # standard-error target, hard-capped by the grid's largest budget.
        adaptive_shots = []
        adaptive_errors = []
        adaptive_stderrs = []
        adaptive_rounds = []
        converged = 0
        for model, child in zip(models, spawn_seed_sequences(rng, len(models))):
            result = model.estimate_adaptive(
                budget_ceiling,
                stderr_target,
                rounds=config.max_rounds,
                planner=config.planner,
                seed=child,
            )
            adaptive_shots.append(result.total_shots)
            adaptive_errors.append(abs(result.value - model.exact_value))
            adaptive_stderrs.append(result.standard_error)
            adaptive_rounds.append(len(result.rounds))
            converged += bool(result.converged)

        static_total = static_budget * config.num_states if static_budget > 0 else -1
        adaptive_total = int(np.sum(adaptive_shots))
        if static_total > 0:
            total_static += static_total
            total_adaptive += adaptive_total
            savings = 1.0 - adaptive_total / static_total
        else:
            savings = float("nan")
        columns["overlap_f"].append(float(overlap))
        columns["kappa"].append(float(protocol.kappa))
        columns["static_shots_per_state"].append(int(static_budget))
        columns["static_mean_error"].append(static_error)
        columns["adaptive_shots_per_state"].append(float(np.mean(adaptive_shots)))
        columns["adaptive_mean_error"].append(float(np.mean(adaptive_errors)))
        columns["adaptive_stderr_max"].append(float(np.max(adaptive_stderrs)))
        columns["adaptive_rounds_mean"].append(float(np.mean(adaptive_rounds)))
        columns["converged_fraction"].append(float(converged / len(models)))
        columns["savings_fraction"].append(float(savings))

    return SweepTable(
        name="adaptive_vs_static_shots_to_target",
        columns=columns,
        metadata={
            "target_error": config.target_error,
            "stderr_target": stderr_target,
            "num_states": config.num_states,
            "seed": config.seed,
            "backend": config.backend,
            "planner": config.planner,
            "total_static_shots": int(total_static),
            "total_adaptive_shots": int(total_adaptive),
            "total_savings_fraction": (
                float(1.0 - total_adaptive / total_static) if total_static > 0 else None
            ),
        },
    )
