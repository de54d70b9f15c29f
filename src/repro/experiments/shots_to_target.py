"""Shots required to reach a target accuracy — the κ² law made explicit.

The paper's cost statement is that estimating an expectation value to
additive error ε through a QPD needs ``O(κ²/ε²)`` shots, so the *ratio* of
shot requirements between two protocols at the same ε is the square of their
κ ratio (e.g. 9× between plain wire cutting and teleportation).  This module
measures that relation directly: for each entanglement level it searches the
smallest shot budget whose average error over a random-state workload drops
below the target, and compares the measured budget ratios with κ².
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ExperimentError
from repro.circuits.backends import BACKEND_NAMES
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import build_sampling_models
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from repro.experiments.records import SweepTable
from repro.experiments.workloads import random_single_qubit_states, state_preparation_circuit
from repro.quantum.bell import k_from_overlap
from repro.utils.rng import SeedLike, as_generator

__all__ = ["ShotsToTargetConfig", "shots_to_target_error"]


@dataclass(frozen=True)
class ShotsToTargetConfig:
    """Configuration of the shots-to-target-accuracy sweep.

    Attributes
    ----------
    target_error:
        Mean absolute error the estimate must reach.
    overlaps:
        Entanglement levels to evaluate.
    num_states:
        Number of Haar-random input states averaged per candidate budget.
    candidate_budgets:
        Increasing shot budgets to test; the first whose measured mean error
        is below the target is reported (``None`` when none suffices).
    seed:
        Master seed.
    backend:
        Execution backend used to build the exact sampling models.
    """

    target_error: float = 0.05
    overlaps: tuple[float, ...] = (0.5, 0.7, 0.9, 1.0)
    num_states: int = 40
    candidate_budgets: tuple[int, ...] = (100, 200, 400, 800, 1600, 3200, 6400, 12800)
    seed: int = 77
    backend: str = "vectorized"

    def validate(self) -> None:
        """Raise :class:`ExperimentError` on invalid settings."""
        if self.target_error <= 0:
            raise ExperimentError("target_error must be positive")
        if not self.candidate_budgets or list(self.candidate_budgets) != sorted(self.candidate_budgets):
            raise ExperimentError("candidate_budgets must be a non-empty increasing sequence")
        if self.num_states < 1:
            raise ExperimentError("num_states must be positive")
        for f in self.overlaps:
            if not 0.5 <= f <= 1.0:
                raise ExperimentError(f"overlap {f} outside [0.5, 1.0]")
        if self.backend not in BACKEND_NAMES:
            raise ExperimentError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )


def shots_to_target_error(
    config: ShotsToTargetConfig | None = None, seed: SeedLike = None
) -> SweepTable:
    """Measure the shot budget needed per entanglement level to reach the target error.

    The exact sampling models of every entanglement level come from one
    :func:`~repro.cutting.executor.build_sampling_models` call, and per
    model the whole candidate-budget grid is evaluated with one batched
    binomial draw (:meth:`~repro.cutting.executor.CutSamplingModel.estimate_sweep`).

    .. note::
        The batched draws consume the shared RNG stream in a different
        order than a per-budget loop would (the metadata records
        ``method = "batched_estimate_sweep"`` to mark this stream layout).

    Returns a table with, per entanglement level: κ, the measured minimal
    budget (or -1 when no candidate sufficed), the κ²-law prediction relative
    to the teleportation baseline, and the measured error at the selected
    budget.
    """
    config = config or ShotsToTargetConfig()
    config.validate()
    rng = as_generator(config.seed if seed is None else seed)
    workload = random_single_qubit_states(config.num_states, seed=rng)

    circuits = [state_preparation_circuit(unitary) for unitary in workload.unitaries]
    locations = [CutLocation(0, len(circuit)) for circuit in circuits]
    protocols = [
        TeleportationWireCut() if abs(overlap - 1.0) < 1e-12 else NMEWireCut(k_from_overlap(overlap))
        for overlap in config.overlaps
    ]
    kappas = {overlap: protocol.kappa for overlap, protocol in zip(config.overlaps, protocols)}
    models_per_overlap = dict(
        zip(
            config.overlaps,
            build_sampling_models(circuits, locations, protocols, "Z", backend=config.backend),
        )
    )

    baseline_kappa = min(kappas.values())
    columns: dict[str, list] = {
        "overlap_f": [],
        "kappa": [],
        "shots_needed": [],
        "measured_error": [],
        "relative_shots_predicted": [],
    }
    budgets = list(config.candidate_budgets)
    for overlap in config.overlaps:
        models = models_per_overlap[overlap]
        errors = np.zeros((len(models), len(budgets)))
        for model_index, model in enumerate(models):
            values, _ = model.estimate_sweep(budgets, seed=rng)
            errors[model_index] = np.abs(values - model.exact_value)
        mean_errors = errors.mean(axis=0)
        selected_budget = -1
        selected_error = float("nan")
        for budget, mean_error in zip(budgets, mean_errors):
            if mean_error <= config.target_error:
                selected_budget = int(budget)
                selected_error = float(mean_error)
                break
        columns["overlap_f"].append(float(overlap))
        columns["kappa"].append(kappas[overlap])
        columns["shots_needed"].append(int(selected_budget))
        columns["measured_error"].append(selected_error)
        columns["relative_shots_predicted"].append(float((kappas[overlap] / baseline_kappa) ** 2))
    return SweepTable(
        name="shots_to_target_error",
        columns=columns,
        metadata={
            "target_error": config.target_error,
            "num_states": config.num_states,
            "seed": config.seed,
            "backend": config.backend,
            "method": "batched_estimate_sweep",
        },
    )
