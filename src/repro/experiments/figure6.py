"""Reproduction of Figure 6: average error versus shots for varying entanglement.

The paper's experiment (Section IV):

* 1000 Haar-random single-qubit input states ``W|0⟩``,
* the wire carrying the state is cut with the Theorem-2 protocol using
  resource entanglement ``f(Φ_k) ∈ {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}``,
* the Pauli-Z expectation value of the transmitted qubit is estimated with a
  total shot budget of up to 5000 shots, distributed over the three
  subcircuits proportionally to the QPD coefficients,
* the figure reports the absolute error (Eq. 28) averaged over the input
  states, per shot budget and entanglement level.

The harness below evaluates exactly this.  Every (state, entanglement)
pair's exact per-term ``p₊`` comes from one
:func:`repro.cutting.executor.build_sampling_models` call per sweep: each
protocol's per-term Pauli transfer matrices are measured once (its term
circuits on four probe states, one batch through the configured execution
backend) and applied to every input state's Bloch vector, so no per-state
term circuit is built or simulated.  Estimates at each shot budget are then
produced by binomial sampling from those ``p₊``, which is statistically
identical to sampling the term circuits shot by shot and keeps the full paper-scale
configuration tractable on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.utils.rng import SeedLike, as_generator, spawn_generators

__all__ = ["Figure6Config", "Figure6Result", "run_figure6"]

#: The entanglement levels of the paper's Figure 6.
PAPER_OVERLAPS: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class Figure6Config:
    """Configuration of the Figure-6 sweep.

    The defaults are a scaled-down configuration that finishes in a few
    seconds (for tests and CI); :meth:`paper` returns the full configuration
    of the publication.
    """

    num_states: int = 50
    shot_grid: tuple[int, ...] = (250, 500, 1000, 2000, 4000)
    overlaps: tuple[float, ...] = PAPER_OVERLAPS
    allocation: str = "proportional"
    seed: int = 2024
    backend: str = "vectorized"

    @classmethod
    def paper(cls) -> "Figure6Config":
        """The full configuration of the paper (1000 states, shots up to 5000)."""
        return cls(
            num_states=1000,
            shot_grid=(250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000),
            overlaps=PAPER_OVERLAPS,
            allocation="proportional",
            seed=2024,
        )

    @classmethod
    def quick(cls) -> "Figure6Config":
        """A minimal configuration for smoke tests."""
        return cls(num_states=8, shot_grid=(200, 800), overlaps=(0.5, 0.8, 1.0), seed=7)

    def fingerprint(self) -> str:
        """Return a stable content hash of the sweep configuration.

        The CLI's ``--store`` flag keys cached result tables on this hash,
        so any change to the sweep parameters (states, shot grid, overlaps,
        allocation, seed) or to :data:`~repro._version.ENGINE_VERSION`
        forces a fresh run.  The execution backend is excluded: every
        backend produces bitwise-identical tables for the same seed, so
        results are shared across backends.
        """
        from repro._version import ENGINE_VERSION
        from repro.utils.serialization import payload_fingerprint

        return payload_fingerprint(
            {
                "experiment": "figure6",
                "engine_version": ENGINE_VERSION,
                "num_states": int(self.num_states),
                "shot_grid": [int(s) for s in self.shot_grid],
                "overlaps": [float(f) for f in self.overlaps],
                "allocation": self.allocation,
                "seed": int(self.seed),
            }
        )

    def validate(self) -> None:
        """Raise :class:`ExperimentError` on invalid settings."""
        if self.num_states < 1:
            raise ExperimentError("num_states must be positive")
        if not self.shot_grid or any(s <= 0 for s in self.shot_grid):
            raise ExperimentError("shot_grid must contain positive shot counts")
        for f in self.overlaps:
            if not 0.5 <= f <= 1.0:
                raise ExperimentError(f"overlap {f} outside [0.5, 1.0]")
        if self.backend not in BACKEND_NAMES:
            raise ExperimentError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )


@dataclass(frozen=True)
class Figure6Result:
    """Result of the Figure-6 sweep.

    Attributes
    ----------
    shot_grid:
        The evaluated total shot budgets.
    overlaps:
        The evaluated entanglement levels ``f(Φ_k)``.
    mean_errors:
        Array of shape ``(len(overlaps), len(shot_grid))`` with the average
        absolute error per series and shot budget.
    kappas:
        The sampling overhead κ per entanglement level.
    config:
        The configuration that produced the result.
    """

    shot_grid: tuple[int, ...]
    overlaps: tuple[float, ...]
    mean_errors: np.ndarray
    kappas: tuple[float, ...]
    config: Figure6Config = field(repr=False)

    def series(self, overlap: float) -> np.ndarray:
        """Return the error-versus-shots series for one entanglement level."""
        for index, value in enumerate(self.overlaps):
            if abs(value - overlap) < 1e-9:
                return self.mean_errors[index]
        raise ExperimentError(f"overlap {overlap} was not part of the sweep")

    def to_table(self) -> SweepTable:
        """Flatten the result into a :class:`SweepTable` (one row per (f, shots))."""
        columns: dict[str, list] = {"overlap_f": [], "kappa": [], "shots": [], "mean_error": []}
        for i, overlap in enumerate(self.overlaps):
            for j, shots in enumerate(self.shot_grid):
                columns["overlap_f"].append(float(overlap))
                columns["kappa"].append(float(self.kappas[i]))
                columns["shots"].append(int(shots))
                columns["mean_error"].append(float(self.mean_errors[i, j]))
        return SweepTable(
            name="figure6_error_vs_shots",
            columns=columns,
            metadata={
                "num_states": self.config.num_states,
                "allocation": self.config.allocation,
                "seed": self.config.seed,
                "backend": self.config.backend,
            },
        )

    def is_monotone_in_entanglement(self) -> bool:
        """Check the paper's qualitative claim: more entanglement → lower error.

        Compares the error averaged over the shot grid between consecutive
        entanglement levels (allowing small statistical fluctuations at the
        highest levels by averaging over all shot budgets).
        """
        averaged = self.mean_errors.mean(axis=1)
        return bool(np.all(np.diff(averaged) <= 1e-12 + 0.15 * averaged[:-1]))


def _protocol_for_overlap(overlap: float) -> NMEWireCut | TeleportationWireCut:
    if abs(overlap - 1.0) < 1e-12:
        return TeleportationWireCut()
    return NMEWireCut(k_from_overlap(overlap))


def run_figure6(config: Figure6Config | None = None, seed: SeedLike = None) -> Figure6Result:
    """Run the Figure-6 sweep and return the per-series average errors."""
    config = config or Figure6Config()
    config.validate()
    master_seed = config.seed if seed is None else seed
    rng = as_generator(master_seed)

    workload = random_single_qubit_states(config.num_states, seed=rng)
    state_rngs = spawn_generators(rng, config.num_states)

    mean_errors = np.zeros((len(config.overlaps), len(config.shot_grid)))
    kappas = []

    circuits = [state_preparation_circuit(unitary) for unitary in workload.unitaries]
    locations = [CutLocation(qubit=0, position=len(circuit)) for circuit in circuits]

    protocols = [_protocol_for_overlap(overlap) for overlap in config.overlaps]
    models_per_overlap = build_sampling_models(
        circuits, locations, protocols, observable="Z", backend=config.backend
    )
    for overlap_index, (protocol, models) in enumerate(zip(protocols, models_per_overlap)):
        kappas.append(protocol.kappa)
        errors = np.zeros((config.num_states, len(config.shot_grid)))
        for state_index, model in enumerate(models):
            values, _ = model.estimate_sweep(
                config.shot_grid, allocation=config.allocation, seed=state_rngs[state_index]
            )
            errors[state_index] = np.abs(values - model.exact_value)
        mean_errors[overlap_index] = errors.mean(axis=0)

    return Figure6Result(
        shot_grid=tuple(config.shot_grid),
        overlaps=tuple(config.overlaps),
        mean_errors=mean_errors,
        kappas=tuple(kappas),
        config=config,
    )
