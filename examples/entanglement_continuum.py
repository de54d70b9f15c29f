"""The continuum between wire cutting and teleportation.

Run with ``python examples/entanglement_continuum.py``.

Sweeps the resource entanglement f(Φ_k) from 0.5 (no entanglement: plain
wire cutting) to 1.0 (maximal entanglement: teleportation) and reports, for
each level:

* the optimal sampling overhead γ (Theorem 1 / Corollary 1),
* the shot multiplier γ² for a fixed target accuracy,
* the expected number of pre-shared entangled pairs consumed per shot,
* the measured error of a fixed-budget estimate on a random-state workload.

This is the trade-off the paper's conclusion highlights: entanglement is a
resource that can be traded against shots.
"""

import numpy as np

from repro.cutting import CutLocation, NMEWireCut, TeleportationWireCut, build_sampling_models
from repro.cutting.overhead import expected_pairs_per_shot, optimal_overhead
from repro.experiments import random_single_qubit_states, state_preparation_circuit
from repro.quantum import k_from_overlap

SHOTS = 2000
NUM_STATES = 40
SEED = 31


def main() -> None:
    overlaps = np.linspace(0.5, 1.0, 11)
    workload = random_single_qubit_states(NUM_STATES, seed=SEED)

    print(f"{NUM_STATES} random states, {SHOTS} shots per estimate\n")
    print(
        f"{'f(Phi_k)':>9}{'k':>9}{'gamma':>9}{'gamma^2':>9}"
        f"{'pairs/shot':>12}{'mean error':>12}"
    )
    print("-" * 60)

    circuits = [state_preparation_circuit(unitary) for unitary in workload.unitaries]
    locations = [CutLocation(0, len(circuit)) for circuit in circuits]
    protocols = [
        TeleportationWireCut() if overlap >= 1.0 else NMEWireCut(k_from_overlap(float(overlap)))
        for overlap in overlaps
    ]
    all_models = build_sampling_models(circuits, locations, protocols, "Z")

    rng = np.random.default_rng(SEED)
    for overlap, models in zip(overlaps, all_models):
        k = k_from_overlap(float(overlap))
        errors = []
        for model in models:
            result = model.estimate(SHOTS, seed=rng)
            errors.append(abs(result.value - model.exact_value))
        pairs = 1.0 if overlap >= 1.0 else expected_pairs_per_shot(k)
        print(
            f"{overlap:>9.2f}{k:>9.3f}{optimal_overhead(float(overlap)):>9.3f}"
            f"{optimal_overhead(float(overlap))**2:>9.3f}{pairs:>12.3f}"
            f"{np.mean(errors):>12.4f}"
        )

    print(
        "\nAs f grows the overhead falls from 3 to 1 and the error at a fixed "
        "budget shrinks, while the protocol consumes more entangled pairs per shot."
    )


if __name__ == "__main__":
    main()
