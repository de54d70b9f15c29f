"""Ablation experiments for the design choices catalogued in DESIGN.md.

Five ablations are provided, each returning a :class:`SweepTable`:

* :func:`allocation_strategy_ablation` — proportional vs multinomial vs
  uniform shot allocation for the NME cut (the paper uses proportional).
* :func:`protocol_error_comparison` — error versus shots for Peng (κ=4),
  Harada (κ=3), NME and teleportation on the same random-state workload,
  the "who wins" companion to Figure 6.
* :func:`gate_vs_wire_cut` — cutting a CZ gate versus cutting a wire next to
  it in a small layered circuit (the related-work trade-off); the wire cuts
  run through the :class:`~repro.pipeline.CutPipeline`.
* :func:`multi_cut_pipeline_ablation` — the κⁿ cost of cutting more wires:
  the same circuit split into 2 and 3 fragments through the pipeline, with
  and without entanglement assistance.
* :func:`noisy_resource_ablation` — systematic bias and Theorem-1 overhead
  when the NME pair is depolarised (the future-work direction).
"""

from __future__ import annotations

import numpy as np

from repro.cutting.cutter import CutLocation
from repro.cutting.executor import build_sampling_models
from repro.cutting.gate_cutting import CZGateCut, estimate_gate_cut_expectation
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.noise import (
    noisy_phi_k,
    noisy_resource_overhead,
    reconstruction_bias,
    validate_noise_strength,
)
from repro.cutting.peng_cut import PengWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from repro.experiments.records import SweepTable
from repro.experiments.workloads import (
    ghz_circuit,
    random_layered_circuit,
    random_single_qubit_states,
    state_preparation_circuit,
)
from repro.pipeline import CutPipeline
from repro.utils.rng import SeedLike, as_generator, spawn_generators

__all__ = [
    "allocation_strategy_ablation",
    "protocol_error_comparison",
    "gate_vs_wire_cut",
    "multi_cut_pipeline_ablation",
    "noisy_resource_ablation",
]


def _workload_models(workload, protocols) -> list[list]:
    """⟨Z⟩ sampling models of every workload state, cut at the end, per protocol."""
    circuits = [state_preparation_circuit(unitary) for unitary in workload.unitaries]
    locations = [CutLocation(0, len(circuit)) for circuit in circuits]
    return build_sampling_models(circuits, locations, protocols, "Z")


def allocation_strategy_ablation(
    num_states: int = 30,
    shots: int = 2000,
    overlap: float = 0.8,
    strategies: tuple[str, ...] = ("proportional", "multinomial", "uniform"),
    seed: SeedLike = 11,
) -> SweepTable:
    """Compare shot-allocation strategies at a fixed budget and entanglement level."""
    rng = as_generator(seed)
    workload = random_single_qubit_states(num_states, seed=rng)
    protocol = NMEWireCut.from_overlap(overlap)
    state_rngs = spawn_generators(rng, num_states)

    columns: dict[str, list] = {"strategy": [], "shots": [], "mean_error": [], "overlap_f": []}
    (models,) = _workload_models(workload, [protocol])
    for strategy in strategies:
        errors = []
        for model, state_rng in zip(models, state_rngs):
            result = model.estimate(shots, allocation=strategy, seed=state_rng)
            errors.append(abs(result.value - model.exact_value))
        columns["strategy"].append(strategy)
        columns["shots"].append(shots)
        columns["mean_error"].append(float(np.mean(errors)))
        columns["overlap_f"].append(float(overlap))
    return SweepTable(
        name="allocation_strategy_ablation",
        columns=columns,
        metadata={"num_states": num_states, "protocol": protocol.name, "seed": seed},
    )


def protocol_error_comparison(
    num_states: int = 30,
    shots: int = 2000,
    seed: SeedLike = 13,
) -> SweepTable:
    """Average error of all implemented single-wire protocols on the same workload."""
    rng = as_generator(seed)
    workload = random_single_qubit_states(num_states, seed=rng)
    protocols = [
        ("peng", PengWireCut()),
        ("harada", HaradaWireCut()),
        ("nme(f=0.7)", NMEWireCut.from_overlap(0.7)),
        ("nme(f=0.9)", NMEWireCut.from_overlap(0.9)),
        ("teleportation", TeleportationWireCut()),
    ]
    columns: dict[str, list] = {"protocol": [], "kappa": [], "shots": [], "mean_error": []}
    state_rngs = spawn_generators(rng, num_states)
    all_models = _workload_models(workload, [protocol for _, protocol in protocols])
    for (name, protocol), models in zip(protocols, all_models):
        errors = []
        for model, state_rng in zip(models, state_rngs):
            result = model.estimate(shots, seed=state_rng)
            errors.append(abs(result.value - model.exact_value))
        columns["protocol"].append(name)
        columns["kappa"].append(protocol.kappa)
        columns["shots"].append(shots)
        columns["mean_error"].append(float(np.mean(errors)))
    return SweepTable(
        name="protocol_error_comparison",
        columns=columns,
        metadata={"num_states": num_states, "seed": seed},
    )


def gate_vs_wire_cut(
    shots: int = 4000,
    seed: SeedLike = 17,
) -> SweepTable:
    """Cut the same small circuit by gate cutting and by wire cutting and compare errors.

    The circuit is a 2-qubit layered circuit whose single CZ makes the two
    qubits interact; the observable is ``ZZ``.
    """
    rng = as_generator(seed)
    circuit = random_layered_circuit(2, 1, seed=rng, two_qubit_gate="cz")
    # The entangling CZ is the last instruction of the single layer.
    cz_index = next(
        i for i, inst in enumerate(circuit.instructions) if inst.name == "cz"
    )
    observable = "ZZ"

    gate_result = estimate_gate_cut_expectation(
        circuit, cz_index, CZGateCut(), observable, shots=shots, seed=rng
    )
    wire_results = {}
    for name, protocol in (
        ("wire-harada", HaradaWireCut()),
        ("wire-nme(f=0.9)", NMEWireCut.from_overlap(0.9)),
    ):
        pipeline = CutPipeline(protocol=protocol)
        wire_results[name] = pipeline.run(
            circuit,
            observable,
            shots=shots,
            seed=rng,
            locations=[CutLocation(qubit=0, position=cz_index + 1)],
        )

    columns: dict[str, list] = {"method": [], "kappa": [], "error": [], "exact": []}
    columns["method"].append("gate-cut-cz")
    columns["kappa"].append(gate_result.kappa)
    columns["error"].append(gate_result.error)
    columns["exact"].append(gate_result.exact_value)
    for name, result in wire_results.items():
        columns["method"].append(name)
        columns["kappa"].append(result.kappa)
        columns["error"].append(result.error)
        columns["exact"].append(result.exact_value)
    return SweepTable(
        name="gate_vs_wire_cut",
        columns=columns,
        metadata={"shots": shots, "seed": seed, "observable": observable},
    )


def multi_cut_pipeline_ablation(
    num_qubits: int = 4,
    shots: int = 4000,
    max_fragment_widths: tuple[int, ...] = (3, 2),
    overlaps: tuple[float | None, ...] = (None, 0.9),
    seed: SeedLike = 21,
    backend: str = "vectorized",
) -> SweepTable:
    """Measure the κⁿ cost of cutting more wires through the pipeline.

    The same GHZ circuit is split under progressively tighter device-width
    constraints — each tighter width forces the
    :class:`~repro.pipeline.CutPipeline` planner to cut more wires and
    produce more fragments — and the resulting estimation error at a fixed
    shot budget is recorded with and without entanglement assistance.  The
    error growth with ``num_cuts`` makes the paper's exponential-overhead
    motivation directly observable in a table.

    Parameters
    ----------
    num_qubits:
        Size of the GHZ test circuit.
    shots:
        Shot budget per pipeline run.
    max_fragment_widths:
        Device widths to sweep (each must admit a valid plan).
    overlaps:
        Entanglement levels ``f(Φ_k)`` to sweep; ``None`` selects the
        entanglement-free κ=3 cut.
    seed:
        Seed for all sampling (one child stream per configuration).
    backend:
        Execution backend for the term-circuit batches.

    Returns
    -------
    SweepTable
        One row per (width, overlap) configuration.
    """
    circuit = ghz_circuit(num_qubits)
    observable = "Z" * num_qubits
    columns: dict[str, list] = {
        "max_width": [],
        "overlap_f": [],
        "num_cuts": [],
        "num_fragments": [],
        "num_terms": [],
        "kappa": [],
        "shots": [],
        "error": [],
    }
    configurations = [
        (width, overlap) for width in max_fragment_widths for overlap in overlaps
    ]
    rngs = spawn_generators(seed, len(configurations))
    for (width, overlap), rng in zip(configurations, rngs):
        pipeline = CutPipeline(
            max_fragment_width=width,
            entanglement_overlap=overlap,
            backend=backend,
        )
        result = pipeline.run(circuit, observable, shots=shots, seed=rng)
        decomposition = result.execution.decomposition
        columns["max_width"].append(int(width))
        columns["overlap_f"].append(float(overlap) if overlap is not None else 0.5)
        columns["num_cuts"].append(decomposition.plan_result.num_cuts)
        columns["num_fragments"].append(decomposition.plan_result.num_fragments)
        columns["num_terms"].append(decomposition.num_terms)
        columns["kappa"].append(result.kappa)
        columns["shots"].append(shots)
        columns["error"].append(result.error)
    return SweepTable(
        name="multi_cut_pipeline_ablation",
        columns=columns,
        metadata={"num_qubits": num_qubits, "seed": seed, "backend": backend},
    )


def noisy_resource_ablation(
    k: float = 0.5,
    noise_levels: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2),
) -> SweepTable:
    """Systematic bias and optimal overhead when the NME resource is depolarised."""
    noise_levels = tuple(
        validate_noise_strength(p, name="noise_levels entry") for p in noise_levels
    )
    columns: dict[str, list] = {
        "depolarizing_p": [],
        "bias_norm": [],
        "theorem1_overhead": [],
        "pure_overhead": [],
    }
    pure_overhead = NMEWireCut(k).kappa
    for p in noise_levels:
        resource = noisy_phi_k(k, p)
        columns["depolarizing_p"].append(float(p))
        columns["bias_norm"].append(reconstruction_bias(k, resource))
        columns["theorem1_overhead"].append(noisy_resource_overhead(resource))
        columns["pure_overhead"].append(pure_overhead)
    return SweepTable(
        name="noisy_resource_ablation", columns=columns, metadata={"k": k}
    )
