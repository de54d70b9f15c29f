"""Wire-cutting protocols, cutter, planner, executors and extensions.

The central class is :class:`NMEWireCut` (the paper's Theorem 2); the
baselines are :class:`HaradaWireCut` (optimal entanglement-free cut, κ=3),
:class:`PengWireCut` (original Pauli-basis cut, κ=4) and
:class:`TeleportationWireCut` (maximally entangled resource, κ=1).

Cut *planning* (:func:`plan_cuts` / :func:`find_time_slice_cuts`) and the
multi-wire tensor-product builder (:mod:`repro.cutting.multi_wire`) are the
stages :class:`repro.pipeline.CutPipeline` composes.  Every estimator spends
its shots through one term executor (:func:`execute_terms`) over one of two
round sources: :class:`BackendRoundExecutor` (simulated term circuits) or
:class:`BinomialRoundSource` (exact per-term ``p₊`` values).
"""

from repro.cutting.base import GadgetWiring, WireCutProtocol, WireCutTerm
from repro.cutting.cutter import CutLocation, CutTermCircuit, build_cut_circuits, cut_wire
from repro.cutting.executor import (
    ESTIMATION_MODES,
    BackendRoundExecutor,
    BinomialRoundSource,
    CutExpectationResult,
    CutSamplingModel,
    TermSamplingModel,
    build_sampling_model,
    build_sampling_models,
    cut_expectation_value,
    estimate_cut_expectation,
    exact_cut_expectation,
    execute_terms,
    sampling_models_from_instances,
)
from repro.cutting.instances import (
    FragmentInstance,
    InstanceStats,
    InstanceTable,
    SplitGadget,
    build_instance_table,
    instance_support_reason,
    split_wire_cut_term,
    supports_instance_dedup,
)
from repro.cutting.gate_cutting import (
    CZGateCut,
    GateCutProtocol,
    GateCutTerm,
    ZZGateCut,
    build_gate_cut_circuits,
    estimate_gate_cut_expectation,
)
from repro.cutting.multi_wire import (
    MultiCutTermCircuit,
    build_multi_cut_circuits,
    estimate_multi_cut_expectation,
    independent_cuts_decomposition,
)
from repro.cutting.nme_cut import NMEWireCut, nme_coefficients
from repro.cutting.noise import (
    effective_cut_superoperator,
    noisy_phi_k,
    noisy_resource_overhead,
    reconstruction_bias,
    validate_noise_strength,
    worst_case_z_bias,
)
from repro.cutting.overhead import (
    expected_pairs_per_shot,
    harada_overhead,
    k_for_target_overhead,
    multi_wire_independent_overhead,
    multi_wire_joint_overhead,
    nme_overhead,
    optimal_overhead,
    optimal_overhead_for_state,
    overhead_reduction_factor,
    overlap_for_target_overhead,
    pairs_proportionality_constant,
    peng_overhead,
    shots_multiplier,
    teleportation_overhead,
)
from repro.cutting.cut_finding import (
    CutPlan,
    Fragment,
    MultiCutPlan,
    find_time_slice_cuts,
    fragment_widths,
    plan_cuts,
    plan_from_locations,
    plan_from_positions,
)
from repro.cutting.peng_cut import PengWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from repro.cutting.virtual_distillation import DistilledTeleportWireCut, virtual_bell_decomposition

__all__ = [
    # protocol classes
    "WireCutProtocol",
    "WireCutTerm",
    "GadgetWiring",
    "NMEWireCut",
    "HaradaWireCut",
    "PengWireCut",
    "TeleportationWireCut",
    "nme_coefficients",
    # cutter / executor
    "CutLocation",
    "CutTermCircuit",
    "build_cut_circuits",
    "cut_wire",
    "CutExpectationResult",
    "ESTIMATION_MODES",
    "execute_terms",
    "BackendRoundExecutor",
    "BinomialRoundSource",
    "estimate_cut_expectation",
    "cut_expectation_value",
    "exact_cut_expectation",
    "build_sampling_model",
    "build_sampling_models",
    "CutSamplingModel",
    "TermSamplingModel",
    # overheads
    "optimal_overhead",
    "optimal_overhead_for_state",
    "nme_overhead",
    "harada_overhead",
    "peng_overhead",
    "teleportation_overhead",
    "shots_multiplier",
    "expected_pairs_per_shot",
    "pairs_proportionality_constant",
    "overhead_reduction_factor",
    "k_for_target_overhead",
    "overlap_for_target_overhead",
    "multi_wire_joint_overhead",
    "multi_wire_independent_overhead",
    # gate cutting
    "GateCutProtocol",
    "GateCutTerm",
    "ZZGateCut",
    "CZGateCut",
    "build_gate_cut_circuits",
    "estimate_gate_cut_expectation",
    # multi-wire
    "MultiCutTermCircuit",
    "build_multi_cut_circuits",
    "estimate_multi_cut_expectation",
    "independent_cuts_decomposition",
    # instance dedup
    "SplitGadget",
    "split_wire_cut_term",
    "instance_support_reason",
    "supports_instance_dedup",
    "FragmentInstance",
    "InstanceStats",
    "InstanceTable",
    "build_instance_table",
    "sampling_models_from_instances",
    # virtual distillation (Appendix B construction)
    "virtual_bell_decomposition",
    "DistilledTeleportWireCut",
    # automatic cut finding
    "CutPlan",
    "Fragment",
    "MultiCutPlan",
    "find_time_slice_cuts",
    "fragment_widths",
    "plan_cuts",
    "plan_from_locations",
    "plan_from_positions",
    # noise extension
    "validate_noise_strength",
    "noisy_phi_k",
    "noisy_resource_overhead",
    "effective_cut_superoperator",
    "reconstruction_bias",
    "worst_case_z_bias",
]
