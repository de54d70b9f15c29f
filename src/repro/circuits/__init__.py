"""Circuit model and simulators (the Qiskit / Qiskit Aer replacement).

Public API
----------
:class:`QuantumCircuit`
    Gate-level circuit IR with mid-circuit measurement, classical
    conditioning, reset and state initialisation.
:class:`StatevectorSimulator`
    Exact statevector simulation of unitary circuits.
:class:`DensityMatrixSimulator`
    Exact simulation of the full instruction set with per-classical-branch
    density matrices.
:class:`Counts`
    Outcome histograms.
:class:`SimulatorBackend` implementations
    Batched execution of circuit collections (serial, vectorized,
    process-pool) behind one interface, and the only place shots are
    sampled; see :mod:`repro.circuits.backends`.

Every simulator and backend applies gates with the axis-local tensor
contractions of :mod:`repro.circuits.kernels`.
"""

from repro.circuits.backends import (
    BACKEND_NAMES,
    DistributionCache,
    ProcessPoolBackend,
    SerialBackend,
    SimulatorBackend,
    VectorizedBackend,
    circuit_fingerprint,
    default_distribution_cache,
    resolve_backend,
)
from repro.circuits.batched_simulator import BatchedDensityMatrixSimulator, structure_signature
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.counts import Counts
from repro.circuits.drawer import draw
from repro.circuits.density_matrix_simulator import (
    Branch,
    BranchedResult,
    DensityMatrixSimulator,
    simulate_density_matrix,
)
from repro.circuits.expectation import (
    exact_expectation,
    measurement_basis_change,
    sampled_pauli_expectation,
)
from repro.circuits.instruction import Instruction
from repro.circuits.kernels import clear_prepared_cache, prepared_cache_info
from repro.circuits.serialization import circuit_from_payload, circuit_to_payload
from repro.circuits.statevector_simulator import StatevectorSimulator, simulate_statevector

__all__ = [
    "QuantumCircuit",
    "Instruction",
    "Counts",
    "draw",
    "StatevectorSimulator",
    "simulate_statevector",
    "DensityMatrixSimulator",
    "simulate_density_matrix",
    "BranchedResult",
    "Branch",
    "exact_expectation",
    "sampled_pauli_expectation",
    "measurement_basis_change",
    "SimulatorBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ProcessPoolBackend",
    "DistributionCache",
    "default_distribution_cache",
    "circuit_fingerprint",
    "circuit_to_payload",
    "circuit_from_payload",
    "resolve_backend",
    "BACKEND_NAMES",
    "BatchedDensityMatrixSimulator",
    "structure_signature",
    "prepared_cache_info",
    "clear_prepared_cache",
]
