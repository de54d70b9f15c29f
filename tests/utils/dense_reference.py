"""Full-space reference simulators: the equivalence oracle of the einsum kernels.

Every production simulator applies gates with the axis-local kernels of
:mod:`repro.circuits.kernels`.  This module keeps the original full-space
arithmetic, in which each operator is embedded into ``2^n × 2^n`` with
:func:`~repro.utils.linalg.expand_operator` and applied with dense matmuls,
as the oracle the property suites and ``benchmarks/bench_kernels.py`` check
the kernels against:

* :class:`DenseDensityMatrixSimulator` is a
  :class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`
  whose four instruction handlers (gate with its gate-noise hook, measure,
  reset, initialize) are the full-space ones; branching, pruning and result
  assembly are inherited unchanged.
* :func:`dense_statevector` evolves a unitary circuit with full-space
  matrix-vector products.

Import it as ``from utils.dense_reference import ...`` inside ``tests/`` (the
suite conftest puts ``tests/`` on the path) and as
``from tests.utils.dense_reference import ...`` from ``benchmarks/``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.instruction import BARRIER, GATE, MEASURE
from repro.exceptions import SimulationError
from repro.quantum.states import Statevector
from repro.utils.linalg import expand_operator

__all__ = [
    "DenseDensityMatrixSimulator",
    "dense_statevector",
    "expanded_projectors",
    "expanded_reset_kraus",
    "local_initialize_kraus",
]


@lru_cache(maxsize=256)
def expanded_projectors(qubit: int, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the full-space ``(P₀, P₁)`` projectors for one qubit, memoised.

    The returned arrays are shared — callers must not mutate them.
    """
    p0 = expand_operator(np.diag([1.0, 0.0]).astype(complex), [qubit], num_qubits)
    p1 = expand_operator(np.diag([0.0, 1.0]).astype(complex), [qubit], num_qubits)
    return p0, p1


@lru_cache(maxsize=256)
def expanded_reset_kraus(qubit: int, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the full-space reset Kraus pair ``(K₀, K₁)`` for one qubit, memoised.

    ``K₀ = |0⟩⟨0|`` and ``K₁ = |0⟩⟨1|`` on the target qubit.  The arrays are
    shared and must not be mutated.
    """
    k0 = expand_operator(np.array([[1, 0], [0, 0]], dtype=complex), [qubit], num_qubits)
    k1 = expand_operator(np.array([[0, 1], [0, 0]], dtype=complex), [qubit], num_qubits)
    return k0, k1


def local_initialize_kraus(target: np.ndarray) -> list[np.ndarray]:
    """Return the local reset-to-state Kraus family ``|target⟩⟨j|``.

    Each operator is written column-by-column — no ``dim × dim`` identity is
    materialised to pick out the basis bras.
    """
    target = np.asarray(target, dtype=complex).ravel()
    dim = target.shape[0]
    operators = []
    for j in range(dim):
        kraus = np.zeros((dim, dim), dtype=complex)
        kraus[:, j] = target
        operators.append(kraus)
    return operators


class DenseDensityMatrixSimulator(DensityMatrixSimulator):
    """:class:`DensityMatrixSimulator` with full-space instruction handlers."""

    def _apply_gate(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubits = list(instruction.qubits)
        kraus_local = None
        if self._gate_noise is not None:
            kraus_local = self._gate_noise(instruction)
        unitary = expand_operator(instruction.matrix, qubits, num_qubits)
        unitary_dag = unitary.conj().T
        kraus_full = (
            None
            if kraus_local is None
            else [
                expand_operator(np.asarray(k, dtype=complex), qubits, num_qubits)
                for k in kraus_local
            ]
        )
        updated: dict[tuple[int, ...], np.ndarray] = {}
        for clbits, matrix in branches.items():
            if instruction.condition is not None:
                clbit, value = instruction.condition
                if clbits[clbit] != value:
                    updated[clbits] = matrix
                    continue
            evolved = unitary @ matrix @ unitary_dag
            if kraus_full is not None:
                evolved = sum(k @ evolved @ k.conj().T for k in kraus_full)
            updated[clbits] = evolved
        return updated

    def _apply_measure(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubit = instruction.qubits[0]
        clbit = instruction.clbits[0]
        p0, p1 = expanded_projectors(qubit, num_qubits)
        updated: dict[tuple[int, ...], np.ndarray] = {}
        for clbits, matrix in branches.items():
            pieces = (p0 @ matrix @ p0, p1 @ matrix @ p1)
            for outcome, piece in enumerate(pieces):
                if np.trace(piece).real <= 1e-16:
                    continue
                new_clbits = list(clbits)
                new_clbits[clbit] = outcome
                key = tuple(new_clbits)
                updated[key] = updated.get(key, 0) + piece
        return updated

    def _apply_reset(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubit = instruction.qubits[0]
        # Reset channel: K0 = |0><0|, K1 = |0><1| on the target qubit.
        k0, k1 = expanded_reset_kraus(qubit, num_qubits)
        updated: dict[tuple[int, ...], np.ndarray] = {}
        for clbits, matrix in branches.items():
            updated[clbits] = k0 @ matrix @ k0.conj().T + k1 @ matrix @ k1.conj().T
        return updated

    def _apply_initialize(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubits = list(instruction.qubits)
        target = np.asarray(instruction.matrix, dtype=complex).ravel()
        kraus_local = local_initialize_kraus(target)
        kraus_full = [expand_operator(k, qubits, num_qubits) for k in kraus_local]
        updated: dict[tuple[int, ...], np.ndarray] = {}
        for clbits, matrix in branches.items():
            updated[clbits] = sum(k @ matrix @ k.conj().T for k in kraus_full)
        return updated


def dense_statevector(circuit: QuantumCircuit) -> Statevector:
    """Return the final statevector of a unitary ``circuit`` from ``|0…0⟩``.

    Each gate is a full-space matrix-vector product.  Measurements are
    skipped, as :class:`~repro.circuits.statevector_simulator.StatevectorSimulator`
    skips trailing ones.
    """
    num_qubits = circuit.num_qubits
    state = Statevector.zero_state(num_qubits).data
    for instruction in circuit.instructions:
        if instruction.kind in (BARRIER, MEASURE):
            continue
        if instruction.kind != GATE or instruction.is_conditional:
            raise SimulationError(f"dense_statevector cannot execute {instruction.kind!r}")
        full = expand_operator(
            np.asarray(instruction.matrix, dtype=complex), list(instruction.qubits), num_qubits
        )
        state = full @ state
    return Statevector(state, validate=False)
