"""Exact statevector simulation of measurement-free circuits.

The statevector simulator evolves an initial state through every gate of a
unitary circuit.  Circuits containing measurement, reset or initialize
instructions must use the density-matrix simulator or a backend instead — except
that *trailing* measurements are tolerated and simply ignored, which lets a
single circuit be reused for exact and sampled evaluation.

Gates run on the axis-local kernel of :mod:`repro.circuits.kernels`: the
statevector is viewed as a rank-``n`` tensor and each k-qubit gate is one
``(2^k × 2^k) @ (2^k × 2^{n-k})`` matmul on its target axes — O(2^n · 2^k)
per gate.  Gate matrices are memoised through the shared prepared-operator
LRU.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import BARRIER, GATE, MEASURE
from repro.circuits.kernels import (
    apply_unitary_statevector,
    prepare_operator,
    record_gate_application,
)
from repro.quantum.states import Statevector

__all__ = ["StatevectorSimulator", "simulate_statevector"]


class StatevectorSimulator:
    """Exact simulator for unitary circuits."""

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Statevector | np.ndarray | None = None,
    ) -> Statevector:
        """Return the final statevector of ``circuit``.

        Parameters
        ----------
        circuit:
            The circuit to simulate.  Only ``gate``/``barrier`` instructions
            (and trailing measurements, which are ignored) are supported.
        initial_state:
            Optional initial state; defaults to ``|0...0⟩``.
        """
        num_qubits = circuit.num_qubits
        state = self._initial_state(circuit, initial_state).data
        seen_measurement = False
        for instruction in circuit.instructions:
            if instruction.kind == BARRIER:
                continue
            if instruction.kind == MEASURE:
                seen_measurement = True
                continue
            if instruction.kind != GATE:
                raise SimulationError(
                    f"StatevectorSimulator cannot execute {instruction.kind!r} instructions; "
                    "use DensityMatrixSimulator or a SimulatorBackend"
                )
            if seen_measurement:
                raise SimulationError(
                    "circuit applies gates after measurement; use DensityMatrixSimulator "
                    "or a SimulatorBackend for mid-circuit measurement"
                )
            if instruction.is_conditional:
                raise SimulationError(
                    "classically conditioned gates require DensityMatrixSimulator or "
                    "a SimulatorBackend"
                )
            qubits = list(instruction.qubits)
            start = time.perf_counter()
            prepared = prepare_operator(instruction.matrix)
            state = apply_unitary_statevector(state, prepared, qubits, num_qubits)
            record_gate_application(len(qubits), time.perf_counter() - start)
        return Statevector(state, validate=False)

    @staticmethod
    def _initial_state(
        circuit: QuantumCircuit, initial_state: Statevector | np.ndarray | None
    ) -> Statevector:
        if initial_state is None:
            return Statevector.zero_state(circuit.num_qubits)
        state = initial_state if isinstance(initial_state, Statevector) else Statevector(initial_state)
        if state.num_qubits != circuit.num_qubits:
            raise SimulationError(
                f"initial state has {state.num_qubits} qubits, circuit has {circuit.num_qubits}"
            )
        return state


def simulate_statevector(
    circuit: QuantumCircuit,
    initial_state: Statevector | np.ndarray | None = None,
) -> Statevector:
    """Convenience wrapper: run :class:`StatevectorSimulator` on ``circuit``."""
    return StatevectorSimulator().run(circuit, initial_state)
