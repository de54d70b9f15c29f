"""Per-shot trajectory sampling: the statistical oracle of exact sampling.

Every backend samples a circuit's shots with one multinomial draw over its
exact outcome distribution.  This module keeps the independent way of
getting the same statistics: every shot is simulated as its own statevector
trajectory with real mid-circuit collapse, classical feed-forward, reset and
initialize.  It makes no structural assumption about the circuit, so the
tests of ``tests/circuits/test_shot_sampling.py`` check the backends'
counts against it within sampling error.

Import it as ``from utils.trajectory_reference import ...`` inside ``tests/``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.counts import Counts
from repro.circuits.instruction import BARRIER, GATE, INITIALIZE, MEASURE, RESET
from repro.quantum.states import Statevector
from repro.utils.rng import SeedLike, as_generator

__all__ = ["TrajectorySimulator"]


def _preparation_unitary(target: np.ndarray) -> np.ndarray:
    """Return a unitary whose first column is ``target`` (maps ``|0..0⟩`` to it)."""
    target = np.asarray(target, dtype=complex).ravel()
    dim = target.shape[0]
    # Complete `target` to an orthonormal basis with a QR decomposition of a
    # matrix whose first column is the target vector.
    matrix = np.eye(dim, dtype=complex)
    matrix[:, 0] = target
    q, _ = np.linalg.qr(matrix)
    # QR may flip the phase of the first column; correct it so q[:,0] == target.
    phase = np.vdot(q[:, 0], target)
    q[:, 0] = q[:, 0] * (phase / abs(phase)) if abs(phase) > 1e-12 else target
    # Re-orthonormalise defensively (numerically q is already unitary).
    return q


class TrajectorySimulator:
    """Samples circuits shot by shot, one statevector trajectory per shot."""

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: SeedLike = None,
        initial_state: Statevector | np.ndarray | None = None,
    ) -> Counts:
        """Execute ``circuit`` for ``shots`` shots and return outcome counts.

        The counts keys are classical-register bitstrings with clbit 0 as the
        leftmost character.
        """
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        if circuit.num_clbits == 0:
            raise SimulationError("circuit has no classical bits to sample")
        if shots == 0:
            return Counts({}, num_clbits=circuit.num_clbits)
        rng = as_generator(seed)
        counts: dict[str, int] = {}
        for _ in range(shots):
            clbits = self._run_single_trajectory(circuit, rng, initial_state)
            key = "".join(str(b) for b in clbits)
            counts[key] = counts.get(key, 0) + 1
        return Counts(counts, num_clbits=circuit.num_clbits)

    def _run_single_trajectory(
        self,
        circuit: QuantumCircuit,
        rng: np.random.Generator,
        initial_state: Statevector | np.ndarray | None,
    ) -> list[int]:
        num_qubits = circuit.num_qubits
        if initial_state is None:
            state = Statevector.zero_state(num_qubits)
        else:
            state = (
                initial_state
                if isinstance(initial_state, Statevector)
                else Statevector(initial_state)
            )
            if state.num_qubits != num_qubits:
                raise SimulationError(
                    f"initial state has {state.num_qubits} qubits, circuit has {num_qubits}"
                )
        clbits = [0] * circuit.num_clbits

        for instruction in circuit.instructions:
            if instruction.kind == BARRIER:
                continue
            if instruction.condition is not None:
                clbit, value = instruction.condition
                if clbits[clbit] != value:
                    continue
            if instruction.kind == GATE:
                state = state.evolve(instruction.matrix, instruction.qubits)
            elif instruction.kind == MEASURE:
                outcome, state = self._measure_qubit(state, instruction.qubits[0], rng)
                clbits[instruction.clbits[0]] = outcome
            elif instruction.kind == RESET:
                outcome, state = self._measure_qubit(state, instruction.qubits[0], rng)
                if outcome == 1:
                    state = state.evolve(np.array([[0, 1], [1, 0]], dtype=complex), [instruction.qubits[0]])
            elif instruction.kind == INITIALIZE:
                state = self._initialize(state, instruction, rng)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unsupported instruction kind {instruction.kind!r}")
        return clbits

    @staticmethod
    def _measure_qubit(
        state: Statevector, qubit: int, rng: np.random.Generator
    ) -> tuple[int, Statevector]:
        """Sample a computational-basis measurement of one qubit and collapse."""
        num_qubits = state.num_qubits
        tensor = state.data.reshape([2] * num_qubits)
        # Probability of outcome 1: sum of |amplitudes|² where the qubit index is 1.
        amplitudes_one = np.take(tensor, 1, axis=qubit)
        p_one = float(np.sum(np.abs(amplitudes_one) ** 2))
        outcome = 1 if rng.random() < p_one else 0
        probability = p_one if outcome == 1 else 1.0 - p_one
        if probability <= 0:
            # Numerically impossible branch; keep the state unchanged.
            return outcome, state
        collapsed = np.zeros_like(tensor)
        index = [slice(None)] * num_qubits
        index[qubit] = outcome
        collapsed[tuple(index)] = np.take(tensor, outcome, axis=qubit)
        collapsed = collapsed / np.sqrt(probability)
        return outcome, Statevector(collapsed.reshape(-1), validate=False)

    def _initialize(
        self, state: Statevector, instruction, rng: np.random.Generator
    ) -> Statevector:
        """Reset the target qubits and prepare the requested pure state on them."""
        x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
        for qubit in instruction.qubits:
            outcome, state = self._measure_qubit(state, qubit, rng)
            if outcome == 1:
                state = state.evolve(x_gate, [qubit])
        preparation = _preparation_unitary(instruction.matrix)
        return state.evolve(preparation, instruction.qubits)
