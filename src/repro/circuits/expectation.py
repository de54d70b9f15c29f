"""Expectation-value helpers bridging circuits, observables and counts.

The paper's experiments estimate ``⟨Z⟩`` of the wire-cut qubit; these helpers
compute exact reference values (statevector / density-matrix simulation) and
sampled estimates (diagonalise the observable with a basis-change circuit and
average parities over counts).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.backends import SerialBackend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.statevector_simulator import StatevectorSimulator
from repro.quantum.paulis import PauliString
from repro.quantum.states import DensityMatrix, Statevector
from repro.utils.rng import SeedLike

__all__ = [
    "exact_expectation",
    "final_state",
    "sampled_pauli_expectation",
    "measurement_basis_change",
    "measured_pauli_circuit",
]

_BASIS_CHANGE: dict[str, list[tuple[str, tuple[float, ...]]]] = {
    "I": [],
    "Z": [],
    "X": [("h", ())],
    "Y": [("sdg", ()), ("h", ())],
}


def measured_pauli_circuit(
    circuit: QuantumCircuit, targets: Iterable[tuple[int, str]]
) -> tuple[QuantumCircuit, list[int]]:
    """Append Pauli basis changes and measurements to a copy of ``circuit``.

    Every ``(qubit, label)`` target whose label is not ``I`` is rotated from
    its Pauli eigenbasis onto Z and measured into a new classical bit placed
    after ``circuit``'s own bits, in target order.  The parity of those bits
    is the sampled eigenvalue of the Pauli product.

    Returns
    -------
    tuple[QuantumCircuit, list[int]]
        The measured circuit (named ``<name>_meas``) and the new classical
        bits.
    """
    active = [(qubit, label) for qubit, label in targets if label != "I"]
    measured = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits + len(active), name=f"{circuit.name}_meas"
    )
    measured.compose(circuit, inplace=True)
    clbits = []
    for offset, (qubit, label) in enumerate(active):
        for gate_name, params in _BASIS_CHANGE[label]:
            measured.gate(gate_name, qubit, params)
        clbit = circuit.num_clbits + offset
        measured.measure(qubit, clbit)
        clbits.append(clbit)
    return measured, clbits


def exact_expectation(
    circuit: QuantumCircuit,
    observable: np.ndarray | PauliString,
    initial_state: Statevector | np.ndarray | None = None,
) -> float:
    """Return the exact expectation value of ``observable`` after ``circuit``.

    The value is ``Re Tr[O ρ]`` over :func:`final_state`.
    """
    matrix = observable.to_matrix() if isinstance(observable, PauliString) else np.asarray(observable, dtype=complex)
    return float(np.real(final_state(circuit, initial_state).expectation_value(matrix)))


def final_state(
    circuit: QuantumCircuit, initial_state: Statevector | np.ndarray | None = None
) -> Statevector | DensityMatrix:
    """Return the exact state after ``circuit``.

    For unconditioned unitary circuits the statevector simulator is used;
    otherwise the branch-averaged density matrix is used.  Callers that need
    several expectation values of one circuit simulate it once here.
    """
    if circuit.is_unitary_only() and not circuit.has_conditionals():
        return StatevectorSimulator().run(circuit, initial_state)
    return DensityMatrixSimulator().run(circuit, initial_state).average_state()


def measurement_basis_change(pauli: str, qubit: int, num_qubits: int, num_clbits: int) -> QuantumCircuit:
    """Return a circuit rotating the ``pauli`` eigenbasis of ``qubit`` to the Z basis."""
    if pauli not in _BASIS_CHANGE:
        raise SimulationError(f"unsupported Pauli label {pauli!r}")
    circuit = QuantumCircuit(num_qubits, num_clbits, name=f"meas_{pauli.lower()}")
    for gate_name, params in _BASIS_CHANGE[pauli]:
        circuit.gate(gate_name, qubit, params)
    return circuit


def sampled_pauli_expectation(
    circuit: QuantumCircuit,
    pauli_labels: str,
    shots: int,
    qubits: Sequence[int] | None = None,
    seed: SeedLike = None,
) -> float:
    """Estimate a Pauli expectation value of the circuit output by sampling.

    The measured circuit runs as a batch of one through
    :class:`~repro.circuits.backends.SerialBackend`.

    Parameters
    ----------
    circuit:
        Circuit *without* the measurement of the observable (it is appended
        here after the appropriate basis change).
    pauli_labels:
        One Pauli label per entry of ``qubits`` (default: per circuit qubit).
    shots:
        Number of measurement shots.
    qubits:
        Which qubits carry the observable; defaults to all qubits.
    """
    qubits = list(range(circuit.num_qubits)) if qubits is None else list(qubits)
    if len(pauli_labels) != len(qubits):
        raise SimulationError(
            f"{len(pauli_labels)} Pauli labels given for {len(qubits)} qubits"
        )
    if all(label == "I" for label in pauli_labels):
        return 1.0
    measured, observable_clbits = measured_pauli_circuit(circuit, zip(qubits, pauli_labels))
    (counts,) = SerialBackend().run_batch([measured], [shots], seed=seed)
    return counts.expectation_z(observable_clbits)
