"""The :class:`QuantumCircuit` intermediate representation.

A minimal but complete gate-level circuit model supporting everything the
wire-cutting experiments need: arbitrary unitaries, mid-circuit measurement,
classically conditioned gates, qubit reset and arbitrary state
initialisation.  The builder API mirrors Qiskit's so that circuits from the
paper translate line-by-line.

Qubit ordering is big-endian: qubit 0 is the most significant bit of a basis
label and the leftmost bit of result bitstrings.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import CircuitError
from repro.circuits.instruction import (
    BARRIER,
    GATE,
    INITIALIZE,
    MEASURE,
    RESET,
    Instruction,
)
from repro.quantum.gates import cached_gate_matrix
from repro.utils.linalg import is_statevector, is_unitary

__all__ = ["QuantumCircuit"]


def _instruction_extent(instructions: Iterable[Instruction]) -> tuple[int, int]:
    """Return the smallest ``(num_qubits, num_clbits)`` registers that hold ``instructions``.

    That is one more than the largest qubit index and one more than the
    largest classical-bit index, counting the bits conditions read.
    """
    max_qubit = max_clbit = -1
    for instruction in instructions:
        for qubit in instruction.qubits:
            if qubit > max_qubit:
                max_qubit = qubit
        for clbit in instruction.clbits:
            if clbit > max_clbit:
                max_clbit = clbit
        condition = instruction.condition
        if condition is not None and condition[0] > max_clbit:
            max_clbit = condition[0]
    return max_qubit + 1, max_clbit + 1


class QuantumCircuit:
    """A quantum circuit over ``num_qubits`` qubits and ``num_clbits`` classical bits."""

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str = "circuit"):
        if num_qubits < 0 or num_clbits < 0:
            raise CircuitError("register sizes must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.name = name
        self._instructions: list[Instruction] = []

    # -- container protocol ---------------------------------------------------

    @property
    def instructions(self) -> list[Instruction]:
        """The instruction list (treat as read-only; use builder methods to modify)."""
        return self._instructions

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self):
        return iter(self._instructions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_clbits={self.num_clbits}, depth={self.depth()})"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [repr(self)]
        lines.extend(f"  {instruction}" for instruction in self._instructions)
        return "\n".join(lines)

    # -- validation helpers ----------------------------------------------------

    def _check_qubits(self, qubits: Iterable[int]) -> tuple[int, ...]:
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"qubit index {q} out of range (num_qubits={self.num_qubits})")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubit indices {qubits}")
        return qubits

    def _check_clbits(self, clbits: Iterable[int]) -> tuple[int, ...]:
        clbits = tuple(int(c) for c in clbits)
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise CircuitError(f"clbit index {c} out of range (num_clbits={self.num_clbits})")
        return clbits

    # -- generic appenders -------------------------------------------------------

    def append(self, instruction: Instruction) -> "QuantumCircuit":
        """Append a pre-built instruction (validating indices against this circuit)."""
        self._check_qubits(instruction.qubits)
        self._check_clbits(instruction.clbits)
        if instruction.condition is not None:
            self._check_clbits([instruction.condition[0]])
        self._instructions.append(instruction)
        return self

    def extend(self, instructions: Sequence[Instruction]) -> "QuantumCircuit":
        """Append a sequence of already-validated instructions with one bounds check.

        Every instruction must have passed :meth:`append`'s checks on some
        circuit: a slice of another circuit, a memoised cut gadget, or such
        instructions remapped onto qubits they do not already touch.  Those
        checks hold on any circuit whose registers cover the indices used, so
        the registers are checked once against the sequence's largest qubit
        and classical-bit index (condition bits included).
        """
        num_qubits, num_clbits = _instruction_extent(instructions)
        if num_qubits > self.num_qubits:
            raise CircuitError(
                f"qubit index {num_qubits - 1} out of range (num_qubits={self.num_qubits})"
            )
        if num_clbits > self.num_clbits:
            raise CircuitError(
                f"clbit index {num_clbits - 1} out of range (num_clbits={self.num_clbits})"
            )
        self._instructions.extend(instructions)
        return self

    def gate(
        self,
        name: str,
        qubits: Sequence[int] | int,
        params: Sequence[float] = (),
        condition: tuple[int, int] | None = None,
    ) -> "QuantumCircuit":
        """Append a named gate from the standard library."""
        if isinstance(qubits, (int, np.integer)):
            qubits = (int(qubits),)
        matrix = cached_gate_matrix(name.lower(), tuple(float(p) for p in params))
        return self.append(
            Instruction(
                kind=GATE,
                name=name.lower(),
                qubits=self._check_qubits(qubits),
                params=tuple(float(p) for p in params),
                matrix=matrix,
                condition=condition,
            )
        )

    def unitary(
        self,
        matrix: np.ndarray,
        qubits: Sequence[int] | int,
        name: str = "unitary",
        condition: tuple[int, int] | None = None,
    ) -> "QuantumCircuit":
        """Append an arbitrary unitary matrix acting on ``qubits``."""
        if isinstance(qubits, (int, np.integer)):
            qubits = (int(qubits),)
        matrix = np.asarray(matrix, dtype=complex)
        if not is_unitary(matrix, atol=1e-8):
            raise CircuitError(f"matrix for {name!r} is not unitary")
        return self.append(
            Instruction(
                kind=GATE,
                name=name,
                qubits=self._check_qubits(qubits),
                matrix=matrix,
                condition=condition,
            )
        )

    # -- named single-qubit gates -------------------------------------------------

    def i(self, qubit: int) -> "QuantumCircuit":
        """Identity gate."""
        return self.gate("i", qubit)

    def x(self, qubit: int, condition: tuple[int, int] | None = None) -> "QuantumCircuit":
        """Pauli X."""
        return self.gate("x", qubit, condition=condition)

    def y(self, qubit: int, condition: tuple[int, int] | None = None) -> "QuantumCircuit":
        """Pauli Y."""
        return self.gate("y", qubit, condition=condition)

    def z(self, qubit: int, condition: tuple[int, int] | None = None) -> "QuantumCircuit":
        """Pauli Z."""
        return self.gate("z", qubit, condition=condition)

    def h(self, qubit: int, condition: tuple[int, int] | None = None) -> "QuantumCircuit":
        """Hadamard."""
        return self.gate("h", qubit, condition=condition)

    def s(self, qubit: int) -> "QuantumCircuit":
        """Phase gate S."""
        return self.gate("s", qubit)

    def sdg(self, qubit: int) -> "QuantumCircuit":
        """Inverse phase gate S†."""
        return self.gate("sdg", qubit)

    def t(self, qubit: int) -> "QuantumCircuit":
        """T gate."""
        return self.gate("t", qubit)

    def tdg(self, qubit: int) -> "QuantumCircuit":
        """Inverse T gate."""
        return self.gate("tdg", qubit)

    def sx(self, qubit: int) -> "QuantumCircuit":
        """Square root of X."""
        return self.gate("sx", qubit)

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """X rotation."""
        return self.gate("rx", qubit, (theta,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Y rotation."""
        return self.gate("ry", qubit, (theta,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Z rotation."""
        return self.gate("rz", qubit, (theta,))

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        """Phase gate with angle λ."""
        return self.gate("p", qubit, (lam,))

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Generic single-qubit unitary U(θ, φ, λ)."""
        return self.gate("u", qubit, (theta, phi, lam))

    # -- named multi-qubit gates ----------------------------------------------------

    def cx(self, control: int, target: int, condition: tuple[int, int] | None = None) -> "QuantumCircuit":
        """Controlled-NOT."""
        return self.gate("cx", (control, target), condition=condition)

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Z."""
        return self.gate("cz", (control, target))

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Y."""
        return self.gate("cy", (control, target))

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """SWAP."""
        return self.gate("swap", (qubit_a, qubit_b))

    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        """Toffoli."""
        return self.gate("ccx", (control_a, control_b, target))

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """ZZ interaction."""
        return self.gate("rzz", (qubit_a, qubit_b), (theta,))

    def rxx(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """XX interaction."""
        return self.gate("rxx", (qubit_a, qubit_b), (theta,))

    # -- non-unitary instructions -----------------------------------------------------

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        """Measure ``qubit`` in the computational basis into ``clbit``."""
        return self.append(
            Instruction(
                kind=MEASURE,
                name="measure",
                qubits=self._check_qubits([qubit]),
                clbits=self._check_clbits([clbit]),
            )
        )

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into the classical bit with the same index.

        The circuit must have at least ``num_qubits`` classical bits.
        """
        if self.num_clbits < self.num_qubits:
            raise CircuitError(
                "measure_all requires num_clbits >= num_qubits "
                f"({self.num_clbits} < {self.num_qubits})"
            )
        for qubit in range(self.num_qubits):
            self.measure(qubit, qubit)
        return self

    def reset(self, qubit: int) -> "QuantumCircuit":
        """Reset ``qubit`` to ``|0⟩``."""
        return self.append(
            Instruction(kind=RESET, name="reset", qubits=self._check_qubits([qubit]))
        )

    def initialize(self, state: np.ndarray, qubits: Sequence[int] | int) -> "QuantumCircuit":
        """Reset ``qubits`` and prepare the given pure state on them."""
        if isinstance(qubits, (int, np.integer)):
            qubits = (int(qubits),)
        qubits = self._check_qubits(qubits)
        state = np.asarray(state, dtype=complex).ravel()
        if state.shape[0] != 2 ** len(qubits):
            raise CircuitError(
                f"initialize state of dim {state.shape[0]} does not match {len(qubits)} qubits"
            )
        if not is_statevector(state, atol=1e-8):
            raise CircuitError("initialize state must be a normalised statevector")
        return self.append(
            Instruction(kind=INITIALIZE, name="initialize", qubits=qubits, matrix=state)
        )

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """Append a barrier (no-op marker)."""
        targets = self._check_qubits(qubits) if qubits else tuple(range(self.num_qubits))
        return self.append(Instruction(kind=BARRIER, name="barrier", qubits=targets))

    # -- composition -------------------------------------------------------------------

    def compose(
        self,
        other: "QuantumCircuit",
        qubits: Sequence[int] | None = None,
        clbits: Sequence[int] | None = None,
        inplace: bool = False,
    ) -> "QuantumCircuit":
        """Append ``other``'s instructions, remapping its qubits/clbits onto this circuit.

        ``qubits[i]`` is the qubit of ``self`` that ``other``'s qubit ``i``
        maps onto (identity mapping by default); similarly for ``clbits``.
        """
        qubits = list(range(other.num_qubits)) if qubits is None else list(qubits)
        clbits = list(range(other.num_clbits)) if clbits is None else list(clbits)
        if len(qubits) != other.num_qubits:
            raise CircuitError(
                f"qubit mapping has {len(qubits)} entries, expected {other.num_qubits}"
            )
        if len(clbits) != other.num_clbits:
            raise CircuitError(
                f"clbit mapping has {len(clbits)} entries, expected {other.num_clbits}"
            )
        target = self if inplace else self.copy()
        if qubits == list(range(other.num_qubits)) and clbits == list(range(other.num_clbits)):
            # Identity mapping: instructions are immutable, so share them.
            return target.extend(other._instructions)
        qubit_map = {i: q for i, q in enumerate(qubits)}
        clbit_map = {i: c for i, c in enumerate(clbits)}
        for instruction in other._instructions:
            target.append(instruction.remap(qubit_map, clbit_map))
        return target

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """Return a shallow copy (instructions are immutable, so sharing is safe)."""
        clone = QuantumCircuit(self.num_qubits, self.num_clbits, name or self.name)
        clone._instructions = list(self._instructions)
        return clone

    def inverse(self) -> "QuantumCircuit":
        """Return the inverse circuit (unitary-only circuits)."""
        if not self.is_unitary_only():
            raise CircuitError("only unitary circuits can be inverted")
        inverse = QuantumCircuit(self.num_qubits, self.num_clbits, f"{self.name}_dg")
        for instruction in reversed(self._instructions):
            if instruction.kind == BARRIER:
                inverse.append(instruction)
                continue
            inverse.append(
                Instruction(
                    kind=GATE,
                    name=f"{instruction.name}_dg",
                    qubits=instruction.qubits,
                    matrix=instruction.matrix.conj().T,
                )
            )
        return inverse

    # -- analysis ------------------------------------------------------------------------

    def is_unitary_only(self) -> bool:
        """True when the circuit contains only gates and barriers (no measurement/reset)."""
        return all(inst.kind in (GATE, BARRIER) for inst in self._instructions)

    def has_conditionals(self) -> bool:
        """True when any instruction is classically conditioned."""
        return any(inst.is_conditional for inst in self._instructions)

    def count_ops(self) -> dict[str, int]:
        """Return a histogram of instruction names."""
        counts: dict[str, int] = {}
        for instruction in self._instructions:
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    def depth(self) -> int:
        """Return the circuit depth (longest path of instructions per qubit/clbit)."""
        levels: dict[str, int] = {}
        depth = 0
        for instruction in self._instructions:
            if instruction.kind == BARRIER:
                continue
            wires = [f"q{q}" for q in instruction.qubits] + [f"c{c}" for c in instruction.clbits]
            if instruction.condition is not None:
                wires.append(f"c{instruction.condition[0]}")
            level = 1 + max((levels.get(w, 0) for w in wires), default=0)
            for wire in wires:
                levels[wire] = level
            depth = max(depth, level)
        return depth

    def to_matrix(self) -> np.ndarray:
        """Return the overall unitary of a measurement-free circuit."""
        if not self.is_unitary_only():
            raise CircuitError("to_matrix is only defined for unitary circuits")
        from repro.utils.linalg import expand_operator

        dim = 2**self.num_qubits
        total = np.eye(dim, dtype=complex)
        for instruction in self._instructions:
            if instruction.kind == BARRIER:
                continue
            full = expand_operator(instruction.matrix, list(instruction.qubits), self.num_qubits)
            total = full @ total
        return total
