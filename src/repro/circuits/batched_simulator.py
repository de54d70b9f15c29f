"""Batched exact simulation of structurally identical circuits.

The QPD term circuits of a parameter sweep are *structurally* identical: for
a fixed (protocol, term) the instruction stream — gate positions, measured
qubits, classical conditions — is the same for every input state, and only
the numeric payload (the state-preparation unitary or ``initialize`` vector)
differs.  :class:`BatchedDensityMatrixSimulator` exploits this by stacking
all circuits of such a *structure group* into one ``(batch, dim, dim)``
density-matrix array and executing the shared instruction stream once, with
every linear-algebra step broadcast over the batch axis.

Live-width execution
--------------------

Each structure group runs through a :class:`LiveWidthSchedule`, computed
once per :func:`structure_signature` and memoised on the simulator:

* **Recycled qubit slots.**  A qubit gets a slot at its first instruction
  and gives it back after its last one; a later qubit re-uses a freed slot
  after a ``reset``.  The reset is exact: it traces the retired qubit out
  (nothing reads it again) and leaves ``|0⟩``, the state a fresh qubit
  starts in.  Qubits no instruction touches get no slot, so the simulated
  width is the peak number of simultaneously live qubits — for the wire-cut
  term circuits, whose teleport gadgets measure a sender qubit and a pair
  half mid-circuit and never touch them again, far below the declared width.
* **Terminal measurements off the diagonal.**  The maximal suffix of
  unconditional measurements on distinct qubits into distinct clbits never
  feeds back into the state, so it is not branched: each branch's real
  diagonal is marginalised onto the measured slots at the end instead.

A group with no width reduction and no terminal suffix runs its declared
stream unchanged.  Before allocating, :meth:`BatchedDensityMatrixSimulator.run_group`
bounds the peak bytes of the schedule and raises :class:`SimulationError`
when the bound exceeds :data:`~repro.circuits.kernels.MAX_SIMULATION_BYTES`.

The per-slice arithmetic is independent of the batch size (the axis-local
kernels are shared functions that broadcast over an optional batch axis),
so a batch of one — the serial backend — and any grouping of the vectorized
and process-pool backends produce bitwise-identical distributions; this is
what lets every execution backend guarantee seed-identical results.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import BARRIER, GATE, INITIALIZE, MEASURE, RESET, Instruction
from repro.circuits.kernels import (
    MAX_SIMULATION_BYTES,
    apply_initialize,
    apply_reset,
    apply_unitary,
    prepare_operator,
    project_qubit,
    record_gate_application,
)
from repro.telemetry.metrics import REGISTRY

__all__ = [
    "BatchedDensityMatrixSimulator",
    "LiveWidthSchedule",
    "live_width_schedule",
    "structure_signature",
]

#: Branch probabilities at or below this value are dropped from the final
#: classical distribution (matches ``DensityMatrixSimulator.run``).
_PRUNE_FINAL = 1e-15
#: Measurement pieces whose probability is at or below this value across the
#: whole batch are not tracked (matches ``DensityMatrixSimulator._apply_measure``).
_PRUNE_MEASURE = 1e-16
#: Structure signatures whose schedules one simulator instance remembers.
_SCHEDULE_MEMO_SIZE = 256

#: Declared vs simulated width of every simulated structure group.
_SIMULATION_QUBITS = REGISTRY.histogram(
    "repro_simulation_qubits",
    "Qubit width of each simulated structure group: declared register vs live-width schedule.",
    labelnames=("width",),
    buckets=(1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 32),
)


def _active_instructions(circuit: QuantumCircuit) -> list[Instruction]:
    """Return the circuit's instructions with no-op barriers removed."""
    return [ins for ins in circuit.instructions if ins.kind != BARRIER]


def structure_signature(circuit: QuantumCircuit) -> tuple:
    """Return a hashable key identifying the circuit's batchable structure.

    Two circuits with equal signatures run the same instruction stream over
    the same registers and differ at most in gate unitaries and ``initialize``
    vectors — exactly the condition under which they can share one batched
    execution.
    """
    ops = tuple(
        (ins.kind, ins.qubits, ins.clbits, ins.condition, None if ins.matrix is None else ins.matrix.shape)
        for ins in _active_instructions(circuit)
    )
    return (circuit.num_qubits, circuit.num_clbits, ops)


class LiveWidthSchedule:
    """A structure group's instruction stream remapped onto recycled slots.

    Attributes
    ----------
    declared_width:
        The circuits' ``num_qubits``.
    width:
        The simulated width: the peak number of simultaneously live qubits.
    steps:
        ``(source, instruction)`` pairs to execute in order.  ``source`` is
        the position of the instruction in each circuit's barrier-free
        stream (where its per-circuit payload lives), or ``None`` for a
        ``reset`` inserted before a slot is re-used; ``instruction`` carries
        slot indices instead of qubit indices.
    terminal:
        ``(slot, clbit)`` pairs of the terminal measurement suffix, read off
        each branch's diagonal after the last step.
    branching_measurements:
        Number of measurements among ``steps`` (each may split a branch).
    """

    __slots__ = ("declared_width", "width", "steps", "terminal", "branching_measurements")

    def __init__(
        self,
        declared_width: int,
        width: int,
        steps: tuple[tuple[int | None, Instruction], ...],
        terminal: tuple[tuple[int, int], ...],
    ):
        self.declared_width = declared_width
        self.width = width
        self.steps = steps
        self.terminal = terminal
        self.branching_measurements = sum(1 for _, ins in steps if ins.kind == MEASURE)

    def peak_bytes(self, batch: int, num_clbits: int) -> int:
        """Bound the bytes of the branch table of a ``batch``-circuit run.

        One complex ``4^width`` density matrix per circuit per branch; the
        branch count is at most ``2^(branching measurements)``, and never
        more than ``2^num_clbits`` because branches are keyed by the
        classical register.
        """
        branches = 2 ** min(self.branching_measurements, num_clbits)
        return batch * 16 * 4**self.width * branches


def live_width_schedule(circuit: QuantumCircuit) -> LiveWidthSchedule:
    """Return the :class:`LiveWidthSchedule` of ``circuit``'s structure."""
    stream = _active_instructions(circuit)

    # The terminal suffix: unconditional measurements on distinct qubits
    # into distinct clbits, scanned back from the end.
    cut = len(stream)
    measured_qubits: set[int] = set()
    measured_clbits: set[int] = set()
    while cut > 0:
        instruction = stream[cut - 1]
        if (
            instruction.kind != MEASURE
            or instruction.condition is not None
            or instruction.qubits[0] in measured_qubits
            or instruction.clbits[0] in measured_clbits
        ):
            break
        measured_qubits.add(instruction.qubits[0])
        measured_clbits.add(instruction.clbits[0])
        cut -= 1
    body, suffix = stream[:cut], stream[cut:]

    # Terminally measured qubits stay live to the end.
    last_use = {qubit: position for position, ins in enumerate(body) for qubit in ins.qubits}
    last_use.update((qubit, len(body)) for qubit in measured_qubits)

    slot_of: dict[int, int] = {}
    free: list[int] = []
    steps: list[tuple[int | None, Instruction]] = []
    width = 0

    def allocate(qubit: int) -> None:
        nonlocal width
        if free:
            slot = heapq.heappop(free)
            steps.append((None, Instruction(RESET, RESET, (slot,))))
        else:
            slot = width
            width += 1
        slot_of[qubit] = slot

    for position, instruction in enumerate(body):
        for qubit in instruction.qubits:
            if qubit not in slot_of:
                allocate(qubit)
        steps.append((position, instruction))
        for qubit in instruction.qubits:
            if last_use[qubit] == position:
                heapq.heappush(free, slot_of[qubit])
    for instruction in suffix:
        if instruction.qubits[0] not in slot_of:
            allocate(instruction.qubits[0])

    if width == circuit.num_qubits:
        # Every qubit is live at once, so no slot was re-used: keep the
        # declared qubit indices and the declared stream untouched.
        slot_of = {qubit: qubit for qubit in range(width)}
    else:
        steps = [
            (source, instruction if source is None else instruction.remap(slot_of))
            for source, instruction in steps
        ]
    terminal = tuple((slot_of[ins.qubits[0]], ins.clbits[0]) for ins in suffix)
    return LiveWidthSchedule(circuit.num_qubits, width, tuple(steps), terminal)


def _all_equal(matrices: list[np.ndarray]) -> bool:
    first = matrices[0]
    return all(matrix is first or np.array_equal(matrix, first) for matrix in matrices[1:])


class BatchedDensityMatrixSimulator:
    """Exact branching density-matrix simulation of a batch of circuits.

    All circuits handed to :meth:`run_group` must share the same
    :func:`structure_signature`; callers group arbitrary circuit batches with
    that key (see :class:`~repro.circuits.backends.VectorizedBackend`).  The
    simulator memoises one :class:`LiveWidthSchedule` per signature (a
    bounded LRU owned by the instance).
    """

    def __init__(self):
        self._schedules: OrderedDict[tuple, LiveWidthSchedule] = OrderedDict()
        self._schedules_lock = threading.Lock()

    def __reduce__(self):
        # Backends travel to worker processes; a copy starts with an empty memo.
        return (type(self), ())

    def schedule(self, circuit: QuantumCircuit, signature: tuple | None = None) -> LiveWidthSchedule:
        """Return the (memoised) live-width schedule of ``circuit``'s structure."""
        if signature is None:
            signature = structure_signature(circuit)
        with self._schedules_lock:
            schedule = self._schedules.get(signature)
            if schedule is not None:
                self._schedules.move_to_end(signature)
                return schedule
        schedule = live_width_schedule(circuit)
        with self._schedules_lock:
            self._schedules[signature] = schedule
            while len(self._schedules) > _SCHEDULE_MEMO_SIZE:
                self._schedules.popitem(last=False)
        return schedule

    def run_group(self, circuits: Sequence[QuantumCircuit]) -> list[dict[str, float]]:
        """Execute structurally identical ``circuits`` and return per-circuit
        exact classical-outcome distributions (bitstring → probability).

        Raises
        ------
        SimulationError
            When the circuits are not structurally identical, or when the
            schedule's estimated peak allocation exceeds
            :data:`~repro.circuits.kernels.MAX_SIMULATION_BYTES` (raised before allocating).
        """
        if not circuits:
            return []
        signature = structure_signature(circuits[0])
        for circuit in circuits[1:]:
            if structure_signature(circuit) != signature:
                raise SimulationError(
                    "run_group requires structurally identical circuits; "
                    f"{circuit.name!r} does not match {circuits[0].name!r}"
                )
        schedule = self.schedule(circuits[0], signature)
        batch = len(circuits)
        num_clbits = circuits[0].num_clbits
        estimate = schedule.peak_bytes(batch, num_clbits)
        if estimate > MAX_SIMULATION_BYTES:
            raise SimulationError(
                f"simulating {batch} circuit(s) like {circuits[0].name!r} needs an estimated "
                f"{estimate} bytes (declared width {schedule.declared_width} qubits, live width "
                f"{schedule.width}, {schedule.branching_measurements} branching measurements), "
                f"above the {MAX_SIMULATION_BYTES}-byte limit"
            )
        _SIMULATION_QUBITS.observe(schedule.declared_width, width="declared")
        _SIMULATION_QUBITS.observe(schedule.width, width="live")

        width = schedule.width
        dim = 2**width
        rho = np.zeros((batch, dim, dim), dtype=complex)
        rho[:, 0, 0] = 1.0
        # Branch table: classical value (tuple of bits) -> (batch, dim, dim) stack.
        branches: dict[tuple[int, ...], np.ndarray] = {tuple([0] * num_clbits): rho}

        streams = [_active_instructions(circuit) for circuit in circuits]
        for source, template in schedule.steps:
            if template.kind == GATE:
                matrices = [stream[source].matrix for stream in streams]
                branches = self._apply_gate(branches, template, matrices, width)
            elif template.kind == MEASURE:
                branches = self._apply_measure(branches, template, width)
            elif template.kind == RESET:
                branches = self._apply_reset(branches, template, width)
            elif template.kind == INITIALIZE:
                matrices = [stream[source].matrix for stream in streams]
                branches = self._apply_initialize(branches, template, matrices, width)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unsupported instruction kind {template.kind!r}")

        if schedule.terminal:
            probabilities = self._terminal_probabilities(branches, schedule.terminal, width)
        else:
            probabilities = {
                clbits: np.trace(stack, axis1=1, axis2=2).real
                for clbits, stack in branches.items()
            }
        return self._distributions(probabilities, batch)

    # -- instruction handlers ---------------------------------------------------

    def _apply_gate(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        template: Instruction,
        matrices: list[np.ndarray],
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubits = list(template.qubits)
        if _all_equal(matrices):
            operator = prepare_operator(matrices[0])
        else:
            operator = np.ascontiguousarray(matrices, dtype=complex)
        updated: dict[tuple[int, ...], np.ndarray] = {}
        applications = 0
        start = time.perf_counter()
        for clbits, stack in branches.items():
            if template.condition is not None:
                clbit, value = template.condition
                if clbits[clbit] != value:
                    updated[clbits] = stack
                    continue
            updated[clbits] = apply_unitary(stack, operator, qubits, num_qubits)
            applications += stack.shape[0]
        if applications:
            record_gate_application(len(qubits), time.perf_counter() - start, count=applications)
        return updated

    def _apply_measure(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        template: Instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubit = template.qubits[0]
        clbit = template.clbits[0]
        updated: dict[tuple[int, ...], np.ndarray] = {}
        for clbits, stack in branches.items():
            for outcome, piece in enumerate(project_qubit(stack, qubit, num_qubits)):
                traces = np.trace(piece, axis1=1, axis2=2).real
                dead = traces <= _PRUNE_MEASURE
                if np.all(dead):
                    # This branch is impossible for every circuit in the batch
                    # (e.g. a deterministic correction bit); skip it entirely.
                    continue
                if np.any(dead):
                    # Zero the slices the serial simulator would have dropped,
                    # so downstream merges see exactly its contributions.
                    piece[dead] = 0.0
                new_clbits = list(clbits)
                new_clbits[clbit] = outcome
                key = tuple(new_clbits)
                if key in updated:
                    updated[key] = updated[key] + piece
                else:
                    updated[key] = piece
        return updated

    def _apply_reset(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        template: Instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubit = template.qubits[0]
        return {
            clbits: apply_reset(stack, qubit, num_qubits) for clbits, stack in branches.items()
        }

    def _apply_initialize(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        template: Instruction,
        matrices: list[np.ndarray],
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubits = list(template.qubits)
        targets = [np.asarray(matrix, dtype=complex).ravel() for matrix in matrices]
        # A shared target broadcasts; distinct targets stack along the batch
        # axis.  Either way the block arithmetic matches the serial kernel
        # slice for slice.
        payload = targets[0] if _all_equal(targets) else np.ascontiguousarray(targets)
        return {
            clbits: apply_initialize(stack, payload, qubits, num_qubits)
            for clbits, stack in branches.items()
        }

    # -- result assembly --------------------------------------------------------

    @staticmethod
    def _terminal_probabilities(
        branches: dict[tuple[int, ...], np.ndarray],
        terminal: tuple[tuple[int, int], ...],
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        """Marginalise every branch's diagonal onto the terminally measured slots.

        Each (branch, outcome) marginal is pruned per circuit like a
        measurement piece, and marginals landing on the same classical value
        (a terminal measurement overwriting an earlier clbit) are summed.
        """
        slots = [slot for slot, _ in terminal]
        clbits_written = [clbit for _, clbit in terminal]
        measured = len(slots)
        outcome_bits = [
            [(outcome >> (measured - 1 - position)) & 1 for position in range(measured)]
            for outcome in range(2**measured)
        ]
        rest = [slot for slot in range(num_qubits) if slot not in slots]
        order = [0] + [1 + slot for slot in slots] + [1 + slot for slot in rest]
        probabilities: dict[tuple[int, ...], np.ndarray] = {}
        for clbits, stack in branches.items():
            batch = stack.shape[0]
            diagonal = np.diagonal(stack, axis1=1, axis2=2).real
            tensor = diagonal.reshape((batch,) + (2,) * num_qubits)
            # Contiguous (batch, outcome, rest) rows: each row sums on its own,
            # so a slice's marginal does not depend on the batch it ran in.
            rows = np.ascontiguousarray(np.transpose(tensor, order))
            marginals = rows.reshape(batch, 2**measured, -1).sum(axis=2)
            dead = marginals <= _PRUNE_MEASURE
            marginals[dead] = 0.0
            for outcome in np.flatnonzero(~dead.all(axis=0)):
                values = marginals[:, outcome]
                key = list(clbits)
                for clbit, bit in zip(clbits_written, outcome_bits[outcome]):
                    key[clbit] = bit
                key = tuple(key)
                if key in probabilities:
                    probabilities[key] = probabilities[key] + values
                else:
                    probabilities[key] = values
        return probabilities

    @staticmethod
    def _distributions(
        probabilities: dict[tuple[int, ...], np.ndarray], batch: int
    ) -> list[dict[str, float]]:
        ordered = sorted(probabilities.items(), key=lambda item: item[0])
        keys = ["".join(str(b) for b in clbits) for clbits, _ in ordered]
        results: list[dict[str, float]] = []
        for element in range(batch):
            distribution = {
                key: float(values[element])
                for key, (_, values) in zip(keys, ordered)
                if values[element] > _PRUNE_FINAL
            }
            results.append(distribution)
        return results
