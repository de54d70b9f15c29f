"""Property-based oracle for the live-width exact-distribution engine.

:class:`~repro.circuits.batched_simulator.BatchedDensityMatrixSimulator`
simulates each structure group at its live width (recycled qubit slots,
terminal measurements read off the diagonal).  On random circuits over the
full instruction set — mid-circuit measurement with ``c_if`` corrections,
``reset``, multi-qubit ``initialize``, idle and never-touched qubits,
re-used slots, terminal measurements overwriting earlier clbits — it must
agree on the key set and to 1e-12 on every value with both full-width
oracles: the einsum-kernel :class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`
and the dense reference of ``tests/utils/dense_reference.py``.  A batch
must give every circuit bitwise the distribution it gets alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.batched_simulator import BatchedDensityMatrixSimulator, live_width_schedule
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from tests.property.strategies import angles, single_qubit_statevectors, two_qubit_statevectors
from utils.dense_reference import DenseDensityMatrixSimulator

SETTINGS = settings(max_examples=40, deadline=None)
TOLERANCE = 1e-12
#: Circuits per random structure (they differ only in numeric payloads).
BATCH = 3


@st.composite
def op_lists(draw, max_qubits: int = 6, max_ops: int = 14):
    """A random structure plus ``BATCH`` payloads for each of its operations.

    Returns ``(num_qubits, num_clbits, ops)``; operations only touch a random
    subset of the register (the rest stay untouched), and a random run of
    measurements ends the circuit (repeated qubits or clbits in it end the
    terminal suffix early).  In *phased* structures each operation draws its
    qubits from a window sliding along the touched qubits, so early qubits
    retire (measured or not) before later ones start and slots get re-used.
    """
    num_qubits = draw(st.integers(2, max_qubits))
    num_clbits = draw(st.integers(1, 4))
    touched = draw(st.lists(st.integers(0, num_qubits - 1), min_size=1, max_size=num_qubits, unique=True))
    clbit = st.integers(0, num_clbits - 1)
    num_ops = draw(st.integers(0, max_ops))
    phased = draw(st.booleans())
    ops = []
    for index in range(num_ops):
        start = index * len(touched) // num_ops
        pool = touched[start : start + 2] if phased else touched
        qubit = st.sampled_from(pool)
        kind = draw(
            st.sampled_from(
                ("h", "rotation", "cx", "measure", "reset", "initialize", "conditional", "barrier")
            )
        )
        if kind == "h":
            ops.append(("h", draw(qubit)))
        elif kind == "rotation":
            payload = [draw(angles) for _ in range(BATCH)]
            ops.append(("rotation", draw(st.sampled_from(("rx", "ry", "rz"))), draw(qubit), payload))
        elif kind in ("cx", "initialize") and len(pool) >= 2 and draw(st.booleans()):
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            if kind == "cx":
                ops.append(("cx", *pair))
            else:
                payload = [draw(two_qubit_statevectors) for _ in range(BATCH)]
                ops.append(("initialize", tuple(pair), payload))
        elif kind == "initialize":
            payload = [draw(single_qubit_statevectors) for _ in range(BATCH)]
            ops.append(("initialize", (draw(qubit),), payload))
        elif kind == "measure":
            ops.append(("measure", draw(qubit), draw(clbit)))
        elif kind == "reset":
            ops.append(("reset", draw(qubit)))
        elif kind == "conditional":
            ops.append(("conditional", draw(qubit), draw(clbit), draw(st.integers(0, 1))))
        elif kind == "barrier":
            ops.append(("barrier",))
    for _ in range(draw(st.integers(0, 4))):
        ops.append(("measure", draw(st.sampled_from(touched)), draw(clbit)))
    return num_qubits, num_clbits, ops


def _build(num_qubits: int, num_clbits: int, ops, element: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, num_clbits, name=f"random_{element}")
    for op in ops:
        if op[0] == "h":
            circuit.h(op[1])
        elif op[0] == "rotation":
            circuit.gate(op[1], (op[2],), (op[3][element],))
        elif op[0] == "cx":
            circuit.cx(op[1], op[2])
        elif op[0] == "initialize":
            circuit.initialize(op[2][element], op[1])
        elif op[0] == "measure":
            circuit.measure(op[1], op[2])
        elif op[0] == "reset":
            circuit.reset(op[1])
        elif op[0] == "conditional":
            circuit.x(op[1], condition=(op[2], op[3]))
        else:
            circuit.barrier()
    return circuit


#: The full-width oracles: the production simulator and the dense reference.
ORACLES = pytest.mark.parametrize(
    "oracle",
    [DensityMatrixSimulator, DenseDensityMatrixSimulator],
    ids=["einsum", "dense"],
)


def _assert_matches_oracle(distribution: dict, circuit: QuantumCircuit, oracle) -> None:
    expected = oracle().run(circuit).classical_distribution()
    assert distribution.keys() == expected.keys()
    for key, value in expected.items():
        assert abs(distribution[key] - value) <= TOLERANCE, (key, distribution[key], value)


@ORACLES
@SETTINGS
@given(structure=op_lists())
def test_live_width_matches_full_width_oracle(oracle, structure):
    circuits = [_build(*structure, element) for element in range(BATCH)]
    engine = BatchedDensityMatrixSimulator()
    batched = engine.run_group(circuits)
    for circuit, distribution in zip(circuits, batched):
        _assert_matches_oracle(distribution, circuit, oracle)
        # A batch of one (the serial backend) is bitwise the batched slice.
        assert engine.run_group([circuit])[0] == distribution


@SETTINGS
@given(structure=op_lists())
def test_schedule_never_wider_than_declared(structure):
    circuit = _build(*structure, 0)
    schedule = live_width_schedule(circuit)
    touched = {q for ins in circuit.instructions if ins.kind != "barrier" for q in ins.qubits}
    assert schedule.width <= len(touched) <= circuit.num_qubits
    for source, instruction in schedule.steps:
        assert all(0 <= slot < schedule.width for slot in instruction.qubits)
        if source is None:
            assert instruction.kind == "reset"


@ORACLES
def test_slot_reused_after_unmeasured_retirement(oracle):
    # q0 is entangled with q1 and then never touched again (no measurement);
    # q2 takes over its slot after a reset that traces it out.
    circuit = QuantumCircuit(3, 2)
    circuit.h(0).cx(0, 1).ry(0.4, 2).cx(2, 1).measure(1, 0).h(2).measure(2, 1)
    schedule = live_width_schedule(circuit)
    assert schedule.width == 2
    assert sum(1 for source, _ in schedule.steps if source is None) == 1
    (distribution,) = BatchedDensityMatrixSimulator().run_group([circuit])
    _assert_matches_oracle(distribution, circuit, oracle)


@ORACLES
def test_terminal_measurement_overwrites_earlier_clbit(oracle):
    # Clbit 0 is written mid-circuit, steers a correction, then is
    # overwritten by the terminal suffix: branches differing only in the
    # old value merge.
    circuit = QuantumCircuit(3, 2)
    circuit.h(0).ry(1.1, 1).cx(0, 1).measure(0, 0).x(2, condition=(0, 1)).h(1)
    circuit.measure(1, 0).measure(2, 1)
    schedule = live_width_schedule(circuit)
    assert [clbit for _, clbit in schedule.terminal] == [0, 1]
    (distribution,) = BatchedDensityMatrixSimulator().run_group([circuit])
    _assert_matches_oracle(distribution, circuit, oracle)
    assert np.isclose(sum(distribution.values()), 1.0)
