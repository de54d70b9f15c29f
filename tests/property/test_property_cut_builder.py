"""The memoised cut builders against the per-instruction oracle.

The production builders append each term's gadget from the protocol's
memoised instruction tuple and append whole instruction sequences with one
bounds check.  ``utils.reference_cut_builder`` keeps the original builders,
which call every gadget builder afresh and check every instruction as it is
appended.  These properties assert that both produce the same term circuits,
instruction for instruction, on random 1–3 qubit circuits with classical
bits and mid-circuit measurements, at every cut position.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.backends import circuit_fingerprint
from repro.circuits.circuit import QuantumCircuit
from repro.cutting import (
    DistilledTeleportWireCut,
    HaradaWireCut,
    NMEWireCut,
    PengWireCut,
    TeleportationWireCut,
)
from repro.cutting.cutter import CutLocation, build_cut_circuits
from repro.cutting.executor import _measured_term_circuit
from repro.cutting.multi_wire import build_multi_cut_circuits
from repro.exceptions import CuttingError
from repro.quantum.paulis import PauliString
from utils.reference_cut_builder import (
    reference_build_cut_circuits,
    reference_build_multi_cut_circuits,
    reference_measured_term_circuit,
)

SETTINGS = settings(max_examples=40, deadline=None)

PROTOCOLS = {
    "nme-k0": lambda: NMEWireCut(0.0),
    "nme-k0.3": lambda: NMEWireCut(0.3),
    "nme-k0.75": lambda: NMEWireCut(0.75),
    "nme-k1": lambda: NMEWireCut(1.0),
    "teleportation": TeleportationWireCut,
    "harada": HaradaWireCut,
    "peng": PengWireCut,
    "distilled": lambda: DistilledTeleportWireCut(0.5),
}

_ONE_QUBIT_GATES = ("h", "x", "s", "t", "rx", "ry", "rz")


@st.composite
def circuits(draw):
    """A random 1–3 qubit circuit with gates, conditions and measurements."""
    num_qubits = draw(st.integers(min_value=1, max_value=3))
    num_clbits = draw(st.integers(min_value=0, max_value=2))
    circuit = QuantumCircuit(num_qubits, num_clbits, name=draw(st.sampled_from(["c", "W|0>"])))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        choice = draw(st.integers(min_value=0, max_value=3))
        qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
        if choice == 0 and num_qubits > 1:
            target = draw(
                st.integers(min_value=0, max_value=num_qubits - 1).filter(lambda q: q != qubit)
            )
            circuit.cx(qubit, target)
        elif choice == 1 and num_clbits:
            circuit.measure(qubit, draw(st.integers(min_value=0, max_value=num_clbits - 1)))
        elif choice == 2 and num_clbits:
            clbit = draw(st.integers(min_value=0, max_value=num_clbits - 1))
            circuit.x(qubit, condition=(clbit, draw(st.integers(min_value=0, max_value=1))))
        else:
            name = draw(st.sampled_from(_ONE_QUBIT_GATES))
            params = (draw(st.floats(min_value=-3.0, max_value=3.0)),) if name[0] == "r" else ()
            circuit.gate(name, qubit, params)
    return circuit


def instruction_stream(circuit: QuantumCircuit) -> list[tuple]:
    """Every field of every instruction, the matrix as raw bytes."""
    return [
        (
            ins.kind,
            ins.name,
            ins.qubits,
            ins.clbits,
            ins.params,
            ins.condition,
            None if ins.matrix is None else (ins.matrix.shape, ins.matrix.tobytes()),
        )
        for ins in circuit.instructions
    ]


def assert_same_circuit(actual: QuantumCircuit, expected: QuantumCircuit) -> None:
    assert actual.name == expected.name
    assert (actual.num_qubits, actual.num_clbits) == (expected.num_qubits, expected.num_clbits)
    assert instruction_stream(actual) == instruction_stream(expected)
    assert circuit_fingerprint(actual) == circuit_fingerprint(expected)


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
class TestSingleCutBuilderMatchesOracle:
    @SETTINGS
    @given(circuit=circuits(), data=st.data())
    def test_every_cut_qubit_and_position(self, protocol_name, circuit, data):
        protocol = PROTOCOLS[protocol_name]()
        oracle_protocol = PROTOCOLS[protocol_name]()
        pauli = PauliString(
            data.draw(st.text(alphabet="IXYZ", min_size=circuit.num_qubits, max_size=circuit.num_qubits))
        )
        locations = [
            CutLocation(qubit=qubit, position=position)
            for qubit in range(circuit.num_qubits)
            for position in range(len(circuit) + 1)
        ]
        for location in locations:
            # The production protocol (and its memo) is reused across cut
            # qubits and positions; the oracle builds every gadget afresh.
            try:
                expected = reference_build_cut_circuits(circuit, location, oracle_protocol)
            except CuttingError:
                with pytest.raises(CuttingError):
                    build_cut_circuits(circuit, location, protocol)
                continue
            actual = build_cut_circuits(circuit, location, protocol)
            assert len(actual) == len(expected)
            for got, want in zip(actual, expected):
                assert_same_circuit(got.circuit, want.circuit)
                assert got.term_index == want.term_index
                assert got.term.label == want.term.label
                assert got.qubit_map == want.qubit_map
                assert got.gadget_clbits == want.gadget_clbits
                assert got.sign_clbits == want.sign_clbits
                assert got.sender_qubits == want.sender_qubits
                assert got.receiver_qubits == want.receiver_qubits
                measured, clbits = _measured_term_circuit(got, pauli)
                oracle_measured, oracle_clbits = reference_measured_term_circuit(want, pauli)
                assert_same_circuit(measured, oracle_measured)
                assert clbits == oracle_clbits


class TestMultiCutBuilderMatchesOracle:
    @SETTINGS
    @given(
        circuit=circuits(),
        names=st.lists(st.sampled_from(sorted(PROTOCOLS)), min_size=2, max_size=2),
        data=st.data(),
    )
    def test_two_cuts_at_every_first_position(self, circuit, names, data):
        # A protocol named twice is one instance serving both cuts.
        instances = {name: PROTOCOLS[name]() for name in names}
        protocols = [instances[name] for name in names]
        oracle_protocols = [PROTOCOLS[name]() for name in names]
        qubits = [
            data.draw(st.integers(min_value=0, max_value=circuit.num_qubits - 1)) for _ in names
        ]
        second = data.draw(st.integers(min_value=0, max_value=len(circuit)))
        for first in range(len(circuit) + 1):
            locations = [CutLocation(qubits[0], first), CutLocation(qubits[1], second)]
            try:
                expected = reference_build_multi_cut_circuits(circuit, locations, oracle_protocols)
            except CuttingError:
                with pytest.raises(CuttingError):
                    build_multi_cut_circuits(circuit, locations, protocols)
                continue
            actual = build_multi_cut_circuits(circuit, locations, protocols)
            assert len(actual) == len(expected)
            for got, want in zip(actual, expected):
                assert_same_circuit(got.circuit, want.circuit)
                assert got.coefficient == want.coefficient
                assert got.term_indices == want.term_indices
                assert got.qubit_map == want.qubit_map
                assert got.sign_clbits == want.sign_clbits
                assert got.labels == want.labels
                assert got.entangled_pairs == want.entangled_pairs
