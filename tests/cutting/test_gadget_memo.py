"""The per-protocol gadget memo and the bounds check that moved with it."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.cutting import NMEWireCut, build_multi_cut_circuits
from repro.cutting.base import GadgetWiring, WireCutProtocol, WireCutTerm
from repro.cutting.cutter import CutLocation, build_cut_circuits
from repro.exceptions import CircuitError
from repro.quantum.channels import identity_channel


#: One channel object, so that terms built from it compare equal.
_IDENTITY = identity_channel(1)


def _x_gadget(circuit: QuantumCircuit, wiring: GadgetWiring) -> None:
    circuit.swap(wiring.sender_qubit, wiring.receiver_qubit)
    circuit.x(wiring.receiver_qubit)


def _z_gadget(circuit: QuantumCircuit, wiring: GadgetWiring) -> None:
    circuit.swap(wiring.sender_qubit, wiring.receiver_qubit)
    circuit.z(wiring.receiver_qubit)


class _SingleTermProtocol(WireCutProtocol):
    """One swap-based term; only the gadget builder differs between instances."""

    name = "single"

    def __init__(self, builder):
        super().__init__()
        self.builder = builder
        self.builds = 0

    def build_terms(self):
        def counting_builder(circuit, wiring):
            self.builds += 1
            self.builder(circuit, wiring)

        return (
            WireCutTerm(
                coefficient=1.0,
                channel=_IDENTITY,
                label="swap",
                gadget_builder=counting_builder,
            ),
        )

    def theoretical_overhead(self):
        return 1.0


def _one_qubit_circuit(angle: float) -> QuantumCircuit:
    circuit = QuantumCircuit(1, name="prep")
    circuit.ry(angle, 0)
    return circuit


class TestGadgetMemo:
    def test_each_key_is_built_once(self):
        protocol = _SingleTermProtocol(_x_gadget)
        wiring = GadgetWiring(sender_qubit=0, receiver_qubit=1)
        first = protocol.gadget_instructions(0, wiring, 2, 0)
        assert protocol.gadget_instructions(0, wiring, 2, 0) is first
        assert protocol.builds == 1
        protocol.gadget_instructions(0, GadgetWiring(sender_qubit=1, receiver_qubit=2), 3, 0)
        assert protocol.builds == 2

    def test_one_build_serves_every_input_circuit(self):
        protocol = _SingleTermProtocol(_x_gadget)
        for angle in (0.1, 0.2, 0.3, 0.4):
            circuit = _one_qubit_circuit(angle)
            build_cut_circuits(circuit, CutLocation(0, len(circuit)), protocol)
        assert protocol.builds == 1

    def test_multi_cut_reuses_gadgets_across_product_terms(self):
        protocols = [NMEWireCut(0.5), NMEWireCut(0.5)]
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        term_circuits = build_multi_cut_circuits(
            circuit, [CutLocation(0, 2), CutLocation(1, 2)], protocols
        )
        assert len(term_circuits) == 9
        # Each product term shares its gadgets' instruction objects with the
        # other product terms that wire the same gadget the same way.
        first, second = term_circuits[0].circuit, term_circuits[1].circuit
        shared = {id(ins) for ins in first.instructions} & {id(ins) for ins in second.instructions}
        assert shared

    def test_equal_terms_with_different_builders_never_share(self):
        x_protocol = _SingleTermProtocol(_x_gadget)
        z_protocol = _SingleTermProtocol(_z_gadget)
        # gadget_builder does not take part in equality.
        assert x_protocol.terms[0] == z_protocol.terms[0]
        circuit = _one_qubit_circuit(0.7)
        location = CutLocation(0, len(circuit))
        x_names = [ins.name for ins in build_cut_circuits(circuit, location, x_protocol)[0].circuit]
        z_names = [ins.name for ins in build_cut_circuits(circuit, location, z_protocol)[0].circuit]
        assert x_names == ["ry", "swap", "x"]
        assert z_names == ["ry", "swap", "z"]
        assert x_protocol.builds == z_protocol.builds == 1


class TestMovedBoundsCheck:
    def test_memoised_gadget_on_too_few_qubits_raises(self):
        protocol = NMEWireCut(0.5)
        wiring = GadgetWiring(sender_qubit=0, receiver_qubit=1, ancilla_qubits=(2,))
        gadget = protocol.gadget_instructions(0, wiring, 3, 2)
        QuantumCircuit(3, 2).extend(gadget)
        with pytest.raises(CircuitError, match="qubit index 2"):
            QuantumCircuit(2, 2).extend(gadget)

    def test_memoised_gadget_on_too_few_clbits_raises(self):
        protocol = NMEWireCut(0.5)
        wiring = GadgetWiring(sender_qubit=0, receiver_qubit=1, ancilla_qubits=(2,), clbit_offset=1)
        gadget = protocol.gadget_instructions(0, wiring, 3, 3)
        with pytest.raises(CircuitError, match="clbit index 2"):
            QuantumCircuit(3, 2).extend(gadget)

    def test_gadget_builder_errors_are_not_memoised(self):
        protocol = NMEWireCut(0.5)
        too_narrow = GadgetWiring(sender_qubit=0, receiver_qubit=1, ancilla_qubits=(2,))
        with pytest.raises(CircuitError):
            protocol.gadget_instructions(0, too_narrow, 2, 2)
        assert len(protocol.gadget_instructions(0, too_narrow, 3, 2)) > 0
