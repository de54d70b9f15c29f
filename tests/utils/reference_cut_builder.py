"""Per-instruction cut-circuit builders: the equivalence oracle of the memoised builders.

The production builders (:func:`repro.cutting.cutter.build_cut_circuits`,
:func:`repro.cutting.multi_wire.build_multi_cut_circuits` and
:func:`repro.cutting.executor._measured_term_circuit`) append each term's
gadget from the protocol's memoised instruction tuple and append whole
instruction sequences with one bounds check.  This module keeps the
original builders, which call the term's gadget builder on every term circuit
and validate every instruction as it is appended, as the oracle
``tests/property/test_property_cut_builder.py`` checks the production
builders against.

The one change from the original code: :func:`reference_measured_term_circuit`
appends the base circuit's instructions one by one instead of calling
:meth:`QuantumCircuit.compose`, which is the code under test.  That loop is
exactly what ``compose`` did for an identity mapping.

Import it as ``from utils.reference_cut_builder import ...`` inside
``tests/``.
"""

from __future__ import annotations

from itertools import product

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import _BASIS_CHANGE
from repro.cutting.base import GadgetWiring, WireCutProtocol, WireCutTerm
from repro.cutting.cutter import CutLocation, CutTermCircuit, _validate_location
from repro.cutting.multi_wire import MultiCutTermCircuit, _validate_multi_locations
from repro.exceptions import CuttingError
from repro.quantum.paulis import PauliString

__all__ = [
    "reference_build_cut_circuits",
    "reference_build_multi_cut_circuits",
    "reference_measured_term_circuit",
]


def reference_build_cut_circuits(
    circuit: QuantumCircuit,
    location: CutLocation,
    protocol: WireCutProtocol,
) -> list[CutTermCircuit]:
    """Return one :class:`CutTermCircuit` per term, built instruction by instruction."""
    _validate_location(circuit, location)
    return [
        _build_single_term(circuit, location, term, index, protocol.name)
        for index, term in enumerate(protocol.terms)
    ]


def _build_single_term(
    circuit: QuantumCircuit,
    location: CutLocation,
    term: WireCutTerm,
    term_index: int,
    protocol_name: str,
) -> CutTermCircuit:
    num_original = circuit.num_qubits
    receiver_qubit = num_original
    ancilla_qubits = tuple(range(num_original + 1, num_original + 1 + term.num_ancilla_qubits))
    total_qubits = num_original + 1 + term.num_ancilla_qubits
    clbit_offset = circuit.num_clbits
    total_clbits = clbit_offset + term.num_gadget_clbits

    cut_circuit = QuantumCircuit(
        total_qubits, total_clbits, name=f"{circuit.name}_{protocol_name}_term{term_index}"
    )

    # Sender fragment: instructions before the cut, unchanged.
    for instruction in circuit.instructions[: location.position]:
        cut_circuit.append(instruction)

    # The cut gadget.
    wiring = GadgetWiring(
        sender_qubit=location.qubit,
        receiver_qubit=receiver_qubit,
        ancilla_qubits=ancilla_qubits,
        clbit_offset=clbit_offset,
    )
    term.build_gadget(cut_circuit, wiring)

    # Receiver fragment: remaining instructions with the cut qubit remapped.
    qubit_remap = {location.qubit: receiver_qubit}
    for instruction in circuit.instructions[location.position :]:
        cut_circuit.append(instruction.remap(qubit_remap))

    qubit_map = {q: q for q in range(num_original)}
    qubit_map[location.qubit] = receiver_qubit
    gadget_clbits = tuple(range(clbit_offset, clbit_offset + term.num_gadget_clbits))
    sign_clbits = tuple(clbit_offset + relative for relative in term.sign_clbits)

    sender_qubits = tuple(range(num_original)) + ancilla_qubits
    receiver_qubits = (receiver_qubit,)

    return CutTermCircuit(
        circuit=cut_circuit,
        term=term,
        term_index=term_index,
        qubit_map=qubit_map,
        gadget_clbits=gadget_clbits,
        sign_clbits=sign_clbits,
        sender_qubits=sender_qubits,
        receiver_qubits=receiver_qubits,
    )


def reference_measured_term_circuit(
    term_circuit: CutTermCircuit, pauli: PauliString
) -> tuple[QuantumCircuit, tuple[int, ...]]:
    """Append observable basis changes and measurements to a term circuit.

    Returns the measured circuit and the classical bits holding the
    observable outcomes.
    """
    base = term_circuit.circuit
    active = [
        (term_circuit.qubit_map[logical], label)
        for logical, label in enumerate(pauli.labels)
        if label != "I"
    ]
    measured = QuantumCircuit(
        base.num_qubits, base.num_clbits + len(active), name=f"{base.name}_meas"
    )
    for instruction in base.instructions:
        measured.append(instruction)
    observable_clbits = []
    for offset, (physical_qubit, label) in enumerate(active):
        for gate_name, params in _BASIS_CHANGE[label]:
            measured.gate(gate_name, physical_qubit, params)
        clbit = base.num_clbits + offset
        measured.measure(physical_qubit, clbit)
        observable_clbits.append(clbit)
    return measured, tuple(observable_clbits)


def reference_build_multi_cut_circuits(
    circuit: QuantumCircuit,
    locations: list[CutLocation],
    protocols: list[WireCutProtocol],
) -> list[MultiCutTermCircuit]:
    """Cut several wires, building every product term instruction by instruction."""
    if len(locations) != len(protocols):
        raise CuttingError("locations and protocols must have the same length")
    _validate_multi_locations(circuit, locations)

    order = sorted(range(len(locations)), key=lambda i: locations[i].position, reverse=True)
    results = []

    for term_choice in product(*(range(len(p.terms)) for p in protocols)):
        current = circuit
        qubit_map = {q: q for q in range(circuit.num_qubits)}
        coefficient = 1.0
        sign_clbits: list[int] = []
        labels: list[str] = []
        pairs = 0
        for cut_rank in order:
            location = locations[cut_rank]
            protocol = protocols[cut_rank]
            term = protocol.terms[term_choice[cut_rank]]

            sender_qubit = location.qubit
            receiver_qubit = current.num_qubits
            ancillas = tuple(
                range(current.num_qubits + 1, current.num_qubits + 1 + term.num_ancilla_qubits)
            )
            clbit_offset = current.num_clbits
            new_circuit = QuantumCircuit(
                current.num_qubits + 1 + term.num_ancilla_qubits,
                current.num_clbits + term.num_gadget_clbits,
                name=f"{circuit.name}_multicut",
            )
            for instruction in current.instructions[: location.position]:
                new_circuit.append(instruction)
            wiring = GadgetWiring(
                sender_qubit=sender_qubit,
                receiver_qubit=receiver_qubit,
                ancilla_qubits=ancillas,
                clbit_offset=clbit_offset,
            )
            term.build_gadget(new_circuit, wiring)
            remap = {sender_qubit: receiver_qubit}
            for instruction in current.instructions[location.position :]:
                new_circuit.append(instruction.remap(remap))

            coefficient *= term.coefficient
            sign_clbits.extend(clbit_offset + rel for rel in term.sign_clbits)
            labels.append(term.label)
            if term.consumes_entangled_pair:
                pairs += 1
            for logical, physical in qubit_map.items():
                if physical == sender_qubit:
                    qubit_map[logical] = receiver_qubit
            current = new_circuit

        ordered_labels = [""] * len(locations)
        position_in_order = {cut_rank: rank for rank, cut_rank in enumerate(order)}
        for cut_rank in range(len(locations)):
            ordered_labels[cut_rank] = labels[position_in_order[cut_rank]]

        results.append(
            MultiCutTermCircuit(
                circuit=current,
                coefficient=coefficient,
                term_indices=tuple(term_choice),
                qubit_map=dict(qubit_map),
                sign_clbits=tuple(sign_clbits),
                labels=tuple(ordered_labels),
                entangled_pairs=pairs,
            )
        )
    return results
