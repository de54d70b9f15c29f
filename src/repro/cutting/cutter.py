"""Applying a wire-cut protocol to a circuit location.

:func:`build_cut_circuits` takes an (uncut) circuit, a :class:`CutLocation`
identifying a wire (qubit + position in the instruction stream) and a
:class:`~repro.cutting.base.WireCutProtocol`, and produces one executable
circuit per QPD term.  Each term circuit contains:

* the original instructions up to the cut (the *sender fragment*),
* the term's gadget, which transfers the cut wire onto a fresh receiver
  qubit using only local operations, classical communication and — for NME
  protocols — a pre-shared resource pair,
* the original instructions after the cut (the *receiver fragment*), with the
  cut qubit remapped onto the receiver qubit.

The sender/receiver partition is recorded so that a genuinely distributed
execution (two devices exchanging classical messages) maps one-to-one onto
the produced circuits; in this repository both fragments run inside one
simulator, which is statistically equivalent (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import MEASURE, RESET
from repro.cutting.base import GadgetWiring, WireCutProtocol, WireCutTerm

__all__ = ["CutLocation", "CutTermCircuit", "build_cut_circuits", "cut_wire"]


@dataclass(frozen=True)
class CutLocation:
    """Identifies where a wire is cut.

    Attributes
    ----------
    qubit:
        The qubit whose wire is cut.
    position:
        Number of leading instructions of the original circuit that belong to
        the sender fragment (the cut happens *after* instruction
        ``position − 1``).  ``position = len(circuit)`` cuts at the very end
        of the circuit.
    """

    qubit: int
    position: int


@dataclass(frozen=True)
class CutTermCircuit:
    """One executable circuit realising a single QPD term of a cut.

    Attributes
    ----------
    circuit:
        The full term circuit (sender fragment + gadget + receiver fragment).
    term:
        The protocol term this circuit realises.
    term_index:
        Index of the term within the protocol.
    qubit_map:
        Mapping from original (logical) qubit indices to the physical qubit
        indices of ``circuit`` after the cut.
    gadget_clbits:
        Absolute classical-bit indices written by the gadget.
    sign_clbits:
        Absolute classical-bit indices whose parity multiplies measured
        observables during post-processing.
    sender_qubits / receiver_qubits:
        The partition of physical qubits between the two devices a
        distributed execution would use.
    """

    circuit: QuantumCircuit
    term: WireCutTerm
    term_index: int
    qubit_map: dict[int, int]
    gadget_clbits: tuple[int, ...]
    sign_clbits: tuple[int, ...]
    sender_qubits: tuple[int, ...] = field(default_factory=tuple)
    receiver_qubits: tuple[int, ...] = field(default_factory=tuple)

    @property
    def coefficient(self) -> float:
        """The term's quasiprobability coefficient."""
        return self.term.coefficient


def _validate_location(circuit: QuantumCircuit, location: CutLocation) -> None:
    if not 0 <= location.qubit < circuit.num_qubits:
        raise CuttingError(
            f"cut qubit {location.qubit} out of range for a {circuit.num_qubits}-qubit circuit"
        )
    if not 0 <= location.position <= len(circuit):
        raise CuttingError(
            f"cut position {location.position} out of range for a circuit with "
            f"{len(circuit)} instructions"
        )
    for instruction in circuit.instructions[location.position :]:
        if instruction.kind in (MEASURE, RESET) and location.qubit in instruction.qubits:
            raise CuttingError(
                "the cut qubit is measured or reset after the cut point; cut before "
                "non-unitary operations on the wire"
            )


def build_cut_circuits(
    circuit: QuantumCircuit,
    location: CutLocation,
    protocol: WireCutProtocol,
) -> list[CutTermCircuit]:
    """Return one :class:`CutTermCircuit` per QPD term of ``protocol``.

    The original circuit is left untouched.  The sender and receiver
    fragments are shared by every term, and each term's gadget comes from the
    protocol's memo (:meth:`~repro.cutting.base.WireCutProtocol.gadget_instructions`),
    so only the per-term assembly runs once per term.
    """
    _validate_location(circuit, location)
    num_original = circuit.num_qubits
    receiver_qubit = num_original
    clbit_offset = circuit.num_clbits
    sender_fragment = circuit.instructions[: location.position]
    # Remapping onto the fresh receiver qubit cannot make an instruction touch
    # one qubit twice, so the remapped fragment stays valid.
    qubit_remap = {location.qubit: receiver_qubit}
    receiver_fragment = [
        instruction.remap(qubit_remap) for instruction in circuit.instructions[location.position :]
    ]
    qubit_map = {q: q for q in range(num_original)}
    qubit_map[location.qubit] = receiver_qubit

    term_circuits = []
    for term_index, term in enumerate(protocol.terms):
        ancilla_qubits = tuple(range(num_original + 1, num_original + 1 + term.num_ancilla_qubits))
        total_qubits = num_original + 1 + term.num_ancilla_qubits
        total_clbits = clbit_offset + term.num_gadget_clbits
        wiring = GadgetWiring(
            sender_qubit=location.qubit,
            receiver_qubit=receiver_qubit,
            ancilla_qubits=ancilla_qubits,
            clbit_offset=clbit_offset,
        )
        cut_circuit = QuantumCircuit(
            total_qubits, total_clbits, name=f"{circuit.name}_{protocol.name}_term{term_index}"
        )
        cut_circuit.extend(sender_fragment)
        cut_circuit.extend(
            protocol.gadget_instructions(term_index, wiring, total_qubits, total_clbits)
        )
        cut_circuit.extend(receiver_fragment)
        term_circuits.append(
            CutTermCircuit(
                circuit=cut_circuit,
                term=term,
                term_index=term_index,
                qubit_map=dict(qubit_map),
                gadget_clbits=tuple(range(clbit_offset, total_clbits)),
                sign_clbits=tuple(clbit_offset + relative for relative in term.sign_clbits),
                sender_qubits=tuple(range(num_original)) + ancilla_qubits,
                receiver_qubits=(receiver_qubit,),
            )
        )
    return term_circuits


def cut_wire(
    circuit: QuantumCircuit,
    qubit: int,
    position: int,
    protocol: WireCutProtocol,
) -> list[CutTermCircuit]:
    """Convenience wrapper around :func:`build_cut_circuits`."""
    return build_cut_circuits(circuit, CutLocation(qubit=qubit, position=position), protocol)
