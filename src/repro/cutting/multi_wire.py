"""Cutting several wires of one circuit.

Cutting ``n`` wires independently multiplies the per-cut overheads
(``κ_total = Π κ_i``), which is the exponential-in-cuts cost the paper's
introduction motivates.  This module provides:

* :func:`build_multi_cut_circuits` — apply a (possibly different)
  single-wire protocol at each cut location; terms are the Cartesian product
  of the per-cut terms with multiplied coefficients.  Cuts may share a wire
  at different positions (a wire crossing several time slices is cut at each
  of them), which is what lets :func:`repro.cutting.cut_finding.plan_cuts`
  split a circuit into more than two fragments.
* :func:`estimate_multi_cut_expectation` — estimate an observable of the
  multiply-cut circuit through the term executor
  (:func:`repro.cutting.executor.execute_terms`).  All term circuits are
  submitted to a :class:`~repro.circuits.backends.SimulatorBackend` as one
  batch, so results are bitwise identical across backends for the same
  seed.  :class:`repro.pipeline.CutPipeline` runs the same term sets.
* :func:`independent_cuts_decomposition` — the channel-level tensor-product
  QPD, for analytic comparisons.
* overhead helpers re-exported from :mod:`repro.cutting.overhead` comparing
  independent cutting (3ⁿ without entanglement) with the optimal joint
  cutting bound (2^{n+1} − 1) of Brenner et al. [11], the future-work
  direction the paper mentions for NME states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.exceptions import CuttingError
from repro.circuits.backends import SimulatorBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.base import GadgetWiring, WireCutProtocol
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import (
    BackendRoundExecutor,
    CutExpectationResult,
    _as_pauli,
    _estimate,
    _measured_batch,
)
from repro.qpd.adaptive import DEFAULT_MAX_ROUNDS
from repro.qpd.decomposition import QuasiProbDecomposition
from repro.quantum.paulis import PauliString
from repro.utils.rng import SeedLike

__all__ = [
    "MultiCutTermCircuit",
    "build_multi_cut_circuits",
    "estimate_multi_cut_expectation",
    "independent_cuts_decomposition",
]


@dataclass(frozen=True)
class MultiCutTermCircuit:
    """One executable circuit for a combination of per-cut QPD terms.

    Attributes
    ----------
    circuit:
        The full circuit with every cut gadget inserted.
    coefficient:
        Product of the chosen terms' coefficients.
    term_indices:
        The chosen term index at each cut location (in the order the
        locations were given).
    qubit_map:
        Final mapping from original logical qubits to physical qubits.
    sign_clbits:
        Absolute classical bits whose parity multiplies measured observables.
    labels:
        Per-cut term labels.
    entangled_pairs:
        Number of pre-shared entangled pairs one shot of this term consumes
        (resource accounting across all cuts).
    """

    circuit: QuantumCircuit
    coefficient: float
    term_indices: tuple[int, ...]
    qubit_map: dict[int, int]
    sign_clbits: tuple[int, ...]
    labels: tuple[str, ...]
    entangled_pairs: int = 0

    @property
    def label(self) -> str:
        """Combined term label (per-cut labels joined with ``+``)."""
        return "+".join(self.labels)


def _validate_multi_locations(circuit: QuantumCircuit, locations: list[CutLocation]) -> None:
    """Reject out-of-range or duplicate cut locations."""
    if not locations:
        raise CuttingError("at least one cut location is required")
    seen = set()
    for location in locations:
        if not 0 <= location.qubit < circuit.num_qubits:
            raise CuttingError(f"cut qubit {location.qubit} out of range")
        if not 0 <= location.position <= len(circuit):
            raise CuttingError(f"cut position {location.position} out of range")
        key = (location.qubit, location.position)
        if key in seen:
            raise CuttingError(f"duplicate cut location {key}")
        seen.add(key)


def build_multi_cut_circuits(
    circuit: QuantumCircuit,
    locations: list[CutLocation],
    protocols: list[WireCutProtocol],
) -> list[MultiCutTermCircuit]:
    """Cut several wires and return one circuit per combination of QPD terms.

    ``protocols[i]`` is used at ``locations[i]``.  Cuts are inserted from the
    latest position to the earliest so that instruction positions given with
    respect to the *original* circuit stay valid.  The same wire may be cut
    at several positions: each cut transfers it onto a fresh receiver qubit,
    so a chain of cuts realises a chain of fragments.

    Parameters
    ----------
    circuit:
        The original (uncut) circuit; it is not modified.
    locations:
        The cut locations, one per protocol.
    protocols:
        The single-wire protocol applied at each location.

    Returns
    -------
    list[MultiCutTermCircuit]
        One executable circuit per element of the Cartesian product of the
        per-cut term sets, with multiplied coefficients.
    """
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
        # Track how many instructions have been *prepended* before each original
        # position; since we insert from the latest position backwards, earlier
        # positions are unaffected by later insertions.
        for cut_rank in order:
            location = locations[cut_rank]
            protocol = protocols[cut_rank]
            term_index = term_choice[cut_rank]
            term = protocol.terms[term_index]

            # Instructions before this cut are never remapped (later cuts only
            # remap instructions after their own, later, position), so the wire
            # carrying the cut qubit here is always the original index — even
            # when the same wire is cut again at a later position.
            sender_qubit = location.qubit
            receiver_qubit = current.num_qubits
            ancillas = tuple(
                range(current.num_qubits + 1, current.num_qubits + 1 + term.num_ancilla_qubits)
            )
            clbit_offset = current.num_clbits
            num_qubits = current.num_qubits + 1 + term.num_ancilla_qubits
            num_clbits = current.num_clbits + term.num_gadget_clbits
            new_circuit = QuantumCircuit(num_qubits, num_clbits, name=f"{circuit.name}_multicut")
            new_circuit.extend(current.instructions[: location.position])
            wiring = GadgetWiring(
                sender_qubit=sender_qubit,
                receiver_qubit=receiver_qubit,
                ancilla_qubits=ancillas,
                clbit_offset=clbit_offset,
            )
            new_circuit.extend(
                protocol.gadget_instructions(term_index, wiring, num_qubits, num_clbits)
            )
            # The receiver qubit is fresh, so remapping onto it cannot make an
            # instruction touch one qubit twice.
            remap = {sender_qubit: receiver_qubit}
            new_circuit.extend(
                [instruction.remap(remap) for instruction in current.instructions[location.position :]]
            )

            coefficient *= term.coefficient
            sign_clbits.extend(clbit_offset + rel for rel in term.sign_clbits)
            labels.append(term.label)
            if term.consumes_entangled_pair:
                pairs += 1
            # Update the logical-to-physical map for subsequent (earlier) cuts
            # and for the final observable mapping.
            for logical, physical in qubit_map.items():
                if physical == sender_qubit:
                    qubit_map[logical] = receiver_qubit
            current = new_circuit

        # `labels` were accumulated in descending-position order; report them
        # in the caller's location order.
        ordered_labels = [""] * len(locations)
        ordered_indices = list(term_choice)
        position_in_order = {cut_rank: rank for rank, cut_rank in enumerate(order)}
        for cut_rank in range(len(locations)):
            ordered_labels[cut_rank] = labels[position_in_order[cut_rank]]

        results.append(
            MultiCutTermCircuit(
                circuit=current,
                coefficient=coefficient,
                term_indices=tuple(ordered_indices),
                qubit_map=dict(qubit_map),
                sign_clbits=tuple(sign_clbits),
                labels=tuple(ordered_labels),
                entangled_pairs=pairs,
            )
        )
    return results


def estimate_multi_cut_expectation(
    circuit: QuantumCircuit,
    locations: list[CutLocation],
    protocols: list[WireCutProtocol],
    observable: str | PauliString,
    shots: int,
    allocation: str = "proportional",
    seed: SeedLike = None,
    compute_exact: bool = True,
    backend: SimulatorBackend | str | None = None,
    mode: str = "static",
    target_error: float | None = None,
    rounds: int = DEFAULT_MAX_ROUNDS,
    planner: str | None = None,
    execution: str = "inprocess",
    workers: int | None = None,
) -> CutExpectationResult:
    """Estimate a Pauli observable of a circuit with several wires cut.

    The full tensor-product QPD term set is built, the shot budget is split
    across the product terms proportionally to the coefficient-magnitude
    products (or per ``allocation``), and all term circuits are executed as
    one batch through ``backend``.

    Parameters
    ----------
    circuit:
        The original (uncut) circuit; it is not modified.
    locations:
        The cut locations, one per protocol.
    protocols:
        The single-wire protocol applied at each location.
    observable:
        Pauli observable over the circuit's logical qubits (a single letter
        refers to qubit 0; a non-unit phase is rejected).
    shots:
        Total shot budget across all product-term circuits.  In adaptive
        mode this is the hard ceiling; fewer shots are spent when the
        target error is reached early.
    allocation:
        Shot-allocation strategy (``proportional``, ``multinomial``,
        ``uniform``).
    seed:
        Seed or generator for all sampling (see
        :func:`~repro.cutting.executor.execute_terms`).
    compute_exact:
        Also compute the exact uncut value for error reporting.
    backend:
        Execution backend (name or instance); ``None`` selects the serial
        backend.  All backends yield identical results for the same seed.
    mode:
        ``"static"`` (default) or ``"adaptive"`` (round-structured
        execution with early stopping).
    target_error:
        Adaptive mode's stopping threshold on the pooled standard error
        (required when ``mode="adaptive"``).
    rounds:
        Adaptive mode's round limit.
    planner:
        Adaptive mode's per-round planner name (``"neyman"`` by default).
    execution:
        Adaptive mode's round execution: ``"inprocess"`` (default) or
        ``"distributed"`` (the work-stealing pool of
        :mod:`repro.distributed`; bitwise identical to in-process).
    workers:
        Distributed execution's worker-process count.

    Returns
    -------
    CutExpectationResult
        The recombined estimate with per-term summaries.
    """
    pauli = _as_pauli(observable, circuit.num_qubits)
    term_circuits = build_multi_cut_circuits(circuit, locations, protocols)
    source = BackendRoundExecutor(
        resolve_backend(backend), *_measured_batch(term_circuits, pauli)
    )
    exact_value = exact_expectation(circuit, pauli.to_matrix()) if compute_exact else None
    return _estimate(
        source,
        [term.coefficient for term in term_circuits],
        [term.label for term in term_circuits],
        shots,
        "+".join(p.name for p in protocols),
        exact_value,
        seed=seed,
        mode=mode,
        allocation=allocation,
        target_error=target_error,
        rounds=rounds,
        planner=planner,
        execution=execution,
        workers=workers,
    )


def independent_cuts_decomposition(
    protocols: list[WireCutProtocol],
) -> QuasiProbDecomposition:
    """Return the channel-level QPD of cutting each wire independently.

    The result acts on ``len(protocols)`` qubits and its κ is the product of
    the per-protocol κ values.

    Parameters
    ----------
    protocols:
        The per-wire protocols to tensor together.

    Returns
    -------
    QuasiProbDecomposition
        The tensor-product decomposition.
    """
    if not protocols:
        raise CuttingError("at least one protocol is required")
    decomposition = protocols[0].decomposition()
    for protocol in protocols[1:]:
        decomposition = decomposition.tensor(protocol.decomposition())
    return decomposition
