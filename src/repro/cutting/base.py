"""Protocol-level abstractions for single-wire cuts.

A wire-cut *protocol* is a quasiprobability decomposition of the one-qubit
identity channel whose terms can each be realised by a small circuit gadget:
local operations on the sender side of the cut, classical communication, and
local operations on the receiver side (plus, for the NME protocols, a
pre-shared resource pair).

Two views of every term are maintained and kept consistent:

* **analytic** — a Kraus channel or raw superoperator, used for exact
  verification (does the weighted sum equal the identity map?) and exact
  expectation values;
* **operational** — a gadget builder that appends the term's circuit
  fragment (measurements, classically conditioned preparations,
  teleportation) to a larger circuit, used by the cutter/executor to run the
  protocol on a simulator backend exactly as a distributed device pair would.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.qpd.decomposition import QuasiProbDecomposition
from repro.qpd.terms import QPDTerm

__all__ = ["GadgetWiring", "WireCutTerm", "WireCutProtocol", "superoperator_from_map"]


@dataclass(frozen=True)
class GadgetWiring:
    """Physical wiring of one cut gadget inside a larger circuit.

    Attributes
    ----------
    sender_qubit:
        The qubit carrying the state to be transferred (the cut wire, on the
        sender's side).
    receiver_qubit:
        The fresh qubit that carries the wire after the cut (receiver side).
    ancilla_qubits:
        Additional qubits the gadget may use (e.g. the sender-side half of a
        pre-shared resource pair).
    clbit_offset:
        Index of the first classical bit reserved for the gadget; the gadget
        uses ``clbit_offset, clbit_offset+1, ...``.
    """

    sender_qubit: int
    receiver_qubit: int
    ancilla_qubits: tuple[int, ...] = ()
    clbit_offset: int = 0

    def clbit(self, relative_index: int) -> int:
        """Return the absolute classical-bit index for a gadget-relative index."""
        return self.clbit_offset + relative_index


#: Signature of a gadget builder: appends instructions to ``circuit`` in place.
GadgetBuilder = Callable[[QuantumCircuit, GadgetWiring], None]


@dataclass(frozen=True)
class WireCutTerm(QPDTerm):
    """One QPD term of a wire-cut protocol, with its circuit gadget.

    Extends :class:`~repro.qpd.terms.QPDTerm` with the operational data the
    cutter and executor need.

    Attributes
    ----------
    gadget_builder:
        Callable appending the term's circuit fragment.
    num_ancilla_qubits:
        Extra qubits (beyond sender and receiver) the gadget needs.
    num_gadget_clbits:
        Classical bits the gadget writes.
    sign_clbits:
        Gadget-relative classical bit indices whose measured parity multiplies
        the observable outcome during post-processing (used by
        observable-weighted terms such as the Peng cut's Pauli measurements).
    consumes_entangled_pair:
        True when the gadget consumes one pre-shared entangled pair
        (resource accounting for the pairs-per-shot benchmark).
    """

    gadget_builder: GadgetBuilder | None = field(default=None, compare=False)
    num_ancilla_qubits: int = 0
    num_gadget_clbits: int = 0
    sign_clbits: tuple[int, ...] = ()
    consumes_entangled_pair: bool = False

    def build_gadget(self, circuit: QuantumCircuit, wiring: GadgetWiring) -> None:
        """Append the term's gadget to ``circuit`` using ``wiring``."""
        if self.gadget_builder is None:
            raise CuttingError(f"term {self.label!r} has no gadget builder")
        if len(wiring.ancilla_qubits) != self.num_ancilla_qubits:
            raise CuttingError(
                f"term {self.label!r} needs {self.num_ancilla_qubits} ancilla qubits, "
                f"wiring provides {len(wiring.ancilla_qubits)}"
            )
        self.gadget_builder(circuit, wiring)

    def gadget_instructions(
        self, wiring: GadgetWiring, num_qubits: int, num_clbits: int
    ) -> tuple[Instruction, ...]:
        """Build the gadget on a scratch circuit of the given register sizes.

        Returns the validated instructions, ready for
        :meth:`~repro.circuits.circuit.QuantumCircuit.extend` onto any
        circuit whose registers hold them.
        """
        scratch = QuantumCircuit(num_qubits, num_clbits, name="gadget")
        self.build_gadget(scratch, wiring)
        return tuple(scratch.instructions)


class WireCutProtocol(ABC):
    """Base class of single-wire-cut protocols (a QPD of the one-qubit identity)."""

    #: Human-readable protocol name (set by subclasses).
    name: str = "wire-cut"

    def __init__(self) -> None:
        self._terms: tuple[WireCutTerm, ...] | None = None
        self._gadgets: dict[tuple[int, GadgetWiring, int, int], tuple[Instruction, ...]] = {}
        #: Per-term Pauli transfer matrices, shape ``(num_terms, 4, 4)``;
        #: measured once from probe states by :mod:`repro.cutting.executor`.
        self._transfer_matrices: np.ndarray | None = None

    # -- abstract surface ---------------------------------------------------------

    @abstractmethod
    def build_terms(self) -> tuple[WireCutTerm, ...]:
        """Construct the protocol's QPD terms (called once and cached)."""

    @abstractmethod
    def theoretical_overhead(self) -> float:
        """Return the analytic κ this protocol is supposed to attain."""

    # -- cached views ----------------------------------------------------------------

    @property
    def terms(self) -> tuple[WireCutTerm, ...]:
        """The protocol's terms (built lazily, cached)."""
        if self._terms is None:
            self._terms = tuple(self.build_terms())
            if not self._terms:
                raise CuttingError(f"protocol {self.name!r} produced no terms")
        return self._terms

    def gadget_instructions(
        self, term_index: int, wiring: GadgetWiring, num_qubits: int, num_clbits: int
    ) -> tuple[Instruction, ...]:
        """Return term ``term_index``'s gadget instructions on ``wiring`` (memoised).

        A gadget depends only on its term, its wiring and the register sizes
        (builders append instructions and never read the circuit), so each
        combination is built once (:meth:`WireCutTerm.gadget_instructions`)
        and every later term circuit shares the validated instructions.  The
        memo lives on this protocol instance and is keyed by term index, so
        terms of other protocols are never confused with these even when
        they compare equal.
        """
        key = (term_index, wiring, num_qubits, num_clbits)
        instructions = self._gadgets.get(key)
        if instructions is None:
            term = self.terms[term_index]
            instructions = self._gadgets[key] = term.gadget_instructions(
                wiring, num_qubits, num_clbits
            )
        return instructions

    def decomposition(self) -> QuasiProbDecomposition:
        """Return the protocol as a :class:`QuasiProbDecomposition`."""
        return QuasiProbDecomposition(self.terms, name=self.name)

    @property
    def kappa(self) -> float:
        """The 1-norm of the protocol's coefficients."""
        return float(sum(abs(term.coefficient) for term in self.terms))

    @property
    def num_terms(self) -> int:
        """Number of QPD terms."""
        return len(self.terms)

    # -- verification -----------------------------------------------------------------

    def is_exact(self, atol: float = 1e-9) -> bool:
        """Return True when the weighted terms sum exactly to the identity channel."""
        return self.decomposition().matches_identity(atol=atol)

    def verify(self, atol: float = 1e-9) -> None:
        """Raise :class:`CuttingError` unless the protocol is a valid identity QPD.

        Checks (i) the superoperator sum equals the identity, (ii) the
        coefficients sum to 1, and (iii) κ matches the protocol's analytic
        overhead.
        """
        decomposition = self.decomposition()
        if not decomposition.matches_identity(atol=atol):
            raise CuttingError(f"protocol {self.name!r} does not reproduce the identity channel")
        if abs(decomposition.coefficient_sum() - 1.0) > 1e-8:
            raise CuttingError(
                f"protocol {self.name!r} coefficients sum to {decomposition.coefficient_sum():.6g}"
            )
        if abs(self.kappa - self.theoretical_overhead()) > 1e-8:
            raise CuttingError(
                f"protocol {self.name!r} has κ={self.kappa:.6g}, expected "
                f"{self.theoretical_overhead():.6g}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(kappa={self.kappa:.4f}, terms={self.num_terms})"


def superoperator_from_map(
    apply_map: Callable[[np.ndarray], np.ndarray], dim: int = 2
) -> np.ndarray:
    """Build the dense superoperator of an arbitrary linear map on ``dim × dim`` matrices.

    The map is probed with every matrix unit; this is exact for linear maps
    and is only used on single-qubit maps, so cost is negligible.
    """
    superop = np.zeros((dim * dim, dim * dim), dtype=complex)
    for row in range(dim):
        for col in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[row, col] = 1.0
            superop[:, row * dim + col] = apply_map(unit).reshape(-1)
    return superop
