"""Gate cutting (the related-work alternative to wire cutting).

Instead of cutting a wire, a non-local two-qubit *gate* can be decomposed
into sampled local operations (Mitarai & Fujii [12]; Piveteau & Sutter [14]).
For the ZZ-interaction family — which covers CZ up to local gates — the
channel of ``exp(iθ Z⊗Z)`` admits the six-term local decomposition

.. math::

    \\mathcal{E}_\\theta = \\cos^2\\theta\\,[\\mathrm{id}]
      + \\sin^2\\theta\\,[Z\\!\\otimes\\!Z]
      + \\cos\\theta\\sin\\theta\\,
        (W\\!\\otimes\\!R_+ - W\\!\\otimes\\!R_- + R_+\\!\\otimes\\!W - R_-\\!\\otimes\\!W),

where ``R_± σ = e^{±iπ/4 Z} σ e^{∓iπ/4 Z}`` are local Z rotations and
``W(σ) = Π_+σΠ_+ − Π_-σΠ_-`` is the outcome-weighted Z measurement (the ±1
outcome is folded into post-processing, exactly like the Peng wire-cut
terms).  The identity follows from
``i[Z⊗Z, ρ] = ½({Z₁, i[Z₂, ρ]} + {Z₂, i[Z₁, ρ]})`` together with
``{Z, σ} = 2W(σ)`` and ``i[Z, σ] = (R_+ − R_-)(σ)``.

The overhead is ``κ = 1 + 2|sin 2θ|``, i.e. κ = 3 for CZ — the known optimal
value, matching the entanglement-free wire cut.  The decomposition is
verified numerically at construction time, and the gadget builders realise
each term with mid-circuit measurements and local rotations so gate cuts can
be executed end-to-end on the shot simulator and compared against wire cuts
in the ablation benchmarks.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation, measured_pauli_circuit
from repro.circuits.shot_simulator import ShotSimulator
from repro.qpd.allocation import allocate_shots
from repro.qpd.decomposition import QuasiProbDecomposition
from repro.qpd.estimator import TermEstimate, combine_term_estimates
from repro.qpd.terms import QPDTerm
from repro.quantum.paulis import PauliString
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "GateCutTerm",
    "GateCutProtocol",
    "ZZGateCut",
    "CZGateCut",
    "build_gate_cut_circuits",
    "estimate_gate_cut_expectation",
    "GateCutTermCircuit",
]

# Local building blocks.
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_ROT_PLUS = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])  # e^{+iπ/4 Z}
_ROT_MINUS = _ROT_PLUS.conj()
_S = np.diag([1.0, 1j]).astype(complex)


def _weighted_measurement_superop() -> np.ndarray:
    """Superoperator of the single-qubit map ``W(σ) = Π₊σΠ₊ − Π₋σΠ₋``."""
    pi_plus = np.diag([1.0, 0.0]).astype(complex)
    pi_minus = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(pi_plus, pi_plus.conj()) - np.kron(pi_minus, pi_minus.conj())


def _unitary_superop(unitary: np.ndarray) -> np.ndarray:
    """Superoperator of the unitary conjugation map for a single qubit."""
    return np.kron(unitary, unitary.conj())


def _tensor_single_qubit_superops(superop_1: np.ndarray, superop_2: np.ndarray) -> np.ndarray:
    """Superoperator of ``F₁ ⊗ F₂`` for two single-qubit maps (explicit basis construction)."""
    from repro.qpd.superop import tensor_superoperators

    return tensor_superoperators(superop_1, superop_2)


@dataclass(frozen=True)
class GateCutTerm(QPDTerm):
    """A QPD term of a gate cut.

    The gadget acts in place on the two qubits of the cut gate (no new qubits
    are introduced, unlike a wire cut).  ``sign_clbits`` lists the
    gadget-relative classical bits whose measured parity multiplies the
    observable during post-processing.
    """

    gadget_builder: Callable[[QuantumCircuit, int, int, int], None] | None = field(
        default=None, compare=False
    )
    num_gadget_clbits: int = 0
    sign_clbits: tuple[int, ...] = ()


def _rotation_gadget(angle_sign: int, rotate_qubit: int, measure_qubit: int):
    """Gadget: weighted Z measurement on one qubit, ``e^{±iπ/4 Z}`` rotation on the other.

    ``rotate_qubit``/``measure_qubit`` select which of the two gate qubits
    (0 or 1, gate-relative) gets which role.
    """

    def gadget(circuit: QuantumCircuit, qubit_a: int, qubit_b: int, clbit_offset: int) -> None:
        """Append the rotation/measurement pair at the wired qubits."""
        qubits = (qubit_a, qubit_b)
        # rz(θ) = e^{-iθZ/2} up to global phase, so e^{+iπ/4 Z} ≙ rz(-π/2).
        circuit.rz(-angle_sign * np.pi / 2.0, qubits[rotate_qubit])
        circuit.measure(qubits[measure_qubit], clbit_offset)

    return gadget


def _identity_gadget(circuit: QuantumCircuit, qubit_a: int, qubit_b: int, clbit_offset: int) -> None:
    """Gadget for the identity term: nothing to apply."""


def _zz_gadget(circuit: QuantumCircuit, qubit_a: int, qubit_b: int, clbit_offset: int) -> None:
    """Gadget for the Z⊗Z unitary term."""
    circuit.z(qubit_a)
    circuit.z(qubit_b)


class GateCutProtocol:
    """Base class for two-qubit gate cuts (QPDs of a two-qubit unitary channel)."""

    name = "gate-cut"

    def __init__(self) -> None:
        self._terms: tuple[GateCutTerm, ...] | None = None

    def build_terms(self) -> tuple[GateCutTerm, ...]:  # pragma: no cover - abstract
        """Construct the protocol's QPD terms (overridden by subclasses)."""
        raise NotImplementedError

    def target_unitary(self) -> np.ndarray:  # pragma: no cover - abstract
        """Return the two-qubit unitary this QPD reproduces (overridden by subclasses)."""
        raise NotImplementedError

    @property
    def terms(self) -> tuple[GateCutTerm, ...]:
        """The protocol's terms (built lazily and verified once)."""
        if self._terms is None:
            self._terms = tuple(self.build_terms())
            self._verify()
        return self._terms

    def decomposition(self) -> QuasiProbDecomposition:
        """Return the protocol as a :class:`QuasiProbDecomposition`."""
        return QuasiProbDecomposition(self.terms, name=self.name)

    @property
    def kappa(self) -> float:
        """Sampling-overhead factor."""
        return float(sum(abs(t.coefficient) for t in self.terms))

    def _verify(self) -> None:
        target = self.target_unitary()
        target_superop = np.kron(target, target.conj())
        total = sum(t.coefficient * t.superoperator() for t in self._terms)
        if not np.allclose(total, target_superop, atol=1e-9):
            raise CuttingError(
                f"gate-cut protocol {self.name!r} does not reproduce its target unitary channel"
            )


class ZZGateCut(GateCutProtocol):
    """Six-term local decomposition of the ``exp(iθ Z⊗Z)`` channel (κ = 1 + 2|sin 2θ|)."""

    name = "zz-gate-cut"

    def __init__(self, theta: float):
        super().__init__()
        self.theta = float(theta)

    def target_unitary(self) -> np.ndarray:
        """Return the ``e^{iθ Z⊗Z}`` unitary the decomposition reproduces."""
        zz = np.kron(_Z, _Z)
        return np.cos(self.theta) * np.eye(4, dtype=complex) + 1j * np.sin(self.theta) * zz

    def theoretical_overhead(self) -> float:
        """Analytic κ of the decomposition."""
        return float(1.0 + 2.0 * abs(np.sin(2.0 * self.theta)))

    def build_terms(self) -> tuple[GateCutTerm, ...]:
        """Construct the six ZZ-cut terms (identity, Z⊗Z and four weighted rotations)."""
        cos2 = float(np.cos(self.theta) ** 2)
        sin2 = float(np.sin(self.theta) ** 2)
        cross = float(np.cos(self.theta) * np.sin(self.theta))

        identity_superop = _unitary_superop(np.eye(2, dtype=complex))
        z_superop = _unitary_superop(_Z)
        rot_plus = _unitary_superop(_ROT_PLUS)
        rot_minus = _unitary_superop(_ROT_MINUS)
        weighted = _weighted_measurement_superop()

        terms = [
            GateCutTerm(
                coefficient=cos2,
                superoperator_matrix=_tensor_single_qubit_superops(identity_superop, identity_superop),
                label="identity",
                gadget_builder=_identity_gadget,
            ),
            GateCutTerm(
                coefficient=sin2,
                superoperator_matrix=_tensor_single_qubit_superops(z_superop, z_superop),
                label="z⊗z",
                gadget_builder=_zz_gadget,
            ),
        ]
        # The four cross terms: weighted measurement on one qubit, ±π/4 Z
        # rotation on the other.
        cross_specs = [
            (cross, weighted, rot_plus, "W⊗R+", 1, 0, +1),
            (-cross, weighted, rot_minus, "W⊗R-", 1, 0, -1),
            (cross, rot_plus, weighted, "R+⊗W", 0, 1, +1),
            (-cross, rot_minus, weighted, "R-⊗W", 0, 1, -1),
        ]
        for coefficient, superop_1, superop_2, label, rotate_qubit, measure_qubit, sign in cross_specs:
            if abs(coefficient) < 1e-15:
                continue
            terms.append(
                GateCutTerm(
                    coefficient=coefficient,
                    superoperator_matrix=_tensor_single_qubit_superops(superop_1, superop_2),
                    label=label,
                    gadget_builder=_rotation_gadget(sign, rotate_qubit, measure_qubit),
                    num_gadget_clbits=1,
                    sign_clbits=(0,),
                )
            )
        return tuple(terms)


class CZGateCut(GateCutProtocol):
    """Gate cut of the controlled-Z gate (κ = 3).

    Uses ``CZ = e^{-iπ/4}(S ⊗ S)·exp(iπ/4 Z⊗Z)``: every ZZ(π/4) term is
    post-composed with the local ``S ⊗ S`` rotation.
    """

    name = "cz-gate-cut"

    def __init__(self) -> None:
        super().__init__()
        self._zz = ZZGateCut(np.pi / 4.0)

    def target_unitary(self) -> np.ndarray:
        """Return the CZ unitary the decomposition reproduces."""
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

    def theoretical_overhead(self) -> float:
        """Analytic κ (3 for CZ)."""
        return 3.0

    def build_terms(self) -> tuple[GateCutTerm, ...]:
        """Construct the CZ terms: the ZZ(π/4) terms with S⊗S appended."""
        s_superop = _unitary_superop(_S)
        ss_superop = _tensor_single_qubit_superops(s_superop, s_superop)
        terms = []
        for term in self._zz.build_terms():

            def make_gadget(inner_builder):
                """Wrap a ZZ-term gadget so it also applies the trailing S gates."""
                def gadget(circuit: QuantumCircuit, qubit_a: int, qubit_b: int, clbit_offset: int) -> None:
                    """Append the inner gadget followed by S on both gate qubits."""
                    inner_builder(circuit, qubit_a, qubit_b, clbit_offset)
                    circuit.s(qubit_a)
                    circuit.s(qubit_b)

                return gadget

            terms.append(
                GateCutTerm(
                    coefficient=term.coefficient,
                    superoperator_matrix=ss_superop @ term.superoperator(),
                    label=f"{term.label}+S⊗S",
                    gadget_builder=make_gadget(term.gadget_builder),
                    num_gadget_clbits=term.num_gadget_clbits,
                    sign_clbits=term.sign_clbits,
                )
            )
        return tuple(terms)


# ---------------------------------------------------------------------------
# Applying a gate cut to a circuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateCutTermCircuit:
    """One executable circuit realising a single term of a gate cut."""

    circuit: QuantumCircuit
    term: GateCutTerm
    term_index: int
    sign_clbits: tuple[int, ...]

    @property
    def coefficient(self) -> float:
        """The term's quasiprobability coefficient."""
        return self.term.coefficient


def build_gate_cut_circuits(
    circuit: QuantumCircuit,
    gate_index: int,
    protocol: GateCutProtocol,
) -> list[GateCutTermCircuit]:
    """Replace the two-qubit gate at ``gate_index`` by each QPD term's gadget.

    The gate at ``gate_index`` must act on exactly two qubits; its unitary is
    not inspected — the caller chooses a protocol matching the gate (use
    :class:`CZGateCut` for ``cz``, :class:`ZZGateCut` for ``rzz``).
    """
    if not 0 <= gate_index < len(circuit):
        raise CuttingError(f"gate_index {gate_index} out of range")
    target = circuit.instructions[gate_index]
    if len(target.qubits) != 2:
        raise CuttingError("gate cutting requires a two-qubit gate at the cut position")
    qubit_a, qubit_b = target.qubits
    results = []
    for index, term in enumerate(protocol.terms):
        clbit_offset = circuit.num_clbits
        new_circuit = QuantumCircuit(
            circuit.num_qubits,
            circuit.num_clbits + term.num_gadget_clbits,
            name=f"{circuit.name}_{protocol.name}_term{index}",
        )
        for position, instruction in enumerate(circuit.instructions):
            if position == gate_index:
                term.gadget_builder(new_circuit, qubit_a, qubit_b, clbit_offset)
            else:
                new_circuit.append(instruction)
        sign_clbits = tuple(clbit_offset + rel for rel in term.sign_clbits)
        results.append(
            GateCutTermCircuit(
                circuit=new_circuit, term=term, term_index=index, sign_clbits=sign_clbits
            )
        )
    return results


def estimate_gate_cut_expectation(
    circuit: QuantumCircuit,
    gate_index: int,
    protocol: GateCutProtocol,
    observable: str | PauliString,
    shots: int,
    allocation: str = "proportional",
    seed: SeedLike = None,
    method: str = "exact",
    compute_exact: bool = True,
):
    """Estimate a Pauli observable of ``circuit`` with the gate at ``gate_index`` cut.

    Returns a :class:`~repro.cutting.executor.CutExpectationResult`.
    """
    from repro.cutting.executor import CutExpectationResult, _as_pauli

    rng = as_generator(seed)
    pauli = _as_pauli(observable, circuit.num_qubits)
    decomposition = protocol.decomposition()
    shots_per_term = allocate_shots(decomposition.probabilities, shots, strategy=allocation, seed=rng)
    term_circuits = build_gate_cut_circuits(circuit, gate_index, protocol)
    simulator = ShotSimulator(method=method)

    term_estimates = []
    for term_circuit, term_shots in zip(term_circuits, shots_per_term):
        if term_shots == 0:
            term_estimates.append(
                TermEstimate(
                    coefficient=term_circuit.coefficient, mean=0.0, shots=0, label=term_circuit.term.label
                )
            )
            continue
        measured, observable_clbits = measured_pauli_circuit(
            term_circuit.circuit, enumerate(pauli.labels)
        )
        counts = simulator.run(measured, shots=int(term_shots), seed=rng)
        selected = observable_clbits + list(term_circuit.sign_clbits)
        mean = counts.expectation_z(selected) if selected else 1.0
        term_estimates.append(
            TermEstimate(
                coefficient=term_circuit.coefficient,
                mean=mean,
                shots=int(term_shots),
                label=term_circuit.term.label,
            )
        )
    estimate = combine_term_estimates(term_estimates)
    exact_value = exact_expectation(circuit, pauli.to_matrix()) if compute_exact else None
    return CutExpectationResult(
        value=estimate.value,
        standard_error=estimate.standard_error,
        total_shots=estimate.total_shots,
        kappa=estimate.kappa,
        shots_per_term=tuple(int(s) for s in shots_per_term),
        term_estimates=estimate.term_estimates,
        protocol_name=protocol.name,
        exact_value=exact_value,
    )
