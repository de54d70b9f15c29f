"""Quantum state containers: :class:`Statevector` and :class:`DensityMatrix`.

Both classes are thin, immutable-by-convention wrappers around NumPy arrays.
They validate their data on construction, expose the operations the rest of
the library needs (evolution, expectation values, partial trace, outcome
probabilities) and convert freely between each other.

Qubit ordering is big-endian throughout: qubit 0 is the most significant bit
of a basis label, i.e. ``|q0 q1 ... q_{n-1}>``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import DimensionError, StateError
from repro.quantum.partial import partial_trace
from repro.utils.linalg import (
    ATOL_DEFAULT,
    is_density_matrix,
    is_statevector,
    ket,
    num_qubits_from_dim,
    outer,
)

__all__ = ["Statevector", "DensityMatrix"]


class Statevector:
    """A pure n-qubit state.

    Parameters
    ----------
    data:
        Either a complex vector of length ``2**n``, a bitstring label such as
        ``"010"``, or another :class:`Statevector`.
    validate:
        When True (default) the vector is checked for normalisation.
    """

    __slots__ = ("_data", "_num_qubits")

    def __init__(self, data: "np.ndarray | str | Statevector", validate: bool = True):
        if isinstance(data, Statevector):
            vector = data._data.copy()
        elif isinstance(data, str):
            vector = ket(data)
        else:
            vector = np.asarray(data, dtype=complex).ravel()
        if validate and not is_statevector(vector):
            raise StateError(
                "data is not a normalised statevector of power-of-two dimension "
                f"(dim={vector.shape[0] if vector.ndim == 1 else vector.shape}, "
                f"norm={np.linalg.norm(vector):.6g})"
            )
        self._data = vector
        self._num_qubits = num_qubits_from_dim(vector.shape[0])

    # -- basic properties ---------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying complex vector (do not mutate)."""
        return self._data

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return self._data.shape[0]

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Statevector(num_qubits={self.num_qubits}, data={np.round(self._data, 6)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Statevector):
            return NotImplemented
        return self.equiv(other, up_to_global_phase=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        """Return ``|0...0>`` on ``num_qubits`` qubits."""
        return cls(ket("0" * num_qubits), validate=False)

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Return the computational-basis state for a bitstring label."""
        return cls(label)

    # -- comparisons --------------------------------------------------------

    def equiv(
        self,
        other: "Statevector",
        atol: float = ATOL_DEFAULT,
        up_to_global_phase: bool = True,
    ) -> bool:
        """Return True if the two states are equal, optionally up to a global phase."""
        if self.dim != other.dim:
            return False
        if up_to_global_phase:
            overlap = np.vdot(other._data, self._data)
            return bool(abs(abs(overlap) - 1.0) <= atol)
        return bool(np.allclose(self._data, other._data, atol=atol))

    # -- transformations ----------------------------------------------------

    def evolve(self, unitary: np.ndarray, qubits: Sequence[int] | None = None) -> "Statevector":
        """Return the state after applying ``unitary`` on ``qubits``.

        When ``qubits`` is omitted the unitary must act on the full register.
        The implementation reshapes the statevector into a rank-n tensor and
        contracts only the target axes, avoiding construction of the full
        ``2^n × 2^n`` matrix.
        """
        unitary = np.asarray(unitary, dtype=complex)
        if qubits is None:
            if unitary.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"unitary shape {unitary.shape} does not match state dim {self.dim}"
                )
            return Statevector(unitary @ self._data, validate=False)

        qubits = list(qubits)
        k = len(qubits)
        if unitary.shape != (2**k, 2**k):
            raise DimensionError(
                f"unitary shape {unitary.shape} does not match {k} target qubits"
            )
        n = self.num_qubits
        tensor = self._data.reshape([2] * n)
        op = unitary.reshape([2] * (2 * k))
        # Contract the unitary's column axes with the state's target axes.
        tensor = np.tensordot(op, tensor, axes=(list(range(k, 2 * k)), qubits))
        # tensordot puts the new (row) axes first; move them back to `qubits`.
        rest = [q for q in range(n) if q not in qubits]
        current_order = qubits + rest
        inverse = np.argsort(current_order)
        tensor = np.transpose(tensor, inverse)
        return Statevector(tensor.reshape(-1), validate=False)

    def tensor(self, other: "Statevector") -> "Statevector":
        """Return ``self ⊗ other`` (self's qubits become the most significant)."""
        return Statevector(np.kron(self._data, other._data), validate=False)

    # -- measurements and expectation values --------------------------------

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Return the Born-rule outcome probabilities.

        When ``qubits`` is given, the marginal distribution over those qubits
        (in the given order) is returned.
        """
        probabilities = np.abs(self._data) ** 2
        if qubits is None:
            return probabilities
        qubits = list(qubits)
        n = self.num_qubits
        tensor = probabilities.reshape([2] * n)
        other = [q for q in range(n) if q not in qubits]
        marginal = tensor.sum(axis=tuple(other)) if other else tensor
        # Axes of `marginal` follow the ascending order of `qubits`; permute to
        # the requested order.
        ascending = sorted(qubits)
        perm = [ascending.index(q) for q in qubits]
        marginal = np.transpose(marginal, perm)
        return marginal.reshape(-1)

    def expectation_value(self, operator: np.ndarray, qubits: Sequence[int] | None = None) -> complex:
        """Return ``<ψ|O|ψ>`` for operator ``O`` acting on ``qubits`` (default: all)."""
        if qubits is None:
            operator = np.asarray(operator, dtype=complex)
            if operator.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"operator shape {operator.shape} does not match state dim {self.dim}"
                )
            return complex(np.vdot(self._data, operator @ self._data))
        evolved = self.evolve(operator, qubits)
        return complex(np.vdot(self._data, evolved._data))

    # -- conversions ---------------------------------------------------------

    def to_density_matrix(self) -> "DensityMatrix":
        """Return the rank-1 density operator ``|ψ><ψ|``."""
        return DensityMatrix(outer(self._data), validate=False)

    def reduced_density_matrix(self, keep: Sequence[int]) -> "DensityMatrix":
        """Return the reduced state on the ``keep`` qubits (others traced out)."""
        keep = list(keep)
        trace_out = [q for q in range(self.num_qubits) if q not in keep]
        reduced = partial_trace(outer(self._data), trace_out)
        return DensityMatrix(reduced, validate=False)


class DensityMatrix:
    """A (generally mixed) n-qubit state represented by its density operator."""

    __slots__ = ("_data", "_num_qubits")

    def __init__(
        self,
        data: "np.ndarray | str | Statevector | DensityMatrix",
        validate: bool = True,
    ):
        if isinstance(data, DensityMatrix):
            matrix = data._data.copy()
        elif isinstance(data, Statevector):
            matrix = outer(data.data)
        elif isinstance(data, str):
            matrix = outer(ket(data))
        else:
            array = np.asarray(data, dtype=complex)
            matrix = outer(array) if array.ndim == 1 else array
        if validate and not is_density_matrix(matrix):
            raise StateError(
                "data is not a valid density matrix (PSD, unit trace, power-of-two dim); "
                f"shape={matrix.shape}, trace={np.trace(matrix):.6g}"
            )
        self._data = matrix
        self._num_qubits = num_qubits_from_dim(matrix.shape[0])

    # -- basic properties ---------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying density matrix (do not mutate)."""
        return self._data

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension."""
        return self._data.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DensityMatrix(num_qubits={self.num_qubits})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        """Return ``|0...0><0...0|``."""
        return Statevector.zero_state(num_qubits).to_density_matrix()

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        """Return the maximally mixed state ``I / 2^n``."""
        dim = 2**num_qubits
        return cls(np.eye(dim, dtype=complex) / dim, validate=False)

    # -- scalar diagnostics ---------------------------------------------------

    def purity(self) -> float:
        """Return ``Tr[ρ²]`` (1 for pure states, ``1/2^n`` for maximally mixed)."""
        return float(np.real(np.trace(self._data @ self._data)))

    def is_pure(self, atol: float = 1e-8) -> bool:
        """Return True when the state is pure within tolerance."""
        return abs(self.purity() - 1.0) <= atol

    def eigenvalues(self) -> np.ndarray:
        """Return the (real, ascending) eigenvalues of the density matrix."""
        return np.linalg.eigvalsh(self._data)

    def to_statevector(self, atol: float = 1e-8) -> Statevector:
        """Return the statevector of a pure density matrix.

        Raises
        ------
        StateError
            If the state is not pure within ``atol``.
        """
        if not self.is_pure(atol=atol):
            raise StateError(f"state is not pure (purity={self.purity():.6g})")
        eigenvalues, eigenvectors = np.linalg.eigh(self._data)
        return Statevector(eigenvectors[:, -1], validate=False)

    # -- transformations ----------------------------------------------------

    def evolve(self, unitary: np.ndarray, qubits: Sequence[int] | None = None) -> "DensityMatrix":
        """Return ``U ρ U†`` with ``U`` acting on ``qubits`` (default: all)."""
        unitary = np.asarray(unitary, dtype=complex)
        if qubits is None:
            if unitary.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"unitary shape {unitary.shape} does not match state dim {self.dim}"
                )
            return DensityMatrix(unitary @ self._data @ unitary.conj().T, validate=False)
        from repro.utils.linalg import expand_operator

        full = expand_operator(unitary, list(qubits), self.num_qubits)
        return DensityMatrix(full @ self._data @ full.conj().T, validate=False)

    def apply_kraus(
        self, kraus_operators: Sequence[np.ndarray], qubits: Sequence[int] | None = None
    ) -> "DensityMatrix":
        """Apply a Kraus channel ``ρ → Σ_i K_i ρ K_i†`` on ``qubits`` (default: all)."""
        from repro.utils.linalg import expand_operator

        result = np.zeros_like(self._data)
        for kraus in kraus_operators:
            kraus = np.asarray(kraus, dtype=complex)
            full = (
                kraus
                if qubits is None
                else expand_operator(kraus, list(qubits), self.num_qubits)
            )
            result += full @ self._data @ full.conj().T
        return DensityMatrix(result, validate=False)

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Return ``self ⊗ other``."""
        return DensityMatrix(np.kron(self._data, other._data), validate=False)

    def partial_trace(self, trace_out: Sequence[int]) -> "DensityMatrix":
        """Return the state with the given qubits traced out."""
        return DensityMatrix(partial_trace(self._data, trace_out), validate=False)

    # -- measurements and expectation values --------------------------------

    def probabilities(self) -> np.ndarray:
        """Return the diagonal (computational-basis outcome probabilities)."""
        return np.real(np.diag(self._data)).clip(min=0.0)

    def expectation_value(self, operator: np.ndarray) -> complex:
        """Return ``Tr[O ρ]``."""
        operator = np.asarray(operator, dtype=complex)
        if operator.shape != (self.dim, self.dim):
            raise DimensionError(
                f"operator shape {operator.shape} does not match state dim {self.dim}"
            )
        return complex(np.trace(operator @ self._data))
