"""Transfer-matrix sampling models against simulated term circuits.

With a noiseless backend and every cut after its circuit's last instruction,
:func:`~repro.cutting.executor.build_sampling_models` takes each term's
``p₊`` from the protocol's Pauli transfer matrices instead of simulating one
term circuit per input.  The term-circuit path it replaced is still the
rule's other side (mid-circuit cuts, noisy backends, fleets), and here it is
the oracle: on random 1–3 qubit circuits with unitaries, ``initialize``,
mid-circuit measurement and reset and classical conditions, cut on a random
wire at the end and measured in a random Pauli observable (``I`` on the cut
wire included), every term's ``p₊`` agrees to 1e-12.  The exact value is
bitwise :func:`~repro.circuits.expectation.exact_expectation`, and the
``p₊`` are bitwise equal on the serial, vectorized and process-pool backends.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.backends import (
    DistributionCache,
    ProcessPoolBackend,
    SerialBackend,
    VectorizedBackend,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting import (
    DistilledTeleportWireCut,
    HaradaWireCut,
    NMEWireCut,
    PengWireCut,
    TeleportationWireCut,
)
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import _term_circuit_models, build_sampling_models
from repro.quantum.paulis import PauliString

from tests.property.strategies import single_qubit_statevectors

SETTINGS = settings(max_examples=25, deadline=None)

PROTOCOLS = {
    "nme-k0": lambda: NMEWireCut(0.0),
    "nme-k0.3": lambda: NMEWireCut(0.3),
    "nme-k0.75": lambda: NMEWireCut(0.75),
    "nme-k1": lambda: NMEWireCut(1.0),
    "nme-k1.8": lambda: NMEWireCut(1.8),
    "teleportation": TeleportationWireCut,
    "harada": HaradaWireCut,
    "peng": PengWireCut,
    "distilled": lambda: DistilledTeleportWireCut(0.5),
}

_ONE_QUBIT_GATES = ("h", "x", "s", "t", "sdg", "rx", "ry", "rz")


@cache
def _protocol(name: str, backend_name: str):
    """One protocol instance per backend, so each backend measures its own matrices."""
    return PROTOCOLS[name]()


@cache
def _backend(name: str):
    if name == "serial":
        return SerialBackend()
    return VectorizedBackend(cache=DistributionCache())


@st.composite
def circuits(draw, num_qubits: int, num_clbits: int):
    """A random circuit with gates, ``initialize``, measure/reset and conditions."""
    circuit = QuantumCircuit(num_qubits, num_clbits, name="c")
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        choice = draw(st.integers(min_value=0, max_value=5))
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
            circuit.h(qubit, condition=(clbit, draw(st.integers(min_value=0, max_value=1))))
        elif choice == 3:
            circuit.reset(qubit)
        elif choice == 4:
            circuit.initialize(draw(single_qubit_statevectors), qubit)
        else:
            name = draw(st.sampled_from(_ONE_QUBIT_GATES))
            params = (draw(st.floats(min_value=-3.0, max_value=3.0)),) if name[0] == "r" else ()
            circuit.gate(name, qubit, params)
    return circuit


@st.composite
def workloads(draw):
    """1–2 circuits of one width, each cut on a random wire at its end, and an observable."""
    num_qubits = draw(st.integers(min_value=1, max_value=3))
    num_clbits = draw(st.integers(min_value=0, max_value=2))
    batch = draw(st.lists(circuits(num_qubits, num_clbits), min_size=1, max_size=2))
    locations = [
        CutLocation(draw(st.integers(min_value=0, max_value=num_qubits - 1)), len(circuit))
        for circuit in batch
    ]
    observable = draw(st.text(alphabet="IXYZ", min_size=num_qubits, max_size=num_qubits))
    return batch, locations, observable


def _p_plus(models) -> list[list[float]]:
    return [[term.probability_plus for term in model.terms] for model in models]


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
class TestTransferMatricesMatchTermCircuits:
    @SETTINGS
    @given(workload=workloads())
    def test_p_plus_matches_the_term_circuit_oracle(self, protocol_name, workload):
        batch, locations, observable = workload
        (serial,) = build_sampling_models(
            batch, locations, [_protocol(protocol_name, "serial")], observable, _backend("serial")
        )
        oracle = _term_circuit_models(
            batch, locations, PROTOCOLS[protocol_name](), observable, SerialBackend()
        )
        assert np.max(np.abs(np.subtract(_p_plus(serial), _p_plus(oracle)))) <= 1e-12
        for circuit, model in zip(batch, serial):
            assert model.exact_value == exact_expectation(circuit, PauliString(observable))
            assert [term.label for term in model.terms] == [
                term.label for term in PROTOCOLS[protocol_name]().terms
            ]

        (vectorized,) = build_sampling_models(
            batch,
            locations,
            [_protocol(protocol_name, "vectorized")],
            observable,
            _backend("vectorized"),
        )
        assert _p_plus(vectorized) == _p_plus(serial)
        assert [m.exact_value for m in vectorized] == [m.exact_value for m in serial]


def test_process_pool_matches_in_process_backends_bitwise():
    batch = []
    for index, state in enumerate(
        ([0.6, 0.8j], [np.cos(0.3), np.exp(0.7j) * np.sin(0.3)], [1.0, 0.0])
    ):
        circuit = QuantumCircuit(2, 1, name=f"c{index}")
        circuit.initialize(np.asarray(state, dtype=complex), index % 2)
        circuit.cx(0, 1)
        circuit.measure(1, 0)
        circuit.gate("ry", 0, (0.4 + index,), condition=(0, 1))
        batch.append(circuit)
    locations = [CutLocation(index % 2, len(circuit)) for index, circuit in enumerate(batch)]
    names = sorted(PROTOCOLS)
    results = {
        name: build_sampling_models(
            batch, locations, [PROTOCOLS[p]() for p in names], "XZ", backend
        )
        for name, backend in (
            ("serial", SerialBackend()),
            ("vectorized", VectorizedBackend(cache=DistributionCache())),
            ("process-pool", ProcessPoolBackend(max_workers=2, chunk_size=16)),
        )
    }
    for name in ("vectorized", "process-pool"):
        for expected, actual in zip(results["serial"], results[name]):
            assert _p_plus(actual) == _p_plus(expected)
            assert [m.exact_value for m in actual] == [m.exact_value for m in expected]


@settings(max_examples=15, deadline=None)
@given(state=single_qubit_statevectors)
def test_teleport_terms_over_a_product_resource_give_exactly_one_half(state):
    # At k = 0 (Figure 6's f = 0.5) both teleport terms erase the Z component
    # of the wire: p₊ = ½ in exact arithmetic, and it must be ½ exactly,
    # because NumPy's binomial draws differ between p = ½ and p = ½ − ulp.
    circuit = QuantumCircuit(1, 0, name="c")
    circuit.initialize(state, 0)
    (model,) = build_sampling_models(
        [circuit], CutLocation(0, 1), [_protocol("nme-k0", "serial")], "Z", _backend("serial")
    )[0]
    assert [term.probability_plus for term in model.terms[:2]] == [0.5, 0.5]
