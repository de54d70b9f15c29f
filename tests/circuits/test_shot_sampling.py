"""Shot sampling through the backends, checked against the per-shot trajectory oracle.

Every backend draws a circuit's shots with one multinomial over its exact
outcome distribution.  The cases below run both the serial and the
vectorized backend; the second class also samples each circuit shot by shot
with :class:`utils.trajectory_reference.TrajectorySimulator` (real
mid-circuit collapse, feed-forward, reset and initialize) and requires the
two to agree.  A source scan keeps the backends the only place shots are
drawn.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.circuits.backends import DistributionCache, SerialBackend, VectorizedBackend
from repro.circuits.circuit import QuantumCircuit
from repro.quantum.random import random_statevector
from repro.quantum.states import Statevector

from utils.trajectory_reference import TrajectorySimulator


@pytest.fixture(params=["serial", "vectorized"])
def backend(request):
    if request.param == "serial":
        return SerialBackend()
    return VectorizedBackend(cache=DistributionCache())


def _sample(backend, circuit: QuantumCircuit, shots: int, seed=None):
    (counts,) = backend.run_batch([circuit], [shots], seed=seed)
    return counts


def _bell_measured() -> QuantumCircuit:
    circuit = QuantumCircuit(2, 2)
    circuit.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    return circuit


def _feedforward() -> QuantumCircuit:
    # Measure a |1> qubit and conditionally flip the second: outcome always "1" then "1".
    circuit = QuantumCircuit(2, 2)
    circuit.x(0).measure(0, 0)
    circuit.x(1, condition=(0, 1))
    circuit.measure(1, 1)
    return circuit


def _reset() -> QuantumCircuit:
    circuit = QuantumCircuit(1, 1)
    circuit.h(0).reset(0).measure(0, 0)
    return circuit


def _initialize() -> QuantumCircuit:
    circuit = QuantumCircuit(1, 1)
    circuit.h(0)
    circuit.initialize(np.array([0, 1]), 0)
    circuit.measure(0, 0)
    return circuit


def _flipped() -> QuantumCircuit:
    circuit = QuantumCircuit(1, 1)
    circuit.x(0).measure(0, 0)
    return circuit


def _prepared_basis_state() -> QuantumCircuit:
    # Qubit 0 is the leftmost character of the label and of the bitstring.
    circuit = QuantumCircuit(2, 2)
    circuit.initialize(Statevector("10").data, [0, 1])
    circuit.measure_all()
    return circuit


class TestExactSampling:
    @pytest.mark.parametrize(
        "build, expected",
        [(_flipped, "1"), (_prepared_basis_state, "10")],
        ids=["x-gate", "basis-state"],
    )
    def test_deterministic_circuit(self, backend, build, expected):
        assert dict(_sample(backend, build(), 100, seed=0)) == {expected: 100}

    def test_bell_correlations(self, backend):
        counts = _sample(backend, _bell_measured(), 2000, seed=1)
        assert set(counts.keys()) <= {"00", "11"}
        assert abs(counts["00"] - 1000) < 150

    def test_reproducible_with_seed(self, backend):
        a = _sample(backend, _bell_measured(), 500, seed=3)
        b = _sample(backend, _bell_measured(), 500, seed=3)
        assert a == b

    def test_zero_shots(self, backend):
        assert _sample(backend, _bell_measured(), 0, seed=0).shots == 0

    def test_negative_shots(self, backend):
        with pytest.raises(ValueError):
            _sample(backend, _bell_measured(), -5)

    def test_circuit_without_clbits(self, backend):
        # Every shot lands on the empty bitstring; only the oracle rejects it.
        assert dict(_sample(backend, QuantumCircuit(1), 10, seed=0)) == {"": 10}
        with pytest.raises(SimulationError):
            TrajectorySimulator().run(QuantumCircuit(1), 10)

    def test_no_sampling_method_option(self):
        # Exact sampling is the only method; there is nothing to select.
        with pytest.raises(TypeError):
            SerialBackend(method="trajectory")

    def test_total_shots_preserved(self, backend):
        assert _sample(backend, _bell_measured(), 1234, seed=9).shots == 1234

    def test_partial_measurement(self, backend):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0).cx(0, 1).measure(1, 0)
        counts = _sample(backend, circuit, 4000, seed=2)
        assert abs(counts["0"] - 2000) < 200

    @pytest.mark.parametrize(
        "state",
        [random_statevector(1, seed=5), Statevector(np.array([1, 1]) / np.sqrt(2))],
        ids=["random", "plus"],
    )
    def test_initial_state(self, backend, state):
        circuit = QuantumCircuit(1, 1)
        circuit.initialize(state.data, 0)
        circuit.measure(0, 0)
        counts = _sample(backend, circuit, 20_000, seed=6)
        expected_p1 = abs(state.data[1]) ** 2
        assert counts["1"] / counts.shots == pytest.approx(expected_p1, abs=0.02)


class TestAgreesWithTrajectoryOracle:
    @pytest.mark.parametrize(
        "build, expected",
        [(_feedforward, "11"), (_reset, "0"), (_initialize, "1")],
        ids=["feedforward", "reset", "initialize"],
    )
    def test_deterministic_mid_circuit_instructions(self, backend, build, expected):
        assert dict(TrajectorySimulator().run(build(), 100, seed=2)) == {expected: 100}
        assert dict(_sample(backend, build(), 100, seed=2)) == {expected: 100}

    def test_bell_correlations(self, backend):
        trajectory = TrajectorySimulator().run(_bell_measured(), 400, seed=1)
        sampled = _sample(backend, _bell_measured(), 400, seed=1)
        assert set(trajectory.keys()) <= {"00", "11"}
        assert set(sampled.keys()) <= {"00", "11"}

    def test_agrees_on_teleportation(self, backend):
        # The marginal distribution of the receiver's Z measurement must agree
        # between exact sampling and per-shot trajectories (within sampling error).
        message = random_statevector(1, seed=7)
        from repro.teleport import teleportation_circuit

        base = teleportation_circuit(message_state=message, resource=1.0)
        circuit = QuantumCircuit(3, 3)
        circuit.compose(base, inplace=True)
        circuit.measure(2, 2)

        exact = _sample(backend, circuit, 6000, seed=8).marginal([2])
        trajectory = TrajectorySimulator().run(circuit, 1500, seed=9).marginal([2])
        p_exact = exact["1"] / exact.shots
        p_trajectory = trajectory["1"] / trajectory.shots
        assert p_exact == pytest.approx(p_trajectory, abs=0.06)


#: The modules allowed to turn a distribution into counts: the backend seam and
#: the device fleet, which samples each device's shot share behind that seam.
_SHOT_SOURCES = {"repro/circuits/backends.py", "repro/devices/fleet.py"}


def test_counts_are_sampled_only_behind_the_backend_seam():
    src = Path(__file__).resolve().parents[2] / "src"
    callers = set()
    for path in sorted((src / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_probabilities"
            ):
                callers.add(path.relative_to(src).as_posix())
    assert "repro/circuits/backends.py" in callers
    assert callers <= _SHOT_SOURCES, f"shots sampled outside the backends: {callers - _SHOT_SOURCES}"
