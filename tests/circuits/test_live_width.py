"""Unit tests of the live-width schedule and the engine's resource checks."""

import sys
import threading

import numpy as np
import pytest

from repro.circuits import batched_simulator
from repro.circuits import DistributionCache, QuantumCircuit, SerialBackend, VectorizedBackend
from repro.circuits.batched_simulator import (
    MAX_SIMULATION_BYTES,
    BatchedDensityMatrixSimulator,
    live_width_schedule,
    structure_signature,
)
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.cutting import measured_multi_cut_circuit
from repro.exceptions import SimulationError
from repro.experiments import ghz_circuit
from repro.pipeline import CutPipeline
from repro.quantum.paulis import PauliString
from repro.telemetry.metrics import REGISTRY


def _nme_term_circuits(num_qubits: int) -> list[QuantumCircuit]:
    """Measured NME term circuits of a GHZ-n job at fragment width 2."""
    pipeline = CutPipeline(max_fragment_width=2, entanglement_overlap=0.9)
    decomposition = pipeline.decompose(pipeline.plan(ghz_circuit(num_qubits)))
    pauli = PauliString("Z" * num_qubits)
    return [measured_multi_cut_circuit(term, pauli)[0] for term in decomposition.term_circuits]


def _inserted_resets(schedule) -> list:
    return [instruction for source, instruction in schedule.steps if source is None]


class TestNMEWidths:
    def test_ghz4_term_circuits_drop_from_8_to_5_qubits(self):
        circuits = _nme_term_circuits(4)
        assert len(circuits) == 9
        assert max(circuit.num_qubits for circuit in circuits) == 8
        for circuit in circuits:
            schedule = live_width_schedule(circuit)
            assert schedule.width <= 5
            if circuit.num_qubits == 8:
                assert schedule.width == 5

    def test_ghz6_term_circuits_drop_from_14_to_at_most_7_qubits(self):
        circuits = _nme_term_circuits(6)
        assert max(circuit.num_qubits for circuit in circuits) == 14
        assert max(live_width_schedule(circuit).width for circuit in circuits) <= 7

    def test_ghz4_distributions_match_full_width(self):
        circuits = _nme_term_circuits(4)
        live = VectorizedBackend(cache=DistributionCache()).exact_distributions(circuits)
        for circuit, distribution in zip(circuits, live):
            expected = DensityMatrixSimulator().run(circuit).classical_distribution()
            assert distribution.keys() == expected.keys()
            for key, value in expected.items():
                assert distribution[key] == pytest.approx(value, abs=1e-12)


class TestSchedule:
    def test_each_slot_reuse_inserts_exactly_one_reset(self):
        # A chain where every qubit retires before the next-but-one starts.
        circuit = QuantumCircuit(5, 1)
        circuit.h(0)
        for qubit in range(4):
            circuit.cx(qubit, qubit + 1)
        circuit.measure(4, 0)
        schedule = live_width_schedule(circuit)
        assert schedule.width == 2
        resets = _inserted_resets(schedule)
        # Five qubits on two slots: three re-uses, one reset each.
        assert len(resets) == 5 - schedule.width
        # Every inserted reset directly precedes the first use of its slot's
        # new qubit.
        steps = schedule.steps
        for index, (source, instruction) in enumerate(steps):
            if source is None:
                assert instruction.qubits[0] in steps[index + 1][1].qubits

    def test_untouched_qubits_get_no_slot(self):
        circuit = QuantumCircuit(6, 1).h(4).measure(4, 0)
        schedule = live_width_schedule(circuit)
        assert schedule.width == 1
        assert _inserted_resets(schedule) == []
        (distribution,) = BatchedDensityMatrixSimulator().run_group([circuit])
        assert distribution == pytest.approx({"0": 0.5, "1": 0.5}, abs=1e-15)

    def test_circuit_with_no_instructions(self):
        circuit = QuantumCircuit(3, 2)
        schedule = live_width_schedule(circuit)
        assert schedule.width == 0 and schedule.steps == () and schedule.terminal == ()
        expected = DensityMatrixSimulator().run(circuit).classical_distribution()
        assert BatchedDensityMatrixSimulator().run_group([circuit]) == [expected] == [{"00": 1.0}]
        assert SerialBackend().exact_distributions([circuit]) == [{"00": 1.0}]

    def test_terminal_suffix_stops_at_conditioned_instruction(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0).measure(0, 0).x(1, condition=(0, 1)).measure(1, 1)
        schedule = live_width_schedule(circuit)
        assert [clbit for _, clbit in schedule.terminal] == [1]
        assert schedule.branching_measurements == 1

    def test_terminal_suffix_stops_at_repeated_clbit(self):
        circuit = QuantumCircuit(3, 2)
        circuit.h(0).h(1).h(2).measure(0, 0).measure(1, 1).measure(2, 0)
        schedule = live_width_schedule(circuit)
        # Scanning back: measure(2, 0), measure(1, 1), then clbit 0 repeats.
        assert [clbit for _, clbit in schedule.terminal] == [1, 0]
        assert schedule.branching_measurements == 1
        (distribution,) = BatchedDensityMatrixSimulator().run_group([circuit])
        expected = DensityMatrixSimulator().run(circuit).classical_distribution()
        assert distribution.keys() == expected.keys()

    def test_terminal_suffix_stops_at_repeated_qubit(self):
        circuit = QuantumCircuit(1, 2).h(0).measure(0, 0).measure(0, 1)
        schedule = live_width_schedule(circuit)
        assert [clbit for _, clbit in schedule.terminal] == [1]

    def test_unreduced_group_runs_declared_stream(self):
        circuit = QuantumCircuit(2, 1).h(1).cx(1, 0).h(0)
        schedule = live_width_schedule(circuit)
        assert schedule.width == 2 and schedule.terminal == ()
        assert [instruction for _, instruction in schedule.steps] == circuit.instructions
        assert all(
            step is original
            for (_, step), original in zip(schedule.steps, circuit.instructions)
        )

    def test_schedule_is_memoised_per_structure(self):
        engine = BatchedDensityMatrixSimulator()
        first = QuantumCircuit(2, 1).ry(0.3, 0).measure(0, 0)
        second = QuantumCircuit(2, 1).ry(1.7, 0).measure(0, 0)
        assert engine.schedule(first) is engine.schedule(second)
        assert BatchedDensityMatrixSimulator().schedule(first) is not engine.schedule(first)


class TestResourceLimits:
    def test_wide_circuit_raises_before_allocating(self, monkeypatch):
        circuit = QuantumCircuit(20, 1)
        for qubit in range(20):
            circuit.h(qubit)
        for qubit in range(20):
            circuit.cx(qubit, (qubit + 1) % 20)
        circuit.measure(0, 0)

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(SimulationError, match=r"declared width 20 qubits, live width 20") as info:
            BatchedDensityMatrixSimulator().run_group([circuit])
        assert str(16 * 4**20) in str(info.value)

    def test_bound_scales_with_batch(self):
        circuit = QuantumCircuit(10, 1)
        for qubit in range(10):
            circuit.h(qubit)
        for qubit in range(10):
            circuit.cx(qubit, (qubit + 1) % 10)
        circuit.measure(0, 0)
        schedule = live_width_schedule(circuit)
        assert schedule.width == 10
        assert schedule.peak_bytes(1, 1) <= MAX_SIMULATION_BYTES
        batch = MAX_SIMULATION_BYTES // schedule.peak_bytes(1, 1) + 1
        with pytest.raises(SimulationError, match="byte limit"):
            BatchedDensityMatrixSimulator().run_group([circuit] * batch)


class TestTelemetry:
    def test_width_histogram_observed_once_per_group(self):
        histogram = REGISTRY.get("repro_simulation_qubits")
        declared = histogram.count(width="declared")
        live = histogram.count(width="live")
        circuits = _nme_term_circuits(4)
        VectorizedBackend(cache=DistributionCache()).exact_distributions(circuits)
        groups = len({structure_signature(circuit) for circuit in circuits})
        assert histogram.count(width="declared") - declared == groups
        assert histogram.count(width="live") - live == groups


class TestScheduleMemo:
    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(batched_simulator, "_SCHEDULE_MEMO_SIZE", 2)
        engine = BatchedDensityMatrixSimulator()
        for qubit in range(4):
            engine.schedule(QuantumCircuit(4, 1).h(qubit).measure(qubit, 0))
        assert len(engine._schedules) == 2

    def test_shared_engine_across_threads(self, monkeypatch):
        # More threads than cores hammer one engine whose memo keeps
        # evicting; every result must equal the single-threaded one.
        monkeypatch.setattr(batched_simulator, "_SCHEDULE_MEMO_SIZE", 3)
        circuits = [
            QuantumCircuit(3, 2).ry(0.3 * (index + 1), index % 3).cx(index % 3, (index + 1) % 3)
            .measure(index % 3, 0).measure((index + 1) % 3, 1)
            for index in range(8)
        ]
        expected = [BatchedDensityMatrixSimulator().run_group([c])[0] for c in circuits]
        engine = BatchedDensityMatrixSimulator()
        failures: list = []

        def worker(offset: int) -> None:
            try:
                for repeat in range(40):
                    index = (offset + repeat) % len(circuits)
                    if engine.run_group([circuits[index]])[0] != expected[index]:
                        failures.append(index)
            except Exception as error:  # surfaced by the assertion below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(engine._schedules) <= 3
