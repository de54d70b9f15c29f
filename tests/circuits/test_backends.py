"""Unit tests for the execution-backend layer (serial / vectorized / process-pool)."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.circuits import (
    BACKEND_NAMES,
    BatchedDensityMatrixSimulator,
    DensityMatrixSimulator,
    DistributionCache,
    ProcessPoolBackend,
    QuantumCircuit,
    SerialBackend,
    SimulatorBackend,
    VectorizedBackend,
    circuit_fingerprint,
    resolve_backend,
    structure_signature,
)

# Fork-heavy suite (process-pool backends): keep on one xdist worker
# under ``pytest -n auto --dist loadgroup``.
pytestmark = pytest.mark.xdist_group("forkheavy")


def _measured_rotation(theta: float) -> QuantumCircuit:
    circuit = QuantumCircuit(2, 2, name=f"rot_{theta}")
    circuit.ry(theta, 0).cx(0, 1).measure(0, 0).measure(1, 1)
    return circuit


def _teleport_style(theta: float) -> QuantumCircuit:
    """A mid-circuit-measurement circuit with feed-forward corrections."""
    circuit = QuantumCircuit(2, 2, name=f"tele_{theta}")
    circuit.ry(theta, 0).h(1).cx(1, 0)
    circuit.measure(0, 0)
    circuit.x(1, condition=(0, 1))
    circuit.h(1).measure(1, 1)
    return circuit


BATCH = [_measured_rotation(t) for t in (0.1, 0.8, 1.7, 2.9)]


class TestCircuitFingerprint:
    def test_identical_circuits_share_fingerprint(self):
        assert circuit_fingerprint(_measured_rotation(0.3)) == circuit_fingerprint(
            _measured_rotation(0.3)
        )

    def test_name_is_cosmetic(self):
        a = _measured_rotation(0.3)
        b = _measured_rotation(0.3)
        b.name = "renamed"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_matrix_payload_matters(self):
        assert circuit_fingerprint(_measured_rotation(0.3)) != circuit_fingerprint(
            _measured_rotation(0.4)
        )

    def test_condition_matters(self):
        a = QuantumCircuit(1, 1).measure(0, 0)
        a.x(0)
        b = QuantumCircuit(1, 1).measure(0, 0)
        b.x(0, condition=(0, 1))
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_barriers_ignored(self):
        a = _measured_rotation(0.3)
        b = QuantumCircuit(2, 2)
        b.ry(0.3, 0).barrier().cx(0, 1).measure(0, 0).measure(1, 1)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)


class TestStructureSignature:
    def test_same_structure_different_payload(self):
        assert structure_signature(_measured_rotation(0.1)) == structure_signature(
            _measured_rotation(2.2)
        )

    def test_different_targets_differ(self):
        a = QuantumCircuit(2, 1).h(0).measure(0, 0)
        b = QuantumCircuit(2, 1).h(1).measure(1, 0)
        assert structure_signature(a) != structure_signature(b)


class TestBatchedSimulator:
    def test_matches_serial_per_circuit(self):
        batched = BatchedDensityMatrixSimulator().run_group(BATCH)
        serial = DensityMatrixSimulator()
        for circuit, distribution in zip(BATCH, batched):
            expected = serial.run(circuit).classical_distribution()
            assert list(distribution.keys()) == list(expected.keys())
            for key in expected:
                assert distribution[key] == expected[key]

    def test_feed_forward_matches_serial(self):
        circuits = [_teleport_style(t) for t in (0.2, 1.1, 2.6)]
        batched = BatchedDensityMatrixSimulator().run_group(circuits)
        serial = DensityMatrixSimulator()
        for circuit, distribution in zip(circuits, batched):
            expected = serial.run(circuit).classical_distribution()
            assert distribution.keys() == expected.keys()
            for key in expected:
                assert distribution[key] == pytest.approx(expected[key], abs=1e-12)

    def test_initialize_and_reset_match_serial(self):
        circuits = []
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            vector = rng.normal(size=2) + 1j * rng.normal(size=2)
            vector /= np.linalg.norm(vector)
            circuit = QuantumCircuit(2, 1, name=f"init_{seed}")
            circuit.initialize(vector, 0)
            circuit.cx(0, 1).reset(0).measure(1, 0)
            circuits.append(circuit)
        batched = BatchedDensityMatrixSimulator().run_group(circuits)
        serial = DensityMatrixSimulator()
        for circuit, distribution in zip(circuits, batched):
            expected = serial.run(circuit).classical_distribution()
            assert distribution.keys() == expected.keys()
            for key in expected:
                assert distribution[key] == expected[key]

    def test_threshold_pruning_matches_serial(self):
        """Regression: measurement pieces below the serial pruning threshold
        must be zeroed per circuit, not kept alive because another batch
        member is above threshold (the merged branch would otherwise differ
        from the serial simulator in the last ulp)."""
        def near_deterministic(amplitude: float) -> QuantumCircuit:
            vector = np.array([np.sqrt(1 - amplitude**2), amplitude], dtype=complex)
            circuit = QuantumCircuit(1, 2, name=f"weak_{amplitude}")
            circuit.initialize(vector, 0)
            circuit.measure(0, 0)
            circuit.reset(0)
            circuit.ry(2e-8, 0)
            circuit.measure(0, 1)
            return circuit

        circuits = [near_deterministic(9e-9), near_deterministic(0.6)]
        batched = BatchedDensityMatrixSimulator().run_group(circuits)
        serial = DensityMatrixSimulator()
        for circuit, distribution in zip(circuits, batched):
            expected = serial.run(circuit).classical_distribution()
            assert distribution.keys() == expected.keys()
            for key in expected:
                assert distribution[key] == expected[key]

    def test_rejects_mixed_structures(self):
        other = QuantumCircuit(2, 2).h(0).measure(0, 0).measure(1, 1)
        with pytest.raises(SimulationError):
            BatchedDensityMatrixSimulator().run_group([BATCH[0], other])

    def test_empty_group(self):
        assert BatchedDensityMatrixSimulator().run_group([]) == []


class TestDistributionCache:
    def test_hit_and_miss_counting(self):
        cache = DistributionCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", {"0": 1.0})
        assert cache.get("a") == {"0": 1.0}
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = DistributionCache(maxsize=2)
        cache.put("a", {"0": 1.0})
        cache.put("b", {"1": 1.0})
        cache.get("a")  # refresh a
        cache.put("c", {"0": 0.5})
        assert cache.get("b") is None  # evicted
        assert cache.get("a") is not None
        assert len(cache) == 2

    def test_zero_size_disables_storage(self):
        cache = DistributionCache(maxsize=0)
        cache.put("a", {"0": 1.0})
        assert cache.get("a") is None

    def test_clear(self):
        cache = DistributionCache()
        cache.put("a", {"0": 1.0})
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_vectorized_backend_uses_cache(self):
        cache = DistributionCache()
        backend = VectorizedBackend(cache=cache)
        backend.exact_distributions(BATCH)
        misses = cache.misses
        backend.exact_distributions(BATCH)
        assert cache.misses == misses  # second pass is all hits
        assert cache.hits >= len(BATCH)

    def test_duplicate_circuits_simulated_once(self):
        cache = DistributionCache()
        backend = VectorizedBackend(cache=cache)
        duplicated = [BATCH[0], _measured_rotation(0.1), BATCH[0]]
        distributions = backend.exact_distributions(duplicated)
        assert distributions[0] == distributions[1] == distributions[2]
        # All three circuits collapse onto one fingerprint: one simulation,
        # one cache entry.
        assert len(cache) == 1


class TestRunBatch:
    def test_serial_matches_vectorized_bitwise(self):
        shots = [100, 250, 0, 999]
        serial = SerialBackend().run_batch(BATCH, shots, seed=7)
        vectorized = VectorizedBackend(cache=DistributionCache()).run_batch(BATCH, shots, seed=7)
        assert serial == vectorized

    def test_order_independence_of_streams(self):
        """Each circuit owns its child stream, so results follow the circuit."""
        shots = [300] * len(BATCH)
        forward = VectorizedBackend(cache=DistributionCache()).run_batch(BATCH, shots, seed=3)
        assert forward[0].shots == 300
        again = VectorizedBackend(cache=DistributionCache()).run_batch(BATCH, shots, seed=3)
        assert forward == again

    def test_zero_shot_entries(self):
        counts = SerialBackend().run_batch([BATCH[0]], [0], seed=1)
        assert counts[0].shots == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            SerialBackend().run_batch(BATCH, [10], seed=1)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError):
            SerialBackend().run_batch([BATCH[0]], [-1], seed=1)

    @pytest.mark.slow
    def test_process_pool_matches_serial(self):
        shots = [128] * len(BATCH)
        pool = ProcessPoolBackend(max_workers=2, chunk_size=2)
        serial = SerialBackend()
        assert pool.run_batch(BATCH, shots, seed=5) == serial.run_batch(BATCH, shots, seed=5)

    def test_process_pool_single_chunk_inline(self):
        pool = ProcessPoolBackend(max_workers=2, chunk_size=len(BATCH))
        serial = SerialBackend()
        shots = [64] * len(BATCH)
        assert pool.run_batch(BATCH, shots, seed=5) == serial.run_batch(BATCH, shots, seed=5)

    def test_process_pool_generator_seed_single_chunk(self):
        """Regression: a generator seed must not be consumed twice on the
        single-chunk fallback (previously children were re-derived from the
        already-advanced generator, breaking cross-backend determinism)."""
        shots = [64] * len(BATCH)
        serial = SerialBackend().run_batch(BATCH, shots, seed=np.random.default_rng(5))
        pool = ProcessPoolBackend(max_workers=1).run_batch(
            BATCH, shots, seed=np.random.default_rng(5)
        )
        assert pool == serial


class TestResolveBackend:
    def test_names(self):
        assert set(BACKEND_NAMES) == {"serial", "vectorized", "process-pool"}
        for name in BACKEND_NAMES:
            backend = resolve_backend(name)
            assert isinstance(backend, SimulatorBackend)
            assert backend.name == name

    def test_none_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_underscore_alias(self):
        assert isinstance(resolve_backend("process_pool"), ProcessPoolBackend)

    def test_instance_passthrough(self):
        backend = VectorizedBackend(cache=DistributionCache())
        assert resolve_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(SimulationError):
            resolve_backend("quantum-cloud")

    def test_zero_shot_circuits_not_simulated(self):
        cache = DistributionCache()
        backend = VectorizedBackend(cache=cache)
        counts = backend.run_batch(BATCH, [0, 50, 0, 0], seed=2)
        assert [c.shots for c in counts] == [0, 50, 0, 0]
        # Only the sampled circuit's distribution was computed and cached.
        assert len(cache) == 1

    def test_invalid_pool_parameters(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(chunk_size=0)
