"""Performance benchmarks of the simulator substrate and execution backends.

Run with ``pytest benchmarks/bench_simulator.py --benchmark-only``.

These do not correspond to a table in the paper; they document the cost of
the substrate the experiments run on (statevector evolution, branching
density-matrix simulation of the teleportation gadget, shot sampling, and
the batched execution backends), so performance regressions in the substrate
are visible.

The backend benchmarks time the Figure-6 term-circuit batch the backends
still run for the sampling models' term-circuit path (mid-circuit cuts,
noisy backends, fleets): build every term circuit, measure it in Z and take
its exact distribution.  The Figure-6 harness itself takes its ``p₊`` from
per-term transfer matrices and sends only the protocols' probe circuits to a
backend; the backend-comparison test records that path's time beside the
two backends'.  It writes ``BENCH_backend_speedup.json`` (path overridable
via ``REPRO_BENCH_OUT``) so CI can archive the speedup trajectory.  Set
``REPRO_BENCH_FULL=1`` to run the comparison at the paper's full Figure-6
scale (1000 input states × 6 entanglement levels); the default is a reduced
sweep sized for CI smoke runs.
"""

import os
import time

import numpy as np

from repro.circuits import (
    DensityMatrixSimulator,
    DistributionCache,
    ProcessPoolBackend,
    SerialBackend,
    StatevectorSimulator,
    VectorizedBackend,
)
from repro.circuits.backends import resolve_backend
from repro.cutting import CutLocation, NMEWireCut, TeleportationWireCut, build_sampling_models
from repro.cutting.executor import _term_circuit_models
from repro.experiments import ghz_circuit, random_layered_circuit
from repro.experiments.workloads import random_single_qubit_states, state_preparation_circuit
from repro.quantum import random_statevector
from repro.quantum.bell import k_from_overlap
from repro.teleport import teleportation_circuit


def test_benchmark_statevector_random_circuit(benchmark):
    """Statevector simulation of a random 8-qubit, depth-6 layered circuit."""
    circuit = random_layered_circuit(8, 6, seed=1)
    simulator = StatevectorSimulator()
    state = benchmark(simulator.run, circuit)
    assert abs(float((abs(state.data) ** 2).sum()) - 1.0) < 1e-9


def test_benchmark_density_matrix_teleportation(benchmark):
    """Exact branching simulation of the 3-qubit teleportation circuit."""
    message = random_statevector(1, seed=2)
    circuit = teleportation_circuit(message_state=message, resource=0.7)
    simulator = DensityMatrixSimulator()
    result = benchmark(simulator.run, circuit)
    assert len(result.branches) == 4


def test_benchmark_shot_sampling_ghz(benchmark):
    """Exact-distribution sampling of 10k shots from a 6-qubit GHZ circuit."""
    from repro.circuits import QuantumCircuit

    circuit = QuantumCircuit(6, 6, name="ghz_measured")
    circuit.compose(ghz_circuit(6), inplace=True)
    circuit.measure_all()
    (counts,) = benchmark(SerialBackend().run_batch, [circuit], [10_000], 7)
    assert counts.shots == 10_000
    assert set(counts.keys()) <= {"000000", "111111"}


# ---------------------------------------------------------------------------
# Execution-backend benchmarks
# ---------------------------------------------------------------------------


def _sweep_workload(num_states: int, overlaps: tuple[float, ...]):
    workload = random_single_qubit_states(num_states, seed=2024)
    circuits = [state_preparation_circuit(u) for u in workload.unitaries]
    locations = [CutLocation(0, len(c)) for c in circuits]
    protocols = [
        TeleportationWireCut() if abs(f - 1.0) < 1e-12 else NMEWireCut(k_from_overlap(f))
        for f in overlaps
    ]
    return circuits, locations, protocols


def _run_sweep(circuits, locations, protocols, backend):
    """Sampling models from the sweep's simulated term circuits, one batch per protocol."""
    exec_backend = resolve_backend(backend)
    return [
        _term_circuit_models(circuits, locations, protocol, "Z", exec_backend)
        for protocol in protocols
    ]


def _probability_matrix(models_per_protocol) -> np.ndarray:
    rows = []
    for models in models_per_protocol:
        for model in models:
            rows.extend(term.probability_plus for term in model.terms)
    return np.array(rows)


def test_benchmark_backend_serial_sweep(benchmark):
    """Serial backend on a reduced Figure-6-style sweep (40 states × 2 levels)."""
    circuits, locations, protocols = _sweep_workload(40, (0.5, 0.9))
    models = benchmark(_run_sweep, circuits, locations, protocols, "serial")
    assert len(models) == 2 and len(models[0]) == 40


def test_benchmark_backend_vectorized_sweep(benchmark):
    """Vectorized backend on the same reduced sweep (fresh cache per round)."""
    circuits, locations, protocols = _sweep_workload(40, (0.5, 0.9))
    models = benchmark(
        lambda: _run_sweep(
            circuits, locations, protocols, VectorizedBackend(cache=DistributionCache())
        )
    )
    assert len(models) == 2 and len(models[0]) == 40


def test_backend_speedup_figure6_sweep(bench_artifact):
    """Vectorized ≥ 3× faster than serial on a Figure-6-sized term-circuit batch, same results.

    With ``REPRO_BENCH_FULL=1`` the sweep is the paper's full configuration
    (1000 input states × 6 entanglement levels) and the 3× acceptance floor is
    enforced.  The reduced default keeps CI smoke runs short; there the
    result-identity checks stay hard but the speedup is recorded rather than
    asserted, so a single noisy wall-clock sample on a shared runner cannot
    fail the build.  The transfer-matrix path the Figure-6 harness runs is
    timed too and checked against the term circuits' ``p₊``; its time is
    recorded with no floor.
    """
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    num_states = 1000 if full else 150
    overlaps = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0) if full else (0.5, 0.8, 1.0)
    circuits, locations, protocols = _sweep_workload(num_states, overlaps)

    start = time.perf_counter()
    serial_models = _run_sweep(circuits, locations, protocols, SerialBackend())
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorized_models = _run_sweep(
        circuits, locations, protocols, VectorizedBackend(cache=DistributionCache())
    )
    vectorized_seconds = time.perf_counter() - start

    start = time.perf_counter()
    transfer_models = build_sampling_models(
        circuits, locations, protocols, "Z", backend=VectorizedBackend(cache=DistributionCache())
    )
    transfer_seconds = time.perf_counter() - start

    serial_probabilities = _probability_matrix(serial_models)
    vectorized_probabilities = _probability_matrix(vectorized_models)
    assert np.array_equal(serial_probabilities, vectorized_probabilities), (
        "vectorized backend must reproduce the serial distributions exactly"
    )
    assert np.max(np.abs(_probability_matrix(transfer_models) - serial_probabilities)) <= 1e-12

    # Seeded estimates built on those models must agree exactly as well.
    for serial_model, vectorized_model in zip(serial_models[0][:5], vectorized_models[0][:5]):
        a = serial_model.estimate(1000, seed=99)
        b = vectorized_model.estimate(1000, seed=99)
        assert a.value == b.value and a.shots_per_term == b.shots_per_term

    speedup = serial_seconds / vectorized_seconds
    record = {
        "benchmark": "backend_speedup_figure6_sweep",
        "full_scale": full,
        "num_states": num_states,
        "num_overlaps": len(overlaps),
        "serial_seconds": round(serial_seconds, 4),
        "vectorized_seconds": round(vectorized_seconds, 4),
        "speedup": round(speedup, 2),
        "identical_results": True,
        "transfer_matrix_seconds": round(transfer_seconds, 4),
    }
    out_path = bench_artifact("BENCH_backend_speedup.json", record)
    print(f"\nbackend speedup: {speedup:.1f}x (serial {serial_seconds:.2f}s, "
          f"vectorized {vectorized_seconds:.2f}s; transfer matrices "
          f"{transfer_seconds:.2f}s) -> {out_path}")

    if full:
        assert speedup >= 3.0, (
            f"vectorized backend speedup {speedup:.2f}x below the 3x acceptance floor "
            f"(serial {serial_seconds:.2f}s, vectorized {vectorized_seconds:.2f}s)"
        )


def test_benchmark_process_pool_agrees():
    """Process-pool backend: chunked execution returns the serial results exactly."""
    circuits, locations, protocols = _sweep_workload(24, (0.7,))
    pool_models = _run_sweep(
        circuits, locations, protocols, ProcessPoolBackend(max_workers=2, chunk_size=9)
    )
    serial_models = _run_sweep(circuits, locations, protocols, "serial")
    assert np.array_equal(_probability_matrix(pool_models), _probability_matrix(serial_models))
