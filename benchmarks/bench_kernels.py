"""Benchmark: axis-local einsum kernels vs the dense full-space reference.

Run with ``pytest benchmarks/bench_kernels.py -q -s``.

Two paired workloads time identical circuits through the production
simulators, which apply every gate with the axis-local contraction kernels of
:mod:`repro.circuits.kernels` ("einsum"), and through the full-space
reference of ``tests/utils/dense_reference.py`` ("dense"), which expands
every operator to ``2^n × 2^n``:

* a **density-matrix chain** — H/CX/T ladder with terminal measurements —
  through :class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`
  vs the reference ``DenseDensityMatrixSimulator``;
* a **statevector chain** — H/RZ/CX ladder — through
  :class:`~repro.circuits.statevector_simulator.StatevectorSimulator` vs the
  reference ``dense_statevector``.

Asserted invariants (deterministic under the pinned seeds):

* paired median wall times give einsum **≥ 5×** over dense on the
  density-matrix workload and **≥ 10×** on the statevector workload;
* the exact classical distribution of the density-matrix workload and the
  final statevector are **bitwise identical** between einsum and the
  reference (the workload's gate entries make the contraction arithmetic
  exact, and measurement/reset kernels are bitwise by construction);
* a backend grid — serial / vectorized / process-pool / the distributed
  ``execute_unit`` path — returns **bitwise-identical** exact distributions
  and sampled counts for the same seed, equal to the reference's exact
  distributions sampled through the same per-circuit streams; the
  ``execute_unit`` mean equals the in-process round's and the reference's;
* the prepared-operator LRU served repeat gate applications (hits observed);
* **live-width execution**: the 9 measured NME term circuits of a GHZ-4
  2-cut job (8 qubits declared, at most 5 live) through
  :class:`~repro.circuits.backends.VectorizedBackend` agree with the
  full-width :class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`
  to 1e-12 (whether they are bitwise equal is recorded) and run **≥ 5×**
  faster.

``BENCH_kernels.json`` is written through the shared ``bench_artifact``
writer (``REPRO_BENCH_OUT`` overrides the directory).  The default smoke
configuration (9-qubit density matrix, 12-qubit statevector) keeps CI to
tens of seconds; set ``REPRO_BENCH_FULL=1`` for the headline scales
(12-qubit density matrix, 14-qubit statevector — several minutes, dominated
by the dense reference arm).
"""

import os
import statistics
import time

import numpy as np

from repro.circuits.backends import (
    DistributionCache,
    ProcessPoolBackend,
    SerialBackend,
    VectorizedBackend,
    _sample_batch,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.kernels import clear_prepared_cache, prepared_cache_info
from repro.circuits.statevector_simulator import StatevectorSimulator
from repro.cutting.executor import _measured_batch
from repro.distributed import WorkUnit, execute_unit
from repro.experiments import ghz_circuit
from repro.pipeline import CutPipeline
from repro.quantum.paulis import PauliString
from repro.utils.rng import spawn_seed_sequences
from tests.utils.dense_reference import DenseDensityMatrixSimulator, dense_statevector

#: Speedup floors (paired medians, dense over einsum).
SPEEDUP_FLOOR_DM = 5.0
SPEEDUP_FLOOR_SV = 10.0
#: Speedup floor of live-width over full-width NME term simulation.
SPEEDUP_FLOOR_LIVE = 5.0
#: Agreement tolerance of live-width and full-width distributions.
LIVE_TOLERANCE = 1e-12
#: Seed of every sampled arm (the grid asserts bitwise identity under it).
SEED = 777
#: Shots per circuit in the backend grid.
SHOTS = 512
#: Scale of the cross-backend identity grid (kept small: identity is
#: scale-independent, and the grid re-simulates the dense reference arm).
GRID_QUBITS = 6
#: Labels of the two arms in ``BENCH_kernels.json``.
ARM_LABELS = ["einsum", "dense-reference"]


class DenseReferenceBackend:
    """The dense reference behind the backend protocol.

    Exact distributions come from ``DenseDensityMatrixSimulator``; samples
    are drawn through the same per-circuit seed streams as every production
    backend, so its counts are comparable bitwise.
    """

    name = "dense-reference"

    def exact_distributions(self, circuits):
        return [DenseDensityMatrixSimulator().run(c).classical_distribution() for c in circuits]

    def run_batch(self, circuits, shots, seed=None):
        return _sample_batch(self, circuits, shots, spawn_seed_sequences(seed, len(circuits)))


def density_chain(num_qubits: int) -> QuantumCircuit:
    """H/CX/T ladder with the end qubits measured.

    The gate entries (0, ±1, 1/√2, e^{iπ/4}) keep the axis-local contraction
    bitwise identical to the dense sandwich on this workload, which is what
    lets the benchmark assert exact distribution identity between kernels.
    """
    circuit = QuantumCircuit(num_qubits, 2, name=f"dm-chain{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(0, num_qubits, 3):
        circuit.t(qubit)
    circuit.h(num_qubits - 1)
    circuit.measure(0, 0)
    circuit.measure(num_qubits - 1, 1)
    return circuit


def statevector_chain(num_qubits: int, links: int) -> QuantumCircuit:
    """H/RZ/CX ladder over the first ``links`` wires of the register."""
    circuit = QuantumCircuit(num_qubits, 0, name=f"sv-chain{num_qubits}")
    circuit.h(0)
    for qubit in range(links):
        circuit.rz(0.3 + 0.1 * qubit, qubit)
        circuit.cx(qubit, qubit + 1)
    return circuit


def nme_term_batch() -> list[QuantumCircuit]:
    """The measured term circuits of an NME GHZ-4 job at fragment width 2."""
    pipeline = CutPipeline(max_fragment_width=2, entanglement_overlap=0.9)
    decomposition = pipeline.decompose(pipeline.plan(ghz_circuit(4)))
    pauli = PauliString("ZZZZ")
    return _measured_batch(decomposition.term_circuits, pauli)[0]


def _configuration(full: bool) -> dict:
    if full:
        return {"mode": "full", "dm_qubits": 12, "sv_qubits": 14, "sv_links": 5, "repeats": 1}
    return {"mode": "smoke", "dm_qubits": 9, "sv_qubits": 12, "sv_links": 5, "repeats": 3}


def _median_seconds(run, repeats: int) -> tuple[float, object]:
    """Return (median wall seconds, last result) of ``repeats`` runs."""
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def _grid_results(circuits, shots):
    """Exact distributions + sampled counts from every in-process backend and the reference."""
    backends = {
        "serial": SerialBackend(),
        "vectorized": VectorizedBackend(cache=DistributionCache()),
        "process-pool": ProcessPoolBackend(),
        "dense-reference": DenseReferenceBackend(),
    }
    results = {}
    for name, backend in backends.items():
        distributions = backend.exact_distributions(circuits)
        counts = [dict(c) for c in backend.run_batch(circuits, shots, seed=SEED)]
        results[name] = (distributions, counts)
    return results


def test_kernel_speedup_and_bitwise_identity(bench_artifact):
    """einsum beats dense ≥5×/≥10× with bitwise-identical results everywhere."""
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    config = _configuration(full)
    repeats = config["repeats"]

    # -- density-matrix arm -------------------------------------------------------
    dm_circuit = density_chain(config["dm_qubits"])
    clear_prepared_cache()
    einsum_dm_seconds, einsum_dm_result = _median_seconds(
        lambda: DensityMatrixSimulator().run(dm_circuit), repeats
    )
    cache_info = prepared_cache_info()
    dense_dm_seconds, dense_dm_result = _median_seconds(
        lambda: DenseDensityMatrixSimulator().run(dm_circuit), repeats
    )
    dm_speedup = dense_dm_seconds / einsum_dm_seconds
    einsum_distribution = einsum_dm_result.classical_distribution()
    dense_distribution = dense_dm_result.classical_distribution()
    assert einsum_distribution == dense_distribution, (
        "density-matrix distributions differ between einsum and the dense reference"
    )
    assert dm_speedup >= SPEEDUP_FLOOR_DM, (
        f"einsum {einsum_dm_seconds:.3f}s vs dense {dense_dm_seconds:.3f}s: "
        f"{dm_speedup:.1f}x < {SPEEDUP_FLOOR_DM}x on {config['dm_qubits']}-qubit density matrix"
    )
    # Repeated gates (CX appears once per link) were served from the LRU.
    assert cache_info["hits"] > 0, cache_info

    # -- statevector arm ----------------------------------------------------------
    sv_circuit = statevector_chain(config["sv_qubits"], config["sv_links"])
    einsum_sv_seconds, einsum_sv_state = _median_seconds(
        lambda: StatevectorSimulator().run(sv_circuit), repeats
    )
    dense_sv_seconds, dense_sv_state = _median_seconds(
        lambda: dense_statevector(sv_circuit), repeats
    )
    sv_speedup = dense_sv_seconds / einsum_sv_seconds
    assert np.array_equal(einsum_sv_state.data, dense_sv_state.data), (
        "statevectors differ between einsum and the dense reference"
    )
    assert sv_speedup >= SPEEDUP_FLOOR_SV, (
        f"einsum {einsum_sv_seconds:.3f}s vs dense {dense_sv_seconds:.3f}s: "
        f"{sv_speedup:.1f}x < {SPEEDUP_FLOOR_SV}x on {config['sv_qubits']}-qubit statevector"
    )

    # -- backend grid: bitwise identity across backends and the reference -------
    grid_circuit = density_chain(GRID_QUBITS)
    grid_circuits = [grid_circuit, grid_circuit.copy()]
    grid_shots = [SHOTS, SHOTS // 2]
    grid = _grid_results(grid_circuits, grid_shots)
    reference = grid["serial"]
    for backend_name, got in grid.items():
        assert got == reference, f"{backend_name} diverged from serial"

    # Distributed seam: execute_unit (what every pool worker runs) agrees
    # with the reference and with the in-process round for the same seed.
    unit = WorkUnit(round_index=0, term_index=0, shots=SHOTS, seed=np.random.SeedSequence(SEED))
    selected = [[0, 1], [0, 1]]
    distributed_means = {
        label: execute_unit(backend, grid_circuits, selected, unit).mean
        for label, backend in zip(
            ARM_LABELS, (VectorizedBackend(cache=DistributionCache()), DenseReferenceBackend())
        )
    }
    in_process_mean = float(
        VectorizedBackend(cache=DistributionCache())
        .run_batch(grid_circuits, [SHOTS, 0], seed=np.random.SeedSequence(SEED))[0]
        .expectation_z(selected[0])
    )
    assert distributed_means["einsum"] == distributed_means["dense-reference"] == in_process_mean

    # -- live-width arm: NME term batch vs the full-width simulator --------------
    nme_circuits = nme_term_batch()
    live_seconds, live_distributions = _median_seconds(
        lambda: VectorizedBackend(cache=DistributionCache()).exact_distributions(nme_circuits),
        repeats,
    )
    # The full-width arm is the slow one (8-qubit density matrices); one run.
    full_seconds, full_distributions = _median_seconds(
        lambda: [DensityMatrixSimulator().run(c).classical_distribution() for c in nme_circuits], 1
    )
    live_speedup = full_seconds / live_seconds
    max_deviation = 0.0
    for live, full in zip(live_distributions, full_distributions):
        assert live.keys() == full.keys(), "live-width key set differs from full width"
        max_deviation = max([max_deviation] + [abs(live[key] - full[key]) for key in full])
    assert max_deviation <= LIVE_TOLERANCE, max_deviation
    live_bitwise = live_distributions == full_distributions
    assert live_speedup >= SPEEDUP_FLOOR_LIVE, (
        f"live-width {live_seconds:.3f}s vs full-width {full_seconds:.3f}s: "
        f"{live_speedup:.1f}x < {SPEEDUP_FLOOR_LIVE}x on the NME GHZ-4 term batch"
    )

    record = {
        "config": config,
        "density_matrix": {
            "qubits": config["dm_qubits"],
            "einsum_median_seconds": round(einsum_dm_seconds, 6),
            "dense_median_seconds": round(dense_dm_seconds, 6),
            "speedup": round(dm_speedup, 2),
            "floor": SPEEDUP_FLOOR_DM,
            "distribution_bitwise_identical": True,
        },
        "statevector": {
            "qubits": config["sv_qubits"],
            "einsum_median_seconds": round(einsum_sv_seconds, 6),
            "dense_median_seconds": round(dense_sv_seconds, 6),
            "speedup": round(sv_speedup, 2),
            "floor": SPEEDUP_FLOOR_SV,
            "state_bitwise_identical": True,
        },
        "backend_grid": {
            "qubits": GRID_QUBITS,
            "backends": ["serial", "vectorized", "process-pool", "distributed-unit"],
            "kernels": ARM_LABELS,
            "bitwise_identical": True,
            "distributed_mean": distributed_means["einsum"],
        },
        "prepared_operator_cache": cache_info,
        "live_width": {
            "circuits": len(nme_circuits),
            "declared_qubits": max(c.num_qubits for c in nme_circuits),
            "live_median_seconds": round(live_seconds, 6),
            "full_width_seconds": round(full_seconds, 6),
            "speedup": round(live_speedup, 2),
            "floor": SPEEDUP_FLOOR_LIVE,
            "max_abs_deviation": max_deviation,
            "tolerance": LIVE_TOLERANCE,
            "distributions_bitwise_identical": live_bitwise,
        },
    }
    path = bench_artifact("BENCH_kernels.json", record)
    print(
        f"\nkernels [{config['mode']}]: "
        f"DM {config['dm_qubits']}q {dm_speedup:.1f}x (floor {SPEEDUP_FLOOR_DM}x), "
        f"SV {config['sv_qubits']}q {sv_speedup:.1f}x (floor {SPEEDUP_FLOOR_SV}x), "
        f"live width {live_speedup:.1f}x (floor {SPEEDUP_FLOOR_LIVE}x, "
        f"bitwise {live_bitwise}), bitwise identity OK -> {path}"
    )
