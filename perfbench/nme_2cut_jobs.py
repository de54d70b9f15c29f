"""Workload ``nme_2cut_jobs``: the paper's NME protocol on a two-cut job.

Each operation runs one 4-qubit GHZ-type circuit stage by stage through
``CutPipeline(max_fragment_width=2, entanglement_overlap=0.9,
backend="vectorized")``: plan, decompose, execute (static, 20,000 shots),
reconstruct.  The circuit carries a per-job ``ry`` rotation on its last
qubit, drawn from the workload seed, so no job reuses another job's cached
term distributions; the exact value of ``ZZZZ`` is then ``cos(theta)``.
Every job must plan 2 cuts and 9 product terms and land within 5 standard
errors of the exact value.
"""

from __future__ import annotations

import math
import random

ROOT_SPAN = "bench.job"
SETUP_REPEATS = 3
MIN_OPS = 3

QUBITS = 4
OBSERVABLE = "Z" * QUBITS
SHOTS = 20_000
EXPECTED_CUTS = 2
EXPECTED_TERMS = 9
MAX_SIGMAS = 5.0


def _jobs(seed: int):
    """Yield ``(theta, job_seed)`` pairs of one run (the first one warms up)."""
    rng = random.Random(f"nme_2cut_jobs/{seed}")
    while True:
        yield rng.uniform(0.0, math.pi), rng.randrange(2**31)


def rotated_ghz(theta: float):
    """GHZ preparation followed by ``ry(theta)`` on the last qubit."""
    from repro.circuits.circuit import QuantumCircuit

    circuit = QuantumCircuit(QUBITS, 0, name="ghz_ry")
    circuit.h(0)
    for qubit in range(QUBITS - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.ry(theta, QUBITS - 1)
    return circuit


def setup(seed: int) -> dict:
    """Import the pipeline, construct it and run one warm-up job."""
    from repro.pipeline import CutPipeline

    pipeline = CutPipeline(max_fragment_width=2, entanglement_overlap=0.9, backend="vectorized")
    jobs = _jobs(seed)
    state = {"pipeline": pipeline, "jobs": jobs}
    run_op(state, next(jobs))
    return state


def operations(state: dict):
    """Yield the timed jobs."""
    yield from state["jobs"]


def run_op(state: dict, job) -> tuple[int, bool, str]:
    """Run one job stage by stage; return ``(jobs, correct, note)``."""
    theta, job_seed = job
    pipeline = state["pipeline"]
    plan = pipeline.plan(rotated_ghz(theta))
    decomposition = pipeline.decompose(plan)
    execution = pipeline.execute(decomposition, OBSERVABLE, SHOTS, seed=job_seed)
    result = pipeline.reconstruct(execution)
    terms = len(decomposition.term_circuits)
    deviation = abs(result.value - result.exact_value)
    correct = (
        plan.num_cuts == EXPECTED_CUTS
        and terms == EXPECTED_TERMS
        and result.total_shots == SHOTS
        and abs(result.exact_value - math.cos(theta)) <= 1e-9
        and deviation <= MAX_SIGMAS * result.standard_error
    )
    note = "" if correct else (
        f"theta {theta!r}: cuts {plan.num_cuts}, terms {terms}, shots {result.total_shots}, "
        f"value {result.value} +- {result.standard_error}, exact {result.exact_value}"
    )
    return 1, correct, note


def install(recorder, state: dict) -> None:
    """Wrap the pipeline stages and the backend's batch calls."""
    from repro.pipeline import CutPipeline

    backend_class = type(state["pipeline"].backend)

    def observe_decompose(args, kwargs, result):
        recorder.count("pipeline.decompose.terms", len(result.term_circuits))

    recorder.patch(CutPipeline, "plan", "pipeline.plan")
    recorder.patch(CutPipeline, "decompose", "pipeline.decompose", observe_decompose)
    recorder.patch(CutPipeline, "execute", "pipeline.execute")
    recorder.patch(CutPipeline, "reconstruct", "pipeline.reconstruct")
    recorder.patch(backend_class, "run_batch", "circuits.run_batch")
    recorder.patch(
        backend_class, "exact_distributions", "circuits.exact_distributions", recorder.observe_batch
    )
