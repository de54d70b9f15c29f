"""Shared helpers of the benchmark: paths, environment, statistics, result line.

Only the standard library is imported here, so the harness can pin the BLAS
thread count (and fail cleanly when the program's sources are missing)
before NumPy or the program itself is loaded.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent

#: The program's sources; the benchmark runs them straight from the tree.
SRC = ROOT / "src"

#: Scratch directory for stores and trace files, inside the checkout.
OUT = ROOT / ".perfbench_out"

#: BLAS threads per process.  Set through the environment before NumPy loads,
#: in this process and in every process the benchmark starts, so the figures
#: do not depend on how many cores OpenBLAS detects (it is built with
#: MAX_THREADS=64) and the two server workers do not oversubscribe the cores.
BLAS_THREADS = "1"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (tracing off) and their units; every workload prints all.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units; a workload that does not
#: exercise a layer reports 0 for it.  ``/op`` means per timed operation.
PER_LAYER_UNITS = {
    "experiments.build_sampling_models.s": "s/op",
    "cutting.term_build.s": "s/op",
    "cutting.estimate_sweep.s": "s/op",
    "cutting.estimate_sweep.calls": "count/op",
    "qpd.allocate_shots.calls": "count/op",
    "pipeline.plan.s": "s/op",
    "pipeline.decompose.s": "s/op",
    "pipeline.execute.s": "s/op",
    "pipeline.reconstruct.s": "s/op",
    "pipeline.decompose.terms": "count/op",
    "circuits.exact_distributions.s": "s/op",
    "circuits.exact_distributions.calls": "count/op",
    "circuits.exact_distributions.circuits": "count/op",
    "circuits.sample.s": "s/op",
    "circuits.max_term_qubits": "qubits",
    "circuits.kernel_gate_applications.arity1": "count/op",
    "circuits.kernel_gate_applications.arity2": "count/op",
    "circuits.kernel_gate_applications.arity3plus": "count/op",
    "circuits.kernel_gate.s": "s/op",
    "circuits.cache_hit_ratio": "fraction",
    "service.http.server_ms.post_jobs": "ms",
    "service.http.server_ms.get_job": "ms",
    "service.latency_ms_p50": "ms",
    "service.latency_ms_p99": "ms",
    "service.submit_ms_p50": "ms",
    "service.submit_ms_p99": "ms",
    "service.queue_depth.mean": "jobs",
    "service.queue_depth.max": "jobs",
    "service.resubmit_served_ratio": "fraction",
    "service.store.runs": "count",
    "service.store.db_bytes": "bytes",
    "qpd.adaptive.rounds_per_job": "count",
    "qpd.adaptive.shots_per_job": "count",
    "loadgen.lag_ms_p99": "ms",
    "telemetry.overhead_frac": "fraction",
    "bench.span_coverage_frac": "fraction",
}


def pin_blas_threads() -> None:
    """Fix the BLAS thread count for this process and its children."""
    for name in BLAS_ENV_VARS:
        os.environ[name] = BLAS_THREADS


def require_sources() -> None:
    """Exit with status 2 (printing no result) when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)


def child_environment() -> dict:
    """Environment for processes the benchmark starts (sources, BLAS pinning)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in BLAS_ENV_VARS:
        env[name] = BLAS_THREADS
    return env


def environment() -> dict:
    """Describe the machine and libraries a result was measured with."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
    }


def percentile(values, q: float) -> float:
    """Return the ``q``-th percentile (0..100) with linear interpolation."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    """Return the median of ``values``."""
    return percentile(values, 50.0)


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def run_setup_probe(workload: str, seed: int, timeout: float = 120.0) -> float:
    """Measure one set-up of ``workload`` in a fresh interpreter; return seconds."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve().parent / "run.py"),
            "--setup-probe",
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        env=child_environment(),
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"set-up probe of {workload} failed ({completed.returncode}): "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return float(completed.stdout.strip().splitlines()[-1])


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON, creating the parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    """Format the final JSON result line from ``{name: value}`` metrics."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]} for name in units
            },
        }
    )
