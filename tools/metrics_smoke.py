"""CI smoke of `/metrics` under load, plus span-tree JSONL export.

Starts the asyncio service in-process, fires concurrent job submissions at
it, and scrapes ``GET /metrics`` **while the load is in flight**.  Asserts
that the scrape is Prometheus text format, that the core series are
present, and that the counters are monotone between the mid-load scrape
and a final post-load scrape.  Then pulls the span tree persisted for one
of the submitted jobs out of the ``RunStore``, asserts it is a single
connected tree (no orphan spans), and writes it as JSON-lines — one span
per line — for CI to upload next to ``BENCH_service_load.json``.

Usage: ``PYTHONPATH=src python tools/metrics_smoke.py [spans_out.jsonl]``
"""

import json
import re
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.experiments import ghz_circuit
from repro.service import JobSpec, RunService, RunStore, ServerThread, ServiceClient
from repro.telemetry.tracing import find_orphans
from repro.utils.logging import configure_logging, get_logger

_LOG = get_logger("tools.metrics_smoke")

#: Series whose ``# TYPE`` headers must be present on every scrape.
CORE_SERIES = (
    "repro_http_requests_total",
    "repro_http_request_seconds",
    "repro_submissions_total",
    "repro_scheduler_queue_depth",
    "repro_plan_kappa",
    "repro_kernel_gate_applications_total",
    "repro_kernel_gate_seconds",
    "repro_simulation_qubits",
)
#: Submitting threads × jobs per thread.
THREADS = 3
JOBS_PER_THREAD = 3


def _scrape(url: str) -> str:
    """Fetch ``/metrics``; assert status and Prometheus text content type."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
        assert response.status == 200, response.status
        content_type = response.headers["Content-Type"]
        assert content_type.startswith("text/plain"), content_type
        return response.read().decode()


def _sample(text: str, series: str) -> float | None:
    """Return the value of one exact series line, or ``None`` when absent."""
    match = re.search(rf"^{re.escape(series)} ([0-9.e+-]+)$", text, flags=re.M)
    return None if match is None else float(match.group(1))


def main() -> int:
    """Run the metrics smoke scenario; return a process exit code."""
    configure_logging(level="info")
    out_path = Path(sys.argv[1] if len(sys.argv) > 1 else "spans.jsonl")
    store = RunStore(tempfile.mkdtemp(prefix="repro-metrics-smoke-"))
    service = RunService(store=store, workers=2)
    server = ServerThread(service)
    url = server.start()
    client = ServiceClient(url, tenant="loadgen")
    job_ids: list[str] = []
    errors: list[Exception] = []

    def submit_batch(offset: int) -> None:
        batch_client = ServiceClient(url, tenant="loadgen")
        try:
            for index in range(JOBS_PER_THREAD):
                spec = JobSpec(
                    circuit=ghz_circuit(4),
                    observable="ZZZZ",
                    shots=400,
                    seed=100 * offset + index,
                    max_fragment_width=2,
                )
                job_ids.append(batch_client.submit(spec)["job_id"])
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    try:
        assert client.health()["status"] == "ok"
        baseline = _scrape(url)
        for name in CORE_SERIES:
            assert f"# TYPE {name}" in baseline, f"missing core series {name}"
        _LOG.info("core series present: %s", ", ".join(CORE_SERIES))

        threads = [
            threading.Thread(target=submit_batch, args=(offset,)) for offset in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        mid_load = _scrape(url)  # the endpoint answers while submissions are in flight
        for thread in threads:
            thread.join(timeout=120)
        assert errors == [], errors
        for job_id in job_ids:
            client.wait(job_id, timeout=300)
        settled = _scrape(url)

        total_jobs = THREADS * JOBS_PER_THREAD
        for series in (
            'repro_http_requests_total{path="/metrics",status="200"}',
            'repro_submissions_total{tenant="loadgen"}',
        ):
            before = _sample(mid_load, series) or 0.0
            after = _sample(settled, series)
            assert after is not None, f"{series} missing after load"
            assert after >= before, f"{series} not monotone: {before} -> {after}"
        submissions = _sample(settled, 'repro_submissions_total{tenant="loadgen"}')
        assert submissions == total_jobs, (submissions, total_jobs)
        # The settled scrape cannot count itself (the counter lands after the
        # body renders), so it must have seen at least the first two scrapes.
        assert (_sample(settled, 'repro_http_requests_total{path="/metrics",status="200"}')
                or 0.0) >= 2
        _LOG.info(
            "monotone counters confirmed across %d concurrent submissions", total_jobs
        )

        # The jobs simulated circuits in-process, so the kernel dispatch
        # counter and the per-gate latency histogram must carry samples for
        # the default kernel (labelled by kernel and gate arity).
        assert re.search(
            r'^repro_kernel_gate_applications_total\{kernel="einsum",arity="\d+"\} [1-9]',
            settled,
            flags=re.M,
        ), "no einsum gate applications recorded during load"
        gate_observations = _sample(settled, 'repro_kernel_gate_seconds_count{kernel="einsum"}')
        assert gate_observations is not None and gate_observations >= 1.0, gate_observations
        _LOG.info(
            "kernel dispatch telemetry present: %s gate-latency observations",
            gate_observations,
        )
        # Every simulated structure group observes its declared and its
        # live (simulated) width once; live never exceeds declared.
        declared = _sample(settled, 'repro_simulation_qubits_count{width="declared"}')
        live = _sample(settled, 'repro_simulation_qubits_count{width="live"}')
        assert declared is not None and declared >= 1.0 and live == declared, (declared, live)
        assert _sample(settled, 'repro_simulation_qubits_sum{width="live"}') <= _sample(
            settled, 'repro_simulation_qubits_sum{width="declared"}'
        )
        _LOG.info("simulation width telemetry present: %s simulated groups", declared)

        trace = store.get_trace(job_ids[0])
        assert trace is not None, "submitted job left no span tree in the store"
        orphans = find_orphans(trace)
        assert orphans == [], f"span tree has orphans: {orphans}"
        span_names = {span["name"] for span in trace["spans"]}
        assert {"submit", "job", "execute"} <= span_names, span_names
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            "\n".join(json.dumps(span, sort_keys=True) for span in trace["spans"]) + "\n"
        )
        _LOG.info(
            "span JSONL written: %d spans of trace %s -> %s",
            len(trace["spans"]),
            trace["trace_id"],
            out_path,
        )
    finally:
        server.stop()
        service.close()

    _LOG.info("metrics smoke OK")
    print("metrics smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
