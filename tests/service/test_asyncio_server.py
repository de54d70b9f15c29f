"""Tests of the asyncio job server: SSE streaming, limits, drain, pagination.

The centrepiece is the streaming contract: an SSE consumer sees **every**
:class:`~repro.qpd.adaptive.RoundRecord` **exactly once and in order** —
live, on replay after completion, resuming mid-stream with
``Last-Event-ID``, and across a hard (``SIGKILL``) server restart that
resumes the job from its persisted round log.
"""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import ServiceBusyError, ServiceError
from repro.qpd.adaptive import RoundRecord
from repro.service import (
    JobSpec,
    RunService,
    RunStore,
    ServerThread,
    ServiceClient,
    TenantRateLimiter,
    run_job,
)
from utils.gated_backend import GatedBackend

pytestmark = [pytest.mark.integration, pytest.mark.xdist_group("forkheavy")]


@pytest.fixture
def service(tmp_path):
    """A live asyncio service on a free port, with a store attached."""
    run_service = RunService(store=RunStore(tmp_path / "store"), workers=2)
    server = ServerThread(run_service)
    url = server.start()
    try:
        yield ServiceClient(url)
    finally:
        server.stop()
        run_service.close()


def _adaptive_spec(ghz_spec, rounds=4, seed=7):
    """A small adaptive job that runs exactly ``rounds`` rounds."""
    return ghz_spec(
        qubits=4,
        shots=100_000,
        seed=seed,
        mode="adaptive",
        rounds=rounds,
        target_error=1e-6,
    )


class TestStreaming:
    def test_live_stream_sees_every_round_once_in_order(self, service, ghz_spec):
        spec = _adaptive_spec(ghz_spec, rounds=5)
        job_id = service.submit(spec)["job_id"]
        events = list(service.events(job_id))
        rounds = [event for event in events if event["event"] == "round"]
        assert [event["id"] for event in rounds] == [0, 1, 2, 3, 4]
        assert events[-1]["event"] == "result"
        # Each data payload reconstructs into a RoundRecord.
        for event in rounds:
            record = RoundRecord.from_payload(event["data"]["round"])
            assert record.index == event["id"]
            assert sum(record.shots_per_term) > 0

    def test_replay_after_completion_matches_live(self, service, ghz_spec):
        spec = _adaptive_spec(ghz_spec, rounds=3)
        job_id = service.submit(spec)["job_id"]
        live = [e for e in service.events(job_id) if e["event"] == "round"]
        replay = [e for e in service.events(job_id) if e["event"] == "round"]
        assert [e["id"] for e in replay] == [e["id"] for e in live] == [0, 1, 2]
        live_payloads = [e["data"]["round"] for e in live]
        replay_payloads = [e["data"]["round"] for e in replay]
        assert replay_payloads == live_payloads

    def test_resume_with_after_skips_seen_rounds(self, service, ghz_spec):
        spec = _adaptive_spec(ghz_spec, rounds=4)
        job_id = service.submit(spec)["job_id"]
        service.wait(job_id, timeout=120)
        resumed = [e for e in service.events(job_id, after=1) if e["event"] == "round"]
        assert [e["id"] for e in resumed] == [2, 3]

    def test_watch_yields_round_payloads(self, service, ghz_spec):
        spec = _adaptive_spec(ghz_spec, rounds=3)
        job_id = service.submit(spec)["job_id"]
        rounds = list(service.watch(job_id))
        assert [r["round"]["index"] for r in rounds] == [0, 1, 2]

    def test_unknown_job_stream_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            list(service.events("deadbeef" * 4, reconnect=False))

    def test_failed_job_stream_ends_with_failed_event(self, service):
        from repro.experiments import ghz_circuit

        # Valid spec that fails at plan time inside the worker: a 6-qubit
        # GHZ under width 2 needs two cuts, but the budget allows one.
        spec = JobSpec(
            circuit=ghz_circuit(6),
            observable="ZZZZZZ",
            shots=500,
            seed=3,
            max_fragment_width=2,
            max_cuts=1,
        )
        row = service.submit(spec)
        events = list(service.events(row["job_id"]))
        assert events[-1]["event"] == "failed"
        assert "error" in events[-1]["data"]


class TestAdmission:
    def test_rate_limit_surfaces_as_429_with_retry_after(self, tmp_path, ghz_spec):
        run_service = RunService(
            workers=2, limiter=TenantRateLimiter(rate=0.001, burst=1.0)
        )
        server = ServerThread(run_service)
        client = ServiceClient(server.start(), tenant="alice")
        try:
            client.submit(ghz_spec(shots=200, seed=1))
            with pytest.raises(ServiceBusyError) as info:
                client.submit(ghz_spec(shots=200, seed=2))
            assert info.value.status == 429
            assert info.value.retry_after > 0
        finally:
            server.stop()
            run_service.close()

    def test_quota_caps_active_jobs_per_tenant(self, ghz_spec, monkeypatch):
        # Every job's backend waits at a latch, so alice's first job stays
        # active until the assertions below have run, however warm the
        # process's caches are.
        gated = GatedBackend("vectorized")
        build_pipeline = JobSpec.build_pipeline

        def gated_build(self):
            pipeline = build_pipeline(self)
            pipeline.backend = gated
            return pipeline

        monkeypatch.setattr(JobSpec, "build_pipeline", gated_build)
        run_service = RunService(workers=1, limiter=TenantRateLimiter(max_active=1))
        server = ServerThread(run_service)
        url = server.start()
        alice = ServiceClient(url, tenant="alice")
        bob = ServiceClient(url, tenant="bob")
        try:
            alice.submit(_adaptive_spec(ghz_spec, rounds=8, seed=1))
            with pytest.raises(ServiceBusyError) as info:
                alice.submit(ghz_spec(shots=200, seed=2))
            assert info.value.status == 429
            # Another tenant is unaffected by alice's quota.
            bob.submit(ghz_spec(shots=200, seed=3))
        finally:
            gated.release()
            server.stop()
            run_service.close()

    def test_drain_refuses_with_503_and_finishes_in_flight(self, tmp_path, ghz_spec):
        store = RunStore(tmp_path / "store")
        run_service = RunService(store=store, workers=2)
        server = ServerThread(run_service)
        client = ServiceClient(server.start())
        spec = _adaptive_spec(ghz_spec, rounds=6)
        job_id = client.submit(spec)["job_id"]
        run_service.begin_drain()
        with pytest.raises(ServiceBusyError) as info:
            client.submit(ghz_spec(shots=200, seed=99))
        assert info.value.status == 503
        assert info.value.retry_after > 0
        assert client.health()["draining"] is True
        # Stopping with drain=True waits for the in-flight job to finish.
        server.stop(drain=True)
        run_service.close()
        assert store.get_stage(spec.fingerprint(), "result") is not None
        store.close()


class TestPagination:
    def test_jobs_pagination_and_state_filter(self, service, ghz_spec):
        ids = []
        for seed in range(4):
            ids.append(service.submit(ghz_spec(shots=300, seed=seed))["job_id"])
        for job_id in ids:
            service.wait(job_id, timeout=120)
        assert len(service.jobs()) == 4
        page = service.jobs(limit=2, offset=1)
        assert [row["job_id"] for row in page] == ids[1:3]
        assert len(service.jobs(state="done")) == 4
        assert service.jobs(state="failed") == []

    def test_runs_pagination_and_stage_filter(self, service, ghz_spec):
        for seed in range(3):
            service.wait(service.submit(ghz_spec(shots=300, seed=seed))["job_id"], timeout=120)
        runs = service.runs()
        assert len(runs) == 3
        assert service.runs(limit=2) == runs[:2]
        assert service.runs(offset=2) == runs[2:]
        assert len(service.runs(stage="result")) == 3

    def test_invalid_query_parameters_are_rejected(self, service):
        with pytest.raises(ServiceError):
            service.jobs(state="bogus")
        with pytest.raises(ServiceError):
            service.jobs(offset=-1)
        with pytest.raises(ServiceError):
            service._request("/jobs?limit=notanumber")


class TestHardRestart:
    def test_sigkill_restart_resumes_bitwise_and_streams_exactly_once(
        self, tmp_path, ghz_spec
    ):
        """SIGKILL a serving process mid-adaptive-run; restart and resume.

        The client sees every round exactly once and in order across the
        restart (``after=`` resume from the persisted round log), and the
        final estimate is bitwise identical to an uninterrupted run of the
        same spec in a fresh store.
        """
        store_dir = tmp_path / "store"
        spec = _adaptive_spec(ghz_spec, rounds=10)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")}

        def start_server():
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "serve",
                    "--port",
                    "0",
                    "--store",
                    str(store_dir),
                    "--workers",
                    "2",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listening banner in {banner!r}"
            return process, f"http://{match.group(1)}:{match.group(2)}"

        process, url = start_server()
        seen = []
        try:
            client = ServiceClient(url)
            job_id = client.submit(spec)["job_id"]
            # Consume live rounds; hard-kill the server after two.
            for event in client.events(job_id, reconnect=False):
                if event["event"] == "round":
                    seen.append(event)
                    if len(seen) >= 2:
                        break
        except ServiceError:
            pass  # the kill below may race the stream shutdown
        finally:
            process.kill()
            process.wait(timeout=30)

        assert len(seen) >= 2
        last_seen = max(event["id"] for event in seen)

        # Restart on the same store and resubmit: the job resumes from the
        # persisted round log; the stream resumes past the last seen index.
        process, url = start_server()
        try:
            client = ServiceClient(url)
            resumed_id = client.submit(spec)["job_id"]
            assert resumed_id == job_id
            tail = list(client.events(job_id, after=last_seen))
            assert tail[-1]["event"] == "result"
            tail_rounds = [event for event in tail if event["event"] == "round"]
            indices = [event["id"] for event in seen] + [e["id"] for e in tail_rounds]
            assert indices == sorted(set(indices)), "duplicate or out-of-order rounds"
            assert indices == list(range(10)), indices
            resumed_result = tail[-1]["data"]
            outcome = client.wait(job_id, timeout=120)
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)

        # The kill genuinely interrupted the run: the second attempt resumed
        # from the persisted round log rather than a cached result.
        assert outcome["cached"] is False
        assert outcome["resumed_from"] == "rounds"

        # Bitwise-identical to an uninterrupted run in a fresh store.
        fresh = run_job(spec, store=RunStore(tmp_path / "fresh"))
        assert outcome["value"] == fresh.value
        assert outcome["standard_error"] == fresh.standard_error
        assert outcome["total_shots"] == fresh.total_shots
        assert resumed_result["value"] == fresh.value
        assert resumed_result["rounds_completed"] == 10


class TestHttpBasics:
    def test_health_reports_ok(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["draining"] is False
        assert health["workers"] == 2

    def test_unknown_path_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service._request("/nope")

    def test_non_json_body_is_400(self, service):
        request = urllib.request.Request(
            f"{service.base_url}/jobs",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert "error" in json.loads(info.value.read())

    def test_keep_alive_serves_many_requests_per_connection(self, service):
        import http.client
        from urllib.parse import urlsplit

        parsed = urlsplit(service.base_url)
        connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=10)
        try:
            for _ in range(5):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200
                assert json.loads(body)["status"] == "ok"
        finally:
            connection.close()

    def test_duplicate_submission_dedups(self, service, ghz_spec):
        spec = ghz_spec(shots=400)
        first = service.submit(spec)
        second = service.submit(spec)
        assert first["job_id"] == second["job_id"]
        service.wait(first["job_id"], timeout=120)
        assert len(service.jobs()) == 1
