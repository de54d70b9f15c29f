"""Workload ``service_burst``: an open-loop job mix against ``repro serve``.

The program runs as ``python -m repro.cli serve --workers 2 --store DIR`` in
its own process.  One client process talks to it over at most two HTTP
keep-alive connections: the main thread sends the seeded schedule (evenly
spaced requests at a fixed offered rate, never waiting for a previous
request's job), a watcher thread polls outstanding jobs until they are done.
The mix, in seeded order:

* fresh fingerprints, static or adaptive (``target_error``) mode: a full
  pipeline run plus stage persistence;
* resubmitted fingerprints: served by the scheduler's fingerprint dedup, or,
  for jobs finished by an earlier server on the same store, by a store hit;
* status polls of earlier jobs.

Every request is timed from when it was due, so a stall also delays the
requests behind it; the generator's own lateness is reported.  Set-up (server
start until ``/healthz`` answers, plus a few warm-up jobs) is repeated on the
same store; the warm-up jobs of the earlier servers are the store hits.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import common
from nme_2cut_jobs import rotated_ghz

#: Offered requests per second, evenly spaced.  On a 2-vCPU x86-64 virtual
#: machine the server's backlog of this mix stayed bounded up to 80
#: requests/s (queue depth at most 6), reached 33 at 100/s and grew without
#: bound at 120/s, so 44/s runs at under half of saturation.
REQUEST_RATE = 44.0

#: The mix: every block of consecutive requests holds exactly these kinds,
#: in a seeded order.  Jobs are 11 of 12 requests (about 40 jobs/s, so a
#: 25-second burst completes over 1000 jobs), 6 of 11 of them fresh
#: fingerprints, so the median job is a fresh one.
BLOCK = (
    ("poll",) * 1
    + ("fresh_static",) * 4
    + ("fresh_adaptive",) * 2
    + ("store_hit",) * 1
    + ("dedup",) * 4
)

#: The job: GHZ-4 with a seeded rotation, width 3 (one cut), 2000 shots.
QUBITS = 4
WIDTH = 3
SHOTS = 2000
TARGET_ERROR = 0.08

#: Server worker threads (``repro serve --workers``).
WORKERS = 2

#: Server set-ups per run; the last server serves the burst.
SETUP_REPEATS = 3
WARMUP_JOBS = 4

#: Fresh jobs re-run in-process to check the served results bitwise.
CHECKED_JOBS = 8

#: The watcher's pause between polling sweeps, and the traced run's
#: ``/metrics`` sampling period.
WATCH_INTERVAL_S = 0.01
SCRAPE_INTERVAL_S = 0.1

#: Longest wait for the burst's jobs to finish after the last submission.
DRAIN_TIMEOUT_S = 60.0

#: A run whose generator ends this late is invalid: the client fell behind.
MAX_FINAL_LAG_S = 1.0

_BANNER = re.compile(r"listening on http://([0-9.]+):([0-9]+)")
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")


# -- job specs --------------------------------------------------------------------------


def _spec(rng: random.Random, adaptive: bool):
    """Draw one fresh job spec."""
    from repro.service.spec import JobSpec

    extra = {"mode": "adaptive", "target_error": TARGET_ERROR} if adaptive else {}
    return JobSpec(
        circuit=rotated_ghz(rng.uniform(0.0, math.pi)),
        observable="Z" * QUBITS,
        shots=SHOTS,
        seed=rng.randrange(2**31),
        max_fragment_width=WIDTH,
        **extra,
    )


class _Job:
    """One distinct fingerprint: its spec, wire form and the value it was served."""

    def __init__(self, spec):
        self.spec = spec
        self.fingerprint = spec.fingerprint()
        self.body = json.dumps(spec.to_payload()).encode()
        self.row: dict | None = None


def _schedule(rng: random.Random, seconds: float, store_pool: list, known: list) -> list:
    """Return the burst's ``(due_s, kind, job)`` operations, in due order.

    ``known`` holds the jobs the serving scheduler already has (its own
    warm-ups); ``store_pool`` the jobs only the store has.  Polls and dedup
    resubmissions pick from the jobs known at their due time.
    """
    known = list(known)
    operations = []
    count = int(seconds * REQUEST_RATE)
    kinds = []
    while len(kinds) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    for index, kind in enumerate(kinds[:count]):
        due = (index + 1) / REQUEST_RATE
        if kind == "poll":
            operations.append((due, "poll", rng.choice(known)))
        elif kind.startswith("fresh"):
            job = _Job(_spec(rng, adaptive=kind == "fresh_adaptive"))
            known.append(job)
            operations.append((due, "fresh", job))
        else:
            job = rng.choice(store_pool if kind == "store_hit" else known)
            if job not in known:
                known.append(job)
            operations.append((due, "resubmit", job))
    return operations


# -- server process and HTTP ------------------------------------------------------------


class _Client:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, body: bytes | None = None):
        status, data = self.request(method, path, body)
        return status, json.loads(data)

    def close(self) -> None:
        self.connection.close()


class _Server:
    """``repro serve`` in a child process, logging into the output directory."""

    def __init__(self, store, log_path):
        self.log_path = log_path
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "w+", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", str(WORKERS),
             "--store", str(store)],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=common.child_environment(),
            cwd=str(common.ROOT),
        )
        self.port = self._wait_for_banner()

    def _wait_for_banner(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                return int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log_path.read_text(encoding='utf-8')[-2000:]}")

    def wait_healthy(self, client: _Client, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if client.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                client.close()
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def stop(self) -> None:
        """Drain and stop the server; kill it if it does not exit in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _wait_done(client: _Client, jobs: list, timeout: float = 60.0) -> None:
    """Poll until every job in ``jobs`` is done, recording its status row."""
    deadline = time.monotonic() + timeout
    pending = list(jobs)
    while pending:
        if time.monotonic() > deadline:
            raise RuntimeError(f"{len(pending)} warm-up jobs did not finish")
        job = pending[0]
        _, row = client.json("GET", f"/jobs/{job.fingerprint}")
        if row.get("state") == "failed":
            raise RuntimeError(f"warm-up job failed: {row}")
        if row.get("state") == "done":
            job.row = row
            pending.pop(0)
        else:
            time.sleep(WATCH_INTERVAL_S)


def _start(store, index: int, rng: random.Random, seed: int) -> tuple[_Server, _Client, list, float]:
    """Start one server and warm it up; return it with the set-up seconds."""
    started = time.perf_counter()
    server = _Server(store, common.OUT / f"server-seed{seed}-{index}.log")
    client = _Client(server.port)
    try:
        server.wait_healthy(client)
        warmups = [_Job(_spec(rng, adaptive=i % 2 == 1)) for i in range(WARMUP_JOBS)]
        for job in warmups:
            status, row = client.json("POST", "/jobs", job.body)
            if status not in (200, 201) or row.get("job_id") != job.fingerprint:
                raise RuntimeError(f"warm-up submission refused: {status} {row}")
        _wait_done(client, warmups)
    except BaseException:
        client.close()
        server.stop()
        raise
    return server, client, warmups, time.perf_counter() - started


def parse_metrics(text: str) -> list[tuple[str, dict, float]]:
    """Parse a Prometheus text exposition into ``(name, labels, value)`` samples."""
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if not match:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2) or ""))
        samples.append((match.group(1), labels, float(match.group(3))))
    return samples


def _metric_sum(samples, name: str, **labels) -> float:
    return sum(
        value for sample, found, value in samples
        if sample == name and all(found.get(k) == v for k, v in labels.items())
    )


# -- the burst --------------------------------------------------------------------------


class _Burst:
    """Sends the schedule, watches completions, keeps every timing."""

    def __init__(self, port: int, schedule: list, traced: bool):
        self.port = port
        self.schedule = schedule
        self.traced = traced
        self.origin = 0.0
        self.records: list[dict] = []
        self.depth_samples: list[float] = []
        self._handoff: queue.SimpleQueue = queue.SimpleQueue()
        self._sending = True

    def run(self) -> None:
        watcher = threading.Thread(target=self._watch, name="perfbench-watcher")
        client = _Client(self.port)
        self.origin = time.perf_counter() + 0.05
        watcher.start()
        try:
            for due_s, kind, job in self.schedule:
                due = self.origin + due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._send(client, due, kind, job)
        finally:
            self._sending = False
            watcher.join(timeout=DRAIN_TIMEOUT_S + 30)
            client.close()
        if watcher.is_alive():
            raise RuntimeError("completion watcher did not stop")

    def _send(self, client: _Client, due: float, kind: str, job: _Job) -> None:
        record = {"kind": kind, "job": job, "due": due, "sent": time.perf_counter()}
        self.records.append(record)
        try:
            if kind == "poll":
                status, row = client.json("GET", f"/jobs/{job.fingerprint}")
            else:
                status, row = client.json("POST", "/jobs", job.body)
        except (OSError, http.client.HTTPException, ValueError) as error:
            client.close()
            record["error"] = f"{kind} request failed: {error!r}"
            return
        record["answered"] = time.perf_counter()
        if status not in (200, 201) or row.get("job_id") != job.fingerprint:
            record["error"] = f"{kind} answered {status}: {row}"
        elif kind != "poll":
            if row.get("state") == "done":
                record["done"] = record["answered"]
                record["row"] = row
            elif row.get("state") == "failed":
                record["error"] = f"job {job.fingerprint} failed: {row.get('error')}"
            else:
                self._handoff.put(record)

    def _watch(self) -> None:
        client = _Client(self.port)
        outstanding: list[dict] = []
        next_scrape = 0.0
        deadline = None
        try:
            while True:
                while True:
                    try:
                        outstanding.append(self._handoff.get_nowait())
                    except queue.Empty:
                        break
                if not self._sending and not outstanding and self._handoff.empty():
                    return
                if not self._sending and deadline is None:
                    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
                if deadline is not None and time.perf_counter() > deadline:
                    for record in outstanding:
                        record["error"] = "job not done before the drain deadline"
                    return
                outstanding = self._poll(client, outstanding)
                now = time.perf_counter()
                if self.traced and now >= next_scrape and self.in_traced_window(now):
                    self._scrape(client)
                    next_scrape = now + SCRAPE_INTERVAL_S
                time.sleep(WATCH_INTERVAL_S)
        finally:
            client.close()

    @staticmethod
    def _poll(client: _Client, outstanding: list[dict]) -> list[dict]:
        """Poll the oldest outstanding jobs; return the ones not done yet.

        The scheduler runs jobs first in, first out on ``WORKERS`` workers,
        so a job can only finish before an older one while that one runs:
        polling stops at the ``WORKERS``-th distinct fingerprint that is not
        done.  The poll rate is thus bounded however long the backlog grows,
        and the watcher cannot load a slow server further.
        """
        rows: dict[str, dict] = {}
        waiting = 0
        for record in outstanding:
            fingerprint = record["job"].fingerprint
            if fingerprint not in rows:
                if waiting >= WORKERS:
                    continue
                rows[fingerprint] = client.json("GET", f"/jobs/{fingerprint}")[1]
                rows[fingerprint]["answered"] = time.perf_counter()
                if rows[fingerprint].get("state") not in ("done", "failed"):
                    waiting += 1
            row = rows[fingerprint]
            if row.get("state") == "done":
                record["done"] = row["answered"]
                record["row"] = row
            elif row.get("state") == "failed":
                record["error"] = f"job failed: {row.get('error')}"
        return [record for record in outstanding if "done" not in record and "error" not in record]

    def in_traced_window(self, moment: float) -> bool:
        """The traced run samples ``/metrics`` only in even seconds of the burst."""
        return math.floor(moment - self.origin) % 2 == 0

    def _scrape(self, client: _Client) -> None:
        status, text = client.request("GET", "/metrics")
        if status == 200:
            samples = parse_metrics(text.decode())
            self.depth_samples.append(_metric_sum(samples, "repro_scheduler_queue_depth"))


# -- measurement ------------------------------------------------------------------------


def measure(args) -> dict:
    """Run the whole workload; return the measurement dict of ``run.py``."""
    from repro.service.runner import run_job
    from repro.service.store import RunStore

    rng = random.Random(f"service_burst/{args.seed}")
    store = common.OUT / f"store-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    setups = []
    store_pool: list[_Job] = []
    server = client = None
    try:
        for index in range(SETUP_REPEATS):
            if server is not None:
                client.close()
                server.stop()
                store_pool.extend(warmups)
            server, client, warmups, seconds = _start(store, index, rng, args.seed)
            setups.append(seconds)
        client.close()

        schedule = _schedule(rng, args.seconds, store_pool, warmups)
        burst = _Burst(server.port, schedule, traced=bool(args.trace))
        burst.run()

        final_metrics = None
        if args.trace:
            scrape = _Client(server.port)
            final_metrics = parse_metrics(scrape.request("GET", "/metrics")[1].decode())
            scrape.close()
        db_bytes = sum(
            path.stat().st_size for path in store.glob("index.sqlite3*") if path.name != "index.sqlite3-shm"
        )
        server_rss = common.peak_rss_mb_pid(server.process.pid)
        server.stop()
        server = None
        stored_runs = RunStore(store).count_runs()

        failures = _check(burst, store_pool + warmups, run_job, rng)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(store, ignore_errors=True)

    jobs = [r for r in burst.records if r["kind"] != "poll"]
    done = [r for r in jobs if "done" in r]
    latencies = [r["done"] - r["due"] for r in done]
    submits = [r["answered"] - r["due"] for r in jobs if "answered" in r]
    lags = [r["sent"] - r["due"] for r in burst.records]
    span = max(r["done"] for r in done) - burst.origin
    end_to_end = {
        "setup_s": common.median(setups),
        "throughput_ops_s": len(done) / span,
        "peak_rss_mb": server_rss,
    }
    if lags[-1] > MAX_FINAL_LAG_S:
        failures.append(f"generator fell behind: last request sent {lags[-1]:.3f} s late")
    print(
        f"# service_burst: offered {REQUEST_RATE:g} requests/s for "
        f"{args.seconds:g} s; {len(jobs)} jobs, {len(done)} done, "
        f"{len(burst.records) - len(jobs)} polls; setups_s={[round(s, 4) for s in setups]}"
    )
    print(f"# job latency_ms p50/p99 = {1000 * common.median(latencies):.3f} / "
          f"{1000 * common.percentile(latencies, 99.0):.3f}")
    for kind in ("fresh", "resubmit"):
        values = [r["done"] - r["due"] for r in done if r["kind"] == kind]
        if values:
            print(f"# {kind}: {len(values)} done, latency_ms p10/p50/p90/p99 = "
                  f"{[round(1000 * common.percentile(values, q), 2) for q in (10, 50, 90, 99)]}")
    per_layer = {}
    if args.trace:
        per_layer = _layer_metrics(
            burst, final_metrics, latencies, submits, lags, stored_runs, db_bytes, warmups
        )
        common.write_json(
            common.OUT / f"trace-service_burst-seed{args.seed}.json",
            {"workload": "service_burst", "seed": args.seed,
             "environment": common.environment(),
             "queue_depth_samples": burst.depth_samples,
             "final_metrics": [list(sample) for sample in final_metrics],
             "requests": [
                 {key: (value.fingerprint if key == "job" else value)
                  for key, value in record.items() if key != "row"}
                 for record in burst.records
             ]},
        )
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": len(burst.records),
        "failed": min(len(failures), len(burst.records)),
        "failures": failures,
    }


def _check(burst: _Burst, known: list, run_job, rng: random.Random) -> list[str]:
    """Check every answer; re-run a seeded sample of fresh jobs in-process.

    Returns one note per failed request or check.
    """
    failures = [r["error"] for r in burst.records if "error" in r]
    failures += [
        f"{r['kind']} of {r['job'].fingerprint}: completion never observed"
        for r in burst.records
        if r["kind"] != "poll" and "done" not in r and "error" not in r
    ]
    served: dict[str, float] = {job.fingerprint: job.row["value"] for job in known}
    for record in burst.records:
        if record["kind"] == "fresh" and "row" in record:
            served[record["job"].fingerprint] = record["row"]["value"]
            record["job"].row = record["row"]
    for record in burst.records:
        if record["kind"] == "resubmit" and "row" in record:
            expected = served.get(record["job"].fingerprint)
            if record["row"]["value"] != expected:
                failures.append(
                    f"resubmission of {record['job'].fingerprint} served {record['row']['value']}, "
                    f"first served {expected}"
                )
    finished = [r["job"] for r in burst.records if r["kind"] == "fresh" and "row" in r]
    for job in rng.sample(finished, min(CHECKED_JOBS, len(finished))):
        outcome = run_job(job.spec)
        if (outcome.value, outcome.standard_error) != (
            job.row["value"], job.row["standard_error"]
        ):
            failures.append(
                f"job {job.fingerprint} served {job.row['value']} +- {job.row['standard_error']}, "
                f"in-process run_job gives {outcome.value} +- {outcome.standard_error}"
            )
    return failures


def _layer_metrics(burst, samples, latencies, submits, lags, stored_runs, db_bytes, warmups) -> dict:
    """Per-layer metrics of the traced run, from the client and ``/metrics``."""

    def server_ms(path: str) -> float:
        count = _metric_sum(samples, "repro_http_request_seconds_count", path=path)
        total = _metric_sum(samples, "repro_http_request_seconds_sum", path=path)
        return 1000.0 * total / count if count else 0.0

    fresh = [r for r in burst.records if r["kind"] == "fresh" and "row" in r]
    resubmits = [r for r in burst.records if r["kind"] == "resubmit"]
    adaptive = [r["row"] for r in fresh if r["job"].spec.mode == "adaptive"]
    pipeline_runs = _metric_sum(samples, "repro_plan_kappa_count")
    extra_runs = max(0.0, pipeline_runs - len(fresh) - len(warmups))
    hits = _metric_sum(samples, "repro_distribution_cache_hits_total")
    misses = _metric_sum(samples, "repro_distribution_cache_misses_total")
    traced = [r["done"] - r["due"] for r in burst.records
              if "done" in r and burst.in_traced_window(r["due"])]
    quiet = [r["done"] - r["due"] for r in burst.records
             if "done" in r and not burst.in_traced_window(r["due"])]
    gates = {
        arity: _metric_sum(samples, "repro_kernel_gate_applications_total", arity=arity)
        for arity in ("1", "2")
    }
    all_gates = _metric_sum(samples, "repro_kernel_gate_applications_total")
    runs = max(pipeline_runs, 1.0)
    metrics = {name: 0.0 for name in common.PER_LAYER_UNITS}
    metrics.update(
        {
            "circuits.kernel_gate_applications.arity1": gates["1"] / runs,
            "circuits.kernel_gate_applications.arity2": gates["2"] / runs,
            "circuits.kernel_gate_applications.arity3plus": (all_gates - gates["1"] - gates["2"]) / runs,
            "circuits.kernel_gate.s": _metric_sum(samples, "repro_kernel_gate_seconds_sum") / runs,
            "circuits.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.http.server_ms.post_jobs": server_ms("/jobs"),
            "service.http.server_ms.get_job": server_ms("/jobs/{id}"),
            "service.latency_ms_p50": 1000.0 * common.median(latencies),
            "service.latency_ms_p99": 1000.0 * common.percentile(latencies, 99.0),
            "service.submit_ms_p50": 1000.0 * common.median(submits),
            "service.submit_ms_p99": 1000.0 * common.percentile(submits, 99.0),
            "service.queue_depth.mean": sum(burst.depth_samples) / max(len(burst.depth_samples), 1),
            "service.queue_depth.max": max(burst.depth_samples, default=0.0),
            "service.resubmit_served_ratio": 1.0 - extra_runs / len(resubmits) if resubmits else 0.0,
            "service.store.runs": stored_runs,
            "service.store.db_bytes": db_bytes,
            "qpd.adaptive.rounds_per_job": (
                sum(row.get("rounds_completed") or 0 for row in adaptive) / len(adaptive)
                if adaptive else 0.0
            ),
            "qpd.adaptive.shots_per_job": (
                sum(row.get("progress", {}).get("shots_spent", 0) for row in adaptive) / len(adaptive)
                if adaptive else 0.0
            ),
            "loadgen.lag_ms_p99": 1000.0 * common.percentile(lags, 99.0),
            "telemetry.overhead_frac": (
                common.median(traced) / common.median(quiet) - 1.0 if traced and quiet else 0.0
            ),
        }
    )
    return metrics
