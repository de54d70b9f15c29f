"""The multi-process :class:`WorkerPool`: pull units, execute, report partials.

Workers are OS processes.  Each one owns an inbox queue; the coordinator
(the process driving :meth:`WorkerPool.run_round`) pulls units from the
:class:`~repro.distributed.queue.RoundQueue` on a worker's behalf — own
backlog first, then steals — and mails them one at a time, so the stealing
decision always sees the queue's true state.  Workers execute units through
an ordinary :class:`~repro.circuits.backends.SimulatorBackend` (or a
:class:`~repro.devices.DeviceFleet`) and report
:class:`~repro.distributed.units.UnitResult` partials on a shared result
queue.

Fault tolerance
---------------
A worker that dies mid-unit (crash, OOM kill, ``SIGKILL``) is detected by a
liveness sweep; its in-flight unit is re-queued at the front of its home
backlog and the surviving workers absorb it.  A unit whose execution raises
(a flaky backend) is retried up to ``max_retries`` times.  Because every
unit carries its own seed stream and results merge by sorted unit key, *any*
interleaving of failures, retries and steals yields bitwise-identical round
statistics; duplicate results (a worker killed right after reporting while
its unit was conservatively re-queued) are de-duplicated by unit key.

The ``"inline"`` mode executes the same pull/steal/merge loop synchronously
in the coordinator process — no workers, no queues — which is what the
deterministic unit tests and the scheduling simulations use.
"""

from __future__ import annotations

import queue as stdlib_queue
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import multiprocessing as mp

import numpy as np

from repro.exceptions import DistributedError
from repro.circuits.backends import SimulatorBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.cutting.executor import BackendRoundExecutor
from repro.distributed.queue import RoundQueue
from repro.distributed.units import UnitResult, WorkUnit
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.tracing import record_span

__all__ = ["WorkerPool", "execute_unit", "WORKER_MODES"]

#: Execution modes of the pool: real OS processes or a synchronous loop.
WORKER_MODES = ("process", "inline")

#: Default per-unit retry budget for backend faults.
DEFAULT_MAX_RETRIES = 3

#: Coordinator-side pool counters (cumulative across pools in the process;
#: the per-pool attributes ``requeues``/``retries``/``units_completed`` stay
#: the per-instance view).
_UNITS_COMPLETED = REGISTRY.counter(
    "repro_distributed_units_completed_total",
    "Distributed work units completed (first result per unit key).",
)
_UNIT_RETRIES = REGISTRY.counter(
    "repro_distributed_unit_retries_total",
    "Distributed unit retries after backend faults.",
)
_UNIT_REQUEUES = REGISTRY.counter(
    "repro_distributed_unit_requeues_total",
    "Distributed units re-queued after a worker death.",
)


def _pristine_seed(seed):
    """Return a spawn-state-free copy of a :class:`~numpy.random.SeedSequence`.

    ``SeedSequence.spawn`` mutates the parent's child counter, so executing
    two units against the *same* round-seed object would hand the second
    unit shifted child streams.  Worker processes are immune (they receive
    pickled copies), but the inline mode and in-worker retries share one
    object — every unit execution therefore derives its children from a
    pristine reconstruction, exactly what the in-process round executor
    sees.
    """
    if not isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(
        entropy=seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
    )


def execute_unit(
    backend: SimulatorBackend,
    circuits: Sequence[QuantumCircuit],
    selected_clbits: Sequence[Sequence[int]],
    unit: WorkUnit,
    worker: str = "",
) -> UnitResult:
    """Execute one work unit bitwise-identically to the in-process round batch.

    The full measured batch is submitted with a zero-padded shots vector
    (shots only at ``unit.term_index``), seeded with the unit's round seed.
    ``run_batch`` spawns one child stream per circuit and samples circuit
    ``i`` exclusively from child ``i`` (the library-wide determinism
    contract), so the unit's counts equal the corresponding slice of the
    full in-process round — on every backend.  Zero-shot circuits are never
    simulated, so the padding costs nothing.

    Parameters
    ----------
    backend:
        Any simulator backend (including a :class:`~repro.devices.DeviceFleet`).
    circuits:
        The round's full measured term-circuit batch.
    selected_clbits:
        Per-term classical bits carrying the signed observable outcome.
    unit:
        The unit to execute.
    worker:
        Identifier stamped on the result (diagnostic only).

    Returns
    -------
    UnitResult
        The term's batch summary ``(mean, shots)`` for this round slice.
    """
    start = time.monotonic()
    term = int(unit.term_index)
    round_shots = [0] * len(circuits)
    round_shots[term] = int(unit.shots)
    mean = BackendRoundExecutor(backend, circuits, selected_clbits)(
        unit.round_index, round_shots, _pristine_seed(unit.seed)
    )[term]
    return UnitResult(
        round_index=int(unit.round_index),
        term_index=term,
        shots=int(unit.shots),
        mean=float(mean),
        worker=worker,
        trace=unit.trace,
        elapsed=float(time.monotonic() - start),
    )


def _worker_main(
    worker_name: str,
    circuits,
    selected_clbits,
    backend,
    latency: float,
    inbox,
    results,
) -> None:
    """Worker process loop: pull a unit from the inbox, execute, report.

    ``None`` on the inbox is the shutdown sentinel.  Failures are reported
    as ``("error", worker, key, message)`` so the coordinator can retry the
    unit elsewhere instead of losing the round.
    """
    while True:
        unit = inbox.get()
        if unit is None:
            return
        try:
            if latency > 0.0:
                time.sleep(latency)
            result = execute_unit(
                backend, circuits, selected_clbits, unit, worker=worker_name
            )
        except Exception as error:  # ship the failure, never kill the loop
            results.put(
                ("error", worker_name, unit.key, f"{type(error).__name__}: {error}")
            )
        else:
            results.put(("ok", worker_name, result))


@dataclass
class _WorkerHandle:
    """Coordinator-side state of one worker."""

    name: str
    device: str
    latency: float = 0.0
    process: mp.Process | None = None
    inbox: object | None = None
    in_flight: WorkUnit | None = field(default=None)
    dead: bool = False


class WorkerPool:
    """A pool of unit-executing workers over one measured term-circuit batch.

    Parameters
    ----------
    circuits:
        The measured term circuits of the estimation (shared by every
        round; workers receive them once at spawn).
    selected_clbits:
        Per-term classical bits carrying the signed observable outcome.
    backend:
        Execution backend (name or instance, including a
        :class:`~repro.devices.DeviceFleet`); ``None`` selects the serial
        backend.
    devices:
        Device names served by the pool, cycled over the workers (worker
        ``i`` serves ``devices[i % len(devices)]``).  ``None`` gives every
        worker its own synthetic device.
    workers:
        Number of worker processes; defaults to ``len(devices)`` (or 1).
    mode:
        ``"process"`` (real OS processes) or ``"inline"`` (synchronous
        loop, for deterministic tests and scheduling simulations).
    latencies:
        Optional per-device simulated seconds-per-unit (models slow QPUs in
        the work-stealing benchmark; scheduling-only, never part of the
        statistics).
    max_retries:
        Per-unit retry budget for backend faults.
    poll_interval:
        Seconds between liveness sweeps while waiting for results.
    """

    def __init__(
        self,
        circuits: Sequence[QuantumCircuit],
        selected_clbits: Sequence[Sequence[int]],
        backend: SimulatorBackend | str | None = None,
        devices: Sequence[str] | None = None,
        workers: int | None = None,
        mode: str = "process",
        latencies: Mapping[str, float] | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        poll_interval: float = 0.05,
    ) -> None:
        if mode not in WORKER_MODES:
            raise DistributedError(
                f"unknown worker mode {mode!r}; expected one of {WORKER_MODES}"
            )
        if workers is not None and workers < 1:
            raise DistributedError(f"workers must be at least 1, got {workers}")
        self._circuits = list(circuits)
        self._selected_clbits = [list(bits) for bits in selected_clbits]
        self._backend = resolve_backend(backend)
        if devices is None:
            count = int(workers) if workers is not None else 1
            devices = [f"worker-{index}" for index in range(count)]
        self._devices = tuple(str(name) for name in devices)
        count = int(workers) if workers is not None else len(self._devices)
        latencies = dict(latencies or {})
        self._handles = [
            _WorkerHandle(
                name=f"w{index}",
                device=self._devices[index % len(self._devices)],
                latency=float(latencies.get(self._devices[index % len(self._devices)], 0.0)),
            )
            for index in range(count)
        ]
        self.mode = mode
        self.max_retries = int(max_retries)
        self.poll_interval = float(poll_interval)
        self._ctx = mp.get_context()
        self._result_queue = None
        self._started = False
        self._closed = False
        #: Units returned to the queue after a worker death.
        self.requeues = 0
        #: Unit retries after backend faults.
        self.retries = 0
        #: Units completed across all rounds.
        self.units_completed = 0

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        """Number of configured workers (dead ones included)."""
        return len(self._handles)

    @property
    def worker_devices(self) -> tuple[str, ...]:
        """The device each worker serves, in worker order."""
        return tuple(handle.device for handle in self._handles)

    def start(self) -> None:
        """Spawn the worker processes (idempotent; no-op in inline mode)."""
        if self._started or self.mode != "process":
            self._started = True
            return
        self._result_queue = self._ctx.Queue()
        for handle in self._handles:
            handle.inbox = self._ctx.Queue()
            handle.process = self._ctx.Process(
                target=_worker_main,
                args=(
                    handle.name,
                    self._circuits,
                    self._selected_clbits,
                    self._backend,
                    handle.latency,
                    handle.inbox,
                    self._result_queue,
                ),
                name=f"repro-distributed-{handle.name}",
            )
            handle.process.start()
        self._started = True

    def close(self) -> None:
        """Shut the workers down (idempotent; safe after worker deaths)."""
        if self._closed:
            return
        self._closed = True
        if self.mode != "process" or not self._started:
            return
        for handle in self._handles:
            if handle.process is None:
                continue
            if handle.process.is_alive() and handle.inbox is not None:
                try:
                    handle.inbox.put(None)
                except (ValueError, OSError):  # pragma: no cover - closed queue
                    pass
        for handle in self._handles:
            if handle.process is None:
                continue
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=1.0)

    def __enter__(self) -> "WorkerPool":
        """Start the pool on context entry."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the pool on context exit."""
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        """Best-effort shutdown for pools dropped without ``close``."""
        try:
            self.close()
        except Exception:
            pass

    # -- round execution ---------------------------------------------------------------

    def run_round(self, round_queue: RoundQueue) -> list[UnitResult]:
        """Drain ``round_queue`` through the workers and return sorted results.

        Results are returned in sorted unit-key order — never arrival
        order — so the caller's merge is independent of scheduling.

        Raises
        ------
        DistributedError
            When every worker died with units outstanding, or a unit
            exhausted its retry budget.
        """
        if self._closed:
            raise DistributedError("the worker pool is closed")
        if self.mode == "inline":
            return self._run_round_inline(round_queue)
        return self._run_round_process(round_queue)

    # -- inline mode -------------------------------------------------------------------

    def _run_round_inline(self, round_queue: RoundQueue) -> list[UnitResult]:
        """Synchronous pull/steal loop: same scheduling, no processes."""
        results: dict[tuple[int, int], UnitResult] = {}
        remaining = set(round_queue.unit_keys())
        retries: dict[tuple[int, int], int] = {}
        while remaining:
            progressed = False
            for handle in self._handles:
                unit = round_queue.next_unit(handle.device)
                if unit is None:
                    continue
                progressed = True
                if handle.latency > 0.0:
                    time.sleep(handle.latency)
                try:
                    result = execute_unit(
                        self._backend,
                        self._circuits,
                        self._selected_clbits,
                        unit,
                        worker=handle.name,
                    )
                except Exception as error:
                    self._count_retry(unit, retries, f"{type(error).__name__}: {error}")
                    round_queue.requeue(unit)
                    continue
                if result.key in remaining:
                    remaining.discard(result.key)
                    results[result.key] = result
                    self.units_completed += 1
                    _UNITS_COMPLETED.inc()
                    self._record_unit_span(result, retries.get(result.key, 0))
            if not progressed and remaining:  # pragma: no cover - defensive
                raise DistributedError(
                    f"round queue drained with {len(remaining)} units outstanding"
                )
        return [results[key] for key in sorted(results)]

    # -- process mode ------------------------------------------------------------------

    def _run_round_process(self, round_queue: RoundQueue) -> list[UnitResult]:
        """Dispatch/collect loop over the worker processes, fault-tolerant."""
        self.start()
        results: dict[tuple[int, int], UnitResult] = {}
        remaining = set(round_queue.unit_keys())
        retries: dict[tuple[int, int], int] = {}
        requeued: dict[tuple[int, int], int] = {}
        self._fill_idle(round_queue)
        while remaining:
            message = self._poll_message(self.poll_interval)
            if message is not None:
                self._handle_message(
                    message, round_queue, remaining, results, retries, requeued
                )
                self._fill_idle(round_queue)
                continue
            # Timed out: sweep for dead workers, recover their units, retry
            # dispatch (a requeue may have made work available to idle
            # survivors).
            self._reap_dead(round_queue, requeued)
            self._fill_idle(round_queue)
            if not self._live_handles():
                # Drain any results that were already in the pipe before the
                # last worker died, then fail if units are still missing.
                while remaining:
                    message = self._poll_message(self.poll_interval)
                    if message is None:
                        break
                    self._handle_message(
                        message, round_queue, remaining, results, retries, requeued
                    )
                if remaining:
                    raise DistributedError(
                        f"all {self.num_workers} workers died with "
                        f"{len(remaining)} units outstanding"
                    )
        return [results[key] for key in sorted(results)]

    def _poll_message(self, timeout: float):
        """Return the next worker message, or ``None`` on timeout."""
        try:
            return self._result_queue.get(timeout=timeout)
        except stdlib_queue.Empty:
            return None

    def _handle_message(
        self,
        message,
        round_queue: RoundQueue,
        remaining: set,
        results: dict,
        retries: dict,
        requeued: dict | None = None,
    ) -> None:
        """Fold one worker message into the coordinator's ledger."""
        requeued = {} if requeued is None else requeued
        kind, worker_name, *payload = message
        handle = next(h for h in self._handles if h.name == worker_name)
        if kind == "ok":
            (result,) = payload
            handle.in_flight = None
            # De-duplicate by key: a worker killed right after reporting may
            # have had its unit conservatively re-executed elsewhere; both
            # results are bitwise identical, keep the first.
            if result.key in remaining:
                remaining.discard(result.key)
                results[result.key] = result
                self.units_completed += 1
                _UNITS_COMPLETED.inc()
                attempts = retries.get(result.key, 0) + requeued.get(result.key, 0)
                self._record_unit_span(result, attempts)
            return
        key, detail = payload
        unit = handle.in_flight
        handle.in_flight = None
        if unit is None or unit.key not in remaining:  # pragma: no cover - defensive
            return
        self._count_retry(unit, retries, detail)
        round_queue.requeue(unit)

    def _count_retry(self, unit: WorkUnit, retries: dict, detail: str) -> None:
        """Bump a unit's retry counter, failing the round when exhausted."""
        retries[unit.key] = retries.get(unit.key, 0) + 1
        self.retries += 1
        _UNIT_RETRIES.inc()
        if retries[unit.key] > self.max_retries:
            raise DistributedError(
                f"unit {unit.key} failed {retries[unit.key]} times "
                f"(max_retries={self.max_retries}); last error: {detail}"
            )

    def _live_handles(self) -> list[_WorkerHandle]:
        """Return the handles whose processes are still alive."""
        return [
            handle
            for handle in self._handles
            if not handle.dead
            and handle.process is not None
            and handle.process.is_alive()
        ]

    def _reap_dead(self, round_queue: RoundQueue, requeued: dict | None = None) -> None:
        """Mark newly dead workers and re-queue their in-flight units."""
        for handle in self._handles:
            if handle.dead or handle.process is None or handle.process.is_alive():
                continue
            handle.dead = True
            if handle.in_flight is not None:
                round_queue.requeue(handle.in_flight)
                if requeued is not None:
                    key = handle.in_flight.key
                    requeued[key] = requeued.get(key, 0) + 1
                handle.in_flight = None
                self.requeues += 1
                _UNIT_REQUEUES.inc()

    @staticmethod
    def _record_unit_span(result: UnitResult, attempts: int) -> None:
        """Synthesise a ``unit`` span from a completed result's telemetry.

        Worker monotonic clocks are not comparable across processes, so the
        span is placed on the coordinator's clock with the worker's measured
        duration: durations are exact, placement is approximate.  ``retry``
        counts every extra attempt the unit needed (backend faults plus
        worker-death requeues); a no-op when no tracer is active or the
        unit carried no trace context.
        """
        if result.trace is None:
            return
        record_span(
            "unit",
            duration=float(result.elapsed),
            parent=result.trace,
            worker=str(result.worker),
            round=int(result.round_index),
            term=int(result.term_index),
            shots=int(result.shots),
            retry=int(attempts),
        )

    def _fill_idle(self, round_queue: RoundQueue) -> None:
        """Mail one unit to every idle live worker (own queue first, then steal)."""
        for handle in self._live_handles():
            if handle.in_flight is not None:
                continue
            unit = round_queue.next_unit(handle.device)
            if unit is None:
                continue
            handle.in_flight = unit
            handle.inbox.put(unit)
