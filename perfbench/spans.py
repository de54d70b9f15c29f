"""In-process span recording around the program's public calls.

The traced run installs timing wrappers on the public entry points of each
layer (module functions and class methods, looked up where the caller looks
them up), so the program's sources stay untouched.  Spans are kept in memory
and written out when the run ends; a layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict


class SpanRecorder:
    """Span log of one single-threaded run.

    Every span is ``[name, start, end, parent_index, op_index]``.  Recording
    happens only while :attr:`enabled` is true, so untraced operations of a
    traced run pay one attribute test per wrapped call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self.skipped: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; return its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost span (which must be ``index``)."""
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a named count."""
        self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        """Keep the largest value seen under ``name``."""
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- wrappers ----------------------------------------------------------------------

    def wrap(self, function, name: str | None, observe=None):
        """Return ``function`` wrapped in a span (``name=None``: count only).

        ``observe(args, kwargs, result)`` runs after the call while the
        recorder is enabled, to record counts taken from arguments or results.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            if name is None:
                result = function(*args, **kwargs)
            else:
                index = recorder.open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    recorder.close(index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attribute: str, name: str | None, observe=None) -> None:
        """Replace ``owner.attribute`` by a wrapped version (undone by :meth:`restore`).

        A call the program no longer has is skipped and listed in
        :attr:`skipped`; its per-layer metrics then read 0.
        """
        original = inspect.getattr_static(owner, attribute, None)
        if original is None:
            self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, observe))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- aggregation -------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Return the summed self time of every span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        """Return the summed inclusive duration of every span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def coverage(self) -> float:
        """Share of root-span time covered by named child spans."""
        root_time = 0.0
        child_time = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent == -1:
                root_time += end - start
            elif self.spans[parent][3] == -1:
                child_time += end - start
        return child_time / root_time if root_time > 0 else 0.0

    def observe_batch(self, args, kwargs, result) -> None:
        """Count a backend ``exact_distributions(circuits)`` call and its width."""
        circuits = args[1]
        self.count("circuits.exact_distributions.calls")
        self.count("circuits.exact_distributions.circuits", len(circuits))
        if circuits:
            self.maximum("circuits.max_term_qubits", max(c.num_qubits for c in circuits))

    def to_payload(self) -> dict:
        """Return the span log as a JSON-serialisable document."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {
                    "name": name,
                    "start_s": start - origin,
                    "duration_s": end - start,
                    "parent": parent,
                    "op": op,
                }
                for name, start, end, parent, op in self.spans
            ],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "skipped_patches": list(self.skipped),
        }


class RegistryDelta:
    """Differences of the program's in-process metric counters over an interval."""

    def __init__(self):
        from repro.telemetry.metrics import REGISTRY

        self._registry = REGISTRY
        self.totals: Counter = Counter()
        self._before: dict | None = None

    def _snapshot(self) -> dict:
        values: dict[str, float] = {}
        gates = self._registry.get("repro_kernel_gate_applications_total")
        if gates is not None:
            for (kernel, arity), value in gates.samples():
                key = "arity1" if arity == "1" else "arity2" if arity == "2" else "arity3plus"
                values[f"gates.{key}"] = values.get(f"gates.{key}", 0.0) + value
        seconds = self._registry.get("repro_kernel_gate_seconds")
        if seconds is not None:
            values["gate_seconds"] = sum(
                seconds.sum(kernel=labels[0]) for labels, _ in seconds.samples()
            )
        for name, metric in (
            ("cache_hits", "repro_distribution_cache_hits_total"),
            ("cache_misses", "repro_distribution_cache_misses_total"),
        ):
            instrument = self._registry.get(metric)
            values[name] = 0.0 if instrument is None else instrument.value()
        return values

    def start(self) -> None:
        """Begin an interval."""
        self._before = self._snapshot()

    def stop(self) -> None:
        """End the interval and add its differences to :attr:`totals`."""
        after = self._snapshot()
        for name, value in after.items():
            self.totals[name] += value - self._before.get(name, 0.0)
        self._before = None
