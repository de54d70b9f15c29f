"""Run one benchmark workload and print its metrics as the last line of JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig6_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is a separate run that wraps the public calls of each layer,
alternates traced and untraced operations and prints the per-layer metrics.
Every run checks the program's outputs; a failed check makes the result
``"correct": false`` and the exit status 1.  The workloads, metrics and the
layer each per-layer metric should move are described in ``README.md`` next
to this file.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

import common

WORKLOADS = ("fig6_sweep", "nme_2cut_jobs", "service_burst")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="measure one set-up of the workload and print its seconds (used internally)",
    )
    return parser.parse_args(argv)


def measure_inprocess(module, args) -> dict:
    """Set up and time an in-process workload.

    Returns the measurement: ``end_to_end`` and ``per_layer`` metrics (the
    latter empty for an untraced run), ``attempted`` and ``failed`` operation
    units and a note per failed check.
    """
    started = time.perf_counter()
    state = module.setup(args.seed)
    setups = [time.perf_counter() - started]
    setups += [
        common.run_setup_probe(args.workload, args.seed)
        for _ in range(module.SETUP_REPEATS - 1)
    ]

    recorder = delta = None
    if args.trace:
        from spans import RegistryDelta, SpanRecorder

        recorder = SpanRecorder()
        delta = RegistryDelta()
        module.install(recorder, state)

    ops = []  # (seconds, traced)
    units = []
    failed = 0
    failures = []
    begin = time.perf_counter()
    for index, op in enumerate(module.operations(state)):
        if index >= module.MIN_OPS and time.perf_counter() - begin >= args.seconds:
            break
        traced = recorder is not None and index % 2 == 0
        if traced:
            recorder.enabled = True
            recorder.op = index
            delta.start()
            root = recorder.open(module.ROOT_SPAN)
        op_start = time.perf_counter()
        try:
            count, correct, note = module.run_op(state, op)
        finally:
            ops.append((time.perf_counter() - op_start, traced))
            if traced:
                recorder.close(root)
                recorder.enabled = False
                delta.stop()
        units.append(count)
        if not correct:
            failed += count
            failures.append(note)
    durations = [seconds for seconds, _ in ops]
    per_op = units[0]
    end_to_end = {
        "setup_s": common.median(setups),
        "throughput_ops_s": per_op / common.median(durations),
        "peak_rss_mb": common.peak_rss_mb_self(),
    }
    print(
        f"# {args.workload}: {len(ops)} ops of {per_op} units; op seconds "
        f"{[round(d, 4) for d in durations]}; set-up seconds {[round(s, 4) for s in setups]}"
    )
    per_layer = {}
    if recorder is not None:
        recorder.restore()
        per_layer = _layer_metrics(recorder, delta, ops)
        common.write_json(
            common.OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "environment": common.environment(),
             "ops": [{"seconds": seconds, "traced": traced} for seconds, traced in ops],
             "registry_deltas": dict(delta.totals), **recorder.to_payload()},
        )
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": sum(units),
        "failed": failed,
        "failures": failures,
    }


def _layer_metrics(recorder, delta, ops) -> dict:
    """Per-operation layer metrics of the traced operations."""
    traced_ops = sum(1 for _, traced in ops if traced)
    self_times = recorder.self_times()
    totals = recorder.total_times()
    counts = recorder.counts

    def per_op(value: float) -> float:
        return value / traced_ops

    hits, misses = delta.totals["cache_hits"], delta.totals["cache_misses"]
    metrics = {name: 0.0 for name in common.PER_LAYER_UNITS}
    metrics.update(
        {
            "experiments.build_sampling_models.s": per_op(
                totals.get("experiments.build_sampling_models", 0.0)
            ),
            "cutting.term_build.s": per_op(self_times.get("experiments.build_sampling_models", 0.0)),
            "cutting.estimate_sweep.s": per_op(totals.get("cutting.estimate_sweep", 0.0)),
            "cutting.estimate_sweep.calls": per_op(counts["cutting.estimate_sweep.calls"]),
            "qpd.allocate_shots.calls": per_op(counts["qpd.allocate_shots.calls"]),
            "pipeline.plan.s": per_op(self_times.get("pipeline.plan", 0.0)),
            "pipeline.decompose.s": per_op(self_times.get("pipeline.decompose", 0.0)),
            "pipeline.execute.s": per_op(self_times.get("pipeline.execute", 0.0)),
            "pipeline.reconstruct.s": per_op(self_times.get("pipeline.reconstruct", 0.0)),
            "pipeline.decompose.terms": per_op(counts["pipeline.decompose.terms"]),
            "circuits.exact_distributions.s": per_op(
                totals.get("circuits.exact_distributions", 0.0)
            ),
            "circuits.exact_distributions.calls": per_op(
                counts["circuits.exact_distributions.calls"]
            ),
            "circuits.exact_distributions.circuits": per_op(
                counts["circuits.exact_distributions.circuits"]
            ),
            "circuits.sample.s": per_op(self_times.get("circuits.run_batch", 0.0)),
            "circuits.max_term_qubits": recorder.maxima.get("circuits.max_term_qubits", 0.0),
            "circuits.kernel_gate_applications.arity1": per_op(delta.totals["gates.arity1"]),
            "circuits.kernel_gate_applications.arity2": per_op(delta.totals["gates.arity2"]),
            "circuits.kernel_gate_applications.arity3plus": per_op(
                delta.totals["gates.arity3plus"]
            ),
            "circuits.kernel_gate.s": per_op(delta.totals["gate_seconds"]),
            "circuits.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "bench.span_coverage_frac": recorder.coverage(),
        }
    )
    traced = [seconds for seconds, is_traced in ops if is_traced]
    untraced = [seconds for seconds, is_traced in ops if not is_traced]
    if untraced:
        metrics["telemetry.overhead_frac"] = common.median(traced) / common.median(untraced) - 1.0
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    common.pin_blas_threads()
    common.require_sources()
    module = importlib.import_module(args.workload)

    if args.setup_probe:
        started = time.perf_counter()
        module.setup(args.seed)
        print(f"{time.perf_counter() - started!r}")
        return 0

    measure = getattr(module, "measure", None) or (lambda args: measure_inprocess(module, args))
    result = measure(args)
    print(f"# environment {common.environment()}")
    for note in result["failures"][:20]:
        print(f"# check failed: {note}")
    correct = not result["failures"]
    if args.trace:
        metrics, units = result["per_layer"], common.PER_LAYER_UNITS
    else:
        metrics, units = result["end_to_end"], common.END_TO_END_UNITS
    print(common.result_line(correct, result["attempted"], result["failed"], metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
