"""Run a workload under several seeds and report each metric's run-to-run spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload nme_2cut_jobs --seeds 1 2 3 4 5

Each seed is one ``run.py`` run of ``run_seconds`` (from ``BENCHMARK.json``),
one after the other.  For every end-to-end metric it prints the median and
the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound.  It also checks that the printed metrics and units match
``BENCHMARK.json``.  The summary is written to
``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs = []
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=str(common.ROOT), capture_output=True, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stdout + completed.stderr)
            print(f"seed {seed}: exit {completed.returncode}")
            return 1
        result = json.loads(lines[-1])
        notes = [line for line in lines[:-1] if line.startswith("#")]
        runs.append({"seed": seed, "notes": notes, **result})
        shown = {name: round(entry["value"], 4) for name, entry in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {shown}", flush=True)

    problems = []
    summary = {}
    for metric in declared:
        name = metric["name"]
        units = {run["metrics"].get(name, {}).get("unit") for run in runs}
        if units != {metric["unit"]}:
            problems.append(f"{name}: printed units {units}, declared {metric['unit']}")
            continue
        values = [run["metrics"][name]["value"] for run in runs]
        middle = statistics.median(values)
        entry = {"values": values, "median": middle}
        if len(values) >= 2 and middle:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / abs(middle)
        if "bound" in metric and "spread" in entry:
            entry["bound"] = metric["bound"]
            verdict = "ok" if entry["spread"] <= metric["bound"] / 3 else (
                "within bound" if entry["spread"] <= metric["bound"] else "TOO WIDE"
            )
            print(f"{name:24s} median {middle:12.4f}  spread {entry['spread']:.4f}  "
                  f"bound {metric['bound']}  {verdict}")
        summary[name] = entry
    extra = set(runs[0]["metrics"]) - {metric["name"] for metric in declared}
    if extra:
        problems.append(f"printed but not declared: {sorted(extra)}")
    if not all(run["correct"] for run in runs):
        problems.append("a run reported correct=false")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    common.write_json(
        common.OUT / f"spread-{args.workload}{'-trace' if args.trace else ''}.json",
        {"workload": args.workload, "runs": runs, "summary": summary},
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
