"""Workload ``fig6_sweep``: the paper's Figure-6 experiment, one sweep per operation.

Each operation is ``run_figure6`` on the paper configuration (1000 seeded
single-qubit states x 6 entanglement levels x 11 shot budgets = 66,000
estimates) with a sweep seed drawn from the workload seed, so no sweep
reuses another's cached distributions.  Every sweep is checked against the
paper: the sampling overheads equal the closed form kappa = 2/f - 1 and the
error falls as the entanglement rises.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

#: Operation root span name.
ROOT_SPAN = "experiments.run_figure6"

#: Set-up repetitions (one in the measuring process, the rest in fresh ones).
SETUP_REPEATS = 3

#: Fewest timed operations per run, whatever ``--seconds`` says.
MIN_OPS = 3

#: The paper's kappa for f = 0.5, 0.6, ..., 1.0.
PAPER_KAPPAS = (
    Fraction(3),
    Fraction(7, 3),
    Fraction(13, 7),
    Fraction(3, 2),
    Fraction(11, 9),
    Fraction(1),
)

#: States in the set-up warm-up sweep.
_WARMUP_STATES = 50


def _sweep_seeds(seed: int):
    """Yield the per-sweep seeds of one run (the first one warms up)."""
    rng = random.Random(f"fig6_sweep/{seed}")
    while True:
        yield rng.randrange(2**31)


def setup(seed: int) -> dict:
    """Import the experiment layer, build the configuration and warm up."""
    from repro.experiments.figure6 import Figure6Config, run_figure6

    seeds = _sweep_seeds(seed)
    paper = Figure6Config.paper()
    warmup = dataclasses.replace(paper, num_states=_WARMUP_STATES, seed=next(seeds))
    run_figure6(warmup)
    return {"paper": paper, "run_figure6": run_figure6, "seeds": seeds}


def operations(state: dict):
    """Yield the configuration of every timed sweep."""
    for sweep_seed in state["seeds"]:
        yield dataclasses.replace(state["paper"], seed=sweep_seed)


def run_op(state: dict, config) -> tuple[int, bool, str]:
    """Run one sweep; return ``(estimates, correct, note)``."""
    result = state["run_figure6"](config)
    estimates = config.num_states * len(config.overlaps) * len(config.shot_grid)
    kappas_ok = len(result.kappas) == len(PAPER_KAPPAS) and all(
        abs(kappa - float(expected)) <= 1e-9
        for kappa, expected in zip(result.kappas, PAPER_KAPPAS)
    )
    shape_ok = result.mean_errors.shape == (len(config.overlaps), len(config.shot_grid))
    finite_ok = bool((result.mean_errors >= 0).all()) and bool(
        (result.mean_errors < float("inf")).all()
    )
    monotone = result.is_monotone_in_entanglement()
    correct = kappas_ok and shape_ok and finite_ok and monotone
    note = "" if correct else (
        f"seed {config.seed}: kappas {result.kappas} ok={kappas_ok}, "
        f"shape ok={shape_ok}, finite ok={finite_ok}, monotone={monotone}"
    )
    return estimates, correct, note


def install(recorder, state: dict) -> None:
    """Wrap the calls a sweep makes into each layer."""
    import repro.cutting.executor as executor
    import repro.experiments.figure6 as figure6
    from repro.circuits.backends import resolve_backend

    backend_class = type(resolve_backend(state["paper"].backend))

    def observe_sweep(args, kwargs, result):
        recorder.count("cutting.estimate_sweep.calls")

    def observe_allocation(args, kwargs, result):
        recorder.count("qpd.allocate_shots.calls")

    recorder.patch(figure6, "build_sampling_models", "experiments.build_sampling_models")
    recorder.patch(executor.CutSamplingModel, "estimate_sweep", "cutting.estimate_sweep", observe_sweep)
    recorder.patch(executor, "allocate_shots", None, observe_allocation)
    recorder.patch(
        backend_class, "exact_distributions", "circuits.exact_distributions", recorder.observe_batch
    )
