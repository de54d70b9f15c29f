"""Shot-allocation strategies for QPD sampling.

The paper's experiment allocates a fixed total shot budget to the three
subcircuits of Theorem 2 *proportionally to their coefficients*.  This module
implements that strategy (with largest-remainder rounding so the budget is
met exactly), plus two alternatives used by the ablation benchmarks:

``proportional``
    Deterministic allocation ``n_i ≈ N·|c_i|/κ`` (the paper's choice).
``multinomial``
    Every shot independently draws its term with probability ``|c_i|/κ``
    (the textbook Monte-Carlo estimator of Eq. 12).
``uniform``
    Equal split across terms regardless of coefficients (a deliberately
    sub-optimal baseline that shows why proportional weighting matters).

For the streaming adaptive engine (:mod:`repro.qpd.adaptive`) this module
additionally defines the :class:`ShotPlanner` protocol — a per-round
allocator that sees the terms' running statistics — with two
implementations: :class:`ProportionalPlanner` (the static rule applied per
round) and :class:`NeymanPlanner` (variance-aware Neyman allocation
``n_i ∝ |c_i|·σ̂_i`` with an |coefficient|-proportional prior that anchors
early rounds before any variance has been observed).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.exceptions import DecompositionError
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "allocate_shots",
    "allocate_shot_grid",
    "ALLOCATION_STRATEGIES",
    "ShotPlanner",
    "ProportionalPlanner",
    "NeymanPlanner",
    "resolve_planner",
    "PLANNER_NAMES",
]

ALLOCATION_STRATEGIES = ("proportional", "multinomial", "uniform")

#: Planner names accepted by :func:`resolve_planner` (and the adaptive engine).
PLANNER_NAMES = ("proportional", "neyman")


def _largest_remainder(weights: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Round each ``totals[r] * weights`` to integers that sum exactly to ``totals[r]``.

    Returns a ``(len(totals), len(weights))`` matrix.  Each row's leftover
    shots go to the entries with the largest fractional parts, in the order
    a per-row :func:`numpy.argsort` gives.
    """
    ideal = totals[:, np.newaxis] * weights
    floor = np.floor(ideal).astype(int)
    remainder = totals - floor.sum(axis=1)
    order = np.argsort(-(ideal - floor), axis=1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(weights.shape[0]), axis=1)
    return floor + (rank < remainder[:, np.newaxis])


def allocate_shots(
    probabilities: np.ndarray,
    shots: int,
    strategy: str = "proportional",
    seed: SeedLike = None,
) -> np.ndarray:
    """Return the number of shots assigned to each QPD term.

    Parameters
    ----------
    probabilities:
        The normalised sampling distribution ``p_i = |c_i|/κ``.
    shots:
        Total shot budget.
    strategy:
        One of :data:`ALLOCATION_STRATEGIES`.
    seed:
        Used only by the ``multinomial`` strategy.
    """
    return allocate_shot_grid(probabilities, (shots,), strategy=strategy, seed=seed)[0]


def allocate_shot_grid(
    probabilities: np.ndarray,
    shot_grid: Sequence[int],
    strategy: str = "proportional",
    seed: SeedLike = None,
) -> np.ndarray:
    """Return the shots per QPD term for every budget of ``shot_grid`` at once.

    Row ``r`` equals ``allocate_shots(probabilities, shot_grid[r], strategy,
    seed)`` bitwise.  The deterministic strategies round the whole grid in
    one vectorised pass; ``multinomial`` draws one allocation per non-zero
    budget, in grid order, from the same generator.

    Parameters
    ----------
    probabilities:
        The normalised sampling distribution ``p_i = |c_i|/κ``.
    shot_grid:
        Total shot budgets, one per row of the result.
    strategy:
        One of :data:`ALLOCATION_STRATEGIES`.
    seed:
        Used only by the ``multinomial`` strategy.

    Returns
    -------
    numpy.ndarray
        Integer matrix of shape ``(len(shot_grid), len(probabilities))``.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 1 or probabilities.size == 0:
        raise DecompositionError("probabilities must be a non-empty 1-D array")
    if np.any(probabilities < 0):
        raise DecompositionError("probabilities must be non-negative")
    total = probabilities.sum()
    if total <= 0:
        raise DecompositionError("probabilities must have positive total weight")
    probabilities = probabilities / total
    totals = np.array([int(shots) for shots in shot_grid], dtype=int)
    for shots in totals:
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")

    if strategy == "proportional":
        return _largest_remainder(probabilities, totals)
    if strategy == "multinomial":
        rng = as_generator(seed)
        matrix = np.zeros((totals.shape[0], probabilities.shape[0]), dtype=int)
        for row, shots in zip(matrix, totals):
            if shots > 0:
                row[:] = rng.multinomial(shots, probabilities)
        return matrix
    if strategy == "uniform":
        uniform = np.full(probabilities.shape[0], 1.0 / probabilities.shape[0])
        return _largest_remainder(uniform, totals)
    raise DecompositionError(
        f"unknown allocation strategy {strategy!r}; expected one of {ALLOCATION_STRATEGIES}"
    )


# ---------------------------------------------------------------------------
# Round planners for the streaming adaptive engine
# ---------------------------------------------------------------------------


def _ensure_coverage(allocation: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """Give every non-zero-coefficient term at least one shot when affordable.

    A term that never receives a shot contributes ``c_i · 0`` to the
    recombined estimate, biasing it.  When the round budget is at least the
    number of such terms, shots are moved from the most-allocated terms to
    the starved ones (deterministically, largest donors first), keeping the
    total exact.
    """
    needy = np.flatnonzero((allocation == 0) & (magnitudes > 0.0))
    if needy.size == 0 or int(allocation.sum()) < int(np.count_nonzero(magnitudes > 0.0)):
        return allocation
    allocation = allocation.copy()
    for index in needy:
        donor = int(np.argmax(allocation))
        if allocation[donor] <= 1:
            break
        allocation[donor] -= 1
        allocation[index] += 1
    return allocation


@runtime_checkable
class ShotPlanner(Protocol):
    """Protocol of per-round shot planners used by the adaptive engine.

    A planner sees the decomposition's coefficient magnitudes plus the
    terms' running statistics and splits one round's budget across the
    terms.  Implementations must return non-negative integers summing
    exactly to ``shots``.
    """

    name: str

    def plan(
        self,
        magnitudes: np.ndarray,
        counts: np.ndarray,
        variances: np.ndarray,
        shots: int,
    ) -> np.ndarray:
        """Split ``shots`` across the terms for the next round.

        Parameters
        ----------
        magnitudes:
            Coefficient magnitudes ``|c_i|`` of the terms.
        counts:
            Shots already spent per term (all zero in the first round).
        variances:
            Current per-shot variance estimate per term (sample variance of
            the observed ±1 outcomes; meaningful only where ``counts > 1``).
        shots:
            The round's total budget (non-negative).
        """
        ...


class ProportionalPlanner:
    """Static |coefficient|-proportional allocation applied to every round.

    The paper's rule, restated per round: the running statistics are
    ignored and each round splits its budget with largest-remainder
    rounding over ``|c_i|/κ``.  Useful as the adaptive engine's baseline
    (identical spending profile to the static path, but with early
    stopping).
    """

    name = "proportional"

    def plan(
        self,
        magnitudes: np.ndarray,
        counts: np.ndarray,
        variances: np.ndarray,
        shots: int,
    ) -> np.ndarray:
        """Split the round proportionally to coefficient magnitudes."""
        allocation = allocate_shots(magnitudes, int(shots), strategy="proportional")
        return _ensure_coverage(allocation, np.asarray(magnitudes, dtype=float))


class NeymanPlanner:
    """Variance-aware Neyman allocation with an |coefficient|-proportional prior.

    The estimator variance ``Σ c_i² σ_i² / n_i`` is minimised, for a fixed
    total, by ``n_i ∝ |c_i|·σ_i`` (Neyman allocation).  True σ_i are
    unknown, so each round blends the observed sample variance with a prior
    of 1.0 — the exact variance bound of a ±1-valued observable — weighted
    by ``prior_shots`` pseudo-counts.  With no data the weights reduce to
    ``|c_i|`` (the static rule); as counts grow the measured variances take
    over and low-variance terms stop receiving shots they cannot use.

    Parameters
    ----------
    prior_shots:
        Pseudo-count weight of the unit-variance prior (strictly positive).
    """

    name = "neyman"

    def __init__(self, prior_shots: float = 8.0):
        if not prior_shots > 0:
            raise DecompositionError(f"prior_shots must be positive, got {prior_shots}")
        self.prior_shots = float(prior_shots)

    def posterior_sigmas(self, counts: np.ndarray, variances: np.ndarray) -> np.ndarray:
        """Return the blended per-term standard deviations ``σ̂_i``."""
        counts = np.asarray(counts, dtype=float)
        variances = np.maximum(np.asarray(variances, dtype=float), 0.0)
        # Terms with fewer than two observations carry no usable sample
        # variance; they stay fully on the prior.
        observed = np.where(counts > 1, counts, 0.0)
        blended = (observed * variances + self.prior_shots * 1.0) / (observed + self.prior_shots)
        return np.sqrt(blended)

    def plan(
        self,
        magnitudes: np.ndarray,
        counts: np.ndarray,
        variances: np.ndarray,
        shots: int,
    ) -> np.ndarray:
        """Split the round by ``|c_i|·σ̂_i`` with largest-remainder rounding."""
        magnitudes = np.asarray(magnitudes, dtype=float)
        weights = magnitudes * self.posterior_sigmas(counts, variances)
        if not np.any(weights > 0.0):
            weights = magnitudes
        allocation = allocate_shots(weights, int(shots), strategy="proportional")
        return _ensure_coverage(allocation, magnitudes)


def resolve_planner(planner: "ShotPlanner | str | None") -> "ShotPlanner":
    """Return a planner instance for a name, an instance, or ``None`` (Neyman).

    ``None`` resolves to :class:`NeymanPlanner` (the adaptive engine's
    default); instances pass through unchanged.
    """
    if planner is None:
        return NeymanPlanner()
    if not isinstance(planner, str):
        return planner
    name = planner.lower().replace("_", "-").replace("-", "")
    if name == "proportional":
        return ProportionalPlanner()
    if name == "neyman":
        return NeymanPlanner()
    raise DecompositionError(
        f"unknown shot planner {planner!r}; expected one of {PLANNER_NAMES}"
    )
