"""Property tests for largest-remainder shot apportionment.

The job scheduler's bitwise-determinism guarantee leans on the allocator:
if ``allocate_shots`` ever broke ties differently between two identical
calls, concurrent and serial submissions of the same job would diverge.
These properties pin down the deterministic largest-remainder contract —
exact budget totals and reproducible tie-breaking — including the
weight-tie cases a naive "sort by remainder" implementation gets wrong.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qpd.allocation import allocate_shot_grid, allocate_shots

SETTINGS = settings(max_examples=120, deadline=None)


def weights_with_zeros():
    """Tied weight vectors that may contain zero-weight terms (never all zero).

    Up to 40 entries: above 16, NumPy's argsort leaves insertion sort, so
    the order of tied remainders depends on the sort actually used.
    """
    return (
        st.lists(st.sampled_from([0.0, 0.125, 0.25, 1.0, 2.0]), min_size=1, max_size=40)
        .filter(lambda values: any(values))
        .map(np.array)
    )


def shot_grids():
    """Grids mixing 0, 1, budgets below the number of terms and large budgets."""
    return st.lists(
        st.one_of(st.sampled_from([0, 1, 2, 3, 5, 7, 11]), st.integers(0, 50_000)),
        min_size=0,
        max_size=12,
    )


def scalar_largest_remainder(weights, shots, strategy):
    """The one-budget rounding the grid pass replaced, kept as its oracle."""
    probabilities = weights / weights.sum()
    if strategy == "uniform":
        probabilities = np.full(weights.size, 1.0 / weights.size)
    if shots == 0:
        return np.zeros(weights.size, dtype=int)
    ideal = probabilities * shots
    floor = np.floor(ideal).astype(int)
    remainder = shots - int(floor.sum())
    if remainder > 0:
        order = np.argsort(-(ideal - floor))
        floor[order[:remainder]] += 1
    return floor


def tied_weight_arrays():
    """Weight vectors built from a small value pool, so ties are common."""
    return st.lists(
        st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=12
    ).map(np.array)


class TestLargestRemainderProperties:
    @SETTINGS
    @given(weights=tied_weight_arrays(), shots=st.integers(min_value=0, max_value=50_000))
    def test_sums_exactly_to_budget_under_ties(self, weights, shots):
        allocation = allocate_shots(weights, shots, strategy="proportional")
        assert int(allocation.sum()) == shots
        assert np.all(allocation >= 0)

    @SETTINGS
    @given(weights=tied_weight_arrays(), shots=st.integers(min_value=0, max_value=50_000))
    def test_deterministic_under_ties(self, weights, shots):
        first = allocate_shots(weights, shots, strategy="proportional")
        second = allocate_shots(weights.copy(), shots, strategy="proportional")
        assert np.array_equal(first, second)

    @SETTINGS
    @given(
        weights=st.lists(
            st.floats(min_value=1e-6, max_value=100.0, allow_nan=False), min_size=1, max_size=12
        ).map(np.array),
        shots=st.integers(min_value=0, max_value=50_000),
    )
    def test_sums_exactly_for_arbitrary_weights(self, weights, shots):
        allocation = allocate_shots(weights, shots, strategy="proportional")
        assert int(allocation.sum()) == shots

    @SETTINGS
    @given(weights=tied_weight_arrays(), shots=st.integers(min_value=0, max_value=50_000))
    def test_off_by_at_most_one_from_ideal(self, weights, shots):
        # Largest-remainder apportionment never misses the ideal real-valued
        # share by a full shot in either direction.
        probabilities = weights / weights.sum()
        allocation = allocate_shots(weights, shots, strategy="proportional")
        ideal = probabilities * shots
        assert np.all(allocation >= np.floor(ideal) - 0)
        assert np.all(allocation <= np.ceil(ideal) + 0)

    @SETTINGS
    @given(
        size=st.integers(min_value=1, max_value=16),
        shots=st.integers(min_value=0, max_value=10_000),
    )
    def test_all_equal_weights_split_evenly(self, size, shots):
        allocation = allocate_shots(np.ones(size), shots, strategy="proportional")
        assert int(allocation.sum()) == shots
        assert allocation.max() - allocation.min() <= 1


class TestShotGridProperties:
    @SETTINGS
    @given(
        weights=weights_with_zeros(),
        grid=shot_grids(),
        strategy=st.sampled_from(["proportional", "uniform"]),
    )
    def test_grid_equals_stacked_per_budget_allocations(self, weights, grid, strategy):
        matrix = allocate_shot_grid(weights, grid, strategy=strategy)
        assert matrix.shape == (len(grid), weights.size)
        assert matrix.dtype == allocate_shots(weights, 1, strategy=strategy).dtype
        for row, shots in zip(matrix, grid):
            assert np.array_equal(row, allocate_shots(weights, shots, strategy=strategy))
            assert np.array_equal(row, scalar_largest_remainder(weights, shots, strategy))

    @SETTINGS
    @given(weights=weights_with_zeros(), grid=shot_grids(), seed=st.integers(0, 2**32 - 1))
    def test_multinomial_grid_draws_per_budget_in_order(self, weights, grid, seed):
        matrix = allocate_shot_grid(weights, grid, strategy="multinomial", seed=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        expected = [allocate_shots(weights, shots, strategy="multinomial", seed=rng) for shots in grid]
        assert matrix.shape == (len(grid), weights.size)
        for row, want in zip(matrix, expected):
            assert np.array_equal(row, want)

    @SETTINGS
    @given(weights=weights_with_zeros(), grid=shot_grids())
    def test_zero_weight_terms_get_no_proportional_shots(self, weights, grid):
        matrix = allocate_shot_grid(weights, grid, strategy="proportional")
        assert np.all(matrix[:, weights == 0.0] == 0)
        assert np.array_equal(matrix.sum(axis=1), np.array(grid, dtype=int))
