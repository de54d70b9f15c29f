"""Unit tests for the shots-to-target-accuracy experiment."""

import pytest

from repro.circuits.backends import VectorizedBackend
from repro.exceptions import ExperimentError
from repro.experiments import table_to_payload
from repro.experiments.shots_to_target import ShotsToTargetConfig, shots_to_target_error


class TestConfig:
    def test_defaults_valid(self):
        ShotsToTargetConfig().validate()

    def test_invalid_target(self):
        with pytest.raises(ExperimentError):
            ShotsToTargetConfig(target_error=0.0).validate()

    def test_budgets_must_increase(self):
        with pytest.raises(ExperimentError):
            ShotsToTargetConfig(candidate_budgets=(400, 100)).validate()

    def test_invalid_overlap(self):
        with pytest.raises(ExperimentError):
            ShotsToTargetConfig(overlaps=(0.3,)).validate()

    def test_invalid_num_states(self):
        with pytest.raises(ExperimentError):
            ShotsToTargetConfig(num_states=0).validate()


class TestRun:
    @pytest.fixture(scope="class")
    def table(self):
        config = ShotsToTargetConfig(
            target_error=0.08,
            overlaps=(0.5, 1.0),
            num_states=12,
            candidate_budgets=(100, 400, 1600, 6400),
            seed=5,
        )
        return shots_to_target_error(config)

    def test_structure(self, table):
        assert table.num_rows == 2
        assert set(table.columns) == {
            "overlap_f",
            "kappa",
            "shots_needed",
            "measured_error",
            "relative_shots_predicted",
        }

    def test_targets_reached(self, table):
        assert all(s > 0 for s in table.columns["shots_needed"])
        assert all(e <= 0.08 for e in table.columns["measured_error"])

    def test_entanglement_needs_fewer_shots(self, table):
        shots = dict(zip(table.columns["overlap_f"], table.columns["shots_needed"]))
        assert shots[0.5] >= shots[1.0]

    def test_predicted_ratio_is_kappa_squared(self, table):
        predicted = dict(zip(table.columns["overlap_f"], table.columns["relative_shots_predicted"]))
        assert predicted[1.0] == pytest.approx(1.0)
        assert predicted[0.5] == pytest.approx(9.0)

    def test_repeated_run_is_bitwise_identical_without_term_circuits(self, monkeypatch):
        config = ShotsToTargetConfig(
            target_error=0.08,
            overlaps=(0.5,),
            num_states=6,
            candidate_budgets=(100, 400, 1600, 6400),
            seed=5,
        )
        submitted = []
        exact_distributions = VectorizedBackend.exact_distributions

        def spy(backend, circuits):
            submitted.extend(circuit.name for circuit in circuits)
            return exact_distributions(backend, circuits)

        monkeypatch.setattr(VectorizedBackend, "exact_distributions", spy)
        first = shots_to_target_error(config)
        again = shots_to_target_error(config)
        assert first.columns["shots_needed"][0] > 0
        assert table_to_payload(first) == table_to_payload(again)
        # Only the protocol's probe circuits reach the backend; no term
        # circuit of a workload state ("W|0>") is built or simulated.
        assert submitted
        assert not [name for name in submitted if name.startswith("W|0>")]

    def test_unreachable_target_reports_minus_one(self):
        config = ShotsToTargetConfig(
            target_error=0.0001,
            overlaps=(0.5,),
            num_states=5,
            candidate_budgets=(50, 100),
            seed=1,
        )
        table = shots_to_target_error(config)
        assert table.columns["shots_needed"][0] == -1
