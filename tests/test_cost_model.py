"""Tests of the cost model: trajectory lengths, bounds, budgets."""

from __future__ import annotations

import sys

import pytest

from repro.exceptions import ExplorationError
from repro.exploration.cost_model import (
    PaperCostModel,
    SimulationCostModel,
    default_cost_model,
)
from repro.core.labels import modified_label


class TestLengthRecurrences:
    """The closed forms must satisfy the defining recurrences exactly."""

    @pytest.fixture(scope="class")
    def model(self):
        return SimulationCostModel()

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_x_is_twice_r(self, model, k):
        assert model.len_X(k) == 2 * model.P(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_q_is_sum_of_x(self, model, k):
        assert model.len_Q(k) == sum(model.len_X(i) for i in range(1, k + 1))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_y_prime_counts_trunk_and_insertions(self, model, k):
        expected = (model.P(k) + 1) * model.len_Q(k) + model.P(k)
        assert model.len_Y_prime(k) == expected

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_y_is_twice_y_prime(self, model, k):
        assert model.len_Y(k) == 2 * model.len_Y_prime(k)

    @pytest.mark.parametrize("k", [1, 3])
    def test_z_is_sum_of_y(self, model, k):
        assert model.len_Z(k) == sum(model.len_Y(i) for i in range(1, k + 1))

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_prime_counts_trunk_and_insertions(self, model, k):
        expected = (model.P(k) + 1) * model.len_Z(k) + model.P(k)
        assert model.len_A_prime(k) == expected

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_is_twice_a_prime(self, model, k):
        assert model.len_A(k) == 2 * model.len_A_prime(k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_b_definition(self, model, k):
        assert model.repetitions_B(k) == 2 * model.len_A(4 * k)
        assert model.len_B(k) == model.repetitions_B(k) * model.len_Y(k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_k_definition(self, model, k):
        assert model.repetitions_K(k) == 2 * (model.len_B(4 * k) + model.len_A(8 * k))
        assert model.len_K(k) == model.repetitions_K(k) * model.len_X(k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_omega_definition(self, model, k):
        assert model.repetitions_Omega(k) == (2 * k - 1) * model.len_K(k)
        assert model.len_Omega(k) == model.repetitions_Omega(k) * model.len_X(k)

    def test_lengths_are_monotone_in_k(self, model):
        for length in (model.len_X, model.len_Q, model.len_Y, model.len_Z, model.len_A):
            values = [length(k) for k in range(1, 6)]
            assert values == sorted(values)
            assert all(v > 0 for v in values)

    def test_caching_returns_same_value(self, model):
        assert model.len_A(3) == model.len_A(3)
        assert model.len_Omega(2) == model.len_Omega(2)


class TestRunningSumTables:
    """``len_Q`` / ``len_Z`` are filled as prefix sums; answers must not show it."""

    @pytest.mark.parametrize("make", [SimulationCostModel, PaperCostModel])
    def test_prefix_sums_equal_naive_sums(self, make):
        model = make()
        for k in range(1, 301):
            assert model.len_Q(k) == sum(model.len_X(i) for i in range(1, k + 1))
            assert model.len_Z(k) == sum(model.len_Y(i) for i in range(1, k + 1))

    @pytest.mark.parametrize("make", [SimulationCostModel, PaperCostModel])
    def test_answers_do_not_depend_on_query_order(self, make):
        model = make()
        for k in (120, 10, 300):
            assert model.len_Z(k) == make().len_Z(k)
            assert model.len_Q(k) == make().len_Q(k)

    def test_non_positive_k_is_the_empty_sum(self):
        model = SimulationCostModel()
        model.len_Z(5)
        assert model.len_Q(0) == model.len_Z(0) == 0

    def test_tables_need_no_deep_recursion(self):
        # Π(64, 8) has N = 165 pieces, so the tables reach k = 16 N = 2640.
        # A fresh model asked for that k directly would recurse 2640 deep
        # if the sums were ``len_Q(k - 1) + len_X(k)``.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            bound = PaperCostModel().pi_bound(64, 8)
            deep_q = PaperCostModel().len_Q(2640)
            deep_z = PaperCostModel().len_Z(2640)
        finally:
            sys.setrecursionlimit(limit)
        assert bound > PaperCostModel().pi_bound(32, 8) > 0
        assert deep_q == 2 * sum(i**3 for i in range(1, 2641))
        assert deep_z > deep_q


class TestAlgorithmStructureLengths:
    @pytest.fixture(scope="class")
    def model(self):
        return SimulationCostModel()

    def test_segment_length_by_bit(self, model):
        assert model.segment_length(2, 1) == 2 * model.len_B(4)
        assert model.segment_length(2, 0) == 2 * model.len_A(8)
        with pytest.raises(ExplorationError):
            model.segment_length(2, 2)

    def test_piece_length_small_cases(self, model):
        bits = modified_label(1)  # (1, 1, 0, 1)
        # Piece 1 processes only bit 1 (min(k, s) = 1): one segment, no border.
        assert model.piece_length(1, bits) == model.segment_length(1, bits[0])
        # Piece 2 processes bits 1..2 with one border in between.
        expected = (
            model.segment_length(2, bits[0])
            + model.len_K(2)
            + model.segment_length(2, bits[1])
        )
        assert model.piece_length(2, bits) == expected

    def test_piece_length_saturates_at_label_length(self, model):
        bits = modified_label(1)
        s = len(bits)
        # For k >= s the piece processes exactly s bits.
        per_piece_segments = s
        length = model.piece_length(s + 3, bits)
        minimum = per_piece_segments * min(
            model.segment_length(s + 3, 0), model.segment_length(s + 3, 1)
        )
        assert length >= minimum


class TestBounds:
    def test_modified_label_length(self):
        model = SimulationCostModel()
        assert model.modified_label_length(3) == 8
        with pytest.raises(ExplorationError):
            model.modified_label_length(0)

    def test_final_piece_index(self):
        model = SimulationCostModel()
        # l = 2m + 2, N = 2(n + l) + 1.
        assert model.final_piece_index(4, 3) == 2 * (4 + 8) + 1

    def test_pi_bound_positive_and_monotone(self):
        model = PaperCostModel()
        values_n = [model.pi_bound(n, 2) for n in (2, 3, 4)]
        assert values_n == sorted(values_n) and values_n[0] > 0
        values_m = [model.pi_bound(3, m) for m in (1, 2, 3)]
        assert values_m == sorted(values_m)

    def test_pi_bound_rejects_bad_size(self):
        with pytest.raises(ExplorationError):
            PaperCostModel().pi_bound(0, 1)

    def test_esst_bound(self):
        model = SimulationCostModel()
        bound = model.esst_bound(3)
        assert bound > 0
        assert model.esst_bound(4) > bound
        with pytest.raises(ExplorationError):
            model.esst_bound(0)

    def test_esst_phase_cost_validation(self):
        model = SimulationCostModel()
        assert model.esst_phase_cost(3) > 0
        with pytest.raises(ExplorationError):
            model.esst_phase_cost(4)
        with pytest.raises(ExplorationError):
            model.esst_phase_cost(2)

    def test_baseline_lengths_are_exponential_in_label(self):
        model = SimulationCostModel()
        n = 4
        lengths = [model.baseline_trajectory_length(n, label) for label in (1, 2, 3)]
        base = 2 * model.P(n) + 1
        assert lengths[1] / lengths[0] == pytest.approx(base)
        assert lengths[2] / lengths[1] == pytest.approx(base)
        assert model.baseline_repetitions(n, 2) == base**2
        with pytest.raises(ExplorationError):
            model.baseline_trajectory_length(n, 0)

    def test_rendezvous_budget_paper_vs_simulation(self):
        paper = PaperCostModel()
        sim = SimulationCostModel()
        assert paper.rendezvous_budget(3, 2) == paper.pi_bound(3, 2)
        assert sim.rendezvous_budget(3, 2) < paper.pi_bound(3, 2)
        assert sim.rendezvous_budget(3, 2) > 0
        with pytest.raises(ExplorationError):
            sim.rendezvous_budget(0, 2)

    def test_default_cost_model_is_simulation(self):
        assert isinstance(default_cost_model(), SimulationCostModel)

    def test_model_names(self):
        assert "simulation" in SimulationCostModel().name
        assert "paper" in PaperCostModel().name
