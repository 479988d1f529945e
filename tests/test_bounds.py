"""Tests of the analytic bound comparisons (core.bounds)."""

from __future__ import annotations

import pytest

from repro.core.bounds import BoundComparison, compare_bounds, growth_exponent_estimate
from repro.exploration.cost_model import PaperCostModel, SimulationCostModel


class TestCompareBounds:
    def test_grid_is_complete(self):
        comparisons = compare_bounds([2, 4], [1, 3], model=SimulationCostModel())
        assert len(comparisons) == 4
        assert {(c.n, c.label) for c in comparisons} == {(2, 1), (2, 3), (4, 1), (4, 3)}

    def test_bounds_are_positive_and_typed(self):
        comparisons = compare_bounds([3], [2], model=SimulationCostModel())
        comparison = comparisons[0]
        assert isinstance(comparison, BoundComparison)
        assert comparison.rv_bound > 0 and comparison.baseline_bound > 0
        assert comparison.label_length == 2

    def test_default_model_is_the_paper_model(self):
        comparisons = compare_bounds([2], [1])
        paper = PaperCostModel()
        assert comparisons[0].rv_bound == paper.pi_bound(2, 1)

    def test_rv_bound_depends_only_on_label_length(self):
        """Π depends on |L|, not on L: labels 4..7 share the same guarantee."""
        comparisons = compare_bounds([3], [4, 5, 6, 7], model=SimulationCostModel())
        assert len({c.rv_bound for c in comparisons}) == 1

    def test_baseline_bound_explodes_with_the_label(self):
        comparisons = compare_bounds([3], [1, 2, 4, 8, 16], model=SimulationCostModel())
        baseline = [c.baseline_bound for c in comparisons]
        assert baseline == sorted(baseline)
        assert baseline[-1] > baseline[0] ** 4

    def test_for_large_labels_the_polynomial_bound_wins(self):
        """The crossover of Theorem 3.1: for long labels Π is (much) smaller."""
        model = SimulationCostModel()
        comparisons = compare_bounds([4], [256], model=model)
        assert comparisons[0].baseline_bound > comparisons[0].rv_bound


class TestGrowthExponent:
    def test_recovers_polynomial_degree(self):
        xs = [2, 4, 8, 16, 32]
        ys = [x**3 for x in xs]
        assert growth_exponent_estimate(xs, ys) == pytest.approx(3.0)

    def test_exponential_data_gives_growing_estimate(self):
        xs = [2, 4, 8, 16]
        ys = [2**x for x in xs]
        estimate = growth_exponent_estimate(xs, ys)
        assert estimate > 3  # far above any fixed small degree on this range

    def test_validation(self):
        with pytest.raises(ValueError):
            growth_exponent_estimate([1], [1])
        with pytest.raises(ValueError):
            growth_exponent_estimate([1, 2], [1])
        with pytest.raises(ValueError):
            growth_exponent_estimate([3, 3, 3], [1, 2, 3])
