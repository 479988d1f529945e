"""Tests of the registered experiments (E1–E6, F1).

The golden files under ``tests/golden/`` were generated by the seed
repository's hand-rolled experiment drivers; every registered experiment's
markdown rendering must stay **byte-identical** to them.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiment_spec import (
    EXPERIMENTS,
    experiment_spec,
    run_experiment,
)
from repro.analysis.fitting import fit_power_law
from repro.exceptions import ReproError
from repro.exploration.cost_model import PaperCostModel

from .helpers import golden


class TestExperimentRegistry:
    def test_every_table_is_registered(self):
        assert {"E1", "E2", "E3", "E4", "E5", "E6", "F1", "bounds"} <= set(
            EXPERIMENTS.names()
        )

    def test_lookup_is_case_insensitive(self):
        assert experiment_spec("e3") == experiment_spec("E3")

    def test_unknown_experiment_fails_with_the_registry_error(self):
        with pytest.raises(ReproError, match="available"):
            experiment_spec("E99")

    def test_bounds_is_an_alias_of_e3(self):
        assert experiment_spec("bounds") == experiment_spec("E3")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ReproError, match="unknown algorithm"):
            experiment_spec("E1", algorithms=("quantum",))

    def test_unknown_scheduler_fails_at_validation_with_registry_names(self):
        spec = experiment_spec("E1", sizes=(4,), schedulers=("chaotic",))
        with pytest.raises(ReproError, match="available"):
            run_experiment(spec)


def run(name, **params):
    return run_experiment(experiment_spec(name, **params))


class TestGoldenTables:
    """Markdown output is byte-identical to the seed drivers' tables."""

    def test_f1(self):
        assert run("F1").render() == golden("f1")

    def test_e1(self):
        result = run(
            "E1",
            sizes=(4, 6),
            families=("ring",),
            schedulers=("round_robin",),
            max_traversals=300_000,
        )
        assert result.render() == golden("e1_quick")

    def test_e2(self):
        result = run("E2", small_labels=(1, 2), n=5, max_traversals=300_000)
        assert result.render() == golden("e2_quick")

    def test_e3_quick(self):
        result = run("E3", sizes=(2, 4, 8), labels=(1, 2, 4, 8, 16))
        assert result.render() == golden("e3_quick")

    def test_e3_full_defaults(self):
        assert run("E3").render() == golden("e3_full")

    def test_e4(self):
        result = run("E4", sizes=(4,), families=("ring", "path"))
        assert result.render() == golden("e4_quick")

    def test_e5(self):
        result = run(
            "E5",
            family="ring",
            n=6,
            patiences=(4, 16),
            max_traversals=300_000,
        )
        assert result.render() == golden("e5_quick")

    @pytest.mark.sgl
    def test_e6(self):
        result = run("E6", sizes=(4,), team_sizes=(2,), max_traversals=4_000_000)
        assert result.render() == golden("e6_quick")


class TestCompatWrappers:
    """The paper's claims, checked on each experiment's aggregated rows.

    (The class name predates the spec API; it is kept so the test ids
    stay stable across the port.)
    """

    def test_f1_covers_all_four_figures(self):
        result = run("F1", ks=(1, 2))
        figures = {row["figure"] for row in result.rows}
        assert figures == {"Figure 1", "Figure 2", "Figure 3", "Figure 4"}
        assert len(result.rows) == 4 * 2
        assert all(row["length"] > 0 for row in result.rows)
        table = result.render()
        assert "trunk nodes" in table and "Figure 3" in table

    def test_e1_rows(self):
        rows = run(
            "E1",
            sizes=(4, 6),
            families=("ring",),
            schedulers=("round_robin",),
            max_traversals=300_000,
        ).rows
        assert len(rows) == 4
        assert all(row["met"] for row in rows)
        assert {row["algorithm"] for row in rows} == {"rv_asynch_poly", "baseline"}

    def test_e2_guarantees_behave_as_the_paper_says(self):
        rows = run("E2", small_labels=(1, 2), n=5, max_traversals=300_000).rows
        assert len(rows) == 4
        rv = [row for row in rows if row["algorithm"] == "rv_asynch_poly"]
        baseline = [row for row in rows if row["algorithm"] == "baseline"]
        assert all(row["met"] for row in rows)
        # The baseline's bound grows with the label value, the RV bound only
        # with the label length.
        assert baseline[1]["guaranteed_bound"] > baseline[0]["guaranteed_bound"]
        assert rv[0]["guaranteed_bound"] <= rv[1]["guaranteed_bound"]

    def test_e3_classifications(self):
        result = run("E3", sizes=(2, 4, 8), labels=(1, 2, 4, 8, 16))
        assert len(result.rows) == 15
        table = result.render()
        assert "polynomial" in table and "exponential" in table
        # The degree of P(k) carries over into the degree of Pi(n, 2) in n.
        sizes = (4, 8, 16, 32)
        degrees = []
        for exponent in (1, 2, 3):
            model = PaperCostModel(length_coefficient=1, length_exponent=exponent)
            fit = fit_power_law(sizes, [model.pi_bound(n, 2) for n in sizes])
            degrees.append(fit.slope)
        assert degrees == sorted(degrees) and degrees[0] < degrees[-1]

    def test_e4_phases_within_bound(self):
        rows = run("E4", sizes=(4,), families=("ring", "path")).rows
        assert len(rows) == 2
        assert all(row["all_edges_traversed"] for row in rows)
        assert all(row["final_phase"] <= row["phase_bound"] for row in rows)

    def test_e5_patience_sweep(self):
        for family, seed in (("ring", 0), ("erdos_renyi", 3)):
            rows = run(
                "E5",
                family=family,
                n=6,
                patiences=(4, 16),
                max_traversals=300_000,
                seed=seed,
            ).rows
            schedulers = [row["scheduler"] for row in rows]
            assert schedulers.count("avoider") == 2
            assert all(row["met"] for row in rows)
            # The patience column shows 0 for the adversaries without the knob.
            assert [row["patience"] for row in rows] == [0, 0, 0, 0, 4, 16]
