"""Unit tests for the aggregation layer (rows, reducers, pipeline, footers)."""

from __future__ import annotations

import pytest

from repro.analysis.aggregate import (
    REDUCERS,
    apply_pipeline,
    evaluate_footers,
    group_by,
    pivot,
    reduce_values,
    resolve_field,
    rows_from_records,
)
from repro.exceptions import ReproError
from repro.runtime.records import RunRecord
from repro.runtime.spec import ScenarioSpec


def record(problem="rendezvous", family="ring", size=6, cost=10, ok=True, seed=0,
           scheduler="round_robin", extra=(), **spec_kwargs) -> RunRecord:
    """A synthetic record (no simulation involved)."""
    spec = ScenarioSpec(
        problem=problem, family=family, size=size, seed=seed, scheduler=scheduler,
        **spec_kwargs,
    )
    return RunRecord(
        spec=spec, ok=ok, cost=cost, reason="test", decisions=0,
        graph_name=f"{family}-{size}", graph_size=size, graph_edges=size, extra=extra,
    )


class TestReducers:
    def test_all_reducers(self):
        values = [4, 1, 3, 2]
        assert reduce_values("mean", values) == 2.5
        assert reduce_values("max", values) == 4
        assert reduce_values("min", values) == 1
        assert reduce_values("sum", values) == 10
        assert reduce_values("count", values) == 4
        assert reduce_values("first", values) == 4
        assert reduce_values("last", values) == 2

    def test_p95_nearest_rank(self):
        assert reduce_values("p95", list(range(1, 101))) == 95
        assert reduce_values("p95", [7]) == 7
        assert reduce_values("p95", [1, 2]) == 2

    def test_unknown_reducer_and_empty_group(self):
        with pytest.raises(ReproError, match="unknown reducer"):
            reduce_values("median", [1])
        with pytest.raises(ReproError, match="empty group"):
            reduce_values("mean", [])

    def test_registry_is_complete(self):
        assert {"mean", "max", "min", "sum", "count", "p95"} <= set(REDUCERS)


class TestRowsFromRecords:
    def test_resolution_order(self):
        rec = record(
            extra={"final_phase": 7},
            scheduler="avoider",
            scheduler_params={"patience": 64},
            team_size=3,
        )
        assert resolve_field(rec, "cost") == 10          # record attribute
        assert resolve_field(rec, "final_phase") == 7    # extra bag
        assert resolve_field(rec, "team_size") == 3      # spec field
        assert resolve_field(rec, "patience") == 64      # scheduler params
        assert resolve_field(rec, "nonexistent") is None

    def test_rename_pairs(self):
        rows = rows_from_records([record(cost=5)], ["family", ("measured", "cost")])
        assert rows == [{"family": "ring", "measured": 5}]

    def test_false_and_zero_values_survive(self):
        rows = rows_from_records([record(ok=False, cost=0)], [("met", "ok"), "cost"])
        assert rows == [{"met": False, "cost": 0}]


class TestGroupBy:
    ROWS = [
        {"family": "ring", "n": 4, "cost": 10},
        {"family": "ring", "n": 4, "cost": 30},
        {"family": "ring", "n": 6, "cost": 50},
        {"family": "path", "n": 4, "cost": 70},
    ]

    def test_mean_and_count(self):
        out = group_by(
            self.ROWS,
            ["family", "n"],
            {"mean_cost": ("mean", "cost"), "runs": ("count", None)},
        )
        assert out == [
            {"family": "ring", "n": 4, "mean_cost": 20.0, "runs": 2},
            {"family": "ring", "n": 6, "mean_cost": 50.0, "runs": 1},
            {"family": "path", "n": 4, "mean_cost": 70.0, "runs": 1},
        ]

    def test_mapping_style_aggregate(self):
        out = group_by(self.ROWS, ["family"], {"worst": {"reducer": "max", "column": "cost"}})
        assert out == [{"family": "ring", "worst": 50}, {"family": "path", "worst": 70}]


class TestPivot:
    def test_pivot_with_reducer(self):
        rows = [
            {"n": 4, "scheduler": "rr", "cost": 10},
            {"n": 4, "scheduler": "av", "cost": 20},
            {"n": 6, "scheduler": "rr", "cost": 30},
            {"n": 4, "scheduler": "rr", "cost": 50},
        ]
        out = pivot(rows, "n", "scheduler", "cost", reducer="mean")
        assert out == [
            {"n": 4, "av": 20.0, "rr": 30.0},
            {"n": 6, "av": None, "rr": 30.0},
        ]


class TestPipeline:
    def test_implicit_extract(self):
        rows = apply_pipeline([record(cost=3)], [])
        assert rows[0]["problem"] == "rendezvous" and rows[0]["cost"] == 3

    def test_derive_bit_length_item_map_const_when(self):
        records = [
            record(labels=(5, 6), scheduler="avoider", scheduler_params={"patience": 8}),
            record(labels=(16, 17)),
        ]
        pipeline = [
            {"op": "extract", "columns": ["labels", "scheduler", "patience", ["alg", "problem"]]},
            {"op": "derive", "kind": "item", "column": "label", "source": "labels", "index": 0},
            {"op": "derive", "kind": "bit_length", "column": "length", "source": "label"},
            {"op": "derive", "kind": "map", "column": "alg", "source": "alg",
             "mapping": {"rendezvous": "rv"}},
            {"op": "derive", "kind": "const", "column": "suite", "value": "podc"},
            {"op": "derive", "kind": "when", "column": "patience", "source": "patience",
             "equals": ["scheduler", "avoider"], "default": 0},
        ]
        rows = apply_pipeline(records, pipeline)
        assert [row["label"] for row in rows] == [5, 16]
        assert [row["length"] for row in rows] == [3, 5]
        assert all(row["alg"] == "rv" and row["suite"] == "podc" for row in rows)
        assert [row["patience"] for row in rows] == [8, 0]

    def test_derive_map_survives_json_stringified_keys(self):
        # A spec's ops are JSON-normalised, which stringifies mapping keys;
        # the lookup must still hit for non-string row values.
        import json

        op = json.loads(json.dumps(
            {"op": "derive", "kind": "map", "column": "size_class", "source": "n",
             "mapping": {4: "small", 6: "large"}}
        ))
        rows = apply_pipeline(
            [record(size=4), record(size=6)],
            [{"op": "extract", "columns": ["n"]}, op],
        )
        assert [row["size_class"] for row in rows] == ["small", "large"]

    def test_derive_ratio_against_baseline_row(self):
        records = [
            record(problem="rendezvous", size=4, cost=30),
            record(problem="baseline", size=4, cost=10),
            record(problem="rendezvous", size=6, cost=90),
            record(problem="baseline", size=6, cost=30),
        ]
        pipeline = [
            {"op": "extract", "columns": ["problem", "n", "cost"]},
            {"op": "derive", "kind": "ratio", "column": "vs_baseline", "source": "cost",
             "keys": ["n"], "baseline": ["problem", "baseline"]},
        ]
        rows = apply_pipeline(records, pipeline)
        assert [row["vs_baseline"] for row in rows] == [3.0, 1.0, 3.0, 1.0]

    def test_derive_fit_power_law_per_group(self):
        records = [
            record(family="ring", size=n, cost=n ** 3) for n in (2, 4, 8, 16)
        ] + [record(family="path", size=4, cost=1)]
        pipeline = [
            {"op": "extract", "columns": ["family", "n", "cost"]},
            {"op": "derive", "kind": "fit_power_law", "column": "exponent",
             "x": "n", "y": "cost", "group": ["family"]},
        ]
        rows = apply_pipeline(records, pipeline)
        ring = [row for row in rows if row["family"] == "ring"]
        assert all(abs(row["exponent"] - 3.0) < 1e-9 for row in ring)
        # Too few points in the path group: no exponent.
        assert [row["exponent"] for row in rows if row["family"] == "path"] == [None]

    def test_filter_sort_group_pivot_chain(self):
        records = [
            record(family=family, size=n, cost=cost, ok=ok)
            for family, n, cost, ok in [
                ("ring", 6, 30, True),
                ("ring", 4, 10, True),
                ("path", 4, 99, False),
                ("ring", 4, 20, True),
            ]
        ]
        pipeline = [
            {"op": "extract", "columns": ["family", "n", "cost", "ok"]},
            {"op": "filter", "where": {"ok": True}},
            {"op": "sort", "keys": ["n", "cost"]},
            {"op": "group_by", "keys": ["family", "n"],
             "aggregates": {"mean_cost": ["mean", "cost"]}},
            {"op": "pivot", "index": "family", "columns": "n", "values": "mean_cost"},
        ]
        rows = apply_pipeline(records, pipeline)
        assert rows == [{"family": "ring", "4": 15.0, "6": 30.0}]

    def test_unknown_op_and_unknown_derivation(self):
        with pytest.raises(ReproError, match="unknown pipeline op"):
            apply_pipeline([record()], [{"op": "transmogrify"}])
        # The error lists every kind, including the whole-list ones.
        with pytest.raises(ReproError, match="ratio") as error:
            apply_pipeline([record()], [{"op": "derive", "kind": "nope", "column": "x"}])
        assert "fit_power_law" in str(error.value)

    def test_pinned_bound_model_wins_over_the_default(self):
        from repro.exploration.cost_model import PaperCostModel

        records = [record(problem="rendezvous", size=4, labels=(3, 4))]
        pipeline = [
            {"op": "extract", "columns": ["problem", "n", "labels"]},
            {"op": "derive", "kind": "item", "column": "label", "source": "labels"},
            {"op": "derive", "kind": "guaranteed_bound", "column": "bound",
             "problem": "problem", "size": "n", "label": "label", "model": "paper"},
        ]
        rows = apply_pipeline(records, pipeline)
        assert rows[0]["bound"] == PaperCostModel().pi_bound(4, 2)

    def test_guaranteed_bound_defaults_to_simulation(self, sim_model):
        records = [
            record(problem="rendezvous", size=4, labels=(3, 4)),
            record(problem="baseline", size=4, labels=(3, 4)),
        ]
        pipeline = [
            {"op": "extract", "columns": ["problem", "n", "labels"]},
            {"op": "derive", "kind": "item", "column": "label", "source": "labels"},
            {"op": "derive", "kind": "guaranteed_bound", "column": "bound",
             "problem": "problem", "size": "n", "label": "label"},
        ]
        rows = apply_pipeline(records, pipeline)
        assert rows[0]["bound"] == sim_model.pi_bound(4, 2)
        assert rows[1]["bound"] == sim_model.baseline_trajectory_length(4, 3)


class TestFooters:
    ROWS = [
        {"n": n, "label": label, "poly": n * label ** 2, "expo": n * 3 ** label}
        for n in (2, 4, 8)
        for label in (1, 2, 4, 8, 16)
    ]

    def test_classify_growth_at_max(self):
        lines = evaluate_footers(
            self.ROWS,
            [{
                "kind": "classify_growth",
                "x": "label",
                "series": [["poly", "poly"], ["expo", "expo"]],
                "where": {"column": "n", "at": "max"},
                "template": "at n={where}: {growth}",
            }],
        )
        assert lines == ["at n=8: poly -> polynomial, expo -> exponential"]

    def test_power_law_at_first(self):
        lines = evaluate_footers(
            self.ROWS,
            [{
                "kind": "power_law",
                "x": "n",
                "y": "poly",
                "where": {"column": "label", "at": "first"},
                "template": "L={where}: ~ n^{slope:.1f}",
            }],
        )
        assert lines == ["L=1: ~ n^1.0"]

    def test_where_equals_and_too_few_points(self):
        lines = evaluate_footers(
            self.ROWS[:2],
            [{
                "kind": "power_law", "x": "n", "y": "poly",
                "where": {"column": "label", "equals": 1},
                "template": "never emitted",
            }],
        )
        assert lines == []  # a 1-point series declines instead of failing
