"""Tests of cross-run trace analytics: components, diffs, rollups, top."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs.analytics import (
    format_rollup,
    format_trace_diff,
    format_trace_top,
    load_traces,
    rollup,
    span_components,
    span_parent,
    trace_diff,
    trace_of,
    trace_top,
)
from repro.runtime import ScenarioSpec
from repro.runtime.runner import run
from repro.store import FileStore, MemoryStore


def _trace(spans):
    """A trace payload with the given {name: seconds} spans."""
    return {"spans": {name: {"seconds": s} for name, s in spans.items()}}


#: A realistic shape: run > engine.run > {bootstrap, decide, apply > ...}.
NESTED = _trace(
    {
        "run": 10.0,
        "engine.run": 8.0,
        "engine.bootstrap": 1.0,
        "scheduler.decide": 2.0,
        "engine.apply": 4.0,
        "engine.apply.sweep": 3.0,
        "engine.apply.index": 0.5,
    }
)


class TestSpanTree:
    def test_explicit_hierarchy_wins(self):
        present = NESTED["spans"]
        assert span_parent("engine.run", present) == "run"
        assert span_parent("engine.apply", present) == "engine.run"
        assert span_parent("engine.apply.sweep", present) == "engine.apply"
        assert span_parent("run", present) is None

    def test_dotted_prefix_fallback_then_root(self):
        present = {"run", "custom", "custom.inner"}
        assert span_parent("custom.inner", present) == "custom"
        assert span_parent("custom", present) == "run"
        assert span_parent("orphan", {"orphan"}) is None

    def test_components_partition_the_root_exactly(self):
        components = span_components(NESTED)
        # Leaves carry their seconds; internal spans their (self) residual.
        assert components["engine.bootstrap"] == 1.0
        assert components["engine.apply.sweep"] == 3.0
        assert components["engine.apply (self)"] == pytest.approx(0.5)
        assert components["engine.run (self)"] == pytest.approx(1.0)
        assert components["run (self)"] == pytest.approx(2.0)
        assert sum(components.values()) == pytest.approx(10.0)

    def test_negative_residuals_are_clamped(self):
        trace = _trace({"run": 1.0, "engine.run": 1.2})  # jittered child
        components = span_components(trace)
        assert components["run (self)"] == 0.0

    def test_rootless_trace_becomes_a_forest(self):
        trace = _trace({"engine.run": 2.0, "io": 1.0})
        components = span_components(trace)
        assert components == {"engine.run": 2.0, "io": 1.0}
        assert span_components({"spans": {}}) == {}


class TestTraceDiff:
    def test_attribution_is_complete_by_construction(self):
        slower = _trace(
            {
                "run": 14.0,
                "engine.run": 12.0,
                "engine.bootstrap": 1.0,
                "scheduler.decide": 2.0,
                "engine.apply": 8.0,
                "engine.apply.sweep": 7.0,
                "engine.apply.index": 0.5,
            }
        )
        diff = trace_diff(NESTED, slower)
        assert diff["delta"] == pytest.approx(4.0)
        # Acceptance: >= 90% of the wall-time delta lands on named spans.
        assert diff["attribution"] >= 0.9
        top = diff["components"][0]
        assert top["span"] == "engine.apply.sweep"
        assert top["delta"] == pytest.approx(4.0)
        assert top["share"] == pytest.approx(1.0)

    def test_zero_delta_is_not_a_division(self):
        diff = trace_diff(NESTED, NESTED)
        assert diff["delta"] == 0.0 and diff["attribution"] == 1.0
        rendered = format_trace_diff(diff)
        assert "run" in rendered and "100.0% attributed" in rendered

    def test_format_respects_limit(self):
        slower = _trace({"run": 12.0, "engine.run": 11.0})
        rendered = format_trace_diff(trace_diff(NESTED, slower), limit=2)
        body = [line for line in rendered.splitlines() if line and "->" not in line]
        assert len(body) == 4  # header + rule + 2 rows

    def test_diff_on_real_engine_traces(self):
        """Two genuinely traced runs: the diff attributes the measured delta."""
        records = [run(ScenarioSpec(size=size), trace=True) for size in (4, 16)]
        traces = [trace_of(record) for record in records]
        assert all(trace is not None for trace in traces)
        diff = trace_diff(*traces)
        assert abs(diff["attribution"] - 1.0) < 0.1


class TestRollup:
    def _store(self):
        store = MemoryStore()
        for size in (4, 4, 6):
            store.put(run(ScenarioSpec(size=size, seed=size), trace=True))
        return store

    def test_groups_by_problem_family_n(self):
        store = self._store()
        traced = load_traces(store)
        assert len(traced) == 2  # same spec twice dedups in the store
        rows = rollup(traced)
        assert [row["group"]["n"] for row in rows] == [4, 6]
        for row in rows:
            assert row["runs"] == 1
            assert row["seconds_mean"] > 0
            assert "engine.run" in row["spans"]
            assert row["outliers"] == []

    def test_outliers_flagged_against_the_group_median(self):
        traced = [
            ("k1", None, _trace({"run": 1.0})),
            ("k2", None, _trace({"run": 1.1})),
            ("k3", None, _trace({"run": 0.9})),
            ("k4", None, _trace({"run": 50.0})),
        ]
        rows = rollup(traced, group_by=())
        assert rows[0]["outliers"] == ["k4"]

    def test_events_dropped_totalled(self):
        traced = [
            ("k1", None, {**_trace({"run": 1.0}), "events_dropped": 3}),
            ("k2", None, {**_trace({"run": 1.0}), "events_dropped": 2}),
        ]
        rows = rollup(traced, group_by=())
        assert rows[0]["events_dropped"] == 5
        rendered = format_rollup(rows)
        assert "5 events dropped" in rendered

    def test_untraced_records_are_skipped(self):
        store = MemoryStore()
        store.put(run(ScenarioSpec(size=4)))
        assert load_traces(store) == []
        assert trace_of(run(ScenarioSpec(size=4))) is None


class TestTraceTop:
    def test_aggregates_components_without_double_counting(self):
        traced = [("k1", None, NESTED), ("k2", None, NESTED)]
        top = trace_top(traced)
        assert top["runs"] == 2
        assert top["total_seconds"] == pytest.approx(20.0)
        spans = {row["span"]: row for row in top["spans"]}
        # Components, not raw spans: engine.apply appears only as (self).
        assert "engine.apply" not in spans
        assert spans["engine.apply.sweep"]["seconds"] == pytest.approx(6.0)
        assert sum(row["seconds"] for row in top["spans"]) == pytest.approx(20.0)
        assert sum(row["share"] for row in top["spans"]) == pytest.approx(1.0)
        rendered = format_trace_top(top)
        assert "2 traced run(s)" in rendered

    def test_limit_keeps_the_heaviest(self):
        top = trace_top([("k", None, NESTED)], limit=1)
        assert [row["span"] for row in top["spans"]] == ["engine.apply.sweep"]


class TestTraceCli:
    def _traced_store(self, tmp_path) -> str:
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "--set", "sizes=[4,6]", "--quiet",
                     "--trace", "--store", store_dir]) == 0
        return store_dir

    def test_trace_top_renders_the_store(self, tmp_path, capsys):
        store_dir = self._traced_store(tmp_path)
        capsys.readouterr()
        assert main(["trace", "top", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "traced run(s)" in out and "% of total" in out

    def test_trace_top_on_untraced_store_fails_cleanly(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "--set", "sizes=[4]", "--quiet",
                     "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["trace", "top", "--store", store_dir]) == 1
        assert "no traced records" in capsys.readouterr().out

    def test_trace_diff_accepts_key_prefixes(self, tmp_path, capsys):
        store_dir = self._traced_store(tmp_path)
        with FileStore(store_dir, create=False) as store:
            keys = sorted(store.keys())
        capsys.readouterr()
        assert main(["trace", "diff", keys[0][:12], keys[1][:12],
                     "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "% of delta" in out and "attributed" in out

    def test_trace_diff_rejects_unknown_and_ambiguous_keys(self, tmp_path, capsys):
        store_dir = self._traced_store(tmp_path)
        with FileStore(store_dir, create=False) as store:
            keys = sorted(store.keys())
        shared = ""  # the longest common prefix is ambiguous by construction
        for a, b in zip(*keys[:2]):
            if a != b:
                break
            shared += a
        capsys.readouterr()
        assert main(["trace", "diff", "ffff", keys[0][:12],
                     "--store", store_dir]) == 2
        assert "no stored record" in capsys.readouterr().err
        if shared:
            assert main(["trace", "diff", shared, keys[1][:12],
                         "--store", store_dir]) == 2
            assert "ambiguous" in capsys.readouterr().err

    def test_trace_diff_requires_traced_records(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "--set", "sizes=[4,6]", "--quiet",
                     "--store", store_dir]) == 0
        with FileStore(store_dir, create=False) as store:
            keys = sorted(store.keys())
        capsys.readouterr()
        assert main(["trace", "diff", keys[0], keys[1],
                     "--store", store_dir]) == 2
        assert "no trace" in capsys.readouterr().err
