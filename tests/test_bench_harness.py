"""Tests of the benchmark harness's machine-readable metrics history."""

from __future__ import annotations

import json

import pytest

from benchmarks import _harness


@pytest.fixture()
def results_file(tmp_path, monkeypatch):
    monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(_harness, "BENCH_RESULTS", tmp_path / "BENCH_results.json")
    monkeypatch.setitem(_harness._SESSION, "stamp", None)
    return tmp_path / "BENCH_results.json"


class TestRecordBench:
    def test_writes_history_and_latest(self, results_file):
        _harness.record_bench("bench_a", 2.0, cells=10)
        _harness.record_bench("bench_b", 0.5)
        _harness.record_bench("bench_a", 4.0, cells=10)  # same-session re-run updates

        results = json.loads(results_file.read_text())
        assert len(results["history"]) == 1
        session = results["history"][0]
        assert session["timestamp"] is not None
        assert session["benches"]["bench_a"] == {
            "seconds": 4.0,
            "cells": 10,
            "cells_per_sec": 2.5,
        }
        assert session["benches"]["bench_b"] == {"seconds": 0.5}
        assert results["latest"] == session["benches"]

    def test_new_session_appends_instead_of_overwriting(self, results_file):
        _harness.record_bench("bench_a", 1.0, cells=4)
        # A later pytest session: fresh process, fresh timestamp.
        _harness._SESSION["stamp"] = "2099-01-01T00:00:00+00:00"
        _harness.record_bench("bench_a", 2.0, cells=4)

        results = json.loads(results_file.read_text())
        assert len(results["history"]) == 2
        assert results["history"][0]["benches"]["bench_a"]["seconds"] == 1.0
        assert results["history"][1]["benches"]["bench_a"]["seconds"] == 2.0
        assert results["latest"]["bench_a"]["seconds"] == 2.0

    def test_tolerates_a_corrupt_file(self, results_file):
        results_file.write_text("{not json", encoding="utf-8")
        _harness.record_bench("bench_a", 1.0, cells=2)
        results = json.loads(results_file.read_text())
        assert results["history"][0]["benches"] == {
            "bench_a": {"seconds": 1.0, "cells": 2, "cells_per_sec": 2.0}
        }

    def test_cell_count_resolution(self):
        class Sized:
            def __len__(self):
                return 3

        class ExperimentLike:
            result = Sized()

        assert _harness._cell_count(Sized()) == 3
        assert _harness._cell_count(ExperimentLike()) == 3
        assert _harness._cell_count(object()) is None


def _entry(rate: float | None, cells: int = 100) -> dict:
    if rate is None:
        return {"seconds": 1.0}
    return {"seconds": cells / rate, "cells": cells, "cells_per_sec": rate}


class TestCheckRegression:
    def test_passes_at_and_fails_beyond_the_threshold(self):
        history = [{"timestamp": "t0", "benches": {"bench_a": _entry(150.0)}}]
        # Exactly 1.5x slower (100 vs 150) is the boundary: still allowed.
        assert _harness.check_regression({"bench_a": _entry(100.0)}, history) == []
        problems = _harness.check_regression({"bench_a": _entry(99.0)}, history)
        assert len(problems) == 1
        assert "bench_a" in problems[0] and "1.5x" in problems[0]

    def test_baseline_is_the_best_of_the_history(self):
        history = [
            {"timestamp": "t0", "benches": {"bench_a": _entry(300.0)}},
            {"timestamp": "t1", "benches": {"bench_a": _entry(90.0)}},
        ]
        # 150 would pass against the recent 90 but regresses the best (300).
        problems = _harness.check_regression({"bench_a": _entry(150.0)}, history)
        assert len(problems) == 1

    def test_skips_unsized_and_unknown_benches(self):
        history = [{"timestamp": "t0", "benches": {"bench_a": _entry(None)}}]
        benches = {
            "bench_a": _entry(1.0),  # history has no throughput for it
            "bench_b": _entry(None),  # no throughput now
            "bench_c": _entry(5.0),  # never benched before
        }
        assert _harness.check_regression(benches, history) == []

    def test_custom_threshold(self):
        history = [{"timestamp": "t0", "benches": {"bench_a": _entry(100.0)}}]
        benches = {"bench_a": _entry(60.0)}
        assert _harness.check_regression(benches, history, threshold=2.0) == []
        assert len(_harness.check_regression(benches, history, threshold=1.2)) == 1

    def test_latest_gate_reads_the_results_file(self, results_file):
        _harness.record_bench("bench_a", 1.0, cells=300)  # 300 cells/sec
        assert _harness.check_latest_regression() == []  # single entry: vacuous
        _harness._SESSION["stamp"] = "2099-01-01T00:00:00+00:00"
        _harness.record_bench("bench_a", 3.0, cells=300)  # 100 cells/sec
        problems = _harness.check_latest_regression()
        assert len(problems) == 1 and "bench_a" in problems[0]


@pytest.mark.perfgate
def test_perf_gate_latest_session_has_not_regressed():
    """Opt-in gate (``--perfgate``): the newest benchmark session's
    throughput must stay within ``REGRESSION_THRESHOLD`` of the best the
    stored history records for each bench."""
    problems = _harness.check_latest_regression()
    assert not problems, "\n".join(problems)
