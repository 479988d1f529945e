"""The A/B perf gate's decision rule (``ci/perf_ab.py``), on synthetic runs.

No perfbench run happens here: each case builds five parent/change pairs of
result objects by hand and asks the rule for its verdict.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_ab", ROOT / "ci" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = CONFIG["end_to_end"]
#: A typical run: every end-to-end metric at a plausible value.
BASE = {
    "setup_s": 0.2,
    "pass_s": 1.0,
    "rate_per_s": 100.0,
    "p50_ms": 4.0,
    "tail_ms": 90.0,
    "peak_rss_mb": 40.0,
    "success_frac": 1.0,
}
#: Run-to-run noise, one factor per pair: the parent's IQR is a few percent.
NOISE = (1.00, 1.03, 0.98, 1.01, 0.99)


def _run(values, correct=True):
    return {
        "correct": correct,
        "attempted": 100,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def _runs(scale=None, correct=True):
    """Five runs with the shared noise; ``scale`` maps a metric to one factor
    per pair applied on top of it."""
    runs = []
    for pair, noise in enumerate(NOISE):
        values = {}
        for name, value in BASE.items():
            factor = (scale or {}).get(name, (1.0,) * len(NOISE))[pair]
            values[name] = value * factor * (1.0 if name == "success_frac" else noise)
        runs.append(_run(values, correct=correct))
    return runs


class TestVerdict:
    def test_identical_samples_pass(self):
        assert perf_ab.verdict(_runs(), _runs(), END_TO_END) == []

    def test_a_twice_slower_change_fails(self):
        problems = perf_ab.verdict(_runs(), _runs({"pass_s": (2.0,) * 5}), END_TO_END)
        assert len(problems) == 1 and problems[0].startswith("pass_s: worse in 5/5")

    def test_losing_four_pairs_inside_the_bound_passes(self):
        change = _runs({"pass_s": (1.10, 1.10, 1.10, 1.10, 0.90)})
        assert perf_ab.verdict(_runs(), change, END_TO_END) == []

    def test_a_worse_median_with_fewer_than_four_lost_pairs_passes(self):
        # The median is 50% worse, but the change wins two pairs.
        change = _runs({"pass_s": (1.5, 1.5, 1.5, 0.5, 0.5)})
        assert perf_ab.verdict(_runs(), change, END_TO_END) == []
        change = _runs({"pass_s": (1.5, 1.5, 1.5, 1.5, 0.5)})
        assert perf_ab.verdict(_runs(), change, END_TO_END) != []

    @pytest.mark.parametrize(
        "name, factor, fails",
        [
            ("rate_per_s", 0.5, True),  # half the throughput
            ("rate_per_s", 2.0, False),  # twice the throughput
            ("success_frac", 0.95, True),  # 5% of the checks failing
            ("success_frac", 0.995, False),  # inside the 0.01 bound
        ],
    )
    def test_higher_is_better(self, name, factor, fails):
        change = _runs({name: (factor,) * 5})
        problems = perf_ab.verdict(_runs(), change, END_TO_END)
        assert [problem.split(":")[0] for problem in problems] == ([name] if fails else [])

    def test_an_incorrect_change_run_fails(self):
        change = _runs()
        change[2] = dict(change[2], correct=False, failed=3)
        problems = perf_ab.verdict(_runs(), change, END_TO_END)
        assert problems == ["change run 3: correct is false (3 of 100 output checks failed)"]

    def test_an_incorrect_parent_run_does_not_fail_the_change(self):
        assert perf_ab.verdict(_runs(correct=False), _runs(), END_TO_END) == []


class TestRankLayers:
    def test_the_slowed_layer_comes_first(self):
        per_layer = CONFIG["per_layer"]
        parent = {metric["name"]: {"value": 1.0} for metric in per_layer}
        change = dict(parent)
        change["sim.self_s"] = {"value": 2.0}  # the slowed layer
        change["store.get.s"] = {"value": 1.1}  # noise elsewhere
        change["sim.engine.fused.decisions_per_s"] = {"value": 0.6}  # higher is better
        change["store.hit_ratio"] = {"value": 1.5}  # better, ranks last
        change["trace_overhead_frac"] = {"value": 9.0}  # run-wide: not ranked
        ranked = perf_ab.rank_layers(parent, change, per_layer)
        assert [row[0] for row in ranked[:3]] == [
            "sim.self_s", "sim.engine.fused.decisions_per_s", "store.get.s",
        ]
        assert ranked[0][1:] == (1.0, 2.0, 1.0)
        assert ranked[-1][0] == "store.hit_ratio"
        assert {row[0] for row in ranked} == {
            metric["name"] for metric in per_layer if "." in metric["name"]
        }
