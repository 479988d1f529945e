"""Package-level tests: public API surface, exceptions, results."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import (
    CostLimitExceeded,
    ExplorationError,
    GraphError,
    InvalidPortError,
    LabelError,
    ProtocolError,
    ReproError,
    SchedulerError,
    SimulationError,
)
from repro.sim.results import RunResult, StopReason


class TestPublicAPI:
    def test_version_and_subpackages(self):
        assert repro.__version__
        for name in ("graphs", "exploration", "core", "sim", "teams", "analysis"):
            assert hasattr(repro, name)

    def test_quickstart_from_the_package_docstring(self):
        from repro.graphs import families
        from repro.core import run_rendezvous

        result = run_rendezvous(families.ring(8), [(6, 0), (11, 4)])
        assert result.met

    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro.graphs", ["PortLabeledGraph", "PortGraphBuilder", "families"]),
            ("repro.exploration", ["SimulationCostModel", "run_esst", "Tape"]),
            ("repro.core", ["run_rendezvous", "run_baseline_rendezvous", "modified_label"]),
            ("repro.sim", ["AsyncEngine", "AgentSpec", "RoundRobinScheduler"]),
            ("repro.teams", ["run_sgl", "solve_leader_election", "SGLController"]),
            ("repro.analysis", ["fit_power_law", "format_table"]),
        ],
    )
    def test_documented_exports_exist(self, module, names):
        imported = __import__(module, fromlist=names)
        for name in names:
            assert hasattr(imported, name), f"{module}.{name} missing"


class TestExceptions:
    def test_hierarchy(self):
        for exc in (
            GraphError,
            InvalidPortError,
            LabelError,
            SimulationError,
            SchedulerError,
            CostLimitExceeded,
            ExplorationError,
            ProtocolError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(InvalidPortError, GraphError)
        assert issubclass(SchedulerError, SimulationError)
        assert issubclass(CostLimitExceeded, SimulationError)

    def test_cost_limit_carries_partial_result(self):
        exc = CostLimitExceeded("too long", partial_result="partial")
        assert exc.partial_result == "partial"


class TestRunResult:
    def _result(self, **overrides):
        base = dict(
            reason=StopReason.MEETING,
            met=True,
            meeting=None,
            meetings=[],
            total_traversals=10,
            traversals_by_agent={"a": 4, "b": 6},
            decisions=12,
        )
        base.update(overrides)
        return RunResult(**base)

    def test_cost_defaults_to_total_traversals(self):
        assert self._result().cost() == 10

    def test_cost_uses_output_cost_when_all_output(self):
        result = self._result(
            reason=StopReason.ALL_OUTPUT, met=False, output_cost=7
        )
        assert result.cost() == 7

    def test_succeeded_flag(self):
        assert self._result().succeeded
        assert not self._result(reason=StopReason.COST_LIMIT, met=False).succeeded

    def test_summary_contains_cost(self):
        assert "cost=10" in self._result().summary()
