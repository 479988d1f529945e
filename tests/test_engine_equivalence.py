"""The refactor's central invariant: records are byte-identical, everywhere.

``tests/golden/engine_records.json`` holds records generated by the engine
*before* the neighbor-index / integer-lattice refactor, for sampled scenarios
across every problem kind and every scheduler.  The suite replays each
scenario on the current engine and compares canonical JSON:

* untraced — the full record, byte for byte.  This exercises the fused
  complete-traversal loop (round-robin, random and lazy adversaries).
* traced, generic loop forced — the record minus the trace payload (byte for
  byte) plus the deterministic trace projection (events, invariant counters,
  stable span call counts).  The fixture's projections were recorded by the
  generic decision loop, so this pins it against them under every adversary.
* traced, fused loop — for every scenario the fused loop covers, the record
  minus the trace payload, the meeting events and the decision, traversal
  and meeting counters match the same fixture: a traced run takes the loop
  its untraced twin takes and reports what the generic loop would.
* pool — a subset of scenarios executed through the process-pool executor:
  records computed in worker processes are the same bytes again.

A final randomized cross-check compares the fused loop against the forced
generic loop directly (both untraced) on specs the fixtures do not contain,
under every adversary the fused loop replays, so equivalence does not
silently narrow to the golden sample.  Direct ``AsyncEngine`` cases pin what
specs cannot express: weighted random adversaries and the scheduler state
(generator, cursors) each loop leaves behind.
"""

from __future__ import annotations

import contextlib
import json
import random

import pytest

from repro.core.rendezvous import RendezvousController
from repro.graphs import families
from repro.runtime import ProcessPoolExecutor, ScenarioSpec
from repro.runtime.executors import run_sweep
from repro.runtime.runner import run
from repro.sim import AgentSpec, AsyncEngine
from repro.sim.engine import takes_fused_loop
from repro.sim.schedulers import LazyScheduler, RandomScheduler

from tests.golden.gen_engine_records import (
    FIXTURE_PATH,
    canonical,
    scenarios,
    split_traced,
)

SCENARIOS = dict(scenarios())
FIXTURES = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))["scenarios"]

#: Golden scenarios whose engine run takes the fused loop: a complete-traversal
#: adversary driving the meeting engine (the ESST, bounds, figure and tick
#: scenarios record no engine counters: they never run an ``AsyncEngine``).
FUSED_SCENARIOS = sorted(
    name
    for name, entry in FIXTURES.items()
    if entry["spec"]["scheduler"] in ("round_robin", "random", "lazy", "delay_until_stop")
    and "engine.decisions" in entry["trace"]["counters"]
)

#: The trace counters a fused-loop run shares with the generic loop's
#: fixture projection (the per-decision tallies exist in the generic loop only).
FUSED_COUNTERS = ("engine.decisions", "engine.traversals", "engine.meetings")

#: Pool subset: one scenario per problem kind (the pool run re-executes each
#: spec in a fresh worker process, so covering every kind once is enough).
POOL_SUBSET = (
    "rv-ring-rr",
    "base-ring-rr",
    "team-ring4-k2-rr",
    "esst-ring6",
    "bounds-ring-rr",
    "fig-ring-rr",
    "tick-leader-ring",
)


def test_fixture_covers_every_scenario():
    assert sorted(FIXTURES) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_untraced_record_is_byte_identical(name):
    record = run(SCENARIOS[name]).to_dict()
    assert canonical(record) == canonical(FIXTURES[name]["untraced"])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_traced_record_is_byte_identical(name, generic_loop):
    with generic_loop():
        traced = run(SCENARIOS[name], trace=True).to_dict()
    stripped, projection = split_traced(traced)
    assert canonical(stripped) == canonical(FIXTURES[name]["traced_record"])
    assert canonical(projection) == canonical(FIXTURES[name]["trace"])


def test_fused_scenarios_cover_every_fused_adversary():
    adversaries = {FIXTURES[name]["spec"]["scheduler"] for name in FUSED_SCENARIOS}
    assert adversaries == {"round_robin", "random", "lazy", "delay_until_stop"}
    assert {FIXTURES[name]["spec"]["problem"] for name in FUSED_SCENARIOS} == {
        "rendezvous", "baseline", "teams",
    }


@pytest.mark.parametrize("name", FUSED_SCENARIOS)
def test_fused_traced_run_matches_the_fixture(name):
    traced = run(SCENARIOS[name], trace=True).to_dict()
    trace = dict(traced["extra"])["trace"]
    assert "engine.fused_loop" in trace["spans"]
    assert "scheduler.decide" not in trace["spans"]
    stripped, projection = split_traced(traced)
    expected = FIXTURES[name]["trace"]
    assert canonical(stripped) == canonical(FIXTURES[name]["traced_record"])
    assert projection["events"] == expected["events"]
    assert projection["events_dropped"] == expected["events_dropped"]
    for counter in FUSED_COUNTERS:
        assert trace["counters"][counter] == expected["counters"][counter], counter


def test_pool_records_are_byte_identical():
    specs = [SCENARIOS[name] for name in POOL_SUBSET]
    result = run_sweep(specs, executor=ProcessPoolExecutor(max_workers=2))
    assert len(result.records) == len(POOL_SUBSET)
    for name, record in zip(POOL_SUBSET, result.records):
        assert canonical(record.to_dict()) == canonical(FIXTURES[name]["untraced"])


def _assert_fused_matches_generic(cases, generic_loop):
    for spec in cases:
        fused = run(spec).to_json()
        with generic_loop():
            generic = run(spec).to_json()
        assert fused == generic, spec.name


def test_randomized_specs_fused_loop_matches_generic_loop(generic_loop):
    # Fresh specs outside the golden sample: the plain run takes the fused
    # loop, the forced run the generic loop; their records must agree
    # exactly.
    rng = random.Random(20260808)
    cases = []
    for _ in range(4):
        cases.append(
            ScenarioSpec(
                problem="rendezvous",
                family=rng.choice(["ring", "path", "random_tree"]),
                size=rng.randint(5, 9),
                seed=rng.randint(0, 99),
            )
        )
    for _ in range(2):
        cases.append(
            ScenarioSpec(
                problem="teams",
                family="ring",
                size=rng.randint(4, 5),
                team_size=2,
                seed=rng.randint(0, 99),
            )
        )
    _assert_fused_matches_generic(cases, generic_loop)


#: Per adversary, the second team cell's extra spec fields.  Team members
#: are named ``sgl-<label>`` with labels 3, 5, 7, so the lazy adversaries'
#: default ``starved="agent-2"`` starves nobody on teams; the k=3 cells
#: starve a real member instead.  The random k=3 cell starts a member dormant
#: (woken by a visit, through the loop's full meeting path).
_TEAM_EXTRAS = {
    "random": {"dormant": (1,)},
    "lazy": {"scheduler_params": {"starved": "sgl-5", "release_after": 300}},
    "delay_until_stop": {"scheduler_params": {"starved": "sgl-5"}},
}


@pytest.mark.parametrize("scheduler", sorted(_TEAM_EXTRAS))
def test_randomized_specs_fused_loop_matches_generic_loop_under(scheduler, generic_loop):
    rng = random.Random(f"fused-vs-generic:{scheduler}")
    cases = []
    for _ in range(3):
        cases.append(
            ScenarioSpec(
                problem="rendezvous",
                family=rng.choice(["ring", "path", "random_tree", "erdos_renyi"]),
                size=rng.randint(5, 9),
                seed=rng.randint(0, 99),
                scheduler=scheduler,
            )
        )
    for team_size, extra in ((2, {}), (3, _TEAM_EXTRAS[scheduler])):
        cases.append(
            ScenarioSpec(
                problem="teams",
                family=rng.choice(["ring", "path"]),
                size=3,
                team_size=team_size,
                seed=rng.randint(0, 99),
                scheduler=scheduler,
                **extra,
            )
        )
    _assert_fused_matches_generic(cases, generic_loop)


class TestDirectEngine:
    """Both loops on one hand-built engine, compared result for result."""

    @staticmethod
    def _both_loops(make_scheduler, sim_model, generic_loop, budget=3000):
        graph = families.ring(8)
        outcomes = []
        for loop in (contextlib.nullcontext, generic_loop):
            scheduler = make_scheduler()
            agents = [
                AgentSpec(RendezvousController(name, label, sim_model), start)
                for name, label, start in (("a", 6, 0), ("b", 11, 3), ("c", 9, 5))
            ]
            engine = AsyncEngine(
                graph,
                agents,
                scheduler,
                max_traversals=budget,
                on_cost_limit="return",
            )
            with loop():
                outcomes.append((engine.run(), scheduler))
        (fused, fused_scheduler), (generic, generic_scheduler) = outcomes
        assert takes_fused_loop(make_scheduler(), ["a", "b", "c"])
        assert fused.meetings, "the comparison should cover meetings"
        assert fused == generic
        return fused_scheduler, generic_scheduler

    def test_weighted_random_adversary(self, sim_model, generic_loop):
        self._both_loops(
            lambda: RandomScheduler(seed=3, weights={"a": 4.0, "c": 0.25, "x": 9.0}),
            sim_model,
            generic_loop,
        )

    def test_all_zero_weights_fall_back_to_uniform(self, sim_model, generic_loop):
        self._both_loops(
            lambda: RandomScheduler(seed=5, weights={"a": 0.0, "b": 0.0, "c": -1.0}),
            sim_model,
            generic_loop,
        )

    @pytest.mark.parametrize("weights", [None, {"b": 2.0}], ids=["uniform", "weighted"])
    def test_random_generator_state_matches_after_both_loops(
        self, sim_model, generic_loop, weights
    ):
        fused, generic = self._both_loops(
            lambda: RandomScheduler(seed=11, weights=weights), sim_model, generic_loop
        )
        assert fused._rng.getstate() == generic._rng.getstate()

    @pytest.mark.parametrize("release_after", [None, 200], ids=["delay_until_stop", "lazy"])
    def test_lazy_cursor_and_release_match_after_both_loops(
        self, sim_model, generic_loop, release_after
    ):
        fused, generic = self._both_loops(
            lambda: LazyScheduler("b", release_after=release_after),
            sim_model,
            generic_loop,
        )
        assert fused._cursor == generic._cursor
        assert fused.released == generic.released == (release_after is not None)
