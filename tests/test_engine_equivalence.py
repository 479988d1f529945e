"""The engine's central invariant: records are byte-identical, everywhere.

``tests/golden/engine_records.json`` holds records generated by the engine
*before* the neighbor-index / integer-lattice refactor, for sampled scenarios
across every problem kind and every scheduler.  The suite replays each
scenario on the current engine and compares canonical JSON:

* untraced — the full record, byte for byte;
* traced — the record minus the trace payload (byte for byte) plus the
  deterministic trace projection: events, invariant counters and stable span
  call counts.  The fixture's projections were recorded by the generic
  decision loop the engine once had; only the call counts of that loop's
  per-decision spans (``DELETED_SPANS``) leave the comparison;
* pool — a subset of scenarios executed through the process-pool executor:
  records computed in worker processes are the same bytes again.

``tests/golden/engine_generic_records.json`` holds what the generic loop
produced for seeded specs outside the golden sample, under every adversary
(fair ones, and the avoider, which parks agents), and for hand-built engine runs
no spec expresses: weighted random adversaries, wake schedules, and the
scheduler state (generator, lazy cursor and release) each run leaves behind.
The one loop reproduces all of it, so equivalence does not silently narrow to
the golden sample.

``tests/golden/engine_solo_records.json`` holds teams runs that end with one
agent moving alone, recorded while the engine still asked the scheduler for
every such move, and the state each left its scheduler in: the engine now
moves that agent without asking, and the scheduler's ``settle`` must land
exactly there.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime import ProcessPoolExecutor
from repro.runtime.executors import run_sweep
from repro.runtime.runner import run

from tests.golden.gen_engine_records import (
    FIXTURE_PATH,
    GENERIC_FIXTURE_PATH,
    SOLO_FIXTURE_PATH,
    canonical,
    cross_check_specs,
    direct_cases,
    pinned_projection,
    scenarios,
    solo_cases,
    split_traced,
)

SCENARIOS = dict(scenarios())
FIXTURES = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))["scenarios"]
GENERIC = json.loads(GENERIC_FIXTURE_PATH.read_text(encoding="utf-8"))
CROSS_CHECK_SPECS = dict(cross_check_specs())
DIRECT_CASES = direct_cases()
SOLO = json.loads(SOLO_FIXTURE_PATH.read_text(encoding="utf-8"))["direct"]
SOLO_CASES = solo_cases()

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
def test_traced_record_is_byte_identical(name):
    traced = run(SCENARIOS[name], trace=True).to_dict()
    stripped, projection = split_traced(traced)
    assert canonical(stripped) == canonical(FIXTURES[name]["traced_record"])
    assert canonical(projection) == canonical(pinned_projection(FIXTURES[name]["trace"]))


#: Golden scenarios that run an ``AsyncEngine`` (the ESST, bounds, figure and
#: tick scenarios record no engine counters: they never run one).
ENGINE_SCENARIOS = sorted(
    name for name, entry in FIXTURES.items()
    if "engine.decisions" in entry["trace"]["counters"]
)

#: The closing counters of every engine run.
LOOP_COUNTERS = ("engine.decisions", "engine.traversals", "engine.meetings")


def test_fused_scenarios_cover_every_fused_adversary():
    adversaries = {FIXTURES[name]["spec"]["scheduler"] for name in ENGINE_SCENARIOS}
    assert adversaries == {"round_robin", "random", "lazy", "delay_until_stop", "avoider"}
    assert {FIXTURES[name]["spec"]["problem"] for name in ENGINE_SCENARIOS} == {
        "rendezvous", "baseline", "teams",
    }


@pytest.mark.parametrize("name", ENGINE_SCENARIOS)
def test_fused_traced_run_matches_the_fixture(name):
    # Every adversary's traced run is timed as the one loop, under the span
    # name traces already in stores carry: ``engine.fused_loop``.
    traced = run(SCENARIOS[name], trace=True).to_dict()
    trace = dict(traced["extra"])["trace"]
    assert "engine.fused_loop" in trace["spans"]
    assert "scheduler.decide" not in trace["spans"]
    expected = FIXTURES[name]["trace"]
    for counter in LOOP_COUNTERS:
        assert trace["counters"][counter] == expected["counters"][counter], counter


def test_pool_records_are_byte_identical():
    specs = [SCENARIOS[name] for name in POOL_SUBSET]
    result = run_sweep(specs, executor=ProcessPoolExecutor(max_workers=2))
    assert len(result.records) == len(POOL_SUBSET)
    for name, record in zip(POOL_SUBSET, result.records):
        assert canonical(record.to_dict()) == canonical(FIXTURES[name]["untraced"])


def test_generic_fixture_covers_every_case_and_adversary():
    assert sorted(GENERIC["specs"]) == sorted(CROSS_CHECK_SPECS)
    assert sorted(GENERIC["direct"]) == sorted(DIRECT_CASES)
    adversaries = {spec.scheduler for spec in CROSS_CHECK_SPECS.values()}
    assert adversaries == {"round_robin", "random", "lazy", "delay_until_stop", "avoider"}
    # The avoider cells park agents, so they exercise the sweeps of parked
    # agents.
    for name, spec in CROSS_CHECK_SPECS.items():
        record = GENERIC["specs"][name]["record"]
        if spec.scheduler == "avoider":
            assert record["decisions"] > record["cost"], name


def _assert_matches_generic(names):
    assert names
    for name in names:
        entry = GENERIC["specs"][name]
        spec = CROSS_CHECK_SPECS[name]
        assert canonical(spec.to_dict()) == canonical(entry["spec"]), name
        assert canonical(run(spec).to_dict()) == canonical(entry["record"]), name


def test_randomized_specs_fused_loop_matches_generic_loop():
    _assert_matches_generic([name for name in CROSS_CHECK_SPECS if name.startswith("fair-")])


@pytest.mark.parametrize("scheduler", ["avoider", "delay_until_stop", "lazy", "random"])
def test_randomized_specs_fused_loop_matches_generic_loop_under(scheduler):
    _assert_matches_generic(
        [name for name, spec in CROSS_CHECK_SPECS.items() if spec.scheduler == scheduler]
    )


def _direct(name):
    payload = DIRECT_CASES[name]()
    assert payload["meetings"], "the comparison should cover meetings"
    assert canonical(payload) == canonical(GENERIC["direct"][name])
    return payload


@pytest.mark.parametrize("adversary", ["avoider", "lazy", "random", "round_robin"])
@pytest.mark.parametrize("problem", ["rv", "teams"])
def test_wake_schedule_matches_generic_loop(problem, adversary):
    _direct(f"wake-{problem}-{adversary}")


class TestDirectEngine:
    """Hand-built engines, compared result for result with the generic loop."""

    def test_weighted_random_adversary(self):
        _direct("random-weighted")

    def test_all_zero_weights_fall_back_to_uniform(self):
        _direct("random-all-zero-weights")

    @pytest.mark.parametrize("weights", ["uniform", "weighted"])
    def test_random_generator_state_matches_after_both_loops(self, weights):
        assert _direct(f"random-state-{weights}")["rng_state"]

    @pytest.mark.parametrize("release_after", ["delay_until_stop", "lazy"])
    def test_lazy_cursor_and_release_match_after_both_loops(self, release_after):
        payload = _direct(f"lazy-state-{release_after}")
        assert payload["released"] is (release_after == "lazy")


def test_solo_fixture_covers_every_case():
    assert sorted(SOLO) == sorted(SOLO_CASES)


@pytest.mark.parametrize("name", sorted(SOLO_CASES))
def test_solo_phase_leaves_the_scheduler_where_choose_would(name):
    payload = SOLO_CASES[name]()
    assert payload["meetings"], "the comparison should cover meetings"
    assert canonical(payload) == canonical(SOLO[name])
