"""Golden engine-record fixtures: records pinned byte-for-byte.

``SCENARIOS`` samples every problem kind and every scheduler across several
graph families.  ``python -m tests.golden.gen_engine_records`` runs each
scenario twice (untraced and traced) and stores the results in
``engine_records.json``; the fixtures in the repository were generated by the
engine *before* the neighbor-index / integer-lattice refactor, so
``tests/test_engine_equivalence.py`` proves the current engine reproduces the
old engine's records exactly.

Two comparison granularities:

* **untraced** — the full ``RunRecord.to_dict()`` payload, compared as
  canonical JSON.  Byte-identical, no exceptions.
* **traced** — the record *minus* ``extra["trace"]`` (byte-identical), plus a
  deterministic projection of the trace: all events, the invariant counters
  (decision/traversal/meeting tallies — NOT the scan-cost counters, which the
  refactor intentionally changes), and the call counts of the stable spans
  (span *seconds* are wall-clock noise and never comparable).

The traced projections in ``engine_records.json`` were recorded when the
engine still had a second, generic decision loop, which also timed every
decision (``DELETED_SPANS``); the comparison leaves those span counts out.

``python -m tests.golden.gen_engine_records --generic`` writes the second
fixture, ``engine_generic_records.json``: the records of the generic loop for
seeded cross-check specs under every adversary (:func:`cross_check_specs`)
and for hand-built engine runs no spec expresses (:func:`direct_cases`).

``python -m tests.golden.gen_engine_records --solo`` writes the third,
``engine_solo_records.json``: teams runs that end with one agent moving
alone, and the state each leaves its scheduler in (:func:`solo_cases`).  It
was written by the engine that still asked the scheduler for every one of
those moves.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.runtime.spec import ScenarioSpec

FIXTURE_PATH = Path(__file__).resolve().parent / "engine_records.json"
GENERIC_FIXTURE_PATH = Path(__file__).resolve().parent / "engine_generic_records.json"
SOLO_FIXTURE_PATH = Path(__file__).resolve().parent / "engine_solo_records.json"

#: Trace counters that must not change across the refactor: what the engine
#: *did* (decisions, traversals, meetings, sweeps), as opposed to what the
#: bookkeeping *cost* (the ``*_agents_scanned`` counters, whose whole point
#: is to shrink).
INVARIANT_COUNTERS = frozenset(
    {
        "engine.decisions",
        "engine.traversals",
        "engine.meetings",
        "engine.wake_decisions",
        "engine.advance_decisions",
        "engine.sweep_calls",
        "engine.msa_calls",
    }
)

#: Spans whose *call counts* are pinned.  Seconds are never compared, and
#: spans added by the refactor (e.g. the loop's own span) are allowed.
INVARIANT_SPANS = (
    "run",
    "engine.run",
    "engine.bootstrap",
)

#: The generic decision loop's per-decision spans.  ``engine_records.json``
#: still holds their call counts; the code that emitted them is gone.
DELETED_SPANS = (
    "engine.apply",
    "engine.check_termination",
    "scheduler.decide",
)


def scenarios() -> List[Tuple[str, ScenarioSpec]]:
    """The sampled (name, spec) pairs — every problem kind, every scheduler."""
    specs: List[Tuple[str, ScenarioSpec]] = []

    def add(name: str, **kwargs: Any) -> None:
        specs.append((name, ScenarioSpec(**kwargs).validate()))

    # rendezvous: all five schedulers, a spread of families/sizes/seeds.
    add("rv-ring-rr", problem="rendezvous", family="ring", size=6, seed=0)
    add("rv-path-random", problem="rendezvous", family="path", size=7, seed=3,
        scheduler="random")
    add("rv-complete-lazy", problem="rendezvous", family="complete", size=5,
        seed=1, scheduler="lazy")
    add("rv-btree-delay", problem="rendezvous", family="binary_tree", size=7,
        seed=2, scheduler="delay_until_stop")
    add("rv-er-rr", problem="rendezvous", family="erdos_renyi", size=8, seed=5)
    add("rv-hyper-avoider", problem="rendezvous", family="hypercube", size=8,
        seed=0, scheduler="avoider", scheduler_params=(("patience", 6),))
    add("rv-star-avoider", problem="rendezvous", family="star", size=5, seed=1,
        scheduler="avoider", scheduler_params=(("patience", 3),))
    add("rv-lolli-random", problem="rendezvous", family="lollipop", size=7,
        seed=7, scheduler="random")
    add("rv-oring-lazy", problem="rendezvous", family="oriented_ring", size=6,
        seed=4, scheduler="lazy")
    add("rv-rreg-rr", problem="rendezvous", family="random_regular", size=8,
        seed=2)
    add("rv-rtree-random", problem="rendezvous", family="random_tree", size=9,
        seed=6, scheduler="random")
    add("rv-ring-custom", problem="rendezvous", family="ring", size=6, seed=8,
        labels=(2, 9), starts=(1, 4))

    # baseline (exponential-waiting meeting variant).
    add("base-ring-rr", problem="baseline", family="ring", size=5, seed=0)
    add("base-path-random", problem="baseline", family="path", size=6, seed=1,
        scheduler="random")
    add("base-complete-avoider", problem="baseline", family="complete", size=4,
        seed=2, scheduler="avoider", scheduler_params=(("patience", 4),))

    # teams (Algorithm SGL) — the engine's heaviest problem; sizes kept small.
    add("team-ring4-k2-rr", problem="teams", family="ring", size=4,
        team_size=2, seed=0)
    add("team-ring5-k2-random", problem="teams", family="ring", size=5,
        team_size=2, seed=1, scheduler="random")
    add("team-path4-k2-lazy", problem="teams", family="path", size=4,
        team_size=2, seed=0, scheduler="lazy")
    add("team-ring4-k3-rr", problem="teams", family="ring", size=4,
        team_size=3, seed=2)
    add("team-ring4-k2-dormant", problem="teams", family="ring", size=4,
        team_size=2, seed=3, dormant=(1,))

    # esst (adversary-free exploration driver).
    add("esst-ring6", problem="esst", family="ring", size=6, seed=0)
    add("esst-path5-node", problem="esst", family="path", size=5, seed=0,
        token_node=2)
    add("esst-complete5-edge", problem="esst", family="complete", size=5,
        seed=0, token_edge=(0, 3), token_fraction="1/3")
    add("esst-hyper8", problem="esst", family="hypercube", size=8, seed=1)
    add("esst-btree7-node", problem="esst", family="binary_tree", size=7,
        seed=0, token_node=3)

    # bounds / figures (derived problems over the meeting engine).
    add("bounds-ring-rr", problem="bounds", family="ring", size=6, seed=0)
    add("bounds-path-random", problem="bounds", family="path", size=7, seed=2,
        scheduler="random")
    add("fig-ring-rr", problem="figures", family="ring", size=8, seed=0)

    # tick problems (separate tick engine — insurance that it is untouched).
    add("tick-leader-ring", problem="tick_leader", family="ring", size=6,
        seed=0)
    add("tick-gossip-ring", problem="tick_gossip", family="ring", size=5,
        seed=1, scheduler="random")
    add("tick-gathering-ring", problem="tick_gathering", family="ring",
        size=5, seed=0)
    return specs


def canonical(payload: Any) -> str:
    """Canonical JSON — the byte-identity yardstick for record payloads."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def trace_projection(trace: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic slice of a trace payload (see module docstring)."""
    counters = trace.get("counters", {})
    spans = trace.get("spans", {})
    return {
        "schema": trace.get("schema"),
        "events": list(trace.get("events", [])),
        "events_dropped": trace.get("events_dropped", 0),
        "counters": {
            name: value
            for name, value in sorted(counters.items())
            if name in INVARIANT_COUNTERS or not name.startswith("engine.")
        },
        "span_counts": {
            name: spans[name].get("count")
            for name in INVARIANT_SPANS
            if name in spans
        },
    }


def pinned_projection(projection: Dict[str, Any]) -> Dict[str, Any]:
    """A fixture projection without the span counts of ``DELETED_SPANS``."""
    pinned = dict(projection)
    pinned["span_counts"] = {
        name: count
        for name, count in projection["span_counts"].items()
        if name not in DELETED_SPANS
    }
    return pinned


def split_traced(record_dict: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a traced record dict into (record-without-trace, projection)."""
    extra = dict(record_dict.get("extra", ()))
    trace = extra.pop("trace", None)
    stripped = dict(record_dict)
    stripped["extra"] = sorted([k, v] for k, v in extra.items())
    return stripped, trace_projection(trace or {})


def build_fixture() -> Dict[str, Any]:
    from repro.runtime.runner import run

    entries: Dict[str, Any] = {}
    for name, spec in scenarios():
        untraced = run(spec).to_dict()
        traced = run(spec, trace=True).to_dict()
        traced_record, projection = split_traced(traced)
        entries[name] = {
            "spec": spec.to_dict(),
            "untraced": untraced,
            "traced_record": traced_record,
            "trace": projection,
        }
    return {
        "_meta": {
            "generator": "tests/golden/gen_engine_records.py",
            "note": (
                "Generated by the PRE-refactor engine; regenerate only with "
                "an engine whose records are proven byte-identical."
            ),
        },
        "scenarios": entries,
    }


# ----------------------------------------------------------------------
# the generic-loop fixture: cross-check specs and direct engine cases
# ----------------------------------------------------------------------
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


def cross_check_specs() -> List[Tuple[str, ScenarioSpec]]:
    """Seeded specs outside the golden sample, under every adversary.

    The fair cells (round-robin, random, lazy, delay-until-stop) never park
    an agent; the avoider cells park agents inside edges, so they pin the
    sweeps of parked agents beyond the three avoider goldens.
    """
    specs: List[Tuple[str, ScenarioSpec]] = []
    rng = random.Random(20260808)
    for i in range(4):
        specs.append((f"fair-rv-{i}", ScenarioSpec(
            problem="rendezvous",
            family=rng.choice(["ring", "path", "random_tree"]),
            size=rng.randint(5, 9),
            seed=rng.randint(0, 99),
        )))
    for i in range(2):
        specs.append((f"fair-teams-{i}", ScenarioSpec(
            problem="teams",
            family="ring",
            size=rng.randint(4, 5),
            team_size=2,
            seed=rng.randint(0, 99),
        )))
    for scheduler in sorted(_TEAM_EXTRAS):
        rng = random.Random(f"fused-vs-generic:{scheduler}")
        for i in range(3):
            specs.append((f"{scheduler}-rv-{i}", ScenarioSpec(
                problem="rendezvous",
                family=rng.choice(["ring", "path", "random_tree", "erdos_renyi"]),
                size=rng.randint(5, 9),
                seed=rng.randint(0, 99),
                scheduler=scheduler,
            )))
        for team_size, extra in ((2, {}), (3, _TEAM_EXTRAS[scheduler])):
            specs.append((f"{scheduler}-teams-k{team_size}", ScenarioSpec(
                problem="teams",
                family=rng.choice(["ring", "path"]),
                size=3,
                team_size=team_size,
                seed=rng.randint(0, 99),
                scheduler=scheduler,
                **extra,
            )))
    rng = random.Random("avoider")
    for i in range(4):
        specs.append((f"avoider-rv-{i}", ScenarioSpec(
            problem=rng.choice(["rendezvous", "baseline"]) if i else "rendezvous",
            family=rng.choice(["ring", "path", "random_tree", "erdos_renyi"]),
            size=rng.randint(6, 12),
            seed=rng.randint(0, 99),
            labels=(rng.randint(1, 20), rng.randint(21, 60)),
            scheduler="avoider",
            scheduler_params={"patience": rng.choice([8, 32, 128])},
            max_traversals=20_000,
            on_cost_limit="return",
        )))
    for team_size, extra in ((2, {}), (3, {"dormant": (1,)})):
        specs.append((f"avoider-teams-k{team_size}", ScenarioSpec(
            problem="teams",
            family=rng.choice(["ring", "path"]),
            size=3,
            team_size=team_size,
            seed=rng.randint(0, 99),
            scheduler="avoider",
            scheduler_params={"patience": 3},
            max_traversals=15_000,
            on_cost_limit="return",
            **extra,
        )))
    return [(name, spec.validate()) for name, spec in specs]


def _plain(value: Any) -> Any:
    """JSON-ready copy of a result value (sets sorted, fractions as text)."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in sorted(value.items(), key=repr)}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_plain(item) for item in value), key=repr)
    if isinstance(value, Fraction):
        return str(value)
    return value


def result_payload(result: Any) -> Dict[str, Any]:
    """A ``RunResult`` as plain JSON; the meetings as count plus digest."""
    # The engine shares one snapshot between meetings while an agent's public
    # state is unchanged, so each distinct snapshot is converted once.
    rows: Dict[int, List[Any]] = {}

    def row(snap: Any) -> List[Any]:
        plain = rows.get(id(snap))
        if plain is None:
            plain = rows[id(snap)] = [snap.name, snap.label, snap.status, _plain(snap.public)]
        return plain

    meetings = [
        [
            event.decision_index,
            event.total_traversals,
            event.node,
            _plain(event.edge),
            [row(snap) for snap in event.participants],
        ]
        for event in result.meetings
    ]
    return {
        "reason": result.reason,
        "met": result.met,
        "decisions": result.decisions,
        "total_traversals": result.total_traversals,
        "traversals_by_agent": dict(sorted(result.traversals_by_agent.items())),
        "outputs": _plain(result.outputs),
        "output_cost": result.output_cost,
        "meetings": len(meetings),
        "meetings_sha256": hashlib.sha256(canonical(meetings).encode()).hexdigest(),
    }


def _rendezvous_engine(scheduler: Any, *, dormant: bool = False, budget: int = 3000):
    from repro.core.rendezvous import RendezvousController
    from repro.exploration.cost_model import SimulationCostModel
    from repro.graphs import families
    from repro.sim import AgentSpec, AsyncEngine

    model = SimulationCostModel()
    agents = [
        AgentSpec(RendezvousController(name, label, model), start,
                  dormant=dormant and name == "b")
        for name, label, start in (("a", 6, 0), ("b", 11, 3), ("c", 9, 5))
    ]
    return AsyncEngine(
        families.ring(8), agents, scheduler, max_traversals=budget,
        on_cost_limit="return",
    )


def _teams_run(scheduler: Any) -> Any:
    from repro.exploration.cost_model import SimulationCostModel
    from repro.graphs import families
    from repro.teams.problems import TeamMember, run_sgl

    members = [
        TeamMember(label=3, start_node=0),
        TeamMember(label=5, start_node=2, dormant=True),
        TeamMember(label=7, start_node=3),
    ]
    return run_sgl(
        families.ring(5), members, scheduler=scheduler,
        model=SimulationCostModel(), max_traversals=15_000,
        on_cost_limit="return",
    ).result


def direct_cases() -> Dict[str, Callable[[], Dict[str, Any]]]:
    """Hand-built engine runs no spec expresses, each returning its payload.

    Weighted random adversaries, the scheduler state each run leaves behind
    (generator, lazy cursor and release), and wake schedules under every
    adversary, on rendezvous and teams.
    """
    from repro.sim.schedulers import (
        GreedyAvoidingScheduler,
        LazyScheduler,
        RandomScheduler,
        RoundRobinScheduler,
    )

    def random_case(**kwargs):
        def case():
            scheduler = RandomScheduler(**kwargs)
            payload = result_payload(_rendezvous_engine(scheduler).run())
            payload["rng_state"] = _plain(scheduler._rng.getstate())
            return payload
        return case

    def lazy_case(release_after):
        def case():
            scheduler = LazyScheduler("b", release_after=release_after)
            payload = result_payload(_rendezvous_engine(scheduler).run())
            payload["cursor"] = scheduler._cursor
            payload["released"] = scheduler.released
            return payload
        return case

    wake_makers = {
        "round_robin": lambda wake: RoundRobinScheduler(wake_schedule=wake),
        "random": lambda wake: RandomScheduler(seed=4, wake_schedule=wake),
        "lazy": lambda wake: LazyScheduler("a", release_after=40, wake_schedule=wake),
        "avoider": lambda wake: GreedyAvoidingScheduler(patience=5, wake_schedule=wake),
    }

    def wake_rv_case(make):
        return lambda: result_payload(
            _rendezvous_engine(make({"b": 25}), dormant=True).run()
        )

    def wake_teams_case(make):
        return lambda: result_payload(_teams_run(make({"sgl-5": 60})))

    cases: Dict[str, Callable[[], Dict[str, Any]]] = {
        "random-weighted": random_case(seed=3, weights={"a": 4.0, "c": 0.25, "x": 9.0}),
        "random-all-zero-weights": random_case(
            seed=5, weights={"a": 0.0, "b": 0.0, "c": -1.0}
        ),
        "random-state-uniform": random_case(seed=11),
        "random-state-weighted": random_case(seed=11, weights={"b": 2.0}),
        "lazy-state-delay_until_stop": lazy_case(None),
        "lazy-state-lazy": lazy_case(200),
    }
    for name, make in sorted(wake_makers.items()):
        cases[f"wake-rv-{name}"] = wake_rv_case(make)
        cases[f"wake-teams-{name}"] = wake_teams_case(make)
    return cases


def _solo_teams_run(scheduler: Any, max_traversals: int) -> Any:
    from repro.exploration.cost_model import SimulationCostModel
    from repro.graphs import families
    from repro.teams.problems import TeamMember, run_sgl

    members = [
        TeamMember(label=label, start_node=node)
        for node, label in enumerate((3, 5, 7))
    ]
    return run_sgl(
        families.ring(3), members, scheduler=scheduler,
        model=SimulationCostModel(), max_traversals=max_traversals,
        on_cost_limit="return",
    ).result


def solo_cases() -> Dict[str, Callable[[], Dict[str, Any]]]:
    """Teams runs that end with one agent moving alone, and the scheduler
    state each leaves behind.

    Two members of an SGL team on a ring of 3 stop within a few traversals
    and the third explores alone for tens of thousands.  Each payload adds
    to the result what the scheduler holds after the run: the round-robin
    cycle's next names (a default cycle, and one with a repeated and an
    unknown name), the random generator's state (uniform, weighted, and a
    run that ends at its traversal budget), and the lazy cursor and release
    flag (a release threshold crossed while one agent moves alone, the
    delay-until-stop adversary starving nobody, and starving the agent left
    moving alone).
    """
    from repro.sim.schedulers import LazyScheduler, RandomScheduler, RoundRobinScheduler

    def next_names(scheduler):
        return {"next_names": [
            getattr(scheduler._probe(), "name", None) for _ in scheduler._order
        ]}

    def rng_state(scheduler):
        return {"rng_state": _plain(scheduler._rng.getstate())}

    def lazy_state(scheduler):
        return {"cursor": scheduler._cursor, "released": scheduler.released}

    def case(make, state, max_traversals=40_000):
        def run_case():
            scheduler = make()
            payload = result_payload(_solo_teams_run(scheduler, max_traversals))
            payload.update(state(scheduler))
            return payload
        return run_case

    return {
        "solo-round_robin": case(RoundRobinScheduler, next_names),
        "solo-round_robin-order": case(
            lambda: RoundRobinScheduler(order=["sgl-7", "sgl-3", "x", "sgl-3", "sgl-5"]),
            next_names,
        ),
        "solo-random-uniform": case(lambda: RandomScheduler(seed=1), rng_state),
        "solo-random-weighted": case(
            lambda: RandomScheduler(seed=0, weights={"sgl-3": 2.5, "sgl-7": 0.5}),
            rng_state,
        ),
        "solo-random-budget": case(
            lambda: RandomScheduler(seed=2), rng_state, max_traversals=30_000
        ),
        "solo-lazy": case(
            lambda: LazyScheduler("agent-2", release_after=5_000), lazy_state
        ),
        "solo-delay_until_stop": case(lambda: LazyScheduler("agent-2"), lazy_state),
        "solo-delay_until_stop-starved": case(lambda: LazyScheduler("sgl-5"), lazy_state),
    }


def build_solo_fixture() -> Dict[str, Any]:
    """The solo cases' payloads."""
    return {
        "_meta": {
            "generator": "tests/golden/gen_engine_records.py --solo",
            "note": (
                "Generated by the engine that called the scheduler on every "
                "decision; regenerate only with an engine whose records are "
                "proven byte-identical."
            ),
        },
        "direct": {name: run_case() for name, run_case in solo_cases().items()},
    }


def build_generic_fixture() -> Dict[str, Any]:
    """The cross-check specs' records and the direct cases' payloads."""
    from repro.runtime.runner import run

    specs = {
        name: {"spec": spec.to_dict(), "record": run(spec).to_dict()}
        for name, spec in cross_check_specs()
    }
    direct = {name: case() for name, case in direct_cases().items()}
    return {
        "_meta": {
            "generator": "tests/golden/gen_engine_records.py --generic",
            "note": (
                "Generated by the generic decision loop before the engine "
                "had one loop; regenerate only with an engine whose records "
                "are proven byte-identical."
            ),
        },
        "specs": specs,
        "direct": direct,
    }


def _write(path: Path, fixture: Dict[str, Any]) -> None:
    path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: List[str]) -> None:
    if "--solo" in argv:
        fixture = build_solo_fixture()
        _write(SOLO_FIXTURE_PATH, fixture)
        print(f"wrote {len(fixture['direct'])} solo cases -> {SOLO_FIXTURE_PATH}")
        return
    if "--generic" in argv:
        fixture = build_generic_fixture()
        _write(GENERIC_FIXTURE_PATH, fixture)
        print(
            f"wrote {len(fixture['specs'])} specs, {len(fixture['direct'])} "
            f"direct cases -> {GENERIC_FIXTURE_PATH}"
        )
        return
    fixture = build_fixture()
    _write(FIXTURE_PATH, fixture)
    print(f"wrote {len(fixture['scenarios'])} scenarios -> {FIXTURE_PATH}")


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
