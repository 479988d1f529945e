"""Golden engine-record fixtures: pre-refactor records, pinned byte-for-byte.

``SCENARIOS`` samples every problem kind and every scheduler across several
graph families.  ``python -m tests.golden.gen_engine_records`` runs each
scenario twice (untraced and traced) and stores the results in
``engine_records.json``; the fixtures in the repository were generated by the
engine *before* the neighbor-index / integer-lattice refactor, so
``tests/test_engine_equivalence.py`` proves the refactored engine reproduces
the old engine's records exactly.

Two comparison granularities:

* **untraced** — the full ``RunRecord.to_dict()`` payload, compared as
  canonical JSON.  Byte-identical, no exceptions.
* **traced** — the record *minus* ``extra["trace"]`` (byte-identical), plus a
  deterministic projection of the trace: all events, the invariant counters
  (decision/traversal/meeting tallies — NOT the scan-cost counters, which the
  refactor intentionally changes), and the call counts of the stable spans
  (span *seconds* are wall-clock noise and never comparable).

The traced projections are those of the generic decision loop: its
per-decision spans and counters are what they pin.  A traced run under a
complete-traversal adversary takes the fused loop, which records the same
events and decision/traversal/meeting counters but no per-decision spans, so
the generator records (and the suite replays) the traced runs inside
:func:`generic_loop`.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple
from unittest import mock

import repro.sim.engine
from repro.runtime.spec import ScenarioSpec

FIXTURE_PATH = Path(__file__).resolve().parent / "engine_records.json"

#: Trace counters that must not change across the refactor: what the engine
#: *did* (decisions, traversals, meetings, sweeps), as opposed to what the
#: bookkeeping *cost* (``engine.fraction_ops`` and the ``*_agents_scanned``
#: counters, whose whole point is to shrink).
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
#: spans added by the refactor (e.g. an apply-phase breakdown) are allowed.
INVARIANT_SPANS = (
    "run",
    "engine.run",
    "engine.bootstrap",
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


@contextlib.contextmanager
def generic_loop() -> Iterator[None]:
    """Every engine run inside the block takes the generic decision loop.

    ``AsyncEngine.run`` picks its loop with ``takes_fused_loop`` alone, so
    patching that predicate is the one way to force the generic loop under an
    adversary the fused loop replays.
    """
    with mock.patch.object(
        repro.sim.engine, "takes_fused_loop", lambda scheduler, names: False
    ):
        yield


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
        with generic_loop():
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


def main() -> None:
    fixture = build_fixture()
    FIXTURE_PATH.write_text(
        json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(fixture['scenarios'])} scenarios -> {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
