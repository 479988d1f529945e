"""Engine microbenchmark: decisions/sec and lattice ops per decision.

The whole-table sweeps (E1–E6) measure the stack end to end; this file
ratchets the engine loop itself, so a regression in the hot path shows up in
``BENCH_results.json`` even when the experiment drivers mask it.  Three
adversaries cover the two execution paths:

* ``round_robin`` and ``random`` — complete traversals only; the engine runs
  its fused complete-traversal loop, where occupancy lives in a flat node
  array.  The two differ only in how the loop picks the mover (a cursor
  versus one generator draw over the eligible agents).
* ``avoider`` — partial advances chosen through ``max_safe_advance``; agents
  sit strictly inside edges, so every decision exercises the per-edge integer
  lattices of the neighbor index.

Both runs burn a fixed traversal budget with no rendezvous goal, so every
timed run does identical work.  "Lattice ops" is the index-maintenance tally:
occupancy updates plus lattice rescales (the same quantities traced runs
report as ``engine.index_updates`` / ``engine.lattice_rescales``).
"""

from __future__ import annotations

import time

from repro.core.rendezvous import RendezvousController
from repro.runtime import ScenarioSpec
from repro.runtime.runner import build_graph, build_scheduler
from repro.sim import AgentSpec, AsyncEngine

from ._harness import emit, record_bench

TRAVERSAL_BUDGET = 20_000


def _spec(scheduler: str) -> ScenarioSpec:
    return ScenarioSpec(
        problem="rendezvous",
        family="ring",
        size=8,
        labels=(6, 11),
        starts=(0, 4),
        scheduler=scheduler,
        scheduler_params=(("patience", 4),) if scheduler == "avoider" else (),
        max_traversals=TRAVERSAL_BUDGET,
        on_cost_limit="return",
        name=f"engine-decisions-{scheduler}",
    )


def _drive(scheduler: str, sim_model):
    spec = _spec(scheduler)
    engine = AsyncEngine(
        build_graph(spec),
        [
            AgentSpec(
                RendezvousController("agent-1", spec.labels[0], sim_model),
                spec.starts[0],
            ),
            # No rendezvous goal: the run always exhausts its budget.
            AgentSpec(
                RendezvousController("agent-2", spec.labels[1], sim_model),
                spec.starts[1],
            ),
        ],
        build_scheduler(spec),
        max_traversals=spec.max_traversals,
        on_cost_limit=spec.on_cost_limit,
    )
    return engine, engine.run()


def _measure(benchmark, scheduler: str, sim_model) -> str:
    timing: dict = {}

    def timed():
        started = time.perf_counter()
        engine, result = _drive(scheduler, sim_model)
        timing["seconds"] = time.perf_counter() - started
        return engine, result

    engine, result = benchmark.pedantic(timed, rounds=1, iterations=1)
    seconds = timing["seconds"]
    index = engine.neighbor_index
    lattice_ops = index.updates + index.rescales()
    decisions = result.decisions
    per_decision = lattice_ops / decisions if decisions else 0.0
    record_bench(
        benchmark.name,
        seconds,
        cells=decisions,
        extra={
            "lattice_ops": lattice_ops,
            "lattice_ops_per_decision": round(per_decision, 4),
        },
    )
    line = (
        f"{scheduler}: {decisions} decisions in {seconds:.3f}s "
        f"({decisions / seconds:,.0f} decisions/s), "
        f"{lattice_ops} lattice ops ({per_decision:.3f} per decision)"
    )
    assert result.total_traversals >= TRAVERSAL_BUDGET
    assert decisions > 0
    return line


def test_engine_decisions_round_robin(benchmark, sim_model):
    line = _measure(benchmark, "round_robin", sim_model)
    emit("engine_decisions_round_robin", line)


def test_engine_decisions_random(benchmark, sim_model):
    line = _measure(benchmark, "random", sim_model)
    emit("engine_decisions_random", line)


def test_engine_decisions_avoider(benchmark, sim_model):
    line = _measure(benchmark, "avoider", sim_model)
    emit("engine_decisions_avoider", line)
