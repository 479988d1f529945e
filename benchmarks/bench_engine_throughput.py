"""Engine micro-benchmark: edge traversals per second.

Not one of the paper's experiments, but the number every other benchmark's
wall-clock time depends on: how fast the asynchronous engine can drive agent
programs.  The instance is declared as a
:class:`~repro.runtime.spec.ScenarioSpec` and its graph, adversary and cost
model are resolved through the runtime's builders; the engine itself is then
driven *without* a rendezvous goal (a deliberate step below the problem
layer — the problem kinds all stop at their goal, while this benchmark must
burn its full traversal budget so every timed run does identical work).
"""

from __future__ import annotations

from repro.core.rendezvous import RendezvousController
from repro.runtime import ScenarioSpec
from repro.runtime.runner import build_graph, build_scheduler
from repro.sim import AgentSpec, AsyncEngine

from ._harness import record_bench

TRAVERSAL_BUDGET = 30_000

SPEC = ScenarioSpec(
    problem="rendezvous",
    family="ring",
    size=8,
    labels=(6, 11),
    starts=(0, 4),
    scheduler="round_robin",
    max_traversals=TRAVERSAL_BUDGET,
    on_cost_limit="return",
    name="engine-throughput",
)


def _drive_engine(sim_model):
    graph = build_graph(SPEC)
    engine = AsyncEngine(
        graph,
        [
            AgentSpec(
                RendezvousController("agent-1", SPEC.labels[0], sim_model), SPEC.starts[0]
            ),
            # No rendezvous goal and a far-away partner: the run always hits
            # the budget, so every timed run does the same amount of work.
            AgentSpec(
                RendezvousController("agent-2", SPEC.labels[1], sim_model), SPEC.starts[1]
            ),
        ],
        build_scheduler(SPEC),
        max_traversals=SPEC.max_traversals,
        on_cost_limit=SPEC.on_cost_limit,
    )
    return engine.run()


def test_engine_throughput(benchmark, sim_model):
    result = benchmark.pedantic(
        _drive_engine, args=(sim_model,), rounds=3, iterations=1
    )
    assert result.total_traversals >= TRAVERSAL_BUDGET
    seconds = benchmark.stats.stats.mean
    record_bench(benchmark.name, seconds, cells=result.total_traversals)
    print(f"\nengine throughput: {result.total_traversals / seconds:,.0f} traversals/s")
