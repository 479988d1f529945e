"""T1: the tick-asynchronous leader-election experiment, plus a tick-engine
micro-benchmark.

``test_t1_tick_leader`` regenerates the registered T1 table (leader election
on rings under the seeded-random interleaver, with and without crash
faults) through the same ``run_experiment`` driver as the E-series
benchmarks, so the perf gate's throughput baseline covers the tick engine's
whole stack: interleaver, fault plan, data collector and aggregation.

``test_tick_engine_throughput`` steps below the problem layer — random
walkers driven for a fixed tick budget with *no* goal predicate, so every
timed run does identical work — and reports ticks per second.
"""

from __future__ import annotations

import random

from repro.analysis.experiment_spec import experiment_spec, run_experiment
from repro.runtime import INTERLEAVERS, ScenarioSpec
from repro.runtime.runner import build_graph
from repro.ticksim import FaultPlan, TickAgent, TickEngine

from ._harness import emit, record_bench, run_once

TICK_BUDGET = 3_000


def test_t1_tick_leader(benchmark):
    spec = experiment_spec("T1")
    result = run_once(benchmark, run_experiment, spec)
    emit("t1_tick_leader", result.render())
    # Consensus is guaranteed only in the fault-free half of the grid.
    fault_free = [row for row in result.rows if row["fault_rate"] == 0.0]
    assert fault_free and all(row["consensus"] for row in fault_free)


class _Walker(TickAgent):
    """Minimal mobile agent: one seeded random step per activation."""

    def __init__(self, agent_id: int, node: int, seed: int) -> None:
        super().__init__(agent_id, node)
        self._rng = random.Random(f"{seed}:bench-walk:{agent_id}")

    def on_activate(self, ctx) -> None:
        ctx.move(self._rng.randrange(ctx.degree))


def _drive_ticks():
    spec = ScenarioSpec(
        problem="tick_gathering", family="ring", size=16, name="tick-throughput"
    )
    graph = build_graph(spec)
    agents = [_Walker(index, index, spec.seed) for index in range(4)]
    engine = TickEngine(
        graph,
        agents,
        interleaver=INTERLEAVERS.create("random", seed=spec.seed),
        faults=FaultPlan.from_params({}, n_agents=4, seed=spec.seed, max_ticks=TICK_BUDGET),
        max_ticks=TICK_BUDGET,
    )
    # No goal: the run always burns the full tick budget.
    return engine.run()


def test_tick_engine_throughput(benchmark):
    result = benchmark.pedantic(_drive_ticks, rounds=3, iterations=1)
    assert result.reason == "tick_limit" and result.ticks == TICK_BUDGET
    seconds = benchmark.stats.stats.mean
    record_bench(benchmark.name, seconds, cells=result.ticks)
    print(f"\ntick engine throughput: {result.ticks / seconds:,.0f} ticks/s")
