#!/usr/bin/env python3
"""How much can the adversary hurt?  Rendezvous under different schedules.

The asynchronous adversary controls the speed of both agents.  This example
runs the same rendezvous instance (same graph, same labels, same start nodes)
under every adversary strategy shipped with the engine — fair round-robin,
random interleaving, starvation, delay-until-stop, and the greedy
meeting-avoiding adversary with increasing patience — and compares the
measured cost-to-meeting with the worst-case guarantee of Theorem 3.1, which
holds against *all* of them.

It also shows the contrast with the naive exponential baseline: the baseline
still meets (on this small instance) but its worst-case guarantee is
astronomically larger and it needs to know the size of the network.

Every run is a declarative :class:`~repro.runtime.spec.ScenarioSpec`; the
batch goes through :func:`~repro.runtime.executors.run_sweep`, the same
facade used by ``repro sweep`` and the experiment drivers.

Run with::

    python examples/adversarial_schedules.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.exploration.cost_model import SimulationCostModel
from repro.runtime import ScenarioSpec
from repro.runtime.executors import run_sweep

ADVERSARIES = [
    ("round robin (fair)", "round_robin", {}),
    ("random interleaving", "random", {"seed": 2}),
    ("starve agent 1 for 200 moves", "lazy", {"starved": "agent-1", "release_after": 200}),
    ("delay agent 2 until agent 1 stops", "delay_until_stop", {}),
    ("greedy avoider, patience 16", "avoider", {"patience": 16}),
    ("greedy avoider, patience 256", "avoider", {"patience": 256}),
]


def main() -> None:
    labels = (6, 11)
    # The registered erdos_renyi family fixes the edge probability at 0.4,
    # so this instance is denser than the historical example's p=0.3 graph;
    # the adversary ranking it illustrates is the same.
    base = ScenarioSpec(
        family="erdos_renyi",
        size=9,
        seed=4,
        labels=labels,
        starts=(0, 5),
        max_traversals=1_000_000,
    )

    cells = [
        base.replace(problem=problem, scheduler=scheduler, scheduler_params=params)
        for _, scheduler, params in ADVERSARIES
        for problem in ("rendezvous", "baseline")
    ]
    result = run_sweep(cells)

    rows = []
    names = [name for name, _, _ in ADVERSARIES for _ in ("rv", "baseline")]
    for name, record in zip(names, result):
        algorithm = "RV-asynch-poly" if record.problem == "rendezvous" else "baseline (knows n)"
        rows.append([name, algorithm, record.ok, record.cost, record.decisions])

    graph_name = result[0].graph_name
    print(f"instance: {graph_name}, labels {labels}, start nodes 0 and 5\n")
    print(format_table(["adversary", "algorithm", "met", "cost", "decisions"], rows))

    n = result[0].graph_size
    smaller = min(labels)
    # The cells' cost model is the spec default, "simulation".
    model = SimulationCostModel()
    print()
    print("worst-case guarantees for this instance (hold against ANY adversary):")
    print(f"  RV-asynch-poly:  Π(n, |{smaller}|) = {model.pi_bound(n, smaller.bit_length()):,}")
    print(f"  baseline:        (2P(n)+1)^{smaller} · 2P(n) = "
          f"{model.baseline_trajectory_length(n, smaller):,}")


if __name__ == "__main__":
    main()
