#!/usr/bin/env python3
"""Quickstart: two agents meet asynchronously in an unknown network.

Two mobile agents with labels 6 and 11 are dropped at different nodes of an
8-node ring they know nothing about — not even its size.  An adversary
controls how fast each of them moves.  Both run Algorithm RV-asynch-poly (the
paper's main contribution); the scenario runtime reports where they met and
how many edge traversals it cost, and compares that with the worst-case
guarantee Π(n, |L_min|) of Theorem 3.1.

The whole scenario is one declarative spec — the same object could be saved
as JSON and replayed with ``repro run --spec``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.exploration.cost_model import SimulationCostModel
from repro.runtime import ScenarioSpec
from repro.runtime.runner import run


def main() -> None:
    spec = ScenarioSpec(
        problem="rendezvous",
        family="ring",
        size=8,
        labels=(6, 11),
        starts=(0, 4),
        scheduler="avoider",
        scheduler_params={"patience": 64},
    )
    record = run(spec)

    print(f"network: {record.graph_name} with {record.graph_size} nodes and {record.graph_edges} edges")
    print(f"agents:  label {spec.labels[0]} at node {spec.starts[0]}, label {spec.labels[1]} at node {spec.starts[1]}")
    print("adversary: greedy meeting-avoiding scheduler (patience 64)")
    print()

    extra = record.extra_dict
    where = (
        f"node {extra['meeting_node']}"
        if extra["meeting_node"] is not None
        else f"inside edge {tuple(extra['meeting_edge'])}"
    )
    smaller_length = min(label.bit_length() for label in spec.labels)
    # The spec's default cost model is "simulation"; ask it for the bound.
    bound = SimulationCostModel().pi_bound(record.graph_size, smaller_length)

    print(f"met:                 {record.ok} ({where})")
    print(f"measured cost:       {record.cost} edge traversals")
    print(f"per agent:           {extra['traversals_by_agent']}")
    print(f"Theorem 3.1 bound:   Π({record.graph_size}, {smaller_length}) = {bound:,} traversals")
    print()
    print("The agents met long before the worst-case guarantee — the guarantee is")
    print("what holds against *any* adversary, however the speeds are manipulated.")


if __name__ == "__main__":
    main()
