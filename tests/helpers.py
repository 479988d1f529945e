"""Test helpers: a minimal single-agent driver for walk generators.

Several tests need to execute a walk generator (a trajectory construction,
Procedure ESST, an agent program) against a known graph without involving the
asynchronous engine or an adversary.  :func:`drive_walk` is that driver: it
feeds observations to the generator, records the walk, and returns what the
generator returned.  :func:`golden` reads the byte-exact golden tables
under ``tests/golden/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from repro.graphs.port_graph import PortLabeledGraph, edge_key
from repro.sim.actions import Move, Observation, Stop

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden(name: str) -> str:
    """The golden table ``tests/golden/<name>.txt``, without its final newline."""
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").rstrip("\n")


@dataclass
class DrivenWalk:
    """Everything that happened while driving a walk generator."""

    nodes: List[int] = field(default_factory=list)
    ports: List[int] = field(default_factory=list)
    entry_ports: List[int] = field(default_factory=list)
    return_value: Any = None
    stopped_explicitly: bool = False

    @property
    def length(self) -> int:
        """Number of edge traversals performed."""
        return len(self.ports)

    @property
    def start(self) -> int:
        return self.nodes[0]

    @property
    def end(self) -> int:
        return self.nodes[-1]

    @property
    def traversed_edges(self) -> frozenset:
        return frozenset(
            edge_key(self.nodes[i], self.nodes[i + 1]) for i in range(len(self.ports))
        )


def drive_walk(
    graph: PortLabeledGraph,
    start: int,
    factory: Callable[[Observation], Any],
    max_moves: Optional[int] = None,
) -> DrivenWalk:
    """Execute a walk generator against ``graph`` starting at ``start``.

    ``factory(initial_observation)`` must return a generator that yields
    :class:`Move` / :class:`Stop` actions and receives observations.  The walk
    runs until the generator returns, yields ``Stop``, or ``max_moves`` edge
    traversals have been made (in which case the walk is truncated and
    ``return_value`` stays ``None``).
    """
    record = DrivenWalk(nodes=[start])
    current = start
    entry: Optional[int] = None
    traversals = 0

    def observe() -> Observation:
        return Observation(
            degree=graph.degree(current), entry_port=entry, traversals=traversals
        )

    program = factory(observe())
    try:
        action = next(program)
        while True:
            if isinstance(action, Stop):
                record.stopped_explicitly = True
                break
            if not isinstance(action, Move):
                raise AssertionError(f"unexpected action {action!r}")
            target, entry_port = graph.traverse(current, action.port)
            record.ports.append(action.port)
            record.entry_ports.append(entry_port)
            record.nodes.append(target)
            current = target
            entry = entry_port
            traversals += 1
            if max_moves is not None and traversals >= max_moves:
                break
            action = program.send(observe())
    except StopIteration as stop:
        record.return_value = stop.value
    return record
