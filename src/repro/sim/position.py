"""Exact positions of agents inside the embedded graph.

The paper's agents are points moving inside an embedding of the graph in
which every edge is a segment.  For meeting detection the only thing that
matters is *where on which edge* an agent is, so a position is either

* ``at node v``, or
* ``inside edge {u, w}`` at a parametric fraction measured from the endpoint
  with the smaller node id (the *canonical orientation*).

Fractions are :class:`fractions.Fraction` instances, so coincidence tests are
exact — the greedy meeting-avoiding adversary parks agents arbitrarily close
to one another and floating point would eventually misjudge a coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from ..exceptions import SimulationError
from ..graphs.port_graph import EdgeKey

__all__ = ["Position", "ZERO", "ONE"]

#: Shared Fraction constants; positions and sweeps compare against these
#: constantly, and creating fresh ``Fraction`` objects on every edge traversal
#: is measurably expensive.
ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Position:
    """An exact point of the embedding: a node, or an interior point of an edge.

    Exactly one of the following holds:

    * ``node is not None`` and ``edge is None`` — the agent is at a node;
    * ``edge is not None`` and ``0 < fraction < 1`` — the agent is strictly
      inside ``edge``, at ``fraction`` measured from ``edge[0]``.

    Positions with ``fraction`` equal to 0 or 1 are normalised to node
    positions by the constructors below, so equality of positions is exactly
    coincidence of points.
    """

    node: Optional[int] = None
    edge: Optional[EdgeKey] = None
    fraction: Optional[Fraction] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def at_node(node: int) -> "Position":
        """Return the position of node ``node``."""
        return Position(node=node, edge=None, fraction=None)

    @staticmethod
    def interior(edge: EdgeKey, fraction: Fraction) -> "Position":
        """Unchecked constructor for a point *strictly inside* ``edge``.

        The caller guarantees ``0 < fraction < 1`` in canonical orientation —
        the engine builds it from a parked agent's progress, which is
        strictly inside its edge, so re-validating and re-normalising it
        would be pure overhead.  Use :meth:`on_edge` whenever the fraction is
        not already proven interior.
        """
        return Position(node=None, edge=edge, fraction=fraction)

    @staticmethod
    def on_edge(edge: EdgeKey, fraction: Fraction) -> "Position":
        """Return the point at ``fraction`` (from ``edge[0]``) on ``edge``.

        Fractions 0 and 1 are normalised to the corresponding endpoint nodes.
        """
        fraction = Fraction(fraction)
        if fraction < 0 or fraction > 1:
            raise SimulationError(f"edge fraction {fraction} outside [0, 1]")
        if fraction == 0:
            return Position.at_node(edge[0])
        if fraction == 1:
            return Position.at_node(edge[1])
        return Position(node=None, edge=edge, fraction=fraction)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def is_at_node(self) -> bool:
        """Whether the position is a node (rather than an edge interior)."""
        return self.node is not None

    @property
    def is_inside_edge(self) -> bool:
        """Whether the position is strictly inside an edge."""
        return self.edge is not None

    def fraction_on(self, edge: EdgeKey) -> Optional[Fraction]:
        """Return this position as a fraction of ``edge`` (from ``edge[0]``).

        Returns ``None`` if the position does not lie on ``edge`` (including
        at-node positions at nodes that are not endpoints of ``edge``).
        """
        if self.edge is not None:
            return self.fraction if self.edge == edge else None
        if self.node == edge[0]:
            return ZERO
        if self.node == edge[1]:
            return ONE
        return None

    def describe(self) -> str:
        """Return a short human-readable description (for traces and errors)."""
        if self.is_at_node:
            return f"node {self.node}"
        return f"edge {self.edge} @ {self.fraction}"
