"""Incrementally maintained index: where is everybody, by node and by edge.

The pre-index engine answered "who can the mover meet on this edge?" by
scanning *every* agent and asking each position whether it lies on the edge —
O(agents) exact-arithmetic work per decision.  The :class:`NeighborIndex`
maintains the inverse maps instead:

* ``node_occupants`` — node id → set of agent names standing at that node;
* ``frames`` — edge key → :class:`~repro.sim.lattice.EdgeFrame` holding the
  edge's interior occupants on an integer lattice.

A sweep over edge ``{u, w}`` then consults exactly three buckets: the edge's
frame (interior coincidences), and the two endpoint occupant sets (arrival
meetings) — agents anywhere else cannot possibly lie on the edge.  While some
agent is parked inside an edge, the index is the engine's single source of
truth for *where agents are*; the engine mutates it in lockstep with every
position change (partial advance, traversal completion), and nowhere else.
While nobody is parked, the engine keeps agents in a flat node array instead
and rebuilds the node buckets from it on leaving it.  Either way these
invariants hold whenever the index is read:

* an agent is in exactly one bucket: one node set, or one frame;
* frame numerators are canonical (measured from the smaller-id endpoint) and
  strictly interior (``0 < num < den``) — endpoint coincidences are node
  occupancies by normalisation, exactly mirroring
  :meth:`repro.sim.position.Position.on_edge`;
* a frame exists iff its edge has at least one interior occupant, so idle
  edges cost nothing and lattice denominators never outlive the occupancy
  that introduced them.

``updates`` counts index mutations; the per-frame rescale counts aggregate the
lattice maintenance — together they are the engine's "index maintenance"
lattice-op tally, reported next to the comparison counts in traces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Set

from ..graphs.port_graph import EdgeKey
from .lattice import EdgeFrame

__all__ = ["NeighborIndex"]


class NeighborIndex:
    """Node- and edge-occupancy maps, updated as agents move."""

    __slots__ = ("node_occupants", "frames", "updates", "_dropped_rescales", "_where")

    def __init__(self) -> None:
        self.node_occupants: Dict[int, Set[str]] = {}
        self.frames: Dict[EdgeKey, EdgeFrame] = {}
        self.updates = 0
        self._dropped_rescales = 0
        #: agent name -> node id (an ``int``) or edge key (a ``tuple``).  The
        #: two location kinds are told apart by type, which spares one tuple
        #: allocation per placement on the engine's hot path.
        self._where: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def set_node(self, name: str, node: int) -> None:
        """Record that ``name`` now stands at ``node``."""
        self._remove(name)
        occupants = self.node_occupants.get(node)
        if occupants is None:
            self.node_occupants[node] = {name}
        else:
            occupants.add(name)
        self._where[name] = node
        self.updates += 1

    def set_edge(self, name: str, edge: EdgeKey, num: int, den: int) -> Fraction:
        """Record that ``name`` is at canonical fraction ``num/den`` of ``edge``.

        Returns the materialised canonical :class:`Fraction` (memoised by the
        frame), which the engine stores in the agent's visible position.
        """
        where = self._where.get(name)
        if where is not edge and where != edge:
            self._remove(name)
            self._where[name] = edge
        frame = self.frames.get(edge)
        if frame is None:
            frame = self.frames[edge] = EdgeFrame()
        scaled = frame.place(name, num, den)
        self.updates += 1
        return frame.fraction(scaled)

    def remove(self, name: str) -> None:
        """Forget ``name`` entirely (not used by the engine; for tooling)."""
        self._remove(name)
        self._where.pop(name, None)

    def _remove(self, name: str) -> None:
        where = self._where.get(name)
        if where is None:
            return
        if where.__class__ is tuple:
            frame = self.frames.get(where)
            if frame is not None:
                frame.occupants.pop(name, None)
                if not frame.occupants:
                    self._dropped_rescales += frame.rescales
                    del self.frames[where]
        else:
            occupants = self.node_occupants.get(where)
            if occupants is not None:
                occupants.discard(name)
                if not occupants:
                    del self.node_occupants[where]

    # ------------------------------------------------------------------
    # queries (simulator/tooling side; the engine reads the maps directly)
    # ------------------------------------------------------------------
    def at_node(self, node: int) -> frozenset:
        """Names of the agents standing at ``node``."""
        return frozenset(self.node_occupants.get(node, ()))

    def rescales(self) -> int:
        """Total lattice rescales, including frames already dropped."""
        live = sum(frame.rescales for frame in self.frames.values())
        return self._dropped_rescales + live
