"""Anonymous port-labeled graphs — the network model of the paper.

The paper models the network as a finite simple undirected connected graph
whose *nodes are unlabeled*, but where the edges incident to a node ``v`` have
distinct local labels in ``{0, ..., deg(v) - 1}`` called *port numbers*.
Every undirected edge ``{u, v}`` therefore carries two port numbers, one at
``u`` and one at ``v``, and there is no relation between them.

Agents navigating the graph never observe node identities; they only learn the
degree of the node they are at and the port by which they entered it.  Node
identifiers in this module exist purely for the benefit of the simulator and
of test code — the agent-facing API (:mod:`repro.sim`) never exposes them.

The central class is :class:`PortLabeledGraph`.  Graphs are immutable once
built; use :class:`PortGraphBuilder` (or the family constructors in
:mod:`repro.graphs.families`) to create them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import GraphError, InvalidPortError

__all__ = [
    "EdgeKey",
    "PortLabeledGraph",
    "PortGraphBuilder",
    "edge_key",
]

#: Canonical identifier of an undirected edge: the pair of endpoint ids with
#: the smaller id first.  Used throughout the simulator to refer to edges
#: independently of traversal direction.
EdgeKey = Tuple[int, int]


def edge_key(u: int, v: int) -> EdgeKey:
    """Return the canonical (sorted) key of the undirected edge ``{u, v}``."""
    if u == v:
        raise GraphError(f"self-loops are not allowed (node {u})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class _HalfEdge:
    """One direction of an undirected edge, as seen from its source node."""

    source: int
    target: int
    port_at_source: int
    port_at_target: int

    @property
    def key(self) -> EdgeKey:
        return edge_key(self.source, self.target)


class PortLabeledGraph:
    """An immutable, connected, simple, undirected port-labeled graph.

    Parameters
    ----------
    adjacency:
        Mapping ``node -> list of (neighbour, port_at_neighbour)`` indexed by
        local port: ``adjacency[v][i]`` is the pair ``(u, j)`` such that the
        edge with port ``i`` at ``v`` leads to node ``u`` and has port ``j``
        at ``u``.
    name:
        Optional human-readable name (e.g. ``"ring(8)"``), used in reports.

    Notes
    -----
    The constructor validates the whole structure: ports must form a
    contiguous range at every node, the port labeling must be symmetric
    (if port ``i`` at ``v`` leads to ``u`` with port ``j``, then port ``j`` at
    ``u`` must lead back to ``v`` with port ``i``), the graph must be simple
    and connected.  Construction is ``O(n + m)``.
    """

    __slots__ = ("_adjacency", "_name", "_edges", "_half_edges", "_degrees")

    def __init__(
        self,
        adjacency: Dict[int, Sequence[Tuple[int, int]]],
        name: str = "graph",
    ) -> None:
        if not adjacency:
            raise GraphError("a graph must have at least one node")
        self._name = name
        self._adjacency: Dict[int, Tuple[Tuple[int, int], ...]] = {
            node: tuple(neigh) for node, neigh in adjacency.items()
        }
        self._degrees: Dict[int, int] = {
            node: len(neigh) for node, neigh in self._adjacency.items()
        }
        self._half_edges: Dict[Tuple[int, int], _HalfEdge] = {}
        self._edges: FrozenSet[EdgeKey] = frozenset()
        self._validate_and_index()

    # ------------------------------------------------------------------
    # construction-time validation
    # ------------------------------------------------------------------
    def _validate_and_index(self) -> None:
        edges = set()
        half_edges: Dict[Tuple[int, int], _HalfEdge] = {}
        nodes = set(self._adjacency)
        for v, neighbours in self._adjacency.items():
            seen_targets = set()
            for port, entry in enumerate(neighbours):
                if not (isinstance(entry, tuple) and len(entry) == 2):
                    raise GraphError(
                        f"adjacency[{v}][{port}] must be a (neighbour, port) pair"
                    )
                u, back_port = entry
                if u not in nodes:
                    raise GraphError(f"node {v} references unknown neighbour {u}")
                if u == v:
                    raise GraphError(f"self-loop at node {v} is not allowed")
                if u in seen_targets:
                    raise GraphError(
                        f"multiple edges between {v} and {u} are not allowed"
                    )
                seen_targets.add(u)
                # Check symmetry of the port labeling.
                back_neighbours = self._adjacency[u]
                if not (0 <= back_port < len(back_neighbours)):
                    raise InvalidPortError(
                        f"port {back_port} at node {u} is out of range "
                        f"(degree {len(back_neighbours)})"
                    )
                back_target, back_back_port = back_neighbours[back_port]
                if back_target != v or back_back_port != port:
                    raise GraphError(
                        f"port labeling is not symmetric on edge {{{u}, {v}}}: "
                        f"port {port} at {v} -> ({u}, {back_port}) but "
                        f"port {back_port} at {u} -> ({back_target}, {back_back_port})"
                    )
                half_edges[(v, port)] = _HalfEdge(
                    source=v, target=u, port_at_source=port, port_at_target=back_port
                )
                edges.add(edge_key(u, v))
        self._edges = frozenset(edges)
        self._half_edges = half_edges
        self._check_connected()

    def _check_connected(self) -> None:
        nodes = list(self._adjacency)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            v = stack.pop()
            for (u, _port) in self._adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(nodes):
            missing = sorted(set(nodes) - seen)
            raise GraphError(
                f"graph is not connected; unreachable nodes: {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable name of the graph (used in reports and tables)."""
        return self._name

    @property
    def size(self) -> int:
        """Number of nodes — called the *size* of the graph in the paper."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._edges)

    def nodes(self) -> Iterator[int]:
        """Iterate over node identifiers (simulator-side only)."""
        return iter(self._adjacency)

    def edges(self) -> Iterator[EdgeKey]:
        """Iterate over canonical undirected edge keys."""
        return iter(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``{u, v}`` exists."""
        return edge_key(u, v) in self._edges

    def degree(self, v: int) -> int:
        """Return the degree of node ``v``."""
        try:
            return self._degrees[v]
        except KeyError:
            raise GraphError(f"unknown node {v}") from None

    def max_degree(self) -> int:
        """Return the maximum degree over all nodes."""
        return max(self._degrees.values())

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def succ(self, v: int, port: int) -> int:
        """Return ``succ(v, i)``: the neighbour of ``v`` behind port ``port``.

        This is the paper's ``succ`` function (§1, "The model").
        """
        half = self._half_edge(v, port)
        return half.target

    def traverse(self, v: int, port: int) -> Tuple[int, int]:
        """Traverse the edge with port ``port`` at ``v``.

        Returns the pair ``(u, entry_port)`` where ``u = succ(v, port)`` and
        ``entry_port`` is the port number of the same edge at ``u`` — exactly
        the information an agent acquires when entering a node.
        """
        half = self._half_edge(v, port)
        return half.target, half.port_at_target

    def port_towards(self, v: int, u: int) -> int:
        """Return the port at ``v`` of the edge ``{v, u}``.

        Raises :class:`GraphError` if ``u`` is not a neighbour of ``v``.  This
        is a simulator-side convenience (agents cannot call it, because they
        do not see node identities).
        """
        for port, (target, _back) in enumerate(self._adjacency[v]):
            if target == u:
                return port
        raise GraphError(f"{u} is not a neighbour of {v}")

    def neighbours(self, v: int) -> List[int]:
        """Return the neighbours of ``v`` in port order."""
        return [target for (target, _back) in self._adjacency[v]]

    def adjacency(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """The validated adjacency table: node → ``(neighbour, entry_port)`` per port.

        ``adjacency()[v][p]`` is exactly ``traverse(v, p)`` — the constructor
        proved the two agree — as one dict lookup and one tuple index.  Hot
        loops (the engine's action handler, the stand-alone ESST driver)
        resolve ports through this table instead of paying per-step validation.
        The tuples are immutable; callers must treat the dict as read-only.
        """
        return self._adjacency

    def _half_edge(self, v: int, port: int) -> _HalfEdge:
        if v not in self._adjacency:
            raise GraphError(f"unknown node {v}")
        degree = self._degrees[v]
        if not (0 <= port < degree):
            raise InvalidPortError(
                f"port {port} is invalid at node {v} (degree {degree})"
            )
        return self._half_edges[(v, port)]

    # ------------------------------------------------------------------
    # structural analysis helpers (simulator / test side)
    # ------------------------------------------------------------------
    def shortest_path_lengths(self, source: int) -> Dict[int, int]:
        """Return BFS distances from ``source`` to every node."""
        if source not in self._adjacency:
            raise GraphError(f"unknown node {source}")
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt: List[int] = []
            for v in frontier:
                for (u, _back) in self._adjacency[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    def diameter(self) -> int:
        """Return the diameter (longest shortest path) of the graph."""
        best = 0
        for v in self._adjacency:
            dist = self.shortest_path_lengths(v)
            best = max(best, max(dist.values()))
        return best

    def is_regular(self) -> bool:
        """Return whether all nodes have the same degree."""
        degrees = set(self._degrees.values())
        return len(degrees) == 1

    def relabeled(self, mapping: Dict[int, int], name: Optional[str] = None) -> "PortLabeledGraph":
        """Return an isomorphic copy with node ids replaced via ``mapping``.

        Port numbers are preserved, so the copy is indistinguishable from the
        original for any agent (agents never see node ids).  Useful for
        property tests asserting that algorithms are oblivious to node
        identities.
        """
        if set(mapping) != set(self._adjacency):
            raise GraphError("mapping must cover exactly the nodes of the graph")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("mapping must be injective")
        new_adj: Dict[int, List[Tuple[int, int]]] = {}
        for v, neighbours in self._adjacency.items():
            new_adj[mapping[v]] = [(mapping[u], back) for (u, back) in neighbours]
        return PortLabeledGraph(new_adj, name=name or f"{self._name}~relabel")

    # ------------------------------------------------------------------
    # dunder methods
    # ------------------------------------------------------------------
    def __contains__(self, node: int) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PortLabeledGraph(name={self._name!r}, nodes={self.size}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __hash__(self) -> int:
        return hash(tuple(sorted((v, tuple(adj)) for v, adj in self._adjacency.items())))


class PortGraphBuilder:
    """Incremental builder of :class:`PortLabeledGraph` instances.

    Ports are assigned in the order edges are added at each endpoint: the
    first edge added at a node gets port 0 there, the next port 1, and so on.
    This matches the usual convention for constructing port-labeled test
    graphs, and the resulting numbering can afterwards be permuted with
    :meth:`PortLabeledGraph.relabeled` or by shuffling insertion order.

    Example
    -------
    >>> builder = PortGraphBuilder(name="triangle")
    >>> for u, v in [(0, 1), (1, 2), (2, 0)]:
    ...     builder.add_edge(u, v)
    >>> graph = builder.build()
    >>> graph.size
    3
    """

    def __init__(self, name: str = "graph") -> None:
        self._name = name
        self._adjacency: Dict[int, List[Tuple[int, int]]] = {}

    def add_node(self, v: int) -> "PortGraphBuilder":
        """Declare a node (no-op if already present). Returns ``self``."""
        self._adjacency.setdefault(v, [])
        return self

    def add_edge(self, u: int, v: int) -> "PortGraphBuilder":
        """Add the undirected edge ``{u, v}``, assigning the next free ports.

        Returns ``self`` so calls can be chained.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u})")
        self.add_node(u)
        self.add_node(v)
        for (target, _p) in self._adjacency[u]:
            if target == v:
                raise GraphError(f"edge {{{u}, {v}}} already present")
        port_at_u = len(self._adjacency[u])
        port_at_v = len(self._adjacency[v])
        self._adjacency[u].append((v, port_at_v))
        self._adjacency[v].append((u, port_at_u))
        return self

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> "PortGraphBuilder":
        """Add every edge in ``edges``. Returns ``self``."""
        for u, v in edges:
            self.add_edge(u, v)
        return self

    def build(self) -> PortLabeledGraph:
        """Validate and return the finished immutable graph."""
        return PortLabeledGraph(self._adjacency, name=self._name)
