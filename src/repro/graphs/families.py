"""Standard graph families used by the test suite and the benchmarks.

Every constructor returns a :class:`~repro.graphs.port_graph.PortLabeledGraph`
whose port numbering is deterministic, so that experiments are reproducible.
An optional ``rng_seed`` (where applicable) controls the randomised families.

The families cover the situations the paper's analysis cares about:

* ``ring`` / ``oriented_ring`` — the classic hard case for symmetry breaking
  (an oriented ring is the paper's example of a graph where a single agent
  cannot even detect it is alone).
* ``path``, ``star``, ``complete_graph``, ``binary_tree``, ``grid``,
  ``hypercube`` — structured topologies of varying degree and diameter.
* ``lollipop`` — the worst case for random-walk cover time, used to stress
  the pseudo-UXS coverage.
* ``random_connected`` (Erdős–Rényi conditioned on connectivity) and
  ``random_regular`` — irregular and regular random instances.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import GraphError
from ..runtime.registry import GRAPH_FAMILIES
from .port_graph import PortGraphBuilder, PortLabeledGraph

__all__ = [
    "ring",
    "oriented_ring",
    "path",
    "star",
    "complete_graph",
    "binary_tree",
    "grid",
    "torus",
    "hypercube",
    "lollipop",
    "barbell",
    "random_connected",
    "random_regular",
    "random_tree",
]


def ring(n: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return a cycle on ``n >= 3`` nodes with builder-assigned ports."""
    if n < 3:
        raise GraphError("a ring needs at least 3 nodes")
    builder = PortGraphBuilder(name=name or f"ring({n})")
    builder.add_edges((i, (i + 1) % n) for i in range(n))
    return builder.build()


def oriented_ring(n: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return a *consistently oriented* ring: port 0 is clockwise at every node.

    This is the paper's canonical example (footnote in §4) of a symmetric
    graph in which a single agent can never discover it is alone.
    """
    if n < 3:
        raise GraphError("a ring needs at least 3 nodes")
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for i in range(n):
        clockwise = (i + 1) % n
        counter = (i - 1) % n
        # port 0 -> clockwise neighbour (entering it by its port 1),
        # port 1 -> counter-clockwise neighbour (entering it by its port 0).
        adjacency[i] = [(clockwise, 1), (counter, 0)]
    return PortLabeledGraph(adjacency, name=name or f"oriented_ring({n})")


def path(n: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return a simple path on ``n >= 2`` nodes."""
    if n < 2:
        raise GraphError("a path needs at least 2 nodes")
    builder = PortGraphBuilder(name=name or f"path({n})")
    builder.add_edges((i, i + 1) for i in range(n - 1))
    return builder.build()


def star(n: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return a star with one centre (node 0) and ``n - 1`` leaves."""
    if n < 2:
        raise GraphError("a star needs at least 2 nodes")
    builder = PortGraphBuilder(name=name or f"star({n})")
    builder.add_edges((0, i) for i in range(1, n))
    return builder.build()


def complete_graph(n: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return the complete graph ``K_n`` for ``n >= 2``."""
    if n < 2:
        raise GraphError("a complete graph needs at least 2 nodes")
    builder = PortGraphBuilder(name=name or f"complete({n})")
    builder.add_edges((i, j) for i in range(n) for j in range(i + 1, n))
    return builder.build()


def binary_tree(n: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return the first ``n`` nodes of a complete binary tree (heap layout)."""
    if n < 2:
        raise GraphError("a tree needs at least 2 nodes")
    builder = PortGraphBuilder(name=name or f"binary_tree({n})")
    builder.add_edges((((i + 1) // 2) - 1, i) for i in range(1, n))
    return builder.build()


def grid(rows: int, cols: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return a ``rows x cols`` grid (4-neighbour mesh, no wraparound)."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError("a grid needs at least 2 nodes")
    builder = PortGraphBuilder(name=name or f"grid({rows}x{cols})")

    def node(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    builder.add_edges(edges)
    return builder.build()


def torus(rows: int, cols: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return a ``rows x cols`` torus (grid with wraparound); needs both >= 3."""
    if rows < 3 or cols < 3:
        raise GraphError("a torus needs rows >= 3 and cols >= 3")
    builder = PortGraphBuilder(name=name or f"torus({rows}x{cols})")

    def node(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((node(r, c), node(r, (c + 1) % cols)))
            edges.append((node(r, c), node((r + 1) % rows, c)))
    builder.add_edges(edges)
    return builder.build()


def hypercube(dimension: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return the ``dimension``-dimensional hypercube (2^dimension nodes)."""
    if dimension < 1:
        raise GraphError("hypercube dimension must be >= 1")
    n = 1 << dimension
    builder = PortGraphBuilder(name=name or f"hypercube({dimension})")
    builder.add_edges(
        (v, v ^ (1 << bit)) for v in range(n) for bit in range(dimension) if v < (v ^ (1 << bit))
    )
    return builder.build()


def lollipop(clique_size: int, tail_length: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return a lollipop graph: a clique with a path ("tail") attached.

    Lollipops maximise random-walk cover time and are therefore the stress
    test for the pseudo-UXS coverage guarantees.
    """
    if clique_size < 3:
        raise GraphError("lollipop clique must have at least 3 nodes")
    if tail_length < 1:
        raise GraphError("lollipop tail must have at least 1 node")
    builder = PortGraphBuilder(name=name or f"lollipop({clique_size},{tail_length})")
    builder.add_edges(
        (i, j) for i in range(clique_size) for j in range(i + 1, clique_size)
    )
    previous = 0
    for t in range(tail_length):
        tail_node = clique_size + t
        builder.add_edge(previous, tail_node)
        previous = tail_node
    return builder.build()


def barbell(clique_size: int, bridge_length: int, name: Optional[str] = None) -> PortLabeledGraph:
    """Return two cliques of ``clique_size`` nodes joined by a path."""
    if clique_size < 3:
        raise GraphError("barbell cliques must have at least 3 nodes")
    if bridge_length < 1:
        raise GraphError("barbell bridge must have at least 1 edge")
    builder = PortGraphBuilder(name=name or f"barbell({clique_size},{bridge_length})")
    offset = clique_size + bridge_length - 1
    builder.add_edges(
        (i, j) for i in range(clique_size) for j in range(i + 1, clique_size)
    )
    builder.add_edges(
        (offset + i, offset + j)
        for i in range(clique_size)
        for j in range(i + 1, clique_size)
    )
    previous = 0
    for t in range(bridge_length - 1):
        bridge_node = clique_size + t
        builder.add_edge(previous, bridge_node)
        previous = bridge_node
    builder.add_edge(previous, offset)
    return builder.build()


def random_connected(
    n: int,
    edge_probability: float = 0.4,
    rng_seed: int = 0,
    name: Optional[str] = None,
) -> PortLabeledGraph:
    """Return a connected Erdős–Rényi-style graph on ``n`` nodes.

    A uniform random spanning tree guarantees connectivity; each remaining
    pair of nodes is joined independently with probability
    ``edge_probability``.  The construction is fully determined by
    ``rng_seed``.
    """
    if n < 2:
        raise GraphError("a random connected graph needs at least 2 nodes")
    if not (0.0 <= edge_probability <= 1.0):
        raise GraphError("edge_probability must lie in [0, 1]")
    rng = random.Random(("random_connected", n, edge_probability, rng_seed).__repr__())
    builder = PortGraphBuilder(name=name or f"er({n},p={edge_probability},seed={rng_seed})")
    # Random spanning tree via a random permutation (random attachment).
    order = list(range(n))
    rng.shuffle(order)
    present = set()
    for index in range(1, n):
        u = order[index]
        v = order[rng.randrange(index)]
        builder.add_edge(u, v)
        present.add(frozenset((u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if frozenset((u, v)) in present:
                continue
            if rng.random() < edge_probability:
                builder.add_edge(u, v)
    return builder.build()


def random_regular(
    n: int,
    degree: int,
    rng_seed: int = 0,
    name: Optional[str] = None,
    max_attempts: int = 200,
) -> PortLabeledGraph:
    """Return a connected random ``degree``-regular graph on ``n`` nodes.

    Uses the configuration model with rejection (no self-loops, no multiple
    edges, connected), retrying up to ``max_attempts`` times with derived
    seeds.  ``n * degree`` must be even and ``degree < n``.
    """
    if degree < 2 or degree >= n:
        raise GraphError("need 2 <= degree < n for a regular graph")
    if (n * degree) % 2 != 0:
        raise GraphError("n * degree must be even")
    for attempt in range(max_attempts):
        rng = random.Random(("random_regular", n, degree, rng_seed, attempt).__repr__())
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        seen = set()
        ok = True
        for u, v in pairs:
            if u == v or frozenset((u, v)) in seen:
                ok = False
                break
            seen.add(frozenset((u, v)))
        if not ok:
            continue
        builder = PortGraphBuilder(
            name=name or f"regular({n},d={degree},seed={rng_seed})"
        )
        try:
            builder.add_edges(pairs)
            return builder.build()
        except GraphError:
            continue
    raise GraphError(
        f"could not generate a connected {degree}-regular graph on {n} nodes "
        f"after {max_attempts} attempts"
    )


def random_tree(n: int, rng_seed: int = 0, name: Optional[str] = None) -> PortLabeledGraph:
    """Return a uniformly random labelled tree (random attachment model)."""
    if n < 2:
        raise GraphError("a tree needs at least 2 nodes")
    rng = random.Random(("random_tree", n, rng_seed).__repr__())
    builder = PortGraphBuilder(name=name or f"tree({n},seed={rng_seed})")
    for v in range(1, n):
        builder.add_edge(v, rng.randrange(v))
    return builder.build()


#: Each named family is a callable ``(n, rng_seed) -> PortLabeledGraph``,
#: registered in the runtime's graph-family registry so the scenario runtime,
#: the CLI and the experiment drivers all resolve the same names.
GRAPH_FAMILIES.register("ring", lambda n, seed=0: ring(n))
GRAPH_FAMILIES.register("oriented_ring", lambda n, seed=0: oriented_ring(n))
GRAPH_FAMILIES.register("path", lambda n, seed=0: path(n))
GRAPH_FAMILIES.register("star", lambda n, seed=0: star(n))
GRAPH_FAMILIES.register("complete", lambda n, seed=0: complete_graph(n))
GRAPH_FAMILIES.register("binary_tree", lambda n, seed=0: binary_tree(n))
GRAPH_FAMILIES.register("hypercube", lambda n, seed=0: hypercube(max(1, (n - 1).bit_length())))
GRAPH_FAMILIES.register(
    "lollipop", lambda n, seed=0: lollipop(max(3, n // 2), max(1, n - max(3, n // 2)))
)
GRAPH_FAMILIES.register("erdos_renyi", lambda n, seed=0: random_connected(n, 0.4, rng_seed=seed))
GRAPH_FAMILIES.register(
    "random_regular",
    lambda n, seed=0: random_regular(n if (n * 3) % 2 == 0 else n + 1, 3, rng_seed=seed),
)
GRAPH_FAMILIES.register("random_tree", lambda n, seed=0: random_tree(n, rng_seed=seed))
