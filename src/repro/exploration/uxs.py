"""Universal exploration sequences (UXS) and the walk ``R(k, v)``.

The paper relies on Reingold's log-space construction [34]: for every ``k``
there is a fixed sequence of integers of polynomial length ``P(k)`` such that
the walk it induces — from any start node of any graph of size at most ``k``,
exit by port ``(p + x_i) mod d`` after entering a degree-``d`` node by port
``p`` — traverses **all edges** of the graph.  The trajectory so obtained from
start node ``v`` is written ``R(k, v)`` and is called *integral* when it
indeed covers every edge.

Reingold's explicit construction is galactic, so this module substitutes a
deterministic pseudorandom sequence: a fixed splitmix64 stream keyed by
``(seed, k)``.  Sequences of length ``Θ(k³)`` are
universal with overwhelming probability, and :func:`is_integral` /
:func:`first_covering_prefix` let tests and experiments verify coverage on the
graphs actually used.

The module also provides :func:`next_port` (the single-step rule shared by the
on-line agent programs) and :func:`walk_trajectory`, a fast simulator-side
walk used by the exploration experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import ExplorationError
from ..graphs.port_graph import EdgeKey, PortLabeledGraph, edge_key

__all__ = [
    "next_port",
    "UXSProvider",
    "PseudoRandomUXS",
    "ExplicitUXS",
    "WalkResult",
    "walk_trajectory",
    "is_integral",
    "first_covering_prefix",
]


def next_port(entry_port: Optional[int], increment: int, degree: int) -> int:
    """Return the exit port prescribed by a UXS term.

    After entering a node of degree ``degree`` by port ``entry_port``, the
    agent exits by port ``(entry_port + increment) mod degree``.  At the very
    first node of a walk there is no entry port; the convention (also used by
    the paper's references) is to treat it as ``0``.
    """
    if degree <= 0:
        raise ExplorationError("cannot take a step from an isolated node")
    base = 0 if entry_port is None else entry_port
    return (base + increment) % degree


class UXSProvider:
    """Interface of a universal-exploration-sequence provider.

    A provider maps a parameter ``k`` to a fixed, graph-oblivious sequence of
    non-negative integers of length exactly ``length(k)``; the same sequence
    is returned every time, which is what makes trajectories such as
    ``R(k, v)`` well defined independently of the graph.
    """

    def length(self, k: int) -> int:
        """Return ``P(k)``: the number of terms (edge traversals) for ``k``."""
        raise NotImplementedError

    def terms(self, k: int) -> Sequence[int]:
        """Return the full sequence of increments for parameter ``k``."""
        raise NotImplementedError


def _splitmix64(state: int) -> Tuple[int, int]:
    """Advance a splitmix64 state; return ``(new_state, output)``."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z = z ^ (z >> 31)
    return state, z


class PseudoRandomUXS(UXSProvider):
    """Deterministic pseudorandom exploration sequences (splitmix64 stream).

    Parameters
    ----------
    length_coefficient, length_exponent, length_offset:
        The sequence for parameter ``k`` has length
        ``length_coefficient * k**length_exponent + length_offset`` — this is
        the polynomial ``P`` of the paper, with tunable constants in place of
        those Reingold's construction fixes, so the experiments stay
        tractable.
    seed:
        Global seed.  Different seeds give different (but individually fixed)
        sequence families.

    The sequences are cached per ``k``, and additionally in a process-wide
    cache keyed by the full parameterisation: a sequence is a pure function of
    ``(seed, polynomial, k)``, and experiment sweeps build a fresh provider
    per run, so without the shared cache every run regenerates the same
    ``Θ(k³)`` streams.
    """

    #: Process-wide memo shared by all equal-parameter providers.
    _SHARED_CACHE: Dict[Tuple[int, int, int, int, int], Tuple[int, ...]] = {}

    def __init__(
        self,
        length_coefficient: int = 4,
        length_exponent: int = 2,
        length_offset: int = 12,
        seed: int = 2013,
    ) -> None:
        if length_coefficient < 1 or length_exponent < 1 or length_offset < 0:
            raise ExplorationError("UXS length polynomial must be positive and non-trivial")
        self._coefficient = length_coefficient
        self._exponent = length_exponent
        self._offset = length_offset
        self._seed = seed
        self._cache: Dict[int, Tuple[int, ...]] = {}

    @property
    def seed(self) -> int:
        """The global seed of this provider."""
        return self._seed

    def length(self, k: int) -> int:
        if k < 1:
            raise ExplorationError(f"UXS parameter must be >= 1, got {k}")
        return self._coefficient * (k ** self._exponent) + self._offset

    def terms(self, k: int) -> Tuple[int, ...]:
        cached = self._cache.get(k)
        if cached is None:
            shared_key = (self._seed, self._coefficient, self._exponent, self._offset, k)
            cached = self._SHARED_CACHE.get(shared_key)
            if cached is None:
                cached = self._SHARED_CACHE[shared_key] = tuple(self._generate(k))
            self._cache[k] = cached
        return cached

    def _generate(self, k: int) -> Iterator[int]:
        count = self.length(k)
        state = (self._seed * 0x9E3779B97F4A7C15 + k * 0xD1B54A32D192ED03) & ((1 << 64) - 1)
        for _ in range(count):
            state, output = _splitmix64(state)
            # A 30-bit increment is astronomically larger than any degree we
            # will ever see; the modulo in :func:`next_port` does the rest.
            yield output >> 34

    def describe(self) -> str:
        """Return a human-readable description of the length polynomial."""
        return (
            f"P(k) = {self._coefficient} * k^{self._exponent} + {self._offset} "
            f"(seed {self._seed})"
        )


class ExplicitUXS(UXSProvider):
    """A provider backed by explicitly supplied sequences (used in tests).

    ``sequences[k]`` must be the full list of increments for parameter ``k``.
    """

    def __init__(self, sequences: Dict[int, Sequence[int]]) -> None:
        self._sequences = {k: tuple(seq) for k, seq in sequences.items()}

    def length(self, k: int) -> int:
        try:
            return len(self._sequences[k])
        except KeyError:
            raise ExplorationError(f"no explicit UXS stored for parameter {k}") from None

    def terms(self, k: int) -> Tuple[int, ...]:
        try:
            return self._sequences[k]
        except KeyError:
            raise ExplorationError(f"no explicit UXS stored for parameter {k}") from None


@dataclass(frozen=True)
class WalkResult:
    """Outcome of simulating ``R(k, v)`` directly on a known graph.

    Attributes
    ----------
    nodes:
        The trajectory as a sequence of node ids, starting with the start
        node; its length is ``len(ports) + 1``.
    ports:
        The exit port used for each step, in order.
    entry_ports:
        The port by which the walk entered the node reached by each step
        (what an agent would need to backtrack).
    visited_nodes:
        Set of distinct nodes visited.
    traversed_edges:
        Set of distinct undirected edges traversed.
    """

    nodes: Tuple[int, ...]
    ports: Tuple[int, ...]
    entry_ports: Tuple[int, ...]
    visited_nodes: frozenset
    traversed_edges: frozenset

    @property
    def length(self) -> int:
        """Number of edge traversals of the walk."""
        return len(self.ports)

    @property
    def end(self) -> int:
        """Final node of the walk."""
        return self.nodes[-1]


def walk_trajectory(
    graph: PortLabeledGraph,
    start: int,
    increments: Sequence[int],
    initial_entry_port: Optional[int] = None,
) -> WalkResult:
    """Simulate the UXS walk defined by ``increments`` from ``start``.

    This is the *simulator-side* walk: it uses the graph directly (which an
    agent cannot do) and is used to verify coverage, to compute trajectories
    ``R(k, v)`` for analysis, and by the fast ESST runner.
    """
    nodes: List[int] = [start]
    ports: List[int] = []
    entry_ports: List[int] = []
    visited: Set[int] = {start}
    edges: Set[EdgeKey] = set()
    current = start
    entry: Optional[int] = initial_entry_port
    for increment in increments:
        degree = graph.degree(current)
        port = next_port(entry, increment, degree)
        nxt, entry_port = graph.traverse(current, port)
        ports.append(port)
        entry_ports.append(entry_port)
        edges.add(edge_key(current, nxt))
        visited.add(nxt)
        nodes.append(nxt)
        current = nxt
        entry = entry_port
    return WalkResult(
        nodes=tuple(nodes),
        ports=tuple(ports),
        entry_ports=tuple(entry_ports),
        visited_nodes=frozenset(visited),
        traversed_edges=frozenset(edges),
    )


def is_integral(
    graph: PortLabeledGraph,
    start: int,
    increments: Sequence[int],
) -> bool:
    """Return whether the walk from ``start`` traverses *all* edges of ``graph``.

    This is the paper's notion of an *integral* trajectory.
    """
    result = walk_trajectory(graph, start, increments)
    return len(result.traversed_edges) == graph.num_edges


def first_covering_prefix(
    graph: PortLabeledGraph,
    start: int,
    increments: Sequence[int],
) -> Optional[int]:
    """Return the length of the shortest prefix of the walk covering all edges.

    Returns ``None`` if even the full sequence does not cover the graph.
    Useful for calibrating the UXS length polynomial.
    """
    remaining = set(graph.edges())
    current = start
    entry: Optional[int] = None
    for index, increment in enumerate(increments):
        degree = graph.degree(current)
        port = next_port(entry, increment, degree)
        nxt, entry_port = graph.traverse(current, port)
        remaining.discard(edge_key(current, nxt))
        if not remaining:
            return index + 1
        current = nxt
        entry = entry_port
    return None
