"""The asynchronous execution engine.

This module implements the paper's execution model (§1, "The model"):

* each agent chooses its *route* on-line, one port at a time, based only on
  what it has perceived so far (its agent program);
* the adversary chooses the *walk* along that route — relative speeds,
  pauses, starvation — here discretised into scheduler decisions
  (:mod:`repro.sim.schedulers`);
* agents are points of the embedding; two agents **meet** when their points
  coincide, possibly strictly inside an edge;
* the cost of a run is the total number of completed edge traversals.

The engine is deliberately conservative about what agents can observe: an
agent program only ever receives the degree of its current node, its entry
port and its own traversal count.  All information exchange between agents
happens through the meeting hooks of their controllers, mirroring the paper's
"agents exchange information when they meet" rule of §4.

The adversary is one :class:`~repro.sim.schedulers.Scheduler` method,
``choose(engine)``, called once per decision: it reads the flat agent state
(:attr:`AsyncEngine.agents`) and names a mover plus a target (the end of its
edge, or a park point strictly inside it), a wake, or nothing.  One loop runs
every adversary, on one of two paths (see docs/API.md, "Engine internals"):

* while no agent is strictly inside an edge, agents live in a flat node
  array and a complete traversal's only possible coincidence is an arrival
  meeting, found by a scan of that array;
* while some agent is parked, decisions take the lattice path: a
  :class:`~repro.sim.neighbor_index.NeighborIndex` maps nodes and edges to
  their occupants, so sweeps and safe-advance queries consult only agents on
  (or at an endpoint of) the edge being traversed, and traversal progress is
  an integer numerator/denominator pair compared against the per-edge
  lattice (:mod:`repro.sim.lattice`) by integer cross-multiplication.
  :class:`~fractions.Fraction` objects are materialised only where they
  become externally visible (positions, park points, error messages).

Once one agent is left moving alone (every other agent stopped, none dormant,
nobody inside an edge, no rendezvous target) and the scheduler's ``solo``
hook promises that ``choose`` would keep naming it, the loop hands that
agent to :meth:`AsyncEngine._solo`, which moves it without a scheduler call
per traversal until it stops or acts otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Set

from ..exceptions import (
    CostLimitExceeded,
    ProtocolError,
    SchedulerError,
    SimulationError,
)
from ..graphs.port_graph import PortLabeledGraph
from ..obs.trace import Tracer, current_tracer
from .actions import AgentSnapshot, MeetingEvent, Move, Observation, Stop
from .agent import AgentController
from .neighbor_index import NeighborIndex
from .position import ONE as _ONE
from .position import ZERO as _ZERO
from .position import Position
from .results import RunResult, StopReason

if TYPE_CHECKING:  # the schedulers import this module
    from .schedulers import Scheduler

__all__ = ["AgentSpec", "AsyncEngine", "AgentStatus", "WAKE"]

#: The target of a ``(mover, WAKE)`` choice: wake the dormant agent.
WAKE = "wake"

_HALF = Fraction(1, 2)


class AgentStatus:
    """Lifecycle states of an agent inside the engine."""

    DORMANT = "dormant"
    ACTIVE = "active"
    STOPPED = "stopped"


@dataclass
class AgentSpec:
    """Placement of one agent in a simulation.

    Attributes
    ----------
    controller:
        The agent's behaviour (program + meeting hooks + public state).
    start_node:
        The node at which the adversary initially places the agent.
    dormant:
        Whether the agent starts dormant.  Dormant agents are woken either by
        the scheduler (a ``(mover, WAKE)`` choice) or by another agent whose
        point coincides with their start node, exactly as in §4 of the paper.
    """

    controller: AgentController
    start_node: int
    dormant: bool = False

    @property
    def name(self) -> str:
        return self.controller.name


class _PendingTraversal:
    """An edge traversal an agent has committed to but not yet completed.

    Progress lives as the integer pair ``p_num / p_den`` (always the reduced
    form of the last advance's target); the :attr:`progress` property
    materialises the :class:`Fraction` on demand for park points and error
    messages.
    """

    __slots__ = (
        "to_node",
        "edge",
        "entry_port",
        "forward",
        "p_num",
        "p_den",
    )

    def __init__(self, from_node: int, to_node: int, entry_port: int) -> None:
        self.to_node = to_node
        if from_node < to_node:
            self.edge = (from_node, to_node)
            self.forward = True
        else:
            self.edge = (to_node, from_node)
            self.forward = False
        self.entry_port = entry_port
        self.p_num = 0
        self.p_den = 1

    @property
    def progress(self) -> Fraction:
        """Traversal progress as an exact fraction of the edge."""
        if self.p_num == 0:
            return _ZERO
        return Fraction(self.p_num, self.p_den)


class _AgentState:
    """Engine bookkeeping for one agent; schedulers read it, never write it.

    A scheduler reads ``index`` (the position in ``AsyncEngine.agents``),
    ``name``, ``status``, ``traversals`` and ``pending`` (the committed
    traversal, or ``None``: only an active agent commits one, so ``pending
    is not None`` is what makes an agent eligible to move).
    """

    __slots__ = (
        "spec",
        "name",
        "controller",
        "status",
        "position",
        "program",
        "pending",
        "entry_port",
        "traversals",
        "versioned",
        "snap",
        "snap_version",
        "index",
    )

    def __init__(self, spec: AgentSpec, status: str, position: Position) -> None:
        self.index = -1  # position in ``AsyncEngine.agents``
        self.spec = spec
        self.name = spec.name
        self.controller = spec.controller
        self.status = status
        self.position = position
        self.program: Optional[Any] = None
        self.pending: Optional[_PendingTraversal] = None
        self.entry_port: Optional[int] = None
        self.traversals = 0
        # Controllers that maintain a ``public_version`` counter (bumped on
        # every observable public-state change) let the engine reuse one
        # meeting snapshot across meetings while nothing changed.
        self.versioned = isinstance(
            getattr(spec.controller, "public_version", None), int
        )
        self.snap: Optional[AgentSnapshot] = None
        self.snap_version = -1


def _snapshots(states: Iterable[_AgentState]) -> tuple:
    """The meeting snapshots of ``states``, in order."""
    snaps = []
    for state in states:
        controller = state.controller
        if state.versioned:
            # ``public_version`` changes on every observable public-state
            # change, so an unchanged (version, status) pair means the
            # previous snapshot is still an exact copy and can be shared.
            version = controller.public_version
            snap = state.snap
            if snap is None or state.snap_version != version or snap.status != state.status:
                snap = AgentSnapshot(
                    state.name, controller.label, state.status, controller.public_snapshot()
                )
                state.snap = snap
                state.snap_version = version
        else:
            snap = AgentSnapshot(
                state.name, controller.label, state.status, controller.public_snapshot()
            )
        snaps.append(snap)
    return tuple(snaps)


class AsyncEngine:
    """Simulate a set of agents in a graph under an adversarial scheduler.

    Parameters
    ----------
    graph:
        The port-labeled graph the agents move in.
    agents:
        Agent placements.  Agent names must be unique and start nodes must
        exist in the graph.
    scheduler:
        The adversary strategy.
    rendezvous:
        Optional collection of agent names; the run stops (successfully) at
        the first meeting whose participants include *all* of these agents.
        Pass the two agents' names for the classic rendezvous problem.
    stop_when_all_output:
        Stop (successfully) once every agent's controller has produced an
        output — the termination criterion of the §4 problems.
    max_traversals:
        Budget on the total number of edge traversals; reaching it without
        the goal raises :class:`CostLimitExceeded` (or returns a partial
        result when ``on_cost_limit="return"``).  A returned result never
        reports ``total_traversals`` above the budget.
    max_decisions:
        Safety valve against schedulers that make unbounded numbers of
        zero-progress decisions.  Defaults to a generous multiple of
        ``max_traversals``.
    on_cost_limit:
        Either ``"raise"`` (default) or ``"return"``.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        agents: Sequence[AgentSpec],
        scheduler: Scheduler,
        *,
        rendezvous: Optional[Iterable[str]] = None,
        stop_when_all_output: bool = False,
        max_traversals: int = 2_000_000,
        max_decisions: Optional[int] = None,
        on_cost_limit: str = "raise",
    ) -> None:
        if not agents:
            raise SimulationError("at least one agent is required")
        if on_cost_limit not in ("raise", "return"):
            raise SimulationError("on_cost_limit must be 'raise' or 'return'")
        self._graph = graph
        self._adj = graph.adjacency()
        self._scheduler = scheduler
        self._rendezvous: Optional[Set[str]] = set(rendezvous) if rendezvous else None
        self._stop_when_all_output = stop_when_all_output
        self._max_traversals = max_traversals
        self._max_decisions = (
            max_decisions if max_decisions is not None else 64 * max_traversals + 4096
        )
        self._on_cost_limit = on_cost_limit

        # Node positions are interned once: every arrival at a node and every
        # arrival meeting reuses the same Position object.
        self._node_pos: Dict[int, Position] = {
            node: Position.at_node(node) for node in self._adj
        }
        self._index = NeighborIndex()

        self._agents: Dict[str, _AgentState] = {}
        for spec in agents:
            if spec.name in self._agents:
                raise SimulationError(f"duplicate agent name {spec.name!r}")
            if spec.start_node not in graph:
                raise SimulationError(
                    f"start node {spec.start_node} of agent {spec.name!r} "
                    f"is not a node of the graph"
                )
            self._agents[spec.name] = _AgentState(
                spec=spec,
                status=AgentStatus.DORMANT if spec.dormant else AgentStatus.ACTIVE,
                position=self._node_pos[spec.start_node],
            )
            self._index.set_node(spec.name, spec.start_node)
        #: The flat agent state schedulers read, sorted by name.
        self.agents: List[_AgentState] = [
            self._agents[name] for name in sorted(self._agents)
        ]
        for i, state in enumerate(self.agents):
            state.index = i
        self._positions = {state.name: i for i, state in enumerate(self.agents)}
        #: Each agent's node, aligned with ``agents``, while nobody is strictly
        #: inside an edge (the index's node buckets are then left stale); None
        #: while some agent is parked and the index is the source of truth.
        self._nodes: Optional[List[int]] = None
        if self._rendezvous is not None:
            unknown = self._rendezvous - set(self._agents)
            if unknown:
                raise SimulationError(f"unknown rendezvous agents: {sorted(unknown)}")

        # The ambient tracer is captured once at construction: a scenario is
        # built and run on one thread inside the runner's ``use_tracer`` scope.
        self._tracer = current_tracer()
        self.total_traversals = 0
        self._decisions = 0
        self._stopped = 0
        self._dormant_count = sum(
            1 for state in self._agents.values() if state.status == AgentStatus.DORMANT
        )
        # Output-termination checks run after every completed traversal; when
        # no controller overrides ``has_output`` the check can read the
        # ``output`` attribute directly instead of making a method call each.
        self._output_states = list(self._agents.values())
        self._fast_has_output = all(
            type(state.controller).has_output is AgentController.has_output
            for state in self._output_states
        )
        self._meetings: List[MeetingEvent] = []
        self._goal_meeting: Optional[MeetingEvent] = None
        self._done = False
        self._reason: Optional[str] = None
        self._output_cost: Optional[int] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def graph(self) -> PortLabeledGraph:
        """The graph being simulated."""
        return self._graph

    @property
    def neighbor_index(self) -> NeighborIndex:
        """The occupancy index (read-only for tooling and tests)."""
        return self._index

    def index_of(self, name: str) -> Optional[int]:
        """The position of agent ``name`` in :attr:`agents`, or ``None``."""
        return self._positions.get(name)

    def max_safe_advance(self, i: int) -> Optional[Fraction]:
        """Largest progress ``agents[i]`` can be advanced to without a meeting.

        Returns ``Fraction(1)`` when the whole traversal is free of
        coincidences, a value strictly between the current progress and the
        nearest obstacle otherwise, and ``None`` if the agent has no
        committed traversal.
        """
        pending = self.agents[i].pending
        if pending is None:
            return None
        nodes = self._nodes
        nearest_d: Optional[int] = None
        if nodes is not None:
            # Nobody is inside an edge: the only obstacle waits at the end.
            waiting = scanned = nodes.count(pending.to_node)
        else:
            frame = self._index.frames.get(pending.edge)
            p_num = pending.p_num
            p_den = pending.p_den
            scanned = 0
            if frame is not None:
                den = frame.den
                forward = pending.forward
                lo = p_num * den  # occupant d is an obstacle iff d * p_den > lo
                mover_name = self.agents[i].name
                for oname, num in frame.occupants.items():
                    if oname == mover_name:
                        continue
                    scanned += 1
                    d = num if forward else den - num
                    if d * p_den > lo and (nearest_d is None or d < nearest_d):
                        nearest_d = d
            waiting = len(self._index.node_occupants.get(pending.to_node, ()))
            scanned += waiting
        if self._tracer is not None:
            self._tracer.count("engine.msa_calls")
            self._tracer.count("engine.msa_agents_scanned", scanned)
            self._tracer.count("engine.fraction_ops", scanned)
        if nearest_d is not None:
            # Interior obstacles are strictly below 1, so the nearest interior
            # occupant wins over any agent waiting at the destination node.
            return (pending.progress + frame.fraction(nearest_d)) / 2
        if waiting:
            # Halfway to the destination; on the node array progress is 0.
            return _HALF if nodes is not None else (pending.progress + 1) / 2
        return _ONE

    def run(self) -> RunResult:
        """Run the simulation to completion and return the result.

        A tracer never changes which code runs: it adds the
        ``engine.bootstrap``, ``engine.run`` and ``engine.fused_loop`` spans,
        the closing counters and the meeting events.
        """
        tracer = self._tracer
        if tracer is None:
            self._bootstrap()
            return self._loop(None)
        run_started = tracer.clock()
        try:
            self._bootstrap()
            tracer.add_span("engine.bootstrap", run_started)
            return self._loop(tracer)
        finally:
            tracer.add_span("engine.run", run_started)
            tracer.count("engine.decisions", self._decisions)
            tracer.count("engine.traversals", self.total_traversals)
            tracer.count("engine.meetings", len(self._meetings))
            tracer.count("engine.index_updates", self._index.updates)
            tracer.count("engine.lattice_rescales", self._index.rescales())

    def _loop(self, tracer: Optional[Tracer]) -> RunResult:
        # The decision loop of every adversary.  Each decision asks the
        # scheduler for a move.  A bare agent index (a complete traversal)
        # taken while nobody is inside an edge runs inline below: the lattice
        # frames are empty, the only possible coincidence is an arrival
        # meeting, and occupancy lives in the node array ``nodes``.  Any
        # other move (a park, a wake, or any move while some agent is
        # parked) goes through ``_apply`` on the neighbor index, which is
        # re-synced from ``nodes`` on the way in; the node array comes back
        # as soon as no agent is parked.  Traced, the loop takes a timestamp
        # only on entry and exit (``engine.fused_loop``) and emits the
        # meeting events ``_emit_meeting`` would.
        if self._done:  # the bootstrap meetings reached the goal
            return self._build_result()
        choose = self._scheduler.choose
        agents = self.agents
        by_name = self._agents
        n = len(agents)
        active = AgentStatus.ACTIVE
        adj = self._adj
        node_pos = self._node_pos
        index = self._index
        # ``nodes[j]`` mirrors exactly what the index's node buckets would
        # say: an agent occupies its node from placement until its own next
        # traversal completes, whatever its status.
        nodes = self._nodes = [st.position.node for st in agents]
        agent_names = [st.name for st in agents]
        max_decisions = self._max_decisions
        max_traversals = self._max_traversals
        check_output = self._stop_when_all_output
        fast_output = self._fast_has_output
        tuple_new = tuple.__new__
        observation_cls = Observation
        no_rendezvous = self._rendezvous is None
        # Decisions and index updates live in locals and are flushed to the
        # engine before any call that can observe them (and in the finally).
        # Every decision not counted in ``lattice`` completed a traversal
        # inline.  Every path that ends the run breaks out of the loop.
        decisions = first_decision = self._decisions
        total_traversals = self.total_traversals
        index_updates = index.updates
        lattice = 0
        # Whether every agent has stopped, or one is left moving alone, can
        # change only where an agent stops or wakes (or leaves an edge), so
        # it is tested after those calls only.
        changed = True
        if tracer is not None:
            loop_started = tracer.clock()
        try:
            while True:
                if changed:
                    changed = False
                    if self._stopped == n:
                        self._finish(StopReason.ALL_STOPPED)
                        break
                    survivor = self._solo_survivor() if nodes is not None else None
                    if survivor is not None:
                        self._decisions = decisions
                        index.updates = index_updates
                        try:
                            taken = self._solo(survivor, nodes, tracer)
                        finally:
                            decisions = self._decisions
                            total_traversals = self.total_traversals
                            index_updates = index.updates
                        self._scheduler.settle(taken)
                        if self._done:
                            break
                        changed = True
                        if survivor.pending is None:
                            continue  # it stopped: the run is over
                        # A self-loop, a decision at a budget, or the first
                        # move after a ``Move`` subclass: ``choose`` takes it.
                if decisions >= max_decisions:
                    raise SimulationError(
                        f"scheduler exceeded the decision budget "
                        f"({max_decisions}); it is probably making unbounded "
                        "zero-progress decisions"
                    )
                mover = choose(self)
                decisions += 1
                if mover.__class__ is not int or nodes is None or not 0 <= mover < n:
                    self._decisions = decisions
                    lattice += 1
                    if mover is None:
                        self._finish(StopReason.SCHEDULER_EXHAUSTED)
                        break
                    # -- the lattice path ------------------------------------
                    if nodes is not None:
                        index.updates = index_updates
                        self._materialise(nodes)
                        nodes = self._nodes = None
                    self._apply(mover)
                    changed = True
                    if self._done:
                        break
                    total_traversals = self.total_traversals
                    if not index.frames:
                        index_updates = index.updates
                        nodes = self._nodes = [st.position.node for st in agents]
                    continue
                # -- a complete traversal on the node array ------------------
                state = agents[mover]
                pending = state.pending
                if pending is None:
                    self._decisions = decisions
                    raise self._cannot_advance(mover)
                to_node = pending.to_node
                # The sweep of a complete advance with an empty frame: only
                # the arrival meeting is possible.  Scanning every agent
                # reproduces the bucket contents exactly — including the
                # mover itself on a self-loop arrival (it still occupies the
                # destination node).
                # ``in``/``index``/``count`` scan the node array in C; the
                # common no-meeting decision pays a single containment check.
                if to_node in nodes:
                    j = nodes.index(to_node)
                    meet = [agent_names[j]]
                    if nodes.count(to_node) > 1:
                        for j in range(j + 1, n):
                            if nodes[j] == to_node:
                                meet.append(agent_names[j])
                else:
                    meet = None
                if meet is not None:
                    if len(meet) > 1:
                        meet.sort()
                    if (
                        no_rendezvous
                        and self._dormant_count == 0
                        and nodes[mover] != to_node
                    ):
                        # The dominant case: no rendezvous target, nobody
                        # dormant, not a self-loop (so the mover is not among
                        # the occupants and no dedup is needed).
                        pstates = [state]
                        for m in meet:
                            pstates.append(by_name[m])
                        if self._meet(pstates, to_node, decisions, total_traversals):
                            break
                    else:
                        self._decisions = decisions
                        self._emit_meeting(
                            [state.name] + meet, node_pos[to_node]
                        )
                        changed = True
                        if self._done:
                            break
                if total_traversals >= max_traversals:
                    self._decisions = decisions
                    self._handle_cost_limit()
                    break
                # -- complete the traversal ----------------------------------
                nodes[mover] = to_node
                index_updates += 1
                entry = pending.entry_port
                state.entry_port = entry
                tr = state.traversals + 1
                state.traversals = tr
                total_traversals += 1
                self.total_traversals = total_traversals
                # -- drive the agent's program one step ----------------------
                program = state.program
                if program is not None and state.status == active:
                    row = adj[to_node]
                    degree = len(row)
                    try:
                        action = program.send(
                            tuple_new(observation_cls, (degree, entry, tr))
                        )
                    except StopIteration:
                        self._stop_agent(state)
                        changed = True
                    else:
                        if action.__class__ is Move and 0 <= action.port < degree:
                            # The committed traversal is reused for the next
                            # edge; its progress is 0 on the node array.
                            target, pending.entry_port = row[action.port]
                            if to_node < target:
                                pending.edge = (to_node, target)
                                pending.forward = True
                            else:
                                pending.edge = (target, to_node)
                                pending.forward = False
                            pending.to_node = target
                        else:
                            # A Stop, a Move subclass or a protocol error (a
                            # bad port included): ``_handle_action`` reads the
                            # agent's position.
                            state.position = node_pos[to_node]
                            self._handle_action(state, action)
                            changed = True
                else:
                    state.pending = None
                # Meetings check on their own, so since the last check only
                # the mover's program can have produced an output.
                if check_output and (
                    not fast_output or state.controller.output is not None
                ):
                    self._decisions = decisions
                    self._check_output_termination()
                    if self._done:
                        break
        finally:
            self._decisions = decisions
            if nodes is not None:
                index.updates = index_updates
                self._materialise(nodes)
                self._nodes = None
            if tracer is not None:
                tracer.add_span("engine.fused_loop", loop_started)
                completions = decisions - first_decision - lattice
                if completions:
                    # Every inline completion is an advance with its sweep.
                    tracer.count("engine.advance_decisions", completions)
                    tracer.count("engine.sweep_calls", completions)
        return self._build_result()

    def _materialise(self, nodes: List[int]) -> None:
        # Leave the node array: positions and the index's node buckets take
        # the values incremental maintenance would have left.
        node_occupants = self._index.node_occupants
        where = self._index._where
        node_occupants.clear()
        node_pos = self._node_pos
        for state, node in zip(self.agents, nodes):
            state.position = node_pos[node]
            occ = node_occupants.get(node)
            if occ is None:
                node_occupants[node] = {state.name}
            else:
                occ.add(state.name)
            where[state.name] = node

    def _solo_survivor(self) -> Optional[_AgentState]:
        """The one agent left moving, if the scheduler lets it move alone.

        Every other agent must have stopped, none be dormant, and the run
        have no rendezvous target; the caller has checked that nobody is
        inside an edge.
        """
        if (
            self._rendezvous is not None
            or self._dormant_count
            or self._stopped != len(self.agents) - 1
        ):
            return None
        for state in self.agents:
            if state.status != AgentStatus.STOPPED:
                break
        if state.pending is None or not self._scheduler.solo(self, state.index):
            return None
        return state

    def _solo(
        self, state: _AgentState, nodes: List[int], tracer: Optional[Tracer]
    ) -> int:
        """Move ``state`` alone, without a scheduler call per decision.

        Every other agent has stopped, so each node's occupants are fixed and
        a decision is ``_loop``'s node-array completion, in its order: the
        arrival meeting and its output check, then the program step and the
        output check.  Returns the number of decisions taken, on the first
        of: the run ends, the agent stops or yields anything but a plain
        ``Move``, or the next decision is a self-loop or meets a budget
        (``_loop`` takes it).
        """
        decisions = first_decision = self._decisions
        total = first_total = self.total_traversals
        limit = decisions + min(
            self._max_decisions - decisions, self._max_traversals - total
        )
        here = nodes[state.index]
        # Node -> the participants of an arrival meeting there: the mover,
        # then the occupants in name order.
        occupants: Dict[int, List[_AgentState]] = {}
        for other in self.agents:
            if other is not state:
                occupants.setdefault(nodes[other.index], [state]).append(other)
        pending = state.pending
        controller = state.controller
        send = state.program.send
        adj = self._adj
        check_output = self._stop_when_all_output
        fast_output = self._fast_has_output
        tuple_new = tuple.__new__
        observation_cls = Observation
        traversals = state.traversals
        try:
            while decisions < limit:
                to_node = pending.to_node
                if to_node == here:
                    break
                decisions += 1
                pstates = occupants.get(to_node)
                if pstates is not None and self._meet(pstates, to_node, decisions, total):
                    break
                here = to_node
                entry = pending.entry_port
                state.entry_port = entry
                traversals += 1
                state.traversals = traversals
                total += 1
                self.total_traversals = total
                row = adj[to_node]
                degree = len(row)
                try:
                    action = send(tuple_new(observation_cls, (degree, entry, traversals)))
                except StopIteration:
                    self._stop_agent(state)
                    action = None
                if action.__class__ is Move and 0 <= action.port < degree:
                    target, pending.entry_port = row[action.port]
                    if to_node < target:
                        pending.edge = (to_node, target)
                        pending.forward = True
                    else:
                        pending.edge = (target, to_node)
                        pending.forward = False
                    pending.to_node = target
                elif action is not None:  # as in ``_loop``
                    state.position = self._node_pos[to_node]
                    self._handle_action(state, action)
                if check_output and (not fast_output or controller.output is not None):
                    self._decisions = decisions
                    self._check_output_termination()
                    if self._done:
                        break
                if state.pending is not pending:
                    break
        finally:
            self._decisions = decisions
            self._index.updates += total - first_total
            nodes[state.index] = here
            if tracer is not None and decisions > first_decision:
                tracer.count("engine.solo_decisions", decisions - first_decision)
        return decisions - first_decision

    def _meet(
        self, pstates: List[_AgentState], node: int, decisions: int, total: int
    ) -> bool:
        """An arrival meeting on the node array, with nobody dormant and no
        rendezvous target; ``pstates`` are the mover, then the occupants in
        name order.  Returns whether it ended the run."""
        event = MeetingEvent(
            participants=_snapshots(pstates),
            node=node,
            edge=None,
            decision_index=decisions,
            total_traversals=total,
        )
        self._meetings.append(event)
        if self._tracer is not None:
            self._tracer.event(
                "meeting",
                participants=[st.name for st in pstates],
                node=node,
                edge=None,
                decision=decisions,
                total_traversals=total,
            )
        for st in pstates:
            st.controller.on_meeting(event)
        if self._stop_when_all_output:
            if self._fast_has_output:
                for st in self._output_states:
                    if st.controller.output is None:
                        return False
                self._output_cost = total
                self._finish(StopReason.ALL_OUTPUT)
                return True
            self._decisions = decisions
            self._check_output_termination()
            return self._done
        return False

    # ------------------------------------------------------------------
    # bootstrapping
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        # Report coincidences that exist before anybody moves (agents are
        # normally placed at distinct nodes, but tests may co-locate them).
        # Initial positions are always nodes, so grouping by node id is
        # grouping by position.
        by_node: Dict[int, List[str]] = {}
        for state in self._agents.values():
            by_node.setdefault(state.position.node, []).append(state.name)
        for node, names in by_node.items():
            if len(names) >= 2:
                self._emit_meeting(names, self._node_pos[node])
                if self._done:
                    return
        for state in self._agents.values():
            if state.status == AgentStatus.ACTIVE and state.program is None:
                self._start_program(state)
        self._check_output_termination()

    # ------------------------------------------------------------------
    # the lattice path
    # ------------------------------------------------------------------
    def _cannot_advance(self, mover: Any) -> SchedulerError:
        if mover.__class__ is int and 0 <= mover < len(self.agents):
            state = self.agents[mover]
            return SchedulerError(
                f"agent {state.name!r} cannot be advanced "
                f"(status={state.status}, committed={state.pending is not None})"
            )
        return SchedulerError(f"no agent at index {mover!r}")

    def _apply(self, choice: Any) -> None:
        """Carry out a move on the neighbor index: a park, a wake or a completion."""
        if choice.__class__ is int:
            mover, target = choice, _ONE
        elif choice.__class__ is tuple and len(choice) == 2:
            mover, target = choice
        else:
            raise SchedulerError(f"unknown move: {choice!r}")
        if not (mover.__class__ is int and 0 <= mover < len(self.agents)):
            raise self._cannot_advance(mover)
        state = self.agents[mover]
        tracer = self._tracer
        if target is WAKE:
            if tracer is not None:
                tracer.count("engine.wake_decisions")
            if state.status != AgentStatus.DORMANT:
                raise SchedulerError(f"agent {state.name!r} is not dormant")
            self._wake(state)
            self._check_output_termination()
            return
        if tracer is not None:
            tracer.count("engine.advance_decisions")
        pending = state.pending
        if pending is None:
            raise self._cannot_advance(mover)
        if target.__class__ is not Fraction and not isinstance(target, Fraction):
            target = Fraction(target)
        t_num = target.numerator
        t_den = target.denominator
        p_num = pending.p_num
        p_den = pending.p_den
        # target <= progress  ⇔  t_num * p_den <= p_num * t_den;
        # target > 1          ⇔  t_num > t_den.
        if t_num * p_den <= p_num * t_den or t_num > t_den:
            raise SchedulerError(
                f"illegal advance of {state.name!r} from {pending.progress} "
                f"to {target}"
            )
        self._sweep(state, pending, p_num, p_den, t_num, t_den)
        if self._done:
            return
        if t_num == t_den:
            if self.total_traversals >= self._max_traversals:
                # Completing this traversal would push the total past the
                # budget, so the budget is exhausted *now*: the run ends with
                # the agent parked where it is and the result never reports
                # ``total_traversals > max_traversals``.  Zero-cost decisions
                # (wakes, partial advances) — and hence meetings strictly
                # inside an edge — remain possible at exactly the budget.
                self._handle_cost_limit()
                return
            pending.p_num = t_num
            pending.p_den = t_den
            self._complete_traversal(state)
        else:
            pending.p_num = t_num
            pending.p_den = t_den
            c_num = t_num if pending.forward else t_den - t_num
            fraction = self._index.set_edge(state.name, pending.edge, c_num, t_den)
            state.position = Position.interior(pending.edge, fraction)

    def _sweep(
        self,
        mover: _AgentState,
        pending: _PendingTraversal,
        p_num: int,
        p_den: int,
        t_num: int,
        t_den: int,
    ) -> None:
        """Detect and process every coincidence produced by the advance.

        Only the traversed edge's occupants can coincide with the mover:
        interior occupants come from the edge's lattice frame, arrival
        meetings from the destination node's occupant set.  Origin-node
        occupants sit at progress 0 and can never satisfy
        ``start < progress``, so they are not even examined.  All progress
        comparisons are integer cross-multiplications.
        """
        index = self._index
        edge = pending.edge
        frame = index.frames.get(edge)
        scanned = 0
        hits: Optional[List] = None
        den = 0
        if frame is not None:
            den = frame.den
            forward = pending.forward
            lo = p_num * den  # occupant d qualifies iff d * p_den > lo ...
            hi = t_num * den  # ... and d * t_den <= hi
            mover_name = mover.name
            for name, num in frame.occupants.items():
                if name == mover_name:
                    continue
                scanned += 1
                d = num if forward else den - num
                if d * p_den > lo and d * t_den <= hi:
                    if hits is None:
                        hits = []
                    hits.append((d, name))
        arrivals: Optional[List[str]] = None
        if t_num == t_den:
            occupants = index.node_occupants.get(pending.to_node)
            if occupants:
                scanned += len(occupants)
                arrivals = sorted(occupants)
        if self._tracer is not None:
            # The legacy ``fraction_ops`` name now tallies lattice operations:
            # one integer comparison pair per occupant examined.
            self._tracer.count("engine.sweep_calls")
            self._tracer.count("engine.sweep_agents_scanned", scanned)
            self._tracer.count("engine.fraction_ops", scanned)
        if hits is None and arrivals is None:
            return
        if hits is not None:
            hits.sort()
            forward = pending.forward
            mover_name = mover.name
            i = 0
            n = len(hits)
            while i < n and not self._done:
                d = hits[i][0]
                names = [mover_name]
                while i < n and hits[i][0] == d:
                    names.append(hits[i][1])
                    i += 1
                c_num = d if forward else den - d
                position = Position.interior(edge, frame.fraction(c_num))
                self._emit_meeting(names, position)
        if arrivals is not None and not self._done:
            self._emit_meeting(
                [mover.name] + arrivals, self._node_pos[pending.to_node]
            )

    def _complete_traversal(self, state: _AgentState) -> None:
        pending = state.pending
        assert pending is not None
        state.pending = None
        to_node = pending.to_node
        self._index.set_node(state.name, to_node)
        state.position = self._node_pos[to_node]
        state.entry_port = pending.entry_port
        state.traversals += 1
        self.total_traversals += 1
        if self._done:
            return
        self._request_action(state)
        self._check_output_termination()

    # ------------------------------------------------------------------
    # meetings
    # ------------------------------------------------------------------
    def _emit_meeting(self, names: Iterable[str], position: Position) -> None:
        agents = self._agents
        if type(names) is list and len(names) == 2 and names[0] != names[1]:
            # The dominant case — mover plus one occupant — needs no dedup.
            participants: List[str] = names
        else:
            participants = list(dict.fromkeys(names))
        states = [agents[name] for name in participants]
        # Wake dormant participants first: a visit to a dormant agent's start
        # node wakes it, and it takes part in the resulting exchange.
        if self._dormant_count:
            woken: List[_AgentState] = [
                state for state in states if state.status == AgentStatus.DORMANT
            ]
        else:
            woken = []
        event = MeetingEvent(
            participants=_snapshots(states),
            node=position.node,
            edge=position.edge,
            decision_index=self._decisions,
            total_traversals=self.total_traversals,
        )
        self._meetings.append(event)
        if self._tracer is not None:
            self._tracer.event(
                "meeting",
                participants=participants,
                node=position.node,
                edge=list(position.edge) if position.edge is not None else None,
                decision=self._decisions,
                total_traversals=self.total_traversals,
            )
        for state in woken:
            self._wake(state, start_program=False)
        for state in states:
            state.controller.on_meeting(event)
        # Programs of freshly woken agents start only after the exchange, so
        # their first decision can already use the information received.
        for state in woken:
            if state.program is None and state.status == AgentStatus.ACTIVE:
                self._start_program(state)
        # _check_output_termination, inlined: meetings are the hot caller.
        if self._stop_when_all_output and not self._done:
            if self._fast_has_output:
                for state in self._output_states:
                    if state.controller.output is None:
                        break
                else:
                    self._output_cost = self.total_traversals
                    self._finish(StopReason.ALL_OUTPUT)
            else:
                self._check_output_termination()
        if (
            self._rendezvous is not None
            and self._rendezvous.issubset(participants)
            and not self._done
        ):
            self._goal_meeting = event
            self._finish(StopReason.MEETING)

    # ------------------------------------------------------------------
    # agent program driving
    # ------------------------------------------------------------------
    def _wake(self, state: _AgentState, start_program: bool = True) -> None:
        if state.status == AgentStatus.DORMANT:
            self._dormant_count -= 1
        state.status = AgentStatus.ACTIVE
        state.controller.on_wake()
        if start_program and state.program is None:
            self._start_program(state)

    def _start_program(self, state: _AgentState) -> None:
        observation = self._observe(state)
        program = state.controller.start(observation)
        state.program = program
        try:
            action = next(program)
        except StopIteration:
            self._stop_agent(state)
            return
        self._handle_action(state, action)

    def _request_action(self, state: _AgentState) -> None:
        if state.program is None or state.status != AgentStatus.ACTIVE:
            return
        observation = self._observe(state)
        try:
            action = state.program.send(observation)
        except StopIteration:
            self._stop_agent(state)
            return
        self._handle_action(state, action)

    def _handle_action(self, state: _AgentState, action: Any) -> None:
        cls = action.__class__
        if cls is Move:
            pass
        elif cls is Stop or isinstance(action, Stop):
            self._stop_agent(state)
            return
        elif not isinstance(action, Move):
            raise ProtocolError(
                f"agent {state.name!r} yielded {action!r}; expected Move or Stop"
            )
        position = state.position
        if position.node is None:
            raise SimulationError(
                f"agent {state.name!r} asked to move while not at a node"
            )
        node = position.node
        row = self._adj[node]
        port = action.port
        if not (0 <= port < len(row)):
            raise ProtocolError(
                f"agent {state.name!r} chose port {port} at a node of "
                f"degree {len(row)}"
            )
        target, entry_port = row[port]
        state.pending = _PendingTraversal(node, target, entry_port)

    def _stop_agent(self, state: _AgentState) -> None:
        if state.status != AgentStatus.STOPPED:
            self._stopped += 1
        state.status = AgentStatus.STOPPED
        state.pending = None

    def _observe(self, state: _AgentState) -> Observation:
        position = state.position
        if position.node is None:
            raise SimulationError(
                f"cannot observe for agent {state.name!r}: not at a node"
            )
        return Observation(
            degree=len(self._adj[position.node]),
            entry_port=state.entry_port,
            traversals=state.traversals,
        )

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def _check_output_termination(self) -> None:
        if not self._stop_when_all_output or self._done:
            return
        if self._fast_has_output:
            for state in self._output_states:
                if state.controller.output is None:
                    return
        else:
            for state in self._output_states:
                if not state.controller.has_output():
                    return
        self._output_cost = self.total_traversals
        self._finish(StopReason.ALL_OUTPUT)

    def _handle_cost_limit(self) -> None:
        if self._on_cost_limit == "raise":
            partial = self._build_result(forced_reason=StopReason.COST_LIMIT)
            raise CostLimitExceeded(
                f"total traversals exceeded the budget of {self._max_traversals}",
                partial_result=partial,
            )
        self._finish(StopReason.COST_LIMIT)

    def _finish(self, reason: str) -> None:
        self._done = True
        self._reason = reason

    # ------------------------------------------------------------------
    # result construction and small helpers
    # ------------------------------------------------------------------
    def _build_result(self, forced_reason: Optional[str] = None) -> RunResult:
        reason = forced_reason or self._reason or StopReason.ALL_STOPPED
        outputs = {
            state.name: state.controller.output
            for state in self._agents.values()
            if state.controller.has_output()
        }
        return RunResult(
            reason=reason,
            met=self._goal_meeting is not None,
            meeting=self._goal_meeting,
            meetings=list(self._meetings),
            total_traversals=self.total_traversals,
            traversals_by_agent={
                state.name: state.traversals for state in self._agents.values()
            },
            decisions=self._decisions,
            outputs=outputs,
            output_cost=self._output_cost,
        )
