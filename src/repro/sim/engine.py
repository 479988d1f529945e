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
every adversary (see docs/API.md, "Engine internals"):

* where the agents are is one node array: entry ``j`` is the node agent
  ``j`` stands at, or ``None`` while it is parked strictly inside an edge, at
  its committed traversal's progress ``p_num / p_den`` (measured in its own
  direction);
* every completion runs one code path.  While some agent is parked it first
  sweeps the parked agents on its edge, nearest first, by integer
  cross-multiplication; the arrival meeting is then a scan of the node
  array.  :class:`~fractions.Fraction` objects are built only for a hit, a
  safe-advance answer or a position that is read.

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

    Progress lives as the integer pair ``p_num / p_den``, measured from the
    node the agent left: ``0 / 1`` while it stands there, else the reduced
    form of the park point it was last advanced to.  A parked agent's point
    is this pair; the :attr:`progress` property materialises the
    :class:`Fraction` on demand for park points and error messages.
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
    ``name``, ``status``, ``traversals``, ``pending`` (the committed
    traversal, or ``None``: only an active agent commits one, so ``pending
    is not None`` is what makes an agent eligible to move) and ``position``.
    """

    __slots__ = (
        "spec",
        "name",
        "controller",
        "status",
        "_nodes",
        "program",
        "pending",
        "entry_port",
        "traversals",
        "versioned",
        "snap",
        "snap_version",
        "index",
    )

    def __init__(self, spec: AgentSpec, status: str, nodes: List[Optional[int]]) -> None:
        self.index = -1  # position in ``AsyncEngine.agents``
        self.spec = spec
        self.name = spec.name
        self.controller = spec.controller
        self.status = status
        self._nodes = nodes  # the engine's node array, read by ``position``
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

    @property
    def position(self) -> Position:
        """The agent's point: its node, or its park point inside an edge."""
        node = self._nodes[self.index]
        if node is not None:
            return Position.at_node(node)
        pending = self.pending
        p_num = pending.p_num if pending.forward else pending.p_den - pending.p_num
        return Position.interior(pending.edge, Fraction(p_num, pending.p_den))


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

        #: Where each agent is, aligned with ``agents``: its node, or None
        #: while it is parked strictly inside an edge (its point is then its
        #: committed traversal's progress).  ``_parked`` counts the Nones.
        self._nodes: List[Optional[int]] = []
        self._parked = 0
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
                nodes=self._nodes,
            )
        #: The flat agent state schedulers read, sorted by name.
        self.agents: List[_AgentState] = [
            self._agents[name] for name in sorted(self._agents)
        ]
        for i, state in enumerate(self.agents):
            state.index = i
            self._nodes.append(state.spec.start_node)
        self._positions = {state.name: i for i, state in enumerate(self.agents)}
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
        state = self.agents[i]
        pending = state.pending
        if pending is None:
            return None
        waiting = scanned = self._nodes.count(pending.to_node)
        nearest = None
        if self._parked:
            p_num = pending.p_num
            p_den = pending.p_den
            for num, den, _ in self._parked_on(state, pending):
                scanned += 1
                # ``num / den`` is an obstacle iff it lies beyond the progress.
                if num * p_den > p_num * den and (
                    nearest is None or num * nearest[1] < nearest[0] * den
                ):
                    nearest = (num, den)
        if self._tracer is not None:
            self._tracer.count("engine.msa_calls")
            self._tracer.count("engine.msa_agents_scanned", scanned)
        if nearest is not None:
            # Parked obstacles are strictly below 1, so the nearest one wins
            # over any agent waiting at the destination node.
            return (pending.progress + Fraction(*nearest)) / 2
        if waiting:
            return (pending.progress + 1) / 2 if pending.p_num else _HALF
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

    def _loop(self, tracer: Optional[Tracer]) -> RunResult:
        # The decision loop of every adversary.  Each decision asks the
        # scheduler for a move.  A pair goes through ``_apply``, which parks
        # or wakes its agent, or hands back the index of an ``(i, 1)``
        # completion.  Every completion, bare index or pair, runs inline
        # below: while some agent is parked, ``_sweep`` first meets the
        # parked agents on the mover's edge; the arrival meeting is a scan
        # of the node array.  Traced, the loop takes a timestamp only on
        # entry and exit (``engine.fused_loop``) and emits the meeting
        # events ``_emit_meeting`` would.
        if self._done:  # the bootstrap meetings reached the goal
            return self._build_result()
        choose = self._scheduler.choose
        agents = self.agents
        by_name = self._agents
        n = len(agents)
        active = AgentStatus.ACTIVE
        adj = self._adj
        nodes = self._nodes
        agent_names = [st.name for st in agents]
        max_decisions = self._max_decisions
        max_traversals = self._max_traversals
        check_output = self._stop_when_all_output
        fast_output = self._fast_has_output
        tuple_new = tuple.__new__
        observation_cls = Observation
        no_rendezvous = self._rendezvous is None
        # Decisions live in a local and are flushed to the engine before any
        # call that can observe them (and in the finally).  Every decision
        # not counted in ``others`` (parks, wakes, the final ``None``)
        # completed a traversal.  Every path that ends the run breaks out
        # of the loop.
        decisions = first_decision = self._decisions
        total_traversals = self.total_traversals
        others = 0
        # Whether every agent has stopped, or one is left moving alone, can
        # change only where an agent stops, wakes or parks (or leaves its
        # park point), so it is tested after those calls only.
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
                    survivor = None if self._parked else self._solo_survivor()
                    if survivor is not None:
                        self._decisions = decisions
                        try:
                            taken = self._solo(survivor, tracer)
                        finally:
                            decisions = self._decisions
                            total_traversals = self.total_traversals
                        self._scheduler.settle(taken)
                        if self._done:
                            break
                        changed = True
                        if survivor.pending is None:
                            continue  # it stopped: the run is over
                        # A decision at a budget, or the first move after a
                        # ``Move`` subclass: ``choose`` takes it.
                if decisions >= max_decisions:
                    raise SimulationError(
                        f"scheduler exceeded the decision budget "
                        f"({max_decisions}); it is probably making unbounded "
                        "zero-progress decisions"
                    )
                mover = choose(self)
                decisions += 1
                if mover.__class__ is not int:
                    self._decisions = decisions
                    if mover is None:
                        others += 1
                        self._finish(StopReason.SCHEDULER_EXHAUSTED)
                        break
                    mover = self._apply(mover)
                    if mover is None:  # a park or a wake
                        others += 1
                        changed = True
                        if self._done:
                            break
                        continue
                elif not 0 <= mover < n:
                    self._decisions = decisions
                    raise self._cannot_advance(mover)
                # -- a completion ------------------------------------------
                state = agents[mover]
                pending = state.pending
                if pending is None:
                    self._decisions = decisions
                    raise self._cannot_advance(mover)
                to_node = pending.to_node
                if self._parked:
                    self._decisions = decisions
                    changed = True  # the solo phase may open once nobody is parked
                    self._sweep(state, pending, 1, 1)
                    if self._done:
                        break
                # The arrival meeting: the agents standing at the destination.
                # ``in``/``index``/``count`` scan the node array in C; the
                # common no-meeting decision pays a single containment check.
                if to_node in nodes:
                    j = nodes.index(to_node)
                    meet = [agent_names[j]]
                    if nodes.count(to_node) > 1:
                        for j in range(j + 1, n):
                            if nodes[j] == to_node:
                                meet.append(agent_names[j])
                    if len(meet) > 1:
                        meet.sort()
                    if no_rendezvous and self._dormant_count == 0:
                        # The dominant case: no rendezvous target, nobody
                        # dormant.
                        pstates = [state]
                        for m in meet:
                            pstates.append(by_name[m])
                        if self._meet(pstates, to_node, decisions, total_traversals):
                            break
                    else:
                        self._decisions = decisions
                        self._emit_meeting([state.name] + meet, to_node, None)
                        changed = True
                        if self._done:
                            break
                if total_traversals >= max_traversals:
                    # Completing would push the total past the budget, so the
                    # run ends now, a parked mover where it is: a result never
                    # reports ``total_traversals > max_traversals``.  Parks and
                    # wakes cost nothing and stay possible at the budget.
                    self._decisions = decisions
                    self._handle_cost_limit()
                    break
                # -- complete the traversal ----------------------------------
                if nodes[mover] is None:  # it leaves its park point
                    self._parked -= 1
                    pending.p_num = 0
                    pending.p_den = 1
                nodes[mover] = to_node
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
                            # edge, from progress 0.
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
                            # bad port included).
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
            if tracer is not None:
                tracer.add_span("engine.fused_loop", loop_started)
                completions = decisions - first_decision - others
                if completions:
                    # Every completion is an advance with its sweep.
                    tracer.count("engine.advance_decisions", completions)
                    tracer.count("engine.sweep_calls", completions)
        return self._build_result()

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

    def _solo(self, state: _AgentState, tracer: Optional[Tracer]) -> int:
        """Move ``state`` alone, without a scheduler call per decision.

        Every other agent has stopped, so each node's occupants are fixed and
        a decision is ``_loop``'s completion, in its order: the arrival
        meeting and its output check, then the program step and the output
        check.  Returns the number of decisions taken, on the first of: the
        run ends, the agent stops or yields anything but a plain ``Move``,
        or the next decision meets a budget (``_loop`` takes it).
        """
        decisions = first_decision = self._decisions
        total = self.total_traversals
        limit = decisions + min(
            self._max_decisions - decisions, self._max_traversals - total
        )
        nodes = self._nodes
        index = state.index
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
                decisions += 1
                pstates = occupants.get(to_node)
                if pstates is not None and self._meet(pstates, to_node, decisions, total):
                    break
                nodes[index] = to_node
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
            if tracer is not None and decisions > first_decision:
                tracer.count("engine.solo_decisions", decisions - first_decision)
        return decisions - first_decision

    def _meet(
        self, pstates: List[_AgentState], node: int, decisions: int, total: int
    ) -> bool:
        """An arrival meeting, with nobody dormant and no rendezvous target;
        ``pstates`` are the mover, then the occupants in name order.
        Returns whether it ended the run."""
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
        by_node: Dict[int, List[str]] = {}
        for state in self._agents.values():
            by_node.setdefault(self._nodes[state.index], []).append(state.name)
        for node, names in by_node.items():
            if len(names) >= 2:
                self._emit_meeting(names, node, None)
                if self._done:
                    return
        for state in self._agents.values():
            if state.status == AgentStatus.ACTIVE and state.program is None:
                self._start_program(state)
        self._check_output_termination()

    # ------------------------------------------------------------------
    # parks and wakes
    # ------------------------------------------------------------------
    def _cannot_advance(self, mover: Any) -> SchedulerError:
        if mover.__class__ is int and 0 <= mover < len(self.agents):
            state = self.agents[mover]
            return SchedulerError(
                f"agent {state.name!r} cannot be advanced "
                f"(status={state.status}, committed={state.pending is not None})"
            )
        return SchedulerError(f"no agent at index {mover!r}")

    def _apply(self, choice: Any) -> Optional[int]:
        """Carry out a pair: park or wake its agent, or, for a target of 1,
        return the agent's index for ``_loop`` to complete its traversal."""
        if choice.__class__ is tuple and len(choice) == 2:
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
            return None
        pending = state.pending
        if pending is None:
            raise self._cannot_advance(mover)
        if target.__class__ is not Fraction and not isinstance(target, Fraction):
            target = Fraction(target)
        t_num = target.numerator
        t_den = target.denominator
        # target <= progress  ⇔  t_num * p_den <= p_num * t_den;
        # target > 1          ⇔  t_num > t_den.
        if t_num * pending.p_den <= pending.p_num * t_den or t_num > t_den:
            raise SchedulerError(
                f"illegal advance of {state.name!r} from {pending.progress} "
                f"to {target}"
            )
        if t_num == t_den:
            return mover
        if tracer is not None:
            tracer.count("engine.advance_decisions")
            tracer.count("engine.sweep_calls")
        if self._parked:
            self._sweep(state, pending, t_num, t_den)
            if self._done:
                return None
        if self._nodes[mover] is not None:
            self._nodes[mover] = None
            self._parked += 1
        pending.p_num = t_num
        pending.p_den = t_den
        return None

    def _parked_on(self, mover: _AgentState, pending: _PendingTraversal) -> List[tuple]:
        """The agents other than ``mover`` parked inside ``pending``'s edge.

        Each is ``(num, den, state)``, its point ``num / den`` of the way
        along ``pending``'s direction.
        """
        found = []
        edge = pending.edge
        forward = pending.forward
        left = self._parked
        for state, node in zip(self.agents, self._nodes):
            if node is None:
                if state is not mover:
                    other = state.pending
                    if other.edge == edge:
                        den = other.p_den
                        num = other.p_num if other.forward is forward else den - other.p_num
                        found.append((num, den, state))
                left -= 1
                if not left:
                    break
        return found

    def _sweep(
        self, mover: _AgentState, pending: _PendingTraversal, t_num: int, t_den: int
    ) -> None:
        """Meet the parked agents ``mover`` passes or reaches on its edge.

        An advance to ``t_num / t_den`` meets every agent parked beyond the
        mover's progress and at most at the target, nearest first, with the
        agents at one point in one meeting.  The arrival meeting of a
        completion is the caller's.
        """
        p_num = pending.p_num
        p_den = pending.p_den
        parked = self._parked_on(mover, pending)
        if self._tracer is not None:
            self._tracer.count("engine.sweep_agents_scanned", len(parked))
        hits = [
            (Fraction(num, den), state.name)
            for num, den, state in parked
            if num * p_den > p_num * den and num * t_den <= t_num * den
        ]
        hits.sort()
        i = 0
        n = len(hits)
        while i < n and not self._done:
            point = hits[i][0]
            names = [mover.name]
            while i < n and hits[i][0] == point:
                names.append(hits[i][1])
                i += 1
            self._emit_meeting(names, None, pending.edge)

    # ------------------------------------------------------------------
    # meetings
    # ------------------------------------------------------------------
    def _emit_meeting(
        self, participants: List[str], node: Optional[int], edge: Optional[tuple]
    ) -> None:
        agents = self._agents
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
            node=node,
            edge=edge,
            decision_index=self._decisions,
            total_traversals=self.total_traversals,
        )
        self._meetings.append(event)
        if self._tracer is not None:
            self._tracer.event(
                "meeting",
                participants=participants,
                node=node,
                edge=list(edge) if edge is not None else None,
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
        node = self._nodes[state.index]
        if node is None:
            raise SimulationError(
                f"agent {state.name!r} asked to move while not at a node"
            )
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
        node = self._nodes[state.index]
        if node is None:
            raise SimulationError(
                f"cannot observe for agent {state.name!r}: not at a node"
            )
        return Observation(
            degree=len(self._adj[node]),
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
