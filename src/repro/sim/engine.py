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

Internally the decision loop is organised around two layers that keep its
per-decision cost proportional to the *local* crowding of the traversed edge
rather than the total number of agents (see docs/API.md, "Engine internals"):

* a :class:`~repro.sim.neighbor_index.NeighborIndex` maps nodes and edges to
  their occupants, so sweeps and safe-advance queries consult only agents on
  (or at an endpoint of) the edge being traversed;
* traversal progress is kept as an integer numerator/denominator pair and
  compared against the per-edge lattice (:mod:`repro.sim.lattice`) by integer
  cross-multiplication; :class:`~fractions.Fraction` objects are materialised
  only where they become externally visible (positions, the scheduler view,
  error messages), which is why every emitted record is byte-identical to the
  pre-lattice engine's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

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
from .schedulers import (
    Advance,
    Decision,
    LazyScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    Wake,
)

__all__ = ["AgentSpec", "AsyncEngine", "EngineView", "AgentStatus", "takes_fused_loop"]

#: The adversaries whose every decision completes a traversal (absent a wake
#: schedule): exactly the ones the fused loop can replay.
_COMPLETE_TRAVERSAL_SCHEDULERS = (RoundRobinScheduler, RandomScheduler, LazyScheduler)


def takes_fused_loop(scheduler: Scheduler, agent_names: Iterable[str]) -> bool:
    """Whether a run under ``scheduler`` takes the fused loop, traced or not.

    True for a plain round-robin (its order, if fixed, covers exactly the
    agents), random or lazy adversary without a wake schedule: every decision
    it makes is a complete traversal.  Subclasses, the meeting-avoiding
    adversary and wake schedules use the generic decision loop.
    """
    kind = type(scheduler)
    if kind not in _COMPLETE_TRAVERSAL_SCHEDULERS or scheduler._wake_schedule:
        return False
    order = scheduler._order if kind is RoundRobinScheduler else None
    if order is None:
        return True
    names = set(agent_names)
    return len(order) == len(names) and set(order) == names


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
        the scheduler (a :class:`~repro.sim.schedulers.Wake` decision) or by
        another agent whose point coincides with their start node, exactly as
        in §4 of the paper.
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
    form of the last ``Advance`` target); the :attr:`progress` property
    materialises the :class:`Fraction` on demand for the scheduler view and
    for error messages.
    """

    __slots__ = (
        "from_node",
        "to_node",
        "edge",
        "exit_port",
        "entry_port",
        "forward",
        "p_num",
        "p_den",
    )

    def __init__(
        self, from_node: int, to_node: int, exit_port: int, entry_port: int
    ) -> None:
        self.from_node = from_node
        self.to_node = to_node
        if from_node < to_node:
            self.edge = (from_node, to_node)
            self.forward = True
        else:
            self.edge = (to_node, from_node)
            self.forward = False
        self.exit_port = exit_port
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
    """Engine-internal bookkeeping for one agent."""

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
    )

    def __init__(self, spec: AgentSpec, status: str, position: Position) -> None:
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


class EngineView:
    """Read-only view of the engine state handed to schedulers.

    The adversary of the paper is omniscient: it sees where every agent is
    and what it is about to do.  The view exposes exactly that, plus the
    helper :meth:`max_safe_advance` used by the meeting-avoiding adversary.
    """

    def __init__(self, engine: "AsyncEngine") -> None:
        self._engine = engine

    def agent_names(self) -> List[str]:
        """Names of all agents, in registration order."""
        return [state.name for state in self._engine._agents.values()]

    def eligible_agents(self) -> List[str]:
        """Agents the adversary may currently advance (active, committed)."""
        return [
            state.name
            for state in self._engine._agents.values()
            if state.status == AgentStatus.ACTIVE and state.pending is not None
        ]

    def is_eligible(self, name: str) -> bool:
        """Whether agent ``name`` may currently be advanced.

        Membership test equivalent to ``name in eligible_agents()`` without
        building the list — schedulers probing one candidate at a time (round
        robin) stay O(1) per probe.
        """
        state = self._engine._agents.get(name)
        return (
            state is not None
            and state.status == AgentStatus.ACTIVE
            and state.pending is not None
        )

    def is_dormant(self, name: str) -> bool:
        """Whether agent ``name`` is still dormant."""
        return self._engine._agent(name).status == AgentStatus.DORMANT

    def agent_status(self, name: str) -> str:
        """Lifecycle status of agent ``name``."""
        return self._engine._agent(name).status

    def agent_position(self, name: str) -> Position:
        """Exact position of agent ``name``."""
        return self._engine._agent(name).position

    def agent_progress(self, name: str) -> Fraction:
        """Progress of the agent's committed traversal (0 if none)."""
        state = self._engine._agent(name)
        return state.pending.progress if state.pending is not None else _ZERO

    def agent_traversals(self, name: str) -> int:
        """Completed edge traversals of agent ``name``."""
        return self._engine._agent(name).traversals

    def total_traversals(self) -> int:
        """Total completed edge traversals over all agents."""
        return self._engine.total_traversals

    def max_safe_advance(self, name: str) -> Optional[Fraction]:
        """Largest progress the agent can be advanced to without a meeting.

        Returns ``Fraction(1)`` when the whole traversal is free of
        coincidences, a value strictly between the current progress and the
        nearest obstacle otherwise, and ``None`` if the agent has no
        committed traversal.
        """
        return self._engine._max_safe_advance(name)


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
    def view(self) -> EngineView:
        """A read-only view of this engine, as handed to schedulers.

        Views are made per call, never stored on the engine: an engine
        holding its own view is a reference cycle, which would keep every
        finished run (and all its meeting events) alive until the cyclic
        collector happens to run.
        """
        return EngineView(self)

    @property
    def neighbor_index(self) -> NeighborIndex:
        """The occupancy index (read-only for tooling and tests)."""
        return self._index

    def run(self) -> RunResult:
        """Run the simulation to completion and return the result.

        :func:`takes_fused_loop` alone picks the loop; a tracer never changes
        which code runs, it only adds the ``engine.run`` span, the closing
        counters and the loop's own spans and meeting events.
        """
        if takes_fused_loop(self._scheduler, self._agents):
            loop = self._run_complete_traversals
        else:
            loop = self._run_decisions
        tracer = self._tracer
        if tracer is None:
            self._bootstrap()
            return loop(None)
        run_started = tracer.clock()
        try:
            self._bootstrap()
            tracer.add_span("engine.bootstrap", run_started)
            return loop(tracer)
        finally:
            tracer.add_span("engine.run", run_started)
            tracer.count("engine.decisions", self._decisions)
            tracer.count("engine.traversals", self.total_traversals)
            tracer.count("engine.meetings", len(self._meetings))
            tracer.count("engine.index_updates", self._index.updates)
            tracer.count("engine.lattice_rescales", self._index.rescales())

    def _run_decisions(self, tracer: Optional[Tracer]) -> RunResult:
        # The generic loop: any adversary, one scheduler decision at a time.
        # Traced, every phase of every iteration gets its own span.
        view = EngineView(self)
        while not self._done:
            if tracer is None:
                self._check_passive_termination()
            else:
                t0 = tracer.clock()
                self._check_passive_termination()
                tracer.add_span("engine.check_termination", t0)
            if self._done:
                break
            if self._decisions >= self._max_decisions:
                raise SimulationError(
                    f"scheduler exceeded the decision budget ({self._max_decisions}); "
                    "it is probably making unbounded zero-progress decisions"
                )
            if tracer is None:
                decision = self._scheduler.decide(view)
            else:
                t0 = tracer.clock()
                decision = self._scheduler.decide(view)
                tracer.add_span("scheduler.decide", t0)
            self._decisions += 1
            if decision is None:
                self._finish(StopReason.SCHEDULER_EXHAUSTED)
                break
            if tracer is None:
                self._apply(decision)
            else:
                t0 = tracer.clock()
                self._apply(decision)
                tracer.add_span("engine.apply", t0)
        return self._build_result()

    def _run_complete_traversals(self, tracer: Optional[Tracer]) -> RunResult:
        # Specialised main loop for the adversaries whose every decision is a
        # *complete* traversal (see :func:`takes_fused_loop`).  No agent is
        # ever strictly inside an edge: the lattice frames stay empty, the
        # only possible coincidences are arrival meetings, and the index
        # degenerates to its node buckets.  The loop below replays, inline,
        # exactly the decision sequence the generic loop produces with the
        # same scheduler — the choice of the mover is the only part that
        # differs per adversary, and it keeps the scheduler's own state
        # (round-robin and lazy cursors, the lazy release flag, the random
        # generator) exactly where ``choose`` would have left it.  That is
        # what keeps every record byte-identical (the golden equivalence
        # suite pins this against the fixtures).  Traced, the loop takes a
        # timestamp only on entry and exit (``engine.fused_loop``) and emits
        # the meeting events ``_emit_meeting`` would.
        scheduler = self._scheduler
        agents = self._agents
        kind = type(scheduler)
        round_robin = kind is RoundRobinScheduler
        lazy = kind is LazyScheduler
        if round_robin:
            if scheduler._order is None:
                scheduler._order = sorted(agents)
            order = scheduler._order
        else:
            # ``choose`` draws over the *sorted* eligible agents; with states
            # in name order, the eligible indices come out sorted too.
            order = sorted(agents)
        states = [agents[name] for name in order]
        n = len(states)
        cursor = 0 if kind is RandomScheduler else scheduler._cursor
        released = lazy and scheduler._released
        if lazy:
            # A starved name that matches no agent starves nobody: ``choose``
            # then picks from all eligible agents alike before and after the
            # release.
            starved_state = agents.get(scheduler._starved)
            starved = -1 if starved_state is None else order.index(scheduler._starved)
            release_after = scheduler._release_after
        elif not round_robin:
            rng_random = scheduler._rng.random
            # Unweighted, ``rng.choices(elig, weights=[1.0] * m)`` bisects the
            # integer cumulative weights at ``random() * m`` — the floor of
            # it, so one ``random()`` indexes the sorted eligible list directly.
            uniform = not scheduler._weights
        active = AgentStatus.ACTIVE
        adj = self._adj
        node_pos = self._node_pos
        index = self._index
        # Every agent sits at a node for the whole run (complete advances
        # only), so occupancy is tracked in a flat node array aligned with
        # ``states`` — comparing ints replaces the per-decision churn on the
        # index's bucket maps — and the index is rebuilt, consistent, on the
        # way out.  ``nodes[j]`` mirrors exactly what the bucket maps would
        # say: an agent occupies its node from placement until its own next
        # traversal completes, whatever its status.
        nodes = [st.position.node for st in states]
        agent_names = [st.name for st in states]
        max_decisions = self._max_decisions
        max_traversals = self._max_traversals
        check_output = self._stop_when_all_output
        fast_output = self._fast_has_output
        output_states = self._output_states
        tuple_new = tuple.__new__
        observation_cls = Observation
        snapshot_cls = AgentSnapshot
        meeting_cls = MeetingEvent
        meetings_append = self._meetings.append
        no_rendezvous = self._rendezvous is None
        # The three monotone counters live in locals and are flushed to the
        # engine before any call that can observe them (and in the finally).
        decisions = self._decisions
        total_traversals = self.total_traversals
        index_updates = index.updates
        if tracer is not None:
            loop_started = tracer.clock()
        try:
            while not self._done:
                if self._stopped == n:
                    self._finish(StopReason.ALL_STOPPED)
                    break
                if decisions >= max_decisions:
                    raise SimulationError(
                        f"scheduler exceeded the decision budget "
                        f"({max_decisions}); it is probably making unbounded "
                        "zero-progress decisions"
                    )
                # -- scheduler.decide(view), inlined per adversary -----------
                if round_robin:
                    # First probe outside the scan loop: under round-robin
                    # the next agent in order is almost always ready.
                    mover = cursor % n
                    state = states[mover]
                    if state.status == active and state.pending is not None:
                        cursor += 1
                    else:
                        state = None
                        for i in range(1, n):
                            j = (cursor + i) % n
                            st = states[j]
                            if st.status == active and st.pending is not None:
                                cursor += i + 1
                                state = st
                                mover = j
                                break
                else:
                    eligible = [
                        j
                        for j in range(n)
                        if states[j].status == active and states[j].pending is not None
                    ]
                    if not eligible:
                        state = None
                    elif lazy:
                        if not released:
                            others = [j for j in eligible if j != starved]
                            others_cost = total_traversals - (
                                0 if starved_state is None else starved_state.traversals
                            )
                            if not others or (
                                release_after is not None
                                and others_cost >= release_after
                            ):
                                released = True
                        if released:
                            mover = eligible[cursor % len(eligible)]
                        else:
                            mover = others[cursor % len(others)]
                        cursor += 1
                        state = states[mover]
                    else:
                        if uniform:
                            mover = eligible[int(rng_random() * len(eligible))]
                        else:
                            names = [agent_names[j] for j in eligible]
                            mover = eligible[names.index(scheduler._pick(names))]
                        state = states[mover]
                decisions += 1
                if state is None:
                    self._decisions = decisions
                    self._finish(StopReason.SCHEDULER_EXHAUSTED)
                    break
                # -- apply the complete advance ------------------------------
                pending = state.pending
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
                        # _emit_meeting, inlined for the dominant case: no
                        # rendezvous target, nobody dormant, not a self-loop
                        # (so the mover is not among the occupants and no
                        # dedup is needed).  The event reads the counter
                        # locals directly, so no flush is required unless a
                        # callee observes engine state.
                        if len(meet) == 1:
                            pstates = (state, agents[meet[0]])
                        else:
                            pstates = [state]
                            for m in meet:
                                pstates.append(agents[m])
                        snaps = []
                        for st in pstates:
                            controller = st.controller
                            if st.versioned:
                                version = controller.public_version
                                snap = st.snap
                                if (
                                    snap is None
                                    or st.snap_version != version
                                    or snap.status != st.status
                                ):
                                    snap = snapshot_cls(
                                        st.name,
                                        controller.label,
                                        st.status,
                                        controller.public_snapshot(),
                                    )
                                    st.snap = snap
                                    st.snap_version = version
                            else:
                                snap = snapshot_cls(
                                    st.name,
                                    controller.label,
                                    st.status,
                                    controller.public_snapshot(),
                                )
                            snaps.append(snap)
                        event = meeting_cls(
                            participants=tuple(snaps),
                            node=to_node,
                            edge=None,
                            decision_index=decisions,
                            total_traversals=total_traversals,
                        )
                        meetings_append(event)
                        if tracer is not None:
                            tracer.event(
                                "meeting",
                                participants=[state.name] + meet,
                                node=to_node,
                                edge=None,
                                decision=decisions,
                                total_traversals=total_traversals,
                            )
                        for st in pstates:
                            st.controller.on_meeting(event)
                        if check_output:
                            if fast_output:
                                for st in output_states:
                                    if st.controller.output is None:
                                        break
                                else:
                                    self._output_cost = total_traversals
                                    self._finish(StopReason.ALL_OUTPUT)
                                    break
                            else:
                                self._decisions = decisions
                                self.total_traversals = total_traversals
                                self._check_output_termination()
                                if self._done:
                                    break
                    else:
                        self._decisions = decisions
                        self.total_traversals = total_traversals
                        self._emit_meeting(
                            [state.name] + meet, node_pos[to_node]
                        )
                        if self._done:
                            break
                if total_traversals >= max_traversals:
                    self._decisions = decisions
                    self.total_traversals = total_traversals
                    self._handle_cost_limit()
                    break
                # -- complete the traversal ----------------------------------
                state.pending = None
                name = state.name
                nodes[mover] = to_node
                index_updates += 1
                entry = pending.entry_port
                state.entry_port = entry
                tr = state.traversals + 1
                state.traversals = tr
                total_traversals += 1
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
                    else:
                        if action.__class__ is Move:
                            port = action.port
                            if 0 <= port < degree:
                                target, entry_port = row[port]
                                if to_node < target:
                                    pending.edge = (to_node, target)
                                    pending.forward = True
                                else:
                                    pending.edge = (target, to_node)
                                    pending.forward = False
                                pending.from_node = to_node
                                pending.to_node = target
                                pending.exit_port = port
                                pending.entry_port = entry_port
                                pending.p_num = 0
                                pending.p_den = 1
                                state.pending = pending
                            else:
                                raise ProtocolError(
                                    f"agent {name!r} chose port {port} at a "
                                    f"node of degree {degree}"
                                )
                        else:
                            # A Stop, a Move subclass or a protocol error:
                            # the generic handler reads the agent's position.
                            state.position = node_pos[to_node]
                            self._handle_action(state, action)
                if check_output and not self._done:
                    if fast_output:
                        for st in output_states:
                            if st.controller.output is None:
                                break
                        else:
                            self._output_cost = total_traversals
                            self._finish(StopReason.ALL_OUTPUT)
                    else:
                        self._decisions = decisions
                        self.total_traversals = total_traversals
                        self._check_output_termination()
        finally:
            self._decisions = decisions
            self.total_traversals = total_traversals
            if kind is not RandomScheduler:
                scheduler._cursor = cursor
            if lazy:
                scheduler._released = released
            # Re-sync the index with the node array so post-run queries see
            # exactly the state incremental maintenance would have left.
            node_occupants = index.node_occupants
            where = index._where
            node_occupants.clear()
            for j, st in enumerate(states):
                node = nodes[j]
                # Positions are tracked only in the node array while the loop
                # runs (nothing inside reads ``state.position``); materialise
                # the interned Position objects on the way out.
                st.position = node_pos[node]
                occ = node_occupants.get(node)
                if occ is None:
                    node_occupants[node] = {st.name}
                else:
                    occ.add(st.name)
                where[st.name] = node
            index.updates = index_updates
            if tracer is not None:
                tracer.add_span("engine.fused_loop", loop_started)
        return self._build_result()

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
    # decision handling
    # ------------------------------------------------------------------
    def _apply(self, decision: Decision) -> None:
        cls = decision.__class__
        if cls is Advance:
            if self._tracer is not None:
                self._tracer.count("engine.advance_decisions")
            self._apply_advance(decision)
        elif cls is Wake:
            if self._tracer is not None:
                self._tracer.count("engine.wake_decisions")
            self._apply_wake(decision)
        elif isinstance(decision, Wake):
            if self._tracer is not None:
                self._tracer.count("engine.wake_decisions")
            self._apply_wake(decision)
        elif isinstance(decision, Advance):
            if self._tracer is not None:
                self._tracer.count("engine.advance_decisions")
            self._apply_advance(decision)
        else:
            raise SchedulerError(f"unknown decision type: {decision!r}")

    def _apply_wake(self, decision: Wake) -> None:
        state = self._agent(decision.agent)
        if state.status != AgentStatus.DORMANT:
            raise SchedulerError(f"agent {decision.agent!r} is not dormant")
        self._wake(state)
        self._check_output_termination()

    def _apply_advance(self, decision: Advance) -> None:
        state = self._agent(decision.agent)
        if state.status != AgentStatus.ACTIVE or state.pending is None:
            raise SchedulerError(
                f"agent {decision.agent!r} cannot be advanced "
                f"(status={state.status}, committed={state.pending is not None})"
            )
        pending = state.pending
        target = decision.to
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
                f"illegal advance of {decision.agent!r} from {pending.progress} "
                f"to {target}"
            )
        tracer = self._tracer
        if tracer is not None:
            t0 = tracer.clock()
            self._sweep(state, pending, p_num, p_den, t_num, t_den)
            tracer.add_span("engine.apply.sweep", t0)
        else:
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
            if tracer is not None:
                t0 = tracer.clock()
                fraction = self._index.set_edge(state.name, pending.edge, c_num, t_den)
                tracer.add_span("engine.apply.index", t0)
            else:
                fraction = self._index.set_edge(state.name, pending.edge, c_num, t_den)
            state.position = Position.interior(pending.edge, fraction)

    # ------------------------------------------------------------------
    # movement mechanics
    # ------------------------------------------------------------------
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
        tracer = self._tracer
        if tracer is not None:
            t0 = tracer.clock()
            self._index.set_node(state.name, to_node)
            tracer.add_span("engine.apply.index", t0)
        else:
            self._index.set_node(state.name, to_node)
        state.position = self._node_pos[to_node]
        state.entry_port = pending.entry_port
        state.traversals += 1
        self.total_traversals += 1
        if self._done:
            return
        self._request_action(state)
        self._check_output_termination()

    def _max_safe_advance(self, name: str) -> Optional[Fraction]:
        state = self._agent(name)
        pending = state.pending
        if pending is None:
            return None
        index = self._index
        frame = index.frames.get(pending.edge)
        p_num = pending.p_num
        p_den = pending.p_den
        scanned = 0
        nearest_d: Optional[int] = None
        den = 0
        if frame is not None:
            den = frame.den
            forward = pending.forward
            lo = p_num * den  # occupant d is an obstacle iff d * p_den > lo
            mover_name = state.name
            for oname, num in frame.occupants.items():
                if oname == mover_name:
                    continue
                scanned += 1
                d = num if forward else den - num
                if d * p_den > lo and (nearest_d is None or d < nearest_d):
                    nearest_d = d
        destination = index.node_occupants.get(pending.to_node)
        if destination:
            scanned += len(destination)
        if self._tracer is not None:
            self._tracer.count("engine.msa_calls")
            self._tracer.count("engine.msa_agents_scanned", scanned)
            self._tracer.count("engine.fraction_ops", scanned)
        if nearest_d is not None:
            # Interior obstacles are strictly below 1, so the nearest interior
            # occupant wins over any agent waiting at the destination node.
            nearest = frame.fraction(nearest_d)
            return (pending.progress + nearest) / 2
        if destination:
            return (pending.progress + 1) / 2
        return _ONE

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
        snaps: List[AgentSnapshot] = []
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
                        state.name,
                        controller.label,
                        state.status,
                        controller.public_snapshot(),
                    )
                    state.snap = snap
                    state.snap_version = version
            else:
                snap = AgentSnapshot(
                    state.name,
                    controller.label,
                    state.status,
                    controller.public_snapshot(),
                )
            snaps.append(snap)
        snapshots = tuple(snaps)
        event = MeetingEvent(
            participants=snapshots,
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
        state.pending = _PendingTraversal(node, target, port, entry_port)

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
    def _check_passive_termination(self) -> None:
        if self._stopped == len(self._agents):
            self._finish(StopReason.ALL_STOPPED)

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
    def _agent(self, name: str) -> _AgentState:
        try:
            return self._agents[name]
        except KeyError:
            raise SimulationError(f"unknown agent {name!r}") from None

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
