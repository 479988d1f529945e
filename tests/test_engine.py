"""Tests of the asynchronous execution engine."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction
from typing import List, Optional, Sequence

import pytest

from repro.exceptions import CostLimitExceeded, ProtocolError, SimulationError
from repro.graphs import families
from repro.obs.trace import Tracer, use_tracer
from repro.sim import (
    AgentSpec,
    AsyncEngine,
    FunctionController,
    RoundRobinScheduler,
    StationaryController,
    StopReason,
)
from repro.sim.actions import Move, Stop
from repro.sim.schedulers import (
    Advance,
    GreedyAvoidingScheduler,
    RandomScheduler,
    Scheduler,
    Wake,
)


def scripted(name: str, ports: Sequence[int], label: Optional[int] = None) -> FunctionController:
    """A controller that follows a fixed list of ports and then stops."""

    def factory(obs):
        def program(obs):
            for port in ports:
                obs = yield Move(port)
            return obs

        return program(obs)

    return FunctionController(name, factory, label=label)


class ScriptedScheduler(Scheduler):
    """Replay a fixed list of decisions (for precise engine tests)."""

    def __init__(self, decisions):
        super().__init__()
        self._decisions = list(decisions)

    def choose(self, view):
        if not self._decisions:
            return None
        return self._decisions.pop(0)


class TestBasicExecution:
    def test_single_agent_walk_and_cost(self, ring6):
        walker = scripted("w", [0, 0, 0])
        engine = AsyncEngine(ring6, [AgentSpec(walker, 0)], RoundRobinScheduler())
        result = engine.run()
        assert result.reason == StopReason.ALL_STOPPED
        assert result.total_traversals == 3
        assert result.traversals_by_agent == {"w": 3}
        assert not result.met

    @pytest.mark.parametrize("traced", [False, True], ids=["fused", "generic"])
    def test_move_subclass_moves_from_the_node_reached(self, traced):
        # Both loops hand a Move subclass to the generic action handler,
        # which must see the node the traversal just reached.
        class Hop(Move):
            pass

        def factory(obs):
            def program(obs):
                for port in (0, 1, 1, 1):
                    obs = yield Hop(port)

            return program(obs)

        with use_tracer(Tracer() if traced else None):
            engine = AsyncEngine(
                families.path(5),
                [AgentSpec(FunctionController("a", factory, label=1), 0)],
                RoundRobinScheduler(),
            )
        result = engine.run()
        assert result.reason == StopReason.ALL_STOPPED
        assert result.total_traversals == 4
        assert engine.view.agent_position("a").node == 4

    def test_two_agents_round_robin_costs_add_up(self, ring6):
        a = scripted("a", [0, 0])
        b = scripted("b", [0, 0])
        engine = AsyncEngine(
            ring6, [AgentSpec(a, 0), AgentSpec(b, 3)], RoundRobinScheduler()
        )
        result = engine.run()
        assert result.total_traversals == 4
        assert result.traversals_by_agent == {"a": 2, "b": 2}

    def test_program_can_stop_explicitly(self, ring6):
        def factory(obs):
            def program(obs):
                obs = yield Move(0)
                yield Stop()

            return program(obs)

        controller = FunctionController("s", factory)
        engine = AsyncEngine(ring6, [AgentSpec(controller, 0)], RoundRobinScheduler())
        result = engine.run()
        assert result.total_traversals == 1
        assert result.reason == StopReason.ALL_STOPPED


class TestMeetings:
    def test_meeting_at_node(self, oring6):
        # "a" walks clockwise from node 0 towards node 2 where "b" sits still.
        a = scripted("a", [0, 0, 0, 0], label=1)
        b = StationaryController("b", label=2)
        engine = AsyncEngine(
            oring6,
            [AgentSpec(a, 0), AgentSpec(b, 2)],
            RoundRobinScheduler(),
            rendezvous=("a", "b"),
        )
        result = engine.run()
        assert result.met and result.reason == StopReason.MEETING
        assert result.meeting is not None
        assert result.meeting.node == 2
        assert result.meeting.edge is None
        assert set(result.meeting.names()) == {"a", "b"}
        # Cost: only completed traversals count; the meeting happens while
        # completing the second traversal, so exactly 1 is on the books.
        assert result.total_traversals == 1

    def test_meeting_inside_edge_via_partial_advance(self, ring6):
        # "a" commits to edge 0-1 and is parked at 1/2 by the adversary;
        # "b" then traverses the same edge from node 1 and sweeps over "a".
        a = scripted("a", [0], label=1)   # port 0 at node 0 leads to node 1
        b = scripted("b", [0], label=2)   # port 0 at node 1 leads back to node 0
        engine = AsyncEngine(
            ring6,
            [AgentSpec(a, 0), AgentSpec(b, 1)],
            ScriptedScheduler(
                [Advance("a", Fraction(1, 2)), Advance("b", Fraction(1))]
            ),
            rendezvous=("a", "b"),
        )
        result = engine.run()
        assert result.met
        assert result.meeting.edge == (0, 1)
        assert result.meeting.node is None
        assert result.total_traversals == 0  # nobody completed a traversal yet

    def test_meeting_records_public_snapshots(self, ring6):
        a = scripted("a", [0, 0], label=5)
        b = StationaryController("b", label=9)
        b.public["note"] = "token"
        engine = AsyncEngine(
            ring6,
            [AgentSpec(a, 0), AgentSpec(b, 1)],
            RoundRobinScheduler(),
            rendezvous=("a", "b"),
        )
        result = engine.run()
        publics = {snap.name: snap.public for snap in result.meeting.participants}
        assert publics["a"]["label"] == 5
        assert publics["b"]["note"] == "token"

    def test_initial_colocation_is_a_meeting(self, ring6):
        a = scripted("a", [0], label=1)
        b = scripted("b", [0], label=2)
        engine = AsyncEngine(
            ring6,
            [AgentSpec(a, 4), AgentSpec(b, 4)],
            RoundRobinScheduler(),
            rendezvous=("a", "b"),
        )
        result = engine.run()
        assert result.met and result.total_traversals == 0

    def test_all_meetings_are_recorded(self, oring6):
        # "a" walks clockwise around the whole ring twice and passes the
        # stationary "b" on each lap.
        a = scripted("a", [0] * 12, label=1)
        b = StationaryController("b", label=2)
        engine = AsyncEngine(
            oring6, [AgentSpec(a, 0), AgentSpec(b, 3)], RoundRobinScheduler()
        )
        result = engine.run()
        assert len(result.meetings) == 2
        assert all(set(event.names()) == {"a", "b"} for event in result.meetings)

    def test_on_meeting_hook_is_called_for_all_participants(self, oring6):
        calls = []

        class Recorder(StationaryController):
            def on_meeting(self, event):
                calls.append((self.name, tuple(sorted(event.names()))))

        a = scripted("a", [0, 0], label=1)
        b = Recorder("b", label=2)
        engine = AsyncEngine(
            oring6, [AgentSpec(a, 0), AgentSpec(b, 2)], RoundRobinScheduler()
        )
        engine.run()
        assert ("b", ("a", "b")) in calls


class TestDormantAgents:
    def test_dormant_agent_never_scheduled_until_woken(self, ring6):
        a = scripted("a", [0, 0], label=1)
        b = scripted("b", [0, 0], label=2)
        engine = AsyncEngine(
            ring6,
            [AgentSpec(a, 0), AgentSpec(b, 3, dormant=True)],
            RoundRobinScheduler(),
        )
        result = engine.run()
        assert result.traversals_by_agent["b"] == 0

    def test_dormant_agent_woken_by_visit(self, oring6):
        # "a" walks into node 2 where the dormant "b" sits; "b" wakes and walks.
        a = scripted("a", [0, 0], label=1)
        b = scripted("b", [0, 0, 0], label=2)
        engine = AsyncEngine(
            oring6,
            [AgentSpec(a, 0), AgentSpec(b, 2, dormant=True)],
            RoundRobinScheduler(),
        )
        result = engine.run()
        assert result.traversals_by_agent["b"] == 3
        assert any(set(event.names()) == {"a", "b"} for event in result.meetings)

    def test_dormant_agent_woken_by_scheduler(self, ring6):
        woken = []

        class WakeAware(FunctionController):
            def on_wake(self):
                woken.append(self.name)

        def factory(obs):
            def program(obs):
                obs = yield Move(0)
                return obs

            return program(obs)

        b = WakeAware("b", factory, label=2)
        a = scripted("a", [0, 0], label=1)
        engine = AsyncEngine(
            ring6,
            [AgentSpec(a, 0), AgentSpec(b, 3, dormant=True)],
            RoundRobinScheduler(wake_schedule={"b": 1}),
        )
        result = engine.run()
        assert woken == ["b"]
        assert result.traversals_by_agent["b"] == 1


class TestTermination:
    def test_stop_when_all_output(self, ring6):
        class OutputsAfterTwoMoves(FunctionController):
            def __init__(self, name):
                def factory(obs):
                    def program(obs):
                        obs = yield Move(0)
                        obs = yield Move(0)
                        self.output = "done"
                        obs = yield Move(0)
                        obs = yield Move(0)
                        return obs

                    return program(obs)

                super().__init__(name, factory)

        a = OutputsAfterTwoMoves("a")
        b = OutputsAfterTwoMoves("b")
        engine = AsyncEngine(
            ring6,
            [AgentSpec(a, 0), AgentSpec(b, 3)],
            RoundRobinScheduler(),
            stop_when_all_output=True,
        )
        result = engine.run()
        assert result.reason == StopReason.ALL_OUTPUT
        assert result.outputs == {"a": "done", "b": "done"}
        assert result.output_cost is not None
        assert result.output_cost <= result.total_traversals
        assert result.cost() == result.output_cost

    def test_cost_limit_raises_with_partial_result(self, ring6):
        a = scripted("a", [0] * 50, label=1)
        engine = AsyncEngine(
            ring6, [AgentSpec(a, 0)], RoundRobinScheduler(), max_traversals=10
        )
        with pytest.raises(CostLimitExceeded) as excinfo:
            engine.run()
        partial = excinfo.value.partial_result
        assert partial is not None
        assert partial.reason == StopReason.COST_LIMIT
        assert partial.total_traversals >= 10

    def test_cost_limit_can_return_instead(self, ring6):
        # One walker alone, then two with no rendezvous goal that burn the
        # whole budget through the fused loop (round_robin, random) and the
        # generic one (avoider).
        cases = [(RoundRobinScheduler(), 1)] + [
            (scheduler, 2)
            for scheduler in (RoundRobinScheduler(), RandomScheduler(seed=1),
                              GreedyAvoidingScheduler(patience=4))
        ]
        for scheduler, walkers in cases:
            agents = [AgentSpec(scripted("a", [0] * 50, label=1), 0),
                      AgentSpec(scripted("b", [1] * 50, label=2), 3)][:walkers]
            engine = AsyncEngine(
                ring6,
                agents,
                scheduler,
                max_traversals=10,
                on_cost_limit="return",
            )
            result = engine.run()
            assert result.reason == StopReason.COST_LIMIT
            assert not result.succeeded
            assert result.total_traversals >= 10 and result.decisions > 0

    def test_scheduler_exhausted(self, ring6):
        a = scripted("a", [0] * 5, label=1)
        engine = AsyncEngine(ring6, [AgentSpec(a, 0)], ScriptedScheduler([]))
        result = engine.run()
        assert result.reason == StopReason.SCHEDULER_EXHAUSTED

    def test_result_summary_mentions_reason(self, ring6):
        a = scripted("a", [0], label=1)
        engine = AsyncEngine(ring6, [AgentSpec(a, 0)], RoundRobinScheduler())
        result = engine.run()
        assert "reason=" in result.summary()


class TestValidationAndErrors:
    def test_duplicate_agent_names_rejected(self, ring6):
        a1 = scripted("a", [0])
        a2 = scripted("a", [0])
        with pytest.raises(SimulationError):
            AsyncEngine(ring6, [AgentSpec(a1, 0), AgentSpec(a2, 1)], RoundRobinScheduler())

    def test_unknown_start_node_rejected(self, ring6):
        with pytest.raises(SimulationError):
            AsyncEngine(ring6, [AgentSpec(scripted("a", [0]), 77)], RoundRobinScheduler())

    def test_unknown_rendezvous_agent_rejected(self, ring6):
        with pytest.raises(SimulationError):
            AsyncEngine(
                ring6,
                [AgentSpec(scripted("a", [0]), 0)],
                RoundRobinScheduler(),
                rendezvous=("a", "ghost"),
            )

    def test_no_agents_rejected(self, ring6):
        with pytest.raises(SimulationError):
            AsyncEngine(ring6, [], RoundRobinScheduler())

    def test_invalid_port_raises_protocol_error(self, ring6):
        bad = scripted("bad", [7])
        engine = AsyncEngine(ring6, [AgentSpec(bad, 0)], RoundRobinScheduler())
        with pytest.raises(ProtocolError):
            engine.run()

    def test_invalid_action_raises_protocol_error(self, ring6):
        def factory(obs):
            def program(obs):
                yield "sideways"

            return program(obs)

        bad = FunctionController("bad", factory)
        engine = AsyncEngine(ring6, [AgentSpec(bad, 0)], RoundRobinScheduler())
        with pytest.raises(ProtocolError):
            engine.run()

    def test_invalid_cost_limit_mode_rejected(self, ring6):
        with pytest.raises(SimulationError):
            AsyncEngine(
                ring6,
                [AgentSpec(scripted("a", [0]), 0)],
                RoundRobinScheduler(),
                on_cost_limit="explode",
            )


class TestEngineView:
    def test_view_reports_positions_and_progress(self, ring6):
        a = scripted("a", [0, 0], label=1)
        b = StationaryController("b", label=2)
        engine = AsyncEngine(
            ring6, [AgentSpec(a, 0), AgentSpec(b, 1)], RoundRobinScheduler()
        )
        engine._bootstrap()
        view = engine.view
        assert set(view.agent_names()) == {"a", "b"}
        assert view.eligible_agents() == ["a"]
        assert view.agent_status("b") == "stopped"
        assert view.agent_position("a").node == 0
        assert view.agent_progress("a") == 0
        assert view.total_traversals() == 0
        assert view.agent_traversals("a") == 0
        assert not view.is_dormant("a")

    @pytest.mark.parametrize(
        "scheduler",
        [RoundRobinScheduler, RandomScheduler, GreedyAvoidingScheduler],
        ids=["fused", "fused-random", "generic"],
    )
    def test_finished_engine_is_freed_without_the_cycle_collector(
        self, ring6, scheduler
    ):
        # A finished run holds every meeting event; if the engine sat in a
        # reference cycle (say, with a stored view) all of it would stay
        # alive until the cyclic collector ran.
        engine = AsyncEngine(
            ring6,
            [AgentSpec(scripted("a", [0, 0, 0], label=1), 0),
             AgentSpec(StationaryController("b", label=2), 1)],
            scheduler(),
        )
        assert engine.view.agent_names()
        assert engine.run().meetings
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_max_safe_advance_sees_obstacles(self, ring6):
        # "a" commits to the edge 0-1 while "b" sits at node 1: completing the
        # traversal would produce a meeting, so the safe advance is < 1.
        a = scripted("a", [0], label=1)
        b = StationaryController("b", label=2)
        engine = AsyncEngine(
            ring6, [AgentSpec(a, 0), AgentSpec(b, 1)], RoundRobinScheduler()
        )
        engine._bootstrap()
        safe = engine.view.max_safe_advance("a")
        assert safe is not None and Fraction(0) < safe < Fraction(1)
        # Without an obstacle the whole traversal is safe.
        engine2 = AsyncEngine(
            ring6, [AgentSpec(scripted("c", [0], label=1), 0),
                    AgentSpec(StationaryController("d", label=2), 3)],
            RoundRobinScheduler(),
        )
        engine2._bootstrap()
        assert engine2.view.max_safe_advance("c") == Fraction(1)
        assert engine2.view.max_safe_advance("d") is None
