"""Tests of the adversarial schedulers."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import pytest

from repro.exceptions import SchedulerError, SimulationError
from repro.graphs import families
from repro.sim import (
    AgentSpec,
    AsyncEngine,
    FunctionController,
    GreedyAvoidingScheduler,
    LazyScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    StationaryController,
)
from repro.sim.actions import Move
from repro.sim.schedulers import WAKE, Scheduler


def walker(name: str, ports: Sequence[int], label: int = 1) -> FunctionController:
    def factory(obs):
        def program(obs):
            for port in ports:
                obs = yield Move(port)
            return obs

        return program(obs)

    return FunctionController(name, factory, label=label)


def run(graph, agents, scheduler, **kwargs):
    engine = AsyncEngine(graph, agents, scheduler, **kwargs)
    return engine.run()


class TestRoundRobin:
    def test_alternates_between_agents(self, ring6):
        result = run(
            ring6,
            [AgentSpec(walker("a", [0] * 4), 0), AgentSpec(walker("b", [0] * 4), 3)],
            RoundRobinScheduler(),
        )
        assert result.traversals_by_agent == {"a": 4, "b": 4}

    def test_respects_explicit_order(self, ring6):
        scheduler = RoundRobinScheduler(order=["b", "a"])
        engine = AsyncEngine(
            ring6,
            [AgentSpec(walker("a", [0]), 0), AgentSpec(walker("b", [0]), 3)],
            scheduler,
        )
        engine._bootstrap()
        first = scheduler.choose(engine)
        assert first == engine.index_of("b")

    def test_skips_non_eligible_agents(self, ring6):
        result = run(
            ring6,
            [
                AgentSpec(walker("a", [0, 0]), 0),
                AgentSpec(StationaryController("b"), 3),
            ],
            RoundRobinScheduler(),
        )
        assert result.traversals_by_agent == {"a": 2, "b": 0}


class TestRandomScheduler:
    def test_same_seed_same_interleaving(self, ring6):
        def agents():
            return [
                AgentSpec(walker("a", [0] * 6), 0),
                AgentSpec(walker("b", [0] * 6), 3),
            ]

        first = run(ring6, agents(), RandomScheduler(seed=5))
        second = run(ring6, agents(), RandomScheduler(seed=5))
        assert first.traversals_by_agent == second.traversals_by_agent
        assert first.decisions == second.decisions

    def test_weights_bias_the_choice(self, ring6):
        # With weight 0 on "b", only "a" should ever be advanced while "a" is
        # still eligible.
        scheduler = RandomScheduler(seed=1, weights={"a": 1.0, "b": 0.0})
        result = run(
            ring6,
            [AgentSpec(walker("a", [0] * 3), 0), AgentSpec(walker("b", [0] * 3), 3)],
            scheduler,
        )
        # both finish eventually (b runs once a has stopped)
        assert result.traversals_by_agent == {"a": 3, "b": 3}


class TestLazyScheduler:
    def test_starves_until_threshold(self, ring6):
        scheduler = LazyScheduler("b", release_after=4)
        trace = []

        class TrackingScheduler(LazyScheduler):
            def choose(self, engine):
                choice = super().choose(engine)
                if isinstance(choice, int):
                    trace.append(engine.agents[choice].name)
                return choice

        scheduler = TrackingScheduler("b", release_after=4)
        run(
            ring6,
            [AgentSpec(walker("a", [0] * 6), 0), AgentSpec(walker("b", [0] * 6), 3)],
            scheduler,
        )
        assert trace[:4] == ["a", "a", "a", "a"]
        assert "b" in trace[4:]
        assert scheduler.released

    def test_delay_until_stop_releases_only_when_others_stop(self, ring6):
        scheduler = LazyScheduler("b", release_after=None)
        result = run(
            ring6,
            [AgentSpec(walker("a", [0] * 3), 0), AgentSpec(walker("b", [0] * 2), 3)],
            scheduler,
        )
        # "a" performs its whole walk before "b" moves at all.
        assert result.traversals_by_agent == {"a": 3, "b": 2}
        assert scheduler.released


class TestGreedyAvoidingScheduler:
    def test_rejects_non_positive_patience(self):
        with pytest.raises(SchedulerError):
            GreedyAvoidingScheduler(patience=0)

    def test_meeting_is_delayed_but_not_prevented(self, ring4):
        # Two agents walking towards each other on a tiny ring: the avoider
        # parks them repeatedly (partial advances) but patience eventually
        # forces the meeting.
        result = run(
            ring4,
            [
                AgentSpec(walker("a", [0] * 40, label=1), 0),
                AgentSpec(walker("b", [0] * 40, label=2), 2),
            ],
            GreedyAvoidingScheduler(patience=8),
            rendezvous=("a", "b"),
        )
        assert result.met
        assert result.decisions > result.total_traversals  # parking happened

    def test_larger_patience_means_at_least_as_many_decisions(self, ring4):
        def agents():
            return [
                AgentSpec(walker("a", [0] * 40, label=1), 0),
                AgentSpec(walker("b", [0] * 40, label=2), 2),
            ]

        small = run(ring4, agents(), GreedyAvoidingScheduler(patience=4), rendezvous=("a", "b"))
        large = run(ring4, agents(), GreedyAvoidingScheduler(patience=32), rendezvous=("a", "b"))
        assert large.decisions >= small.decisions

    def test_avoider_produces_only_legal_advances(self, ring6):
        # Run under the engine: any illegal decision would raise SchedulerError.
        result = run(
            ring6,
            [
                AgentSpec(walker("a", [0] * 20, label=1), 0),
                AgentSpec(walker("b", [1] * 20, label=2), 3),
            ],
            GreedyAvoidingScheduler(patience=5),
        )
        assert result.total_traversals == 40


class TestWakeSchedule:
    def test_wake_decision_emitted_at_threshold(self, ring6):
        scheduler = RoundRobinScheduler(wake_schedule={"b": 2})
        result = run(
            ring6,
            [
                AgentSpec(walker("a", [0] * 4), 0),
                AgentSpec(walker("b", [0] * 4, label=2), 3, dormant=True),
            ],
            scheduler,
        )
        assert result.traversals_by_agent["b"] == 4

    def test_wake_on_nonexistent_threshold_not_reached(self, ring6):
        scheduler = RoundRobinScheduler(wake_schedule={"b": 10_000})
        result = run(
            ring6,
            [
                AgentSpec(walker("a", [0] * 3), 0),
                AgentSpec(walker("b", [0] * 3, label=2), 3, dormant=True),
            ],
            scheduler,
        )
        assert result.traversals_by_agent["b"] == 0


class TestDecisionValidation:
    def test_illegal_advance_is_rejected_by_engine(self, ring6):
        class BadScheduler(Scheduler):
            def choose(self, engine):
                return (0, Fraction(0))  # not an advance at all

        engine = AsyncEngine(
            ring6, [AgentSpec(walker("a", [0]), 0)], BadScheduler()
        )
        with pytest.raises(SchedulerError):
            engine.run()

    def test_waking_active_agent_is_rejected(self, ring6):
        class BadScheduler(Scheduler):
            def choose(self, engine):
                return (0, WAKE)

        engine = AsyncEngine(
            ring6, [AgentSpec(walker("a", [0]), 0)], BadScheduler()
        )
        with pytest.raises(SchedulerError):
            engine.run()

    def test_unknown_decision_type_rejected(self, ring6):
        class BadScheduler(Scheduler):
            def choose(self, engine):
                return object()

        engine = AsyncEngine(
            ring6, [AgentSpec(walker("a", [0]), 0)], BadScheduler()
        )
        with pytest.raises(SchedulerError):
            engine.run()

    def test_index_out_of_range_is_rejected(self, ring6):
        class BadScheduler(Scheduler):
            def choose(self, engine):
                return -1  # an index, but of no agent

        engine = AsyncEngine(
            ring6, [AgentSpec(walker("a", [0]), 0)], BadScheduler()
        )
        with pytest.raises(SchedulerError):
            engine.run()

    def test_bare_index_is_a_complete_advance(self, ring6):
        results = []
        for to in (None, Fraction(1)):
            class Completer(Scheduler):
                def choose(self, engine, to=to):
                    if engine.agents[0].pending is None:
                        return None
                    return 0 if to is None else (0, to)

            results.append(
                run(ring6, [AgentSpec(walker("a", [0, 0]), 0)], Completer())
            )
        assert results[0] == results[1]
        assert results[0].total_traversals == 2


class CountingRoundRobin(RoundRobinScheduler):
    """Round-robin that counts its ``choose`` calls and records the solo hooks."""

    def __init__(self):
        super().__init__()
        self.chosen = 0
        self.asked = []
        self.settled = []

    def choose(self, engine):
        self.chosen += 1
        return super().choose(engine)

    def solo(self, engine, index):
        answer = super().solo(engine, index)
        self.asked.append((index, answer))
        return answer

    def settle(self, decisions):
        self.settled.append(decisions)
        super().settle(decisions)


def sgl_team(scheduler):
    from repro.exploration.cost_model import SimulationCostModel
    from repro.teams.problems import TeamMember, run_sgl

    members = [TeamMember(label=label, start_node=node) for node, label in enumerate((3, 5, 7))]
    return run_sgl(
        families.ring(3), members, scheduler=scheduler, model=SimulationCostModel()
    ).result


class Delegating(Scheduler):
    """Round-robin through a scheduler that does not override ``solo``."""

    def __init__(self):
        super().__init__()
        self.inner = RoundRobinScheduler()
        self.chosen = 0

    def choose(self, engine):
        self.chosen += 1
        return self.inner.choose(engine)


class TestMovingAlone:
    """The ``solo``/``settle`` hooks: who opts in, and when the engine asks."""

    def test_scheduler_without_solo_is_asked_every_decision(self):
        scheduler = Delegating()
        result = sgl_team(scheduler)
        assert scheduler.chosen == result.decisions
        # The same run with the agent left alone moved without ``choose``.
        assert sgl_team(RoundRobinScheduler()) == result

    def test_round_robin_settles_every_decision_it_was_not_asked(self):
        from repro.obs.trace import Tracer, use_tracer

        scheduler = CountingRoundRobin()
        tracer = Tracer()
        with use_tracer(tracer):
            result = sgl_team(scheduler)
        skipped = result.decisions - scheduler.chosen
        assert skipped > result.decisions // 2
        assert sum(scheduler.settled) == skipped
        assert len(scheduler.settled) == sum(answer for _, answer in scheduler.asked)
        assert tracer.finish().counters["engine.solo_decisions"] == skipped

    def test_avoider_opts_out(self):
        scheduler = GreedyAvoidingScheduler()
        engine = AsyncEngine(families.ring(6), [AgentSpec(walker("a", [0, 0]), 0)], scheduler)
        assert not scheduler.solo(engine, 0)

    @pytest.mark.parametrize("guard", ["none", "dormant", "rendezvous"])
    def test_dormant_member_or_rendezvous_target_keeps_choose(self, guard):
        # "a" walks on while "b" has stopped at once (or sleeps) out of its
        # way: alone, unless "b" is dormant or the run waits for a meeting.
        scheduler = CountingRoundRobin()
        result = run(
            families.path(8),
            [
                AgentSpec(walker("a", [0] * 6), 0),
                AgentSpec(walker("b", []), 7, dormant=guard == "dormant"),
            ],
            scheduler,
            rendezvous=("a", "b") if guard == "rendezvous" else None,
        )
        assert result.traversals_by_agent["a"] == 6
        if guard == "none":
            assert scheduler.asked == [(0, True)]
            assert scheduler.settled == [result.decisions - scheduler.chosen]
        else:
            assert scheduler.asked == [] and scheduler.settled == []
            assert scheduler.chosen == result.decisions

    @pytest.mark.parametrize("make", [RoundRobinScheduler, Delegating], ids=["solo", "asked"])
    def test_decision_budget_stops_a_lone_agent_at_the_same_decision(self, make):
        engine = AsyncEngine(
            families.ring(6), [AgentSpec(walker("a", [0] * 20), 0)], make(),
            max_decisions=5,
        )
        with pytest.raises(SimulationError, match="decision budget"):
            engine.run()
        assert engine.total_traversals == 5
        assert engine.agents[0].traversals == 5
