"""Asynchronous adversarial execution of mobile agents.

This package implements the paper's execution model: agents choose routes,
an adversarial scheduler chooses how fast they move along them, and agents
meet when their points coincide (possibly inside an edge).

Public API
----------
* :class:`~repro.sim.engine.AsyncEngine`, :class:`~repro.sim.engine.AgentSpec`,
  and ``WAKE``, the target of a scheduler's wake choice
* actions and observations: :class:`~repro.sim.actions.Move`,
  :class:`~repro.sim.actions.Stop`, :class:`~repro.sim.actions.Observation`,
  :class:`~repro.sim.actions.MeetingEvent`
* controllers: :class:`~repro.sim.agent.AgentController`,
  :class:`~repro.sim.agent.FunctionController`,
  :class:`~repro.sim.agent.StationaryController`
* adversaries: :class:`~repro.sim.schedulers.RoundRobinScheduler`,
  :class:`~repro.sim.schedulers.RandomScheduler`,
  :class:`~repro.sim.schedulers.LazyScheduler`,
  :class:`~repro.sim.schedulers.GreedyAvoidingScheduler`
* results: :class:`~repro.sim.results.RunResult`,
  :class:`~repro.sim.results.StopReason`
"""

from .actions import AgentSnapshot, MeetingEvent, Move, Observation, Stop
from .agent import AgentController, FunctionController, StationaryController
from .engine import WAKE, AgentSpec, AgentStatus, AsyncEngine
from .position import Position
from .results import RunResult, StopReason
from .schedulers import (
    GreedyAvoidingScheduler,
    LazyScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)

__all__ = [
    "AgentSnapshot",
    "MeetingEvent",
    "Move",
    "Observation",
    "Stop",
    "AgentController",
    "FunctionController",
    "StationaryController",
    "AgentSpec",
    "AgentStatus",
    "AsyncEngine",
    "WAKE",
    "Position",
    "RunResult",
    "StopReason",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "LazyScheduler",
    "GreedyAvoidingScheduler",
]
