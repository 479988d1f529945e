"""Adversarial schedulers: the asynchronous adversary of the paper.

In the paper the adversary chooses, for every agent, an arbitrary continuous
walk along the route the agent selects: it controls speeds, can stop agents,
and can starve one agent while the other works, subject only to every started
edge traversal finishing eventually.  The engine discretises this power into a
sequence of *decisions*; a scheduler is the adversary strategy producing them.

Choosing a move
---------------
A scheduler's one method, :meth:`Scheduler.choose`, reads the engine's flat
agent state (``engine.agents``, sorted by name; an agent is *eligible* while
it has a committed traversal, ``pending is not None``) and returns

* an agent index ``i`` — complete the traversal of ``engine.agents[i]``;
* a pair ``(i, to)`` — advance agent ``i`` to the absolute progress ``to``, a
  :class:`~fractions.Fraction` above its current progress (``1`` completes;
  a park point comes from ``engine.max_safe_advance(i)``), or wake it when
  ``to is WAKE`` (the adversary chooses wake-up times);
* ``None`` — the adversary has no further moves.

Once one agent is left moving alone, a fair adversary has no choice left:
round-robin, random and lazy opt in to :meth:`Scheduler.solo` and
:meth:`Scheduler.settle`, which let the engine move that agent without a
``choose`` call per decision.  The avoider, like any scheduler that does not
override ``solo``, is asked on every decision.

Schedulers provided
-------------------
* :class:`RoundRobinScheduler` — fair alternation of complete traversals; the
  closest analogue of a synchronous execution.
* :class:`RandomScheduler` — random (optionally biased) interleaving.
* :class:`LazyScheduler` — starves one agent until the others have performed a
  given number of traversals or have all stopped; with no threshold this is
  the *delay-until-stop* adversary used against the exponential baseline.
* :class:`GreedyAvoidingScheduler` — a meeting-avoiding adversary with bounded
  starvation ("patience"): it parks agents just short of any coincidence and
  completes a traversal that forces a meeting only when the patience of some
  agent is exhausted.  It stands in for the paper's omniscient worst-case
  adversary, which a simulation cannot compute; with unbounded patience it
  approximates that worst case.

All schedulers honour an optional ``wake_schedule`` mapping agent names to the
total-traversal count at which the adversary wakes them.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import SchedulerError, SimulationError
from ..runtime.registry import SCHEDULERS
from .engine import WAKE, AgentStatus

__all__ = [
    "WAKE",
    "Choice",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "LazyScheduler",
    "GreedyAvoidingScheduler",
]

#: What :meth:`Scheduler.choose` returns (see the module docstring).
Choice = Union[int, Tuple[int, object], None]

_DORMANT = AgentStatus.DORMANT


def _eligible(agents) -> List[int]:
    """Indices of the agents that have a committed traversal, in name order."""
    return [i for i, state in enumerate(agents) if state.pending is not None]


class Scheduler:
    """Base class of adversary strategies.

    Subclasses implement :meth:`choose` and open it with the wake check
    ``if self._wakes: ...`` (see :meth:`_due_wake`).  A scheduler keeps its
    state (cursors, generator, the agents it reads) across decisions, so one
    instance drives one engine run.
    """

    def __init__(self, wake_schedule: Optional[Dict[str, int]] = None) -> None:
        #: Sorted ``(name, threshold)`` pairs of the wake schedule, pruned of
        #: agents already awake (woken agents never become dormant again, so
        #: pruning keeps the per-decision check short without changing it).
        self._wakes: List[Tuple[str, int]] = sorted(dict(wake_schedule or {}).items())

    def choose(self, engine) -> Choice:
        """The next move of the adversary (see the module docstring)."""
        raise NotImplementedError

    def solo(self, engine, index: int) -> bool:
        """Whether every further :meth:`choose` would complete agent ``index``.

        Asked when ``engine.agents[index]`` becomes the only agent not
        stopped, with none dormant, nobody inside an edge and no rendezvous
        target.  ``True`` promises that ``choose`` would return ``index``
        while this holds; the engine then skips those calls and reports them
        to :meth:`settle`.  The base class opts out; a subclass overriding a
        built-in ``choose`` inherits its ``solo`` and must opt out unless its
        ``choose`` agrees.
        """
        return False

    def settle(self, decisions: int) -> None:
        """Leave the state where ``decisions`` further ``choose`` calls would.

        Called after each run of decisions :meth:`solo` allowed (possibly
        none).  The base class prunes the wake schedule, as the wake check
        of the first call would: no agent is dormant.
        """
        if decisions:
            self._wakes = []

    def _knows_wakes(self, engine) -> bool:
        """Whether every agent of the wake schedule exists (else ``choose`` raises)."""
        return all(engine.index_of(name) is not None for name, _ in self._wakes)

    def _due_wake(self, engine) -> Optional[Tuple[int, object]]:
        """The first scheduled agent that is still dormant and due, as a wake."""
        agents = engine.agents
        total = engine.total_traversals
        result = None
        dormant = []
        for name, threshold in self._wakes:
            index = engine.index_of(name)
            if index is None:
                raise SimulationError(f"unknown agent {name!r}")
            if agents[index].status == _DORMANT:
                dormant.append((name, threshold))
                if result is None and total >= threshold:
                    result = (index, WAKE)
        self._wakes = dormant
        return result


class _Nobody:
    """Stands in the round-robin cycle for a name that is no agent."""

    pending = None


class RoundRobinScheduler(Scheduler):
    """Alternate complete edge traversals between agents in a fixed cycle."""

    def __init__(
        self,
        order: Optional[Sequence[str]] = None,
        wake_schedule: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(wake_schedule)
        self._order = list(order) if order is not None else None
        #: The agent states of the cycle ``_order`` and the cursor over them:
        #: each ``_probe()`` returns the next one (built at the first decision).
        self._ring: List = []
        self._probe = None
        self._survivor = None  # the agent state :meth:`solo` last named

    def _start(self, engine):
        agents = engine.agents
        if self._order is None:
            self._order = sorted(state.name for state in agents)
        positions = [engine.index_of(name) for name in self._order]
        self._ring = [_Nobody if i is None else agents[i] for i in positions] or [_Nobody]
        self._probe = itertools.cycle(self._ring).__next__
        return self._probe

    def choose(self, engine) -> Choice:
        if self._wakes:
            wake = self._due_wake(engine)
            if wake is not None:
                return wake
        probe = self._probe
        if probe is None:
            probe = self._start(engine)
        # First probe outside the scan: the next agent is almost always ready.
        state = probe()
        if state.pending is not None:
            return state.index
        for _ in range(len(self._order) - 1):
            state = probe()
            if state.pending is not None:
                return state.index
        # Nobody in the fixed cycle is eligible: either nobody is (the run is
        # over for this adversary) or the eligible agents sit outside the
        # cycle.  The cursor has moved once round the cycle, as the probes did.
        eligible = _eligible(engine.agents)
        return eligible[0] if eligible else None

    def solo(self, engine, index: int) -> bool:
        # Alone, each choose probes up to the agent's next place in the cycle
        # (or, outside it, once round the cycle) and returns it.
        if self._probe is None:
            self._start(engine)
        self._survivor = engine.agents[index]
        return self._knows_wakes(engine)

    def settle(self, decisions: int) -> None:
        super().settle(decisions)
        state = self._survivor
        places = self._ring.count(state)
        if decisions and places:
            # The cursor is back where it was every ``places`` decisions.
            probe = self._probe
            for _ in range((decisions - 1) % places + 1):
                while probe() is not state:
                    pass


class RandomScheduler(Scheduler):
    """Complete the traversal of a randomly chosen eligible agent.

    ``weights`` optionally biases the choice (e.g. make one agent ten times
    faster than the other); unknown agents get weight 1.
    """

    def __init__(
        self,
        seed: int = 0,
        weights: Optional[Dict[str, float]] = None,
        wake_schedule: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(wake_schedule)
        self._rng = random.Random(seed)
        self._weights = dict(weights or {})

    def choose(self, engine) -> Choice:
        if self._wakes:
            wake = self._due_wake(engine)
            if wake is not None:
                return wake
        agents = engine.agents
        eligible = _eligible(agents)
        if not eligible:
            return None
        if self._weights:
            weights = [
                max(self._weights.get(agents[i].name, 1.0), 0.0) for i in eligible
            ]
            if sum(weights) > 0:
                return self._rng.choices(eligible, weights=weights, k=1)[0]
        # Unweighted, ``rng.choices(eligible, weights=[1.0] * m)`` bisects the
        # integer cumulative weights at ``random() * m``: the floor of it, so
        # one ``random()`` indexes the eligible list directly.
        return eligible[int(self._rng.random() * len(eligible))]

    def solo(self, engine, index: int) -> bool:
        # Alone, each choose draws one ``random()``, weighted or not, unless
        # an infinite weight makes ``rng.choices`` raise.
        weight = self._weights.get(engine.agents[index].name, 1.0)
        return self._knows_wakes(engine) and math.isfinite(weight)

    def settle(self, decisions: int) -> None:
        super().settle(decisions)
        draw = self._rng.random
        for _ in range(decisions):
            draw()


class LazyScheduler(Scheduler):
    """Starve one agent while the others run.

    Parameters
    ----------
    starved:
        Name of the starved agent.  A name that is no agent starves nobody.
    release_after:
        Release the starved agent once the *other* agents have jointly
        completed this many traversals.  ``None`` means "only release when no
        other agent can move any more" — the *delay-until-stop* adversary.
    """

    def __init__(
        self,
        starved: str,
        release_after: Optional[int] = None,
        wake_schedule: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(wake_schedule)
        self._starved = starved
        self._release_after = release_after
        self._released = False
        self._cursor = 0
        #: The ``choose`` call after :meth:`solo` (counting from 1) that
        #: releases the starved agent, or ``None``.
        self._release_in: Optional[int] = None

    @property
    def released(self) -> bool:
        """Whether the starved agent has been released."""
        return self._released

    def choose(self, engine) -> Choice:
        if self._wakes:
            wake = self._due_wake(engine)
            if wake is not None:
                return wake
        agents = engine.agents
        eligible = _eligible(agents)
        if not eligible:
            return None
        if not self._released:
            starved = engine.index_of(self._starved)
            others = [i for i in eligible if i != starved]
            others_cost = engine.total_traversals - (
                0 if starved is None else agents[starved].traversals
            )
            if not others or (
                self._release_after is not None and others_cost >= self._release_after
            ):
                self._released = True
            else:
                # Starving: round-robin over everybody else.
                eligible = others
        # Released: round-robin over everybody still eligible.
        index = eligible[self._cursor % len(eligible)]
        self._cursor += 1
        return index

    def solo(self, engine, index: int) -> bool:
        # Alone, each choose returns ``index`` and moves the cursor on; the
        # release happens at once if ``index`` is the starved agent, else
        # once the others' traversals, one more per decision, reach the
        # threshold.
        self._release_in = None
        if not self._released:
            starved = engine.index_of(self._starved)
            if starved == index:
                self._release_in = 1
            elif self._release_after is not None:
                others_cost = engine.total_traversals - (
                    0 if starved is None else engine.agents[starved].traversals
                )
                self._release_in = max(1, self._release_after - others_cost + 1)
        return self._knows_wakes(engine)

    def settle(self, decisions: int) -> None:
        super().settle(decisions)
        if self._release_in is not None and decisions >= self._release_in:
            self._released = True
        self._cursor += decisions


class GreedyAvoidingScheduler(Scheduler):
    """A meeting-avoiding adversary with bounded starvation.

    The adversary tries to prevent coincidences for as long as it legally can:

    * it prefers to complete traversals that cause no meeting;
    * when an agent cannot complete its traversal without a meeting, it is
      *parked* — advanced to just short of the obstacle — and other agents
      move instead;
    * every time an agent is passed over its "starvation" counter increases;
      once the counter reaches ``patience`` the adversary must let that agent
      complete its traversal, even if that forces a meeting.  This models the
      paper's requirement that every started traversal finishes eventually.

    Larger ``patience`` values make the adversary stronger (closer to the
    paper's unconstrained adversary) and the measured cost larger.
    """

    def __init__(
        self,
        patience: int = 64,
        wake_schedule: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(wake_schedule)
        if patience < 1:
            raise SchedulerError("patience must be at least 1")
        self._patience = patience
        #: Per agent index: decisions the agent was passed over in a row.
        self._passed_over: List[int] = []

    def choose(self, engine) -> Choice:
        if self._wakes:
            wake = self._due_wake(engine)
            if wake is not None:
                return wake
        eligible = _eligible(engine.agents)
        if not eligible:
            return None
        passed = self._passed_over
        if not passed:
            passed.extend([0] * len(engine.agents))
        safe_advance = engine.max_safe_advance
        advance = {i: safe_advance(i) for i in eligible}
        safe = [i for i in eligible if advance[i] == 1]
        # An agent whose patience is exhausted must complete now, meetings or
        # not; otherwise relieve the most-starved agent whose completion is
        # harmless; if nobody can complete without a meeting, park the
        # most-starved agent just short of its obstacle.  Ties go to the
        # later index, i.e. the larger name.
        exhausted = [i for i in eligible if passed[i] >= self._patience]
        chosen = max(exhausted or safe or eligible, key=lambda i: (passed[i], i))
        for i in eligible:
            passed[i] += 1
        if exhausted or safe:
            passed[chosen] = 0
            return chosen
        return (chosen, advance[chosen])


# ----------------------------------------------------------------------
# runtime registry entries
# ----------------------------------------------------------------------
# The named adversaries of the experiment suite.  Factories take the run's
# seed plus free-form parameters and ignore what they do not use, so one
# scenario-spec parameter bag serves every adversary.

@SCHEDULERS.register("round_robin")
def _make_round_robin(seed: int = 0, **_params) -> RoundRobinScheduler:
    return RoundRobinScheduler()


@SCHEDULERS.register("random")
def _make_random(seed: int = 0, **_params) -> RandomScheduler:
    return RandomScheduler(seed=seed)


@SCHEDULERS.register("lazy")
def _make_lazy(
    seed: int = 0, starved: str = "agent-2", release_after: int = 64, **_params
) -> LazyScheduler:
    return LazyScheduler(starved, release_after=release_after)


@SCHEDULERS.register("delay_until_stop")
def _make_delay_until_stop(
    seed: int = 0, starved: str = "agent-2", **_params
) -> LazyScheduler:
    return LazyScheduler(starved, release_after=None)


@SCHEDULERS.register("avoider")
def _make_avoider(seed: int = 0, patience: int = 64, **_params) -> GreedyAvoidingScheduler:
    return GreedyAvoidingScheduler(patience=patience)
