"""Adversarial schedulers: the asynchronous adversary of the paper.

In the paper the adversary chooses, for every agent, an arbitrary continuous
walk along the route the agent selects: it controls speeds, can stop agents,
and can starve one agent while the other works, subject only to every started
edge traversal finishing eventually.  The engine discretises this power into a
sequence of *decisions*; a scheduler is the adversary strategy producing them.

Available decisions
-------------------
* :class:`Advance` — move one agent along its committed edge up to an absolute
  progress fraction (``1`` completes the traversal).
* :class:`Wake` — wake a dormant agent (the adversary chooses wake-up times).

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

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import SchedulerError
from ..runtime.registry import SCHEDULERS

__all__ = [
    "Decision",
    "Advance",
    "Wake",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "LazyScheduler",
    "GreedyAvoidingScheduler",
]


class Decision:
    """Base class of scheduler decisions."""

    __slots__ = ()


@dataclass(frozen=True)
class Advance(Decision):
    """Advance ``agent`` along its committed edge to absolute progress ``to``.

    ``to`` must exceed the agent's current progress and is at most 1;
    ``to == 1`` completes the traversal.
    """

    __slots__ = ("agent", "to")

    agent: str
    to: Fraction


#: Shared constant so that fair schedulers do not allocate a Fraction per decision.
_ONE = Fraction(1)

#: ``Advance(name, 1)`` is frozen and agent names are few, so the fair
#: schedulers share one completion decision per agent instead of allocating
#: one per decision.
_COMPLETE_CACHE: Dict[str, Advance] = {}


def complete(agent: str) -> Advance:
    """Shorthand for an :class:`Advance` that completes the traversal."""
    decision = _COMPLETE_CACHE.get(agent)
    if decision is None:
        decision = _COMPLETE_CACHE[agent] = Advance(agent, _ONE)
    return decision


@dataclass(frozen=True)
class Wake(Decision):
    """Wake the dormant agent ``agent``."""

    __slots__ = ("agent",)

    agent: str


class Scheduler:
    """Base class of adversary strategies.

    Subclasses implement :meth:`choose`; the base class takes care of the
    optional wake schedule.  ``view`` is the engine's read-only view (see
    :class:`repro.sim.engine.EngineView`).
    """

    def __init__(self, wake_schedule: Optional[Dict[str, int]] = None) -> None:
        self._wake_schedule = dict(wake_schedule or {})
        #: Sorted, still-dormant portion of the wake schedule (lazily built).
        #: Woken agents never become dormant again, so pruning them preserves
        #: the decision sequence while keeping the per-decision scan short.
        self._wake_pending: Optional[List[Tuple[str, int]]] = None

    # ------------------------------------------------------------------
    def decide(self, view) -> Optional[Decision]:
        """Return the next decision, or ``None`` if the adversary is done."""
        wake = self._pending_wake(view)
        if wake is not None:
            return wake
        return self.choose(view)

    def choose(self, view) -> Optional[Decision]:
        """Strategy-specific decision (wake handling already done)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _pending_wake(self, view) -> Optional[Wake]:
        schedule = self._wake_schedule
        if not schedule:
            return None
        pending = self._wake_pending
        if pending is None:
            pending = self._wake_pending = sorted(schedule.items())
        if not pending:
            return None
        total = view.total_traversals()
        is_dormant = view.is_dormant
        result: Optional[Wake] = None
        prune = False
        for name, threshold in pending:
            if is_dormant(name):
                if result is None and total >= threshold:
                    result = Wake(name)
                    if not prune:
                        break
            else:
                prune = True
        if prune:
            self._wake_pending = [item for item in pending if is_dormant(item[0])]
        return result

    @staticmethod
    def _sorted_eligible(view) -> List[str]:
        return sorted(view.eligible_agents())


class RoundRobinScheduler(Scheduler):
    """Alternate complete edge traversals between agents in a fixed cycle."""

    def __init__(
        self,
        order: Optional[Sequence[str]] = None,
        wake_schedule: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(wake_schedule)
        self._order = list(order) if order is not None else None
        self._cursor = 0

    def choose(self, view) -> Optional[Decision]:
        is_eligible = getattr(view, "is_eligible", None)
        if is_eligible is None:
            return self._choose_scan(view)
        if self._order is None:
            self._order = sorted(view.agent_names())
        order = self._order
        n = len(order)
        cursor = self._cursor
        for i in range(n):
            name = order[(cursor + i) % n]
            if is_eligible(name):
                self._cursor = cursor + i + 1
                return complete(name)
        # Nobody in the fixed cycle is eligible: either nobody is (the run is
        # over for this adversary) or the eligible agents sit outside the
        # cycle.  The cursor moves exactly as far as the probes above did.
        eligible = view.eligible_agents()
        if not eligible:
            return None
        self._cursor = cursor + n
        return complete(sorted(eligible)[0])

    def _choose_scan(self, view) -> Optional[Decision]:
        # Fallback for minimal view objects without ``is_eligible``.
        eligible = set(view.eligible_agents())
        if not eligible:
            return None
        if self._order is None:
            self._order = sorted(view.agent_names())
        for _ in range(len(self._order)):
            name = self._order[self._cursor % len(self._order)]
            self._cursor += 1
            if name in eligible:
                return complete(name)
        # Fall back to any eligible agent not present in the fixed order.
        return complete(sorted(eligible)[0])


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

    def choose(self, view) -> Optional[Decision]:
        eligible = self._sorted_eligible(view)
        if not eligible:
            return None
        return complete(self._pick(eligible))

    def _pick(self, eligible: List[str]) -> str:
        """Draw one of the sorted ``eligible`` names (one ``random()`` call)."""
        weights = [max(self._weights.get(name, 1.0), 0.0) for name in eligible]
        if sum(weights) <= 0:
            weights = [1.0] * len(eligible)
        return self._rng.choices(eligible, weights=weights, k=1)[0]


class LazyScheduler(Scheduler):
    """Starve one agent while the others run.

    Parameters
    ----------
    starved:
        Name of the starved agent.
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

    @property
    def released(self) -> bool:
        """Whether the starved agent has been released."""
        return self._released

    def choose(self, view) -> Optional[Decision]:
        eligible = self._sorted_eligible(view)
        if not eligible:
            return None
        others = [name for name in eligible if name != self._starved]
        if not self._released:
            others_cost = sum(
                view.agent_traversals(name)
                for name in view.agent_names()
                if name != self._starved
            )
            threshold_reached = (
                self._release_after is not None and others_cost >= self._release_after
            )
            if threshold_reached or not others:
                self._released = True
        if not self._released and others:
            name = others[self._cursor % len(others)]
            self._cursor += 1
            return complete(name)
        # Released: behave like round-robin over everybody still eligible.
        name = eligible[self._cursor % len(eligible)]
        self._cursor += 1
        return complete(name)


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
        self._passed_over: Dict[str, int] = {}

    def choose(self, view) -> Optional[Decision]:
        eligible = self._sorted_eligible(view)
        if not eligible:
            return None
        for name in eligible:
            self._passed_over.setdefault(name, 0)

        safe: List[str] = []
        blocked: List[str] = []
        for name in eligible:
            if view.max_safe_advance(name) == _ONE:
                safe.append(name)
            else:
                blocked.append(name)

        # An agent whose patience is exhausted must complete now, meetings or not.
        exhausted = [
            name for name in eligible if self._passed_over[name] >= self._patience
        ]
        if exhausted:
            chosen = max(exhausted, key=lambda name: (self._passed_over[name], name))
            return self._complete(chosen, eligible)

        if safe:
            # Relieve the most-starved agent whose completion is harmless.
            chosen = max(safe, key=lambda name: (self._passed_over[name], name))
            return self._complete(chosen, eligible)

        # Nobody can complete without a meeting and nobody is forced yet:
        # park the most-starved blocked agent just short of its obstacle.
        chosen = max(blocked, key=lambda name: (self._passed_over[name], name))
        target = view.max_safe_advance(chosen)
        for name in eligible:
            self._passed_over[name] += 1
        current = view.agent_progress(chosen)
        if target is None or target <= current:
            # No room to park: fall back to completing (forced meeting).
            return complete(chosen)
        return Advance(chosen, target)

    def _complete(self, chosen: str, eligible: Iterable[str]) -> Advance:
        for name in eligible:
            if name != chosen:
                self._passed_over[name] += 1
        self._passed_over[chosen] = 0
        return complete(chosen)


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
