"""Declarative fault injection for tick-asynchronous runs.

A :class:`FaultPlan` is derived *entirely* from ``(problem_params, seed,
n_agents, max_ticks)``, so the faults a run suffers are part of its spec:
two cells with the same spec crash the same agents at the same ticks and
drop the same messages, and the content-addressed store can serve either
for the other.  The recognised ``problem_params`` keys:

``fault_rate`` (float, default 0.0)
    Each agent is independently crash-faulty with this probability; a
    faulty agent's crash tick is drawn uniformly from ``[1, crash_window]``.
    Draws come from ``random.Random(f"{seed}:faults")`` in agent-id order.
``crash_window`` (int, default ``max_ticks``)
    Upper bound of the ``fault_rate`` crash-tick draw.  Protocols often
    converge long before ``max_ticks``; a small window makes the drawn
    crashes land *during* the protocol instead of after it.
``crash_at`` (mapping, default ``{}``)
    Explicit ``{agent_id: tick}`` crashes.  Keys **must** be strings (e.g.
    ``{"2": 5}``) so the spec survives a JSON round trip byte-identically;
    explicit entries override ``fault_rate`` draws for the same agent.
``crash_after_activations`` (mapping, default ``{}``)
    ``{agent_id: count}`` — the agent crashes in place of its ``count``-th
    activation.  String keys, like ``crash_at``.
``drop_rate`` (float, default 0.0)
    Probability that any sent message is silently dropped.  Draws come from
    ``random.Random(f"{seed}:drops")`` in send order (which is itself
    deterministic, because activation order is).

A crashed agent never activates again, sends nothing, and receives
nothing; problems decide how crashed agents count towards the goal (e.g.
gathering excludes them).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Mapping, Tuple

from ..exceptions import ReproError

__all__ = ["FaultPlan"]


def _int_keyed(name: str, value: Any, n_agents: int) -> Dict[int, int]:
    """Validate a ``{str(agent_id): int}`` param mapping into int keys."""
    if not value:
        return {}
    if not isinstance(value, Mapping):
        # _freeze_params leaves nested values alone, so a mapping that went
        # through a spec may arrive as a pair tuple.
        try:
            value = dict(value)
        except (TypeError, ValueError):
            raise ReproError(f"{name} must be a mapping, got {value!r}") from None
    result: Dict[int, int] = {}
    for key, entry in value.items():
        if not isinstance(key, str):
            raise ReproError(
                f"{name} keys must be strings (agent ids), got {key!r}; "
                "string keys are what survive the spec's JSON round trip"
            )
        agent_id = int(key)
        if not 0 <= agent_id < n_agents:
            raise ReproError(f"{name} names agent {agent_id}, but there are {n_agents}")
        result[agent_id] = int(entry)
    return result


class FaultPlan:
    """The complete, pre-drawn fault schedule of one run."""

    def __init__(
        self,
        *,
        crash_tick_of: Dict[int, int],
        activation_limit_of: Dict[int, int],
        drop_rate: float,
        seed: int,
    ) -> None:
        self.crash_tick_of = dict(crash_tick_of)
        self.activation_limit_of = dict(activation_limit_of)
        self.drop_rate = float(drop_rate)
        self._drop_rng = random.Random(f"{seed}:drops")

    @classmethod
    def from_params(
        cls, params: Mapping[str, Any], *, n_agents: int, seed: int, max_ticks: int
    ) -> "FaultPlan":
        fault_rate = float(params.get("fault_rate", 0.0))
        drop_rate = float(params.get("drop_rate", 0.0))
        for name, rate in (("fault_rate", fault_rate), ("drop_rate", drop_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {rate}")
        crash_window = int(params.get("crash_window", max_ticks))
        if not 1 <= crash_window <= max_ticks:
            raise ReproError(
                f"crash_window must be in [1, max_ticks={max_ticks}], got {crash_window}"
            )
        crash_tick_of: Dict[int, int] = {}
        if fault_rate > 0.0:
            rng = random.Random(f"{seed}:faults")
            for agent_id in range(n_agents):
                if rng.random() < fault_rate:
                    crash_tick_of[agent_id] = rng.randint(1, crash_window)
        crash_tick_of.update(_int_keyed("crash_at", params.get("crash_at"), n_agents))
        activation_limit_of = _int_keyed(
            "crash_after_activations", params.get("crash_after_activations"), n_agents
        )
        return cls(
            crash_tick_of=crash_tick_of,
            activation_limit_of=activation_limit_of,
            drop_rate=drop_rate,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # queries (called by the engine)
    # ------------------------------------------------------------------
    def crashes_at_tick(self, agent_id: int, tick: int) -> bool:
        """Whether ``agent_id`` is scheduled to crash at the start of ``tick``."""
        return self.crash_tick_of.get(agent_id) == tick

    def crashes_on_activation(self, agent_id: int, activation: int) -> bool:
        """Whether ``agent_id``'s ``activation``-th activation is a crash."""
        limit = self.activation_limit_of.get(agent_id)
        return limit is not None and activation >= limit

    def drops_message(self) -> bool:
        """Draw the next message-drop decision (deterministic in send order)."""
        if self.drop_rate <= 0.0:
            return False
        return self._drop_rng.random() < self.drop_rate
