"""String-keyed registries behind the scenario runtime.

Everything a :class:`~repro.runtime.spec.ScenarioSpec` names symbolically —
graph families, adversarial schedulers, problem kinds, cost models — resolves
through one of the registries below.  Components self-register at import time
with the decorator API::

    from repro.runtime.registry import SCHEDULERS

    @SCHEDULERS.register("round_robin")
    def _round_robin(seed=0, **_ignored):
        return RoundRobinScheduler()

Names resolve strictly through the registries defined here, so a family
or adversary registered once is immediately usable from specs, the CLI, the
experiments, the benchmarks and the examples.  The experiment
layer follows the same pattern with its own registry
(:data:`repro.analysis.experiment_spec.EXPERIMENTS`).

This module deliberately imports nothing but the exception hierarchy, so it
can be imported from anywhere in the package without cycles.  Registration
happens in the module that defines the component (``graphs/families.py``,
``sim/schedulers.py``, ``exploration/cost_model.py``, ``runtime/runner.py``).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..exceptions import RegistryError

__all__ = [
    "Registry",
    "GRAPH_FAMILIES",
    "SCHEDULERS",
    "PROBLEMS",
    "COST_MODELS",
    "INTERLEAVERS",
]


class Registry:
    """An ordered, string-keyed registry of factory callables.

    Membership, iteration and length work as on a set of names
    (``name in registry``, ``sorted(registry)``, ``len(registry)``); lookups
    go through :meth:`resolve` and :meth:`create`, which raise
    :class:`~repro.exceptions.RegistryError` with the available names.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, factory: Optional[Callable[..., Any]] = None
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``name``; usable as a decorator.

        Duplicate names are rejected: a registry maps each name to exactly
        one factory for the lifetime of the process.
        """
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} names must be non-empty strings, got {name!r}")

        def _record(func: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._entries:
                raise RegistryError(f"duplicate {self.kind} name {name!r}")
            self._entries[name] = func
            return func

        if factory is not None:
            return _record(factory)
        return _record

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def resolve(self, name: str) -> Callable[..., Any]:
        """Return the factory registered under ``name`` or raise ``RegistryError``."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {sorted(self._entries)}"
            ) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the entry registered under ``name``.

        Arguments the factory's signature cannot take raise
        :class:`~repro.exceptions.RegistryError` naming the entry; a
        ``TypeError`` raised from inside a factory propagates unchanged.
        """
        factory = self.resolve(name)
        try:
            return factory(*args, **kwargs)
        except TypeError:
            # Only on the failure path: tell a bad parameter from a bug.
            try:
                inspect.signature(factory).bind(*args, **kwargs)
            except TypeError as error:
                raise RegistryError(
                    f"bad parameters for {self.kind} {name!r}: {error}"
                ) from None
            raise

    def names(self) -> Tuple[str, ...]:
        """All registered names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {sorted(self._entries)})"


#: Graph families: ``factory(n, seed=0) -> PortLabeledGraph``.
GRAPH_FAMILIES = Registry("graph family")

#: Adversaries: ``factory(seed=0, **params) -> Scheduler``.
SCHEDULERS = Registry("scheduler")

#: Problem kinds: ``factory(spec, graph, model) -> RunRecord``.
PROBLEMS = Registry("problem")

#: Cost models: ``factory() -> CostModel``.
COST_MODELS = Registry("cost model")

#: Tick interleaving models (the tick-asynchronous analogue of the
#: continuous-time adversaries): ``factory(seed=0, **params) -> Interleaver``.
INTERLEAVERS = Registry("interleaver")
