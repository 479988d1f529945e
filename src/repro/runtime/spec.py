"""Declarative, JSON-round-trippable scenario and sweep specifications.

A :class:`ScenarioSpec` is a frozen value object describing *one* run — the
graph, the agents, the adversary, the budget and the problem being solved —
without holding any live object.  Because every field is a plain value the
spec pickles and JSON-round-trips by construction, which is what lets the
sweep runtime ship cells to worker processes and lets experiments be stored
next to their results.

A :class:`SweepSpec` is a grid over scenario dimensions (families, sizes,
seeds, schedulers, label sets, scheduler parameter sets, problems, team
sizes); :meth:`SweepSpec.cells` enumerates the concrete scenarios in a fixed
deterministic order, so two executions of the same sweep — serial or in a
process pool — always produce records in the same order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..exceptions import ReproError
from .registry import COST_MODELS, GRAPH_FAMILIES, PROBLEMS, SCHEDULERS

__all__ = ["ScenarioSpec", "SweepSpec", "ParamItems", "spec_key", "SPEC_KEY_VERSION"]

#: Version of the content-hash schema used by :func:`spec_key`.  Bump this
#: whenever the meaning of a spec field (or the set of fields) changes in a
#: way that makes previously stored results incomparable — every existing
#: store entry then misses cleanly instead of being served stale.
SPEC_KEY_VERSION = 1

#: Normalised key/value parameter bag: a sorted tuple of ``(key, value)``
#: pairs.  Hashable, picklable and JSON-round-trippable, unlike a dict.
ParamItems = Tuple[Tuple[str, Any], ...]


def _freeze_params(params: Any) -> ParamItems:
    """Normalise a mapping / item sequence into a sorted tuple of pairs.

    An exact ``dict`` (a JSON object) or ``tuple`` (an already-frozen bag)
    is classified by its type alone; the ``Mapping`` check would put it on
    the same branch.
    """
    if params is None:
        return ()
    kind = type(params)
    if kind is dict or (kind is not tuple and isinstance(params, Mapping)):
        items = params.items()
    else:
        items = params
    return tuple(sorted((str(key), value) for key, value in items))


def _freeze_ints(values: Any) -> Optional[Tuple[int, ...]]:
    if values is None:
        return None
    return tuple(int(value) for value in values)


#: Exact types that :func:`_freeze_value` (and ``records._canonical``) return
#: unchanged without walking the ``isinstance`` chain.
_SCALARS = frozenset((int, float, str, bool, type(None)))


def _freeze_value(value: Any) -> Any:
    """Recursively freeze an arbitrary initial value into a hashable shape.

    Mappings become sorted ``(key, value)`` pair tuples, sequences and sets
    become tuples; scalars pass through.  The frozen shape is what travels in
    the spec (and hence in team-member values handed to Algorithm SGL).

    Scalars and exact ``list``/``tuple``/``dict`` values are dispatched on
    ``type(value)`` first and give the same shapes as the ``isinstance``
    fallback, which handles everything else (other mappings, sets,
    namedtuples and subclasses).
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list or kind is tuple:
        return tuple([_freeze_value(item) for item in value])
    if kind is dict or isinstance(value, Mapping):
        return tuple(sorted((str(key), _freeze_value(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze_value(item) for item in value))
    return value


def _listify(value: Any) -> Any:
    """Recursively convert tuples to lists (the JSON-facing inverse of freezing)."""
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    return value


def canonical_json(data: Any) -> str:
    """Serialise ``data`` deterministically: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def spec_key(spec: "ScenarioSpec") -> str:
    """Content hash of a scenario: sha256 over its canonical JSON form.

    The key is what the result store addresses records by.  Two specs get the
    same key exactly when they describe the same computation: every field of
    :meth:`ScenarioSpec.to_dict` participates **except** ``name``, which is a
    display label (the same cell computed by experiment E1 or by an ad-hoc
    sweep should hit the same cache entry).  The hash input is prefixed with
    :data:`SPEC_KEY_VERSION` so schema changes invalidate cleanly.
    """
    data = spec.to_dict()
    data.pop("name", None)
    payload = f"repro.ScenarioSpec.v{SPEC_KEY_VERSION}:{canonical_json(data)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to run one scenario, as plain values.

    Attributes
    ----------
    problem:
        Problem kind (a :data:`~repro.runtime.registry.PROBLEMS` name):
        ``"rendezvous"``, ``"baseline"``, ``"esst"`` or ``"teams"``.
    family, size, seed:
        Graph family name, requested size and seed (the seed feeds both the
        randomised families and the seeded schedulers).
    labels:
        Agent labels.  ``None`` applies the problem's default placement
        (labels ``(6, 11)`` for the two rendezvous agents; ``3 + 2 i`` for
        team member ``i``).
    starts:
        Start nodes, parallel to ``labels``.  ``None`` applies the default
        placement rule (antipodal for rendezvous, evenly spread for teams).
    team_size:
        Number of agents for the ``"teams"`` problem when ``labels`` is
        ``None``.
    values:
        Initial values carried by the team members (gossiping inputs),
        parallel to the members.  Mappings/sequences are frozen into sorted
        pair tuples / tuples so the spec stays hashable.
    dormant:
        Indices of the team members that start dormant (woken when an active
        teammate walks over their start node).
    token_node:
        Token position for ``"esst"``; ``None`` means the highest-numbered
        node (unless ``token_edge`` places it inside an edge).
    token_edge, token_fraction:
        Mid-edge token position for ``"esst"``: the token sits strictly
        inside edge ``token_edge`` at parametric fraction ``token_fraction``
        (a ``"p/q"`` string, measured from the smaller-id endpoint; default
        ``"1/2"``).  Mutually exclusive with ``token_node``.
    scheduler, scheduler_params:
        Adversary name (a :data:`~repro.runtime.registry.SCHEDULERS` name)
        and its keyword parameters (e.g. ``{"patience": 256}``).
    problem_params:
        Additional problem-specific parameters as a frozen key/value bag
        (e.g. the ``"figures"`` problem's trajectory ``kind`` and ``k``).
    cost_model:
        Cost-model name (a :data:`~repro.runtime.registry.COST_MODELS`
        name): the exploration-sequence length ``P(k)`` the run uses.
    max_traversals, on_cost_limit:
        The engine budget and what to do when it is hit.
    """

    problem: str = "rendezvous"
    family: str = "ring"
    size: int = 6
    seed: int = 0
    labels: Optional[Tuple[int, ...]] = None
    starts: Optional[Tuple[int, ...]] = None
    team_size: Optional[int] = None
    values: Optional[Tuple[Any, ...]] = None
    dormant: Optional[Tuple[int, ...]] = None
    token_node: Optional[int] = None
    token_edge: Optional[Tuple[int, int]] = None
    token_fraction: Optional[str] = None
    scheduler: str = "round_robin"
    scheduler_params: ParamItems = ()
    problem_params: ParamItems = ()
    cost_model: str = "simulation"
    max_traversals: int = 2_000_000
    on_cost_limit: str = "return"
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _freeze_ints(self.labels))
        object.__setattr__(self, "starts", _freeze_ints(self.starts))
        object.__setattr__(self, "dormant", _freeze_ints(self.dormant))
        if self.values is not None:
            object.__setattr__(
                self, "values", tuple(_freeze_value(value) for value in self.values)
            )
        if self.token_edge is not None:
            u, v = (int(end) for end in self.token_edge)
            object.__setattr__(self, "token_edge", (min(u, v), max(u, v)))
        if self.token_fraction is not None:
            fraction = Fraction(str(self.token_fraction))
            object.__setattr__(
                self, "token_fraction", f"{fraction.numerator}/{fraction.denominator}"
            )
        object.__setattr__(
            self, "scheduler_params", _freeze_params(self.scheduler_params)
        )
        object.__setattr__(
            self, "problem_params", _freeze_params(self.problem_params)
        )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def scheduler_kwargs(self) -> Dict[str, Any]:
        """The scheduler parameters as a keyword dict."""
        return dict(self.scheduler_params)

    @property
    def problem_kwargs(self) -> Dict[str, Any]:
        """The problem-specific parameters as a keyword dict."""
        return dict(self.problem_params)

    def key(self) -> str:
        """The spec's content hash (see :func:`spec_key`).

        Computed once per instance: the spec is frozen, so the digest is
        kept in the instance dict, outside the dataclass fields — equality,
        hashing and serialisation never see it, a pickled spec carries it
        along, and :meth:`replace` builds a new instance that hashes afresh.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = self.__dict__["_key"] = spec_key(self)
        return cached

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """Return a copy with ``changes`` applied (specs are immutable)."""
        return replace(self, **changes)

    def validate(self) -> "ScenarioSpec":
        """Check every symbolic name against its registry; return ``self``.

        Validation is explicit (not done at construction) so that specs can
        be built before the defining modules are imported; the runner always
        validates before running.
        """
        if self.problem not in PROBLEMS:
            raise ReproError(
                f"unknown problem {self.problem!r}; available: {sorted(PROBLEMS)}"
            )
        if self.family not in GRAPH_FAMILIES:
            raise ReproError(
                f"unknown graph family {self.family!r}; "
                f"available: {sorted(GRAPH_FAMILIES)}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {self.scheduler!r}; available: {sorted(SCHEDULERS)}"
            )
        if self.cost_model not in COST_MODELS:
            raise ReproError(
                f"unknown cost model {self.cost_model!r}; "
                f"available: {sorted(COST_MODELS)}"
            )
        if self.size < 1:
            raise ReproError(f"graph size must be positive, got {self.size}")
        if self.max_traversals < 1:
            raise ReproError("max_traversals must be positive")
        if self.on_cost_limit not in ("raise", "return"):
            raise ReproError("on_cost_limit must be 'raise' or 'return'")
        if self.token_node is not None and self.token_edge is not None:
            raise ReproError("token_node and token_edge are mutually exclusive")
        if self.token_fraction is not None:
            if self.token_edge is None:
                raise ReproError("token_fraction needs a token_edge")
            fraction = Fraction(self.token_fraction)
            if fraction < 0 or fraction > 1:
                raise ReproError(f"token_fraction {self.token_fraction} outside [0, 1]")
        if self.token_edge is not None and self.token_edge[0] == self.token_edge[1]:
            raise ReproError(f"token_edge endpoints must differ, got {self.token_edge}")
        if self.dormant is not None and any(index < 0 for index in self.dormant):
            raise ReproError("dormant member indices must be non-negative")
        if (
            self.values is not None
            and self.labels is not None
            and len(self.values) != len(self.labels)
        ):
            raise ReproError(
                f"{len(self.values)} values for {len(self.labels)} labels "
                "(values are parallel to the team members)"
            )
        return self

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; parameter bags become JSON objects."""
        data: Dict[str, Any] = {}
        for name in _SCENARIO_FIELDS:
            value = getattr(self, name)
            if name in ("scheduler_params", "problem_params"):
                value = dict(value)
            elif name == "values":
                value = None if value is None else [_listify(item) for item in value]
            elif isinstance(value, tuple):
                value = list(value)
            data[name] = value
        return data

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        unknown = set(data).difference(_SCENARIO_FIELDS)
        if unknown:
            raise ReproError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ReproError("a ScenarioSpec JSON document must be an object")
        return cls.from_dict(data)


#: ScenarioSpec's field names, in declaration order (the keys of ``to_dict``).
_SCENARIO_FIELDS = tuple(spec_field.name for spec_field in fields(ScenarioSpec))


def _optional_int(value: Any) -> Optional[int]:
    return None if value is None else int(value)


#: SweepSpec's grid dimensions, each with the function that freezes one of
#: its entries.
_DIMENSIONS: Dict[str, Callable[[Any], Any]] = {
    "problems": str,
    "families": str,
    "sizes": int,
    "seeds": int,
    "schedulers": str,
    "label_sets": _freeze_ints,
    "scheduler_param_sets": _freeze_params,
    "problem_param_sets": _freeze_params,
    "team_sizes": _optional_int,
}


def _freeze_dimension(
    name: str, freeze: Callable[[Any], Any], values: Iterable[Any]
) -> Tuple[Any, ...]:
    """Freeze every entry of one dimension; a bad entry names its field."""
    frozen = []
    for value in values:
        try:
            frozen.append(freeze(value))
        except (TypeError, ValueError) as error:
            raise ReproError(f"SweepSpec field {name!r} entry {value!r}: {error}") from None
    return tuple(frozen)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of scenarios: the cartesian product of the listed dimensions.

    The enumeration order of :meth:`cells` is fixed: family, size, seed,
    scheduler, scheduler-parameter set, problem-parameter set, label set,
    team size, problem — the
    outermost dimension varies slowest.  Per-cell seeding is deterministic:
    every cell carries its own seed taken from the ``seeds`` grid, so a cell
    is fully reproducible in isolation (the property the process-pool
    executor relies on).
    """

    problems: Tuple[str, ...] = ("rendezvous",)
    families: Tuple[str, ...] = ("ring",)
    sizes: Tuple[int, ...] = (6,)
    seeds: Tuple[int, ...] = (0,)
    schedulers: Tuple[str, ...] = ("round_robin",)
    label_sets: Tuple[Optional[Tuple[int, ...]], ...] = (None,)
    scheduler_param_sets: Tuple[ParamItems, ...] = ((),)
    problem_param_sets: Tuple[ParamItems, ...] = ((),)
    team_sizes: Tuple[Optional[int], ...] = (None,)
    cost_model: str = "simulation"
    max_traversals: int = 2_000_000
    on_cost_limit: str = "return"
    name: Optional[str] = None

    def __post_init__(self) -> None:
        for name, freeze in _DIMENSIONS.items():
            values = getattr(self, name)
            # Anything but a list is left as it is for validate() to refuse:
            # a bare string is not split into a dimension of characters.
            if isinstance(values, Iterable) and not isinstance(values, (str, Mapping)):
                object.__setattr__(self, name, _freeze_dimension(name, freeze, values))

    def __len__(self) -> int:
        return math.prod(len(getattr(self, name)) for name in _DIMENSIONS)

    def validate(self) -> "SweepSpec":
        """Check that the grid is a non-empty product of valid cells; return ``self``.

        Every dimension must be a list with at least one entry, and every
        cell must pass :meth:`ScenarioSpec.validate`.  Called wherever a
        sweep arrives from outside (the CLI, ``POST /sweeps``).
        """
        for name in _DIMENSIONS:
            values = getattr(self, name)
            if not isinstance(values, tuple):
                raise ReproError(f"SweepSpec field {name!r} takes a list, got {values!r}")
            if not values:
                raise ReproError(
                    f"SweepSpec field {name!r} is empty: the sweep has no cells"
                )
        for cell in self.cells():
            cell.validate()
        return self

    def cells(self) -> Iterator[ScenarioSpec]:
        """Enumerate the concrete scenarios of the grid, outermost first."""
        grid = itertools.product(
            self.families,
            self.sizes,
            self.seeds,
            self.schedulers,
            self.scheduler_param_sets,
            self.problem_param_sets,
            self.label_sets,
            self.team_sizes,
            self.problems,
        )
        for (
            family,
            size,
            seed,
            scheduler,
            params,
            problem_params,
            labels,
            team_size,
            problem,
        ) in grid:
            yield ScenarioSpec(
                problem=problem,
                family=family,
                size=size,
                seed=seed,
                labels=labels,
                team_size=team_size,
                scheduler=scheduler,
                scheduler_params=params,
                problem_params=problem_params,
                cost_model=self.cost_model,
                max_traversals=self.max_traversals,
                on_cost_limit=self.on_cost_limit,
                name=self.name,
            )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in ("scheduler_param_sets", "problem_param_sets"):
                value = [dict(params) for params in value]
            elif spec_field.name == "label_sets":
                value = [None if labels is None else list(labels) for labels in value]
            elif isinstance(value, tuple):
                value = list(value)
            data[spec_field.name] = value
        return data

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(f"unknown SweepSpec fields: {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ReproError("a SweepSpec JSON document must be an object")
        return cls.from_dict(data)
