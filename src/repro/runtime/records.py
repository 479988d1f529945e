"""Uniform result records produced by the scenario runtime.

Every problem kind — rendezvous, the exponential baseline, Procedure ESST,
Algorithm SGL — reports its outcome as the same :class:`RunRecord` shape, so
sweeps can mix problems and downstream code (tables, aggregation, JSON
output) never dispatches on the problem.  Problem-specific values (meeting
location, ESST phase, team labels, ...) travel in the ``extra`` bag.

A :class:`SweepResult` wraps the records of one sweep with aggregation
helpers (max/mean cost, success fraction, bound ratios) and a plain-text
table renderer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ReproError
from .spec import _SCALARS, ScenarioSpec, SweepSpec

__all__ = ["RunRecord", "SweepResult", "resolve_field"]


def resolve_field(record: "RunRecord", name: str, default: Any = None) -> Any:
    """Resolve a column name against a record: record attribute, then its
    ``extra`` bag, then the spec, then the spec's scheduler parameters.

    The single resolution rule shared by :meth:`SweepResult.table` and the
    aggregation layer's ``extract`` op, so columns like ``"patience"`` or
    ``"max_traversals"`` behave identically everywhere.
    """
    value = getattr(record, name, None)
    if value is None:
        value = record.extra_dict.get(name)
    if value is None:
        value = getattr(record.spec, name, None)
    if value is None:
        value = record.spec.scheduler_kwargs.get(name, default)
    return value


@dataclass(frozen=True)
class RunRecord:
    """Outcome of running one :class:`~repro.runtime.spec.ScenarioSpec`.

    Attributes
    ----------
    spec:
        The scenario that was run (so a record is self-describing).
    ok:
        Whether the run reached its goal: the agents met (rendezvous /
        baseline), every edge was traversed (ESST), or every agent output
        the correct label set (teams).
    cost:
        The paper's cost measure — total completed edge traversals at goal.
    reason:
        Why the run stopped (a :class:`~repro.sim.results.StopReason` value,
        or ``"esst"`` for the stand-alone exploration driver).
    decisions:
        Number of adversary decisions (0 for ESST, which is adversary-free).
    graph_name, graph_size, graph_edges:
        The graph that was actually built (families may round the requested
        size, e.g. ``hypercube``).
    extra:
        Problem-specific values as a sorted tuple of ``(key, value)`` pairs
        (JSON- and pickle-friendly); see :attr:`extra_dict`.  Values are
        canonicalised (sequences to tuples, mapping keys to strings) so that
        a record rebuilt from its JSON form compares equal to the original —
        the property the content-addressed result store relies on.
    """

    spec: ScenarioSpec
    ok: bool
    cost: int
    reason: str
    decisions: int
    graph_name: str
    graph_size: int
    graph_edges: int
    extra: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if type(self.extra) is dict or isinstance(self.extra, Mapping):
            items = sorted((str(k), v) for k, v in self.extra.items())
        else:
            items = [(str(k), v) for k, v in self.extra]
        object.__setattr__(
            self, "extra", tuple((k, _canonical(v)) for k, v in items)
        )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def extra_dict(self) -> Dict[str, Any]:
        """The problem-specific values as a dict."""
        return dict(self.extra)

    @property
    def problem(self) -> str:
        return self.spec.problem

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def scheduler(self) -> str:
        return self.spec.scheduler

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def n(self) -> int:
        """The actual graph size (column name used by the tables)."""
        return self.graph_size

    def summary(self) -> str:
        """One-line human-readable summary (mirrors ``RunResult.summary``)."""
        parts = [f"reason={self.reason}", f"cost={self.cost}"]
        extra = self.extra_dict
        if extra.get("meeting_node") is not None:
            parts.append(f"meeting at node {extra['meeting_node']}")
        elif extra.get("meeting_edge") is not None:
            parts.append(f"meeting at edge {tuple(extra['meeting_edge'])}")
        parts.append(f"decisions={self.decisions}")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {name: getattr(self, name) for name in _RECORD_FIELDS}
        data["spec"] = self.spec.to_dict()
        data["extra"] = {key: _jsonable(item) for key, item in self.extra}
        return data

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        payload = dict(data)
        payload["spec"] = ScenarioSpec.from_dict(payload["spec"])
        return cls(**payload)


#: The record's field names, in declaration order (the keys of ``to_dict``).
_RECORD_FIELDS = tuple(record_field.name for record_field in fields(RunRecord))


def _canonical(value: Any) -> Any:
    """Normalise an extra value to a JSON-stable shape.

    Lists and tuples both become tuples, sets become sorted tuples, mapping
    keys become strings (in sorted order) — exactly the shapes that survive a
    ``to_dict`` / ``from_dict`` round trip unchanged, so stored records
    compare equal to freshly computed ones.

    The exact types a decoded JSON line holds (scalars, ``list``, ``tuple``,
    ``dict``) are dispatched on ``type(value)`` first and give the same shapes
    as the ``isinstance`` fallback below, which handles everything else (sets,
    namedtuples, other mappings and subclasses).  ``sorted(value, key=str)``
    orders keys as sorting the items by ``str(key)`` does, so on colliding
    ``str`` forms the later key still wins.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list or kind is tuple:
        return tuple([_canonical(item) for item in value])
    if kind is dict:
        return {str(key): _canonical(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_canonical(item) for item in value))
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return value


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of extra values to JSON-friendly shapes."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [_jsonable(item) for item in sorted(value)]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


#: Default columns of :meth:`SweepResult.table`.
_TABLE_FIELDS = ("problem", "family", "n", "seed", "scheduler", "ok", "cost", "decisions", "reason")


@dataclass
class SweepResult:
    """The records of one sweep, in cell-enumeration order.

    When the sweep ran against a result store, ``cache_hits`` counts the
    cells served from the store and ``executed`` the cells actually run;
    both are runtime metadata and deliberately excluded from ``to_dict`` —
    a resumed sweep serialises byte-identically to an uninterrupted one.
    """

    records: List[RunRecord]
    sweep: Optional[SweepSpec] = None
    cache_hits: int = 0
    executed: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> RunRecord:
        return self.records[index]

    # ------------------------------------------------------------------
    # aggregation helpers
    # ------------------------------------------------------------------
    @property
    def all_ok(self) -> bool:
        """Whether every cell reached its goal."""
        return all(record.ok for record in self.records)

    def max_cost(self) -> int:
        """Largest cell cost (0 for an empty sweep)."""
        return max((record.cost for record in self.records), default=0)

    def mean_cost(self) -> float:
        """Mean cell cost (0.0 for an empty sweep)."""
        if not self.records:
            return 0.0
        return sum(record.cost for record in self.records) / len(self.records)

    def filter(self, predicate: Optional[Callable[[RunRecord], bool]] = None, **matches: Any) -> "SweepResult":
        """Records matching ``predicate`` and/or spec/record attribute values.

        ``result.filter(problem="rendezvous", family="ring")`` keeps the
        cells whose record (or, falling back, spec) attribute equals each
        given value — so both record columns (``n``, ``cost``) and
        spec-only fields (``size``, ``max_traversals``) work.
        """
        _missing = object()

        def value_of(record: RunRecord, key: str) -> Any:
            value = getattr(record, key, _missing)
            if value is _missing:
                value = getattr(record.spec, key)
            return value

        selected = []
        for record in self.records:
            if predicate is not None and not predicate(record):
                continue
            if all(value_of(record, key) == value for key, value in matches.items()):
                selected.append(record)
        return SweepResult(records=selected, sweep=self.sweep)

    def bound_ratios(self) -> List[float]:
        """``Π(n, |L_min|) / measured cost`` for every rendezvous cell.

        The ratio says how much head-room the worst-case guarantee of
        Theorem 3.1 leaves over the measured run; it is only defined for
        the ``"rendezvous"`` problem (the baseline's guarantee is the
        exponential trajectory length, not ``Π``).  ``Π`` comes from each
        record's named cost model (built once per name, as a serial sweep
        does).
        """
        from .runner import build_cost_model, shared_cost_models

        ratios: List[float] = []
        with shared_cost_models():
            for record in self.records:
                if record.problem != "rendezvous" or record.cost <= 0:
                    continue
                labels = record.spec.labels or (6, 11)
                shortest = min(label.bit_length() for label in labels)
                model = build_cost_model(record.spec)
                ratios.append(model.pi_bound(record.graph_size, shortest) / record.cost)
        return ratios

    # ------------------------------------------------------------------
    # rendering / serialisation
    # ------------------------------------------------------------------
    def table(self, fields: Sequence[str] = _TABLE_FIELDS, title: str = "") -> str:
        """Render the records as an aligned monospace table.

        A field name resolves, in order, against the record, its ``extra``
        bag, the spec, and the spec's scheduler parameters — so columns like
        ``"patience"`` or ``"max_traversals"`` work out of the box.
        """
        rows = []
        for record in self.records:
            row = []
            for name in fields:
                value = resolve_field(record, name, default="")
                if isinstance(value, bool):
                    value = "yes" if value else "no"
                elif isinstance(value, float):
                    value = f"{value:.3g}"
                row.append(str(value))
            rows.append(row)
        widths = [
            max(len(str(name)), *(len(row[index]) for row in rows)) if rows else len(str(name))
            for index, name in enumerate(fields)
        ]
        lines = []
        if title:
            lines.append(title)
            lines.append("=" * max(len(title), 8))
        lines.append("  ".join(str(name).ljust(widths[i]) for i, name in enumerate(fields)))
        lines.append("  ".join("-" * width for width in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": None if self.sweep is None else self.sweep.to_dict(),
            "records": [record.to_dict() for record in self.records],
        }

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        if "records" not in data:
            raise ReproError("a SweepResult document needs a 'records' list")
        sweep = data.get("sweep")
        return cls(
            records=[RunRecord.from_dict(record) for record in data["records"]],
            sweep=None if sweep is None else SweepSpec.from_dict(sweep),
        )
