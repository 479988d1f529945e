"""The aggregation layer: rows, reducers, group-by, pivot, derived columns.

Experiment tables are *views* over the uniform
:class:`~repro.runtime.records.RunRecord` stream that ``run_sweep`` and
``store.query()`` return.  This module provides the two halves of that view:

* a small functional toolkit — :func:`rows_from_records`, :func:`group_by`,
  :func:`pivot`, the :data:`REDUCERS` (``mean``/``max``/``min``/``sum``/
  ``count``/``p95``) and programmatic :func:`derive` — operating on plain
  row dicts; and
* a **declarative pipeline**: :func:`apply_pipeline` interprets a JSON list
  of operations (``extract``, ``derive``, ``filter``, ``sort``,
  ``group_by``, ``pivot``) and :func:`evaluate_footers` a JSON list of
  summary lines (growth classification, fitted power-law exponents), which
  is what a frozen :class:`~repro.analysis.experiment_spec.ExperimentSpec`
  stores.

Derived columns cover the experiment suite's needs: bit lengths, value
maps, constants, conditional values, per-row guaranteed bounds from a
registered cost model, cost ratios against a baseline row, and fitted
growth exponents via :func:`~repro.analysis.fitting.fit_power_law`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ReproError
from ..runtime.records import RunRecord
from ..runtime.records import resolve_field as _resolve_field
from ..runtime.registry import COST_MODELS, Registry
from .fitting import classify_growth, fit_power_law

__all__ = [
    "Row",
    "REDUCERS",
    "reduce_values",
    "resolve_field",
    "rows_from_records",
    "group_by",
    "pivot",
    "derive",
    "DERIVATIONS",
    "RowsTransform",
    "FOOTERS",
    "apply_pipeline",
    "evaluate_footers",
]

#: One table row: column name -> plain value.
Row = Dict[str, Any]

_MISSING = object()


# ----------------------------------------------------------------------
# reducers
# ----------------------------------------------------------------------
def _mean(values: Sequence[Any]) -> float:
    return sum(values) / len(values)


def _p95(values: Sequence[Any]) -> Any:
    """The 95th percentile (nearest-rank on the sorted values)."""
    ordered = sorted(values)
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[rank]


#: Named reducers usable in ``group_by`` / ``pivot`` operations.
REDUCERS: Dict[str, Callable[[Sequence[Any]], Any]] = {
    "mean": _mean,
    "max": max,
    "min": min,
    "sum": sum,
    "count": len,
    "p95": _p95,
    "first": lambda values: values[0],
    "last": lambda values: values[-1],
}


def reduce_values(reducer: str, values: Sequence[Any]) -> Any:
    """Apply the named reducer to a non-empty list of values."""
    if reducer not in REDUCERS:
        raise ReproError(f"unknown reducer {reducer!r}; available: {sorted(REDUCERS)}")
    if not values:
        raise ReproError(f"reducer {reducer!r} applied to an empty group")
    return REDUCERS[reducer](list(values))


# ----------------------------------------------------------------------
# records -> rows
# ----------------------------------------------------------------------
#: The record/extra/spec/scheduler-params resolution rule, shared with
#: :meth:`~repro.runtime.records.SweepResult.table`.
resolve_field = _resolve_field


def _column_pairs(columns: Sequence[Any]) -> List[Tuple[str, str]]:
    """Normalise a column list: ``"name"`` or ``("out", "source")`` pairs."""
    pairs: List[Tuple[str, str]] = []
    for column in columns:
        if isinstance(column, str):
            pairs.append((column, column))
        else:
            out, source = column
            pairs.append((str(out), str(source)))
    return pairs


def rows_from_records(records: Iterable[RunRecord], columns: Sequence[Any]) -> List[Row]:
    """Extract one row per record; ``columns`` lists names or (out, source) pairs."""
    pairs = _column_pairs(columns)
    return [{out: resolve_field(record, source) for out, source in pairs} for record in records]


# ----------------------------------------------------------------------
# group-by / pivot
# ----------------------------------------------------------------------
def group_by(
    rows: Iterable[Row],
    keys: Sequence[str],
    aggregates: Mapping[str, Any],
) -> List[Row]:
    """Group rows by ``keys`` and reduce columns.

    ``aggregates`` maps each output column to ``(reducer, column)`` (or a
    ``{"reducer": ..., "column": ...}`` mapping); the ``count`` reducer
    accepts a ``None`` column.  Groups come back in first-seen order, each
    as one row carrying the key columns plus the aggregate columns.
    """
    keys = list(keys)
    groups: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in rows:
        group_key = tuple(row.get(key) for key in keys)
        groups.setdefault(group_key, []).append(row)
    out: List[Row] = []
    for group_key, members in groups.items():
        row: Row = dict(zip(keys, group_key))
        for column, how in aggregates.items():
            if isinstance(how, Mapping):
                reducer, source = how.get("reducer", "mean"), how.get("column")
            else:
                reducer, source = how
            if reducer == "count" and source is None:
                row[column] = len(members)
            else:
                row[column] = reduce_values(reducer, [member[source] for member in members])
        out.append(row)
    return out


def pivot(
    rows: Iterable[Row],
    index: str,
    columns: str,
    values: str,
    reducer: str = "first",
) -> List[Row]:
    """Pivot ``rows``: one output row per ``index`` value, one output column
    per ``columns`` value, cells reduced from ``values``.

    Index rows keep first-seen order; pivoted columns are sorted by their
    (stringified) column value for a deterministic layout.  Missing cells
    are ``None``.
    """
    cells: Dict[Any, Dict[Any, List[Any]]] = {}
    column_values: List[Any] = []
    for row in rows:
        cells.setdefault(row.get(index), {}).setdefault(row.get(columns), []).append(
            row.get(values)
        )
        if row.get(columns) not in column_values:
            column_values.append(row.get(columns))
    column_values.sort(key=str)
    out: List[Row] = []
    for index_value, by_column in cells.items():
        row = {index: index_value}
        for column_value in column_values:
            bucket = by_column.get(column_value)
            row[str(column_value)] = None if not bucket else reduce_values(reducer, bucket)
        out.append(row)
    return out


def derive(rows: Iterable[Row], column: str, function: Callable[[Row], Any]) -> List[Row]:
    """Add ``column = function(row)`` to every row (programmatic form)."""
    out = []
    for row in rows:
        row = dict(row)
        row[column] = function(row)
        out.append(row)
    return out


# ----------------------------------------------------------------------
# declarative derivations
# ----------------------------------------------------------------------
#: Derivation kinds usable in ``{"op": "derive", "kind": ...}`` pipeline ops.
#: Each factory receives the op mapping and returns either a per-row
#: callable or a :class:`RowsTransform` for kinds that need cross-row
#: context (``ratio``, ``fit_power_law``).  A model-based kind takes its
#: cost model from the op's ``"model"`` name, else ``"simulation"``.
DERIVATIONS = Registry("derivation")


class RowsTransform:
    """Marker wrapper: a derivation that maps the whole row list at once."""

    def __init__(self, function: Callable[[List[Row]], List[Row]]) -> None:
        self.function = function

    def __call__(self, rows: List[Row]) -> List[Row]:
        return self.function(rows)


@DERIVATIONS.register("bit_length")
def _derive_bit_length(op: Mapping[str, Any]):
    source = op["source"]
    return lambda row: int(row[source]).bit_length()


@DERIVATIONS.register("item")
def _derive_item(op: Mapping[str, Any]):
    source, index = op["source"], int(op.get("index", 0))
    return lambda row: None if row.get(source) is None else row[source][index]


@DERIVATIONS.register("map")
def _derive_map(op: Mapping[str, Any]):
    source, mapping = op["source"], dict(op["mapping"])
    default = op.get("default")

    def _mapped(row: Row) -> Any:
        value = row.get(source)
        if value in mapping:
            return mapping[value]
        # JSON round trips stringify mapping keys; look the value up both ways.
        return mapping.get(str(value), default)

    return _mapped


@DERIVATIONS.register("const")
def _derive_const(op: Mapping[str, Any]):
    value = op["value"]
    return lambda row: value


@DERIVATIONS.register("when")
def _derive_when(op: Mapping[str, Any]):
    """Keep ``source`` where ``equals`` holds, otherwise the ``default``."""
    source = op["source"]
    match_column, match_value = op["equals"]
    default = op.get("default")
    return lambda row: row.get(source) if row.get(match_column) == match_value else default


@DERIVATIONS.register("guaranteed_bound")
def _derive_guaranteed_bound(op: Mapping[str, Any]):
    """The worst-case guarantee for a row: ``Π(n, |L|)`` for the rendezvous
    problem, the full exponential trajectory length for the baseline.

    The bound's cost model is the ``"model"`` name pinned in the op, else
    ``"simulation"``.
    """
    problem_column = op.get("problem", "problem")
    size_column = op.get("size", "n")
    label_column = op.get("label", "label_small")
    bound_model = COST_MODELS.create(
        "simulation" if op.get("model") is None else op["model"]
    )

    def _bound(row: Row) -> int:
        n, label = int(row[size_column]), int(row[label_column])
        if row.get(problem_column) == "baseline":
            return bound_model.baseline_trajectory_length(n, label)
        return bound_model.pi_bound(n, label.bit_length())

    return _bound


@DERIVATIONS.register("ratio")
def _derive_ratio_factory(op: Mapping[str, Any]) -> RowsTransform:
    return RowsTransform(lambda rows: _derive_ratio(rows, op))


@DERIVATIONS.register("fit_power_law")
def _derive_fit_factory(op: Mapping[str, Any]) -> RowsTransform:
    return RowsTransform(lambda rows: _derive_fit_power_law(rows, op))


def _derive_ratio(rows: List[Row], op: Mapping[str, Any]) -> List[Row]:
    """``column = value / value-of-the-matching-baseline-row``.

    The baseline row shares the ``keys`` columns and has
    ``baseline[0] == baseline[1]``; rows without a baseline get ``None``.
    """
    column, source, keys = op["column"], op["source"], list(op.get("keys", ()))
    match_column, match_value = op["baseline"]
    baselines: Dict[Tuple[Any, ...], Any] = {}
    for row in rows:
        if row.get(match_column) == match_value:
            baselines[tuple(row.get(key) for key in keys)] = row.get(source)
    out = []
    for row in rows:
        row = dict(row)
        base = baselines.get(tuple(row.get(key) for key in keys))
        row[column] = None if base in (None, 0) else row[source] / base
        out.append(row)
    return out


def _derive_fit_power_law(rows: List[Row], op: Mapping[str, Any]) -> List[Row]:
    """Fitted growth exponent of ``y ~ c·x^e`` per group, broadcast to rows.

    Groups with fewer than three distinct ``x`` values get ``None`` (the
    fit needs three points).
    """
    column, x, y = op["column"], op["x"], op["y"]
    keys = list(op.get("group", ()))
    groups: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in rows:
        groups.setdefault(tuple(row.get(key) for key in keys), []).append(row)
    slopes: Dict[Tuple[Any, ...], Optional[float]] = {}
    for group_key, members in groups.items():
        by_x = {member[x]: member[y] for member in members}
        if len(by_x) < 3:
            slopes[group_key] = None
        else:
            xs = sorted(by_x)
            slopes[group_key] = fit_power_law(xs, [by_x[value] for value in xs]).slope
    out = []
    for row in rows:
        row = dict(row)
        row[column] = slopes[tuple(row.get(key) for key in keys)]
        out.append(row)
    return out


# ----------------------------------------------------------------------
# the declarative pipeline
# ----------------------------------------------------------------------
def apply_pipeline(
    records: Sequence[RunRecord],
    pipeline: Sequence[Mapping[str, Any]],
) -> List[Row]:
    """Run a declarative op list over a record stream, producing rows.

    The first op is normally ``extract`` (records → rows); a pipeline that
    starts with any other op gets an implicit extraction of the default
    table columns.
    """
    pipeline = list(pipeline)
    if not pipeline or pipeline[0].get("op") != "extract":
        pipeline.insert(
            0,
            {
                "op": "extract",
                "columns": ["problem", "family", "n", "seed", "scheduler", "ok", "cost"],
            },
        )
    rows: List[Row] = []
    for op in pipeline:
        kind = op.get("op")
        if kind == "extract":
            rows = rows_from_records(records, op["columns"])
        elif kind == "derive":
            derivation = DERIVATIONS.create(op.get("kind"), op)
            if isinstance(derivation, RowsTransform):
                rows = derivation(rows)
            else:
                rows = derive(rows, op["column"], derivation)
        elif kind == "filter":
            rows = [
                row
                for row in rows
                if all(row.get(key) == value for key, value in dict(op["where"]).items())
            ]
        elif kind == "sort":
            for key in reversed(list(op["keys"])):
                rows = sorted(rows, key=lambda row: row.get(key))
        elif kind == "group_by":
            rows = group_by(rows, op["keys"], op["aggregates"])
        elif kind == "pivot":
            rows = pivot(
                rows,
                op["index"],
                op["columns"],
                op["values"],
                reducer=op.get("reducer", "first"),
            )
        else:
            raise ReproError(
                f"unknown pipeline op {kind!r}; available: "
                "extract, derive, filter, sort, group_by, pivot"
            )
    return rows


# ----------------------------------------------------------------------
# footers (summary lines under a table)
# ----------------------------------------------------------------------
FOOTERS = Registry("footer")


def _rows_at(rows: List[Row], where: Optional[Mapping[str, Any]]) -> Tuple[List[Row], Any]:
    """Restrict rows per a footer's ``where`` clause.

    ``where`` is ``{"column": c, "at": "max"|"min"|"first"}`` or
    ``{"column": c, "equals": value}``; returns the restricted rows and the
    resolved pivot value (for the line's template).
    """
    if where is None:
        return rows, None
    column = where["column"]
    if "equals" in where:
        value = where["equals"]
    else:
        at = where.get("at", "max")
        candidates = [row[column] for row in rows if row.get(column) is not None]
        if not candidates:
            return [], None
        value = {"max": max, "min": min, "first": lambda seq: seq[0]}[at](candidates)
    return [row for row in rows if row.get(column) == value], value


def _series_points(rows: List[Row], x: str, y: str) -> Tuple[List[Any], List[Any]]:
    """Deduplicate on ``x`` (last row wins) and sort by ``x``."""
    by_x = {row[x]: row[y] for row in rows if row.get(x) is not None}
    xs = sorted(by_x)
    return xs, [by_x[value] for value in xs]


@FOOTERS.register("classify_growth")
def _footer_classify_growth(rows: List[Row], op: Mapping[str, Any]) -> Optional[str]:
    """``"polynomial"``/``"exponential"`` labels for one or more y-series."""
    selected, at = _rows_at(rows, op.get("where"))
    parts = []
    for name, column in op["series"]:
        xs, ys = _series_points(selected, op["x"], column)
        if len(xs) < 3:
            return None
        parts.append(f"{name} -> {classify_growth(xs, ys)}")
    return str(op["template"]).format(where=at, growth=", ".join(parts))


@FOOTERS.register("power_law")
def _footer_power_law(rows: List[Row], op: Mapping[str, Any]) -> Optional[str]:
    """The fitted power-law exponent of one y-series, as a summary line."""
    selected, at = _rows_at(rows, op.get("where"))
    xs, ys = _series_points(selected, op["x"], op["y"])
    if len(xs) < 3:
        return None
    fit = fit_power_law(xs, ys)
    return str(op["template"]).format(where=at, slope=fit.slope, intercept=fit.intercept)


def evaluate_footers(
    rows: Sequence[Row], footers: Sequence[Mapping[str, Any]]
) -> List[str]:
    """Evaluate footer ops over the final rows; ops that decline (too few
    points) contribute no line."""
    lines: List[str] = []
    for op in footers:
        line = FOOTERS.create(op.get("kind"), list(rows), op)
        if line is not None:
            lines.append(line)
    return lines
