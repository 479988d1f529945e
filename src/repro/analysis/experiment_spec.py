"""Experiments as frozen, registered, JSON-round-trippable specs.

An :class:`ExperimentSpec` bundles everything that defines one of the
reproduction's tables (``repro experiment --list`` names them):

* **what to run** — a declarative :class:`~repro.runtime.spec.SweepSpec`
  grid, or an explicit cell list when the sweep is not rectangular (the
  adversary ablation's scheduler/patience pairs, the team grid's skip
  rule);
* **how to aggregate** — a declarative pipeline of
  :mod:`~repro.analysis.aggregate` ops turning the uniform record stream
  into table rows, plus footer ops for the summary lines; and
* **how to render** — the table title and column order consumed by
  :mod:`~repro.analysis.render`.

Experiments register by name through the same decorator-registry pattern as
graph families and schedulers::

    @experiment("E1")
    def _e1(sizes=(4, 6, 8, 10, 12), ...):
        return ExperimentSpec(...)

:func:`run_experiment` executes the spec through the scenario runtime
(:func:`~repro.runtime.executors.run_sweep`) — optionally against a result
store, in which case a warm invocation performs **zero** scenario
executions — then aggregates and renders.  :func:`aggregate_from_store`
goes one step further: it never touches an executor at all, serving the
whole table from ``store`` reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import ReproError
from ..runtime.executors import Executor, run_sweep
from ..runtime.records import RunRecord, SweepResult
from ..runtime.registry import GRAPH_FAMILIES, Registry
from ..runtime.spec import ScenarioSpec, SweepSpec, canonical_json
from .aggregate import apply_pipeline, evaluate_footers
from .render import TableData, render

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "EXPERIMENTS",
    "EXPERIMENT_KEY_VERSION",
    "experiment",
    "experiment_key",
    "experiment_spec",
    "experiment_document",
    "run_experiment",
    "aggregate_records",
    "aggregate_from_store",
    "team_scaling_cells",
]

#: Version of the content-hash schema used by :func:`experiment_key`.  Bump
#: whenever the meaning of an ExperimentSpec field changes incompatibly, so
#: every cached rendering (and every client-held ETag) misses cleanly.
EXPERIMENT_KEY_VERSION = 1


def experiment_key(spec: "ExperimentSpec") -> str:
    """Content hash of an experiment: sha256 over its canonical JSON form.

    The experiment-side half of the result service's ETag (the other half
    is the store's :meth:`~repro.store.base.ResultStore.generation`): two
    specs share a key exactly when they run the same cells through the same
    pipeline into the same rendering — so equal keys over an unchanged
    store promise byte-identical output without computing any of it.
    """
    payload = (
        f"repro.ExperimentSpec.v{EXPERIMENT_KEY_VERSION}:"
        f"{canonical_json(spec.to_dict())}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _frozen_ops(ops: Any) -> Tuple[Dict[str, Any], ...]:
    """Normalise pipeline/footer ops to plain JSON shapes (dicts, lists,
    scalars) so a spec equals its own JSON round trip."""
    return tuple(json.loads(canonical_json(dict(op))) for op in ops)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: sweep + aggregation pipeline + render config.

    Exactly one of ``sweep`` (a rectangular grid) and ``cells`` (an explicit
    scenario list) describes the work; ``pipeline`` and ``footers`` are
    declarative :mod:`~repro.analysis.aggregate` op lists; ``title`` and
    ``columns`` drive the renderer.  Every field is a plain value, so the
    spec JSON-round-trips exactly like the runtime's scenario specs.
    """

    name: str
    title: str = ""
    description: str = ""
    sweep: Optional[SweepSpec] = None
    cells: Optional[Tuple[ScenarioSpec, ...]] = None
    pipeline: Tuple[Dict[str, Any], ...] = ()
    columns: Tuple[str, ...] = ()
    footers: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.sweep, Mapping):
            object.__setattr__(self, "sweep", SweepSpec.from_dict(self.sweep))
        if self.cells is not None:
            object.__setattr__(
                self,
                "cells",
                tuple(
                    cell if isinstance(cell, ScenarioSpec) else ScenarioSpec.from_dict(cell)
                    for cell in self.cells
                ),
            )
        object.__setattr__(self, "pipeline", _frozen_ops(self.pipeline))
        object.__setattr__(self, "footers", _frozen_ops(self.footers))
        object.__setattr__(self, "columns", tuple(str(column) for column in self.columns))

    # ------------------------------------------------------------------
    # validation / enumeration
    # ------------------------------------------------------------------
    def validate(self) -> "ExperimentSpec":
        if not self.name:
            raise ReproError("an experiment needs a name")
        if (self.sweep is None) == (self.cells is None):
            raise ReproError(
                f"experiment {self.name!r} needs exactly one of 'sweep' and 'cells'"
            )
        if not self.columns:
            raise ReproError(f"experiment {self.name!r} renders no columns")
        return self

    def cell_specs(self) -> List[ScenarioSpec]:
        """The concrete scenarios this experiment runs, in table order."""
        if self.sweep is not None:
            return list(self.sweep.cells())
        return list(self.cells or ())

    def keys(self) -> List[str]:
        """The content-hash store keys of every cell, in table order."""
        return [cell.key() for cell in self.cell_specs()]

    def key(self) -> str:
        """This experiment's content hash (see :func:`experiment_key`)."""
        return experiment_key(self)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "sweep":
                value = None if value is None else value.to_dict()
            elif spec_field.name == "cells":
                value = None if value is None else [cell.to_dict() for cell in value]
            elif isinstance(value, tuple):
                value = list(value)
            data[spec_field.name] = value
        return data

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ReproError("an ExperimentSpec JSON document must be an object")
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """An executed experiment: the raw sweep records plus the aggregated table."""

    spec: ExperimentSpec
    result: SweepResult
    table: TableData

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The aggregated table rows (plain dicts, in table order)."""
        return [dict(row) for row in self.table.rows]

    @property
    def records(self) -> List[RunRecord]:
        return list(self.result.records)

    @property
    def cache_hits(self) -> int:
        return self.result.cache_hits

    @property
    def executed(self) -> int:
        return self.result.executed

    def render(self, format: str = "markdown") -> str:
        """The table in the requested format (``markdown``/``csv``/``json``).

        The JSON form is the canonical experiment document
        (:func:`experiment_document`) — the **same serializer** the HTTP
        result service answers ``GET /experiments/<name>`` with, so ``repro
        experiment --format json`` and a served response are byte-identical.
        """
        if format == "json":
            return json.dumps(experiment_document(self), indent=2, sort_keys=True)
        return render(self.table, format=format)

    def __str__(self) -> str:
        return self.render()


def experiment_document(result: "ExperimentResult") -> Dict[str, Any]:
    """The canonical JSON document of an aggregated experiment.

    The table document (title, columns, rows, footers) plus the experiment's
    registry name — and nothing run-dependent (no cache/execution counters),
    so a cold run, a warm re-render and a pure store read of the same
    experiment over the same records serialise identically.
    """
    document = result.table.to_dict()
    document["experiment"] = result.spec.name
    return document


def aggregate_records(
    spec: ExperimentSpec, records: Sequence[RunRecord], model: Optional[Any] = None
) -> TableData:
    """Aggregate a record stream through the spec's pipeline into a table."""
    rows = apply_pipeline(list(records), spec.pipeline, model=model)
    return TableData(
        title=spec.title,
        columns=spec.columns,
        rows=tuple(rows),
        footers=tuple(evaluate_footers(rows, spec.footers)),
    )


def run_experiment(
    spec: Union[str, ExperimentSpec],
    *,
    store: Optional[Any] = None,
    resume: bool = True,
    executor: Optional[Executor] = None,
    model: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> ExperimentResult:
    """Execute an experiment (by registered name or spec) and aggregate it.

    The sweep runs through :func:`~repro.runtime.executors.run_sweep`, so a
    ``store`` makes the experiment incremental: cells already stored are
    served without execution, fresh cells are persisted as they complete,
    and a warm invocation re-renders the table with **zero** scenario
    executions (``result.executed == 0``).  ``model`` optionally overrides
    the cells' named cost model — for both execution and any model-based
    derived columns (except where a derive op pins its own ``"model"``
    name: what the spec declares explicitly always wins).
    """
    if isinstance(spec, str):
        spec = experiment_spec(spec)
    spec.validate()
    work = spec.sweep if spec.sweep is not None else spec.cell_specs()
    result = run_sweep(
        work, executor=executor, model=model, progress=progress, store=store, resume=resume
    )
    return ExperimentResult(
        spec=spec, result=result, table=aggregate_records(spec, result.records, model=model)
    )


def aggregate_from_store(
    spec: Union[str, ExperimentSpec], store: Any, model: Optional[Any] = None
) -> ExperimentResult:
    """Re-render an experiment purely from ``store`` — no executor at all.

    Every cell must already be stored (e.g. by a previous
    :func:`run_experiment` or ``repro sweep --store``); missing cells raise
    :class:`~repro.exceptions.ReproError` instead of being executed.
    """
    if isinstance(spec, str):
        spec = experiment_spec(spec)
    spec.validate()
    cells = spec.cell_specs()
    records = store.get_many(cell.key() for cell in cells)
    missing = sum(1 for record in records if record is None)
    if missing:
        raise ReproError(
            f"experiment {spec.name!r}: {missing}/{len(cells)} cells missing from the "
            f"store; run it once with run_experiment(spec, store=...) to populate them"
        )
    result = SweepResult(records=list(records), cache_hits=len(records), executed=0)
    return ExperimentResult(
        spec=spec, result=result, table=aggregate_records(spec, result.records, model=model)
    )


# ----------------------------------------------------------------------
# the experiment registry
# ----------------------------------------------------------------------
#: Registered experiments: ``factory(**params) -> ExperimentSpec``.  The
#: same decorator-registry pattern as graph families / schedulers / problem
#: kinds — ``@experiment("E1")`` on a builder taking keyword overrides.
EXPERIMENTS = Registry("experiment")

#: Decorator: ``@experiment("E1")`` registers a spec builder.
experiment = EXPERIMENTS.register


def experiment_spec(name: str, **params: Any) -> ExperimentSpec:
    """Build the registered experiment ``name`` (case-insensitive), with
    optional parameter overrides; unknown names fail with the registry's
    error message listing what is available."""
    for candidate in (name, name.upper(), name.lower()):
        if candidate in EXPERIMENTS:
            return EXPERIMENTS.create(candidate, **params)
    return EXPERIMENTS.create(name, **params)  # raises with the available names


# ----------------------------------------------------------------------
# shared vocabulary of the registered experiments
# ----------------------------------------------------------------------
#: Mapping between the experiment suite's algorithm names and the runtime's
#: problem kinds (the tables say "rv_asynch_poly", the registry "rendezvous").
_PROBLEM_OF_ALGORITHM = {"rv_asynch_poly": "rendezvous", "baseline": "baseline"}

#: The inverse, as a declarative ``map`` derivation.
_ALGORITHM_MAP = {problem: name for name, problem in _PROBLEM_OF_ALGORITHM.items()}


def _problems_of(algorithms: Sequence[str]) -> Tuple[str, ...]:
    problems = []
    for algorithm in algorithms:
        if algorithm not in _PROBLEM_OF_ALGORITHM:
            raise ReproError(
                f"unknown algorithm {algorithm!r}; "
                f"available: {sorted(_PROBLEM_OF_ALGORITHM)}"
            )
        problems.append(_PROBLEM_OF_ALGORITHM[algorithm])
    return tuple(problems)


_FIGURE_OF_KIND = {"Q": "Figure 1", "Y'": "Figure 2", "Z": "Figure 3", "A'": "Figure 4"}


# ----------------------------------------------------------------------
# the registered experiments (E1 - E6, F1)
# ----------------------------------------------------------------------
@experiment("F1")
def _f1(
    kinds: Sequence[str] = ("Q", "Y'", "Z", "A'"),
    ks: Sequence[int] = (1, 2, 3, 4),
) -> ExperimentSpec:
    """F1–F4: structure of the trajectory constructions (paper Figures 1–4)."""
    cells = tuple(
        ScenarioSpec(
            problem="figures",
            family="ring",
            size=4,
            problem_params={"kind": kind, "k": k},
            name="f1-f4-figure-structures",
        )
        for kind in kinds
        for k in ks
    )
    return ExperimentSpec(
        name="F1",
        title="F1-F4: structure of the trajectory constructions (paper Figures 1-4)",
        description="Decompose Q, Y', Z and A' exactly as the paper's Figures 1-4 draw them.",
        cells=cells,
        pipeline=(
            {
                "op": "extract",
                "columns": ["kind", "k", ["length", "cost"], "composition"],
            },
            {
                "op": "derive",
                "kind": "map",
                "column": "figure",
                "source": "kind",
                "mapping": _FIGURE_OF_KIND,
            },
        ),
        columns=("figure", "kind", "k", "length", "composition"),
    )


@experiment("E1")
def _e1(
    sizes: Sequence[int] = (4, 6, 8, 10, 12),
    families: Sequence[str] = ("ring", "erdos_renyi"),
    labels: Tuple[int, int] = (6, 11),
    schedulers: Sequence[str] = ("round_robin", "avoider"),
    algorithms: Sequence[str] = ("rv_asynch_poly", "baseline"),
    max_traversals: int = 2_000_000,
    seed: int = 0,
) -> ExperimentSpec:
    """E1: measured rendezvous cost versus graph size (Theorem 3.1)."""
    sweep = SweepSpec(
        problems=_problems_of(algorithms),
        families=tuple(families),
        sizes=tuple(sizes),
        seeds=(seed,),
        schedulers=tuple(schedulers),
        label_sets=(tuple(labels),),
        max_traversals=max_traversals,
        name="e1-rendezvous-vs-size",
    )
    return ExperimentSpec(
        name="E1",
        title="E1: measured rendezvous cost vs graph size",
        description="Measure cost-to-meeting versus graph size (Theorem 3.1).",
        sweep=sweep,
        pipeline=(
            {
                "op": "extract",
                "columns": [
                    "family",
                    "n",
                    ["algorithm", "problem"],
                    "scheduler",
                    ["met", "ok"],
                    "cost",
                    "decisions",
                ],
            },
            {
                "op": "derive",
                "kind": "map",
                "column": "algorithm",
                "source": "algorithm",
                "mapping": _ALGORITHM_MAP,
            },
        ),
        columns=("family", "n", "algorithm", "scheduler", "met", "cost", "decisions"),
    )


@experiment("E2")
def _e2(
    small_labels: Sequence[int] = (1, 2, 4, 8, 16, 32),
    big_label_offset: int = 1,
    family: str = "ring",
    n: int = 6,
    scheduler: str = "delay_until_stop",
    max_traversals: int = 2_000_000,
    bound_model: Optional[str] = None,
) -> ExperimentSpec:
    """E2: measured and guaranteed cost as a function of the (smaller) label.

    For every label ``L`` the two agents carry labels ``L`` and
    ``L + offset``; the guaranteed bound is ``Π(n, |L|)`` for RV-asynch-poly
    versus the full exponential trajectory length for the naive baseline.
    ``bound_model`` pins a registered cost-model name for the bound column;
    by default it follows the run's model (live override or per-cell name).
    """
    sweep = SweepSpec(
        problems=("rendezvous", "baseline"),
        families=(family,),
        sizes=(n,),
        schedulers=(scheduler,),
        label_sets=tuple((label, label + big_label_offset) for label in small_labels),
        max_traversals=max_traversals,
        name="e2-rendezvous-vs-label",
    )
    return ExperimentSpec(
        name="E2",
        title=(
            "E2: cost vs label (measured under the delay-until-stop adversary, "
            "plus guarantees)"
        ),
        description="Measure and bound cost as a function of the smaller label.",
        sweep=sweep,
        pipeline=(
            {
                "op": "extract",
                "columns": [
                    "labels",
                    ["algorithm", "problem"],
                    ["met", "ok"],
                    ["measured_cost", "cost"],
                    "n",
                ],
            },
            {"op": "derive", "kind": "item", "column": "label_small", "source": "labels", "index": 0},
            {"op": "derive", "kind": "bit_length", "column": "label_length", "source": "label_small"},
            {
                "op": "derive",
                "kind": "guaranteed_bound",
                "column": "guaranteed_bound",
                "problem": "algorithm",
                "size": "n",
                "label": "label_small",
                **({} if bound_model is None else {"model": bound_model}),
            },
            {
                "op": "derive",
                "kind": "map",
                "column": "algorithm",
                "source": "algorithm",
                "mapping": _ALGORITHM_MAP,
            },
        ),
        columns=(
            "label_small",
            "label_length",
            "algorithm",
            "met",
            "measured_cost",
            "guaranteed_bound",
        ),
    )


def _e3_spec(
    sizes: Sequence[int] = (2, 4, 8, 16, 32),
    labels: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> ExperimentSpec:
    """E3: the analytic worst-case guarantees (pure computation, no simulation)."""
    cells = tuple(
        ScenarioSpec(
            problem="bounds",
            family="path",
            size=n,
            labels=(label, label + 1),
            cost_model="paper",
            name="e3-bound-scaling",
        )
        for n in sizes
        for label in labels
    )
    return ExperimentSpec(
        name="E3",
        title="E3: worst-case guarantees (Theorem 3.1 vs the exponential baseline)",
        description="Tabulate Pi(n, |L|) against the exponential baseline bound.",
        cells=cells,
        pipeline=(
            {
                "op": "extract",
                "columns": [
                    "n",
                    ["label", "label_small"],
                    "label_length",
                    "rv_bound",
                    "baseline_bound",
                ],
            },
        ),
        columns=("n", "label", "label_length", "rv_bound", "baseline_bound"),
        footers=(
            {
                "kind": "classify_growth",
                "x": "label",
                "series": [["RV-asynch-poly", "rv_bound"], ["baseline", "baseline_bound"]],
                "where": {"column": "n", "at": "max"},
                "template": "growth in the label at n={where}: {growth}",
            },
            {
                "kind": "power_law",
                "x": "n",
                "y": "rv_bound",
                "where": {"column": "label", "at": "first"},
                "template": (
                    "growth in the size at L={where}: "
                    "RV-asynch-poly bound ~ n^{slope:.1f} (a polynomial)"
                ),
            },
        ),
    )


EXPERIMENTS.register("E3", _e3_spec)
EXPERIMENTS.register("bounds", _e3_spec)  # the acceptance alias


@experiment("E4")
def _e4(
    sizes: Sequence[int] = (4, 5, 6, 7),
    families: Sequence[str] = ("ring", "path", "erdos_renyi"),
    seed: int = 0,
) -> ExperimentSpec:
    """E4: Procedure ESST cost and termination phase versus graph size."""
    sweep = SweepSpec(
        problems=("esst",),
        families=tuple(families),
        sizes=tuple(sizes),
        seeds=(seed,),
        name="e4-esst-scaling",
    )
    return ExperimentSpec(
        name="E4",
        title="E4: Procedure ESST (exploration with a semi-stationary token)",
        description="Measure Procedure ESST cost and termination phase versus graph size.",
        sweep=sweep,
        pipeline=(
            {
                "op": "extract",
                "columns": [
                    "family",
                    "n",
                    ["edges", "graph_edges"],
                    "final_phase",
                    "phase_bound",
                    "cost",
                    ["all_edges_traversed", "ok"],
                ],
            },
        ),
        columns=(
            "family",
            "n",
            "edges",
            "final_phase",
            "phase_bound",
            "cost",
            "all_edges_traversed",
        ),
    )


@experiment("E5")
def _e5(
    family: str = "ring",
    n: int = 8,
    labels: Tuple[int, int] = (6, 11),
    patiences: Sequence[int] = (4, 16, 64, 256),
    max_traversals: int = 2_000_000,
    seed: int = 0,
) -> ExperimentSpec:
    """E5: adversary ablation (the avoider additionally sweeps its patience).

    The scheduler/patience pairs are not rectangular, so the experiment is
    an explicit cell list; the table's ``patience`` column shows 0 for the
    adversaries that have no such knob.
    """
    pairs = [("round_robin", 0), ("random", 0), ("lazy", 0), ("delay_until_stop", 0)]
    pairs += [("avoider", patience) for patience in patiences]
    cells = tuple(
        ScenarioSpec(
            problem="rendezvous",
            family=family,
            size=n,
            seed=seed,
            labels=tuple(labels),
            scheduler=scheduler_name,
            scheduler_params={"patience": max(patience, 1)},
            max_traversals=max_traversals,
            name="e5-adversary-ablation",
        )
        for scheduler_name, patience in pairs
    )
    return ExperimentSpec(
        name="E5",
        title="E5: adversary ablation (RV-asynch-poly)",
        description="Compare adversaries, including a patience sweep for the avoider.",
        cells=cells,
        pipeline=(
            {
                "op": "extract",
                "columns": [
                    "scheduler",
                    "patience",
                    "family",
                    "n",
                    ["met", "ok"],
                    "cost",
                    "decisions",
                ],
            },
            {
                "op": "derive",
                "kind": "when",
                "column": "patience",
                "source": "patience",
                "equals": ["scheduler", "avoider"],
                "default": 0,
            },
        ),
        columns=("scheduler", "patience", "family", "n", "met", "cost", "decisions"),
    )


def team_scaling_cells(
    sizes: Sequence[int] = (5, 6),
    team_sizes: Sequence[int] = (2, 3),
    family: str = "ring",
    scheduler_name: str = "round_robin",
    max_traversals: int = 6_000_000,
    seed: int = 0,
) -> List[ScenarioSpec]:
    """The E6 grid as explicit cells (not rectangular: team sizes that
    exceed the actually built graph are skipped)."""
    cells: List[ScenarioSpec] = []
    for n in sizes:
        graph_size = GRAPH_FAMILIES.create(family, n, seed).size
        for k in team_sizes:
            if k > graph_size:
                continue
            cells.append(
                ScenarioSpec(
                    problem="teams",
                    family=family,
                    size=n,
                    seed=seed,
                    team_size=k,
                    scheduler=scheduler_name,
                    max_traversals=max_traversals,
                    name="e6-team-scaling",
                )
            )
    return cells


@experiment("E6")
def _e6(
    sizes: Sequence[int] = (5, 6),
    team_sizes: Sequence[int] = (2, 3),
    family: str = "ring",
    scheduler: str = "round_robin",
    max_traversals: int = 6_000_000,
    seed: int = 0,
) -> ExperimentSpec:
    """E6: Algorithm SGL (hence all four §4 problems) versus n and k."""
    cells = tuple(
        team_scaling_cells(
            sizes=sizes,
            team_sizes=team_sizes,
            family=family,
            scheduler_name=scheduler,
            max_traversals=max_traversals,
            seed=seed,
        )
    )
    return ExperimentSpec(
        name="E6",
        title=(
            "E6: Algorithm SGL / team problems "
            "(team size, leader election, renaming, gossiping)"
        ),
        description="Measure Algorithm SGL and the four team problems versus n and k.",
        cells=cells,
        pipeline=(
            {
                "op": "extract",
                "columns": [
                    "family",
                    "n",
                    "team_size",
                    "scheduler",
                    ["correct", "ok"],
                    "cost",
                    "reason",
                ],
            },
        ),
        columns=("family", "n", "team_size", "scheduler", "correct", "cost", "reason"),
    )
