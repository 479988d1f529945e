"""Analysis toolkit: the declarative experiment pipeline.

Public API
----------
* aggregate: :func:`~repro.analysis.aggregate.group_by`,
  :func:`~repro.analysis.aggregate.pivot`, the named reducers
  (``mean``/``max``/``min``/``sum``/``count``/``p95``), declarative
  :func:`~repro.analysis.aggregate.apply_pipeline` and derived columns
* experiment specs: :class:`~repro.analysis.experiment_spec.ExperimentSpec`,
  the :data:`~repro.analysis.experiment_spec.EXPERIMENTS` registry
  (``@experiment("E1")`` … ``"E6"``, ``"F1"``, ``"bounds"``),
  :func:`~repro.analysis.experiment_spec.experiment_spec`,
  :func:`~repro.analysis.experiment_spec.run_experiment` and
  :func:`~repro.analysis.experiment_spec.aggregate_from_store`
* render: :func:`~repro.analysis.render.render` over
  :class:`~repro.analysis.render.TableData` (markdown / csv / json)
* fitting: :func:`~repro.analysis.fitting.fit_power_law`,
  :func:`~repro.analysis.fitting.fit_exponential`,
  :func:`~repro.analysis.fitting.classify_growth`
* tables: :func:`~repro.analysis.tables.format_table`
"""

from .aggregate import (
    REDUCERS,
    apply_pipeline,
    evaluate_footers,
    group_by,
    pivot,
    rows_from_records,
)
from .experiment_spec import (
    EXPERIMENTS,
    ExperimentResult,
    ExperimentSpec,
    aggregate_from_store,
    experiment,
    experiment_document,
    experiment_key,
    experiment_spec,
    run_experiment,
)
from .fitting import FitResult, classify_growth, fit_exponential, fit_power_law
from .render import FORMATS, TableData, render
from .tables import format_table
from ..ticksim import experiments as _tick_experiments  # noqa: F401  (registers T1-T3)

__all__ = [
    "REDUCERS",
    "apply_pipeline",
    "evaluate_footers",
    "group_by",
    "pivot",
    "rows_from_records",
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentSpec",
    "aggregate_from_store",
    "experiment",
    "experiment_document",
    "experiment_key",
    "experiment_spec",
    "run_experiment",
    "FitResult",
    "classify_growth",
    "fit_exponential",
    "fit_power_law",
    "FORMATS",
    "TableData",
    "render",
    "format_table",
]
