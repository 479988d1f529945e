"""``run(spec) -> RunRecord``: the single entry point for executing scenarios.

The runner resolves every symbolic name of a
:class:`~repro.runtime.spec.ScenarioSpec` through the registries, builds the
graph / scheduler / cost model, dispatches to the problem kind registered in
:data:`~repro.runtime.registry.PROBLEMS` and returns a uniform
:class:`~repro.runtime.records.RunRecord`.  The CLI, the experiment drivers,
the benchmarks and the examples all go through this function; a new problem
kind registered here is immediately available to all of them.

Placement conventions (chosen to match the seed entry points exactly, so the
migrated drivers reproduce the historical tables bit for bit):

* rendezvous / baseline — labels default to ``(6, 11)``; start nodes default
  to node ``0`` and the antipodal node ``size // 2``;
* teams — member ``i`` gets label ``3 + 2 i`` and starts at
  ``sorted(nodes)[(i * size) // k]``;
* esst — the token sits at the highest-numbered node (unless
  ``spec.token_node`` says otherwise) and the agent starts at node ``0``
  (or ``1`` when the token is at ``0``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from contextvars import ContextVar
from fractions import Fraction
from typing import Any, Dict, Iterator, Optional

from ..core.baseline import run_baseline_rendezvous
from ..core.rendezvous import run_rendezvous
from ..core.trajectories import trajectory_structure
from ..exceptions import ReproError
from ..exploration.cost_model import CostModel
from ..exploration.esst import run_esst
from ..graphs import families as _families  # noqa: F401  (registers the families)
from ..graphs.port_graph import PortLabeledGraph, edge_key
from ..obs.metrics import get_registry
from ..obs.trace import Tracer, use_tracer
from ..sim import schedulers as _schedulers  # noqa: F401  (registers the adversaries)
from ..sim.position import Position
from ..sim.schedulers import Scheduler
from ..teams.problems import TeamMember, run_sgl
from ..ticksim import problems as _tick_problems  # noqa: F401  (registers the tick kinds)
from .records import RunRecord
from .registry import COST_MODELS, GRAPH_FAMILIES, PROBLEMS, SCHEDULERS
from .spec import ScenarioSpec

__all__ = [
    "run",
    "build_graph",
    "build_scheduler",
    "build_cost_model",
    "shared_cost_models",
]


def build_graph(spec: ScenarioSpec) -> PortLabeledGraph:
    """Build the graph a spec describes (family, size and seed)."""
    return GRAPH_FAMILIES.create(spec.family, spec.size, spec.seed)


def build_scheduler(spec: ScenarioSpec) -> Scheduler:
    """Build the adversary a spec describes (name, seed and parameters).

    The scheduler inherits the scenario's seed unless ``scheduler_params``
    carries an explicit ``"seed"`` of its own.
    """
    kwargs = {"seed": spec.seed, **spec.scheduler_kwargs}
    return SCHEDULERS.create(spec.scheduler, **kwargs)


#: The named cost models of the innermost :func:`shared_cost_models` block.
_SHARED_MODELS: ContextVar[Optional[Dict[str, CostModel]]] = ContextVar(
    "shared_cost_models", default=None
)


def build_cost_model(spec: ScenarioSpec) -> CostModel:
    """Build the cost model a spec names.

    Inside a :func:`shared_cost_models` block each name is built once and
    every later spec naming it gets the same instance.
    """
    shared = _SHARED_MODELS.get()
    if shared is None:
        return COST_MODELS.create(spec.cost_model)
    found = shared.get(spec.cost_model)
    if found is None:
        found = shared[spec.cost_model] = COST_MODELS.create(spec.cost_model)
    return found


@contextlib.contextmanager
def shared_cost_models() -> Iterator[None]:
    """Share each named cost model between the runs inside the block.

    The first spec naming a cost model builds it and later specs naming the
    same model share the instance — and with it the model's length tables,
    which is what makes a sweep of bound cells (experiment E3) cheap.  The
    models live as long as the block: one sweep, never the process.
    """
    token = _SHARED_MODELS.set({})
    try:
        yield
    finally:
        _SHARED_MODELS.reset(token)


def run(spec: ScenarioSpec, *, trace: bool = False) -> RunRecord:
    """Execute one scenario and return its :class:`RunRecord`.

    The cost model is the one ``spec.cost_model`` names (see
    :func:`build_cost_model`), so the record is a function of the spec alone.

    ``trace=True`` runs the scenario under a :class:`~repro.obs.trace.Tracer`
    and attaches the summarised payload as ``extra["trace"]`` on the returned
    record.  The trace is *not* part of the spec, so a traced record carries
    the same ``spec_key`` as — and caches interchangeably with — an untraced
    one; ``trace=False`` (the default) takes exactly the historical code path
    and produces byte-identical records.
    """
    spec.validate()
    started = time.perf_counter()
    if not trace:
        record = _execute(spec)
    else:
        tracer = Tracer()
        with use_tracer(tracer):
            t0 = tracer.clock()
            record = _execute(spec)
            tracer.add_span("run", t0)
        payload = tracer.finish().to_dict()
        record = dataclasses.replace(
            record, extra=record.extra + (("trace", payload),)
        )
    registry = get_registry()
    registry.counter(
        "repro_runs_total", "Scenarios executed by the runner"
    ).inc(problem=spec.problem)
    registry.histogram(
        "repro_run_seconds", "Wall time per scenario run"
    ).observe(time.perf_counter() - started, problem=spec.problem)
    return record


def _execute(spec: ScenarioSpec) -> RunRecord:
    graph = build_graph(spec)
    return PROBLEMS.create(spec.problem, spec, graph, build_cost_model(spec))


# ----------------------------------------------------------------------
# problem kinds
# ----------------------------------------------------------------------
def _record(
    spec: ScenarioSpec,
    graph: PortLabeledGraph,
    *,
    ok: bool,
    cost: int,
    reason: str,
    decisions: int,
    extra: Any = (),
) -> RunRecord:
    return RunRecord(
        spec=spec,
        ok=ok,
        cost=cost,
        reason=reason,
        decisions=decisions,
        graph_name=graph.name,
        graph_size=graph.size,
        graph_edges=graph.num_edges,
        extra=extra,
    )


def _rendezvous_placements(spec: ScenarioSpec, graph: PortLabeledGraph):
    labels = spec.labels if spec.labels is not None else (6, 11)
    if len(labels) != 2:
        raise ReproError(f"{spec.problem} needs exactly two labels, got {labels!r}")
    starts = spec.starts if spec.starts is not None else (0, graph.size // 2)
    if len(starts) != 2:
        raise ReproError(f"{spec.problem} needs exactly two start nodes, got {starts!r}")
    return [(labels[0], starts[0]), (labels[1], starts[1])]


def _meeting_extra(result) -> dict:
    extra = {
        "traversals_by_agent": dict(result.traversals_by_agent),
        "meeting_node": None,
        "meeting_edge": None,
    }
    if result.meeting is not None:
        extra["meeting_node"] = result.meeting.node
        extra["meeting_edge"] = result.meeting.edge
    return extra


def _meeting_problem(runner):
    """Both two-agent algorithms share placements and record shape; only the
    underlying runner differs."""

    def _run_problem(
        spec: ScenarioSpec, graph: PortLabeledGraph, model: CostModel
    ) -> RunRecord:
        result = runner(
            graph,
            _rendezvous_placements(spec, graph),
            scheduler=build_scheduler(spec),
            model=model,
            max_traversals=spec.max_traversals,
            on_cost_limit=spec.on_cost_limit,
        )
        return _record(
            spec,
            graph,
            ok=result.met,
            cost=result.cost(),
            reason=result.reason,
            decisions=result.decisions,
            extra=_meeting_extra(result),
        )

    return _run_problem


PROBLEMS.register("rendezvous", _meeting_problem(run_rendezvous))
PROBLEMS.register("baseline", _meeting_problem(run_baseline_rendezvous))


@PROBLEMS.register("esst")
def _run_esst_problem(
    spec: ScenarioSpec, graph: PortLabeledGraph, model: CostModel
) -> RunRecord:
    extra: dict = {}
    if spec.token_edge is not None:
        u, v = spec.token_edge
        if not graph.has_edge(u, v):
            raise ReproError(f"token_edge {spec.token_edge} is not an edge of {graph.name}")
        fraction = (
            Fraction(spec.token_fraction)
            if spec.token_fraction is not None
            else Fraction(1, 2)
        )
        # on_edge normalises fractions 0 and 1 back to the endpoint nodes.
        token = Position.on_edge(edge_key(u, v), fraction)
        if not token.is_at_node:
            extra["token_edge"] = spec.token_edge
            extra["token_fraction"] = f"{fraction.numerator}/{fraction.denominator}"
    else:
        token_node = (
            spec.token_node if spec.token_node is not None else max(graph.nodes())
        )
        token = Position.at_node(token_node)
    extra["token_node"] = token.node if token.is_at_node else None
    if spec.starts is not None:
        start = spec.starts[0]
    else:
        start = 0 if token.node != 0 else 1
    result = run_esst(graph, start, token, model)
    extra.update(
        {
            "final_phase": result.final_phase,
            "phase_bound": 9 * graph.size + 3,
            "start": start,
            "sightings": result.sightings,
        }
    )
    return _record(
        spec,
        graph,
        ok=result.all_edges_traversed,
        cost=result.traversals,
        reason="esst",
        decisions=0,
        extra=extra,
    )


@PROBLEMS.register("teams")
def _run_teams_problem(
    spec: ScenarioSpec, graph: PortLabeledGraph, model: CostModel
) -> RunRecord:
    nodes = sorted(graph.nodes())
    if spec.labels is not None:
        labels = list(spec.labels)
    else:
        k = spec.team_size if spec.team_size is not None else 3
        labels = [3 + 2 * index for index in range(k)]
    k = len(labels)
    if k > graph.size:
        raise ReproError(
            f"team of {k} agents does not fit a graph of {graph.size} nodes"
        )
    if spec.starts is not None:
        starts = list(spec.starts)
        if len(starts) != k:
            raise ReproError("teams needs one start node per label")
    else:
        starts = [nodes[(index * graph.size) // k] for index in range(k)]
    if spec.values is not None and len(spec.values) != k:
        raise ReproError(f"teams needs one value per member, got {len(spec.values)} for {k}")
    dormant = frozenset(spec.dormant or ())
    if dormant and max(dormant) >= k:
        raise ReproError(
            f"dormant member index {max(dormant)} out of range for a team of {k}"
        )
    members = [
        TeamMember(
            label=label,
            start_node=start,
            value=None if spec.values is None else spec.values[index],
            dormant=index in dormant,
        )
        for index, (label, start) in enumerate(zip(labels, starts))
    ]
    outcome = run_sgl(
        graph,
        members,
        scheduler=build_scheduler(spec),
        model=model,
        max_traversals=spec.max_traversals,
        on_cost_limit=spec.on_cost_limit,
    )
    sorted_labels = tuple(sorted(labels))
    extra = {
        "team_labels": sorted_labels,
        "all_output": outcome.all_output,
        "leader": min(sorted_labels) if outcome.correct else None,
    }
    if spec.values is not None:
        extra["value_maps"] = outcome.value_maps
    if dormant:
        extra["dormant"] = tuple(sorted(dormant))
    return _record(
        spec,
        graph,
        ok=outcome.correct,
        cost=outcome.cost,
        reason=outcome.result.reason,
        decisions=outcome.result.decisions,
        extra=extra,
    )


@PROBLEMS.register("bounds")
def _run_bounds_problem(
    spec: ScenarioSpec, graph: PortLabeledGraph, model: CostModel
) -> RunRecord:
    """The analytic guarantees of Theorem 3.1 as a sweepable problem kind.

    No simulation runs: the cell evaluates ``Π(n, |L_min|)`` and the naive
    exponential baseline guarantee on the built graph's actual size.  The
    record's ``cost`` is the RV-asynch-poly bound, so bound tables sweep,
    cache and aggregate exactly like measured ones (experiment E3).
    """
    labels = spec.labels if spec.labels is not None else (6, 11)
    small = min(labels)
    length = small.bit_length()
    rv_bound = model.pi_bound(graph.size, length)
    baseline_bound = model.baseline_trajectory_length(graph.size, small)
    return _record(
        spec,
        graph,
        ok=True,
        cost=rv_bound,
        reason="bounds",
        decisions=0,
        extra={
            "label_small": small,
            "label_length": length,
            "rv_bound": rv_bound,
            "baseline_bound": baseline_bound,
        },
    )


def _composition_of(structure: dict) -> str:
    """Render a trajectory decomposition the way the paper's figures draw it."""
    components = structure["components"]
    if "trunk_length" in structure:
        inner = components[0]
        return (
            f"{inner['kind']}({inner['k']}) at each of the "
            f"{inner['repetitions']} trunk nodes + {structure['trunk_length']} trunk edges"
        )
    return " ".join(f"{component['kind']}({component['k']})" for component in components)


@PROBLEMS.register("figures")
def _run_figures_problem(
    spec: ScenarioSpec, graph: PortLabeledGraph, model: CostModel
) -> RunRecord:
    """The structural decomposition of a trajectory (paper Figures 1–4).

    ``problem_params`` carries the trajectory ``kind`` (Q, Y', Z, A', ...)
    and the parameter ``k``; the record's ``cost`` is the exact trajectory
    length.  Pure computation — the graph is irrelevant beyond the record's
    bookkeeping columns.
    """
    params = spec.problem_kwargs
    kind = str(params.get("kind", "Q"))
    k = int(params.get("k", 1))
    structure = trajectory_structure(kind, k, model)
    return _record(
        spec,
        graph,
        ok=True,
        cost=int(structure["length"]),
        reason="figures",
        decisions=0,
        extra={
            "kind": kind,
            "k": k,
            "components": len(structure["components"]),
            "composition": _composition_of(structure),
        },
    )
