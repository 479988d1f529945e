"""Sweep execution backends: serial, process-pool and work-queue.

``run_sweep`` turns a :class:`~repro.runtime.spec.SweepSpec` (or any iterable
of :class:`~repro.runtime.spec.ScenarioSpec`) into a
:class:`~repro.runtime.records.SweepResult`.  The executor is pluggable:

* :class:`SerialExecutor` — run every cell in-process, in order, sharing
  each named cost model between the cells that name it.
* :class:`ProcessPoolExecutor` — fan the cells out over worker processes.
  Specs are picklable by construction and each cell carries its own seed, so
  the records are identical to a serial run — only the wall-clock changes.
* :class:`~repro.distrib.executor.QueueExecutor` (``make_executor(jobs,
  kind="queue")``) — dispatch the cells as leased work units on a queue
  directory and drain them with worker *processes* that may live on other
  machines; see :mod:`repro.distrib`.  Imported lazily to keep the runtime
  facade free of the distributed machinery.

Every backend preserves cell order.  ``run_sweep`` calls an optional
``progress(done, total, record, cached)`` as records arrive; ``cached`` says
whether the record was served from the result store rather than executed.

``run_sweep(..., store=..., resume=True)`` integrates the content-addressed
result store (:mod:`repro.store`): cached cells are served without touching
the executor, only the missing cells are dispatched, and every fresh record
is persisted *as it arrives* (not at the end), so a killed sweep loses at
most its in-flight cells.
"""

from __future__ import annotations

import concurrent.futures
import time
import warnings
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Union

from ..exceptions import ReproError
from ..obs.metrics import get_registry
from .records import RunRecord, SweepResult
from .runner import run, shared_cost_models
from .spec import ScenarioSpec, SweepSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..store.base import ResultStore

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "make_executor",
    "run_sweep",
]

#: An executor's per-cell callback: ``(done, total, record)``.
ProgressCallback = Callable[[int, int, RunRecord], None]

#: :func:`run_sweep`'s callback: ``(done, total, record, cached)``.
SweepProgress = Callable[[int, int, RunRecord, bool], None]


class Executor:
    """Strategy interface: execute specs, return records in spec order.

    ``trace=True`` asks for each cell to run under a tracer, so every
    returned record carries ``extra["trace"]`` (see :func:`repro.runtime
    .runner.run`).  Executors that cannot honour it (tracing is a
    per-process concern) set :attr:`supports_trace` to ``False``;
    :func:`run_sweep` then degrades to an untraced run with a warning
    instead of failing the sweep.
    """

    #: Whether ``map_specs(..., trace=True)`` is honoured by this executor.
    supports_trace = True

    def map_specs(
        self,
        specs: List[ScenarioSpec],
        progress: Optional[ProgressCallback] = None,
        trace: bool = False,
    ) -> List[RunRecord]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Run every cell in the current process, one after the other.

    Each cost-model name the cells use is built once per ``map_specs`` call
    and that instance serves every cell naming it, so the cells share its
    length tables.
    """

    def map_specs(
        self,
        specs: List[ScenarioSpec],
        progress: Optional[ProgressCallback] = None,
        trace: bool = False,
    ) -> List[RunRecord]:
        cell_seconds = get_registry().histogram(
            "repro_cell_seconds", "Wall time per sweep cell"
        )
        records: List[RunRecord] = []
        total = len(specs)
        with shared_cost_models():
            for index, spec in enumerate(specs):
                started = time.perf_counter()
                record = run(spec, trace=trace)
                cell_seconds.observe(time.perf_counter() - started, executor="serial")
                records.append(record)
                if progress is not None:
                    progress(index + 1, total, record)
        return records


def _run_cell(payload):
    """Top-level worker entry point (must be picklable)."""
    spec, trace = payload
    return run(spec, trace=trace)


class ProcessPoolExecutor(Executor):
    """Fan cells out over a ``concurrent.futures`` process pool.

    ``max_workers=None`` lets the pool pick one worker per CPU.  Each cell
    builds its spec's named cost model inside the worker, which also keeps
    each worker's exploration-sequence caches local.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def map_specs(
        self,
        specs: List[ScenarioSpec],
        progress: Optional[ProgressCallback] = None,
        trace: bool = False,
    ) -> List[RunRecord]:
        total = len(specs)
        if total == 0:
            return []
        # Completion latency as seen from the parent: queueing + execution.
        cell_seconds = get_registry().histogram(
            "repro_cell_seconds", "Wall time per sweep cell"
        )
        records: List[Optional[RunRecord]] = [None] * total
        done = 0
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers
        ) as pool:
            submitted = time.perf_counter()
            futures = {
                pool.submit(_run_cell, (spec, trace)): index
                for index, spec in enumerate(specs)
            }
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                record = future.result()
                cell_seconds.observe(time.perf_counter() - submitted, executor="pool")
                records[index] = record
                done += 1
                if progress is not None:
                    progress(done, total, record)
        return [record for record in records if record is not None]


def make_executor(
    jobs: Optional[int] = None, kind: Optional[str] = None, **options
) -> Executor:
    """Build an executor by ``kind``: ``"serial"``, ``"pool"`` or ``"queue"``.

    With ``kind=None`` (the historical signature) the choice follows
    ``jobs``: 1 (or ``None``) → serial; otherwise a pool of ``jobs``
    workers.  A ``jobs`` below 1 is refused (:class:`ReproError`) whenever
    it would size a pool or a fleet.  ``kind="queue"`` builds a
    :class:`~repro.distrib.executor.QueueExecutor` with ``jobs`` worker
    processes (``None`` → 2); ``options`` (``queue_dir``, ``unit_size``,
    ``lease_ttl``, …) pass through to it.
    """
    if kind == "queue":
        from ..distrib.executor import QueueExecutor

        return QueueExecutor(workers=2 if jobs is None else jobs, **options)
    if options:
        raise ReproError(f"executor kind {kind!r} takes no options: {sorted(options)}")
    if kind == "serial" or (kind is None and jobs in (None, 1)):
        return SerialExecutor()
    if kind not in ("pool", None):
        raise ReproError(
            f"unknown executor kind {kind!r}; choose serial, pool or queue"
        )
    if jobs is not None and jobs < 1:
        raise ReproError(f"a process pool needs at least 1 job, got {jobs}")
    return ProcessPoolExecutor(max_workers=jobs)


def run_sweep(
    sweep: Union[SweepSpec, Iterable[ScenarioSpec]],
    executor: Optional[Executor] = None,
    progress: Optional[SweepProgress] = None,
    store: Optional["ResultStore"] = None,
    resume: bool = True,
    trace: bool = False,
) -> SweepResult:
    """Execute every cell of ``sweep`` and collect a :class:`SweepResult`.

    ``sweep`` is either a declarative :class:`SweepSpec` grid or an explicit
    iterable of scenarios (for non-rectangular sweeps such as the adversary
    ablation's scheduler/patience pairs).  Records come back in cell order
    regardless of the executor.

    With a ``store`` (any :class:`~repro.store.base.ResultStore`), every
    fresh record is persisted the moment it completes — under either
    executor — so an interrupted sweep can be re-issued and will only run
    the cells it is missing.  ``resume=True`` (the default) serves cells
    already in the store without executing them; cache hits are reported
    through the progress callback first (in cell order, with
    ``cached=True``), then misses as the executor finishes them.  The
    result's table is byte-identical whether cells were computed or served.
    ``resume=False`` re-executes everything but still persists (existing
    keys are left untouched — cells are deterministic in their spec).

    ``trace=True`` executes every *fresh* cell under a tracer (cached cells
    are served as stored; the trace is not part of the cell's identity).
    An executor that cannot trace (``supports_trace = False``, e.g. the
    queue executor) degrades gracefully: the sweep runs untraced and a
    ``RuntimeWarning`` says so.
    """
    if isinstance(sweep, SweepSpec):
        specs = list(sweep.cells())
        sweep_spec: Optional[SweepSpec] = sweep
    else:
        specs = list(sweep)
        sweep_spec = None
    executor = executor if executor is not None else SerialExecutor()
    if trace and not getattr(executor, "supports_trace", True):
        warnings.warn(
            f"{type(executor).__name__} cannot trace cells; running the sweep "
            "untraced (use the serial or pool executor for extra['trace'] payloads)",
            RuntimeWarning,
            stacklevel=2,
        )
        trace = False
    cells_total = get_registry().counter(
        "repro_sweep_cells_total", "Sweep cells by outcome (cached vs executed)"
    )
    if store is None:
        plain = (
            None
            if progress is None
            else lambda done, total, record: progress(done, total, record, False)
        )
        records = executor.map_specs(specs, progress=plain, trace=trace)
        cells_total.inc(len(records), status="executed")
        return SweepResult(records=records, sweep=sweep_spec)

    total = len(specs)
    slots: List[Optional[RunRecord]] = [None] * total
    hits = 0
    if resume:
        for index, spec in enumerate(specs):
            cached = store.get(spec.key())
            if cached is not None:
                slots[index] = cached
                hits += 1
    done = 0
    for record in slots:
        if record is not None:
            done += 1
            if progress is not None:
                progress(done, total, record, True)
    pending = [(index, specs[index]) for index in range(total) if slots[index] is None]
    progress_state = {"done": done}

    def on_fresh(_completed: int, _pending_total: int, record: RunRecord) -> None:
        store.put(record)
        progress_state["done"] += 1
        if progress is not None:
            progress(progress_state["done"], total, record, False)

    fresh = executor.map_specs(
        [spec for _index, spec in pending], progress=on_fresh, trace=trace
    )
    for (index, _spec), record in zip(pending, fresh):
        slots[index] = record
    store.flush()
    cells_total.inc(hits, status="cached")
    cells_total.inc(len(fresh), status="executed")
    return SweepResult(
        records=[record for record in slots if record is not None],
        sweep=sweep_spec,
        cache_hits=hits,
        executed=len(fresh),
    )
