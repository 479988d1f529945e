"""Layer spans for the traced pass, recorded from the benchmark's own shims.

The benchmark never edits the program.  For the traced pass it wraps a
fixed set of public entry points of the ``repro`` package (see
:func:`install`) in timing shims; each shim records one span named
``<layer>.<op>``.  Spans stay in memory, aggregated per thread (calls, total
seconds, self seconds = total minus the time covered by the spans it
caused), and become per-layer metrics when the run ends.

``Tracer.enabled`` gates recording, so the workloads switch it on only
inside their timed regions: output checks never count as layer time.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names whose individual durations are kept (for per-route medians).
SAMPLED_PREFIX = "serve."


class Tracer:
    """Thread-aware span aggregator.

    Within a thread, a span's children are the spans opened while it is on
    the stack.  Across threads a waiting caller may register its frame with
    :meth:`expect_remote` (the serve client blocked on the server thread):
    top-level spans of *other* threads are then credited to it as children.
    """

    def __init__(self) -> None:
        #: Recording right now (inside a timed region of an armed pass).
        self.enabled = False
        #: The harness's switch for the traced passes.
        self.armed = False
        self._remote: Optional[List[float]] = None
        self._remote_thread: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[Tuple[list, dict, dict, dict]] = []

    def _state(self) -> Tuple[list, dict, dict, dict]:
        """This thread's (stack, spans, counters, samples)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {}, {})
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _close(self, name: str, frame: List[float], elapsed: float) -> None:
        stack, spans, _counters, samples = self._state()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        elif self._remote is not None and threading.get_ident() != self._remote_thread:
            self._remote[0] += elapsed
        entry = spans.get(name)
        if entry is None:
            entry = spans[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]
        if name.startswith(SAMPLED_PREFIX):
            samples.setdefault(name, []).append(elapsed)

    def call(
        self,
        name: Any,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Any:
        """Run ``fn`` inside a span.

        ``name`` is a string or ``name(args, result)``; ``after(args,
        result)`` may add counters once the call returned.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        frame = [0.0]
        self._state()[0].append(frame)
        started = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self._close(name(args, result) if callable(name) else name, frame, elapsed)
        if after is not None:
            after(args, result)
        return result

    def span(self, name: str) -> "_Span":
        """Context-manager span for the benchmark's own code (the client)."""
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            counters = self._state()[2]
            counters[name] = counters.get(name, 0) + amount

    def expect_remote(self, frame: Optional[List[float]]) -> None:
        """Credit other threads' top-level spans to ``frame`` (``None`` stops)."""
        self._remote = frame
        self._remote_thread = threading.get_ident() if frame is not None else None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def spans(self) -> Dict[str, Tuple[int, float, float]]:
        """``{span name: (calls, total seconds, self seconds)}`` over threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._states)
        for _stack, spans, _counters, _samples in states:
            for name, (calls, total, own) in list(spans.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {name: (int(e[0]), e[1], e[2]) for name, e in merged.items()}

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for _stack, _spans, counters, _samples in states:
            for name, value in list(counters.items()):
                merged[name] = merged.get(name, 0) + value
        return merged

    def samples(self, name: str) -> List[float]:
        with self._lock:
            states = list(self._states)
        out: List[float] = []
        for _stack, _spans, _counters, samples in states:
            out.extend(samples.get(name, ()))
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame: Optional[List[float]] = None
        self.started = 0.0

    def __enter__(self) -> "_Span":
        if self.tracer.enabled:
            self.frame = [0.0]
            self.tracer._state()[0].append(self.frame)
            self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.frame is not None:
            self.tracer._close(self.name, self.frame, time.perf_counter() - self.started)


# ----------------------------------------------------------------------
# shims
# ----------------------------------------------------------------------
def _package_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


class Shims:
    """The installed wrappers, and how to put the originals back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def function(self, module: Any, attr: str, name: Any, after=None, inner=None) -> None:
        """Wrap a module-level function everywhere the package imported it.

        ``inner`` optionally replaces the wrapped callable (same signature)
        to keep per-thread context around the original.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        target = inner(original) if inner is not None else original
        tracer = self.tracer

        def shim(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, target, args, kwargs, after)

        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, shim)
                    self._undo.append(lambda m=mod, k=key: setattr(m, k, original))

    def method(self, cls: type, attr: str, name: Any, after=None) -> None:
        """Wrap a method (plain, class or static) defined on ``cls`` itself."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        tracer = self.tracer
        if isinstance(raw, classmethod):
            func = raw.__func__

            def class_shim(klass: Any, *args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, func, (klass,) + args, kwargs, after)

            setattr(cls, attr, classmethod(class_shim))
        elif isinstance(raw, staticmethod):
            func = raw.__func__

            def static_shim(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, func, args, kwargs, after)

            setattr(cls, attr, staticmethod(static_shim))
        else:

            def shim(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, raw, args, kwargs, after)

            setattr(cls, attr, shim)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def instance(self, obj: Any, attr: str, name: Any, after=None) -> None:
        """Shadow a bound method on one object (a registry instance)."""
        bound = getattr(obj, attr)
        tracer = self.tracer

        def shim(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, bound, args, kwargs, after)

        setattr(obj, attr, shim)
        self._undo.append(lambda: delattr(obj, attr))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


#: The scheduler of the cell the current thread is running (engine spans
#: are split by loop: round-robin takes the fused loop when untraced by the
#: program's own tracer, everything else the generic loop).
_current = threading.local()

_PROBLEM_SPANS = {
    "rendezvous": "core.rendezvous",
    "baseline": "core.rendezvous",
    "teams": "teams.sgl",
    "esst": "exploration.esst",
    "bounds": "core.bounds",
    "figures": "core.bounds",
}


def _problem_span(args: tuple, _result: Any) -> str:
    problem = str(args[0])
    if problem.startswith("tick_"):
        return "ticksim.problem"
    return _PROBLEM_SPANS.get(problem, "runtime.problem")


def _engine_loop() -> str:
    return "fused" if getattr(_current, "scheduler", None) == "round_robin" else "generic"


def _serve_route(args: tuple, result: Any) -> str:
    """``ResultService.handle(self, method, path, ...)`` → the route's span."""
    parts = [part for part in str(args[2]).split("/") if part] if len(args) > 2 else []
    if parts[:1] == ["experiments"] and len(parts) == 2:
        return "serve.not_modified" if getattr(result, "status", 0) == 304 else "serve.experiment"
    if parts[:1] == ["runs"]:
        return "serve.run" if len(parts) == 2 else "serve.runs"
    return "serve.other"


def install(tracer: Tracer) -> Shims:
    """Wrap the public entry points of every layer; returns the undo handle."""
    import importlib

    import repro.cli as cli
    from repro.distrib.dispatcher import Dispatcher
    from repro.distrib.executor import QueueExecutor
    from repro.exploration import cost_model
    from repro.runtime import executors, runner
    from repro.runtime.records import RunRecord
    from repro.runtime.registry import PROBLEMS
    from repro.runtime.spec import ScenarioSpec
    from repro.serve.app import ResultService
    from repro.sim.engine import AsyncEngine
    from repro.store.base import ResultStore
    from repro.store.filestore import FileStore
    from repro.ticksim.engine import TickEngine

    # ``repro.analysis.experiment_spec`` is also the name of a function the
    # package re-exports, so fetch the module itself.
    experiments = importlib.import_module("repro.analysis.experiment_spec")
    shims = Shims(tracer)
    count = tracer.count

    def remember_scheduler(original):
        def run(spec, *args, **kwargs):
            previous = getattr(_current, "scheduler", None)
            _current.scheduler = getattr(spec, "scheduler", None)
            try:
                return original(spec, *args, **kwargs)
            finally:
                _current.scheduler = previous

        return run

    def engine_span(_args, _result):
        return f"sim.engine.{_engine_loop()}"

    def engine_done(_args, result):
        count(f"sim.engine.{_engine_loop()}.decisions", getattr(result, "decisions", 0))

    def problem_done(args, record):
        if args[0] == "esst":
            count("exploration.esst.traversals", getattr(record, "cost", 0))

    def store_get_done(_args, record):
        count("store.get.miss" if record is None else "store.get.hit")

    # cli / analysis
    shims.function(cli, "main", "cli.main")
    shims.function(experiments, "run_experiment", "analysis.run_experiment")
    shims.function(experiments, "aggregate_from_store", "analysis.aggregate_from_store")
    shims.function(experiments, "aggregate_records", "analysis.aggregate")
    shims.function(experiments, "experiment_spec", "analysis.experiment_spec")
    shims.method(experiments.ExperimentResult, "render", "analysis.render")
    # runtime / graphs / problems / engines / cost model
    shims.function(executors, "run_sweep", "runtime.run_sweep")
    shims.function(runner, "run", "runtime.run", inner=remember_scheduler)
    shims.function(runner, "build_graph", "graphs.build")
    shims.function(runner, "trajectory_structure", "exploration.cost_model")
    shims.instance(PROBLEMS, "create", _problem_span, after=problem_done)
    shims.method(AsyncEngine, "run", engine_span, after=engine_done)
    shims.method(
        TickEngine, "run", "ticksim.engine",
        after=lambda _args, result: count("ticksim.ticks", getattr(result, "ticks", 0)),
    )
    for cls in (cost_model.CostModel, cost_model.SimulationCostModel, cost_model.PaperCostModel):
        shims.method(cls, "pi_bound", "exploration.cost_model")
        shims.method(cls, "baseline_trajectory_length", "exploration.cost_model")
    shims.method(ScenarioSpec, "key", "runtime.spec_key")
    shims.method(RunRecord, "from_dict", "runtime.record_decode")
    shims.method(RunRecord, "to_dict", "runtime.record_encode")
    # store
    shims.method(FileStore, "__init__", "store.open")
    shims.method(FileStore, "get", "store.get", after=store_get_done)
    for attr in ("refresh", "put", "flush"):
        shims.method(FileStore, attr, f"store.{attr}")
    for attr in ("generation", "get_many", "query"):
        shims.method(ResultStore, attr, f"store.{attr}")
    # serve / distrib
    shims.method(ResultService, "handle", _serve_route)
    shims.method(QueueExecutor, "map_specs", "distrib.map_specs")
    shims.method(QueueExecutor, "_spawn_workers", "distrib.spawn")
    shims.method(QueueExecutor, "_collect", "distrib.collect")
    shims.method(Dispatcher, "dispatch", "distrib.dispatch")
    return shims
