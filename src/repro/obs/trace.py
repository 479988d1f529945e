"""Run tracing: spans, events and counters summarised into a ``RunTrace``.

A :class:`Tracer` is handed (ambiently, see :func:`use_tracer`) to the
layers executing one scenario.  They record three kinds of telemetry:

* **spans** — named wall-time accumulators (``engine.bootstrap``,
  ``engine.fused_loop``, …).  A span is recorded either with the context manager
  :meth:`Tracer.span` or, on hot paths, with the two-call fast path
  ``t0 = tracer.clock(); ...; tracer.add_span("name", t0)``;
* **counters** — deterministic tallies (decisions, agents scanned,
  ``Fraction`` operations) via :meth:`Tracer.count`;
* **events** — a bounded list of structured moments (meetings), via
  :meth:`Tracer.event`.

:meth:`Tracer.finish` folds everything into a :class:`RunTrace`, whose
:meth:`~RunTrace.to_dict` payload is plain JSON values — it travels in
``RunRecord.extra["trace"]`` and is therefore store-queryable, mergeable and
servable like any other result field.  Counters and events are deterministic
for a fixed spec; only the spans' ``seconds`` vary between runs (see
:func:`deterministic_view`, which strips them for comparisons).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Tracer",
    "RunTrace",
    "TRACE_SCHEMA_VERSION",
    "current_tracer",
    "use_tracer",
    "deterministic_view",
]

#: Version stamp carried by every trace payload.
TRACE_SCHEMA_VERSION = 1

#: Default cap on recorded events (meetings of a long adversarial run can
#: number in the thousands; the trace keeps the first N and counts the rest).
DEFAULT_MAX_EVENTS = 256


@dataclass
class RunTrace:
    """The JSON-serialisable telemetry of one run.

    Attributes
    ----------
    counters:
        Deterministic tallies, e.g. ``{"engine.decisions": 412, ...}``.
    spans:
        ``{name: {"count": n, "seconds": s}}`` wall-time accumulators.
    events:
        The first ``max_events`` structured events, in order.
    events_dropped:
        How many events were recorded beyond the cap.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    events_dropped: int = 0
    schema: int = TRACE_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "counters": dict(sorted(self.counters.items())),
            "spans": {
                name: {"count": span["count"], "seconds": span["seconds"]}
                for name, span in sorted(self.spans.items())
            },
            "events": list(self.events),
            "events_dropped": self.events_dropped,
        }


def deterministic_view(trace: Any) -> Dict[str, Any]:
    """The timing-free projection of a trace payload (dict or RunTrace).

    Two traced runs of the same spec agree exactly on this view — counters,
    span names and counts, events — while the spans' measured ``seconds``
    naturally differ run to run.
    """
    data = trace.to_dict() if isinstance(trace, RunTrace) else dict(trace)
    spans = data.get("spans", {})
    return {
        "schema": data.get("schema"),
        "counters": dict(data.get("counters", {})),
        "spans": {name: int(span["count"]) for name, span in sorted(spans.items())},
        "events": list(data.get("events", ())),
        "events_dropped": data.get("events_dropped", 0),
    }


class Tracer:
    """Collects spans, counters and events for one run.

    Not thread-safe by design: a tracer belongs to the single thread running
    one scenario (the concurrency story lives in
    :class:`~repro.obs.metrics.MetricsRegistry`, which aggregates across
    runs).  ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        clock=time.perf_counter,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.clock = clock
        self.max_events = max_events
        self._counters: Dict[str, int] = {}
        self._spans: Dict[str, List[float]] = {}  # name -> [count, seconds]
        self._events: List[Dict[str, Any]] = []
        self._events_dropped = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the deterministic counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def add_span(self, name: str, started: float) -> None:
        """Fast-path span close: accumulate ``clock() - started`` under ``name``."""
        elapsed = self.clock() - started
        span = self._spans.get(name)
        if span is None:
            self._spans[name] = [1, elapsed]
        else:
            span[0] += 1
            span[1] += elapsed

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`add_span` for non-hot paths."""
        started = self.clock()
        try:
            yield
        finally:
            self.add_span(name, started)

    def event(self, type: str, **fields: Any) -> None:
        """Record one structured event (bounded by ``max_events``)."""
        if len(self._events) >= self.max_events:
            self._events_dropped += 1
            return
        self._events.append({"type": type, **fields})

    # ------------------------------------------------------------------
    # summarising
    # ------------------------------------------------------------------
    def finish(self) -> RunTrace:
        """Fold everything recorded so far into a :class:`RunTrace`."""
        return RunTrace(
            counters=dict(self._counters),
            spans={
                name: {"count": span[0], "seconds": round(span[1], 9)}
                for name, span in self._spans.items()
            },
            events=list(self._events),
            events_dropped=self._events_dropped,
        )


# ----------------------------------------------------------------------
# the ambient tracer
# ----------------------------------------------------------------------
# A module-level slot rather than a parameter threaded through every layer:
# the engine sits four call frames below ``run()`` behind registry-dispatched
# problem kinds whose signatures should not grow a telemetry argument.  A
# scenario runs on one thread start to finish, and the runner scopes the slot
# with try/finally, so the ambient value is never observed stale.
_active: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The tracer of the scenario currently executing, or ``None``."""
    return _active


@contextlib.contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` as the ambient tracer for the duration of the block."""
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous
