"""Process-local metrics: counters, gauges and histograms with labels.

A :class:`MetricsRegistry` is a zero-dependency, thread-safe bag of named
instruments.  Instrumented code asks the registry for an instrument by name
(:meth:`~MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge` /
:meth:`~MetricsRegistry.histogram`) and records into it; the registry renders
everything either as a plain JSON-able snapshot or in the Prometheus text
exposition format (``render_prom``).

Cost model
----------
Metrics are **disabled by default**: the module-level recorder starts as
:data:`NULL_REGISTRY`, whose instruments are shared no-op singletons, so an
instrumented hot path pays one attribute lookup and one no-op call — nothing
is allocated, no lock is taken.  :func:`enable_metrics` swaps in a live
registry for the process (the CLI does this behind ``repro metrics dump`` and
``REPRO_METRICS=1``); components that want isolated metrics — the HTTP result
service keeps per-instance request counters — construct their own
:class:`MetricsRegistry` instead of touching the global one.

Naming follows the Prometheus conventions: ``snake_case`` metric names with
a ``repro_`` prefix and unit suffixes (``_total``, ``_seconds``, ``_bytes``).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus-style).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Frozen label set: a sorted tuple of ``(name, value)`` string pairs.
LabelItems = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def _format_labels(items: LabelItems) -> str:
    """Render a frozen label set the way Prometheus expects (``{a="b"}``)."""
    if not items:
        return ""
    body = ",".join(
        '{}="{}"'.format(key, value.replace("\\", "\\\\").replace('"', '\\"'))
        for key, value in items
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Instrument:
    """Shared machinery: a named instrument holding per-label-set values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._values: Dict[LabelItems, float] = {}

    # -- reading ------------------------------------------------------
    def value(self, **labels: Any) -> float:
        """Current value for the given label set (0.0 when never touched)."""
        with self._lock:
            return self._values.get(_freeze_labels(labels), 0.0)

    def samples(self) -> List[Tuple[LabelItems, float]]:
        """All ``(labels, value)`` pairs, sorted by label set."""
        with self._lock:
            return sorted(self._values.items())

    def snapshot(self) -> Any:
        """JSON-able view: a bare number, or ``{label-string: number}``."""
        samples = self.samples()
        if len(samples) == 1 and samples[0][0] == ():
            return samples[0][1]
        return {
            ",".join(f"{key}={value}" for key, value in labels) or "": value
            for labels, value in samples
        }


class Counter(_Instrument):
    """A monotonically increasing value (optionally per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        frozen = _freeze_labels(labels)
        with self._lock:
            self._values[frozen] = self._values.get(frozen, 0.0) + amount


class Gauge(_Instrument):
    """A value that can go up and down (queue depths, cache sizes)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        frozen = _freeze_labels(labels)
        with self._lock:
            self._values[frozen] = float(value)

    def inc(self, amount: float = 1, **labels: Any) -> None:
        frozen = _freeze_labels(labels)
        with self._lock:
            self._values[frozen] = self._values.get(frozen, 0.0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """Cumulative-bucket histogram (count, sum and per-bucket counts)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        self.buckets: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        self._counts: Dict[LabelItems, List[int]] = {}
        self._sums: Dict[LabelItems, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        frozen = _freeze_labels(labels)
        with self._lock:
            counts = self._counts.get(frozen)
            if counts is None:
                counts = self._counts[frozen] = [0] * (len(self.buckets) + 1)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
            self._values[frozen] = self._values.get(frozen, 0.0) + 1
            self._sums[frozen] = self._sums.get(frozen, 0.0) + value

    # -- reading ------------------------------------------------------
    def count(self, **labels: Any) -> int:
        """Number of observations for the label set."""
        return int(self.value(**labels))

    def sum(self, **labels: Any) -> float:
        """Sum of observed values for the label set."""
        with self._lock:
            return self._sums.get(_freeze_labels(labels), 0.0)

    def cumulative_buckets(self, labels: LabelItems) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        with self._lock:
            counts = self._counts.get(labels, [0] * (len(self.buckets) + 1))
            out: List[Tuple[float, int]] = []
            running = 0
            for bound, count in zip(self.buckets, counts):
                running += count
                out.append((bound, running))
            out.append((float("inf"), running + counts[-1]))
            return out

    def snapshot(self) -> Any:
        samples = self.samples()
        out: Dict[str, Any] = {}
        for labels, count in samples:
            key = ",".join(f"{k}={v}" for k, v in labels) or ""
            with self._lock:
                total = self._sums.get(labels, 0.0)
            out[key] = {"count": int(count), "sum": round(total, 9)}
        if list(out) == [""]:
            return out[""]
        return out


class MetricsRegistry:
    """A named collection of instruments sharing one lock.

    ``enabled=False`` builds the null recorder: every instrument accessor
    returns a shared no-op singleton, so disabled call sites cost one method
    call and touch no shared state.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: "Dict[str, _Instrument]" = {}
        self._order: List[str] = []

    # ------------------------------------------------------------------
    # instrument accessors (create-on-first-use, idempotent)
    # ------------------------------------------------------------------
    def _get(self, name: str, factory, kind: str) -> Any:
        if not self.enabled:
            return _NULL_INSTRUMENT
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
                self._order.append(name)
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {instrument.kind}, not a {kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help, self._lock), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help, self._lock), "gauge")

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(
            name, lambda: Histogram(name, help, self._lock, buckets), "histogram"
        )

    # ------------------------------------------------------------------
    # reading / rendering
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return list(self._order)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able ``{name: value-or-labelled-values}`` view, sorted."""
        return {
            name: self._instruments[name].snapshot() for name in sorted(self.names())
        }

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def render_prom(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self.names()):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for labels, _count in instrument.samples():
                    for bound, cumulative in instrument.cumulative_buckets(labels):
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        bucket_labels = labels + (("le", le),)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(labels)} "
                        f"{_format_value(instrument.sum(**dict(labels)))}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(labels)} "
                        f"{int(instrument.value(**dict(labels)))}"
                    )
            else:
                for labels, value in instrument.samples():
                    lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


class _NullInstrument:
    """The shared no-op instrument every disabled registry hands out."""

    name = "null"
    help = ""
    kind = "null"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        pass

    def dec(self, amount: float = 1, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def samples(self) -> List[Tuple[LabelItems, float]]:
        return []

    def snapshot(self) -> Any:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()

#: The module-level null recorder: a permanently disabled registry.
NULL_REGISTRY = MetricsRegistry(enabled=False)

_default: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide recorder instrumented code writes to.

    Starts as :data:`NULL_REGISTRY` (metrics off; instrumentation is free);
    :func:`enable_metrics` swaps in a live registry.
    """
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide recorder; returns the old one."""
    global _default
    previous = _default
    _default = registry
    return previous


def enable_metrics() -> MetricsRegistry:
    """Turn process-wide metrics on (idempotent); returns the live registry."""
    global _default
    if not _default.enabled:
        _default = MetricsRegistry(enabled=True)
    return _default


def disable_metrics() -> None:
    """Turn process-wide metrics back off (the null recorder)."""
    global _default
    _default = NULL_REGISTRY
