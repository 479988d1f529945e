"""Cross-run trace analytics: rollups, outliers, and span-level diffs.

PR 7's tracer persists one ``RunTrace`` payload per traced run inside
``RunRecord.extra["trace"]``; this module is the layer that reads them *in
aggregate* across a store.  Three views:

* :func:`rollup` — span-time statistics grouped by record fields
  (problem / family / n by default), with outlier runs flagged;
* :func:`trace_top` — which spans dominate wall time across a whole store
  (the ``repro trace top`` table);
* :func:`trace_diff` — attribute the wall-time delta between two runs to
  named spans (the ``repro trace diff`` table), so a slower run points at
  ``engine.fused_loop``, not just at a number.

The diff works on *components*: the span hierarchy (known from
:mod:`repro.obs.profile`'s child-span constants, extended by the dotted
span-name convention) partitions the root span's seconds exactly — every
leaf span contributes its own time and every internal span contributes a
``(self)`` residual — so summing component deltas reproduces the total
delta and attribution is complete by construction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .profile import ENGINE_CHILD_SPANS

__all__ = [
    "trace_of",
    "load_traces",
    "span_parent",
    "span_components",
    "trace_diff",
    "format_trace_diff",
    "rollup",
    "format_rollup",
    "trace_top",
    "format_trace_top",
]

#: Default root span: the whole scenario.
ROOT_SPAN = "run"

#: Explicit parent edges of the known span hierarchy; unknown dotted names
#: fall back to their longest dot-prefix ancestor present in the trace.  The
#: per-decision spans (and ``engine.apply.sweep``/``.index`` under
#: ``engine.apply``) are found only in traces stored when the engine still
#: had a second, generic decision loop.
SPAN_PARENTS: Dict[str, str] = {
    "engine.run": ROOT_SPAN,
    **{name: "engine.run" for name in ENGINE_CHILD_SPANS},
    "scheduler.decide": "engine.run",
    "engine.apply": "engine.run",
    "engine.check_termination": "engine.run",
}

#: A run whose root span exceeds ``threshold × group median`` is an outlier.
OUTLIER_THRESHOLD = 3.0


def trace_of(record: Any) -> Optional[Dict[str, Any]]:
    """The trace payload of a record, or ``None`` for untraced runs."""
    trace = record.extra_dict.get("trace")
    return trace if isinstance(trace, Mapping) else None


def load_traces(store: Any, keys: Optional[Sequence[str]] = None) -> List[Tuple[str, Any, Dict[str, Any]]]:
    """``(key, record, trace)`` for every traced record of ``store``.

    ``keys=None`` scans the whole store; untraced records are skipped (a
    store typically mixes traced and untraced sweeps).
    """
    out: List[Tuple[str, Any, Dict[str, Any]]] = []
    for key in store.keys() if keys is None else keys:
        record = store.get(key)
        if record is None:
            continue
        trace = trace_of(record)
        if trace is not None:
            out.append((key, record, trace))
    return out


# ----------------------------------------------------------------------
# the span tree
# ----------------------------------------------------------------------
def span_parent(name: str, present: Iterable[str], root: str = ROOT_SPAN) -> Optional[str]:
    """The parent of span ``name`` within the spans ``present``.

    Explicit hierarchy first, then the dotted convention (the longest
    present proper dot-prefix), then the root for any other non-root span.
    Returns ``None`` for the root itself (or when the root is absent).
    """
    if name == root:
        return None
    names = set(present)
    explicit = SPAN_PARENTS.get(name)
    if explicit is not None and explicit in names:
        return explicit
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in names and prefix != name:
            return prefix
    return root if root in names else None


def span_components(trace: Mapping[str, Any], root: str = ROOT_SPAN) -> Dict[str, float]:
    """Partition the root span's seconds across leaf spans and residuals.

    Every span reachable from ``root`` contributes: leaves their own
    seconds, internal spans a ``"<name> (self)"`` residual (their seconds
    minus their children's, clamped at zero so measurement jitter never
    produces negative components).  When the trace has no ``root`` span the
    top-level spans are treated as a forest under a virtual root.
    """
    spans = {
        name: float(span.get("seconds", 0.0))
        for name, span in trace.get("spans", {}).items()
    }
    if not spans:
        return {}
    children: Dict[Optional[str], List[str]] = {}
    for name in spans:
        children.setdefault(span_parent(name, spans, root), []).append(name)

    components: Dict[str, float] = {}

    def visit(name: str) -> None:
        kids = children.get(name, [])
        if not kids:
            components[name] = spans[name]
            return
        for kid in kids:
            visit(kid)
        residual = spans[name] - sum(spans[kid] for kid in kids)
        components[f"{name} (self)"] = max(0.0, residual)

    if root in spans:
        visit(root)
    else:
        for top in children.get(None, []) + children.get(root, []):
            visit(top)
    return components


def _root_seconds(trace: Mapping[str, Any], root: str) -> float:
    spans = trace.get("spans", {})
    if root in spans:
        return float(spans[root].get("seconds", 0.0))
    return sum(float(span.get("seconds", 0.0)) for span in spans.values())


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def trace_diff(
    trace_a: Mapping[str, Any],
    trace_b: Mapping[str, Any],
    root: str = ROOT_SPAN,
) -> Dict[str, Any]:
    """Attribute the wall-time delta between two traces to span components.

    Returns ``{"root", "seconds_a", "seconds_b", "delta", "attributed",
    "attribution", "components": [...]}`` — components carry each span's
    seconds on both sides and its (signed) share of the delta, sorted by
    absolute delta descending.  ``attribution`` is the fraction of the
    total delta the named components account for; because components
    partition the root on both sides it sits at ~1.0 apart from the
    clamping of negative residuals.
    """
    comp_a = span_components(trace_a, root)
    comp_b = span_components(trace_b, root)
    names = sorted(set(comp_a) | set(comp_b))
    total_a = _root_seconds(trace_a, root)
    total_b = _root_seconds(trace_b, root)
    delta = total_b - total_a
    components = []
    for name in names:
        a = comp_a.get(name, 0.0)
        b = comp_b.get(name, 0.0)
        components.append(
            {
                "span": name,
                "seconds_a": a,
                "seconds_b": b,
                "delta": b - a,
                "share": (b - a) / delta if delta else 0.0,
            }
        )
    components.sort(key=lambda row: (-abs(row["delta"]), row["span"]))
    attributed = sum(row["delta"] for row in components)
    return {
        "root": root,
        "seconds_a": total_a,
        "seconds_b": total_b,
        "delta": delta,
        "attributed": attributed,
        "attribution": (attributed / delta) if delta else 1.0,
        "components": components,
    }


def format_trace_diff(diff: Mapping[str, Any], *, limit: Optional[int] = None) -> str:
    """Aligned ``repro trace diff`` table."""
    rows = list(diff["components"])
    if limit is not None:
        rows = rows[:limit]
    table = [
        (
            row["span"],
            f"{row['seconds_a']:.6f}",
            f"{row['seconds_b']:.6f}",
            f"{row['delta']:+.6f}",
            f"{100.0 * row['share']:+6.1f}%" if diff["delta"] else "     -",
        )
        for row in rows
    ]
    headers = ("span", "a", "b", "delta", "% of delta")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table)) if table else len(headers[i])
        for i in range(5)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append("")
    lines.append(
        f"{diff['root']}: {diff['seconds_a']:.6f}s -> {diff['seconds_b']:.6f}s  "
        f"(delta {diff['delta']:+.6f}s, {100.0 * diff['attribution']:.1f}% "
        "attributed to spans above)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# rollups
# ----------------------------------------------------------------------
def _group_value(record: Any, name: str) -> Any:
    try:
        return getattr(record, name)
    except AttributeError:
        return record.extra_dict.get(name)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def rollup(
    traced: Iterable[Tuple[str, Any, Mapping[str, Any]]],
    *,
    group_by: Sequence[str] = ("problem", "family", "n"),
    root: str = ROOT_SPAN,
    outlier_threshold: float = OUTLIER_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Span-time statistics per record group, outliers flagged.

    ``traced`` is :func:`load_traces` output.  Each returned row carries the
    group values, run count, mean/max root seconds, per-span mean seconds
    with their share of the root, total ``events_dropped``, and the keys of
    outlier runs (root seconds beyond ``outlier_threshold ×`` the group
    median — median-based so one slow machine does not mask itself).
    """
    groups: Dict[Tuple, List[Tuple[str, Any, Mapping[str, Any]]]] = {}
    for item in traced:
        group = tuple(_group_value(item[1], name) for name in group_by)
        groups.setdefault(group, []).append(item)

    rows: List[Dict[str, Any]] = []
    for group in sorted(groups, key=lambda g: tuple(str(v) for v in g)):
        items = groups[group]
        roots = [_root_seconds(trace, root) for _key, _record, trace in items]
        median = _median(roots)
        outliers = [
            key
            for (key, _record, trace), seconds in zip(items, roots)
            if median > 0 and seconds > outlier_threshold * median
        ]
        span_totals: Dict[str, float] = {}
        dropped = 0
        for _key, _record, trace in items:
            for name, span in trace.get("spans", {}).items():
                span_totals[name] = span_totals.get(name, 0.0) + float(
                    span.get("seconds", 0.0)
                )
            dropped += int(trace.get("events_dropped", 0))
        total_root = sum(roots)
        rows.append(
            {
                "group": dict(zip(group_by, group)),
                "runs": len(items),
                "seconds_mean": total_root / len(items) if items else 0.0,
                "seconds_max": max(roots, default=0.0),
                "spans": {
                    name: {
                        "seconds_mean": seconds / len(items),
                        "share": (seconds / total_root) if total_root else 0.0,
                    }
                    for name, seconds in sorted(span_totals.items())
                },
                "events_dropped": dropped,
                "outliers": outliers,
            }
        )
    return rows


def format_rollup(rows: Sequence[Mapping[str, Any]]) -> str:
    """Compact rollup table: one line per group, top span named."""
    table = []
    for row in rows:
        group = row["group"]
        label = " ".join(f"{k}={v}" for k, v in group.items())
        spans = row.get("spans", {})
        top = max(spans, key=lambda n: spans[n]["seconds_mean"], default="-")
        flags = []
        if row.get("outliers"):
            flags.append(f"{len(row['outliers'])} outlier(s)")
        if row.get("events_dropped"):
            flags.append(f"{row['events_dropped']} events dropped")
        table.append(
            (
                label,
                str(row["runs"]),
                f"{row['seconds_mean']:.6f}",
                f"{row['seconds_max']:.6f}",
                top,
                ", ".join(flags) if flags else "-",
            )
        )
    headers = ("group", "runs", "mean s", "max s", "top span", "flags")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table)) if table else len(headers[i])
        for i in range(6)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace top
# ----------------------------------------------------------------------
def trace_top(
    traced: Iterable[Tuple[str, Any, Mapping[str, Any]]],
    *,
    root: str = ROOT_SPAN,
    limit: int = 15,
) -> Dict[str, Any]:
    """Which span components dominate wall time across many traced runs.

    Aggregates :func:`span_components` over every trace, so times partition
    the total rather than double-counting parents and children.
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    runs = 0
    grand = 0.0
    for _key, _record, trace in traced:
        runs += 1
        grand += _root_seconds(trace, root)
        for name, seconds in span_components(trace, root).items():
            totals[name] = totals.get(name, 0.0) + seconds
            counts[name] = counts.get(name, 0) + 1
    ordered = sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:limit]
    return {
        "runs": runs,
        "total_seconds": grand,
        "spans": [
            {
                "span": name,
                "seconds": seconds,
                "runs": counts[name],
                "share": (seconds / grand) if grand else 0.0,
            }
            for name, seconds in ordered
        ],
    }


def format_trace_top(top: Mapping[str, Any]) -> str:
    """Aligned ``repro trace top`` table."""
    table = [
        (
            row["span"],
            str(row["runs"]),
            f"{row['seconds']:.6f}",
            f"{100.0 * row['share']:5.1f}%",
        )
        for row in top["spans"]
    ]
    headers = ("span", "runs", "seconds", "% of total")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table)) if table else len(headers[i])
        for i in range(4)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append("")
    lines.append(
        f"{top['runs']} traced run(s), {top['total_seconds']:.6f}s total wall time"
    )
    return "\n".join(lines)
