"""Render a trace payload as a human-readable profile table.

The table attributes wall time across the named spans of a trace, relative
to a *root* span (``run`` — the whole scenario — by default, or
``engine.run`` with ``root="engine.run"`` to profile just the engine).
Spans nest: ``engine.run`` contains ``engine.bootstrap`` and the decision
loop's single ``engine.fused_loop`` span, so percentages of non-root spans
may sum near 100% *within* their parent while the parent itself also
appears.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["format_profile", "engine_coverage"]

#: Spans that partition the engine (children of ``engine.run``): the
#: bootstrap, then the decision loop as one span.
ENGINE_CHILD_SPANS = (
    "engine.bootstrap",
    "engine.fused_loop",
)


def _spans_of(trace: Mapping[str, Any]) -> Dict[str, Dict[str, float]]:
    spans = trace.get("spans", {})
    return {name: dict(span) for name, span in spans.items()}


def engine_coverage(trace: Mapping[str, Any]) -> Optional[float]:
    """Fraction of ``engine.run`` wall time attributed to its child spans.

    ``None`` when the trace holds no engine span (e.g. an ESST run, which is
    adversary-free and never enters the engine).
    """
    spans = _spans_of(trace)
    total = spans.get("engine.run", {}).get("seconds", 0.0)
    if not total:
        return None
    attributed = sum(
        spans.get(name, {}).get("seconds", 0.0) for name in ENGINE_CHILD_SPANS
    )
    return attributed / total


def format_profile(trace: Mapping[str, Any], root: str = "run") -> str:
    """Aligned profile table: span, calls, seconds, % of the root span.

    Spans are sorted by accumulated seconds, descending; the root span leads.
    A counters section follows with the deterministic tallies (decisions,
    agents scanned, ``Fraction`` ops), since a profile without the work
    counts behind the times only tells half the story.
    """
    spans = _spans_of(trace)
    total = spans.get(root, {}).get("seconds", 0.0)
    if not total:
        # Fall back to the largest span so the table degrades gracefully.
        total = max((span.get("seconds", 0.0) for span in spans.values()), default=0.0)

    ordered: List[Tuple[str, Dict[str, float]]] = sorted(
        spans.items(),
        key=lambda item: (item[0] != root, -item[1].get("seconds", 0.0), item[0]),
    )
    rows = []
    for name, span in ordered:
        seconds = span.get("seconds", 0.0)
        share = f"{100.0 * seconds / total:5.1f}%" if total else "    -"
        rows.append(
            (name, str(int(span.get("count", 0))), f"{seconds:.6f}", share)
        )
    headers = ("span", "calls", "seconds", f"% of {root}")
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rows))
        if rows
        else len(headers[column])
        for column in range(4)
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    coverage = engine_coverage(trace)
    if coverage is not None:
        lines.append("")
        lines.append(
            f"engine coverage: {100.0 * coverage:.1f}% of engine.run attributed "
            f"to {', '.join(name for name in ENGINE_CHILD_SPANS if name in spans)}"
        )

    counters = trace.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name.ljust(width)}  {counters[name]}")
    dropped = trace.get("events_dropped", 0)
    events = trace.get("events", ())
    if events or dropped:
        lines.append("")
        lines.append(f"events: {len(events)} recorded, {dropped} dropped")
    return "\n".join(lines)
