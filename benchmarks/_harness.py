"""Small helpers shared by the benchmark files."""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path

#: Directory in which each benchmark drops the table it regenerated.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Machine-readable per-bench metrics (wall time, cells/sec).  The file is a
#: timestamped **history** — one entry appended per benchmark session, never
#: overwritten — so the perf trajectory accumulates across PRs; ``"latest"``
#: mirrors the most recent value per benchmark for easy consumption.
BENCH_RESULTS = RESULTS_DIR / "BENCH_results.json"

#: One history entry per process: every ``record_bench`` call of a pytest
#: session lands in the same timestamped bucket.
_SESSION = {"stamp": None}


def _load_results() -> dict:
    """Read ``BENCH_results.json``; a missing or unreadable file starts empty."""
    try:
        data = json.loads(BENCH_RESULTS.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {"history": [], "latest": {}}
    if not isinstance(data, dict) or not isinstance(data.get("history"), list):
        return {"history": [], "latest": {}}
    data.setdefault("latest", {})
    return data


def record_bench(
    name: str,
    seconds: float,
    cells: int | None = None,
    extra: dict | None = None,
) -> None:
    """Append one benchmark's metrics to the ``BENCH_results.json`` history.

    Each entry carries the wall time of the single measured run and, when
    the benchmark's result is sized (a sweep / experiment), the cell count
    and throughput.  ``extra`` merges additional per-bench metrics into the
    entry (e.g. the engine microbenchmark's lattice-ops-per-decision).  All
    ``record_bench`` calls of one process share one timestamped history
    entry; re-running a benchmark within a session updates its value in
    place, while a new session appends — earlier sessions are never
    rewritten.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    results = _load_results()
    if _SESSION["stamp"] is None:
        _SESSION["stamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    history = results["history"]
    if not history or history[-1].get("timestamp") != _SESSION["stamp"]:
        history.append({"timestamp": _SESSION["stamp"], "benches": {}})
    entry: dict = {"seconds": round(seconds, 6)}
    if cells is not None:
        entry["cells"] = cells
        entry["cells_per_sec"] = round(cells / seconds, 3) if seconds > 0 else None
    if extra:
        entry.update(extra)
    history[-1]["benches"][name] = entry
    results["latest"][name] = entry
    BENCH_RESULTS.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


#: Throughput slowdown factor beyond which the perf gate fails: a bench
#: whose cells/sec drops below ``best-recorded / 1.5`` is a regression.
REGRESSION_THRESHOLD = 1.5


def check_regression(
    benches: dict, history: list, *, threshold: float = REGRESSION_THRESHOLD
) -> list[str]:
    """Compare one session's bench entries against a stored history.

    For every bench in ``benches`` that carries a ``cells_per_sec``
    throughput, the baseline is the *best* throughput any ``history`` entry
    records under the same name (the deterministic choice — the most recent
    entry would make the gate flap on a single slow session).  A new
    throughput below ``baseline / threshold`` is a regression.

    Returns a list of human-readable problem strings; an empty list means
    the gate passes.  Benches without throughput (unsized results) or
    without any historical baseline are skipped — the gate can only compare
    what was measured before.
    """
    problems: list[str] = []
    for name in sorted(benches):
        entry = benches[name]
        rate = entry.get("cells_per_sec") if isinstance(entry, dict) else None
        if not rate:
            continue
        baseline = 0.0
        for past in history:
            old = past.get("benches", {}).get(name, {})
            old_rate = old.get("cells_per_sec") if isinstance(old, dict) else None
            if old_rate:
                baseline = max(baseline, float(old_rate))
        if baseline <= 0.0:
            continue
        if rate < baseline / threshold:
            problems.append(
                f"{name}: {rate:.3f} cells/sec is a >{threshold:g}x slowdown "
                f"against the best recorded {baseline:.3f} cells/sec"
            )
    return problems


def check_latest_regression(*, threshold: float = REGRESSION_THRESHOLD) -> list[str]:
    """Gate the most recent ``BENCH_results.json`` session against the rest.

    The newest history entry is the candidate; every earlier entry supplies
    the baseline.  With fewer than two history entries there is nothing to
    compare and the gate passes vacuously.
    """
    history = _load_results()["history"]
    if len(history) < 2:
        return []
    return check_regression(
        history[-1].get("benches", {}), history[:-1], threshold=threshold
    )


def _cell_count(result) -> int | None:
    """The number of sweep cells a benchmark result covers, if it is sized."""
    for candidate in (result, getattr(result, "result", None), getattr(result, "records", None)):
        try:
            return len(candidate)
        except TypeError:
            continue
    return None


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The benchmarks are macro-benchmarks (whole experiment drivers); repeating
    them would multiply the suite's runtime without improving the measurement.
    The single run's wall time (and cells/sec when the result is sized) is
    additionally persisted to ``BENCH_results.json``.
    """
    timing = {}

    def timed(*call_args, **call_kwargs):
        started = time.perf_counter()
        result = function(*call_args, **call_kwargs)
        timing["seconds"] = time.perf_counter() - started
        return result

    result = benchmark.pedantic(timed, args=args, kwargs=kwargs, rounds=1, iterations=1)
    record_bench(benchmark.name, timing["seconds"], _cell_count(result))
    return result


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under ``benchmarks/results/``.

    pytest captures stdout of passing tests, so the persisted copy is what a
    user reads after ``pytest benchmarks/ --benchmark-only``; the printed copy
    shows up when running with ``-s`` (or on failure).
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
