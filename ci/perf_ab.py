"""A/B perf gate: one perfbench workload, a parent checkout against a change.

Usage::

    python3 ci/perf_ab.py PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD

Both sides run the *change's* ``perfbench/`` and ``BENCHMARK.json`` against
their own ``src/`` (and ``tests/golden/``, which the ``suite`` checks read),
so the only difference between them is the package.  Five pairs of
``perfbench/run.py --seed 0 --seconds <run_seconds> --trace 0`` alternate
which side runs first.  The gate fails when

* any change run reports ``correct: false``, or
* on some end-to-end metric of ``BENCHMARK.json`` the change is worse in at
  least four of the five pairs *and* its median is worse than the parent's
  by more than both the parent's interquartile range and the metric's
  relative ``bound``.

Nothing is compared with stored history, so results from different
machines never meet.  On failure one ``--trace 1`` run per side follows and
the per-layer metrics are printed, most worsened first, so the log names
the layer that moved.  Exit status: 0 pass, 1 gate failed, 2 the gate could
not run (bad arguments, or a perfbench run that crashed).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

PAIRS = 5
#: Pairs the change must lose, out of ``PAIRS``, before its median counts.
LOSSES_TO_FAIL = 4
SEED = 0

Run = Dict  # one perfbench result object: correct, attempted, failed, metrics


class GateError(Exception):
    """The gate could not reach a verdict."""


def _direction(metric: Dict) -> int:
    """+1 when a larger value is worse, -1 when a smaller one is."""
    return 1 if metric["better"] == "lower" else -1


def _iqr(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: Sequence[Run], change: Sequence[Run], end_to_end: Sequence[Dict]) -> List[str]:
    """The reasons the change fails the gate; an empty list means it passes.

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``;
    ``end_to_end`` is ``BENCHMARK.json``'s metric list.
    """
    problems = [
        f"change run {index}: correct is false "
        f"({run['failed']} of {run['attempted']} output checks failed)"
        for index, run in enumerate(change, 1)
        if not run["correct"]
    ]
    for metric in end_to_end:
        name, sign = metric["name"], _direction(metric)
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        lost = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        base, now = statistics.median(before), statistics.median(after)
        spread = _iqr(before)
        worse = sign * (now - base)
        if lost >= LOSSES_TO_FAIL and worse > spread and worse > metric["bound"] * abs(base):
            problems.append(
                f"{name}: worse in {lost}/{len(before)} pairs, median {base:.4g} -> "
                f"{now:.4g} {metric['unit']} (parent IQR {spread:.4g}, "
                f"bound {metric['bound']:g} x {abs(base):.4g})"
            )
    return problems


def rank_layers(
    parent: Dict, change: Dict, per_layer: Sequence[Dict]
) -> List[Tuple[str, float, float, float]]:
    """``(name, parent, change, relative worsening)`` per layer metric, most
    worsened first.  ``parent``/``change`` are traced runs' ``metrics``.

    Only metrics named ``<layer>.<...>`` are ranked: the run-wide ones
    (traced wall, unattributed time, trace overhead, failures) name no layer,
    and a ratio near zero such as the trace overhead swings by more than any
    layer does.
    """
    rows = []
    for metric in per_layer:
        name = metric["name"]
        if "." not in name:
            continue
        before, after = parent[name]["value"], change[name]["value"]
        delta = _direction(metric) * (after - before)
        if delta == 0:
            relative = 0.0
        elif before == 0:
            relative = math.copysign(math.inf, delta)
        else:
            relative = delta / abs(before)
        rows.append((name, before, after, relative))
    rows.sort(key=lambda row: row[3], reverse=True)
    return rows


def bench_root(checkout: Path, change: Path, into: Path) -> Path:
    """A tree running the change's perfbench against ``checkout``'s code:
    a copy of the change's ``perfbench/`` and ``BENCHMARK.json`` beside links
    to every other visible top-level entry of ``checkout``."""
    into.mkdir()
    for entry in checkout.iterdir():
        if not entry.name.startswith(".") and entry.name not in ("perfbench", "BENCHMARK.json"):
            (into / entry.name).symlink_to(entry.resolve())
    shutil.copytree(
        change / "perfbench", into / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy2(change / "BENCHMARK.json", into / "BENCHMARK.json")
    return into


def run_bench(command: List[str], root: Path, workload: str, seconds: float, trace: int) -> Run:
    """One perfbench run in ``root``; its result object."""
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(command + args, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise GateError(
            f"perfbench exited {done.returncode} in {root.name}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _summary(name: str, unit: str, before: List[float], after: List[float]) -> str:
    def side(values: List[float]) -> str:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return f"{median:.4g} [{q1:.4g}-{q3:.4g}]"

    return f"  {name:14s} {side(before):>28s} -> {side(after):28s} {unit}"


def gate(parent: Path, change: Path, workload: str) -> int:
    config = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in config["workloads"]]
    if workload not in names:
        raise GateError(f"unknown workload {workload!r}; choose from {names}")
    for checkout in (parent, change):
        if not (checkout / "src" / "repro" / "__init__.py").is_file():
            raise GateError(f"no repro package under {checkout / 'src'}")
    command, seconds = config["command"], config["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as scratch:
        roots = {
            "parent": bench_root(parent, change, Path(scratch) / "parent"),
            "change": bench_root(change, change, Path(scratch) / "change"),
        }
        runs: Dict[str, List[Run]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(command, roots[side], workload, seconds, 0))
            line = "  ".join(
                f"{side} pass_s={runs[side][-1]['metrics']['pass_s']['value']:.4g}"
                f" correct={runs[side][-1]['correct']}"
                for side in ("parent", "change")
            )
            print(f"[{workload}] pair {pair + 1}/{PAIRS} ({order[0]} first): {line}", flush=True)
        for index, run in enumerate(runs["parent"], 1):
            if not run["correct"]:
                print(f"note: parent run {index} reports correct: false", flush=True)
        print(f"[{workload}] median [quartiles], parent -> change, {PAIRS} pairs:")
        for metric in config["end_to_end"]:
            values = {side: [run["metrics"][metric["name"]]["value"] for run in runs[side]]
                      for side in runs}
            print(_summary(metric["name"], metric["unit"], values["parent"], values["change"]))
        problems = verdict(runs["parent"], runs["change"], config["end_to_end"])
        if not problems:
            print(f"[{workload}] PASS")
            return 0
        for problem in problems:
            print(f"[{workload}] FAIL {problem}")
        print(f"[{workload}] one traced run per side; per-layer metrics, most worsened first:",
              flush=True)
        traced = {side: run_bench(command, roots[side], workload, seconds, 1)["metrics"]
                  for side in ("parent", "change")}
        units = {metric["name"]: metric["unit"] for metric in config["per_layer"]}
        for name in units:
            if "." not in name:
                before, after = traced["parent"][name]["value"], traced["change"][name]["value"]
                print(f"  run-wide   {name:40s} {before:.4g} -> {after:.4g} {units[name]}")
        for name, before, after, relative in rank_layers(
            traced["parent"], traced["change"], config["per_layer"]
        ):
            if before or after:  # both zero: a layer the workload never enters
                print(f"  {relative:+9.1%}  {name:40s} {before:.4g} -> {after:.4g} {units[name]}")
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("workload", help="a workload name from BENCHMARK.json")
    args = parser.parse_args(argv)
    try:
        return gate(args.parent.resolve(), args.change.resolve(), args.workload)
    except GateError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
