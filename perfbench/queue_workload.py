"""``queue``: sweeps of tiny cells through the queue executor with 2 workers.

Each pass dispatches a fresh seeded sweep of small rendezvous cells (about
a millisecond each) into a new queue directory with the event journal on,
via ``make_executor(2, kind="queue")`` with its default poll interval, as
the CLI runs it.  Per-unit dispatch, worker start,
leases and shard collection dominate, which is what this workload is for.
Latency samples are per cell: the time from the sweep's start until its
record reached the caller.  The records must equal a serial run's, and the
journal must show no cell executed twice.
"""

from __future__ import annotations

import random
import shutil
import time
from collections import Counter
from typing import Dict, List

from harness import PassResult, Workload, digest

CELLS_PER_SWEEP = 96
WORKERS = 2


class QueueWorkload(Workload):
    name = "queue"
    # p95 moves with the occasional slow worker start; p90 still has well
    # over ten samples beyond it.
    tail_percentile = 90

    def __init__(self, seed, scratch, tracer) -> None:
        super().__init__(seed, scratch, tracer)
        self.journal_totals: Counter = Counter()
        self.journal_seconds: Dict[str, float] = {}

    def cells(self, index: int) -> list:
        from repro.runtime.spec import ScenarioSpec

        rng = random.Random(f"perfbench-queue:{self.seed}:{index}")
        cells = []
        for _ in range(CELLS_PER_SWEEP):
            small = rng.randrange(1, 32)
            cells.append(ScenarioSpec(
                problem="rendezvous",
                family=rng.choice(("ring", "path", "star", "complete")),
                size=rng.randrange(4, 9),
                seed=rng.randrange(10_000),
                labels=(small, rng.randrange(small + 1, 64)),
                scheduler="random",
                max_traversals=20_000,
            ))
        return cells

    def inputs_digest(self) -> str:
        return digest([[cell.to_dict() for cell in self.cells(index)] for index in range(3)])

    def setup(self) -> None:
        from repro.distrib.queue import WorkQueue

        root = self.scratch / "queue-probe"
        shutil.rmtree(root, ignore_errors=True)
        WorkQueue(root, create=True)
        for cell in self.cells(0):
            cell.validate()

    def teardown(self) -> None:
        shutil.rmtree(self.scratch / "queue-probe", ignore_errors=True)

    def run_pass(self, index: int) -> PassResult:
        from repro.runtime.executors import make_executor, run_sweep

        cells = self.cells(index)
        queue_dir = self.scratch / f"queue-{index}"
        shutil.rmtree(queue_dir, ignore_errors=True)
        executor = make_executor(WORKERS, kind="queue", queue_dir=queue_dir)
        arrivals: List[float] = []
        with self.timed() as clock:
            started = time.perf_counter()
            records = run_sweep(
                cells,
                executor=executor,
                progress=lambda *_: arrivals.append(time.perf_counter() - started),
            ).records
        problems = self._check(cells, records, queue_dir)
        shutil.rmtree(queue_dir, ignore_errors=True)
        return PassResult(
            wall=clock.seconds,
            units=len(records),
            unit_seconds=clock.seconds,
            latencies=arrivals,
            timed=clock.seconds,
            attempted=len(cells),
            failed=len(problems),
            problems=problems,
        )

    def _check(self, cells, records, queue_dir) -> List[str]:
        from repro.obs.events import EventJournal, executed_cells
        from repro.runtime.executors import run_sweep

        problems = []
        serial = run_sweep(cells).records
        for cell, got, want in zip(cells, records, serial):
            if got.to_dict() != want.to_dict():
                problems.append(f"record of {cell.key()[:12]} differs from the serial run")
        if len(records) != len(cells):
            problems.append(f"{len(records)} records for {len(cells)} cells")
        journal = EventJournal(queue_dir / "journal")
        events = journal.events()
        executed = Counter(
            event.get("key") for event in events
            if event.get("type") == "cell.done" and event.get("status") == "executed"
        )
        twice = [key for key, times in executed.items() if times > 1]
        if twice:
            problems.append(f"{len(twice)} cell(s) executed more than once")
        if set(executed_cells(events)) != {cell.key() for cell in cells}:
            problems.append("journal's executed cells differ from the sweep's cells")
        if self.tracer.armed:
            self._tally_journal(journal, events)
        return problems

    def _tally_journal(self, journal, events) -> None:
        """Fleet-side times of a traced sweep, from the journal's readers."""
        totals = self.journal_totals
        seconds = self.journal_seconds
        kinds = Counter(event.get("type") for event in events)
        totals["units"] += kinds["unit.done"]
        totals["claims"] += kinds["unit.claim"]
        totals["steals"] += sum(
            1 for event in events
            if event.get("type") == "unit.claim" and event.get("kind") == "steal"
        )
        totals["events"] += len(events)
        totals["bytes"] += sum(path.stat().st_size for path in journal.shard_paths())
        dispatched = min(
            (event["ts"] for event in events if event.get("type") == "sweep.dispatch"),
            default=None,
        )
        idle_since: Dict[str, float] = {}
        started_units: Dict[str, float] = {}
        for event in events:
            kind, worker, ts = event.get("type"), event.get("worker"), event.get("ts", 0.0)
            if kind == "worker.start":
                if dispatched is not None:
                    seconds["worker_start_s"] = seconds.get("worker_start_s", 0.0) + ts - dispatched
                idle_since[worker] = ts
            elif kind == "unit.claim" and worker in idle_since:
                seconds["claim_wait_s"] = seconds.get("claim_wait_s", 0.0) + ts - idle_since.pop(worker)
            elif kind == "unit.start":
                started_units[event.get("unit")] = ts
            elif kind == "unit.done":
                begun = started_units.pop(event.get("unit"), None)
                if begun is not None:
                    seconds["unit_exec_s"] = seconds.get("unit_exec_s", 0.0) + ts - begun
                idle_since[worker] = ts

    def layer_extras(self) -> Dict[str, float]:
        totals = self.journal_totals
        extras = {f"distrib.{name}": float(totals[name]) for name in ("units", "claims", "steals")}
        extras["distrib.useful_claim_ratio"] = (
            totals["units"] / totals["claims"] if totals["claims"] else 0.0
        )
        for name, value in self.journal_seconds.items():
            extras[f"distrib.{name}"] = value
        extras["obs.journal.events"] = float(totals["events"])
        extras["obs.journal.bytes"] = float(totals["bytes"])
        return extras
