"""Executor comparison macro-benchmark: serial vs the work-queue fabric.

The same sweep is run through the serial executor and through
``executor="queue"`` with two local worker processes.  The queue run pays
the fabric's overhead — dispatch, worker spawn, lease traffic, shard
collection — so on a grid this small it is *expected* to be slower; the
benchmark exists to track that overhead across PRs (it is the constant the
fleet must amortise) rather than to show a speed-up.

The event journal is always on, so both queue numbers include its cost;
perfbench's ``queue`` workload reports it separately (``obs.journal.*``).
"""

from __future__ import annotations

from repro.runtime.executors import make_executor, run_sweep
from repro.runtime.spec import SweepSpec

from ._harness import record_bench, run_once

SWEEP = SweepSpec(sizes=(4, 6, 8, 10), seeds=(0, 1, 2), name="distrib-bench")


def test_serial_executor_reference(benchmark):
    result = run_once(benchmark, run_sweep, SWEEP)
    assert len(result) == len(SWEEP)


def test_queue_executor_two_workers(benchmark, tmp_path):
    executor = make_executor(
        2, kind="queue", queue_dir=tmp_path / "queue", unit_size=3
    )
    result = run_once(benchmark, run_sweep, SWEEP, executor=executor)
    assert len(result) == len(SWEEP)
    assert result.records == run_sweep(SWEEP).records
