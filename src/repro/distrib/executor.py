"""``QueueExecutor``: the work-queue fabric behind the ``Executor`` seam.

``run_sweep(sweep, executor=QueueExecutor(workers=4))`` dispatches the
sweep's cells into a (temporary, unless given) queue directory, spawns
``workers`` local worker processes (``python -m repro worker …``), streams
progress as done markers appear, and returns the records in cell order —
exactly the contract of the serial and process-pool executors, so stores,
experiments and the CLI compose with it unchanged.

The moment the queue directory lives on a shared filesystem (or its units
are shipped), the same run scales past one machine: the spawned local
workers are then merely *some* of the fleet, and remote ``repro worker``
processes drain the same queue.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exceptions import QueueError, ReproError
from ..runtime.executors import Executor, ProgressCallback
from ..runtime.records import RunRecord
from ..runtime.spec import ScenarioSpec
from ..store.filestore import FileStore
from .dispatcher import DEFAULT_UNIT_SIZE, Dispatcher
from .queue import WorkQueue
from .worker import DEFAULT_LEASE_TTL

__all__ = ["QueueExecutor"]


def _worker_env() -> Dict[str, str]:
    """Child env with the package importable even from a bare checkout."""
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (package_root, env.get("PYTHONPATH")) if part
    )
    return env


class QueueExecutor(Executor):
    """Fan sweep cells out over leased work units and worker processes.

    Tracing is a per-process concern and worker processes run their own
    telemetry, so ``supports_trace`` is ``False``: ``run_sweep(...,
    trace=True)`` degrades to an untraced run with a warning.  A *direct*
    ``map_specs(..., trace=True)`` call still raises — silently ignoring an
    explicit request would misreport what ran.

    Parameters
    ----------
    workers:
        Local worker processes to spawn per ``map_specs`` call.
    queue_dir:
        Queue directory.  ``None`` uses a fresh temporary directory that is
        removed after a clean drain; an explicit directory is kept (that is
        the multi-machine workflow: point remote ``repro worker`` processes
        at it too, or ship its ``results/`` shards for a later merge).
    unit_size, lease_ttl, poll:
        Dispatch batching and the lease parameters handed to the workers.
    spawn_timeout:
        Upper bound in seconds for the whole drain once every local worker
        has exited; ``None`` waits forever (e.g. when external workers are
        expected to finish the queue).

    The dispatch and the spawned workers journal their fleet events into
    ``<queue>/journal``.
    """

    supports_trace = False

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_dir: Optional[Union[str, Path]] = None,
        unit_size: int = DEFAULT_UNIT_SIZE,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll: float = 0.1,
        spawn_timeout: Optional[float] = 600.0,
    ) -> None:
        if workers < 1:
            raise ReproError(f"queue executor needs at least one worker, got {workers}")
        self.workers = workers
        self.queue_dir = None if queue_dir is None else Path(queue_dir)
        self.unit_size = unit_size
        self.lease_ttl = lease_ttl
        self.poll = poll
        self.spawn_timeout = spawn_timeout

    # ------------------------------------------------------------------
    # worker fleet
    # ------------------------------------------------------------------
    def _spawn_workers(self, queue: WorkQueue) -> List[subprocess.Popen]:
        env = _worker_env()
        procs = []
        for index in range(self.workers):
            worker_id = f"local-{os.getpid()}-{index}"
            log_path = queue.logs_root / f"{worker_id}.log"
            argv = [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--queue",
                str(queue.root),
                "--worker-id",
                worker_id,
                "--lease-ttl",
                str(self.lease_ttl),
                "--poll",
                str(max(self.poll, 0.05)),
                "--quiet",
            ]
            with log_path.open("w", encoding="utf-8") as log:
                procs.append(
                    subprocess.Popen(
                        argv,
                        stdout=log,
                        stderr=subprocess.STDOUT,
                        env=env,
                    )
                )
        return procs

    @staticmethod
    def _log_tails(queue: WorkQueue, limit: int = 400) -> str:
        tails = []
        for path in sorted(queue.logs_root.glob("*.log")):
            text = path.read_text(encoding="utf-8", errors="replace").strip()
            if text:
                tails.append(f"--- {path.name} ---\n{text[-limit:]}")
        return "\n".join(tails)

    # ------------------------------------------------------------------
    # record collection
    # ------------------------------------------------------------------
    @staticmethod
    def _collect(queue: WorkQueue, keys: List[str]) -> Dict[str, RunRecord]:
        """Look ``keys`` up across every worker shard of the queue."""
        found: Dict[str, RunRecord] = {}
        for shard_dir in queue.result_store_dirs():
            missing = [key for key in keys if key not in found]
            if not missing:
                break
            try:
                with FileStore(shard_dir, create=False, salvage=True) as store:
                    for key in missing:
                        record = store.get(key)
                        if record is not None:
                            found[key] = record
            except ReproError:
                continue
        return found

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------
    def map_specs(
        self,
        specs: List[ScenarioSpec],
        model=None,
        progress: Optional[ProgressCallback] = None,
        trace: bool = False,
    ) -> List[RunRecord]:
        if model is not None:
            raise ReproError(
                "the queue executor cannot ship a live cost-model override to "
                "worker processes; name the model in the specs' cost_model field"
            )
        if trace:
            raise ReproError(
                "the queue executor cannot trace cells: tracing is a per-process "
                "concern and worker processes run their own telemetry; use the "
                "serial or pool executor for traced sweeps"
            )
        total = len(specs)
        if total == 0:
            return []
        queue_root = self.queue_dir
        ephemeral = queue_root is None
        if ephemeral:
            queue_root = Path(tempfile.mkdtemp(prefix="repro-queue-"))
        queue = WorkQueue(queue_root, create=True)
        report = Dispatcher(queue, unit_size=self.unit_size).dispatch(specs)
        # Watch exactly this sweep's units: a reused queue directory may hold
        # other sweeps' units (finished or not), which are none of our business.
        unit_ids = report["unit_ids"]

        procs = self._spawn_workers(queue)
        done_seen: set = set()
        found: Dict[str, RunRecord] = {}
        deadline: Optional[float] = None
        try:
            while True:
                for uid in unit_ids:
                    if uid in done_seen or not queue.is_done(uid):
                        continue
                    done_seen.add(uid)
                    marker = queue.read_done(uid) or {}
                    for key, record in self._collect(
                        queue, list(marker.get("keys", ()))
                    ).items():
                        found[key] = record
                        if progress is not None:
                            progress(len(found), total, record)
                if len(done_seen) == len(unit_ids):
                    break
                if all(proc.poll() is not None for proc in procs):
                    # No local worker left; give stragglers' done markers (or
                    # external workers) a bounded grace period.
                    if any(proc.returncode not in (0, None) for proc in procs):
                        raise QueueError(
                            "worker process(es) failed before the queue drained:\n"
                            + self._log_tails(queue)
                        )
                    now = time.time()
                    if deadline is None:
                        deadline = (
                            None if self.spawn_timeout is None else now + self.spawn_timeout
                        )
                    if deadline is not None and now > deadline:
                        raise QueueError(
                            "queue not drained and no worker is running:\n"
                            + self._log_tails(queue)
                        )
                time.sleep(self.poll)
            for proc in procs:
                proc.wait()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                if proc.poll() is None:  # pragma: no cover - defensive
                    try:
                        proc.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        proc.kill()

        # The polling loop already collected (almost) everything; only probe
        # the shards again for keys it has not seen.
        still_wanted = [spec.key() for spec in specs if spec.key() not in found]
        if still_wanted:
            found.update(self._collect(queue, still_wanted))
        missing = [spec.key() for spec in specs if spec.key() not in found]
        if missing:
            raise QueueError(
                f"{len(missing)} cell(s) missing from the worker shards after "
                f"the drain (first: {missing[0][:12]}…):\n" + self._log_tails(queue)
            )
        records = [found[spec.key()] for spec in specs]
        if ephemeral:
            shutil.rmtree(queue_root, ignore_errors=True)
        return records
