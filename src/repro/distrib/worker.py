"""The worker loop: lease a unit, execute it, persist into an own shard.

A worker is identified by a ``worker_id`` naming at most one live process.
Its result store — "its shard" — lives at ``<queue>/results/<worker_id>/``
(or under an explicit ``--store`` root), so concurrent workers never share
an append target and a whole worker directory can be shipped as one unit of
exchange.

Crash safety: records are persisted per cell (``run_sweep`` with a store),
the done marker is written atomically *before* the lease is released, and a
claimant of an expired lease first **salvages** — it looks every cell key of
the unit up in all sibling shards (including a dead worker's partial one)
and only executes the cells nobody persisted.  A restarted fleet therefore
converges to exactly the serial record set with every cell executed once.
"""

from __future__ import annotations

import contextlib
import os
import re
import socket
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..obs.events import EventJournal, check_writer_name
from ..obs.metrics import get_registry
from ..runtime.executors import SerialExecutor, run_sweep
from ..runtime.records import RunRecord
from ..store.filestore import FileStore
from .queue import WorkQueue, WorkUnit

__all__ = ["Worker", "DEFAULT_LEASE_TTL", "DEFAULT_HEARTBEAT_CAP"]

#: Default lease duration.  Historically a unit longer than this was simply
#: stolen; with heartbeat-driven renewal (see :meth:`Worker._heartbeat`) the
#: TTL now only bounds how long a *dead* worker's lease lingers.
DEFAULT_LEASE_TTL = 300.0

#: Upper bound on the derived heartbeat interval: a worker beats at least
#: this often even under huge lease TTLs, so fleet views stay fresh.
DEFAULT_HEARTBEAT_CAP = 15.0


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per live process, stable within it.

    Hostname characters a worker id may not hold become ``-`` (runs of
    them one ``-``), so the default is always a valid id.
    """
    host = socket.gethostname().split(".", 1)[0]
    host = re.sub(r"-{2,}", "-", re.sub(r"[^A-Za-z0-9_-]", "-", host)).strip("-_")
    return f"{host or 'worker'}-{os.getpid()}"


class Worker:
    """Drains a :class:`WorkQueue` until every unit has a done marker.

    Parameters
    ----------
    queue:
        The queue directory (or an open :class:`WorkQueue`).
    worker_id:
        This worker's identity; defaults to ``<host>-<pid>``.  Re-using an
        id across *sequential* lives is encouraged (a restart reclaims its
        own leases immediately); sharing one between live processes is not.
        It names the worker's shard directory and journal shard, so it
        follows the journal writer rule (``[A-Za-z0-9][A-Za-z0-9._-]*``, no
        ``--``); anything else raises :class:`ReproError`.
    results_root:
        Where worker shards live.  Defaults to ``<queue>/results``; the
        worker's own store is ``<results_root>/<worker_id>/``.
    lease_ttl, poll:
        Lease duration, and the sleep between scans while other workers
        hold the remaining units.
    max_units:
        Stop after processing this many units (``None`` = drain fully).
    progress:
        Optional ``progress(unit_id, counts)`` callback per finished unit.
    heartbeat_interval:
        Seconds between heartbeats (journal event + latest-heartbeat file +
        **lease renewal** of the unit in flight).  Defaults to a third of
        the lease TTL, capped at :data:`DEFAULT_HEARTBEAT_CAP` — three
        missed beats before the lease becomes stealable.

    Every worker journals its fleet events into ``<queue>/journal``.
    """

    def __init__(
        self,
        queue: Union[WorkQueue, str, Path],
        *,
        worker_id: Optional[str] = None,
        results_root: Optional[Union[str, Path]] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll: float = 0.5,
        max_units: Optional[int] = None,
        progress: Optional[Callable[[str, Dict[str, int]], None]] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        self.worker_id = check_writer_name(
            worker_id if worker_id is not None else default_worker_id(), "worker id"
        )
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
        self.results_root = (
            Path(results_root) if results_root is not None else self.queue.results_root
        )
        self.lease_ttl = lease_ttl
        self.poll = poll
        self.max_units = max_units
        self.progress = progress
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else min(DEFAULT_HEARTBEAT_CAP, lease_ttl / 3.0)
        )
        self._journal: Optional[EventJournal] = None
        self._last_beat = 0.0
        self._current: Dict[str, Any] = {}

    @property
    def store_dir(self) -> Path:
        """This worker's own shard directory."""
        return self.results_root / self.worker_id

    # ------------------------------------------------------------------
    # journal + heartbeats
    # ------------------------------------------------------------------
    def _emit(self, type: str, **fields: Any) -> None:
        if self._journal is None:
            return
        with contextlib.suppress(OSError):
            self._journal.append(type, **fields)

    def _heartbeat(self, *, force: bool = False, phase: str = "unit") -> None:
        """Periodic liveness: renew the in-flight lease, record a heartbeat.

        Renewal is the load-bearing half — a unit that takes longer than
        the lease TTL keeps its lease as long as its worker is alive and
        beating, so long units are no longer stolen mid-execution (ROADMAP
        item 4).  The journal half makes the same cadence observable.
        """
        now = time.time()
        if not force and now - self._last_beat < self.heartbeat_interval:
            return
        self._last_beat = now
        uid = self._current.get("unit")
        if uid is not None:
            self.queue.renew_claim(uid, self.worker_id, self.lease_ttl, now=now)
        if self._journal is None:
            return
        beat: Dict[str, Any] = {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "host": socket.gethostname().split(".", 1)[0],
            "unit": uid,
            "cells_done": self._current.get("cells_done"),
            "unit_total": self._current.get("unit_total"),
            "phase": phase,
            "ts": now,
        }
        snapshot = get_registry().snapshot()
        if snapshot:
            beat["metrics"] = snapshot
        with contextlib.suppress(OSError):
            self._journal.heartbeat(**beat)

    # ------------------------------------------------------------------
    # salvage
    # ------------------------------------------------------------------
    def _salvage(self, unit: WorkUnit, own: FileStore) -> Dict[str, RunRecord]:
        """Records for the unit's cells found in *sibling* worker shards
        (see :meth:`WorkQueue.find_records` for how damaged ones are read)."""
        wanted = [key for key in unit.keys if own.get(key) is None]
        return self.queue.find_records(
            wanted, skip=self.store_dir, root=self.results_root
        )

    # ------------------------------------------------------------------
    # unit execution
    # ------------------------------------------------------------------
    def process_unit(self, unit: WorkUnit, own: FileStore) -> Dict[str, int]:
        """Execute one leased unit; returns its done-marker counters.

        Cells already in the worker's own store (its previous life) count as
        ``cached``; cells found in sibling shards (a dead worker's partial
        progress) count as ``salvaged``; only the remainder is ``executed``
        — through the ordinary :func:`run_sweep` path, so records are
        persisted cell by cell and byte-identical to a serial run's.
        """
        started = time.perf_counter()
        cached_keys = [key for key in unit.keys if own.get(key) is not None]
        salvaged = self._salvage(unit, own)
        to_run = [
            spec
            for spec, key in zip(unit.specs, unit.keys)
            if key not in salvaged and own.get(key) is None
        ]
        uid = unit.unit
        self._current = {
            "unit": uid,
            "cells_done": len(cached_keys) + len(salvaged),
            "unit_total": len(unit),
        }
        self._emit(
            "unit.start",
            unit=uid,
            worker=self.worker_id,
            cells=len(unit),
            cached=len(cached_keys),
            salvaged=len(salvaged),
            to_run=len(to_run),
        )
        # Per-key events for the cells satisfied without execution, so the
        # journal accounts for every key of the unit, not just fresh work.
        for key in cached_keys:
            self._emit("cell.done", unit=uid, key=key, status="cached")
        for key in salvaged:
            self._emit("cell.done", unit=uid, key=key, status="salvaged")
        self._heartbeat(force=True)  # renew at unit start: the clock is full

        cell_clock = {"last": time.perf_counter()}

        def on_cell(done: int, total: int, record: RunRecord, cached: bool) -> None:
            now = time.perf_counter()
            seconds = now - cell_clock["last"]
            cell_clock["last"] = now
            self._current["cells_done"] = self._current.get("cells_done", 0) + 1
            # run_sweep persists the record *before* this callback, so a
            # cell.done event always implies a durable store line.
            self._emit(
                "cell.done",
                unit=uid,
                key=record.spec.key(),
                status="executed",
                seconds=round(seconds, 6),
            )
            self._heartbeat()

        result = run_sweep(
            to_run, executor=SerialExecutor(), store=own, progress=on_cell
        )
        counts = {
            "total": len(unit),
            "cached": len(cached_keys),
            "salvaged": len(salvaged),
            "executed": result.executed,
        }
        registry = get_registry()
        registry.histogram(
            "repro_queue_unit_seconds", "Wall time per processed work unit"
        ).observe(time.perf_counter() - started)
        cells = registry.counter(
            "repro_queue_unit_cells_total", "Unit cells by how they were satisfied"
        )
        for status in ("cached", "salvaged", "executed"):
            if counts[status]:
                cells.inc(counts[status], status=status)
        return counts

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, int]:
        """Process units until the queue is drained (or ``max_units`` hit).

        Returns this worker's totals::

            {"units": ..., "total": ..., "cached": ..., "salvaged": ...,
             "executed": ...}
        """
        totals = {"units": 0, "total": 0, "cached": 0, "salvaged": 0, "executed": 0}
        self._journal = self.queue.attach_journal(self.worker_id)
        self._emit(
            "worker.start",
            worker=self.worker_id,
            pid=os.getpid(),
            host=socket.gethostname().split(".", 1)[0],
        )
        with FileStore(self.store_dir, create=True) as own:
            while True:
                pending = [uid for uid in self.queue.units() if not self.queue.is_done(uid)]
                if not pending:
                    break
                progressed = False
                for uid in pending:
                    if self.max_units is not None and totals["units"] >= self.max_units:
                        self._emit("worker.exit", worker=self.worker_id, **totals)
                        return totals
                    if not self.queue.try_claim(uid, self.worker_id, self.lease_ttl):
                        continue
                    try:
                        if self.queue.is_done(uid):  # finished while we claimed
                            continue
                        unit = self.queue.load_unit(uid)
                        counts = self.process_unit(unit, own)
                        own.flush()
                        self.queue.write_done(
                            uid,
                            {
                                "unit": uid,
                                "worker": self.worker_id,
                                "keys": list(unit.keys),
                                **counts,
                            },
                        )
                    finally:
                        self._current = {}
                        self.queue.release_claim(uid, self.worker_id)
                    totals["units"] += 1
                    for name in ("total", "cached", "salvaged", "executed"):
                        totals[name] += counts[name]
                    progressed = True
                    if self.progress is not None:
                        self.progress(uid, counts)
                if not progressed:
                    # Everything left is validly leased elsewhere: wait for
                    # done markers to appear or leases to expire.
                    self._heartbeat(phase="idle")
                    time.sleep(self.poll)
        self._current = {}
        self._heartbeat(force=True, phase="exit")
        self._emit("worker.exit", worker=self.worker_id, **totals)
        return totals
