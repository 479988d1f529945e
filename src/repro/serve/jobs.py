"""Sweep jobs: the write path of the result service over the queue fabric.

A *job* is one ``POST /sweeps`` — a :class:`~repro.runtime.spec.SweepSpec`
dispatched onto a :class:`~repro.distrib.queue.WorkQueue` — remembered as a
small JSON file under ``<queue>/jobs/<job_id>.json`` so status and progress
survive a service restart.  Job ids are **content keys** (a hash of the
dispatched unit-id list), which makes submission idempotent exactly like
dispatch itself: re-POSTing the same sweep returns the same job instead of
queuing duplicate work.

The service never executes sweep cells itself — workers (``repro worker
--queue DIR``) drain the units into their own shards, and a ``repro store
merge`` (or shard shipping) folds the records into the serving store.  The
job layer only *observes*: status and progress are pure reads of the
queue's unit / claim / done files, and cancel tombstones unclaimed units
through :meth:`~repro.distrib.queue.WorkQueue.cancel_unit`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..distrib.dispatcher import DEFAULT_UNIT_SIZE, Dispatcher
from ..distrib.queue import WorkQueue
from ..exceptions import QueueError
from ..runtime.spec import SweepSpec, canonical_json
from ..store.base import ResultStore

__all__ = ["SweepJobs", "job_id"]

_JOBS_DIR = "jobs"


def job_id(unit_ids: List[str]) -> str:
    """Content key of a job: sha256 over its ordered dispatched unit ids."""
    payload = f"repro.SweepJob.v1:{canonical_json(list(unit_ids))}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class SweepJobs:
    """Dispatch, observe and cancel sweep jobs on one work queue."""

    def __init__(
        self,
        queue: Union[WorkQueue, str, Path],
        *,
        store: Optional[ResultStore] = None,
        unit_size: int = DEFAULT_UNIT_SIZE,
    ) -> None:
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue, create=True)
        self.store = store
        self.unit_size = unit_size
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        # The serve tier journals under its own writer, so job submissions
        # and cancellations interleave (file-wise) with nobody.
        self._journal = self.queue.attach_journal(f"serve-{os.getpid()}")

    def _emit(self, type: str, **fields: Any) -> None:
        with contextlib.suppress(OSError):
            self._journal.append(type, **fields)

    @property
    def jobs_root(self) -> Path:
        return self.queue.root / _JOBS_DIR

    def job_path(self, jid: str) -> Path:
        return self.jobs_root / f"{jid}.json"

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, sweep: SweepSpec, *, unit_size: Optional[int] = None) -> Dict[str, Any]:
        """Dispatch ``sweep`` onto the queue; return the (persisted) job doc.

        Cells the serving store already holds are skipped (they need no
        computation to be servable), so a job over fully cached data has no
        units and is born ``done``.  Idempotent: the same sweep maps to the
        same unit set, hence the same job id and file.
        """
        report = Dispatcher(
            self.queue, unit_size=unit_size or self.unit_size
        ).dispatch(sweep, store=self.store)
        jid = job_id(report["unit_ids"])
        job = {
            "job": jid,
            "sweep_name": sweep.name,
            "created": time.time(),
            "cells": report["cells"],
            "skipped_cached": report["skipped_cached"],
            "unit_ids": report["unit_ids"],
        }
        path = self.job_path(jid)
        if not path.exists():
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(job, sort_keys=True, separators=(",", ":")) + "\n",
                encoding="utf-8",
            )
            tmp.replace(path)
            self._emit(
                "job.submit",
                job=jid,
                sweep_name=sweep.name,
                cells=report["cells"],
                skipped_cached=report["skipped_cached"],
                units=len(report["unit_ids"]),
            )
        return job

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def load(self, jid: str) -> Dict[str, Any]:
        try:
            data = json.loads(self.job_path(jid).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            raise QueueError(f"no sweep job {jid!r} on queue {self.queue.root}")
        if not isinstance(data, dict) or "unit_ids" not in data:
            raise QueueError(f"unreadable sweep job {jid!r} on queue {self.queue.root}")
        return data

    def jobs(self) -> List[str]:
        """All known job ids, sorted."""
        return sorted(path.stem for path in self.jobs_root.glob("*.json"))

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @staticmethod
    def _state_of(counts: Dict[str, int]) -> str:
        if counts["units"] == counts["done"]:
            return "done"
        if counts["cancelled"] and not (counts["pending"] or counts["claimed"]):
            return "cancelled"
        if counts["claimed"]:
            return "running"
        return "pending"

    def status(self, jid: str, now: Optional[float] = None) -> Dict[str, Any]:
        """The job's aggregate lifecycle state (``GET /sweeps/<id>/status``).

        ``state`` is ``pending`` (nothing leased yet), ``running`` (at least
        one active lease), ``done`` (every unit has a genuine done marker) or
        ``cancelled`` (no work left, but some units were tombstoned).
        """
        job = self.load(jid)
        states = self.queue.unit_states(job["unit_ids"], now=now)
        counts = {
            "units": len(states),
            "done": sum(1 for s in states if s["state"] == "done"),
            "cancelled": sum(1 for s in states if s["state"] == "cancelled"),
            "claimed": sum(1 for s in states if s["state"] == "claimed"),
            "pending": sum(1 for s in states if s["state"] == "pending"),
        }
        finished = [s for s in states if s["state"] == "done"]
        return {
            "job": jid,
            "state": self._state_of(counts),
            "units": counts,
            "cells": {
                "total": job["cells"],
                "skipped_cached": job["skipped_cached"],
                "executed": sum(s["executed"] for s in finished),
                "salvaged": sum(s["salvaged"] for s in finished),
                "cached": sum(s["cached"] for s in finished),
            },
        }

    def progress(self, jid: str, now: Optional[float] = None) -> Dict[str, Any]:
        """Per-unit live progress (``GET /sweeps/<id>/progress``)."""
        job = self.load(jid)
        states = self.queue.unit_states(job["unit_ids"], now=now)
        cells_total = sum(s["cells"] for s in states)
        cells_done = sum(
            s["cells"] for s in states if s["state"] in ("done", "cancelled")
        )
        return {
            "job": jid,
            "units": states,
            "cells_done": cells_done,
            "cells_total": cells_total,
            "fraction": (cells_done / cells_total) if cells_total else 1.0,
        }

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, jid: str) -> Dict[str, Any]:
        """Tombstone the job's unclaimed units (``POST /sweeps/<id>/cancel``).

        Actively leased units are left to their workers — cancellation stops
        *future* work, it does not abort in-flight computation.
        """
        job = self.load(jid)
        outcomes: Dict[str, int] = {
            "cancelled": 0,
            "already_done": 0,
            "already_cancelled": 0,
            "claimed": 0,
        }
        for uid in job["unit_ids"]:
            outcomes[self.queue.cancel_unit(uid)] += 1
        self._emit("job.cancel", job=jid, **outcomes)
        return {"job": jid, **outcomes}

    def in_flight(self) -> int:
        """Jobs whose units are not all finished (a /metrics gauge)."""
        running = 0
        for jid in self.jobs():
            try:
                if self.status(jid)["state"] in ("pending", "running"):
                    running += 1
            except QueueError:  # pragma: no cover - racing a concurrent delete
                continue
        return running
