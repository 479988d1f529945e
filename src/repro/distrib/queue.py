"""The work-queue directory: units, claims, done markers, worker shards.

Layout of a queue directory::

    queue/
    ├── queue.meta.json        # format + spec-key versions
    ├── units/<id>.json        # one work unit: its cells and their keys
    ├── claims/<id>.json       # live lease: {"worker", "created", "expires"}
    ├── done/<id>.json         # completion: keys, worker, executed/salvaged/
    │                          #   cached counts (or a "cancelled" tombstone)
    ├── results/<worker>/      # one FileStore per worker (its "shard")
    ├── logs/<worker>.log      # stdout/stderr of executor-spawned workers
    ├── journal/               # event journal: the only record of history
    ├── jobs/<job>.json        # sweep jobs of the serve tier (repro.serve.jobs)
    └── .steal.lock            # advisory flock serialising lease steals

Unit ids are **content keys**: the sha256 of the ordered cell-key list.  Two
dispatches of the same sweep therefore produce the same unit files, making
dispatch idempotent, and a unit id names *what is to be computed* rather
than when or by whom.

The claim protocol needs nothing beyond POSIX file semantics:

* a **fresh claim** is a hard link of a fully written, claimant-private
  temp file onto the claim path — atomic, exactly one winner (``link``
  fails on an existing path just as an ``O_EXCL`` create does), and a
  claimant killed mid-write leaves only its temp file, never an empty
  claim that no one could parse or steal;
* an **expired claim** (the lease of a killed worker) is *stolen* by
  unlinking it under the advisory steal lock and then racing the ordinary
  fresh claim; the lock makes expiry-check-and-unlink atomic against
  other stealers, while a concurrent fresh claimant can still slip in —
  either way exactly one process ends up owning the new claim file;
* a **done marker** is written via temp-file + ``os.replace`` before the
  claim is released, so "done" is never observed half-written and a unit
  whose worker died after finishing is salvaged, not re-run.

Claim and done files hold only live state.  History — who claimed a unit,
which leases expired and were stolen from whom — lives in the event journal
alone, and the steal counts are read from there.

Each fact of the read side has one reader.  :meth:`WorkQueue.unit_states`
classifies units (pending / claimed / done / cancelled); :meth:`~WorkQueue.status`
is a fold over it, for the whole queue or one job's units.
:meth:`~WorkQueue.fleet` is the per-worker view of every fleet display, and
:meth:`~WorkQueue.find_records` the one lookup of records in worker shards
(salvage and collection alike).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

try:  # pragma: no cover - fcntl is present on every POSIX platform we run on
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..exceptions import QueueError, ReproError
from ..obs.events import (
    JOURNAL_DIR_NAME,
    EventJournal,
    atomic_write_json,
    fleet_summary,
    sweep_timeline,
)
from ..obs.metrics import get_registry
from ..runtime.records import RunRecord
from ..runtime.spec import SPEC_KEY_VERSION, ScenarioSpec, canonical_json
from ..store.filestore import FileStore

__all__ = ["WorkQueue", "WorkUnit", "unit_id", "QUEUE_FORMAT_VERSION"]

#: On-disk queue layout version.
QUEUE_FORMAT_VERSION = 1

_META_NAME = "queue.meta.json"
_UNITS_DIR = "units"
_CLAIMS_DIR = "claims"
_DONE_DIR = "done"
_RESULTS_DIR = "results"
_LOGS_DIR = "logs"
_STEAL_LOCK = ".steal.lock"


def unit_id(keys: Sequence[str]) -> str:
    """Content key of a work unit: sha256 over its ordered cell keys."""
    payload = f"repro.WorkUnit.v{QUEUE_FORMAT_VERSION}:{canonical_json(list(keys))}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Read a small JSON file; ``None`` when missing or (transiently) invalid."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def _subdirs(root: Path) -> List[Path]:
    return sorted(path for path in root.glob("*") if path.is_dir())


@dataclass(frozen=True)
class WorkUnit:
    """One leaseable batch of sweep cells."""

    unit: str
    specs: Tuple[ScenarioSpec, ...]
    keys: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.specs)


class WorkQueue:
    """Handle on a queue directory (see the module docstring for layout)."""

    def __init__(self, root, *, create: bool = False) -> None:
        self.root = Path(root)
        self._journal: Optional[EventJournal] = None
        self._reader = EventJournal(self.journal_root)
        self._steals: Optional[Tuple[str, Dict[str, int]]] = None
        meta = _read_json(self._meta_path)
        if meta is not None:
            if meta.get("format_version") != QUEUE_FORMAT_VERSION:
                raise QueueError(
                    f"queue {self.root} uses layout version "
                    f"{meta.get('format_version')}, this code reads "
                    f"version {QUEUE_FORMAT_VERSION}"
                )
            if meta.get("spec_key_version") != SPEC_KEY_VERSION:
                raise QueueError(
                    f"queue {self.root} was dispatched with spec-key version "
                    f"{meta.get('spec_key_version')} (current: {SPEC_KEY_VERSION}); "
                    "re-dispatch the sweep into a fresh queue"
                )
        elif create:
            for sub in (_UNITS_DIR, _CLAIMS_DIR, _DONE_DIR, _RESULTS_DIR, _LOGS_DIR):
                (self.root / sub).mkdir(parents=True, exist_ok=True)
            atomic_write_json(
                self._meta_path,
                {
                    "format_version": QUEUE_FORMAT_VERSION,
                    "spec_key_version": SPEC_KEY_VERSION,
                },
            )
        elif self.root.exists():
            raise QueueError(
                f"{self.root} holds no queue metadata — not a work queue "
                "(dispatch into it first)"
            )
        else:
            raise QueueError(f"no work queue at {self.root}")
        for sub in (_UNITS_DIR, _CLAIMS_DIR, _DONE_DIR, _RESULTS_DIR, _LOGS_DIR):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def _meta_path(self) -> Path:
        return self.root / _META_NAME

    def unit_path(self, uid: str) -> Path:
        return self.root / _UNITS_DIR / f"{uid}.json"

    def claim_path(self, uid: str) -> Path:
        return self.root / _CLAIMS_DIR / f"{uid}.json"

    def done_path(self, uid: str) -> Path:
        return self.root / _DONE_DIR / f"{uid}.json"

    @property
    def results_root(self) -> Path:
        return self.root / _RESULTS_DIR

    @property
    def logs_root(self) -> Path:
        return self.root / _LOGS_DIR

    def result_store_dirs(self) -> List[Path]:
        """Every worker shard directory currently present, sorted by name."""
        return _subdirs(self.results_root)

    def find_records(
        self,
        keys: Sequence[str],
        skip: Optional[Path] = None,
        *,
        root: Optional[Path] = None,
    ) -> Dict[str, RunRecord]:
        """``{key: record}`` for every key of ``keys`` a worker shard holds.

        Visits :meth:`result_store_dirs` (or the shard directories under
        ``root``, a worker's own ``--store`` root) in name order, leaves out
        the shard ``skip``, and stops as soon as every key is found.  Shards
        open tolerantly: a killed worker's shard may end in a truncated line
        (always dropped) or, after genuine disk trouble, hold corrupt lines,
        which salvage mode skips; a directory that is not (yet) a store is
        skipped whole.  One damaged shard never wedges the fleet.
        """
        found: Dict[str, RunRecord] = {}
        for shard in _subdirs(self.results_root if root is None else Path(root)):
            missing = [key for key in keys if key not in found]
            if not missing:
                break
            if shard == skip:
                continue
            try:
                with FileStore(shard, create=False, salvage=True) as store:
                    for key in missing:
                        record = store.get(key)
                        if record is not None:
                            found[key] = record
            except ReproError:
                continue
        return found

    # ------------------------------------------------------------------
    # event journal
    # ------------------------------------------------------------------
    @property
    def journal_root(self) -> Path:
        return self.root / JOURNAL_DIR_NAME

    def journal(self) -> EventJournal:
        """A read-only view of this queue's event journal, one per handle so
        its read memo serves every reader (``status()``, then a fleet view)."""
        return self._reader

    @property
    def attached_journal(self) -> Optional[EventJournal]:
        """The writing journal attached to this handle, if any."""
        return self._journal

    def attach_journal(self, writer: str) -> EventJournal:
        """Attach a writing journal: queue operations now emit fleet events.

        Each process attaches under its own ``writer`` name (worker id,
        ``dispatch-<pid>``, ``serve-<pid>``) so concurrent emitters never
        share a shard.  A handle that emits before any writer was attached
        attaches as ``queue-<pid>``: every queue operation is journalled.
        """
        if self._journal is None or self._journal.writer != writer:
            if self._journal is not None:
                self._journal.close()
            self._journal = EventJournal(self.journal_root, writer=writer, create=True)
        return self._journal

    def _emit(self, type: str, **fields: Any) -> None:
        """Best-effort event append: the journal never wedges the fleet."""
        with contextlib.suppress(OSError):
            journal = self._journal or self.attach_journal(f"queue-{os.getpid()}")
            journal.append(type, **fields)

    def _steal_counts(self) -> Dict[str, int]:
        """Lease steals per unit, from the journal's claim events; memoised
        on its generation, so a scrape of many jobs counts them once."""
        journal = self.journal()
        generation = journal.generation()
        if self._steals is None or self._steals[0] != generation:
            timeline = sweep_timeline(journal.events(type="unit.claim"))
            counts = {
                uid: sum(1 for claim in entry["claims"] if claim.get("kind") == "steal")
                for uid, entry in timeline.items()
            }
            self._steals = (generation, counts)
        return self._steals[1]

    # ------------------------------------------------------------------
    # units
    # ------------------------------------------------------------------
    def add_unit(self, specs: Sequence[ScenarioSpec]) -> Tuple[str, bool]:
        """Write the unit file for ``specs``; returns ``(unit_id, created)``.

        Content-keyed ids make this idempotent: re-dispatching an already
        queued unit is a no-op (``created=False``), even mid-execution.
        """
        keys = [spec.key() for spec in specs]
        uid = unit_id(keys)
        path = self.unit_path(uid)
        if path.exists():
            return uid, False
        atomic_write_json(
            path,
            {
                "unit": uid,
                "keys": keys,
                "cells": [spec.to_dict() for spec in specs],
            },
        )
        return uid, True

    def units(self) -> List[str]:
        """All queued unit ids, sorted (the shared iteration order)."""
        return sorted(path.stem for path in (self.root / _UNITS_DIR).glob("*.json"))

    def load_unit(self, uid: str) -> WorkUnit:
        data = _read_json(self.unit_path(uid))
        if data is None or "cells" not in data or "keys" not in data:
            raise QueueError(f"unreadable work unit {uid} in {self.root}")
        specs = tuple(ScenarioSpec.from_dict(cell) for cell in data["cells"])
        keys = tuple(data["keys"])
        if tuple(spec.key() for spec in specs) != keys:
            raise QueueError(
                f"work unit {uid} cells do not hash to their recorded keys "
                "(content-key mismatch)"
            )
        if unit_id(keys) != uid:
            raise QueueError(f"work unit file {uid} does not hash to its id")
        return WorkUnit(unit=uid, specs=specs, keys=keys)

    # ------------------------------------------------------------------
    # done markers
    # ------------------------------------------------------------------
    def is_done(self, uid: str) -> bool:
        return self.done_path(uid).exists()

    def read_done(self, uid: str) -> Optional[Dict[str, Any]]:
        return _read_json(self.done_path(uid))

    def write_done(self, uid: str, payload: Dict[str, Any]) -> None:
        """Journal the unit's terminal event, then land its done marker.

        In this order a kill between the two leaves the unit claimed, not
        done-but-unjournalled: the next claimant steals it, salvages the
        cells and journals a second, final terminal event.
        """
        self._emit(
            "unit.cancelled" if payload.get("cancelled") else "unit.done",
            unit=uid,
            worker=payload.get("worker"),
            **{
                counter: int(payload.get(counter, 0))
                for counter in ("total", "executed", "salvaged", "cached")
            },
        )
        atomic_write_json(self.done_path(uid), payload)

    # ------------------------------------------------------------------
    # claims / leases
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _steal_lock(self) -> Iterator[None]:
        if fcntl is None:  # pragma: no cover
            yield
            return
        with (self.root / _STEAL_LOCK).open("a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def read_claim(self, uid: str) -> Optional[Dict[str, Any]]:
        return _read_json(self.claim_path(uid))

    def _create_claim(self, uid: str, worker: str, ttl: float, now: float) -> bool:
        claim = {"unit": uid, "worker": worker, "created": now, "expires": now + ttl}
        payload = json.dumps(claim, sort_keys=True, separators=(",", ":"))
        path = self.claim_path(uid)
        tmp = path.with_name(f"{path.name}.{worker}.{os.getpid()}.tmp")
        descriptor = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        return True

    def try_claim(
        self, uid: str, worker: str, ttl: float, now: Optional[float] = None
    ) -> bool:
        """Attempt to lease unit ``uid`` for ``worker``; non-blocking.

        Succeeds when the unit is unclaimed, when the existing lease has
        expired (a killed worker — the claim is stolen), or when the lease
        already belongs to ``worker`` (a restarted worker reclaims its own
        units without waiting out its previous life's lease; worker ids must
        therefore name at most one live process).

        Every successful claim is journalled as ``unit.claim`` with its
        ``kind`` (fresh / reclaim / steal); a steal also names its victim
        (``stolen_from``, plus a ``lease.expire`` event).  That journal is
        the only record of steal history.
        """
        now = time.time() if now is None else now
        claims_total = get_registry().counter(
            "repro_queue_claims_total", "Unit leases taken, by kind"
        )
        if self._create_claim(uid, worker, ttl, now):
            claims_total.inc(kind="fresh")
            self._emit("unit.claim", unit=uid, worker=worker, kind="fresh", ts=now)
            return True
        claim = self.read_claim(uid)
        if claim is None:
            # Mid-steal by someone else, or vanished: race the fresh create.
            if self._create_claim(uid, worker, ttl, now):
                claims_total.inc(kind="fresh")
                self._emit("unit.claim", unit=uid, worker=worker, kind="fresh", ts=now)
                return True
            return False
        if claim.get("worker") == worker:
            atomic_write_json(
                self.claim_path(uid),
                {"unit": uid, "worker": worker, "created": now, "expires": now + ttl},
            )
            claims_total.inc(kind="reclaim")
            self._emit("unit.claim", unit=uid, worker=worker, kind="reclaim", ts=now)
            return True
        if float(claim.get("expires", 0.0)) > now:
            return False
        victim: Optional[str] = None
        with self._steal_lock():
            claim = self.read_claim(uid)
            if claim is not None:
                if (
                    claim.get("worker") != worker
                    and float(claim.get("expires", 0.0)) > now
                ):
                    return False  # renewed while we waited for the lock
                victim = claim.get("worker")
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self.claim_path(uid))
        if self._create_claim(uid, worker, ttl, now):
            registry = get_registry()
            claims_total.inc(kind="steal")
            registry.counter(
                "repro_queue_lease_expiries_total",
                "Expired leases observed (and stolen) at claim time",
            ).inc()
            self._emit("lease.expire", unit=uid, worker=victim, ts=now)
            self._emit(
                "unit.claim",
                unit=uid,
                worker=worker,
                kind="steal",
                stolen_from=victim,
                ts=now,
            )
            return True
        return False

    def renew_claim(
        self, uid: str, worker: str, ttl: float, now: Optional[float] = None
    ) -> bool:
        """Extend ``worker``'s live lease on ``uid``; the heartbeat's twin.

        Only the current holder renews — anyone else (including the holder
        after its lease was stolen) gets ``False`` and must re-claim.  This
        is what lets a unit longer than the lease TTL finish instead of
        being stolen while alive (ROADMAP item 4's long-unit half): the
        worker renews on every heartbeat.
        """
        now = time.time() if now is None else now
        claim = self.read_claim(uid)
        if claim is None or claim.get("worker") != worker:
            return False
        atomic_write_json(
            self.claim_path(uid),
            {
                "unit": uid,
                "worker": worker,
                "created": float(claim.get("created", now)),
                "expires": now + ttl,
            },
        )
        get_registry().counter(
            "repro_queue_lease_renewals_total", "Live leases extended mid-unit"
        ).inc()
        self._emit("lease.renew", unit=uid, worker=worker, expires=now + ttl, ts=now)
        return True

    def release_claim(self, uid: str, worker: str) -> None:
        """Drop ``worker``'s lease on ``uid`` (no-op when not the holder)."""
        claim = self.read_claim(uid)
        if claim is not None and claim.get("worker") == worker:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.claim_path(uid))

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel_unit(self, uid: str, now: Optional[float] = None) -> str:
        """Tombstone unit ``uid`` so no worker will ever execute it.

        Cancellation goes through the ordinary claim protocol — take the
        lease, write a done marker flagged ``"cancelled"``, release — so it
        can never race a worker: whoever wins the claim decides the unit's
        fate.  An *actively leased* unit is left alone (its worker finishes
        it; killing in-flight work would waste the computation).  Returns
        what happened: ``"cancelled"``, ``"already_done"``,
        ``"already_cancelled"`` or ``"claimed"``.
        """
        now = time.time() if now is None else now
        done = self.read_done(uid)
        if done is not None:
            return "already_cancelled" if done.get("cancelled") else "already_done"
        canceller = f"cancel-{os.getpid()}"
        if not self.try_claim(uid, canceller, ttl=60.0, now=now):
            return "claimed"
        try:
            done = self.read_done(uid)
            if done is not None:  # finished while we claimed
                return "already_cancelled" if done.get("cancelled") else "already_done"
            data = _read_json(self.unit_path(uid)) or {}
            keys = list(data.get("keys", ()))
            self.write_done(
                uid,
                {
                    "unit": uid,
                    "worker": canceller,
                    "cancelled": True,
                    "keys": keys,
                    "total": len(keys),
                    "cached": 0,
                    "salvaged": 0,
                    "executed": 0,
                },
            )
            return "cancelled"
        finally:
            self.release_claim(uid, canceller)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def unit_states(
        self, uids: Optional[Sequence[str]] = None, now: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Per-unit lifecycle snapshots, in unit-id order.

        Each entry reports the unit's id, its cell count and its ``state``
        (``pending`` / ``claimed`` / ``done`` / ``cancelled``), plus the
        lease holder and remaining lease seconds while claimed and the done
        marker's execution counters once finished.  Claimed and finished
        units also report their journalled ``steals`` when there were any.
        This is the live-progress introspection behind
        ``GET /sweeps/<id>/progress``.
        """
        now = time.time() if now is None else now
        uids = self.units() if uids is None else uids
        steals = self._steal_counts()
        states: List[Dict[str, Any]] = []
        for uid in uids:
            data = _read_json(self.unit_path(uid))
            entry: Dict[str, Any] = {
                "unit": uid,
                "cells": len(data.get("keys", ())) if data else 0,
            }
            done = self.read_done(uid)
            if done is not None:
                entry["state"] = "cancelled" if done.get("cancelled") else "done"
                entry["worker"] = done.get("worker")
                for counter in ("executed", "salvaged", "cached"):
                    entry[counter] = int(done.get(counter, 0))
                if steals.get(uid):
                    entry["steals"] = steals[uid]
            else:
                claim = self.read_claim(uid)
                expires = float(claim.get("expires", 0.0)) if claim else 0.0
                if claim is not None and expires > now:
                    entry["state"] = "claimed"
                    entry["worker"] = claim.get("worker")
                    entry["lease_remaining"] = round(expires - now, 3)
                    if steals.get(uid):
                        entry["steals"] = steals[uid]
                else:
                    entry["state"] = "pending"
                    if claim is not None:
                        entry["lease_expired"] = True
            states.append(entry)
        return states

    def status(
        self, uids: Optional[Sequence[str]] = None, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """Aggregate state of ``uids`` (default: every unit): a fold over
        :meth:`unit_states`, so the counts and the per-unit view never
        disagree.

        ``executed`` sums the done units' execution counts — over a full
        drain it equals the number of cells that were actually computed, so
        ``executed == cells`` certifies a duplicate-free distributed run.
        ``cancelled_cells`` counts the cells of cancelled units: cells that
        will never run.

        ``steals`` counts the journal's steal claims on ``uids`` (see
        :meth:`try_claim`), a released pending unit's too, and ``expired``
        counts units whose claim file has outlived its lease without being
        stolen yet — together the post-hoc evidence of worker deaths during
        the run.  ``workers`` counts the shard directories under
        ``results/``.
        """
        uids = self.units() if uids is None else list(uids)
        states = self.unit_states(uids, now=now)
        counts = {state: 0 for state in ("done", "cancelled", "claimed", "pending")}
        for entry in states:
            counts[entry["state"]] += 1
        finished = [entry for entry in states if entry["state"] == "done"]
        steals = self._steal_counts()
        return {
            "units": len(states),
            "cells": sum(entry["cells"] for entry in states),
            **counts,
            "cancelled_cells": sum(
                entry["cells"] for entry in states if entry["state"] == "cancelled"
            ),
            **{
                counter: sum(entry[counter] for entry in finished)
                for counter in ("executed", "salvaged", "cached")
            },
            "steals": sum(steals.get(uid, 0) for uid in uids),
            "expired": sum(1 for entry in states if entry.get("lease_expired")),
            "workers": len(self.result_store_dirs()),
        }

    def fleet(self, lease_ttl: float, now: Optional[float] = None) -> Dict[str, Any]:
        """The fleet view (:func:`~repro.obs.events.fleet_summary`) of this
        queue: :meth:`status`, the latest heartbeats and the journal's
        events.  ``repro queue status``, ``repro top`` and ``GET /fleet``
        all read it, so their per-worker rows cannot disagree."""
        journal = self.journal()
        return fleet_summary(
            self.status(now=now),
            journal.latest_heartbeats(),
            events=journal.events(),
            lease_ttl=lease_ttl,
            now=now,
        )
