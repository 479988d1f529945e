"""The durable fleet event journal: what happened, when, and by whom.

A journal is a directory of append-only JSONL shards, one per *writer*
(a dispatcher, a worker, the serve tier), plus a latest-heartbeat file per
worker for O(1) liveness reads::

    journal/
    ├── events--<writer>.jsonl     # this writer's events, appended atomically
    └── heartbeats/<worker>.json   # most recent heartbeat, atomic-replaced

The multi-writer discipline is FileStore's: every event is **one flushed
line** appended to the writer's *own* shard, so concurrent processes never
interleave bytes within a file and a single-line append is atomic for any
realistic event size.  A process killed mid-append loses at most its
in-flight line — readers drop an unterminated tail and count (rather than
choke on) malformed interior lines, because the journal is observability:
it must never wedge the fleet it observes.

Every event carries the schema version, a wall-clock timestamp, its writer
and a per-writer sequence number, so a merged read has a total order
``(ts, writer, seq)`` that is stable under re-reads and the per-writer
``seq`` exposes gaps (a lost line) rather than hiding them.

The event vocabulary (``type`` values) emitted by the fabric:

=====================  ========================================================
type                   emitted when
=====================  ========================================================
``sweep.dispatch``     a dispatcher chunked a sweep into units
``unit.claim``         a lease was taken (``kind``: fresh / reclaim / steal)
``lease.expire``       a stealer observed an expired lease (names the victim)
``lease.renew``        a live worker extended its lease mid-unit
``unit.start``         a worker began executing a claimed unit
``cell.done``          one cell satisfied (``status``: executed/cached/salvaged)
``unit.done``          a unit's done marker is about to land (the last wins)
``unit.cancelled``     a unit was tombstoned via the cancel protocol
``worker.start``       a worker process entered its drain loop
``worker.heartbeat``   periodic liveness (pid, host, unit, cells done, metrics)
``worker.exit``        a worker left its drain loop (with totals)
``job.submit``         the serve tier accepted a sweep job
``job.cancel``         the serve tier cancelled a sweep job
=====================  ========================================================
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..exceptions import ReproError

__all__ = [
    "EventJournal",
    "EVENT_SCHEMA_VERSION",
    "JOURNAL_DIR_NAME",
    "atomic_write_json",
    "check_writer_name",
    "sweep_timeline",
    "executed_cells",
    "fleet_summary",
    "format_fleet",
    "format_event",
]

#: Version stamp carried by every journal event.
EVENT_SCHEMA_VERSION = 1

#: Conventional journal directory name inside a queue directory.
JOURNAL_DIR_NAME = "journal"

_HEARTBEAT_DIR = "heartbeats"
_SHARD_PREFIX = "events--"

#: Writer names become file-name components; same shape rule as FileStore.
_WRITER_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


def check_writer_name(name: str, what: str = "journal writer name") -> str:
    """``name``, if it may name a journal shard (and so a worker)."""
    if not _WRITER_RE.match(name) or "--" in name:
        raise ReproError(
            f"invalid {what} {name!r}: use letters, digits, '.', '_' or '-' "
            "(and no '--', the namespace separator)"
        )
    return name


def atomic_write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` as one sorted, compact JSON line via a pid-suffixed
    temp file and ``os.replace``: readers never see it half-written, and
    concurrent writers never share a temp file."""
    tmp = path.with_suffix(path.suffix + f".tmp-{os.getpid()}")
    tmp.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)


def _order(event: Mapping[str, Any]) -> tuple:
    """The journal's total order: timestamp, then writer, then sequence."""
    return (event.get("ts", 0.0), event.get("writer") or "", event.get("seq", 0))


class EventJournal:
    """Handle on a journal directory; append when a ``writer`` is named.

    Parameters
    ----------
    root:
        The journal directory (conventionally ``<queue>/journal``).
    writer:
        This process's shard namespace.  ``None`` opens the journal
        read-only — :meth:`append` then raises.  Writer names follow the
        FileStore rule (``[A-Za-z0-9][A-Za-z0-9._-]*``, no ``--``) because
        they become file-name components.
    create:
        Create the directory tree when missing (readers of a queue that
        never journalled see an empty journal either way).
    fsync:
        Force every append to stable storage; off by default for the same
        reason FileStore's is — the atomic line already bounds the damage.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        writer: Optional[str] = None,
        create: bool = False,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root)
        self.writer = writer if writer is None else check_writer_name(writer)
        self.fsync = fsync
        self.dropped = 0  # malformed lines skipped by the last read
        # Read memo: (bytes parsed per shard, merged events, malformed lines).
        self._memo: tuple = ({}, [], 0)
        if create or writer is not None:
            (self.root / _HEARTBEAT_DIR).mkdir(parents=True, exist_ok=True)
        self._handle = None
        self._seq = None  # next per-writer sequence number, lazily initialised

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def heartbeat_root(self) -> Path:
        return self.root / _HEARTBEAT_DIR

    def shard_path(self, writer: str) -> Path:
        return self.root / f"{_SHARD_PREFIX}{writer}.jsonl"

    def shard_paths(self) -> List[Path]:
        """Every writer shard currently present, sorted by writer name."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob(f"{_SHARD_PREFIX}*.jsonl"))

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _ensure_open(self):
        if self.writer is None:
            raise ReproError("journal opened without a writer name is read-only")
        if self._handle is None:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.shard_path(self.writer)
            if self._seq is None:
                # A restarted writer continues its own numbering: seq picks up
                # after the last complete line of its previous life's shard.
                try:
                    self._seq = path.read_bytes().count(b"\n")
                except OSError:
                    self._seq = 0
            self._handle = path.open("a", encoding="utf-8")
        return self._handle

    def append(self, type: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the stamped event dict.

        The stamp — schema version, timestamp, writer, per-writer sequence
        number — wraps the caller's fields; a caller-supplied ``ts`` wins
        (tests inject deterministic clocks through it).
        """
        handle = self._ensure_open()
        event: Dict[str, Any] = {
            "schema": EVENT_SCHEMA_VERSION,
            "type": type,
            "ts": fields.pop("ts", None) or time.time(),
            "writer": self.writer,
            "seq": self._seq,
        }
        event.update(fields)
        line = json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        handle.write(line)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self._seq += 1
        return event

    def heartbeat(self, **fields: Any) -> Dict[str, Any]:
        """Record a ``worker.heartbeat``: journal line + latest-heartbeat file.

        The journal keeps the history; ``heartbeats/<writer>.json`` is the
        atomic-replaced *latest* snapshot, so fleet views read one small file
        per worker instead of scanning shards.
        """
        event = self.append("worker.heartbeat", **fields)
        self.heartbeat_root.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.heartbeat_root / f"{self.writer}.json", event)
        return event

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def events(
        self,
        *,
        type: Optional[str] = None,
        worker: Optional[str] = None,
        unit: Optional[str] = None,
        since: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Merged events of every shard, sorted by ``(ts, writer, seq)``.

        Filters are conjunctive; ``worker`` matches the event's ``worker``
        field when present, else its ``writer`` stamp (dispatch and serve
        events carry no worker).  Malformed interior lines are skipped and
        counted in :attr:`dropped` — the journal never raises on read.

        Shards are append-only, so a handle parses each line once: a later
        read on the same handle (a status poll, a ``/metrics`` scrape, a
        ``tail --follow``) parses only what was appended since.  Callers
        must not mutate the returned events.
        """
        merged = self._read_merged()
        if type is not None:
            merged = [e for e in merged if e.get("type") == type]
        if worker is not None:
            merged = [
                e for e in merged if (e.get("worker") or e.get("writer")) == worker
            ]
        if unit is not None:
            merged = [e for e in merged if e.get("unit") == unit]
        if since is not None:
            merged = [e for e in merged if float(e.get("ts", 0.0)) >= since]
        return list(merged)

    def _read_merged(self) -> List[Dict[str, Any]]:
        """Every shard's events, sorted by ``(ts, writer, seq)``.

        Parses only the complete lines past each shard's memoised offset and
        sorts them into the view from where the earliest of them falls.  A
        shard that shrank or vanished was replaced: the view is rebuilt.
        """
        offsets, merged, dropped = self._memo
        paths = self.shard_paths()
        if not offsets.keys() <= {path.name for path in paths}:
            offsets, merged, dropped = {}, [], 0
        offsets, fresh = dict(offsets), []
        for path in paths:
            try:
                with path.open("rb") as handle:
                    offset = offsets.get(path.name, 0)
                    if os.fstat(handle.fileno()).st_size < offset:
                        self._memo = ({}, [], 0)
                        return self._read_merged()
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            chunk = chunk[: chunk.rfind(b"\n") + 1]  # a torn tail is not data
            offsets[path.name] = offset + len(chunk)
            for line in chunk.decode("utf-8", errors="replace").split("\n"):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    event = None
                if isinstance(event, dict) and "type" in event:
                    fresh.append(event)
                else:
                    dropped += 1
        if fresh:
            fresh.sort(key=_order)
            cut = bisect.bisect_right(merged, _order(fresh[0]), key=_order)
            merged = merged[:cut] + sorted(merged[cut:] + fresh, key=_order)
        self._memo = (offsets, merged, dropped)
        self.dropped = dropped
        return merged

    def latest_heartbeats(self) -> Dict[str, Dict[str, Any]]:
        """``{worker: latest heartbeat event}`` from the heartbeat files."""
        beats: Dict[str, Dict[str, Any]] = {}
        if not self.heartbeat_root.exists():
            return beats
        for path in sorted(self.heartbeat_root.glob("*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(data, dict):
                beats[path.stem] = data
        return beats

    def generation(self) -> str:
        """Cheap change fingerprint over the shard files (ETags, parse memo).

        Hashes every shard's ``(name, size, mtime_ns)`` — two reads return
        the same generation iff no shard grew in between, without reading
        any shard body.
        """
        hasher = hashlib.sha256()
        for path in self.shard_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            hasher.update(f"{path.name}:{stat.st_size}:{stat.st_mtime_ns};".encode())
        return hasher.hexdigest()[:16]


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def _event_list(journal: Union[EventJournal, Iterable[Mapping[str, Any]]]):
    if isinstance(journal, EventJournal):
        return journal.events()
    return list(journal)


def sweep_timeline(
    journal: Union[EventJournal, Iterable[Mapping[str, Any]]],
    unit_ids: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Reconstruct per-unit lifecycles from the journal.

    Returns ``{unit_id: entry}`` where each entry holds the unit's ordered
    ``claims`` (each with ``kind`` fresh/reclaim/steal), ``renews`` count,
    ``expires`` (observed lease expiries, naming victims), per-key ``cells``
    (the last ``cell.done`` event per key), and the last terminal ``done`` /
    ``cancelled`` event when one landed.  Restricting to ``unit_ids`` scopes
    the view to one dispatch on a shared queue directory.
    """
    wanted = None if unit_ids is None else set(unit_ids)
    timeline: Dict[str, Dict[str, Any]] = {}

    def entry(uid: str) -> Dict[str, Any]:
        if uid not in timeline:
            timeline[uid] = {
                "claims": [],
                "renews": 0,
                "expires": [],
                "cells": {},
                "done": None,
                "cancelled": False,
            }
        return timeline[uid]

    for event in _event_list(journal):
        uid = event.get("unit")
        if uid is None or (wanted is not None and uid not in wanted):
            continue
        kind = event.get("type")
        if kind == "unit.claim":
            entry(uid)["claims"].append(event)
        elif kind == "lease.renew":
            entry(uid)["renews"] += 1
        elif kind == "lease.expire":
            entry(uid)["expires"].append(event)
        elif kind == "cell.done":
            key = event.get("key")
            if key is not None:
                entry(uid)["cells"][key] = event
        elif kind in ("unit.done", "unit.cancelled"):
            record = entry(uid)
            record["done"] = event
            record["cancelled"] = kind == "unit.cancelled"
    return timeline


def executed_cells(
    journal: Union[EventJournal, Iterable[Mapping[str, Any]]],
    *,
    statuses: Sequence[str] = ("executed",),
) -> Dict[str, Dict[str, Any]]:
    """``{cell key: last cell.done event}`` restricted to ``statuses``.

    With the default this is the journal's answer to *which cells did the
    fleet actually compute* — cross-checkable against done markers and the
    union of worker-shard store keys.
    """
    allowed = set(statuses)
    cells: Dict[str, Dict[str, Any]] = {}
    for event in _event_list(journal):
        if event.get("type") != "cell.done":
            continue
        key = event.get("key")
        if key is not None and event.get("status") in allowed:
            cells[key] = event
    return cells


# ----------------------------------------------------------------------
# fleet view
# ----------------------------------------------------------------------
def fleet_summary(
    status: Mapping[str, Any],
    heartbeats: Mapping[str, Mapping[str, Any]],
    *,
    events: Optional[Iterable[Mapping[str, Any]]] = None,
    lease_ttl: Optional[float] = None,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """One structured snapshot of the fleet, from plain queue data.

    Duck-typed on purpose — ``status`` is :meth:`WorkQueue.status`'s dict,
    ``heartbeats`` is :meth:`EventJournal.latest_heartbeats`'s, ``events``
    an optional event list for throughput, ETA and last-event ages — so this module needs no
    import from :mod:`repro.distrib` (which imports :mod:`repro.obs`).

    Workers whose heartbeat is older than ``lease_ttl`` are flagged
    ``stale`` (the same threshold after which their leases become
    stealable).  A worker's ``last_event_age`` is the age of the newest
    event whose ``worker`` (else ``writer``) names it, ``None`` without
    ``events``.  Throughput is measured over the ``cell.done`` events and
    the ETA extrapolates it over the cells not yet accounted for: neither
    executed, salvaged or cached, nor in a cancelled unit.
    """
    now = time.time() if now is None else now
    last_seen: Dict[str, float] = {}
    done_ts: List[float] = []
    cell_seconds: List[float] = []
    for event in events or ():
        ts = float(event.get("ts", 0.0))
        name = event.get("worker") or event.get("writer")
        if name:
            last_seen[name] = max(last_seen.get(name, 0.0), ts)
        if event.get("type") != "cell.done":
            continue
        done_ts.append(ts)
        seconds = event.get("seconds")
        if isinstance(seconds, (int, float)):
            cell_seconds.append(float(seconds))
    cells_per_sec = None
    if len(done_ts) >= 2:
        window = max(done_ts) - min(done_ts)
        if window > 0:
            cells_per_sec = round((len(done_ts) - 1) / window, 3)

    workers = []
    for name in sorted(heartbeats):
        beat = heartbeats[name]
        age = max(0.0, now - float(beat.get("ts", 0.0)))
        last = last_seen.get(name)
        entry: Dict[str, Any] = {
            "worker": name,
            "age": round(age, 3),
            "last_event_age": round(max(0.0, now - last), 3) if last else None,
            "pid": beat.get("pid"),
            "host": beat.get("host"),
            "unit": beat.get("unit"),
            "cells_done": beat.get("cells_done"),
            "unit_total": beat.get("unit_total"),
            "phase": beat.get("phase"),
        }
        if lease_ttl is not None:
            entry["stale"] = age > lease_ttl
        workers.append(entry)

    eta = None
    total_cells = int(status.get("cells", 0))
    # A cancelled unit's cells never run, so they are not remaining either.
    accounted = sum(
        int(status.get(k, 0))
        for k in ("executed", "salvaged", "cached", "cancelled_cells")
    )
    remaining = max(0, total_cells - accounted)
    live = [w for w in workers if not w.get("stale")]
    if remaining and cell_seconds and live:
        mean_cell = sum(cell_seconds) / len(cell_seconds)
        eta = round(remaining * mean_cell / len(live), 3)
    elif remaining and cells_per_sec:
        eta = round(remaining / cells_per_sec, 3)

    return {
        "now": now,
        "queue": dict(status),
        "workers": workers,
        "live_workers": len(live),
        "stale_workers": len(workers) - len(live),
        "remaining_cells": remaining,
        "cells_per_sec": cells_per_sec,
        "eta_seconds": eta,
    }


def _format_age(age: Optional[float]) -> str:
    if age is None:
        return "-"
    if age < 120:
        return f"{age:.0f}s"
    if age < 7200:
        return f"{age / 60:.1f}m"
    return f"{age / 3600:.1f}h"


def format_fleet(summary: Mapping[str, Any]) -> str:
    """Render a :func:`fleet_summary` as the ``repro top`` screen."""
    queue = summary.get("queue", {})
    lines = [
        "units: {done}/{units} done  cells: {cells}  "
        "claimed: {claimed}  pending: {pending}  cancelled: {cancelled}".format(
            done=queue.get("done", 0),
            units=queue.get("units", 0),
            cells=queue.get("cells", 0),
            claimed=queue.get("claimed", 0),
            pending=queue.get("pending", 0),
            cancelled=queue.get("cancelled", 0),
        ),
        "executed: {executed}  salvaged: {salvaged}  cached: {cached}  "
        "steals: {steals}  expired: {expired}".format(
            executed=queue.get("executed", 0),
            salvaged=queue.get("salvaged", 0),
            cached=queue.get("cached", 0),
            steals=queue.get("steals", 0),
            expired=queue.get("expired", 0),
        ),
    ]
    rate = summary.get("cells_per_sec")
    eta = summary.get("eta_seconds")
    remaining = summary.get("remaining_cells", 0)
    tail = [f"remaining cells: {remaining}"]
    if rate is not None:
        tail.append(f"throughput: {rate} cells/sec")
    if eta is not None:
        tail.append(f"eta: {_format_age(eta)}")
    lines.append("  ".join(tail))
    lines.append("")

    workers = summary.get("workers", ())
    if not workers:
        lines.append("no worker heartbeats yet")
        return "\n".join(lines)
    headers = ("worker", "heartbeat", "unit", "progress", "state")
    rows = []
    for worker in workers:
        unit = worker.get("unit")
        done = worker.get("cells_done")
        total = worker.get("unit_total")
        progress = f"{done}/{total}" if done is not None and total else "-"
        state = "STALE" if worker.get("stale") else (worker.get("phase") or "live")
        rows.append(
            (
                str(worker.get("worker")),
                _format_age(worker.get("age")),
                (unit[:12] if isinstance(unit, str) else "-"),
                progress,
                state,
            )
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_event(event: Mapping[str, Any]) -> str:
    """One ``repro tail`` line: time, writer, type, and the salient fields."""
    ts = float(event.get("ts", 0.0))
    clock = time.strftime("%H:%M:%S", time.localtime(ts))
    parts = [clock, f"{event.get('writer', '?')}", f"{event.get('type', '?')}"]
    for field in ("unit", "key", "kind", "status", "worker", "stolen_from", "job"):
        value = event.get(field)
        if value is None or value == event.get("writer"):
            continue
        if isinstance(value, str) and len(value) > 16:
            value = value[:12] + "…"
        parts.append(f"{field}={value}")
    for field in ("cells", "cells_done", "executed", "salvaged", "cached", "seconds"):
        value = event.get(field)
        if value is not None:
            parts.append(f"{field}={value}")
    return "  ".join(parts)
