"""The on-disk result-store backend: JSONL shards plus an index.

Layout of a store directory (default name ``.repro-store``)::

    .repro-store/
    ├── store.meta.json      # format + spec-key versions, written once
    ├── index.jsonl          # one {"key", "shard"} line per stored record
    ├── .lock                # advisory flock target for multi-writer stores
    └── shards/
        ├── 0a.jsonl         # records whose key starts with "0a"
        ├── 3f--w1.jsonl     # the same, written under writer namespace "w1"
        └── ...

Durability model
----------------
Every ``put`` appends **one line** to the record's shard, flushes it, and
then appends one line to the index.  A single-line append is atomic for any
realistic line size, so a sweep killed at an arbitrary moment loses at most
the record whose line was being written: on the next open a truncated final
shard line is detected and dropped, and a record whose index line never
landed is simply not visible (the cell re-runs either way); a wholly
missing or lost index file is rebuilt by scanning the unindexed shards.
Malformed data anywhere
*else* in a shard means real corruption and raises
:class:`~repro.exceptions.StoreCorruptionError` — :meth:`FileStore.gc`
salvages what it can and rewrites the store compactly.

The shards are the source of truth; the index is a recoverable accelerator
(it spares opening every shard to answer ``keys()`` / ``__contains__``).

Multi-writer model
------------------
Several processes may hold the same store open as long as each passes a
distinct ``writer`` name: a writer appends only to its **own** shard
namespace (``<prefix>--<writer>.jsonl``), so two writers never interleave
bytes within one file, while the shared ``index.jsonl`` is appended one
atomic line at a time under an advisory ``flock``.  Each handle caches the
index it has read, so writers see each other's records only after
:meth:`FileStore.refresh` (which reads just the appended index tail) — that
is fine for the intended use, a fleet of queue workers computing *disjoint*
content-addressed cells.  :meth:`gc` later collapses writer namespaces back
into canonical shards, and :meth:`rebuild_index` reconciles the index with
whatever the shards actually hold.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Optional, Set, Tuple

try:  # pragma: no cover - fcntl is present on every POSIX platform we run on
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..exceptions import StoreCorruptionError, StoreError
from ..obs.metrics import get_registry
from ..runtime.records import RunRecord
from ..runtime.spec import SPEC_KEY_VERSION
from .base import KeyLike, ResultStore

__all__ = ["FileStore", "DEFAULT_STORE_DIR", "FORMAT_VERSION"]

#: Conventional store directory name (what ``repro sweep --store`` defaults to).
DEFAULT_STORE_DIR = ".repro-store"

#: On-disk layout version; bumped only when the file layout itself changes.
FORMAT_VERSION = 1

_META_NAME = "store.meta.json"
_INDEX_NAME = "index.jsonl"
_LOCK_NAME = ".lock"
_SHARD_DIR = "shards"

#: Writer namespaces become file-name components; keep them boring.
_WRITER_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


def _append_line(handle: IO[str], payload: Dict[str, Any], fsync: bool) -> bytes:
    """Append ``payload`` as one JSON line; return the line's bytes."""
    line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    handle.write(line)
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())
    return line.encode("utf-8")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _split_lines(text: str) -> Tuple[list, bool]:
    """Split shard text into complete lines; flag an unterminated tail.

    A line is only trusted once its terminating newline hit the disk, so the
    partial tail of a killed write is excluded from the body and reported.
    """
    if not text:
        return [], False
    lines = text.split("\n")
    truncated = lines[-1] != ""
    return lines[:-1], truncated


class FileStore(ResultStore):
    """Result store persisted as JSONL shards under a directory.

    Parameters
    ----------
    root:
        The store directory.  Created (with its metadata file) when missing,
        unless ``create=False`` — then a missing or alien directory raises
        :class:`~repro.exceptions.StoreError`.
    fsync:
        Force every append to stable storage.  Off by default: the atomic
        single-line append already bounds a crash's damage to the in-flight
        cell, and fsync-per-cell slows large sweeps considerably.
    salvage:
        Tolerate corrupt shard lines (skip and count them) instead of
        raising :class:`~repro.exceptions.StoreCorruptionError`.  This is
        how :meth:`gc` gets at a damaged store to repair it; leave it off
        for normal use so corruption is loud.
    writer:
        Writer namespace for multi-writer stores.  When set, appends go to
        this writer's own shard files (``<prefix>--<writer>.jsonl``) so that
        concurrent writer processes never share an append target; index
        appends are serialised with an advisory lock.  Reads are unaffected
        — any writer (or a plain reader) sees every namespace.
    """

    backend = "file"

    def __init__(
        self,
        root,
        *,
        create: bool = True,
        fsync: bool = False,
        salvage: bool = False,
        writer: Optional[str] = None,
    ) -> None:
        if writer is not None and ("--" in writer or not _WRITER_RE.match(writer)):
            raise StoreError(
                f"invalid writer name {writer!r}: use letters, digits, '.', '_' "
                "or '-' (and no '--', which separates the shard prefix)"
            )
        self.root = Path(root)
        self.fsync = fsync
        self.salvage = salvage
        self.writer = writer
        self._index: Dict[str, str] = {}
        self._shard_cache: Dict[str, Dict[str, RunRecord]] = {}
        self._handles: Dict[str, IO[str]] = {}
        self._index_handle: Optional[IO[str]] = None
        self._truncated_dropped = 0
        # How much of index.jsonl this handle has consumed: the byte offset
        # just past the last complete line read, that line itself (to tell
        # a grown index from a rewritten one), the line count (for error
        # messages) and the (inode, size, mtime) of the file at that read.
        self._index_offset = 0
        self._index_tail = b""
        self._index_lines = 0
        self._index_stat: Optional[Tuple[int, int, int]] = None
        self._open(create)

    # ------------------------------------------------------------------
    # opening / layout
    # ------------------------------------------------------------------
    @property
    def _meta_path(self) -> Path:
        return self.root / _META_NAME

    @property
    def _index_path(self) -> Path:
        return self.root / _INDEX_NAME

    def _shard_path(self, shard: str) -> Path:
        return self.root / _SHARD_DIR / f"{shard}.jsonl"

    def _shard_names(self) -> List[str]:
        """Every shard on disk, in file-name order.

        Sorting the file names with their ``.jsonl`` suffix gives the order
        sorted ``Path`` objects have (``ab--w1.jsonl`` before ``ab.jsonl``),
        which decides the shard an unindexed key is filed under.
        """
        try:
            names = os.listdir(self.root / _SHARD_DIR)
        except FileNotFoundError:
            return []
        return [name[:-6] for name in sorted(names) if name.endswith(".jsonl")]

    def _shard_for(self, key: str) -> str:
        """The shard this store appends ``key`` to (writer-namespaced)."""
        prefix = key[:2]
        return prefix if self.writer is None else f"{prefix}--{self.writer}"

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store's advisory lock (a no-op where flock is missing).

        Guards the shared append/rewrite target ``index.jsonl`` against
        concurrent writer processes.  Shard appends never need it: each
        writer owns its namespace's files.
        """
        if fcntl is None:  # pragma: no cover
            yield
            return
        with (self.root / _LOCK_NAME).open("a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _open(self, create: bool) -> None:
        if self._meta_path.exists():
            try:
                meta = json.loads(self._meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as error:
                raise StoreError(f"unreadable store metadata {self._meta_path}: {error}")
            if meta.get("format_version") != FORMAT_VERSION:
                raise StoreError(
                    f"store {self.root} uses layout version {meta.get('format_version')}, "
                    f"this code reads version {FORMAT_VERSION}"
                )
            if meta.get("spec_key_version") != SPEC_KEY_VERSION:
                raise StoreError(
                    f"store {self.root} was written with spec-key version "
                    f"{meta.get('spec_key_version')} (current: {SPEC_KEY_VERSION}); "
                    "run 'repro store gc' after re-running the sweeps, or start a fresh store"
                )
        elif self.root.exists() and any(self.root.iterdir()):
            raise StoreError(
                f"{self.root} exists but holds no store metadata — refusing to "
                "treat an arbitrary directory as a result store"
            )
        elif create:
            (self.root / _SHARD_DIR).mkdir(parents=True, exist_ok=True)
            _atomic_write(
                self._meta_path,
                json.dumps(
                    {
                        "format_version": FORMAT_VERSION,
                        "spec_key_version": SPEC_KEY_VERSION,
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
            )
        else:
            raise StoreError(f"no result store at {self.root}")
        (self.root / _SHARD_DIR).mkdir(parents=True, exist_ok=True)
        self._load_index()

    def _index_fingerprint(self) -> Optional[Tuple[int, int, int]]:
        """Cheap change detector for ``index.jsonl``: ``(inode, size, mtime_ns)``."""
        try:
            stat = os.stat(self._index_path)
        except OSError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def _load_index(self) -> None:
        """Load ``index.jsonl``, falling back to a shard scan when needed.

        Index entries are advisory: a key pointing at a shard that does not
        actually hold the record (the put was killed between the two appends
        — impossible in the shard-first write order, but cheap to defend
        against) is dropped lazily by :meth:`get`.  In the other direction
        only shards the index does not mention *at all* (a deleted or lost
        index file) are scanned and re-indexed here; a shard the index
        merely undercounts — the one in-flight record of a put killed
        between its shard and index appends — is left to re-run, exactly
        like a truncated tail line.  Opening a store therefore reads **no**
        shard bytes in the steady state, however large the store; the full
        reconciliation lives in :meth:`rebuild_index` and :meth:`gc`.
        """
        self._index = {}
        self._shard_cache = {}
        self._index_offset, self._index_tail, self._index_lines = 0, b"", 0
        self._index_stat = None
        named = self._consume_index() or set()
        if self._index_stat is not None and self._index_stat[1] > self._index_offset:
            self._truncated_dropped += 1
        for shard in self._shard_names():
            if shard in named:
                continue
            for key in self._load_shard(shard):
                if key not in self._index:
                    self._index[key] = shard
                    with self._locked():
                        self._append_index_line(key, shard)
        self._version += 1

    def _consume_index(self) -> Optional[Set[str]]:
        """Apply the index lines appended since this handle last read.

        Reads ``index.jsonl`` from the consumed offset up to the size it has
        when opened, applies every *complete* line (a half-written tail
        waits for its newline) and drops the cached parse of each shard a
        line names — those files grew.  Returns the set of named shards, or
        ``None`` when the file no longer extends what was consumed: it
        shrank, vanished or was replaced (``gc``, ``rebuild_index``), and
        only a full :meth:`_load_index` is sound.
        """
        offset, tail = self._index_offset, self._index_tail
        try:
            handle = self._index_path.open("rb")
        except FileNotFoundError:
            return None if self._index_stat is not None else set()
        with handle:
            stat = os.fstat(handle.fileno())
            if stat.st_size < offset or (
                self._index_stat is not None and stat.st_ino != self._index_stat[0]
            ):
                return None
            start = offset - len(tail)
            handle.seek(start)
            data = handle.read(stat.st_size - start)
        if not data.startswith(tail):
            return None
        self._index_stat = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        end = data.rfind(b"\n") + 1
        named: Set[str] = set()
        if end <= len(tail):
            return named
        for line in data[len(tail) : end - 1].decode("utf-8").split("\n"):
            self._index_lines += 1
            try:
                entry = json.loads(line)
                key, shard = entry["key"], entry["shard"]
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                raise StoreCorruptionError(
                    f"corrupt index line {self._index_lines} in {self._index_path}: {error}"
                )
            self._index[key] = shard
            named.add(shard)
        for shard in named:
            self._shard_cache.pop(shard, None)
        self._index_offset = start + end
        self._index_tail = data[data.rfind(b"\n", 0, end - 1) + 1 : end]
        self._version += 1
        return named

    def _index_rewritten(self, text: str) -> None:
        """Mark ``text``, just written as the whole index under the lock, consumed."""
        data = text.encode("utf-8")
        self._index_offset = len(data)
        self._index_tail = data[data.rfind(b"\n", 0, len(data) - 1) + 1 :]
        self._index_lines = data.count(b"\n")
        self._index_stat = self._index_fingerprint()
        self._version += 1

    def refresh(self) -> bool:
        """Make records appended by *other* handles of this store visible.

        Concurrent writer processes append to their own shard namespaces and
        to the shared index, but an open handle caches the index it loaded —
        so a long-lived reader (the HTTP result service above a live worker
        fleet) calls this between requests.  The cost follows what changed,
        not what the store holds:

        * nothing changed — one ``stat`` of ``index.jsonl``;
        * the index grew — only the appended tail is read, up to its last
          complete line, and only the shards those lines name lose their
          cached parse;
        * the index was rewritten (``gc``, ``rebuild_index``) or shrank — a
          full reload, the one case that re-reads the whole index.

        Returns ``True`` when new index entries became visible.
        """
        refreshes = get_registry().counter(
            "repro_store_index_refreshes_total", "refresh() calls by outcome"
        )
        if self._index_fingerprint() == self._index_stat:
            refreshes.inc(changed="false")
            return False
        named = self._consume_index()
        if named is None:
            self._load_index()
        changed = named is None or bool(named)
        refreshes.inc(changed="true" if changed else "false")
        return changed

    # ------------------------------------------------------------------
    # shard parsing
    # ------------------------------------------------------------------
    def _parse_shard(
        self, shard: str, salvage: bool = False
    ) -> Tuple[Dict[str, RunRecord], int]:
        """Parse one shard file into ``key -> record``; last write wins.

        A truncated final line is dropped (and counted).  With ``salvage``
        any undecodable or key-mismatched line is skipped and counted;
        without it, such a line raises ``StoreCorruptionError``.
        """
        path = self._shard_path(shard)
        records: Dict[str, RunRecord] = {}
        dropped = 0
        if not path.exists():
            return records, dropped
        body, truncated = _split_lines(path.read_text(encoding="utf-8"))
        if truncated:
            self._truncated_dropped += 1
        for lineno, line in enumerate(body, start=1):
            try:
                entry = json.loads(line)
                key = entry["key"]
                record = RunRecord.from_dict(entry["record"])
                if record.spec.key() != key:
                    raise StoreCorruptionError(
                        f"record in {path} line {lineno} does not hash to its key "
                        f"{key[:12]}… (content-address mismatch)"
                    )
            except StoreCorruptionError:
                if not salvage:
                    raise
                dropped += 1
                continue
            except Exception as error:
                if not salvage:
                    raise StoreCorruptionError(
                        f"corrupt shard line {lineno} in {path}: {error}"
                    )
                dropped += 1
                continue
            records[key] = record
        return records, dropped

    def _load_shard(self, shard: str) -> Dict[str, RunRecord]:
        if shard not in self._shard_cache:
            records, _dropped = self._parse_shard(shard, salvage=self.salvage)
            self._shard_cache[shard] = records
        return self._shard_cache[shard]

    # ------------------------------------------------------------------
    # core mapping
    # ------------------------------------------------------------------
    def get(self, key: KeyLike) -> Optional[RunRecord]:
        digest = self.key_of(key)
        shard = self._index.get(digest)
        if shard is None:
            return None
        record = self._load_shard(shard).get(digest)
        if record is None:
            # Index ahead of the shard (in-flight cell of a killed sweep).
            del self._index[digest]
            self._version += 1
            return None
        return record

    def _append_record(self, key: str, record: RunRecord) -> None:
        shard = self._shard_for(key)
        nbytes = len(
            _append_line(
                self._shard_append_handle(shard),
                {"key": key, "record": record.to_dict()},
                self.fsync,
            )
        )
        with self._locked():
            nbytes += self._append_index_line(key, shard)
        registry = get_registry()
        registry.counter(
            "repro_store_appends_total", "Records appended to the file store"
        ).inc()
        registry.counter(
            "repro_store_bytes_written_total", "Shard and index bytes appended"
        ).inc(nbytes)
        self._index[key] = shard
        self._version += 1
        if shard in self._shard_cache:
            # Keep the cache coherent; re-parse is wasteful for an append.
            self._shard_cache[shard][key] = record

    def _append_index_line(self, key: str, shard: str) -> int:
        """Append one index line (the caller holds the lock); return its size.

        The handle's own line counts as consumed only when nothing unread
        precedes it.  Lines another writer appended since the last read stay
        unread, and so does this one, for :meth:`refresh` to pick up
        together — advancing past them would hide them for good.
        """
        before = self._index_fingerprint()
        line = _append_line(
            self._index_append_handle(before), {"key": key, "shard": shard}, self.fsync
        )
        if before == self._index_stat and (
            before is None or before[1] == self._index_offset
        ):
            self._index_offset += len(line)
            self._index_tail = line
            self._index_lines += 1
            self._index_stat = self._index_fingerprint()
        return len(line)

    def put(self, record: RunRecord) -> str:
        key = record.spec.key()
        if key in self._index and self.get(key) is not None:
            return key
        self._append_record(key, record)
        return key

    def put_replace(self, record: RunRecord) -> str:
        """Append ``record`` even when its key is already stored.

        Within a shard the last line wins, and the freshly appended index
        line redirects readers to this writer's namespace — so the new
        payload shadows the old one until :meth:`gc` compacts it away.
        Used by ``merge --on-conflict theirs``; everything else should rely
        on the idempotent :meth:`put`.
        """
        key = record.spec.key()
        self._append_record(key, record)
        return key

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._index)

    # ------------------------------------------------------------------
    # handles / lifecycle
    # ------------------------------------------------------------------
    def _shard_append_handle(self, shard: str) -> IO[str]:
        handle = self._handles.get(shard)
        if handle is None:
            path = self._shard_path(shard)
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = path.open("a", encoding="utf-8")
            self._handles[shard] = handle
        return handle

    def _index_append_handle(self, current: Optional[Tuple[int, int, int]]) -> IO[str]:
        """The append handle of ``index.jsonl``, reopened when the file at
        the path (``current`` fingerprint) is no longer the one it holds —
        another handle rewrote the index, and appending to the old inode
        would lose the line."""
        handle = self._index_handle
        if handle is not None and (
            current is None or os.fstat(handle.fileno()).st_ino != current[0]
        ):
            handle.close()
            handle = None
        if handle is None:
            handle = self._index_handle = self._index_path.open("a", encoding="utf-8")
        return handle

    def flush(self) -> None:
        for handle in self._handles.values():
            handle.flush()
        if self._index_handle is not None:
            self._index_handle.flush()

    def close(self) -> None:
        self.flush()
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def verify(self) -> Dict[str, int]:
        """Parse every shard strictly; raise on corruption, report counts."""
        records = 0
        for shard in self._shard_names():
            parsed, _dropped = self._parse_shard(shard)
            records += len(parsed)
        return {"records": records, "truncated_dropped": self._truncated_dropped}

    def gc(
        self,
        *,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, int]:
        """Compact the store: drop corrupt/duplicate lines, rewrite the index.

        Every shard is re-parsed in salvage mode (undecodable and
        content-address-mismatched lines are discarded, duplicate keys keep
        the last write), writer namespaces are collapsed back into the
        canonical ``<prefix>.jsonl`` shards, shards are rewritten atomically,
        empty shards removed, and ``index.jsonl`` regenerated.

        ``max_records`` / ``max_bytes`` additionally bound the surviving
        store: records are evicted in write order, oldest first, until both
        budgets hold.  Write order is the order in which ``index.jsonl``
        first lists a key; a key it does not list counts as the newest.  The
        survivors are re-indexed in that order, so a later budgeted ``gc``
        evicts the oldest of them.  A budget of ``0`` evicts everything; a
        negative one raises :class:`~repro.exceptions.StoreError` before the
        store is touched.  Returns counters::

            {"kept": ..., "dropped_corrupt": ..., "dropped_duplicate": ...,
             "evicted": ..., "reclaimed_bytes": ...}
        """
        for name, budget in (("max_records", max_records), ("max_bytes", max_bytes)):
            if budget is not None and budget < 0:
                raise StoreError(f"gc budget {name} must be >= 0, got {budget}")
        self.close()
        dropped_corrupt = 0
        total_lines = 0
        shards = self._shard_names()
        before = sum(self._shard_path(shard).stat().st_size for shard in shards)
        merged: Dict[str, RunRecord] = {}
        for shard in shards:
            body, _ = _split_lines(self._shard_path(shard).read_text(encoding="utf-8"))
            records, dropped = self._parse_shard(shard, salvage=True)
            total_lines += len(body)
            dropped_corrupt += dropped
            merged.update(records)
        dropped_duplicate = max(0, total_lines - dropped_corrupt - len(merged))

        rank = {key: position for position, key in enumerate(self._index)}
        merged = {
            key: merged[key]
            for key in sorted(merged, key=lambda key: rank.get(key, len(rank)))
        }
        lines_of = {
            key: json.dumps(
                {"key": key, "record": record.to_dict()},
                sort_keys=True,
                separators=(",", ":"),
            )
            for key, record in merged.items()
        }
        evicted = 0
        if max_records is not None or max_bytes is not None:
            total_bytes = sum(len(line) + 1 for line in lines_of.values())
            for key in list(merged):  # oldest write first
                over_records = max_records is not None and len(merged) > max_records
                over_bytes = max_bytes is not None and total_bytes > max_bytes
                if not (over_records or over_bytes):
                    break
                total_bytes -= len(lines_of.pop(key)) + 1
                del merged[key]
                evicted += 1

        by_shard: Dict[str, Dict[str, RunRecord]] = {}
        for key, record in merged.items():
            by_shard.setdefault(key[:2], {})[key] = record
        new_index = {key: key[:2] for key in merged}
        with self._locked():
            for shard in shards:
                if shard not in by_shard:
                    self._shard_path(shard).unlink()
            for shard, records in sorted(by_shard.items()):
                _atomic_write(
                    self._shard_path(shard),
                    "\n".join(lines_of[key] for key in records) + "\n",
                )
            index_text = "".join(
                json.dumps({"key": key, "shard": shard}, sort_keys=True, separators=(",", ":"))
                + "\n"
                for key, shard in new_index.items()
            )
            _atomic_write(self._index_path, index_text)
            self._index_rewritten(index_text)
        after = sum(self._shard_path(shard).stat().st_size for shard in self._shard_names())
        self._index = new_index
        self._shard_cache = dict(by_shard)
        self._truncated_dropped = 0
        return {
            "kept": len(merged),
            "dropped_corrupt": dropped_corrupt,
            "dropped_duplicate": dropped_duplicate,
            "evicted": evicted,
            "reclaimed_bytes": max(0, before - after),
        }

    def rebuild_index(self) -> int:
        """Rewrite ``index.jsonl`` from a full shard scan; return the count.

        The shards stay untouched — this only reconciles the accelerator
        with them, e.g. after :func:`~repro.store.merge.merge_stores`
        appended records from shipped shards, or when an index is suspected
        stale.  Write order survives: keys this handle's index lists keep
        their order, and keys found only in shards follow in shard-file
        order, so a later budgeted :meth:`gc` still evicts the oldest.
        Respects this handle's ``salvage`` tolerance.
        """
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None
        found: Dict[str, str] = {}
        with self._locked():
            for shard in self._shard_names():
                for key in self._parse_shard(shard, salvage=self.salvage)[0]:
                    found[key] = shard
            entries = {key: found[key] for key in self._index if key in found}
            entries.update(found)
            index_text = (
                "\n".join(
                    json.dumps({"key": key, "shard": shard}, sort_keys=True, separators=(",", ":"))
                    for key, shard in entries.items()
                )
                + "\n"
                if entries
                else ""
            )
            _atomic_write(self._index_path, index_text)
            self._index_rewritten(index_text)
        self._index = entries
        return len(entries)

    def stats(self) -> Dict[str, Any]:
        shards = self._shard_names()
        writers = {shard.split("--", 1)[1] if "--" in shard else "" for shard in shards}
        return {
            "backend": self.backend,
            "root": str(self.root),
            "records": len(self._index),
            "shards": len(shards),
            "writers": len(writers),
            "bytes": sum(self._shard_path(shard).stat().st_size for shard in shards),
            "truncated_dropped": self._truncated_dropped,
        }
