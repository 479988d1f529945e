"""The result-store interface and its query layer.

A :class:`ResultStore` maps the content hash of a
:class:`~repro.runtime.spec.ScenarioSpec` (its :func:`~repro.runtime.spec.spec_key`)
to the :class:`~repro.runtime.records.RunRecord` produced by running it.
Scenarios are deterministic in their spec, so the store is a pure cache:
``put`` is idempotent, a second ``put`` of the same key is a no-op, and a
``get`` hit is indistinguishable from re-running the cell.

Two backends implement the interface:

* :class:`~repro.store.memory.MemoryStore` — a process-local dict; and
* :class:`~repro.store.filestore.FileStore` — JSONL shards plus an index
  under a ``.repro-store/`` directory, with atomic per-record appends.

The query layer (:meth:`ResultStore.query`) filters stored records by spec
and record attributes and returns a
:class:`~repro.runtime.records.SweepResult`, so tables and aggregation work
straight off the store.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..runtime.records import RunRecord, SweepResult
from ..runtime.spec import ScenarioSpec

__all__ = ["ResultStore", "KeyLike"]

#: A store key: the hex digest itself, or a spec to hash.
KeyLike = Union[str, ScenarioSpec]


def _key_of(key: KeyLike) -> str:
    return key if isinstance(key, str) else key.key()


#: Deterministic ordering of query results, independent of backend layout.
def _canonical_order(record: RunRecord) -> Tuple[Any, ...]:
    return (
        record.spec.problem,
        record.spec.family,
        record.graph_size,
        record.spec.seed,
        record.spec.scheduler,
        record.spec.key(),
    )


class ResultStore:
    """Abstract content-addressed store of run records.

    Backends bump :attr:`_version` whenever their key set (or a stored
    payload) may have changed; :meth:`generation` and the canonical record
    order behind :meth:`query` are memoised against it, so a store that did
    not change answers both without touching its records.
    """

    backend = "abstract"

    #: Change counter: bumped by every backend mutation of the stored set.
    _version = 0
    _generation_memo: Optional[Tuple[int, str]] = None
    _order_memo: Optional[Tuple[int, List[RunRecord]]] = None

    # ------------------------------------------------------------------
    # core mapping (implemented by the backends)
    # ------------------------------------------------------------------
    def get(self, key: KeyLike) -> Optional[RunRecord]:
        """The stored record for ``key`` (a digest or a spec), or ``None``."""
        raise NotImplementedError

    def put(self, record: RunRecord) -> str:
        """Store ``record`` under its spec's key; idempotent.  Returns the key."""
        raise NotImplementedError

    def put_replace(self, record: RunRecord) -> str:
        """Store ``record`` under its key, replacing any existing payload.

        Only needed by conflict-resolving code paths (``store merge
        --on-conflict theirs``); everyday writers should use the idempotent
        :meth:`put` — for a deterministic computation the two never differ.
        """
        raise NotImplementedError

    def keys(self) -> Tuple[str, ...]:
        """All stored keys, in a backend-defined but stable order."""
        raise NotImplementedError

    def records(self) -> Iterator[RunRecord]:
        """Iterate every stored record (order matches :meth:`keys`)."""
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                yield record

    def get_many(self, keys: Iterable[KeyLike]) -> List[Optional[RunRecord]]:
        """The stored records for ``keys``, in argument order (``None`` for
        misses).  The bulk read behind experiment aggregation: a table's
        cells come back in the experiment's own cell order, not the
        backend's."""
        return [self.get(key) for key in keys]

    def __contains__(self, key: object) -> bool:
        return isinstance(key, (str, ScenarioSpec)) and self.get(key) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def generation(self) -> str:
        """Content stamp of the stored key set: equal stamps, equal contents.

        A deterministic hash over the sorted keys — stable across processes,
        restarts and on-disk compaction, different the moment any record is
        added or evicted.  The serving tier combines it with an experiment's
        own content hash into an ETag, so "has anything this table depends
        on changed?" costs one in-memory hash and zero record reads — and
        only once per change: the stamp is memoised against :attr:`_version`.
        """
        memo = self._generation_memo
        if memo is None or memo[0] != self._version:
            digest = hashlib.sha256("\n".join(sorted(self.keys())).encode("ascii"))
            memo = self._generation_memo = (self._version, digest.hexdigest()[:16])
        return memo[1]

    def _ordered_records(self) -> List[RunRecord]:
        """Every stored record in canonical order, sorted once per change.

        The version is read *after* the scan: reading records may itself
        change the store (a file store drops a dangling index entry lazily),
        and the memo must describe the state the scan ended in.
        """
        memo = self._order_memo
        if memo is None or memo[0] != self._version:
            records = sorted(self.records(), key=_canonical_order)
            memo = self._order_memo = (self._version, records)
        return memo[1]

    def refresh(self) -> bool:
        """Pick up records concurrently written by other handles/processes.

        Returns ``True`` when new state became visible.  A no-op for
        backends without shared external state (the in-memory store sees
        its own writes immediately).
        """
        return False

    # ------------------------------------------------------------------
    # lifecycle (no-ops for backends without buffered state)
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push any buffered writes to durable storage."""

    def close(self) -> None:
        """Release resources; the store must not be used afterwards."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # query layer
    # ------------------------------------------------------------------
    def query(
        self,
        predicate: Optional[Callable[[RunRecord], bool]] = None,
        *,
        n_range: Optional[Tuple[int, int]] = None,
        cost_range: Optional[Tuple[int, int]] = None,
        ok: Optional[bool] = None,
        keys: Optional[Iterable[KeyLike]] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        **matches: Any,
    ) -> SweepResult:
        """Stored records matching the given filters, as a ``SweepResult``.

        ``matches`` are equality filters resolved against the record first
        and its spec second (the same rule as ``SweepResult.filter``), so
        both ``problem="esst"`` and ``max_traversals=10**6`` work — except
        ``problem``, which matches by *prefix*: ``problem="tick"`` selects
        every tick-asynchronous kind (``tick_leader``, ``tick_gossip``,
        ``tick_gathering``) next to the exact names, which still only match
        themselves; ``n_range`` and ``cost_range`` are inclusive ``(lo,
        hi)`` bounds on the actual graph size and the cost; ``keys``
        restricts to a known key set (what experiment aggregation passes).  Results come back in a canonical
        order (problem, family, size, seed, scheduler, key) regardless of
        the backend's on-disk layout, ready for ``.table()`` and
        :mod:`repro.analysis.aggregate`-style aggregation::

            store.query(problem="rendezvous", family="ring", n_range=(4, 12))

        ``limit`` / ``offset`` paginate: they slice the *canonically ordered*
        match set, so successive pages of the same query never overlap, skip
        or reorder records — the contract the HTTP result service's
        ``GET /runs?limit=&offset=`` relies on.
        """
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        problem_prefix = matches.pop("problem", None)
        if keys is not None:
            # Keyed lookups, not a scan: keys are content-hash addresses, so
            # the cost is O(len(keys)) regardless of how big the store is.
            seen = set()
            candidates = []
            for record in self.get_many(keys):
                if record is None or record.spec.key() in seen:
                    continue
                seen.add(record.spec.key())
                candidates.append(record)
        else:
            candidates = self._ordered_records()
        selected = []
        for record in candidates:
            if problem_prefix is not None and not record.spec.problem.startswith(
                str(problem_prefix)
            ):
                continue
            if n_range is not None and not (n_range[0] <= record.graph_size <= n_range[1]):
                continue
            if cost_range is not None and not (cost_range[0] <= record.cost <= cost_range[1]):
                continue
            if ok is not None and record.ok != ok:
                continue
            if predicate is not None and not predicate(record):
                continue
            selected.append(record)
        result = SweepResult(records=selected).filter(**matches) if matches else SweepResult(records=selected)
        if keys is not None:
            result.records.sort(key=_canonical_order)
        if offset or limit is not None:
            stop = None if limit is None else offset + limit
            result.records[:] = result.records[offset:stop]
        return result

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Backend-specific counters (at least ``backend`` and ``records``)."""
        return {"backend": self.backend, "records": len(self)}

    @staticmethod
    def key_of(key: KeyLike) -> str:
        """Resolve a digest-or-spec argument to the digest string."""
        return _key_of(key)
