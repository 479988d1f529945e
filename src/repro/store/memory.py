"""The in-memory result-store backend.

A plain process-local dict behind the :class:`~repro.store.base.ResultStore`
interface: zero I/O, records come back as the very objects that were put.
Used for warm-cache runs inside one process (e.g. an experiment driver that
aggregates the same sweep several ways) and as the reference backend the
file store is tested against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..runtime.records import RunRecord
from .base import KeyLike, ResultStore

__all__ = ["MemoryStore"]


class MemoryStore(ResultStore):
    """Result store backed by a dict, in insertion order."""

    backend = "memory"

    def __init__(self) -> None:
        self._records: Dict[str, RunRecord] = {}

    def get(self, key: KeyLike) -> Optional[RunRecord]:
        return self._records.get(self.key_of(key))

    def put(self, record: RunRecord) -> str:
        key = record.spec.key()
        if key not in self._records:
            self._records[key] = record
            self._version += 1
        return key

    def put_replace(self, record: RunRecord) -> str:
        key = record.spec.key()
        self._records[key] = record
        self._version += 1
        return key

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._records)

    def clear(self) -> None:
        """Drop every stored record."""
        self._records.clear()
        self._version += 1
