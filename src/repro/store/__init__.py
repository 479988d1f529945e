"""Content-addressed persistence for scenario results.

Every :class:`~repro.runtime.spec.ScenarioSpec` hashes to a stable
:func:`~repro.runtime.spec.spec_key`; a :class:`ResultStore` maps those keys
to :class:`~repro.runtime.records.RunRecord`\\ s.  Because scenarios are
deterministic in their spec, the store turns the scenario runtime into an
incremental computation engine: sweeps resume where they stopped, repeated
experiments cost nothing, and tables aggregate straight from disk.

>>> from repro.store import FileStore
>>> from repro.runtime import SweepSpec, run_sweep
>>> store = FileStore(".repro-store")
>>> result = run_sweep(SweepSpec(sizes=(4, 6, 8)), store=store)   # runs 3 cells
>>> again = run_sweep(SweepSpec(sizes=(4, 6, 8)), store=store)    # runs 0 cells
>>> again.cache_hits, again.executed
(3, 0)
>>> store.query(problem="rendezvous", n_range=(4, 6)).table()

Backends: :class:`MemoryStore` (process-local dict) and :class:`FileStore`
(JSONL shards + index under ``.repro-store/``, atomic appends, kill-safe).
A single scenario goes through the same cache as a one-cell sweep:
``run_sweep([spec], store=store)``.
"""

from __future__ import annotations

from .base import KeyLike, ResultStore
from .filestore import DEFAULT_STORE_DIR, FileStore
from .memory import MemoryStore
from .merge import merge_stores

__all__ = [
    "ResultStore",
    "KeyLike",
    "MemoryStore",
    "FileStore",
    "DEFAULT_STORE_DIR",
    "open_store",
    "merge_stores",
]


def open_store(root=None, *, create: bool = True) -> FileStore:
    """Open (or create) the file store at ``root`` (default ``.repro-store``)."""
    return FileStore(root if root is not None else DEFAULT_STORE_DIR, create=create)

