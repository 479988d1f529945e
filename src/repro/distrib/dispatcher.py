"""Partitioning a sweep into leaseable, content-keyed work units."""

from __future__ import annotations

import contextlib
import os
from typing import Any, Dict, Iterable, List, Optional, Union

from ..runtime.spec import ScenarioSpec, SweepSpec
from .queue import WorkQueue

__all__ = ["Dispatcher", "DEFAULT_UNIT_SIZE"]

#: Cells per work unit.  Small units spread load and bound the work a killed
#: lease re-exposes; large units amortise claim traffic.  Sweep cells here
#: run in milliseconds-to-seconds, so a handful per lease is the sweet spot.
DEFAULT_UNIT_SIZE = 4


class Dispatcher:
    """Splits a sweep's cells into work units on a :class:`WorkQueue`.

    The dispatcher is the *only* writer of unit files; workers only read
    them.  Because unit ids are content keys, dispatching is idempotent —
    re-issuing the same sweep (e.g. after a coordinator crash) recreates no
    work, and dispatching a *grown* sweep only queues the new cells' units.
    """

    def __init__(
        self,
        queue: Union[WorkQueue, str],
        *,
        unit_size: int = DEFAULT_UNIT_SIZE,
    ) -> None:
        if unit_size < 1:
            raise ValueError(f"unit_size must be positive, got {unit_size}")
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue, create=True)
        self.unit_size = unit_size

    def dispatch(
        self,
        sweep: Union[SweepSpec, Iterable[ScenarioSpec]],
        *,
        store: Optional[Any] = None,
    ) -> Dict[str, int]:
        """Enumerate ``sweep``'s cells, chunk them, write the unit files.

        Cells whose key ``store`` already holds are skipped entirely — the
        distributed analogue of ``run_sweep(..., resume=True)``: the fleet
        only ever computes what the store is missing.  Returns counters plus
        the ids of this sweep's units (a queue directory may accumulate
        units of several sweeps; callers waiting on *this* dispatch must
        watch exactly these)::

            {"cells": ..., "skipped_cached": ..., "units": ...,
             "new_units": ..., "existing_units": ..., "unit_ids": [...]}
        """
        specs = list(sweep.cells()) if isinstance(sweep, SweepSpec) else list(sweep)
        for spec in specs:
            spec.validate()
        pending: List[ScenarioSpec] = []
        skipped = 0
        for spec in specs:
            if store is not None and store.get(spec.key()) is not None:
                skipped += 1
            else:
                pending.append(spec)
        new_units = existing_units = 0
        unit_ids: List[str] = []
        for start in range(0, len(pending), self.unit_size):
            uid, created = self.queue.add_unit(pending[start : start + self.unit_size])
            unit_ids.append(uid)
            if created:
                new_units += 1
            else:
                existing_units += 1
        report = {
            "cells": len(specs),
            "skipped_cached": skipped,
            "units": new_units + existing_units,
            "new_units": new_units,
            "existing_units": existing_units,
            "unit_ids": unit_ids,
        }
        # Respect an already attached writer (e.g. the serve tier's); a bare
        # dispatch attaches under its own pid-scoped name.  Journalling never
        # blocks a dispatch.
        with contextlib.suppress(OSError):
            journal = self.queue.attached_journal or self.queue.attach_journal(
                f"dispatch-{os.getpid()}"
            )
            journal.append(
                "sweep.dispatch", **{k: v for k, v in report.items() if k != "unit_ids"}
            )
        return report
