"""The checkpoint journal behind ``run_sweep --checkpoint`` and shard journals.

One record per completed sweep cell, appended as cells finish, keyed by a
canonical hash of the cell's task spec.  A rerun pointed at the same journal
restores every recorded cell instead of recomputing it — the sweep analogue
of the adversary :class:`~repro.algorithms.MemoCache`'s merge-on-save path,
but at cell granularity.

The journal is a keyed, last-write-wins view over a
:class:`~repro.resilience.log.SegmentLog`, the serving WAL's log: a torn
tail from a killed run is healed by the next writer, and a corrupt record
anywhere else is warned about with its file and byte offset, counted in
``resilience.journal.corrupt_records``, and its cell recomputed.  Floats
round-trip bit-exactly (``json`` uses ``repr``), so resumed cells report
ratios identical to a fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Mapping

from ..obs import TelemetryRegistry
from .log import CorruptLogError, SegmentLog, read_log

__all__ = ["CheckpointJournal", "task_key"]


def task_key(spec: Mapping[str, object]) -> str:
    """Canonical 128-bit hex key of a task spec (a JSON-safe mapping).

    The spec is serialised with sorted keys and no whitespace, so logically
    identical specs hash identically regardless of construction order.
    """
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


class CheckpointJournal:
    """A keyed, last-write-wins map from task key to completed-cell record.

    Args:
        path: The journal's log directory, created on first :meth:`append`.
            A missing directory is an empty journal; a plain file (an
            NDJSON journal of an older release) is refused.

    Attributes:
        registry: This journal's ``resilience.journal.*`` counters.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.registry = TelemetryRegistry()
        self._log: SegmentLog | None = None

    def load(self) -> dict[str, dict[str, object]]:
        """All intact records keyed by task key (last write wins).

        A corrupt or keyless record is reported and left out, so its cell
        reads as not yet done and is recomputed.
        """
        corrupt: list[CorruptLogError] = []
        records: dict[str, dict[str, object]] = {}
        for record, path, offset in read_log(self.path, corrupt=corrupt):
            key = record.pop("key", None)
            if isinstance(key, str) and key:
                del record["seq"]
                records[key] = record
            else:
                corrupt.append(CorruptLogError(path, offset, "record has no key"))
        for fault in corrupt:
            warnings.warn(f"cell recomputed: {fault}", RuntimeWarning, stacklevel=2)
        if corrupt:
            self.registry.counter("resilience.journal.corrupt_records").inc(len(corrupt))
        return records

    def append(self, key: str, record: Mapping[str, object]) -> None:
        """Append one completed-cell record under ``key``; fsynced before it returns."""
        if self._log is None:
            self._log = SegmentLog(
                self.path, registry=self.registry, prefix="resilience.journal", sync_each=True
            )
        self._log.append({**record, "key": key})

    def close(self) -> None:
        """Close the active segment; a later :meth:`append` starts a new one."""
        if self._log is not None:
            self._log.rotate()

    def __repr__(self) -> str:
        return f"CheckpointJournal({str(self.path)!r})"
