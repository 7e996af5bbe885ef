"""The per-tenant write-ahead journal behind crash-safe serving.

Every arrival the :class:`~repro.serving.ServingRuntime` admits is appended
here **before** the client sees its ``ok`` — so an acknowledged item exists
on disk no matter how the process dies.  One journal
(:class:`WriteAheadLog`) owns one directory; inside it every tenant gets its
own subdirectory of:

* **segments** — the tenant's :class:`~repro.resilience.log.SegmentLog`.
  A kill can at worst tear the final line, which the next open heals; any
  other damage stops replay with an error naming the segment and byte
  offset, so no acknowledged record is dropped in silence;
* **a checkpoint** — ``checkpoint.ckpt``, an atomically-replaced framed
  blob holding the tenant's pickled live state (session, fault policy,
  private registry, admission-gate bookkeeping) plus the sequence number it
  covers.  Recovery unpickles it and replays only the tail after it, and a
  checkpoint compacts away the segments it covers — restart cost and disk
  use are O(state + tail), not O(history);
* **a meta file** — ``meta.json`` recording the raw tenant id (directory
  names are sanitised, so ``hello ../../etc`` cannot escape the journal
  root).

**Durability model.**  The runtime journals the arrivals it admits from one
run of arrival lines (a socket read, up to its first command) as one
``write`` (:meth:`TenantWal.append_arrivals`), and ``sync="always"`` fsyncs
that write before the append returns, so before any reply of the read goes
out.  ``sync="group"`` (the default) writes each record eagerly
— it survives any *process* death — but fsyncs only at group-commit points
(micro-batch flushes, rotation, checkpoint, close), the Redis-AOF
``always``/``everysec`` trade.  Flush-cadence commits coalesce to one per
:attr:`WalConfig.group_window` and run on a **background syncer thread**
(:meth:`TenantWal.sync_soon`), so the event loop never waits on a 1-10 ms
fsync; hard commit points fsync inline.  At most one window is exposed to
a whole-machine crash.  Replay is bit-identical (a pickle round-trip plus
tail records that rebuild the exact admitted :class:`~repro.core.Item`;
``submit_many`` is batch-grouping invariant), which lets ``serve
--recover`` promise snapshot parity with an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from ..core.exceptions import ValidationError
from ..core.intervals import Interval
from ..core.items import Item
from ..obs import TelemetryRegistry
from ..resilience.log import (
    SEGMENT_BYTES,
    CorruptLogError,
    SegmentLog,
    frame_line,
    read_framed_blob,
    read_log,
    segments,
    write_framed_blob,
)

__all__ = ["WalConfig", "TenantWal", "WriteAheadLog", "WalRecord"]

_CHECKPOINT = "checkpoint.ckpt"
_META = "meta.json"

#: Characters preserved verbatim in a tenant directory name.
_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _tenant_dirname(tenant: str) -> str:
    """A filesystem-safe, collision-free directory name for ``tenant``.

    The readable prefix keeps journals greppable; the hash suffix keeps two
    tenants distinct even when sanitisation collides (``a/b`` vs ``a_b``).
    """
    digest = hashlib.blake2b(tenant.encode("utf-8"), digest_size=6).hexdigest()
    prefix = _SAFE.sub("_", tenant)[:48] or "tenant"
    return f"{prefix}-{digest}"


@dataclass(frozen=True)
class WalConfig:
    """Durability knobs for one :class:`WriteAheadLog`.

    Attributes:
        segment_bytes: Rotate the active segment once it reaches this size.
        sync: ``"group"`` fsyncs at group-commit points (flush, rotate,
            checkpoint, close); ``"always"`` fsyncs every append.
        checkpoint_records: Write an automatic checkpoint (and compact)
            after this many records since the last one (``0``: checkpoint
            only on eviction, drain, or explicit request).
        group_window: In ``"group"`` mode, coalesce flush-cadence fsyncs
            to at most one per this many seconds (the bounded
            whole-machine-crash exposure); hard commit points always fsync.
            ``0`` disables coalescing.
    """

    segment_bytes: int = SEGMENT_BYTES
    sync: str = "group"
    checkpoint_records: int = 0
    group_window: float = 0.25

    def __post_init__(self) -> None:
        if self.segment_bytes < 1:
            raise ValidationError(
                f"segment_bytes must be >= 1, got {self.segment_bytes}"
            )
        if self.sync not in ("group", "always"):
            raise ValidationError(
                f"sync must be 'group' or 'always', got {self.sync!r}"
            )
        if self.checkpoint_records < 0:
            raise ValidationError(
                f"checkpoint_records must be >= 0, got {self.checkpoint_records}"
            )
        if self.group_window < 0:
            raise ValidationError(
                f"group_window must be >= 0, got {self.group_window}"
            )


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One replayable journal record.

    Attributes:
        op: ``"arrival"`` or ``"advance"``.
        seq: The tenant's monotonic record sequence number.
        item: The admitted item (``arrival`` records).
        time: The clock target (``advance`` records).
    """

    op: str
    seq: int
    item: Item | None = None
    time: float = 0.0


def _decode(record: dict[str, object], path: Path, offset: int) -> WalRecord:
    """The :class:`WalRecord` of one log record; schema damage is corruption."""
    op, seq = record.get("op"), record["seq"]
    try:
        if op == "arrival":
            item = Item(
                record["id"],
                tuple(record["sizes"]),
                Interval(record["arrival"], record["departure"]),
                dict(record.get("tags", {})),
            )
            return WalRecord(op="arrival", seq=seq, item=item)
        if op == "advance":
            return WalRecord(op="advance", seq=seq, time=float(record["t"]))
    except (KeyError, TypeError, ValueError):  # ValidationError is a ValueError
        pass
    raise CorruptLogError(path, offset, f"{op!r} record fails the WAL schema")


class TenantWal(SegmentLog):
    """One tenant's journal: a segment log plus its checkpoint blob.

    Created through :meth:`WriteAheadLog.tenant` — opening heals a torn
    tail and continues the sequence counter where a previous process
    stopped, making append-after-recovery safe.
    """

    def __init__(
        self,
        tenant: str,
        path: Path,
        config: WalConfig,
        registry: TelemetryRegistry,
        *,
        clock: Callable[[], float] = time.monotonic,
        executor: ThreadPoolExecutor | None = None,
    ) -> None:
        super().__init__(
            path,
            registry=registry,
            prefix="serving.wal",
            segment_bytes=config.segment_bytes,
            sync_each=config.sync == "always",
        )
        self.tenant = tenant
        self.config = config
        self._clock = clock
        self._executor = executor
        self._sync_inflight = False  # a background fsync is queued or running
        self._last_fsync = float("-inf")  # clock stamp of the last real fsync
        # Hot-path counters, resolved once — registry lookup + label
        # normalisation per append would dominate the append itself.
        self._c_appends = registry.counter("serving.wal.appends", tenant=tenant)
        self._c_bytes = registry.counter("serving.wal.bytes")
        self._c_coalesced = registry.counter("serving.wal.fsyncs_coalesced")
        meta = self.path / _META
        if not meta.exists():
            meta.write_text(
                json.dumps({"tenant": tenant}, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        checkpoint = self.load_checkpoint()
        self.checkpoint_seq = checkpoint[0] if checkpoint is not None else 0
        # Compaction may have deleted every segment the checkpoint covers.
        self.seq = max(self.seq, self.checkpoint_seq)
        self.records_since_checkpoint = self.seq - self.checkpoint_seq

    # -- appends --------------------------------------------------------------

    def write(self, frame: bytes, seq: int) -> None:
        """Append pre-built frames holding records ``self.seq + 1 .. seq``.

        One ``write`` system call for the whole run, truncated back whole
        if it fails; the counters count records, not writes, so
        ``records_since_checkpoint`` and ``serving.wal.appends`` stay exact.
        """
        records = seq - self.seq
        super().write(frame, seq)
        self.records_since_checkpoint += records
        self._c_appends.inc(records)
        self._c_bytes.inc(len(frame))

    def append_arrival(self, item: Item) -> int:
        """Journal one admitted arrival; returns its sequence number."""
        return self.append_arrivals([item])

    def append_arrivals(self, items: list[Item]) -> int:
        """Journal admitted arrivals under consecutive seqs in one ``write``.

        Returns the last sequence number.  Called *before* the admission
        acknowledgements — if this raises, the segment is truncated back to
        where it was, no seq is used up, and none of ``items`` may be acked.

        The common (tagless) arrival is framed by hand — ``repr`` of a
        Python int/float is exactly what ``json.dumps`` emits, and the keys
        are written pre-sorted — producing the same canonical bytes as
        :func:`~repro.resilience.log.frame_line` at a fraction of its
        cost; the journal append sits on the admission hot path.
        ``tests/test_serving_wal.py`` pins the byte equality, so a batch
        writes exactly the bytes its records would one call each.
        """
        seq = self.seq
        frames = []
        for item in items:
            seq += 1
            if item.tags:
                frames.append(
                    frame_line(
                        {
                            "op": "arrival",
                            "id": item.id,
                            "sizes": list(item.sizes),
                            "arrival": item.arrival,
                            "departure": item.departure,
                            "tags": dict(item.tags),
                            "seq": seq,
                        }
                    ).encode("utf-8")
                )
                continue
            payload = (
                f'{{"arrival":{item.arrival!r},"departure":{item.departure!r},'
                f'"id":{item.id!r},"op":"arrival","seq":{seq!r},'
                f'"sizes":[{",".join(map(repr, item.sizes))}]}}'
            ).encode("utf-8")
            frames.append(b"%08x %s\n" % (zlib.crc32(payload), payload))
        self.write(b"".join(frames), seq)
        return seq

    def append_advance(self, t: float) -> int:
        """Journal one clock advance; returns its sequence number."""
        return self.append({"op": "advance", "t": float(t)})

    # -- group commit ---------------------------------------------------------

    def _coalesced(self) -> bool:
        """Whether a group commit now falls inside the window (and is counted)."""
        if (
            self.config.sync == "group"
            and self.config.group_window > 0
            and self._clock() - self._last_fsync < self.config.group_window
        ):
            self._c_coalesced.inc()
            return True
        return False

    def sync(self, *, force: bool = False) -> None:
        """fsync the active segment (the group-commit point).

        In ``"group"`` mode, deadline-cadence calls coalesce: when the last
        real fsync is younger than :attr:`WalConfig.group_window`, the call
        is a no-op (the bytes are already in the page cache, so process
        death loses nothing; only a whole-machine crash inside the window
        is exposed).  ``force=True`` — used by rotation, checkpoint, and
        close — always fsyncs dirty state.
        """
        if not self._dirty or (not force and self._coalesced()):
            return
        if self.fsync():
            self._last_fsync = self._clock()

    def sync_soon(self) -> None:
        """Group-commit without blocking the caller (the flush-path sync).

        The window check runs inline (no thread dispatch for the common
        no-op); the fsync itself goes to the background syncer thread, or
        runs inline for a standalone journal without an executor.
        """
        if not self._dirty or self._sync_inflight or self._coalesced():
            return
        if self._executor is None:
            self.sync()
            return
        self._sync_inflight = True
        try:
            self._executor.submit(self._sync_job)
        except RuntimeError:  # syncer already shut down: commit inline
            self._sync_inflight = False
            self.sync()

    def _sync_job(self) -> None:
        """Body of one background group commit."""
        try:
            self.sync()
        except (OSError, ValueError):
            # The segment rotated or closed underneath us — its hard-point
            # sync(force=True) already committed these bytes.
            pass
        finally:
            self._sync_inflight = False

    def rotate(self) -> None:
        """Hard-commit and close the active segment; the next append starts a fresh one."""
        self.sync(force=True)
        super().rotate()

    # -- checkpoint and compaction -------------------------------------------

    def checkpoint(self, state: object) -> int:
        """Durably checkpoint ``state`` as covering everything up to ``seq``.

        Rotates first (so the checkpoint boundary falls between segments),
        writes the pickled state as an atomic framed blob, then compacts:
        every segment whose records are all covered by the checkpoint is
        deleted.  Returns the covered sequence number.
        """
        self.rotate()
        payload = pickle.dumps(
            {"seq": self.seq, "tenant": self.tenant, "state": state},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        write_framed_blob(self.path / _CHECKPOINT, payload)
        self.checkpoint_seq = self.seq
        self.records_since_checkpoint = 0
        self._registry.counter("serving.wal.checkpoints", tenant=self.tenant).inc()
        self.compact(self.checkpoint_seq)
        return self.seq

    def load_checkpoint(self) -> tuple[int, object] | None:
        """``(covered_seq, state)`` from the checkpoint blob, if valid.

        A missing, torn, or corrupt checkpoint returns ``None``: recovery
        replays from genesis, and :meth:`replay` reports the records that
        compaction already removed.
        """
        payload = read_framed_blob(self.path / _CHECKPOINT)
        if payload is None:
            return None
        try:
            doc = pickle.loads(payload)
            return int(doc["seq"]), doc["state"]
        except Exception:
            return None

    # -- replay ---------------------------------------------------------------

    def replay(self, *, after_seq: int | None = None) -> Iterator[WalRecord]:
        """Yield journal records with ``seq > after_seq`` in order.

        ``after_seq`` defaults to the checkpoint's covered sequence number,
        and then the oldest segment must start right after it.  Once
        compaction has removed the first records, a damaged
        ``checkpoint.ckpt`` raises rather than letting the tenant restart
        empty.  Mid-file
        corruption, schema damage included, raises
        :class:`~repro.resilience.CorruptLogError` (counted in
        ``serving.wal.corrupt_records``).
        """
        try:
            if after_seq is None:
                after_seq = self.checkpoint_seq
                found = segments(self.path)
                if found and found[0][0] > after_seq + 1:
                    first, path = found[0]
                    raise CorruptLogError(
                        path, 0, f"records {after_seq + 1}..{first - 1} are missing: "
                        "no checkpoint covers them"
                    )
                checkpoint = self.path / _CHECKPOINT
                if (
                    (not found or found[0][0] > 1)
                    and checkpoint.exists()
                    and self.load_checkpoint() is None
                ):
                    raise CorruptLogError(
                        checkpoint, 0, "checkpoint is unreadable and compaction "
                        "removed the records it covered"
                    )
            for record, path, offset in read_log(self.path, after_seq=after_seq):
                yield _decode(record, path, offset)
        except CorruptLogError:
            self._registry.counter("serving.wal.corrupt_records").inc()
            raise

    def close(self) -> None:
        """Sync and close the active segment handle."""
        self.rotate()


class WriteAheadLog:
    """A directory of per-tenant journals.

    Args:
        root: The journal directory (created on demand); one directory
            serves one runtime at a time.
        config: Durability knobs shared by every tenant journal.
        registry: Telemetry registry the ``serving.wal.*`` counters live in
            (``None``: a private one).
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        config: WalConfig | None = None,
        registry: TelemetryRegistry | None = None,
    ) -> None:
        self.root = Path(root)
        self.config = config if config is not None else WalConfig()
        self.registry = registry if registry is not None else TelemetryRegistry()
        self._tenants: dict[str, TenantWal] = {}
        # One syncer thread serialises every tenant's windowed group
        # commits; the thread itself only spawns on the first submit.
        self._syncer = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="wal-sync")
            if self.config.sync == "group" and self.config.group_window > 0
            else None
        )

    def tenant(self, tenant: str) -> TenantWal:
        """The (cached) journal for ``tenant``, opened on first use."""
        wal = self._tenants.get(tenant)
        if wal is None:
            wal = TenantWal(
                tenant,
                self.root / _tenant_dirname(tenant),
                self.config,
                self.registry,
                executor=self._syncer,
            )
            self._tenants[tenant] = wal
        return wal

    def has_tenant(self, tenant: str) -> bool:
        """True when ``tenant`` has journal state on disk (or open here)."""
        if tenant in self._tenants:
            return True
        return (self.root / _tenant_dirname(tenant) / _META).exists()

    def tenants(self) -> list[str]:
        """Raw tenant ids with on-disk journal state, sorted."""
        names = []
        try:
            entries = sorted(os.listdir(self.root))
        except OSError:
            return []
        for entry in entries:
            meta = self.root / entry / _META
            try:
                doc = json.loads(meta.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            tenant = doc.get("tenant")
            if isinstance(tenant, str):
                names.append(tenant)
        return sorted(names)

    def close(self) -> None:
        """Sync and close every open tenant journal.

        Drains the background syncer first so no in-flight group commit
        races the final hard-point sync and close of each segment.
        """
        if self._syncer is not None:
            self._syncer.shutdown(wait=True)
            self._syncer = None
        for wal in self._tenants.values():
            wal.close()

    def __repr__(self) -> str:
        return f"WriteAheadLog({str(self.root)!r}, sync={self.config.sync!r})"
