"""Sharded, work-stealing ratio sweeps over a shared coordinator directory.

:func:`~repro.analysis.run_sweep` fans a cell grid over one process pool on
one host.  This module scales the same grid across N *shard workers* that
coordinate through nothing but a directory — local processes today, separate
hosts sharing a filesystem tomorrow:

* the **driver** writes a ``manifest.json`` naming every cell (task specs +
  canonical keys) and the sweep settings, then spawns workers (or lets
  ``repro sweep-worker`` processes attach independently);
* **workers** lease chunks of cells from a
  :class:`~repro.resilience.LeaseBoard` — work stealing, not static
  partitioning, because B&B cell costs vary by orders of magnitude — and run
  each cell through the existing :func:`~repro.analysis.run_sweep` machinery
  (serial executor, per-cell retries, deadlines, chaos) with their **own**
  :class:`~repro.resilience.CheckpointJournal` and
  :class:`~repro.algorithms.MemoCache`;
* a worker that dies mid-chunk simply stops renewing its lease; after the
  TTL any surviving worker **steals** the chunk, skips the cells already in
  some shard's journal, and finishes the rest — no cell lost, none run twice
  except in the benign steal-overlap window, and settlement is deduplicated
  by task key at merge time;
* the **driver merges** deterministically in input task order: outcomes are
  rebuilt from the union of the shard journals, telemetry is merged cell by
  cell exactly like single-host ``run_sweep``, and per-shard memo caches
  fold into one file through :meth:`~repro.algorithms.MemoCache.save`'s
  atomic merge path.

Results are bit-identical to a single-host ``run_sweep`` over the same
tasks (the parity battery in ``tests/test_distributed.py`` gates this), and
a rerun pointed at the same coordinator directory restores completed cells
from the shard journals instead of recomputing them.  See
``docs/DISTRIBUTED.md``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..algorithms.adversary import MemoCache
from ..core.exceptions import ReproError, ValidationError
from ..obs import TelemetryRegistry
from ..resilience import ChaosInjector, CheckpointJournal, LeaseBoard, RetryPolicy, task_key
from ..resilience.lease import _DONE_DIR, _LEASE_DIR
from .parallel import (
    WORKLOAD_GENERATORS,
    SweepOutcome,
    SweepTask,
    _outcome_from_record,
    _outcome_record,
    _task_spec,
    run_sweep,
)

__all__ = [
    "GcReport",
    "ShardCoordinator",
    "ShardWorkerReport",
    "run_shard_worker",
    "run_sharded_sweep",
]

_MANIFEST = "manifest.json"
_JOURNAL_DIR = "journals"
_MEMO_DIR = "memos"


@dataclass(frozen=True)
class _Manifest:
    """The parsed coordinator manifest: the grid plus its sweep settings."""

    tasks: tuple[SweepTask, ...]
    keys: tuple[str, ...]
    chunk_size: int
    lease_ttl: float
    retry: RetryPolicy | None
    deadline: float | None

    @property
    def n_chunks(self) -> int:
        """How many lease-able chunks the grid divides into."""
        return (len(self.tasks) + self.chunk_size - 1) // self.chunk_size

    def chunk_cells(self, chunk: int) -> range:
        """The grid-global cell indices belonging to ``chunk``."""
        start = chunk * self.chunk_size
        return range(start, min(start + self.chunk_size, len(self.tasks)))


@dataclass
class ShardWorkerReport:
    """What one worker did over its lifetime on the board.

    Attributes:
        worker: The worker's identifier.
        cells_run: Cells this worker actually computed.
        cells_skipped: Cells found already settled in some shard journal
            (driver resume or another worker's work on a stolen chunk).
        chunks_completed: Chunks whose done marker this worker won.
        chunks_stolen: Claims that superseded an expired lease.
        leases_lost: Chunks abandoned because the lease was stolen or
            settled from under this worker mid-chunk.
    """

    worker: str
    cells_run: int = 0
    cells_skipped: int = 0
    chunks_completed: int = 0
    chunks_stolen: int = 0
    leases_lost: int = 0

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for JSON reports."""
        return dataclasses.asdict(self)


class ShardCoordinator:
    """The shared directory N shard workers coordinate a sweep through.

    Layout::

        <root>/manifest.json        task specs, keys, chunking, settings
        <root>/leases/              generation-numbered chunk leases
        <root>/done/                exactly-once chunk completion markers
        <root>/journals/<w>/        per-shard CheckpointJournal of outcomes
        <root>/memos/<w>.pkl        per-shard adversary MemoCache

    Args:
        root: The coordinator directory (created on demand).
        clock: Time source for lease expiry; injectable for tests.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self._clock = clock
        self._manifest: _Manifest | None = None

    # -- manifest ------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Path of the manifest file."""
        return self.root / _MANIFEST

    def initialize(
        self,
        tasks: Sequence[SweepTask],
        *,
        chunk_size: int = 1,
        lease_ttl: float = 30.0,
        retry: RetryPolicy | None = None,
        deadline: float | None = None,
    ) -> _Manifest:
        """Write (or verify) the manifest; idempotent for identical grids.

        Re-initialising an existing coordinator with the same tasks and
        settings is the resume path and changes nothing on disk; a
        different grid or settings raises
        :class:`~repro.core.ValidationError` — one coordinator directory
        describes exactly one sweep.
        """
        if chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        for task in tasks:
            if task.workload not in WORKLOAD_GENERATORS:
                raise ValidationError(
                    f"unknown workload {task.workload!r}; "
                    f"available: {sorted(WORKLOAD_GENERATORS)}"
                )
        payload = {
            "version": 1,
            "chunk_size": int(chunk_size),
            "lease_ttl": float(lease_ttl),
            "retry": dataclasses.asdict(retry) if retry is not None else None,
            "deadline": deadline,
            "tasks": [_task_spec(task) for task in tasks],
        }
        if self.manifest_path.exists():
            existing = json.loads(self.manifest_path.read_text())
            if existing != json.loads(json.dumps(payload)):
                raise ValidationError(
                    f"coordinator {self.root} already holds a different sweep; "
                    "use a fresh directory (or identical tasks and settings "
                    "to resume)"
                )
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.manifest_path.with_name(f"{_MANIFEST}.tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
            os.replace(tmp, self.manifest_path)
        self._manifest = None
        return self.manifest()

    def manifest(self) -> _Manifest:
        """The parsed manifest (cached after first load)."""
        if self._manifest is not None:
            return self._manifest
        try:
            data = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"coordinator {self.root} has no readable manifest: {exc}"
            ) from exc
        tasks = tuple(
            SweepTask(
                packer=spec["packer"],
                workload=spec["workload"],
                packer_kwargs=spec.get("packer_kwargs") or {},
                workload_kwargs=spec.get("workload_kwargs") or {},
                label=spec.get("label") or "",
            )
            for spec in data["tasks"]
        )
        retry_data = data.get("retry")
        self._manifest = _Manifest(
            tasks=tasks,
            keys=tuple(task_key(_task_spec(task)) for task in tasks),
            chunk_size=int(data["chunk_size"]),
            lease_ttl=float(data["lease_ttl"]),
            retry=RetryPolicy(**retry_data) if retry_data else None,
            deadline=data.get("deadline"),
        )
        return self._manifest

    # -- per-shard resources -------------------------------------------------

    def board(self) -> LeaseBoard:
        """The coordinator's :class:`~repro.resilience.LeaseBoard`."""
        return LeaseBoard(
            self.root, ttl=self.manifest().lease_ttl, clock=self._clock
        )

    def journal_path(self, worker: str) -> Path:
        """The :class:`~repro.resilience.CheckpointJournal` path of a shard."""
        return self.root / _JOURNAL_DIR / worker

    def memo_path(self, worker: str) -> Path:
        """The :class:`~repro.algorithms.MemoCache` path of a shard."""
        return self.root / _MEMO_DIR / f"{worker}.pkl"

    # -- merged views --------------------------------------------------------

    def settled(
        self, registry: TelemetryRegistry | None = None
    ) -> dict[str, dict[str, object]]:
        """Union of every shard journal, keyed by task key.

        Journals are folded in sorted worker order with last-write-wins
        inside each one, so the merge is deterministic; duplicated keys
        (benign steal overlap) carry identical measurements by construction,
        so each cell is settled exactly once regardless of which copy wins.
        Corrupt records read as unsettled and are counted in ``registry``.
        """
        merged: dict[str, dict[str, object]] = {}
        journal_dir = self.root / _JOURNAL_DIR
        if not journal_dir.is_dir():
            return merged
        for path in sorted(journal_dir.iterdir()):
            journal = CheckpointJournal(path)
            merged.update(journal.load())
            if registry is not None:
                registry.merge(journal.registry)
        return merged

    def results(
        self, *, resumed_keys: frozenset[str] | set[str] = frozenset()
    ) -> list[SweepOutcome]:
        """Outcomes for every manifest task, in input task order.

        ``from_checkpoint`` is set only for cells whose key appears in
        ``resumed_keys`` (the driver passes the keys that were already
        settled before this run started), mirroring single-host
        ``run_sweep`` checkpoint semantics.

        Raises:
            ReproError: when any cell is still unsettled.
        """
        manifest = self.manifest()
        settled = self.settled()
        missing = [k for k in manifest.keys if k not in settled]
        if missing:
            raise ReproError(
                f"coordinator {self.root} is missing {len(missing)} of "
                f"{len(manifest.keys)} cells; are workers still running?"
            )
        outcomes = []
        for task, key in zip(manifest.tasks, manifest.keys):
            outcome = _outcome_from_record(task, settled[key])
            if key not in resumed_keys:
                outcome = dataclasses.replace(outcome, from_checkpoint=False)
            outcomes.append(outcome)
        return outcomes

    def merge_memos(self, dest: str | os.PathLike[str]) -> int:
        """Fold every shard memo into one cache file at ``dest``.

        Uses :meth:`~repro.algorithms.MemoCache.save`'s atomic, locked
        merge path, so a concurrent merge (or a still-running worker's
        save) cannot corrupt the destination.  Returns the number of
        entries in the merged file.
        """
        final = MemoCache(dest)
        memo_dir = self.root / _MEMO_DIR
        if memo_dir.is_dir():
            for path in sorted(memo_dir.glob("*.pkl")):
                final.merge_from(MemoCache(path))
        return final.save()

    def all_done(self) -> bool:
        """Whether every chunk has a done marker."""
        return self.board().all_done(self.manifest().n_chunks)

    # -- garbage collection ---------------------------------------------------

    def gc(self, *, force: bool = False, keep_manifest: bool = True) -> "GcReport":
        """Remove the working state of a **completed** sweep.

        Deletes the lease files, done markers, shard journals and shard
        memo caches — everything that only mattered while workers were
        running.  The manifest stays by default as a record of what the
        sweep was (``keep_manifest=False`` removes the whole coordinator
        directory).  Settled results must be merged (``results()`` /
        ``merge_memos()``) *before* collecting: after gc they are gone.

        Args:
            force: Collect even when cells are still unsettled — for
                abandoning a sweep, never for one you still want.
            keep_manifest: Keep ``manifest.json`` (and the directory).

        Raises:
            ReproError: when the sweep is incomplete and ``force`` is not
                set (a running worker's journal must not vanish under it).
        """
        import shutil

        try:
            manifest = self.manifest()
        except ReproError:
            if not force:
                raise
            manifest = None
        if manifest is not None and not force:
            settled = self.settled()
            missing = [k for k in manifest.keys if k not in settled]
            if missing:
                raise ReproError(
                    f"coordinator {self.root} still has {len(missing)} of "
                    f"{len(manifest.keys)} cells unsettled; finish the sweep "
                    "or pass force=True to abandon it"
                )
        removed_files = 0
        reclaimed = 0
        for sub in (_LEASE_DIR, _DONE_DIR, _JOURNAL_DIR, _MEMO_DIR):
            directory = self.root / sub
            if not directory.is_dir():
                continue
            for path in directory.rglob("*"):
                if path.is_file():
                    try:
                        reclaimed += path.stat().st_size
                        removed_files += 1
                    except OSError:  # pragma: no cover - concurrent cleanup
                        pass
            shutil.rmtree(directory, ignore_errors=True)
        if not keep_manifest:
            if self.manifest_path.exists():
                try:
                    reclaimed += self.manifest_path.stat().st_size
                    removed_files += 1
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
            shutil.rmtree(self.root, ignore_errors=True)
            self._manifest = None
        return GcReport(
            coordinator=str(self.root),
            removed_files=removed_files,
            reclaimed_bytes=reclaimed,
            kept_manifest=keep_manifest,
        )

    def __repr__(self) -> str:
        return f"ShardCoordinator({str(self.root)!r})"


@dataclass(frozen=True)
class GcReport:
    """What :meth:`ShardCoordinator.gc` removed.

    Attributes:
        coordinator: The collected coordinator directory.
        removed_files: Lease/done/journal/memo files deleted.
        reclaimed_bytes: Total size of the deleted files.
        kept_manifest: Whether ``manifest.json`` (and the directory) remain.
    """

    coordinator: str
    removed_files: int
    reclaimed_bytes: int
    kept_manifest: bool


def run_shard_worker(
    coordinator_dir: str | os.PathLike[str],
    worker: str,
    *,
    chaos: ChaosInjector | None = None,
    poll_interval: float = 0.05,
    clock: Callable[[], float] = time.time,
    registry: TelemetryRegistry | None = None,
    wait_manifest: float = 0.0,
) -> ShardWorkerReport:
    """Drain the coordinator's board: claim, compute, journal, repeat.

    The worker loops over unclaimed chunks (stealing expired leases), runs
    each not-yet-settled cell through :func:`~repro.analysis.run_sweep`
    (serial executor, the manifest's retry/deadline settings, grid-global
    ``index_offset`` so chaos targeting and fault messages match a
    single-host sweep), appends every settled cell — errors included — to
    its own journal, and renews its lease between cells.  It returns when
    every chunk is done, which makes ``repro sweep-worker`` processes
    free to start and stop independently of the driver.

    Args:
        coordinator_dir: An initialised :class:`ShardCoordinator` root.
        worker: This worker's identifier (journal/memo filename stem).
        chaos: Optional seeded fault injector, forwarded to every cell.
        poll_interval: Sleep between scans while other workers hold all
            remaining leases.
        clock: Lease-expiry time source; injectable for tests.
        registry: Optional registry for ``distributed.worker.*`` and
            ``resilience.journal.*`` counters.
        wait_manifest: Seconds to wait for the driver to write the
            manifest before giving up — lets ``repro sweep-worker``
            processes start ahead of the driver.
    """
    coordinator = ShardCoordinator(coordinator_dir, clock=clock)
    give_up = time.time() + wait_manifest
    while True:
        try:
            manifest = coordinator.manifest()
            break
        except ReproError:
            if time.time() >= give_up:
                raise
            time.sleep(min(0.1, max(poll_interval, 0.01)))
    board = coordinator.board()
    journal = CheckpointJournal(coordinator.journal_path(worker))
    memo_path = coordinator.memo_path(worker)
    memo_path.parent.mkdir(parents=True, exist_ok=True)
    report = ShardWorkerReport(worker=worker)
    while True:
        progress = False
        for chunk in range(manifest.n_chunks):
            if board.is_done(chunk):
                continue
            lease = board.claim(chunk, worker)
            if lease is None:
                continue
            progress = True
            if lease.generation > 0:
                report.chunks_stolen += 1
            settled = coordinator.settled()
            abandoned = False
            for cell in manifest.chunk_cells(chunk):
                key = manifest.keys[cell]
                if key in settled:
                    report.cells_skipped += 1
                    continue
                outcome = run_sweep(
                    [manifest.tasks[cell]],
                    executor="serial",
                    memo_path=str(memo_path),
                    retry=manifest.retry,
                    deadline=manifest.deadline,
                    chaos=chaos,
                    index_offset=cell,
                )[0]
                journal.append(key, _outcome_record(outcome))
                report.cells_run += 1
                if not board.renew(lease):
                    # Stolen from under us: the thief re-runs what we did
                    # not journal; what we did journal is deduplicated.
                    report.leases_lost += 1
                    abandoned = True
                    break
            if not abandoned and board.complete(
                chunk, worker, {"cells": len(manifest.chunk_cells(chunk))}
            ):
                report.chunks_completed += 1
        if board.all_done(manifest.n_chunks):
            break
        if not progress:
            time.sleep(poll_interval)
    journal.close()
    if registry is not None:
        registry.merge(journal.registry)
        registry.counter("distributed.worker.cells_run").inc(report.cells_run)
        registry.counter("distributed.worker.cells_skipped").inc(report.cells_skipped)
        registry.counter("distributed.worker.chunks_completed").inc(
            report.chunks_completed
        )
        registry.counter("distributed.worker.chunks_stolen").inc(report.chunks_stolen)
        registry.counter("distributed.worker.leases_lost").inc(report.leases_lost)
    return report


def _spawn_context() -> multiprocessing.context.BaseContext:
    """The cheapest available multiprocessing context (fork where it exists)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_sharded_sweep(
    tasks: Sequence[SweepTask],
    *,
    shards: int = 2,
    coordinator_dir: str | os.PathLike[str] | None = None,
    chunk_size: int | None = None,
    lease_ttl: float = 30.0,
    memo_path: str | None = None,
    registry: TelemetryRegistry | None = None,
    retry: RetryPolicy | None = None,
    deadline: float | None = None,
    chaos: ChaosInjector | None = None,
    poll_interval: float = 0.05,
) -> list[SweepOutcome]:
    """Run a sweep across N shard workers; results in input task order.

    The drop-in sharded counterpart of :func:`~repro.analysis.run_sweep`:
    same outcomes (the parity suite gates bit-identical measurements), same
    deterministic task-order telemetry merge into ``registry``, but the
    grid is leased out chunk by chunk to ``shards`` worker processes that
    survive each other's crashes.  Pointing a second run at the same
    ``coordinator_dir`` resumes: cells already in shard journals are
    restored (``from_checkpoint=True``) instead of recomputed.

    Args:
        tasks: The experiment cells.
        shards: Worker processes to spawn (>= 1).  Additional external
            ``repro sweep-worker`` processes may attach to the same
            coordinator concurrently.
        coordinator_dir: Shared coordinator directory; ``None`` uses a
            private temporary directory (no resume).
        chunk_size: Cells per lease; default sizes chunks so each shard
            sees several claims, keeping stealing effective under skew.
        lease_ttl: Seconds before an unrenewed lease may be stolen.
        memo_path: Optional path the per-shard adversary memo caches are
            merged into after the sweep (atomic merge-on-save).
        registry: Optional driver-side registry; cell telemetry merges in
            task order plus ``distributed.*`` counters.
        retry: Per-cell :class:`~repro.resilience.RetryPolicy`, recorded in
            the manifest so external workers apply it too.
        deadline: Per-cell adversary wall-clock budget in seconds.
        chaos: Optional seeded :class:`~repro.resilience.ChaosInjector`
            forwarded to every worker (tests and failure rehearsals only).
        poll_interval: Worker idle-scan sleep.

    Raises:
        ValidationError: for unknown workloads, bad shard/chunk counts, or
            a coordinator directory holding a different sweep.
    """
    if shards < 1:
        raise ValidationError(f"shards must be >= 1, got {shards}")
    if not tasks:
        return []
    if chunk_size is None:
        chunk_size = max(1, len(tasks) // (shards * 8))
    tmp_dir: tempfile.TemporaryDirectory[str] | None = None
    if coordinator_dir is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-sweep-")
        coordinator_dir = tmp_dir.name
    try:
        coordinator = ShardCoordinator(coordinator_dir)
        coordinator.initialize(
            tasks,
            chunk_size=chunk_size,
            lease_ttl=lease_ttl,
            retry=retry,
            deadline=deadline,
        )
        resumed_keys = frozenset(coordinator.settled())
        ctx = _spawn_context()
        workers = [
            ctx.Process(
                target=run_shard_worker,
                args=(str(coordinator_dir), f"shard-{k}"),
                kwargs={"chaos": chaos, "poll_interval": poll_interval},
                daemon=True,
            )
            for k in range(shards)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join()
        if not coordinator.all_done():
            # Crash recovery of last resort: every worker died (or none was
            # spawned to steal a dead worker's lease) — finish inline.
            run_shard_worker(
                str(coordinator_dir),
                "driver",
                chaos=chaos,
                poll_interval=poll_interval,
            )
        # A done marker proves its chunk ran, but a journal damaged after
        # the fact (corrupt records are reported and left out on load) can
        # still lose settled records; recompute those cells inline under
        # the driver's own journal before merging.
        manifest = coordinator.manifest()
        settled_now = coordinator.settled(registry)
        missing = [
            cell
            for cell, key in enumerate(manifest.keys)
            if key not in settled_now
        ]
        if missing:
            journal = CheckpointJournal(coordinator.journal_path("driver"))
            driver_memo = coordinator.memo_path("driver")
            driver_memo.parent.mkdir(parents=True, exist_ok=True)
            for cell in missing:
                outcome = run_sweep(
                    [manifest.tasks[cell]],
                    executor="serial",
                    memo_path=str(driver_memo),
                    retry=retry,
                    deadline=deadline,
                    chaos=chaos,
                    index_offset=cell,
                )[0]
                journal.append(manifest.keys[cell], _outcome_record(outcome))
            journal.close()
        outcomes = coordinator.results(resumed_keys=resumed_keys)
        if memo_path is not None:
            coordinator.merge_memos(memo_path)
        if registry is not None:
            for outcome in outcomes:
                registry.merge(outcome.telemetry)
            manifest = coordinator.manifest()
            board = coordinator.board()
            registry.gauge("distributed.shards").set(shards)
            registry.counter("distributed.chunks").inc(manifest.n_chunks)
            stolen = sum(
                1
                for chunk in range(manifest.n_chunks)
                if (board.holder(chunk) or {}).get("generation", 0) > 0
            )
            if stolen:
                registry.counter("distributed.chunks_stolen").inc(stolen)
            if resumed_keys:
                resumed = sum(1 for o in outcomes if o.from_checkpoint)
                if resumed:
                    registry.counter("resilience.sweep.cells_resumed").inc(resumed)
        return outcomes
    finally:
        if tmp_dir is not None:
            tmp_dir.cleanup()
