"""Parallel experiment execution over seed/parameter grids, fault-tolerant.

Ratio sweeps are embarrassingly parallel: each (algorithm, workload, seed)
cell is independent, and the exact ``opt_total`` denominator dominates the
cell's cost.  This module fans cells out over a ``ProcessPoolExecutor``
(bypassing the GIL — the work is pure Python/numpy compute), following the
HPC guides' guidance to parallelise at the outermost independent loop.

Partial failure is first-class, not fatal:

* a worker exception (or a ``BrokenProcessPool`` taking the whole pool
  down) **isolates** to its cell — the sweep completes and the cell
  surfaces as a :class:`SweepOutcome` with its ``error`` field set;
* failed cells are **retried** per the sweep's
  :class:`~repro.resilience.RetryPolicy` (exponential backoff,
  deterministic jitter), in a fresh pool each round so a broken pool never
  poisons the retry;
* a :class:`~repro.resilience.CheckpointJournal` (``checkpoint=``) records
  each completed cell as it finishes, so an interrupted sweep **resumes**
  its completed cells on rerun with bit-identical results;
* a per-cell wall-clock ``deadline`` bounds the exact adversary, degrading
  to certified bounds (``exact=False``) instead of running unbounded.

Tasks are plain picklable dataclasses naming registered packers and workload
generators, so worker processes can reconstruct everything from the spec —
no closures cross the process boundary.  Retry, resume and failure events
increment ``resilience.sweep.*`` telemetry cells in the driver registry.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..algorithms.adversary import MemoCache
from ..algorithms.base import get_packer
from ..algorithms.optimal import SolverStats
from ..core.exceptions import ValidationError
from ..obs import TelemetryRegistry, TelemetrySnapshot, enabled as _telemetry_enabled
from ..resilience import ChaosInjector, CheckpointJournal, RetryPolicy, task_key
from ..resilience.deadline import Deadline
from ..workloads import (
    bounded_mu,
    bursty,
    cluster_tasks,
    gaming_sessions,
    poisson_exponential,
    trace_workload,
    uniform_random,
    vector_uniform,
)
from .ratios import measured_ratio

__all__ = ["SweepTask", "SweepOutcome", "run_sweep", "WORKLOAD_GENERATORS"]

#: Workload generators addressable by name from task specs.
WORKLOAD_GENERATORS = {
    "uniform": uniform_random,
    "poisson": poisson_exponential,
    "bounded-mu": bounded_mu,
    "bursty": bursty,
    "gaming": gaming_sessions,
    "cluster": cluster_tasks,
    "vector": vector_uniform,
    "trace": trace_workload,
}


@dataclass(frozen=True)
class SweepTask:
    """One experiment cell.

    Attributes:
        packer: Registered packer name.
        packer_kwargs: Constructor arguments.
        workload: Generator name from :data:`WORKLOAD_GENERATORS`.
        workload_kwargs: Generator arguments **including** ``seed`` (and the
            leading count argument as ``n`` where applicable).
        label: Free-form tag copied into the outcome.
    """

    packer: str
    workload: str
    packer_kwargs: Mapping[str, object] = field(default_factory=dict)
    workload_kwargs: Mapping[str, object] = field(default_factory=dict)
    label: str = ""


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one cell: the measured ratio plus identifying fields.

    ``solver`` carries the cell's adversary counters
    (:class:`~repro.algorithms.SolverStats`): nodes, prunes, memo and
    warm-start hits — merge them across outcomes for a sweep-level view.
    ``telemetry`` is the worker's full
    :class:`~repro.obs.TelemetrySnapshot` (the solver counters plus the
    cell's spans), ready to :meth:`~repro.obs.TelemetryRegistry.merge` into
    a driver-side registry.

    Attributes:
        error: ``None`` on success; otherwise ``"ExcType: message"`` for a
            cell that exhausted its retries (``usage``/``denominator``/
            ``ratio`` are 0.0 and ``exact`` False in that case).
        attempts: Attempts consumed, including the successful one.
        from_checkpoint: True when the cell was restored from a
            :class:`~repro.resilience.CheckpointJournal` instead of run.
        degraded_reason: Set when the adversary degraded to certified
            bounds (``"deadline"``, ``"node_budget"``,
            ``"instance_too_large"``, ``"vector_dims"``); ``None`` when
            exact.
    """

    task: SweepTask
    usage: float
    denominator: float
    ratio: float
    exact: bool
    solver: SolverStats = field(default_factory=SolverStats, compare=False)
    telemetry: TelemetrySnapshot = field(
        default_factory=TelemetrySnapshot, compare=False
    )
    error: str | None = None
    attempts: int = 1
    from_checkpoint: bool = False
    degraded_reason: str | None = None

    @property
    def ok(self) -> bool:
        """True when the cell produced a measurement (``error`` is None)."""
        return self.error is None


def _run_one(
    task: SweepTask,
    index: int = 0,
    attempt: int = 0,
    memo_path: str | None = None,
    chaos: ChaosInjector | None = None,
    deadline_s: float | None = None,
) -> SweepOutcome:
    """Worker entry point (module-level for pickling)."""
    if chaos is not None and chaos.crashes(index, attempt):
        from ..resilience.chaos import InjectedFault

        raise InjectedFault(f"chaos: injected crash (cell {index}, attempt {attempt})")
    registry = TelemetryRegistry()
    generator = WORKLOAD_GENERATORS[task.workload]
    kwargs = dict(task.workload_kwargs)
    n = kwargs.pop("n", None)
    packer = get_packer(task.packer, **dict(task.packer_kwargs))
    stats = SolverStats(registry=registry)
    memo = MemoCache(memo_path, registry=registry) if memo_path is not None else None
    deadline = Deadline.after(deadline_s) if deadline_s is not None else None
    if chaos is not None and chaos.solver_stall > 0:
        # The stall burns into the already-started deadline, exactly like a
        # wedged solver would; degradation must still answer in bounded time.
        time.sleep(chaos.solver_stall)
    timed = _telemetry_enabled()
    t0 = time.perf_counter() if timed else 0.0
    with registry.span("sweep.cell"):
        items = generator(n, **kwargs) if n is not None else generator(**kwargs)
        m = measured_ratio(packer, items, memo=memo, stats=stats, deadline=deadline)
    if timed:
        registry.histogram("sweep.cell_latency").observe(time.perf_counter() - t0)
    if memo is not None:
        memo.save()
    registry.counter("sweep.cells").inc()
    return SweepOutcome(
        task=task,
        usage=m.usage,
        denominator=m.denominator,
        ratio=m.ratio,
        exact=m.exact,
        solver=stats,
        telemetry=registry.snapshot(),
        attempts=attempt + 1,
        degraded_reason=m.degraded_reason,
    )


# ---------------------------------------------------------------------------
# Checkpoint (de)serialisation
# ---------------------------------------------------------------------------


def _task_spec(task: SweepTask) -> dict[str, object]:
    """The JSON-safe identity of a task, hashed into its checkpoint key."""
    return {
        "packer": task.packer,
        "packer_kwargs": dict(task.packer_kwargs),
        "workload": task.workload,
        "workload_kwargs": dict(task.workload_kwargs),
        "label": task.label,
    }


def _outcome_record(outcome: SweepOutcome) -> dict[str, object]:
    """A settled cell as a JSON-safe journal record (floats via ``repr``).

    ``error`` is recorded so sharded sweeps can journal cells that exhausted
    their retries; ``run_sweep`` itself only ever journals successes.
    """
    return {
        "label": outcome.task.label,
        "usage": outcome.usage,
        "denominator": outcome.denominator,
        "ratio": outcome.ratio,
        "exact": outcome.exact,
        "degraded_reason": outcome.degraded_reason,
        "error": outcome.error,
        "attempts": outcome.attempts,
        "solver": outcome.solver.as_dict(),
        "telemetry": outcome.telemetry.as_dict(),
    }


def _outcome_from_record(task: SweepTask, record: Mapping[str, object]) -> SweepOutcome:
    """Rebuild a checkpointed cell; inverse of :func:`_outcome_record`."""
    solver_data = record.get("solver")
    telemetry_data = record.get("telemetry")
    return SweepOutcome(
        task=task,
        usage=float(record["usage"]),  # type: ignore[arg-type]
        denominator=float(record["denominator"]),  # type: ignore[arg-type]
        ratio=float(record["ratio"]),  # type: ignore[arg-type]
        exact=bool(record["exact"]),
        solver=(
            SolverStats.from_dict(solver_data)  # type: ignore[arg-type]
            if isinstance(solver_data, Mapping)
            else SolverStats()
        ),
        telemetry=(
            TelemetrySnapshot.from_dict(telemetry_data)  # type: ignore[arg-type]
            if isinstance(telemetry_data, Mapping)
            else TelemetrySnapshot()
        ),
        error=record.get("error"),  # type: ignore[arg-type]
        attempts=int(record.get("attempts") or 1),  # type: ignore[arg-type]
        from_checkpoint=True,
        degraded_reason=record.get("degraded_reason"),  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    max_workers: int | None = None,
    executor: str = "process",
    memo_path: str | None = None,
    registry: TelemetryRegistry | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: str | None = None,
    deadline: float | None = None,
    chaos: ChaosInjector | None = None,
    index_offset: int = 0,
) -> list[SweepOutcome]:
    """Execute tasks, in parallel by default; order follows the input.

    Outcomes are always returned (and merged) in **input task order**, not
    completion order, so sweep reports and ``"last"``-aggregated gauges are
    deterministic regardless of worker scheduling.

    Failure semantics: a cell whose worker raises (or whose process pool
    breaks) is retried per ``retry``; a cell that exhausts its retries is
    returned as an error outcome (:attr:`SweepOutcome.error` set) instead of
    aborting the sweep.  Each retry round runs in a **fresh** pool, so even
    a ``BrokenProcessPool`` only costs the round's unfinished cells one
    extra attempt.

    Args:
        tasks: The experiment cells.
        max_workers: Worker count (``None`` = executor default).
        executor: ``"process"`` (default; true parallelism),
            ``"thread"`` (useful under debuggers), or ``"serial"``.
        memo_path: Optional path of a disk-backed adversary
            :class:`~repro.algorithms.MemoCache` shared by every cell: each
            worker loads it before measuring and merge-saves after, so
            repeated runs (and cells sharing slices) stop recomputing
            identical bin packing instances.
        registry: Optional driver-side :class:`~repro.obs.TelemetryRegistry`
            every cell's telemetry snapshot is merged into (in task order),
            plus the driver's ``resilience.sweep.*`` counters.
        retry: :class:`~repro.resilience.RetryPolicy` for failed cells;
            ``None`` means no retries (crash isolation still applies).
        checkpoint: Optional directory of a
            :class:`~repro.resilience.CheckpointJournal`: completed cells
            are appended as they finish, and cells already in the journal
            are restored instead of rerun (``from_checkpoint=True``).
        deadline: Optional per-cell wall-clock budget in seconds for the
            exact adversary; on expiry the cell degrades to certified
            bounds (``exact=False``, ``degraded_reason="deadline"``).
        chaos: Optional seeded :class:`~repro.resilience.ChaosInjector`
            (fault-injection tests and failure rehearsals only).
        index_offset: Added to each task's position when deriving its cell
            index (chaos targeting, injected-fault messages).  Sharded
            sweeps pass the cell's grid-global index here so a shard
            running a sub-range behaves — and fails — exactly like the
            same cells in a single-host sweep.

    Raises:
        ValidationError: for unknown workload names or executor kinds.
    """
    for task in tasks:
        if task.workload not in WORKLOAD_GENERATORS:
            raise ValidationError(
                f"unknown workload {task.workload!r}; "
                f"available: {sorted(WORKLOAD_GENERATORS)}"
            )
    if executor not in ("serial", "thread", "process"):
        raise ValidationError(f"unknown executor {executor!r}")
    retry = RetryPolicy() if retry is None else retry

    journal = CheckpointJournal(checkpoint) if checkpoint else None
    keys: list[str] = []
    completed: dict[int, SweepOutcome] = {}
    resumed = checkpointed = crashes = retried = failed_cells = 0
    if journal is not None:
        saved = journal.load()
        keys = [task_key(_task_spec(task)) for task in tasks]
        for i, task in enumerate(tasks):
            record = saved.get(keys[i])
            if record is not None:
                completed[i] = _outcome_from_record(task, record)
                resumed += 1

    def record_success(i: int, outcome: SweepOutcome) -> None:
        nonlocal checkpointed
        completed[i] = outcome
        if journal is not None:
            # Appended as cells finish (not at sweep end), so a killed run
            # keeps everything completed so far.
            journal.append(keys[i], _outcome_record(outcome))
            checkpointed += 1

    pending = [i for i in range(len(tasks)) if i not in completed]
    attempt = 0
    while pending:
        if attempt > 0:
            delay = retry.delay(attempt - 1, key=f"sweep-round-{attempt}")
            if delay > 0:
                time.sleep(delay)
        failures: list[tuple[int, str]] = []
        if executor == "serial":
            for i in pending:
                try:
                    outcome = _run_one(
                        tasks[i], index_offset + i, attempt, memo_path, chaos, deadline
                    )
                except Exception as exc:  # noqa: BLE001 - crash isolation
                    failures.append((i, f"{type(exc).__name__}: {exc}"))
                else:
                    record_success(i, outcome)
        else:
            pool_cls: type[Executor] = (
                ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
            )
            # A fresh pool per round: a BrokenProcessPool marks the round's
            # unfinished futures as failures and dies with the round.
            with pool_cls(max_workers=max_workers) as pool:
                index_of: dict[Future[SweepOutcome], int] = {
                    pool.submit(
                        _run_one,
                        tasks[i],
                        index_offset + i,
                        attempt,
                        memo_path,
                        chaos,
                        deadline,
                    ): i
                    for i in pending
                }
                for future in as_completed(index_of):
                    i = index_of[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:  # noqa: BLE001 - crash isolation
                        failures.append((i, f"{type(exc).__name__}: {exc}"))
                    else:
                        record_success(i, outcome)
        if not failures:
            break
        crashes += len(failures)
        if attempt >= retry.max_retries:
            failed_cells = len(failures)
            for i, error in failures:
                completed[i] = SweepOutcome(
                    task=tasks[i],
                    usage=0.0,
                    denominator=0.0,
                    ratio=0.0,
                    exact=False,
                    error=error,
                    attempts=attempt + 1,
                )
            break
        retried += len(failures)
        pending = sorted(i for i, _ in failures)
        attempt += 1

    outcomes = [completed[i] for i in range(len(tasks))]
    if journal is not None:
        journal.close()
        if registry is not None:
            registry.merge(journal.registry)
    if registry is not None:
        for outcome in outcomes:
            registry.merge(outcome.telemetry)
        if resumed:
            registry.counter("resilience.sweep.cells_resumed").inc(resumed)
        if checkpointed:
            registry.counter("resilience.sweep.checkpointed").inc(checkpointed)
        if crashes:
            registry.counter("resilience.sweep.crashes").inc(crashes)
        if retried:
            registry.counter("resilience.sweep.retries").inc(retried)
        if failed_cells:
            registry.counter("resilience.sweep.failures").inc(failed_cells)
    return outcomes
