"""Parallel experiment execution over seed/parameter grids, fault-tolerant.

Ratio sweeps are embarrassingly parallel across instances.  The exact
``opt_total`` denominator dominates a cell's cost and depends only on the
instance, not on the packer, so the unit of work is an **instance group**:
the cells that share one workload spec run as one job that generates the
items once, resolves the denominator once and packs them once per cell.
This module fans groups out over a ``ProcessPoolExecutor`` (bypassing the
GIL — the work is pure Python/numpy compute), following the HPC guides'
guidance to parallelise at the outermost independent loop.

Partial failure is first-class, not fatal:

* a worker exception **isolates** to its cell (a ``BrokenProcessPool``
  taking the whole pool down, to its unfinished groups) — the sweep
  completes and the cell surfaces as a :class:`SweepOutcome` with its
  ``error`` field set;
* failed cells are **retried** per the sweep's
  :class:`~repro.resilience.RetryPolicy` (exponential backoff,
  deterministic jitter), in a fresh pool each round so a broken pool never
  poisons the retry;
* a :class:`~repro.resilience.CheckpointJournal` (``checkpoint=``) records
  each completed cell as it finishes, so an interrupted sweep **resumes**
  its completed cells on rerun with bit-identical results;
* a wall-clock ``deadline`` bounds each instance's one adversary solve,
  degrading to certified bounds (``exact=False``) instead of running
  unbounded.

Tasks are plain picklable dataclasses naming registered packers and workload
generators, so worker processes can reconstruct everything from the spec —
no closures cross the process boundary.  Retry, resume and failure events
increment ``resilience.sweep.*`` telemetry cells in the driver registry.
"""

from __future__ import annotations

import functools
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
from ..bounds.opt_bounds import DenominatorInfo, resolve_denominator
from ..core.exceptions import ValidationError
from ..core.items import ItemList
from ..obs import TelemetryRegistry, TelemetrySnapshot, enabled as _telemetry_enabled
from ..resilience import ChaosInjector, CheckpointJournal, InjectedFault, RetryPolicy, task_key
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
from .ratios import RatioMeasurement

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
    Only the one cell of each instance that ran the shared solve has
    non-zero counters.
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


def _error(exc: BaseException) -> str:
    """A failed cell's ``error`` string."""
    return f"{type(exc).__name__}: {exc}"


def _run_group(
    tasks: Sequence[SweepTask],
    indices: Sequence[int],
    attempt: int = 0,
    memo_path: str | None = None,
    chaos: ChaosInjector | None = None,
    deadline_s: float | None = None,
) -> list[SweepOutcome | str]:
    """Worker entry point (module-level for pickling): one instance's cells.

    ``tasks`` share one workload spec, so the instance is generated once and
    its adversary denominator resolved once, by the first cell that gets
    that far, inside that cell's ``sweep.cell`` span and on its
    :class:`SolverStats`; every cell packs the shared items.  Cells fail on
    their own: a failed cell's slot holds its ``"ExcType: message"`` string,
    and the next cell takes over the generation and the solve.
    """
    generator = WORKLOAD_GENERATORS[tasks[0].workload]
    kwargs = dict(tasks[0].workload_kwargs)
    n = kwargs.pop("n", None)
    items: ItemList | None = None
    info: DenominatorInfo | None = None
    timed = _telemetry_enabled()
    results: list[SweepOutcome | str] = []
    for task, index in zip(tasks, indices):
        try:
            if chaos is not None and chaos.crashes(index, attempt):
                raise InjectedFault(
                    f"chaos: injected crash (cell {index}, attempt {attempt})"
                )
            registry = TelemetryRegistry()
            packer = get_packer(task.packer, **dict(task.packer_kwargs))
            stats = SolverStats(registry=registry)
            solves = info is None
            memo = (
                MemoCache(memo_path, registry=registry)
                if solves and memo_path is not None
                else None
            )
            deadline = Deadline.after(deadline_s) if solves and deadline_s is not None else None
            if solves and chaos is not None and chaos.solver_stall > 0:
                # The stall burns into the already-started deadline, exactly
                # like a wedged solver would; degradation must still answer
                # in bounded time.
                time.sleep(chaos.solver_stall)
            t0 = time.perf_counter() if timed else 0.0
            with registry.span("sweep.cell"):
                if items is None:
                    items = generator(n, **kwargs) if n is not None else generator(**kwargs)
                usage = packer.pack(items).total_usage()
                if solves:
                    info = resolve_denominator(items, memo=memo, stats=stats, deadline=deadline)
            if timed:
                registry.histogram("sweep.cell_latency").observe(time.perf_counter() - t0)
            if memo is not None:
                memo.save()
            registry.counter("sweep.cells").inc()
        except Exception as exc:  # noqa: BLE001 - crash isolation
            results.append(_error(exc))
            continue
        m = RatioMeasurement(usage, info.value, info.exact, info.degraded_reason)
        results.append(
            SweepOutcome(
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
        )
    return results


def _instance_groups(tasks: Sequence[SweepTask], pending: Sequence[int]) -> list[list[int]]:
    """``pending`` task indices grouped by instance, in first-seen order."""
    groups: dict[str, list[int]] = {}
    for i in pending:
        spec = {"workload": tasks[i].workload, "workload_kwargs": dict(tasks[i].workload_kwargs)}
        groups.setdefault(task_key(spec), []).append(i)
    return list(groups.values())


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

    Pending cells that share an instance (the same ``workload`` and
    ``workload_kwargs``) run as one job: the items are generated and the
    adversary denominator resolved once, by the group's first cell that
    does not fail, and every cell packs the same items.  That cell's
    ``sweep.cell`` span and :class:`~repro.algorithms.SolverStats` carry
    the solve; the others carry only their pack, so summed counters equal
    the work done.  Outcomes, journal records and resume stay per cell.

    Failure semantics: a cell that raises is retried per ``retry``, and the
    next cell of its group takes over the solve; a cell that exhausts its
    retries is returned as an error outcome (:attr:`SweepOutcome.error`
    set) instead of aborting the sweep.  Each retry round regroups the
    failed cells and runs in a **fresh** pool, so even a
    ``BrokenProcessPool`` only costs the unfinished groups' cells one extra
    attempt.

    Args:
        tasks: The experiment cells.
        max_workers: Worker count (``None`` = executor default).
        executor: ``"process"`` (default; true parallelism),
            ``"thread"`` (useful under debuggers), or ``"serial"``.
        memo_path: Optional path of a disk-backed adversary
            :class:`~repro.algorithms.MemoCache` shared by every cell: each
            instance group's solving cell loads it before the solve and
            merge-saves it right after, once per instance, so repeated runs
            (and instances sharing slices) stop recomputing identical bin
            packing instances.
        registry: Optional driver-side :class:`~repro.obs.TelemetryRegistry`
            every cell's telemetry snapshot is merged into (in task order),
            plus the driver's ``resilience.sweep.*`` counters.
        retry: :class:`~repro.resilience.RetryPolicy` for failed cells;
            ``None`` means no retries (crash isolation still applies).
        checkpoint: Optional directory of a
            :class:`~repro.resilience.CheckpointJournal`: completed cells
            are appended as they finish, and cells already in the journal
            are restored instead of rerun (``from_checkpoint=True``).
        deadline: Optional wall-clock budget in seconds for the one exact
            adversary solve an instance's cells share; on expiry the
            instance degrades to certified bounds, and every cell of it
            reports ``exact=False``, ``degraded_reason="deadline"``.
        chaos: Optional seeded :class:`~repro.resilience.ChaosInjector`
            (fault-injection tests and failure rehearsals only).  Crashes
            target single cells; a ``solver_stall`` burns once per solve.
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

    def settle(
        group: list[int],
        results: Sequence[SweepOutcome | str],
        failures: list[tuple[int, str]],
    ) -> None:
        nonlocal checkpointed
        for i, result in zip(group, results):
            if isinstance(result, str):
                failures.append((i, result))
                continue
            completed[i] = result
            if journal is not None:
                # Appended as groups finish (not at sweep end), so a killed
                # run keeps everything completed so far.
                journal.append(keys[i], _outcome_record(result))
                checkpointed += 1

    pending = [i for i in range(len(tasks)) if i not in completed]
    attempt = 0
    while pending:
        if attempt > 0:
            delay = retry.delay(attempt - 1, key=f"sweep-round-{attempt}")
            if delay > 0:
                time.sleep(delay)
        failures: list[tuple[int, str]] = []
        work = functools.partial(
            _run_group, attempt=attempt, memo_path=memo_path, chaos=chaos, deadline_s=deadline
        )
        jobs = [
            (group, [tasks[i] for i in group], [index_offset + i for i in group])
            for group in _instance_groups(tasks, pending)
        ]
        if executor == "serial":
            for group, group_tasks, indices in jobs:
                settle(group, work(group_tasks, indices), failures)
        else:
            pool_cls: type[Executor] = (
                ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
            )
            # A fresh pool per round: a BrokenProcessPool marks the round's
            # unfinished futures as failures and dies with the round.
            with pool_cls(max_workers=max_workers) as pool:
                group_of: dict[Future[list[SweepOutcome | str]], list[int]] = {
                    pool.submit(work, group_tasks, indices): group
                    for group, group_tasks, indices in jobs
                }
                for future in as_completed(group_of):
                    group = group_of[future]
                    try:
                        results = future.result()
                    except Exception as exc:  # noqa: BLE001 - crash isolation
                        results = [_error(exc)] * len(group)
                    settle(group, results, failures)
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
