"""Tests for the parallel sweep runner."""

from __future__ import annotations

import pytest

from repro.algorithms import get_packer
from repro.analysis import MemoCache, SolverStats, SweepTask, measured_ratio, run_sweep
from repro.analysis.parallel import WORKLOAD_GENERATORS
from repro.core import ValidationError
from repro.resilience import ChaosInjector


def make_tasks() -> list[SweepTask]:
    return [
        SweepTask(
            packer="first-fit",
            workload="uniform",
            workload_kwargs={"n": 20, "seed": seed},
            label=f"seed{seed}",
        )
        for seed in range(3)
    ] + [
        SweepTask(
            packer="classify-duration",
            packer_kwargs={"alpha": 2.0},
            workload="bounded-mu",
            workload_kwargs={"n": 15, "seed": 1, "mu": 8.0},
        )
    ]


class TestRunSweep:
    def test_serial_results_sane(self):
        outcomes = run_sweep(make_tasks(), executor="serial")
        assert len(outcomes) == 4
        for o in outcomes:
            assert o.ratio >= 1.0 - 1e-9
            assert o.usage >= o.denominator - 1e-9

    def test_thread_matches_serial(self):
        serial = run_sweep(make_tasks(), executor="serial")
        threaded = run_sweep(make_tasks(), executor="thread", max_workers=2)
        assert [o.ratio for o in threaded] == pytest.approx(
            [o.ratio for o in serial]
        )

    def test_process_matches_serial(self):
        serial = run_sweep(make_tasks(), executor="serial")
        processed = run_sweep(make_tasks(), executor="process", max_workers=2)
        assert [o.ratio for o in processed] == pytest.approx(
            [o.ratio for o in serial]
        )
        assert [o.task.label for o in processed] == [o.task.label for o in serial]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep([SweepTask(packer="first-fit", workload="nope")])

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep(make_tasks()[:1], executor="gpu")

    def test_solver_stats_populated(self):
        outcomes = run_sweep(make_tasks(), executor="serial")
        merged = SolverStats()
        for o in outcomes:
            merged.merge(o.solver)
        assert merged.slices > 0
        assert merged.full_evals == len(outcomes)
        # Every non-empty slice is either certified by the Prop 3 bound or
        # looked up in the memo (misses may be zero if the process-wide
        # default memo is already warm from earlier tests).
        assert merged.certified > 0
        lookups = merged.memo_hits + merged.memo_misses
        assert merged.certified + lookups <= merged.slices

    def test_shared_memo_path_persists_and_accelerates(self, tmp_path):
        memo_file = tmp_path / "memo.pkl"
        # The memo holds branch-and-bound results only, so use instances
        # with slices the Prop 3 certificate leaves to the search.
        tasks = [
            SweepTask(
                packer="first-fit",
                workload="uniform",
                workload_kwargs={"n": 40, "seed": seed},
                label=f"seed{seed}",
            )
            for seed in range(4)
        ]
        first = run_sweep(tasks, executor="serial", memo_path=str(memo_file))
        assert memo_file.exists()
        assert len(MemoCache(memo_file)) > 0
        second = run_sweep(tasks, executor="serial", memo_path=str(memo_file))
        assert [o.ratio for o in second] == [o.ratio for o in first]
        # Every residue slice was cached by the first run: no cell searches.
        assert sum(o.solver.memo_hits for o in second) > 0
        assert all(o.solver.memo_misses == 0 for o in second)

    def test_memo_path_with_process_pool(self, tmp_path):
        memo_file = tmp_path / "memo.pkl"
        tasks = make_tasks()[:2]
        processed = run_sweep(
            tasks, executor="process", max_workers=2, memo_path=str(memo_file)
        )
        serial = run_sweep(tasks, executor="serial")
        assert [o.ratio for o in processed] == pytest.approx(
            [o.ratio for o in serial]
        )
        assert memo_file.exists()

    def test_generator_without_count_argument(self):
        # recurring-jobs style generators are not in the registry; gaming is,
        # and it takes n as the leading argument.
        outcomes = run_sweep(
            [
                SweepTask(
                    packer="best-fit",
                    workload="gaming",
                    workload_kwargs={"n": 25, "seed": 2},
                )
            ],
            executor="serial",
        )
        assert outcomes[0].ratio >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# instance groups: one adversary solve per instance
# ---------------------------------------------------------------------------

RATIO_PACKERS = (
    ("first-fit", {}),
    ("classify-duration", {"alpha": 2.0}),
    ("classify-departure", {"rho": 4.0}),
)

#: Exactly solvable instances of two generators.
EXACT_INSTANCES = (
    ("uniform", {"n": 20, "seed": 0}),
    ("uniform", {"n": 20, "seed": 1}),
    ("bounded-mu", {"n": 15, "seed": 1, "mu": 8.0}),
)
#: Past the exact adversary's size ceiling: degrades to bounds.
LARGE_INSTANCE = ("uniform", {"n": 210, "seed": 3})


def grid(instances=EXACT_INSTANCES) -> list[SweepTask]:
    """3 packers x ``instances``, packer-major, so groups are not contiguous."""
    return [
        SweepTask(
            packer=packer,
            packer_kwargs=packer_kwargs,
            workload=workload,
            workload_kwargs=workload_kwargs,
            label=f"{packer} {workload} {workload_kwargs}",
        )
        for packer, packer_kwargs in RATIO_PACKERS
        for workload, workload_kwargs in instances
    ]


def fields(outcome) -> tuple:
    return (
        outcome.usage,
        outcome.denominator,
        outcome.ratio,
        outcome.exact,
        outcome.degraded_reason,
    )


def per_cell(task: SweepTask) -> tuple:
    """The cell measured on its own, through the public ``measured_ratio``."""
    kwargs = dict(task.workload_kwargs)
    items = WORKLOAD_GENERATORS[task.workload](kwargs.pop("n"), **kwargs)
    packer = get_packer(task.packer, **dict(task.packer_kwargs))
    m = measured_ratio(packer, items)
    return (m.usage, m.denominator, m.ratio, m.exact, m.degraded_reason)


class TestInstanceGroups:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_grouped_matches_per_cell_measured_ratio(self, executor):
        tasks = grid(EXACT_INSTANCES + (LARGE_INSTANCE,))
        outcomes = run_sweep(tasks, executor=executor, max_workers=2)
        assert [o.task for o in outcomes] == tasks
        assert [fields(o) for o in outcomes] == [per_cell(t) for t in tasks]
        degraded = [o for o in outcomes if o.task.workload_kwargs["n"] == 210]
        assert len(degraded) == 3
        assert all(o.degraded_reason == "instance_too_large" for o in degraded)

    def test_one_full_eval_per_instance(self):
        outcomes = run_sweep(grid(), executor="serial")
        merged = SolverStats()
        for o in outcomes:
            merged.merge(o.solver)
        assert len(outcomes) == 3 * len(EXACT_INSTANCES)
        assert merged.full_evals == len(EXACT_INSTANCES)
        # Each instance's solve rides on exactly one of its cells.
        assert sorted(o.solver.full_evals for o in outcomes) == [0] * 6 + [1] * 3

    def test_crashed_solver_cell_hands_the_solve_on(self):
        tasks = grid()
        # Cell 0 is the first cell of instance 0's group (cells 0, 3, 6).
        chaos = ChaosInjector(crash_index=0, crash_attempts=1)
        outcomes = run_sweep(tasks, executor="serial", chaos=chaos)
        clean = run_sweep(tasks, executor="serial")
        assert not outcomes[0].ok
        assert outcomes[0].error.startswith("InjectedFault")
        assert all(o.ok for o in outcomes[1:])
        assert [fields(o) for o in outcomes[1:]] == [fields(o) for o in clean[1:]]
        assert outcomes[3].exact and outcomes[6].exact
        assert outcomes[3].solver.full_evals == 1
        assert outcomes[6].solver.full_evals == 0

    def test_resume_recomputes_the_rest_of_a_group(self, tmp_path):
        tasks = [t for t in grid() if t.workload == "bounded-mu"]
        ck = str(tmp_path / "journal")
        first = run_sweep(tasks[:1], executor="serial", checkpoint=ck)
        resumed = run_sweep(tasks, executor="serial", checkpoint=ck)
        fresh = run_sweep(tasks, executor="serial")
        assert [o.from_checkpoint for o in resumed] == [True, False, False]
        assert fields(resumed[0]) == fields(first[0])
        assert [fields(o) for o in resumed] == [fields(o) for o in fresh]
        assert sum(o.solver.full_evals for o in resumed[1:]) == 1
