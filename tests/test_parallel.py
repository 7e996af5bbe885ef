"""Tests for the parallel sweep runner."""

from __future__ import annotations

import pytest

from repro.analysis import MemoCache, SolverStats, SweepTask, run_sweep
from repro.core import ValidationError


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
