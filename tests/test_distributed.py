"""Distributed-correctness battery for the sharded work-stealing sweeps.

Four acceptance pillars, per the distributed sweep design:

* **Parity** — a seeded ~200-cell sweep run sharded (2-4 workers, work
  stealing) is bit-identical to single-host ``run_sweep``: outcomes, error
  cells, ``degraded_reason``, and the deterministic merged telemetry.
* **Chaos** — SIGKILL a shard worker mid-sweep; its lease expires, a
  surviving worker steals the chunk, and the merged results equal a
  fault-free run with no cell lost or double-counted.
* **Lease protocol** — a hypothesis property test drives random
  claim/renew/complete/expire/crash interleavings through a simulated
  clock and checks every chunk settles exactly once with no conflicting
  journal records.
* **Memo merge** — N processes merge-save into one ``MemoCache`` path
  concurrently and the result is the exact union; corruption degrades to
  an empty cache, never a crash.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import MemoCache
from repro.analysis import (
    ShardCoordinator,
    SweepTask,
    run_shard_worker,
    run_sharded_sweep,
    run_sweep,
)
from repro.core import ReproError, ValidationError
from repro.obs import TelemetryRegistry
from repro.resilience import (
    ChaosInjector,
    CheckpointJournal,
    LeaseBoard,
    RetryPolicy,
    corrupt_jsonl,
)
from repro.workloads import dump_jsonl, uniform_random


def _grid(count: int, *, n: int = 10) -> list[SweepTask]:
    """A seeded first-fit/uniform grid of ``count`` cells."""
    return [
        SweepTask(
            packer="first-fit",
            workload="uniform",
            workload_kwargs={"n": n, "seed": seed},
            label=f"cell-{seed}",
        )
        for seed in range(count)
    ]


def _fork():
    """The fork multiprocessing context (kill tests need real processes)."""
    return multiprocessing.get_context("fork")


# ---------------------------------------------------------------------------
# Parity: sharded == single-host, bit for bit
# ---------------------------------------------------------------------------


class TestShardedParity:
    """Sharded sweeps must be indistinguishable from ``run_sweep``."""

    def test_two_hundred_cells_three_workers_bit_identical(self):
        """~200 cells over 3 stealing workers match serial exactly."""
        tasks = _grid(200)
        serial = run_sweep(tasks, executor="serial")
        reg = TelemetryRegistry()
        sharded = run_sharded_sweep(tasks, shards=3, registry=reg)
        # solver/telemetry are compare=False, so this is field-for-field
        # equality on usage/denominator/ratio/exact/error/attempts/
        # from_checkpoint/degraded_reason for every cell, in task order.
        assert sharded == serial
        assert reg.counter("sweep.cells").value == len(tasks)
        assert reg.gauge("distributed.shards").value == 3.0
        assert reg.counter("distributed.chunks").value > 0

    @pytest.mark.parametrize("shards", [2, 4])
    def test_shard_count_does_not_change_results(self, shards):
        """2 and 4 workers produce the same outcomes as each other."""
        tasks = _grid(24, n=8)
        baseline = run_sweep(tasks, executor="serial")
        assert run_sharded_sweep(tasks, shards=shards, chunk_size=3) == baseline

    def test_parity_with_retry_and_seeded_chaos(self, tmp_path):
        """Injected faults produce identical error cells and attempt counts."""
        tasks = _grid(12, n=8)
        chaos = ChaosInjector(seed=7, crash_rate=0.3, crash_attempts=1)
        retry = RetryPolicy(max_retries=2, base_delay=0.0, jitter=0.0)
        serial = run_sweep(tasks, executor="serial", retry=retry, chaos=chaos)
        sharded = run_sharded_sweep(
            tasks,
            shards=2,
            coordinator_dir=tmp_path / "coord",
            retry=retry,
            chaos=chaos,
        )
        assert sharded == serial
        assert [o.attempts for o in sharded] == [o.attempts for o in serial]

    def test_unrecoverable_cell_error_strings_match(self, tmp_path):
        """A cell that always crashes carries the same grid-global message."""
        tasks = _grid(6, n=6)
        chaos = ChaosInjector(seed=1, crash_index=3, crash_attempts=99)
        serial = run_sweep(tasks, executor="serial", chaos=chaos)
        sharded = run_sharded_sweep(
            tasks, shards=2, coordinator_dir=tmp_path / "coord", chaos=chaos
        )
        assert sharded == serial
        assert sharded[3].error == serial[3].error
        assert "cell 3" in sharded[3].error

    def test_corrupt_trace_error_cells_match(self, tmp_path):
        """Satellite negative case: a corrupted trace errors identically."""
        trace = tmp_path / "trace.jsonl"
        trace.write_text(dump_jsonl(uniform_random(12, seed=3)))
        corrupted, n_bad = corrupt_jsonl(
            trace.read_text(), rate=0.5, seed=11
        )
        assert n_bad > 0
        trace.write_text(corrupted)
        tasks = [
            SweepTask(
                packer="first-fit",
                workload="trace",
                workload_kwargs={"path": str(trace), "seed": i},
                label=f"trace-{i}",
            )
            for i in range(3)
        ]
        serial = run_sweep(tasks, executor="serial")
        sharded = run_sharded_sweep(
            tasks, shards=2, coordinator_dir=tmp_path / "coord"
        )
        assert sharded == serial
        assert all(o.error is not None for o in sharded)
        assert [o.error for o in sharded] == [o.error for o in serial]

    def test_resume_restores_cells_from_shard_journals(self, tmp_path):
        """A rerun on the same coordinator recomputes nothing."""
        tasks = _grid(10, n=8)
        coord = tmp_path / "coord"
        first = run_sharded_sweep(tasks, shards=2, coordinator_dir=coord)
        reg = TelemetryRegistry()
        second = run_sharded_sweep(
            tasks, shards=2, coordinator_dir=coord, registry=reg
        )
        assert all(o.from_checkpoint for o in second)
        assert not any(o.from_checkpoint for o in first)
        assert [o.ratio for o in second] == [o.ratio for o in first]
        assert reg.counter("resilience.sweep.cells_resumed").value == len(tasks)

    def test_memo_path_folds_shard_caches(self, tmp_path):
        """Per-shard memo caches merge into one queryable file."""
        memo = tmp_path / "memo.pkl"
        # The memo holds branch-and-bound results only; at 8 items every
        # slice is certified by the Prop 3 bound, so use instances with a
        # residue (6 of these 8 seeds search at least one slice).
        tasks = _grid(8, n=40)
        run_sharded_sweep(
            tasks,
            shards=2,
            coordinator_dir=tmp_path / "coord",
            memo_path=str(memo),
        )
        assert memo.exists()
        merged = MemoCache(memo)
        assert merged.load() > 0

    def test_coordinator_rejects_a_different_grid(self, tmp_path):
        """One coordinator directory describes exactly one sweep."""
        coord = ShardCoordinator(tmp_path / "coord")
        coord.initialize(_grid(4), chunk_size=2)
        coord.initialize(_grid(4), chunk_size=2)  # identical: resume, ok
        with pytest.raises(ValidationError, match="different sweep"):
            coord.initialize(_grid(5), chunk_size=2)
        with pytest.raises(ValidationError, match="different sweep"):
            coord.initialize(_grid(4), chunk_size=3)

    def test_results_raise_while_cells_unsettled(self, tmp_path):
        """Asking for results early names the missing-cell count."""
        coord = ShardCoordinator(tmp_path / "coord")
        coord.initialize(_grid(4), chunk_size=2)
        with pytest.raises(ReproError, match="missing 4 of 4"):
            coord.results()

    def test_shards_must_be_positive(self):
        """Zero shards is a validation error, not a hang."""
        with pytest.raises(ValidationError, match="shards"):
            run_sharded_sweep(_grid(2), shards=0)

    def test_empty_grid_is_a_noop(self):
        """No tasks → no coordinator, no workers, empty results."""
        assert run_sharded_sweep([], shards=2) == []

    def test_initialize_validates_inputs(self, tmp_path):
        """Bad chunk sizes and unknown workloads are rejected up front."""
        coord = ShardCoordinator(tmp_path / "coord")
        with pytest.raises(ValidationError, match="chunk_size"):
            coord.initialize(_grid(2), chunk_size=0)
        bogus = SweepTask(packer="first-fit", workload="no-such-workload")
        with pytest.raises(ValidationError, match="unknown workload"):
            coord.initialize([bogus])
        assert "coord" in repr(coord)

    def test_driver_fallback_finishes_when_no_worker_ever_starts(
        self, tmp_path, monkeypatch
    ):
        """If every spawned process is stillborn, the driver drains inline.

        A pre-planted expired lease also routes the fallback through the
        steal path, so the driver-side stolen-chunk telemetry is real.
        """
        from types import SimpleNamespace

        from repro.analysis import distributed

        class _Stillborn:
            """A Process stand-in that never runs its target."""

            def __init__(self, *args, **kwargs):
                pass

            def start(self):
                pass

            def join(self, timeout=None):
                pass

        monkeypatch.setattr(
            distributed,
            "_spawn_context",
            lambda: SimpleNamespace(Process=_Stillborn),
        )
        tasks = _grid(4, n=8)
        coord_dir = tmp_path / "coord"
        coord = ShardCoordinator(coord_dir, clock=lambda: 0.0)
        coord.initialize(tasks, chunk_size=2, lease_ttl=5.0)
        ghost = coord.board().claim(0, "ghost")
        assert ghost is not None  # expired long before the real run
        reg = TelemetryRegistry()
        results = run_sharded_sweep(
            tasks,
            shards=2,
            coordinator_dir=coord_dir,
            chunk_size=2,
            lease_ttl=5.0,
            registry=reg,
        )
        assert results == run_sweep(tasks, executor="serial")
        assert reg.counter("distributed.chunks_stolen").value >= 1


# ---------------------------------------------------------------------------
# Chaos: SIGKILL a worker mid-sweep
# ---------------------------------------------------------------------------


class TestKillAShard:
    """A murdered worker's chunks are stolen; results stay exact."""

    def test_sigkill_mid_sweep_then_steal_recovers_everything(self, tmp_path):
        """Kill a real worker process mid-sweep; a rescuer finishes the grid.

        The victim is slowed with a seeded ``solver_stall`` (which burns
        wall-clock without changing any measurement) so the kill lands
        mid-sweep deterministically rather than after the victim already
        finished.
        """
        tasks = _grid(12, n=8)
        baseline = run_sweep(tasks, executor="serial")
        coord_dir = tmp_path / "coord"
        coord = ShardCoordinator(coord_dir)
        coord.initialize(tasks, chunk_size=2, lease_ttl=0.4)
        stall = ChaosInjector(seed=0, crash_rate=0.0, solver_stall=0.05)
        victim = _fork().Process(
            target=run_shard_worker,
            args=(str(coord_dir), "victim"),
            kwargs={"chaos": stall, "poll_interval": 0.01},
            daemon=True,
        )
        victim.start()
        deadline = time.monotonic() + 60.0
        # Wait for an odd settled count: with 2-cell chunks that means the
        # victim is mid-chunk and holds a live lease, so the kill provably
        # leaves something for the rescuer to *steal* (not just claim).
        while len(coord.settled()) % 2 == 0:
            assert time.monotonic() < deadline, "victim made no progress"
            assert victim.is_alive(), "victim exited before the kill"
            time.sleep(0.002)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert not coord.all_done()
        report = run_shard_worker(
            str(coord_dir), "rescue", poll_interval=0.01
        )
        assert coord.all_done()
        assert report.chunks_stolen >= 1
        results = coord.results()
        assert results == baseline
        # No cell lost, none double-counted: one settled record per key,
        # and merged telemetry counts each cell exactly once.
        settled = coord.settled()
        assert sorted(settled) == sorted(coord.manifest().keys)
        reg = TelemetryRegistry()
        for outcome in results:
            reg.merge(outcome.telemetry)
        assert reg.counter("sweep.cells").value == len(tasks)

    def test_driver_survives_every_spawned_worker_dying(self, tmp_path):
        """If all shard processes die, the driver finishes inline."""
        tasks = _grid(6, n=6)
        coord_dir = tmp_path / "coord"
        coord = ShardCoordinator(coord_dir)
        coord.initialize(tasks, chunk_size=2, lease_ttl=0.3)
        # Worker claims one chunk, settles one cell, then is killed
        # immediately: the remaining chunks plus the expired lease are
        # the driver fallback's problem.
        victim = _fork().Process(
            target=run_shard_worker,
            args=(str(coord_dir), "victim"),
            kwargs={
                "chaos": ChaosInjector(seed=0, solver_stall=0.1),
                "poll_interval": 0.01,
            },
            daemon=True,
        )
        victim.start()
        deadline = time.monotonic() + 30.0
        while len(coord.settled()) < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        report = run_shard_worker(str(coord_dir), "driver", poll_interval=0.01)
        assert coord.all_done()
        assert report.cells_run >= 1
        assert coord.results() == run_sweep(tasks, executor="serial")

    def test_corrupted_shard_journal_is_healed_by_driver(self, tmp_path):
        """Losing journal lines after completion is repaired, not fatal."""
        tasks = _grid(8, n=8)
        coord_dir = tmp_path / "coord"
        baseline = run_sharded_sweep(
            tasks, shards=2, coordinator_dir=coord_dir
        )
        # Simulate post-hoc disk damage: tear every journal line so the
        # done markers claim completion the journals can no longer prove.
        for journal in (coord_dir / "journals").glob("*.ndjson"):
            torn = "\n".join(
                line[: len(line) // 2]
                for line in journal.read_text().splitlines()
            )
            journal.write_text(torn + "\n\x00garbage\n")
        healed = run_sharded_sweep(tasks, shards=2, coordinator_dir=coord_dir)
        assert [o.ratio for o in healed] == [o.ratio for o in baseline]
        assert all(o.error is None for o in healed)


# ---------------------------------------------------------------------------
# Lease protocol property test
# ---------------------------------------------------------------------------


class _SimClock:
    """A manually advanced clock injected into every board under test."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


_N_CHUNKS = 4
_TTL = 10.0

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("claim"),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=_N_CHUNKS - 1),
        ),
        st.tuples(st.just("complete"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("renew"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("crash"), st.integers(min_value=0, max_value=2)),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.5, max_value=_TTL * 1.5),
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestLeaseProtocolProperty:
    """Random interleavings never settle a chunk twice or lose one."""

    @given(ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_every_chunk_settles_exactly_once(self, ops):
        """Claims exclude live holders; completion is exactly-once."""
        with tempfile.TemporaryDirectory() as tmp:
            clock = _SimClock()
            workers = [f"w{i}" for i in range(3)]
            boards = {
                w: LeaseBoard(tmp, ttl=_TTL, clock=clock) for w in workers
            }
            journals = {
                w: CheckpointJournal(os.path.join(tmp, f"{w}.ndjson"))
                for w in workers
            }
            held: dict[str, dict[int, object]] = {w: {} for w in workers}
            settled: set[int] = set()
            completions = 0
            for op in ops:
                if op[0] == "claim":
                    worker, chunk = workers[op[1]], op[2]
                    lease = boards[worker].claim(chunk, worker)
                    if lease is not None:
                        # Exclusivity: nobody else may hold an unexpired
                        # lease, and the chunk must not be settled.
                        assert chunk not in settled
                        for other, leases in held.items():
                            if other == worker or chunk not in leases:
                                continue
                            stale = leases.pop(chunk)
                            assert clock.now - stale.claimed_at >= _TTL
                        held[worker][chunk] = lease
                elif op[0] == "complete":
                    worker = workers[op[1]]
                    if not held[worker]:
                        continue
                    chunk, _lease = sorted(held[worker].items())[0]
                    first = boards[worker].complete(chunk, worker)
                    del held[worker][chunk]
                    if first:
                        assert chunk not in settled
                        settled.add(chunk)
                        completions += 1
                        journals[worker].append(
                            f"chunk-{chunk}", {"chunk": chunk}
                        )
                elif op[0] == "renew":
                    worker = workers[op[1]]
                    if not held[worker]:
                        continue
                    chunk, lease = sorted(held[worker].items())[0]
                    if not boards[worker].renew(lease):
                        # Refused renewals mean superseded or settled —
                        # the holder must abandon the chunk.
                        assert chunk in settled or (
                            boards[worker].holder(chunk)["generation"]
                            > lease.generation
                        )
                        del held[worker][chunk]
                elif op[0] == "crash":
                    held[workers[op[1]]] = {}
                else:  # advance
                    clock.now += op[1]
            # Drain: expire everything outstanding and let one worker
            # finish the board — the steal path must always converge.
            clock.now += _TTL * 2
            finisher = boards["w0"]
            for chunk in range(_N_CHUNKS):
                if chunk in settled:
                    continue
                lease = finisher.claim(chunk, "w0")
                assert lease is not None
                assert finisher.complete(chunk, "w0")
                settled.add(chunk)
                completions += 1
                journals["w0"].append(f"chunk-{chunk}", {"chunk": chunk})
            assert finisher.all_done(_N_CHUNKS)
            assert settled == set(range(_N_CHUNKS))
            assert completions == _N_CHUNKS
            # Second completion attempts are refused for every chunk.
            assert not any(
                finisher.complete(chunk, "late") for chunk in range(_N_CHUNKS)
            )
            # Merged journals are conflict-free: one record per chunk and
            # every copy of a key carries the same payload.
            merged: dict[str, dict[str, object]] = {}
            for journal in journals.values():
                for key, record in journal.load().items():
                    assert merged.setdefault(key, record) == record
            assert sorted(merged) == [f"chunk-{c}" for c in range(_N_CHUNKS)]


class TestLeaseBoardUnit:
    """Directed edge cases the property test cannot pin down."""

    def test_claim_steal_and_generation_bump(self, tmp_path):
        """An expired lease is stolen under the next generation number."""
        clock = _SimClock()
        board = LeaseBoard(tmp_path, ttl=5.0, clock=clock)
        first = board.claim(0, "a")
        assert first is not None and first.generation == 0
        assert board.claim(0, "b") is None  # live lease excludes
        clock.now = 6.0
        stolen = board.claim(0, "b")
        assert stolen is not None and stolen.generation == 1
        assert board.holder(0)["worker"] == "b"

    def test_renew_blocks_expiry_and_detects_supersession(self, tmp_path):
        """Renewal re-stamps the clock; a superseded lease renews False."""
        clock = _SimClock()
        board = LeaseBoard(tmp_path, ttl=5.0, clock=clock)
        lease = board.claim(0, "a")
        clock.now = 4.0
        assert board.renew(lease)
        clock.now = 8.0  # 4s after renewal: still live
        assert board.claim(0, "b") is None
        clock.now = 20.0
        stolen = board.claim(0, "b")
        assert stolen is not None
        assert not board.renew(lease)

    def test_complete_is_exactly_once_and_blocks_claims(self, tmp_path):
        """Only the first completer wins; done chunks cannot be claimed."""
        board = LeaseBoard(tmp_path, ttl=5.0, clock=_SimClock())
        board.claim(0, "a")
        assert board.complete(0, "a", record={"cells": 3})
        assert not board.complete(0, "b")
        assert board.claim(0, "b") is None
        assert board.is_done(0)
        assert board.done_record(0)["worker"] == "a"
        assert board.done_record(0)["cells"] == 3

    def test_ttl_must_be_positive(self, tmp_path):
        """A zero TTL would make every lease instantly stealable."""
        with pytest.raises(ValidationError, match="ttl"):
            LeaseBoard(tmp_path, ttl=0.0)

    def test_introspection_on_untouched_chunks(self, tmp_path):
        """done_record/holder answer None instead of raising."""
        board = LeaseBoard(tmp_path, ttl=5.0)
        assert board.done_record(7) is None
        assert board.holder(7) is None
        assert "LeaseBoard" in repr(board)

    def test_unreadable_lease_is_treated_as_expired(self, tmp_path):
        """A torn lease file cannot deadlock its chunk."""
        clock = _SimClock()
        board = LeaseBoard(tmp_path, ttl=5.0, clock=clock)
        first = board.claim(0, "a")
        (tmp_path / "leases" / f"chunk-{0:06d}.gen-{0:06d}").write_text("{")
        stolen = board.claim(0, "b")
        assert stolen is not None and stolen.generation == 1
        assert not board.renew(first)


# ---------------------------------------------------------------------------
# Concurrent MemoCache merge stress
# ---------------------------------------------------------------------------


def _memo_stress_child(path, idx, rounds, barrier):
    """Write ``rounds`` distinct entries and merge-save in lockstep."""
    for r in range(rounds):
        cache = MemoCache(path)
        cache.put(MemoCache.key([idx + 1.0, r + 0.5], 1e-9), idx * 100 + r)
        barrier.wait()
        cache.save()
    barrier.wait()


class TestConcurrentMemoMerge:
    """Simultaneous merge-saves into one path never lose entries."""

    def test_six_processes_saving_in_lockstep_union(self, tmp_path):
        """Barrier-synchronised saves from 6 processes yield the union."""
        path = tmp_path / "memo.pkl"
        n, rounds = 6, 4
        ctx = _fork()
        barrier = ctx.Barrier(n + 1)
        procs = [
            ctx.Process(
                target=_memo_stress_child,
                args=(str(path), idx, rounds, barrier),
                daemon=True,
            )
            for idx in range(n)
        ]
        for proc in procs:
            proc.start()
        for _ in range(rounds + 1):
            barrier.wait(timeout=60)
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        final = MemoCache(path)
        assert final.load() == n * rounds
        for idx in range(n):
            for r in range(rounds):
                key = MemoCache.key([idx + 1.0, r + 0.5], 1e-9)
                assert final.get(key) == idx * 100 + r

    def test_corrupt_cache_file_degrades_to_empty_then_recovers(self, tmp_path):
        """Garbage bytes load as empty; the next save rebuilds a valid file."""
        path = tmp_path / "memo.pkl"
        seed = MemoCache(path)
        seed.put(MemoCache.key([1.0, 2.0], 1e-9), 2)
        seed.save()
        path.write_bytes(b"\x00not a pickle\xff")
        corrupted = MemoCache(path)
        assert corrupted.load() == 0
        corrupted.put(MemoCache.key([3.0, 4.0], 1e-9), 2)
        assert corrupted.save() == 1
        assert MemoCache(path).load() == 1

    def test_merge_from_prefers_existing_entries(self, tmp_path):
        """merge_from adopts only unknown keys and reports the count."""
        a = MemoCache(tmp_path / "a.pkl")
        b = MemoCache(tmp_path / "b.pkl")
        key = MemoCache.key([1.0, 2.0], 1e-9)
        a.put(key, 2)
        b.put(key, 99)
        b.put(MemoCache.key([5.0], 1e-9), 1)
        assert a.merge_from(b) == 1
        assert a.get(key) == 2
        assert len(a) == 2


# ---------------------------------------------------------------------------
# External workers via the coordinator directory
# ---------------------------------------------------------------------------


class TestExternalWorkers:
    """sweep-worker processes attach through nothing but the directory."""

    def test_standalone_worker_drains_a_prepared_coordinator(self, tmp_path):
        """run_shard_worker against a manifest it did not write."""
        tasks = _grid(6, n=8)
        coord_dir = tmp_path / "coord"
        ShardCoordinator(coord_dir).initialize(tasks, chunk_size=2)
        reg = TelemetryRegistry()
        report = run_shard_worker(
            str(coord_dir), "ext", poll_interval=0.01, registry=reg
        )
        assert report.cells_run == len(tasks)
        assert report.chunks_completed == 3
        assert report.as_dict()["cells_run"] == len(tasks)
        assert reg.counter("distributed.worker.cells_run").value == len(tasks)
        coord = ShardCoordinator(coord_dir)
        assert coord.all_done()
        assert coord.results() == run_sweep(tasks, executor="serial")

    def test_worker_waits_for_manifest(self, tmp_path):
        """wait_manifest polls until the driver publishes the grid."""
        coord_dir = tmp_path / "coord"
        with pytest.raises(ReproError, match="manifest"):
            run_shard_worker(str(coord_dir), "早すぎ", wait_manifest=0.05)

    def test_lost_lease_mid_chunk_is_abandoned_then_resettled(
        self, tmp_path, monkeypatch
    ):
        """A worker whose renew fails abandons the chunk and re-steals it.

        The first renew is forced to fail (as if a thief superseded the
        lease); with a short TTL the worker's next scan steals its own
        expired generation and finishes without recomputing journaled
        cells.
        """
        tasks = _grid(4, n=8)
        coord_dir = tmp_path / "coord"
        ShardCoordinator(coord_dir).initialize(
            tasks, chunk_size=4, lease_ttl=0.05
        )
        real_renew = LeaseBoard.renew
        fails = iter([True])

        def flaky_renew(self, lease):
            if next(fails, False):
                return False
            return real_renew(self, lease)

        monkeypatch.setattr(LeaseBoard, "renew", flaky_renew)
        report = run_shard_worker(str(coord_dir), "w", poll_interval=0.01)
        assert report.leases_lost == 1
        assert report.chunks_stolen >= 1
        assert report.cells_run + report.cells_skipped >= len(tasks)
        coord = ShardCoordinator(coord_dir)
        assert coord.all_done()
        assert coord.results() == run_sweep(tasks, executor="serial")

    def test_second_worker_skips_already_settled_cells(self, tmp_path):
        """A late worker reports skips, not recomputation."""
        tasks = _grid(4, n=8)
        coord_dir = tmp_path / "coord"
        ShardCoordinator(coord_dir).initialize(tasks, chunk_size=4)
        first = run_shard_worker(str(coord_dir), "w1", poll_interval=0.01)
        assert first.cells_run == 4
        second = run_shard_worker(str(coord_dir), "w2", poll_interval=0.01)
        assert second.cells_run == 0
        assert second.chunks_completed == 0


# ---------------------------------------------------------------------------
# Coordinator garbage collection
# ---------------------------------------------------------------------------


class TestCoordinatorGc:
    """gc() reclaims a finished sweep's working state, never a live one's."""

    def test_completed_sweep_collects_and_keeps_the_manifest(self, tmp_path):
        tasks = _grid(6, n=8)
        coord_dir = tmp_path / "coord"
        results = run_sharded_sweep(tasks, shards=2, coordinator_dir=coord_dir)
        assert results == run_sweep(tasks, executor="serial")
        coord = ShardCoordinator(coord_dir)
        report = coord.gc()
        assert report.removed_files > 0
        assert report.reclaimed_bytes > 0
        assert report.kept_manifest
        # all working state is gone...
        for sub in ("leases", "done", "journals", "memos"):
            assert not (coord_dir / sub).exists()
        # ...but the manifest tombstone records what the sweep was
        assert coord.manifest_path.exists()
        assert len(ShardCoordinator(coord_dir).manifest().keys) == 6

    def test_incomplete_sweep_refuses_without_force(self, tmp_path):
        tasks = _grid(6, n=8)
        coord_dir = tmp_path / "coord"
        ShardCoordinator(coord_dir).initialize(tasks, chunk_size=2)
        coord = ShardCoordinator(coord_dir)
        with pytest.raises(ReproError, match="unsettled"):
            coord.gc()
        # nothing was touched: a worker can still drain the sweep
        report = run_shard_worker(str(coord_dir), "w", poll_interval=0.01)
        assert report.cells_run == 6
        assert ShardCoordinator(coord_dir).results() == run_sweep(
            tasks, executor="serial"
        )

    def test_force_abandons_an_incomplete_sweep(self, tmp_path):
        coord_dir = tmp_path / "coord"
        coord = ShardCoordinator(coord_dir)
        coord.initialize(_grid(4, n=8), chunk_size=2)
        report = coord.gc(force=True, keep_manifest=False)
        assert not report.kept_manifest
        assert not coord_dir.exists()

    def test_keep_manifest_false_removes_the_directory(self, tmp_path):
        tasks = _grid(4, n=8)
        coord_dir = tmp_path / "coord"
        run_sharded_sweep(tasks, shards=2, coordinator_dir=coord_dir)
        report = ShardCoordinator(coord_dir).gc(keep_manifest=False)
        assert not coord_dir.exists()
        assert report.removed_files > 0

    def test_gc_before_initialize_raises_without_force(self, tmp_path):
        coord = ShardCoordinator(tmp_path / "never-initialized")
        with pytest.raises(ReproError):
            coord.gc()
        report = coord.gc(force=True)
        assert report.removed_files == 0

    def test_results_must_be_merged_before_gc(self, tmp_path):
        """After gc the settled cells are gone — results() says so loudly."""
        tasks = _grid(4, n=8)
        coord_dir = tmp_path / "coord"
        run_sharded_sweep(tasks, shards=2, coordinator_dir=coord_dir)
        ShardCoordinator(coord_dir).gc()
        with pytest.raises(ReproError):
            ShardCoordinator(coord_dir).results()


class TestSweepGcCli:
    def test_sweep_gc_collects_a_completed_coordinator(self, tmp_path, capsys):
        from repro.cli import main

        coord_dir = tmp_path / "coord"
        argv = [
            "sweep", "--algorithm", "first-fit", "--n", "8", "--seeds", "4",
            "--shards", "2", "--coordinator", str(coord_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["sweep", "--gc", "--coordinator", str(coord_dir), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gc"]["removed_files"] > 0
        assert doc["gc"]["kept_manifest"]
        assert not (coord_dir / "journals").exists()
        assert coord_dir.exists()

    def test_sweep_gc_requires_a_coordinator(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--gc"]) == 2
        assert "--coordinator" in capsys.readouterr().err

    def test_sweep_gc_refuses_an_unfinished_sweep(self, tmp_path, capsys):
        from repro.cli import main

        coord_dir = tmp_path / "coord"
        ShardCoordinator(coord_dir).initialize(_grid(4, n=8), chunk_size=2)
        assert main(["sweep", "--gc", "--coordinator", str(coord_dir)]) != 0
        err = capsys.readouterr().err
        assert "unsettled" in err
        # --gc-force abandons it
        assert main(
            ["sweep", "--gc", "--gc-force", "--coordinator", str(coord_dir)]
        ) == 0
