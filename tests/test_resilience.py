"""Resilience layer tests: retry, deadlines, fault policies, checkpoints, chaos.

The chaos scenarios at the bottom are the acceptance suite: a crashed worker
per sweep, a stalled solver, and a partially corrupted trace must all leave
the system producing bounded, reproducible answers instead of dying.
"""

from __future__ import annotations

import pickle
import shutil
import time

import pytest

from repro.algorithms import MemoCache, SolverStats, bin_packing_min_bins, opt_total
from repro.algorithms.base import get_packer
from repro.analysis import SweepTask, measured_ratio, run_sweep
from repro.bounds import best_lower_bound, resolve_denominator
from repro.core import DeadlineExceeded, ItemList, ValidationError
from repro.engine import PackingSession
from repro.obs import TelemetryRegistry
from repro.resilience import (
    ChaosInjector,
    CheckpointJournal,
    Deadline,
    FaultPolicy,
    InjectedFault,
    RetryPolicy,
    corrupt_jsonl,
    task_key,
)
from repro.simulation import record_decisions
from repro.workloads import dump_jsonl, load_jsonl, uniform_random


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_defaults_mean_no_retries(self):
        policy = RetryPolicy()
        assert policy.max_retries == 0
        assert policy.attempts == 1

    def test_delay_is_deterministic(self):
        a = RetryPolicy(max_retries=3, seed=7)
        b = RetryPolicy(max_retries=3, seed=7)
        for attempt in range(4):
            assert a.delay(attempt, key="cell") == b.delay(attempt, key="cell")

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(max_retries=8, base_delay=0.1, max_delay=1.0, jitter=0.0)
        delays = [policy.delay(a, key="k") for a in range(8)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert all(d <= 1.0 + 1e-12 for d in delays)
        assert delays[-1] == pytest.approx(1.0)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(max_retries=2, base_delay=0.4, jitter=0.5)
        for key in ("a", "b", "c"):
            d = policy.delay(0, key=key)
            assert 0.2 <= d <= 0.4

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_fresh_deadline_not_expired(self):
        d = Deadline.after(60.0)
        assert not d.expired()
        assert 0 < d.remaining() <= 60.0
        d.check("test")  # should not raise

    def test_expired_check_raises(self):
        d = Deadline.after(0.0)
        assert d.expired()
        with pytest.raises(DeadlineExceeded, match="wall-clock deadline"):
            d.check("the solver")

    def test_check_carries_best_known(self):
        d = Deadline.after(0.0)
        with pytest.raises(DeadlineExceeded) as info:
            d.check("B&B", best_known=7)
        assert info.value.best_known == 7

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValidationError):
            Deadline.after(-1.0)
        with pytest.raises(ValidationError):
            Deadline.after(float("nan"))


# ---------------------------------------------------------------------------
# FaultPolicy
# ---------------------------------------------------------------------------


class TestFaultPolicy:
    def test_strict_raises(self):
        policy = FaultPolicy("strict")
        with pytest.raises(ValueError):
            policy.absorb("bad", ValueError("boom"))

    def test_skip_counts_drops(self):
        registry = TelemetryRegistry()
        policy = FaultPolicy("skip", registry=registry)
        policy.absorb("bad", ValueError("boom"))
        policy.absorb("worse", ValueError("boom2"))
        assert policy.dropped == 2 and policy.clamped == 0
        assert registry.counter("resilience.records_dropped").value == 2
        assert registry.counter("resilience.faults", reason="bad").value == 1

    def test_clamp_counts_clamps(self):
        registry = TelemetryRegistry()
        policy = FaultPolicy("clamp", registry=registry)
        policy.absorb("oversize", ValueError("big"), action="clamp")
        assert policy.clamped == 1
        assert registry.counter("resilience.records_clamped").value == 1

    def test_error_budget_trips_back_to_strict(self):
        registry = TelemetryRegistry()
        policy = FaultPolicy("skip", error_budget=2, registry=registry)
        policy.absorb("a", ValueError("1"))
        policy.absorb("b", ValueError("2"))
        with pytest.raises(ValueError, match="error budget of 2 exhausted"):
            policy.absorb("c", ValueError("3"))
        assert policy.tripped
        assert registry.counter("resilience.budget_trips").value == 1
        # Once tripped, every later fault raises immediately.
        with pytest.raises(ValueError):
            policy.absorb("d", ValueError("4"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            FaultPolicy("lenient")


# ---------------------------------------------------------------------------
# CheckpointJournal
# ---------------------------------------------------------------------------


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "ck.ndjson")
        journal.append("k1", {"ratio": 1.25, "exact": True})
        journal.append("k2", {"ratio": 2.0, "exact": False})
        loaded = CheckpointJournal(tmp_path / "ck.ndjson").load()
        assert loaded["k1"] == {"ratio": 1.25, "exact": True}
        assert set(loaded) == {"k1", "k2"}

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "ck.ndjson")
        value = 0.1 + 0.2  # a float whose repr needs all 17 digits
        journal.append("k", {"ratio": value})
        assert CheckpointJournal(tmp_path / "ck.ndjson").load()["k"]["ratio"] == value

    def test_corrupt_lines_skipped(self, tmp_path):
        # A damaged record is skipped, so its cell reads as not done and is
        # recomputed; the skip is reported with its file and byte offset and
        # counted, and later appends stay readable.
        path = tmp_path / "ck.ndjson"
        journal = CheckpointJournal(path)
        journal.append("good", {"ratio": 1.0})
        journal.append("damaged", {"ratio": 1.5})
        journal.close()
        [segment] = path.glob("segment-*.wal")
        data = bytearray(segment.read_bytes())
        offset = data.index(b"\n") + 1
        data[offset + 20] ^= 0x01
        segment.write_bytes(bytes(data))
        CheckpointJournal(path).append("later", {"ratio": 2.0})
        reader = CheckpointJournal(path)
        with pytest.warns(RuntimeWarning, match=f"at byte {offset}"):
            loaded = reader.load()
        assert set(loaded) == {"good", "later"}
        assert reader.registry.counter("resilience.journal.corrupt_records").value == 1

    def test_last_write_wins(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "ck.ndjson")
        journal.append("k", {"ratio": 1.0})
        journal.append("k", {"ratio": 9.0})
        assert journal.load()["k"]["ratio"] == 9.0

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.ndjson").load() == {}

    def test_task_key_stable_and_distinct(self):
        spec = {"packer": "first-fit", "workload": "uniform", "seed": 3}
        assert task_key(spec) == task_key(dict(reversed(list(spec.items()))))
        assert task_key(spec) != task_key({**spec, "seed": 4})


# ---------------------------------------------------------------------------
# Solver deadlines and graceful degradation
# ---------------------------------------------------------------------------


class TestSolverDeadline:
    def test_bin_packing_respects_deadline(self):
        sizes = [0.3 + 0.01 * i for i in range(20)]
        with pytest.raises(DeadlineExceeded):
            bin_packing_min_bins(sizes, deadline=Deadline.after(0.0))

    def test_opt_total_respects_deadline(self):
        items = uniform_random(40, seed=1)
        with pytest.raises(DeadlineExceeded):
            opt_total(items, deadline=Deadline.after(0.0))

    def test_resolve_denominator_degrades_to_bounds(self):
        items = uniform_random(40, seed=1)
        info = resolve_denominator(items, deadline=Deadline.after(0.0))
        assert not info.exact
        assert info.degraded_reason == "deadline"
        assert info.value == pytest.approx(best_lower_bound(items))

    def test_degradation_counted_in_telemetry(self):
        registry = TelemetryRegistry()
        stats = SolverStats(registry=registry)
        items = uniform_random(40, seed=1)
        resolve_denominator(items, stats=stats, deadline=Deadline.after(0.0))
        assert (
            registry.counter("resilience.solver.degraded", reason="deadline").value
            == 1
        )

    def test_measured_ratio_bounded_within_twice_deadline(self):
        # Acceptance (b): a stalled/expired solve must still answer quickly
        # with a certified bound, never hang.
        items = uniform_random(60, seed=3)
        packer = get_packer("first-fit")
        budget = 0.05
        t0 = time.perf_counter()
        m = measured_ratio(packer, items, deadline=Deadline.after(0.0))
        elapsed = time.perf_counter() - t0
        assert elapsed < 2 * budget + 1.0  # bounds are closed-form: near-instant
        assert not m.exact
        assert m.degraded_reason == "deadline"
        assert m.denominator > 0
        assert m.ratio >= 1.0 - 1e-9

    def test_no_deadline_is_unchanged(self):
        items = uniform_random(15, seed=2)
        assert opt_total(items) == opt_total(items, deadline=Deadline.after(3600.0))


# ---------------------------------------------------------------------------
# Hardened trace loading (satellite: line numbers + offending field)
# ---------------------------------------------------------------------------


class TestTraceFaults:
    def _jsonl(self, *lines: str) -> str:
        return "\n".join(lines) + "\n"

    def test_strict_reports_line_and_field_for_size(self):
        text = self._jsonl(
            '{"id": 0, "size": 0.5, "arrival": 0.0, "departure": 1.0}',
            '{"id": 1, "size": 2.5, "arrival": 0.0, "departure": 1.0}',
        )
        with pytest.raises(ValidationError, match=r"line 2: field 'size' out of range"):
            load_jsonl(text)

    def test_strict_reports_inverted_interval(self):
        text = self._jsonl('{"id": 0, "size": 0.5, "arrival": 2.0, "departure": 1.0}')
        with pytest.raises(
            ValidationError, match=r"line 1: field 'departure' 1.0 <= arrival 2.0"
        ):
            load_jsonl(text)

    def test_strict_reports_non_numeric(self):
        text = self._jsonl('{"id": 0, "size": "huge", "arrival": 0.0, "departure": 1.0}')
        with pytest.raises(ValidationError, match=r"line 1: non-numeric size 'huge'"):
            load_jsonl(text)

    def test_strict_reports_missing_field(self):
        text = self._jsonl('{"id": 0, "size": 0.5, "arrival": 0.0}')
        with pytest.raises(ValidationError, match=r"line 1: missing field 'departure'"):
            load_jsonl(text)

    def test_strict_reports_invalid_json(self):
        text = self._jsonl(
            '{"id": 0, "size": 0.5, "arrival": 0.0, "departure": 1.0}',
            "{not json",
        )
        with pytest.raises(ValidationError, match=r"line 2: invalid JSON"):
            load_jsonl(text)

    def test_csv_line_numbers_include_header(self):
        from repro.workloads import load_csv

        text = "id,size,arrival,departure\n0,0.5,0.0,1.0\n1,abc,0.0,1.0\n"
        with pytest.raises(ValidationError, match=r"line 3: non-numeric size"):
            load_csv(text)

    def test_skip_drops_and_counts(self):
        registry = TelemetryRegistry()
        policy = FaultPolicy("skip", registry=registry)
        text = self._jsonl(
            '{"id": 0, "size": 0.5, "arrival": 0.0, "departure": 1.0}',
            '{"id": 1, "size": -1, "arrival": 0.0, "departure": 1.0}',
            '{"id": 2, "size": 0.5, "arrival": 0.0, "departure": 1.0}',
        )
        items = load_jsonl(text, policy=policy)
        assert [r.id for r in items] == [0, 2]
        assert policy.dropped == 1
        assert registry.counter("resilience.records_dropped").value == 1

    def test_clamp_repairs_oversize_and_inverted(self):
        policy = FaultPolicy("clamp")
        text = self._jsonl(
            '{"id": 0, "size": 2.5, "arrival": 0.0, "departure": 1.0}',
            '{"id": 1, "size": 0.5, "arrival": 3.0, "departure": 3.0}',
        )
        items = load_jsonl(text, policy=policy)
        assert len(items) == 2
        assert items.by_id(0).size == 1.0
        assert items.by_id(1).departure > 3.0
        assert policy.clamped == 2 and policy.dropped == 0

    def test_clamp_still_drops_unrepairable(self):
        policy = FaultPolicy("clamp")
        text = self._jsonl(
            '{"id": 0, "size": "junk", "arrival": 0.0, "departure": 1.0}',
            '{"id": 1, "size": 0.5, "arrival": 0.0, "departure": 1.0}',
        )
        items = load_jsonl(text, policy=policy)
        assert [r.id for r in items] == [1]
        assert policy.dropped == 1

    def test_duplicate_id_dropped_not_fatal(self):
        policy = FaultPolicy("skip")
        text = self._jsonl(
            '{"id": 7, "size": 0.5, "arrival": 0.0, "departure": 1.0}',
            '{"id": 7, "size": 0.4, "arrival": 0.5, "departure": 1.5}',
        )
        items = load_jsonl(text, policy=policy)
        assert len(items) == 1
        assert items.by_id(7).size == 0.5  # the first occurrence survives

    def test_budget_exhaustion_aborts_load(self):
        policy = FaultPolicy("skip", error_budget=1)
        text = self._jsonl(
            '{"id": 0, "size": -1, "arrival": 0.0, "departure": 1.0}',
            '{"id": 1, "size": -1, "arrival": 0.0, "departure": 1.0}',
        )
        with pytest.raises(ValidationError, match="error budget"):
            load_jsonl(text, policy=policy)

    def test_round_trip_unaffected_by_policy(self):
        items = uniform_random(20, seed=5)
        text = dump_jsonl(items)
        strict = load_jsonl(text)
        skipped = load_jsonl(text, policy=FaultPolicy("skip"))
        assert list(strict) == list(skipped)


# ---------------------------------------------------------------------------
# Hardened session + replay
# ---------------------------------------------------------------------------


def _item(id_, size, arrival, departure):
    from repro.core import Interval, Item

    return Item(id_, size, Interval(arrival, departure))


class TestSessionFaultPolicy:
    def test_strict_default_unchanged(self):
        session = PackingSession("first-fit")
        session.submit(_item(0, 0.5, 1.0, 2.0))
        with pytest.raises(ValidationError):
            session.submit(_item(1, 0.5, 0.0, 2.0))  # out of order
        with pytest.raises(ValidationError):
            session.submit(_item(0, 0.5, 1.0, 2.0))  # duplicate

    def test_skip_drops_out_of_order_and_duplicates(self):
        policy = FaultPolicy("skip")
        session = PackingSession("first-fit", fault_policy=policy)
        assert session.submit(_item(0, 0.5, 1.0, 2.0)) >= 0
        assert session.submit(_item(1, 0.5, 0.0, 2.0)) == -1  # out of order
        assert session.submit(_item(0, 0.5, 1.0, 2.0)) == -1  # duplicate
        assert policy.dropped == 2
        result = session.result()
        assert len(result.items) == 1

    def test_clamp_repairs_out_of_order_arrival(self):
        policy = FaultPolicy("clamp")
        session = PackingSession("first-fit", fault_policy=policy)
        session.submit(_item(0, 0.5, 1.0, 2.0))
        index = session.submit(_item(1, 0.5, 0.0, 3.0))
        assert index >= 0
        assert policy.clamped == 1
        # The committed placement starts at the session clock, not the past.
        result = session.result()
        assert result.items.by_id(1).arrival == 1.0

    def test_session_faults_surface_in_registry(self):
        registry = TelemetryRegistry()
        policy = FaultPolicy("skip", registry=registry)
        session = PackingSession("first-fit", registry=registry, fault_policy=policy)
        session.submit(_item(0, 0.5, 1.0, 2.0))
        session.submit(_item(1, 0.5, 0.0, 2.0))
        assert registry.counter("resilience.records_dropped").value == 1
        assert (
            registry.counter("resilience.faults", reason="out_of_order").value == 1
        )


class TestReplayOnError:
    def test_stop_truncates_and_records_error(self):
        items = uniform_random(10, seed=4)

        class Exploding(type(get_packer("first-fit"))):
            def place(self, item):
                if len(self.bins) >= 1 and item.id >= 5:
                    raise RuntimeError("kaboom")
                return super().place(item)

        log = record_decisions(Exploding(), items, on_error="stop")
        assert log.error is not None and "kaboom" in log.error
        assert 0 < len(log.decisions) < len(items)
        assert "error" in log.as_dict()

    def test_raise_is_default(self):
        items = uniform_random(5, seed=4)

        class Exploding(type(get_packer("first-fit"))):
            def place(self, item):
                raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError):
            record_decisions(Exploding(), items)

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError):
            record_decisions(get_packer("first-fit"), uniform_random(3, seed=0), on_error="ignore")


# ---------------------------------------------------------------------------
# MemoCache corruption recovery (satellite)
# ---------------------------------------------------------------------------


class TestMemoCacheCorruption:
    def _warm(self, path) -> MemoCache:
        cache = MemoCache(path)
        cache.put(MemoCache.key([0.5, 0.5], 1e-9), 1)
        cache.save()
        return cache

    def test_zero_byte_file_loads_empty(self, tmp_path):
        path = tmp_path / "memo.pkl"
        path.write_bytes(b"")
        cache = MemoCache(path)
        assert len(cache) == 0

    def test_truncated_pickle_loads_empty(self, tmp_path):
        path = tmp_path / "memo.pkl"
        self._warm(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert len(MemoCache(path)) == 0

    def test_garbage_bytes_load_empty(self, tmp_path):
        path = tmp_path / "memo.pkl"
        path.write_bytes(b"\x00\xffnot a pickle at all")
        assert len(MemoCache(path)) == 0

    def test_wrong_payload_type_loads_empty(self, tmp_path):
        path = tmp_path / "memo.pkl"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        assert len(MemoCache(path)) == 0

    def test_corrupt_file_is_repaired_by_next_save(self, tmp_path):
        path = tmp_path / "memo.pkl"
        path.write_bytes(b"garbage")
        cache = MemoCache(path)
        key = MemoCache.key([0.25, 0.75], 1e-9)
        cache.put(key, 1)
        cache.save()
        assert MemoCache(path).get(key) == 1

    def test_concurrent_saves_merge_without_losing_entries(self, tmp_path):
        path = tmp_path / "memo.pkl"
        a = MemoCache(path)
        b = MemoCache(path)
        key_a = MemoCache.key([0.3], 1e-9)
        key_b = MemoCache.key([0.7], 1e-9)
        a.put(key_a, 1)
        b.put(key_b, 1)
        a.save()
        b.save()  # merge-on-save must keep a's entry
        merged = MemoCache(path)
        assert merged.get(key_a) == 1
        assert merged.get(key_b) == 1


# ---------------------------------------------------------------------------
# Chaos acceptance suite
# ---------------------------------------------------------------------------

CHAOS_SEED = 1234


def _tasks(n_cells: int = 4) -> list[SweepTask]:
    return [
        SweepTask(
            packer="first-fit",
            workload="uniform",
            workload_kwargs={"n": 15, "seed": seed},
            label=f"seed={seed}",
        )
        for seed in range(n_cells)
    ]


class TestChaosSweep:
    def test_injected_crash_is_retried_to_success(self):
        # Acceptance (a): one worker crash per sweep; with a retry budget the
        # sweep completes with results identical to the fault-free run.
        baseline = run_sweep(_tasks(), executor="serial")
        chaos = ChaosInjector(seed=CHAOS_SEED, crash_index=1, crash_attempts=1)
        registry = TelemetryRegistry()
        outcomes = run_sweep(
            _tasks(),
            executor="serial",
            retry=RetryPolicy(max_retries=2, base_delay=0.0),
            chaos=chaos,
            registry=registry,
        )
        assert all(o.ok for o in outcomes)
        assert [o.ratio for o in outcomes] == [o.ratio for o in baseline]
        assert outcomes[1].attempts == 2
        assert registry.counter("resilience.sweep.crashes").value == 1
        assert registry.counter("resilience.sweep.retries").value == 1

    def test_crash_without_retries_isolates_to_cell(self):
        chaos = ChaosInjector(seed=CHAOS_SEED, crash_index=0, crash_attempts=1)
        registry = TelemetryRegistry()
        outcomes = run_sweep(
            _tasks(), executor="serial", chaos=chaos, registry=registry
        )
        assert outcomes[0].error is not None
        assert "InjectedFault" in outcomes[0].error
        assert all(o.ok for o in outcomes[1:])
        assert registry.counter("resilience.sweep.failures").value == 1

    def test_crash_in_process_pool_does_not_kill_sweep(self):
        chaos = ChaosInjector(seed=CHAOS_SEED, crash_index=2, crash_attempts=1)
        outcomes = run_sweep(
            _tasks(),
            executor="process",
            max_workers=2,
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
            chaos=chaos,
        )
        baseline = run_sweep(_tasks(), executor="serial")
        assert all(o.ok for o in outcomes)
        assert [o.ratio for o in outcomes] == pytest.approx(
            [o.ratio for o in baseline]
        )

    def test_solver_stall_degrades_within_twice_deadline(self):
        # Acceptance (b): the stall burns the whole budget; each cell must
        # still answer with a bounded, inexact result in ~stall + epsilon.
        budget = 0.1
        chaos = ChaosInjector(seed=CHAOS_SEED, solver_stall=budget)
        t0 = time.perf_counter()
        outcomes = run_sweep(
            _tasks(2), executor="serial", deadline=budget, chaos=chaos
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 2 * (2 * budget)  # 2 cells, each within 2x deadline
        for o in outcomes:
            assert o.ok
            assert not o.exact
            assert o.degraded_reason == "deadline"
            assert o.denominator > 0
            assert o.ratio >= 1.0 - 1e-9

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        # Acceptance (c): a sweep interrupted by an unrecovered crash keeps
        # its completed cells; rerunning with the same journal resumes them
        # and completes the rest, bit-identical to a fault-free run.
        ck = tmp_path / "sweep.ndjson"
        baseline = run_sweep(_tasks(), executor="serial")
        chaos = ChaosInjector(seed=CHAOS_SEED, crash_index=2, crash_attempts=1)
        first = run_sweep(
            _tasks(), executor="serial", chaos=chaos, checkpoint=str(ck)
        )
        assert first[2].error is not None
        assert sum(1 for o in first if o.ok) == 3

        registry = TelemetryRegistry()
        second = run_sweep(
            _tasks(), executor="serial", checkpoint=str(ck), registry=registry
        )
        assert all(o.ok for o in second)
        # Bit-identical, not approx: resumed floats round-trip exactly.
        assert [o.ratio for o in second] == [o.ratio for o in baseline]
        assert [o.usage for o in second] == [o.usage for o in baseline]
        resumed = [o.from_checkpoint for o in second]
        assert resumed == [True, True, False, True]
        assert registry.counter("resilience.sweep.cells_resumed").value == 3

    def test_checkpoint_resumes_journal_without_certified_counter(self, tmp_path):
        # Journals written before SolverStats gained ``certified`` must still
        # resume: the missing counter reads as 0, the others round-trip.
        ck = tmp_path / "sweep.ndjson"
        first = run_sweep(_tasks(2), executor="serial", checkpoint=str(ck))
        assert all(o.solver.certified > 0 for o in first)
        records = CheckpointJournal(ck).load()
        shutil.rmtree(ck)
        rewritten = CheckpointJournal(ck)
        for key, record in records.items():
            del record["solver"]["certified"]
            rewritten.append(key, record)
        rewritten.close()

        resumed = run_sweep(_tasks(2), executor="serial", checkpoint=str(ck))
        assert all(o.from_checkpoint for o in resumed)
        assert [o.ratio for o in resumed] == [o.ratio for o in first]
        for old, new in zip(first, resumed):
            assert new.solver.certified == 0
            expected = {**old.solver.as_dict(), "certified": 0}
            assert new.solver.as_dict() == expected

    def test_checkpoint_ignores_changed_tasks(self, tmp_path):
        ck = tmp_path / "sweep.ndjson"
        run_sweep(_tasks(2), executor="serial", checkpoint=str(ck))
        changed = [
            SweepTask(
                packer="best-fit",  # different packer: keys must not collide
                workload="uniform",
                workload_kwargs={"n": 15, "seed": seed},
                label=f"seed={seed}",
            )
            for seed in range(2)
        ]
        outcomes = run_sweep(changed, executor="serial", checkpoint=str(ck))
        assert all(not o.from_checkpoint for o in outcomes)

    def test_injector_is_deterministic(self):
        a = ChaosInjector(seed=9, crash_rate=0.5)
        b = ChaosInjector(seed=9, crash_rate=0.5)
        assert [a.crashes(i, 0) for i in range(50)] == [
            b.crashes(i, 0) for i in range(50)
        ]
        assert any(a.crashes(i, 0) for i in range(50))
        assert not all(a.crashes(i, 0) for i in range(50))


class TestChaosTrace:
    def test_corrupt_jsonl_counts_match_skip_drops(self):
        # Acceptance (c): ~5% corruption; a skip-policy load must drop
        # exactly the injected number of records.
        items = uniform_random(200, seed=CHAOS_SEED)
        text = dump_jsonl(items)
        corrupted, injected = corrupt_jsonl(text, rate=0.05, seed=CHAOS_SEED)
        assert injected > 0
        policy = FaultPolicy("skip", registry=TelemetryRegistry())
        loaded = load_jsonl(corrupted, policy=policy)
        assert policy.dropped == injected
        assert len(loaded) == len(items) - injected
        assert (
            policy.registry.counter("resilience.records_dropped").value == injected
        )

    def test_corruption_is_deterministic(self):
        text = dump_jsonl(uniform_random(100, seed=0))
        a = corrupt_jsonl(text, rate=0.1, seed=5)
        b = corrupt_jsonl(text, rate=0.1, seed=5)
        assert a == b

    def test_injected_fault_is_repro_error(self):
        from repro.core import ReproError

        assert issubclass(InjectedFault, ReproError)
