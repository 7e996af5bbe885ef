"""Crash-safe serving tests: framing, the WAL, recovery, and the chaos battery.

The properties the PR gates on, bottom-up:

* **framing** — CRC line frames and atomic framed blobs detect exactly
  where good data ends (torn tails, bit flips, truncation);
* **journal mechanics** — segment rotation, sequence continuation across
  reopen, checkpoint + compaction, torn-tail healing, and mid-file damage
  stopping recovery instead of truncating acknowledged records;
* **recovery parity** — a rehydrated tenant (checkpoint + tail replay) is
  bit-identical to an uninterrupted session, the admission gate survives
  (duplicates of acked items stay rejected), and drain still proves
  ``lost == 0``;
* **eviction** — journal-then-evict under ``max_resident`` rehydrates
  transparently with nothing lost;
* **rate limiting** — token buckets with deficit-sized ``retry_ms`` hints;
* **the chaos battery** — a real ``repro serve`` child is SIGKILLed
  mid-load, restarted with ``--recover``, and must show **zero
  acknowledged-item loss** plus per-tenant snapshot parity with an
  uninterrupted in-process reference.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.core import Interval, Item, ReproError, ValidationError
from repro.core.batch import ArrivalBatch
from repro.obs import TelemetryRegistry
from repro.resilience import (
    CorruptLogError,
    frame_line,
    parse_frame,
    read_framed_blob,
    read_log,
    write_framed_blob,
)
from repro.serving import (
    RateLimiter,
    ServingRuntime,
    SessionManager,
    TenantConfig,
    TokenBucket,
    WalConfig,
    WriteAheadLog,
    recover,
)
from repro.serving.wal import TenantWal, _tenant_dirname

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _item(item_id: int, arrival: float, departure: float, size: float = 0.3) -> Item:
    return Item(item_id, size, Interval(arrival, departure))


# ---------------------------------------------------------------------------
# CRC framing (repro.resilience.log)
# ---------------------------------------------------------------------------


class TestLineFrames:
    def test_round_trip(self):
        record = {"op": "arrival", "seq": 3, "sizes": [0.25], "id": 7}
        line = frame_line(record)
        assert line.endswith("\n")
        assert parse_frame(line) == record

    def test_canonical_payload_is_byte_stable(self):
        a = frame_line({"b": 1, "a": 2})
        b = frame_line({"a": 2, "b": 1})
        assert a == b  # sorted keys → identical frames for identical records

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "deadbeef",  # too short, no payload
            'zzzzzzzz {"a":1}',  # non-hex CRC
            '00000000 {"a":1}',  # CRC mismatch
            "0000000",  # shorter than a CRC prefix
        ],
    )
    def test_bad_frames_parse_to_none(self, bad):
        assert parse_frame(bad) is None

    def test_crc_mismatch_after_payload_edit(self):
        line = frame_line({"op": "arrival", "seq": 1})
        tampered = line.replace('"seq":1', '"seq":2')
        assert parse_frame(tampered) is None

    def test_non_object_payload_is_rejected(self):
        import zlib

        payload = "[1,2,3]"
        crc = zlib.crc32(payload.encode()) & 0xFFFFFFFF
        assert parse_frame(f"{crc:08x} {payload}") is None

    def test_read_log_skips_the_torn_tail(self, tmp_path):
        path = tmp_path / "segment-000000000001.wal"
        good = [frame_line({"seq": k}) for k in range(1, 4)]
        path.write_text("".join(good) + "garbage torn tail", encoding="utf-8")
        records = list(read_log(tmp_path))
        assert [r["seq"] for r, _, _ in records] == [1, 2, 3]
        assert [offset for _, _, offset in records] == [
            sum(len(g.encode()) for g in good[:k]) for k in range(3)
        ]

    def test_read_log_reports_a_mid_file_flip(self, tmp_path):
        path = tmp_path / "segment-000000000001.wal"
        lines = [frame_line({"seq": k}) for k in range(1, 5)]
        lines[1] = lines[1].replace("2", "9", 1)  # corrupt the CRC prefix
        path.write_text("".join(lines), encoding="utf-8")
        # a bad frame mid-file is reported with its offset, never skipped
        with pytest.raises(CorruptLogError) as err:
            list(read_log(tmp_path))
        assert err.value.offset == len(lines[0].encode())
        assert str(path) in str(err.value)

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_log(tmp_path / "nope")) == []


class TestBlobFrames:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt"
        payload = os.urandom(512)
        write_framed_blob(path, payload)
        assert read_framed_blob(path) == payload

    def test_replace_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "ckpt"
        write_framed_blob(path, b"one")
        write_framed_blob(path, b"two")
        assert read_framed_blob(path) == b"two"
        assert list(tmp_path.iterdir()) == [path]

    def test_truncated_blob_reads_as_none(self, tmp_path):
        path = tmp_path / "ckpt"
        write_framed_blob(path, b"x" * 100)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # torn write
        assert read_framed_blob(path) is None

    def test_flipped_bit_reads_as_none(self, tmp_path):
        path = tmp_path / "ckpt"
        write_framed_blob(path, b"x" * 100)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        assert read_framed_blob(path) is None

    def test_missing_and_foreign_files_read_as_none(self, tmp_path):
        assert read_framed_blob(tmp_path / "nope") is None
        foreign = tmp_path / "foreign"
        foreign.write_bytes(b"not a framed blob at all")
        assert read_framed_blob(foreign) is None


# ---------------------------------------------------------------------------
# TenantWal mechanics
# ---------------------------------------------------------------------------


def _wal(tmp_path, **config) -> WriteAheadLog:
    return WriteAheadLog(
        tmp_path / "wal", config=WalConfig(**config), registry=TelemetryRegistry()
    )


class TestWalConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            WalConfig(segment_bytes=0)
        with pytest.raises(ValidationError):
            WalConfig(sync="sometimes")
        with pytest.raises(ValidationError):
            WalConfig(checkpoint_records=-1)
        with pytest.raises(ValidationError):
            WalConfig(group_window=-0.001)


class TestTenantDirname:
    def test_hostile_tenant_ids_cannot_escape_the_root(self):
        name = _tenant_dirname("../../etc/passwd")
        assert "/" not in name and "\\" not in name
        assert name not in (".", "..")

    def test_sanitisation_collisions_stay_distinct(self):
        assert _tenant_dirname("a/b") != _tenant_dirname("a_b")

    def test_empty_tenant_gets_a_name(self):
        assert _tenant_dirname("").startswith("tenant-")


class TestTenantWal:
    def test_append_replay_round_trip(self, tmp_path):
        wal = _wal(tmp_path)
        t = wal.tenant("acme")
        item = Item(7, 0.25, Interval(1.0, 4.0), {"team": "blue"})
        assert t.append_arrival(item) == 1
        assert t.append_advance(5.0) == 2
        t.close()

        records = list(_wal(tmp_path).tenant("acme").replay())
        assert [r.op for r in records] == ["arrival", "advance"]
        assert records[0].item == item  # sizes, interval and tags survive
        assert records[1].time == 5.0
        assert [r.seq for r in records] == [1, 2]

    def test_sequence_continues_across_reopen(self, tmp_path):
        wal = _wal(tmp_path)
        wal.tenant("a").append_arrival(_item(1, 0.0, 2.0))
        wal.close()
        reopened = _wal(tmp_path).tenant("a")
        assert reopened.seq == 1
        assert reopened.append_arrival(_item(2, 1.0, 3.0)) == 2

    def test_segments_rotate_at_the_size_cap(self, tmp_path):
        wal = _wal(tmp_path, segment_bytes=200)
        t = wal.tenant("a")
        for k in range(12):
            t.append_arrival(_item(k, float(k), k + 2.0))
        segments = [p for p in t.path.iterdir() if p.name.startswith("segment-")]
        assert len(segments) > 1
        # rotation must not lose or reorder anything
        assert [r.item.id for r in t.replay()] == list(range(12))

    def test_checkpoint_compacts_covered_segments(self, tmp_path):
        wal = _wal(tmp_path, segment_bytes=200)
        t = wal.tenant("a")
        for k in range(12):
            t.append_arrival(_item(k, float(k), k + 2.0))
        covered = t.checkpoint({"anything": "picklable"})
        assert covered == 12
        # every segment was covered → only checkpoint + meta remain
        segments = [p for p in t.path.iterdir() if p.name.startswith("segment-")]
        assert segments == []
        assert t.records_since_checkpoint == 0
        # the tail after the checkpoint is empty
        assert list(t.replay()) == []

    def test_appends_after_checkpoint_form_the_tail(self, tmp_path):
        wal = _wal(tmp_path)
        t = wal.tenant("a")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.checkpoint({"n": 1})
        t.append_arrival(_item(2, 1.0, 3.0))
        t.close()
        reopened = _wal(tmp_path).tenant("a")
        seq, state = reopened.load_checkpoint()
        assert (seq, state) == (1, {"n": 1})
        assert [r.item.id for r in reopened.replay()] == [2]

    def test_corrupt_checkpoint_degrades_to_none_never_wrong_state(self, tmp_path):
        wal = _wal(tmp_path)
        t = wal.tenant("a")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.checkpoint({"n": 1})
        t.append_arrival(_item(2, 1.0, 3.0))
        t.close()
        (t.path / "checkpoint.ckpt").write_bytes(b"rotted")
        reopened = _wal(tmp_path).tenant("a")
        # bit rot reads as "no checkpoint", never as damaged state; the
        # segments compaction kept (the post-checkpoint tail) still replay
        assert reopened.load_checkpoint() is None
        assert [r.item.id for r in reopened.replay(after_seq=0)] == [2]

    def test_segments_no_checkpoint_covers_stop_recovery(self, tmp_path):
        wal = _wal(tmp_path)
        t = wal.tenant("a")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.checkpoint({"n": 1})  # compacts away the segment holding seq 1
        t.append_arrival(_item(2, 1.0, 3.0))
        t.close()
        (t.path / "checkpoint.ckpt").write_bytes(b"rotted")
        runtime = ServingRuntime(SessionManager(), wal=_wal(tmp_path))
        # replaying only the tail would silently lose acked record 1
        with pytest.raises(CorruptLogError, match="records 1..1 are missing"):
            recover(runtime)
        assert "a" not in runtime.manager  # nothing half-restored

    def test_torn_tail_is_healed_before_new_appends(self, tmp_path):
        wal = _wal(tmp_path)
        t = wal.tenant("a")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.append_arrival(_item(2, 1.0, 3.0))
        t.close()
        segment = next(p for p in t.path.iterdir() if p.name.startswith("segment-"))
        with open(segment, "ab") as fh:
            fh.write(b'0bad00aa {"torn": mid-write')  # the kill tore this line
        healed = _wal(tmp_path)
        reopened = healed.tenant("a")
        # the tear was truncated away, so a new append is NOT orphaned
        # behind a bad frame...
        reopened.append_arrival(_item(3, 2.0, 4.0))
        assert [r.item.id for r in reopened.replay()] == [1, 2, 3]
        # ...and the heal was counted
        assert healed.registry.counter("serving.wal.healed_tails").value == 1

    def test_valid_frame_with_broken_schema_stops_the_segment(self, tmp_path):
        wal = _wal(tmp_path)
        t = wal.tenant("a")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.close()
        segment = next(p for p in t.path.iterdir() if p.name.startswith("segment-"))
        offset = segment.stat().st_size
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write(frame_line({"op": "arrival", "seq": 2, "id": 9}))  # no sizes
        reopened = _wal(tmp_path)
        # CRC-valid but schema-broken is real damage, not a torn tail:
        # replay stops with an error naming the segment and offset
        with pytest.raises(CorruptLogError) as err:
            list(reopened.tenant("a").replay())
        assert err.value.path == segment
        assert err.value.offset == offset
        assert reopened.registry.counter("serving.wal.corrupt_records").value == 1

    def test_mid_file_flip_stops_recovery_and_keeps_every_record(self, tmp_path):
        wal = _wal(tmp_path, sync="always")
        t = wal.tenant("a")
        for k in range(10):  # each fsynced and acknowledged
            t.append_arrival(_item(k, float(k), k + 2.0))
        wal.close()
        segment = next(t.path.glob("segment-*.wal"))
        lines = segment.read_bytes().splitlines(keepends=True)
        offset = len(lines[0]) + len(lines[1])
        data = bytearray(segment.read_bytes())
        data[offset + 20] ^= 0x01  # one flipped byte in record 3
        segment.write_bytes(bytes(data))

        runtime = ServingRuntime(SessionManager(), wal=_wal(tmp_path))
        with pytest.raises(ReproError) as err:
            recover(runtime)
        assert str(segment) in str(err.value)
        assert f"at byte {offset}" in str(err.value)
        # nothing was truncated: all ten records are still on disk...
        assert segment.read_bytes() == bytes(data)
        # ...and the sequence counter did not restart behind the damage
        reopened = _wal(tmp_path).tenant("a")
        assert reopened.seq == 10
        assert reopened.append_arrival(_item(10, 10.0, 12.0)) == 11

    def test_sync_always_fsyncs_per_append(self, tmp_path):
        wal = _wal(tmp_path, sync="always")
        t = wal.tenant("a")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.append_arrival(_item(2, 1.0, 3.0))
        assert wal.registry.counter("serving.wal.fsyncs").value >= 2

    def _windowed(self, tmp_path, **config) -> tuple[TenantWal, _FakeClock, TelemetryRegistry]:
        clock = _FakeClock()
        registry = TelemetryRegistry()
        t = TenantWal(
            "a", tmp_path / "wal" / "a", WalConfig(**config), registry, clock=clock
        )
        return t, clock, registry

    def test_fast_path_arrival_frames_byte_match_frame_line(self, tmp_path):
        # The hand-built (tagless) arrival frame must be byte-identical to
        # the canonical frame_line encoding — same CRC, same sorted-key
        # compact JSON — so readers cannot tell which path wrote a record.
        wal = _wal(tmp_path)
        t = wal.tenant("a")
        t.append_arrival(_item(7, 1.5, 6.25, size=0.125))
        t.append_arrival(Item(8, [0.5, 0.25], Interval(2.0, 9.0)))
        t.close()
        segment = next(t.path.glob("segment-*.wal"))
        lines = segment.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == frame_line(
            {
                "op": "arrival",
                "id": 7,
                "sizes": [0.125],
                "arrival": 1.5,
                "departure": 6.25,
                "seq": 1,
            }
        )
        assert lines[1] == frame_line(
            {
                "op": "arrival",
                "id": 8,
                "sizes": [0.5, 0.25],
                "arrival": 2.0,
                "departure": 9.0,
                "seq": 2,
            }
        )

    def test_group_window_coalesces_deadline_syncs(self, tmp_path):
        t, clock, registry = self._windowed(tmp_path, group_window=0.025)
        fsyncs = registry.counter("serving.wal.fsyncs")
        coalesced = registry.counter("serving.wal.fsyncs_coalesced")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.sync()
        assert (fsyncs.value, coalesced.value) == (1, 0)
        clock.now = 0.010  # inside the window: the group commit coalesces
        t.append_arrival(_item(2, 1.0, 3.0))
        t.sync()
        assert (fsyncs.value, coalesced.value) == (1, 1)
        clock.now = 0.040  # window elapsed: the still-dirty tail fsyncs now
        t.sync()
        assert (fsyncs.value, coalesced.value) == (2, 1)

    def test_hard_points_fsync_inside_the_window(self, tmp_path):
        t, clock, registry = self._windowed(tmp_path, group_window=60.0)
        fsyncs = registry.counter("serving.wal.fsyncs")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.sync()
        t.append_arrival(_item(2, 1.0, 3.0))
        t.sync()  # coalesced: the window is a minute wide
        assert fsyncs.value == 1
        t.sync(force=True)  # what rotation/checkpoint/close use
        assert fsyncs.value == 2
        t.append_arrival(_item(3, 2.0, 4.0))
        t.checkpoint({"marker": True})  # rotates, so it must really fsync
        assert fsyncs.value >= 3
        t.close()

    def test_group_window_zero_fsyncs_every_group_commit(self, tmp_path):
        t, clock, registry = self._windowed(tmp_path, group_window=0.0)
        fsyncs = registry.counter("serving.wal.fsyncs")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.sync()
        t.append_arrival(_item(2, 1.0, 3.0))
        t.sync()
        assert fsyncs.value == 2
        t.close()

    def test_sync_soon_runs_the_fsync_off_thread(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        clock = _FakeClock()
        registry = TelemetryRegistry()
        with ThreadPoolExecutor(max_workers=1) as pool:
            t = TenantWal(
                "a",
                tmp_path / "wal" / "a",
                WalConfig(group_window=0.025),
                registry,
                clock=clock,
                executor=pool,
            )
            fsyncs = registry.counter("serving.wal.fsyncs")
            coalesced = registry.counter("serving.wal.fsyncs_coalesced")
            t.append_arrival(_item(1, 0.0, 2.0))
            t.sync_soon()  # dispatched to the pool
            pool.submit(lambda: None).result()  # barrier: the job has run
            assert (fsyncs.value, coalesced.value) == (1, 0)
            assert not t._dirty
            clock.now = 0.010
            t.append_arrival(_item(2, 1.0, 3.0))
            t.sync_soon()  # inside the window: coalesced inline, no dispatch
            assert (fsyncs.value, coalesced.value) == (1, 1)
            clock.now = 0.040
            t.sync_soon()
            pool.submit(lambda: None).result()
            assert (fsyncs.value, coalesced.value) == (2, 1)
            t.close()

    def test_sync_soon_without_executor_commits_inline(self, tmp_path):
        t, clock, registry = self._windowed(tmp_path, group_window=0.025)
        fsyncs = registry.counter("serving.wal.fsyncs")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.sync_soon()  # no executor: synchronous fallback
        assert fsyncs.value == 1
        assert not t._dirty
        t.close()

    def test_wal_close_drains_the_background_syncer(self, tmp_path):
        wal = _wal(tmp_path)  # group mode: owns a syncer thread
        t = wal.tenant("a")
        t.append_arrival(_item(1, 0.0, 2.0))
        t.sync_soon()
        wal.close()  # shuts the syncer down, then hard-syncs and closes
        assert not t._dirty
        replayed = [r.item.id for r in _wal(tmp_path).tenant("a").replay(after_seq=0)]
        assert replayed == [1]

    def test_coalesced_tail_survives_process_death(self, tmp_path):
        # A coalesced sync leaves the tail un-fsynced but written — a new
        # handle on the same directory (what a restarted process sees on a
        # live OS) replays every record.
        t, clock, registry = self._windowed(tmp_path, group_window=60.0)
        t.append_arrival(_item(1, 0.0, 2.0))
        t.sync()
        t.append_arrival(_item(2, 1.0, 3.0))
        t.sync()  # coalesced — never close(), mimicking SIGKILL
        reopened = TenantWal(
            "a", tmp_path / "wal" / "a", WalConfig(), TelemetryRegistry()
        )
        # replay raises on any damage, so a clean read proves the tail whole
        replayed = [r.item.id for r in reopened.replay(after_seq=0)]
        assert replayed == [1, 2]


class TestWriteAheadLog:
    def test_tenants_lists_raw_ids_from_meta(self, tmp_path):
        wal = _wal(tmp_path)
        wal.tenant("beta")
        wal.tenant("hello ../../etc")  # hostile id, sanitised directory
        wal.close()
        reopened = _wal(tmp_path)
        assert reopened.tenants() == ["beta", "hello ../../etc"]
        assert reopened.has_tenant("beta")
        assert not reopened.has_tenant("nope")
        # every journal stayed under the root
        for sub in (tmp_path / "wal").iterdir():
            assert sub.parent == tmp_path / "wal"

    def test_missing_root_lists_nothing(self, tmp_path):
        assert WriteAheadLog(tmp_path / "never-created").tenants() == []


# ---------------------------------------------------------------------------
# crash recovery (in-process)
# ---------------------------------------------------------------------------


def _reference_snapshot(algorithm: str, items: list[Item], advance_to: float | None):
    manager = SessionManager(TenantConfig(algorithm=algorithm))
    manager.submit_many("ref", ArrivalBatch.from_items(items))
    if advance_to is not None:
        manager.advance("ref", advance_to)
    return manager.snapshot("ref")


class TestCrashRecovery:
    @pytest.mark.parametrize("algorithm", ["first-fit", "best-fit"])
    def test_recovery_is_bit_identical_without_a_checkpoint(self, tmp_path, algorithm):
        items = [_item(k, 0.5 * k, 0.5 * k + 3.0, 0.3 + 0.04 * (k % 5)) for k in range(17)]

        async def crash_phase():
            rt = ServingRuntime(
                SessionManager(TenantConfig(algorithm=algorithm)),
                wal=WriteAheadLog(tmp_path / "wal"),
                batch_size=4,
                batch_deadline=30.0,
            )
            for item in items:
                assert rt.offer("acme", item).admitted
            rt.advance("acme", 10.0)
            # no drain, no close: the process "dies" with acked items
            # pending in the queue — they exist only in the journal.

        asyncio.run(crash_phase())

        async def recover_phase():
            rt = ServingRuntime(
                SessionManager(TenantConfig(algorithm=algorithm)),
                wal=WriteAheadLog(tmp_path / "wal"),
            )
            report = recover(rt)
            [outcome] = report.tenants
            assert outcome.tenant == "acme"
            assert not outcome.from_checkpoint
            assert outcome.replayed_arrivals == 17
            assert outcome.replayed_advances == 1
            assert outcome.items_submitted == 17
            # bit-identical to a run that was never interrupted
            assert rt.snapshot("acme") == _reference_snapshot(algorithm, items, 10.0)
            # the admission gate survived: an acked id stays rejected
            verdict = rt.offer("acme", _item(5, 50.0, 60.0))
            assert verdict.status == "rejected" and verdict.reason == "duplicate_id"
            # and the tenant keeps serving, with nothing lost at drain
            assert rt.offer("acme", _item(100, 50.0, 60.0)).admitted
            report = await rt.drain()
            assert report.lost == 0

        asyncio.run(recover_phase())

    def test_recovery_from_an_auto_checkpoint_plus_tail(self, tmp_path):
        async def crash_phase():
            rt = ServingRuntime(
                SessionManager(),
                wal=WriteAheadLog(tmp_path / "wal", config=WalConfig(checkpoint_records=6)),
                batch_size=3,
                batch_deadline=30.0,
            )
            for k in range(10):
                assert rt.offer("acme", _item(k, float(k), k + 4.0)).admitted
                rt.flush("acme")
            rt.advance("acme", 11.0)
            for k in range(10, 13):  # tail beyond the last checkpoint
                assert rt.offer("acme", _item(k, 11.0 + k, 16.0 + k)).admitted

        asyncio.run(crash_phase())

        async def recover_phase():
            rt = ServingRuntime(SessionManager(), wal=WriteAheadLog(tmp_path / "wal"))
            report = recover(rt)
            [outcome] = report.tenants
            assert outcome.from_checkpoint
            assert outcome.checkpoint_seq > 0
            assert outcome.items_submitted == 13
            items = [_item(k, float(k), k + 4.0) for k in range(10)]
            tail = [_item(k, 11.0 + k, 16.0 + k) for k in range(10, 13)]
            ref = SessionManager()
            ref.submit_many("ref", ArrivalBatch.from_items(items))
            ref.advance("ref", 11.0)
            ref.submit_many("ref", ArrivalBatch.from_items(tail))
            assert rt.snapshot("acme") == ref.snapshot("ref")
            await rt.drain()

        asyncio.run(recover_phase())

    def test_recover_requires_a_wal(self):
        with pytest.raises(ValueError, match="write-ahead log"):
            recover(ServingRuntime())

    def test_drain_report_accounts_recovered_admissions(self, tmp_path):
        async def crash_phase():
            rt = ServingRuntime(SessionManager(), wal=WriteAheadLog(tmp_path / "wal"))
            for tenant in ("a", "b"):
                for k in range(5):
                    assert rt.offer(tenant, _item(k, float(k), k + 2.0)).admitted

        asyncio.run(crash_phase())

        async def recover_phase():
            rt = ServingRuntime(SessionManager(), wal=WriteAheadLog(tmp_path / "wal"))
            recover(rt)
            report = await rt.drain()
            assert report.admitted == 10 and report.placed == 10
            assert report.lost == 0
            assert sorted(c.tenant for c in report.closed) == ["a", "b"]

        asyncio.run(recover_phase())

    def test_wal_append_failure_rejects_instead_of_false_acking(self, tmp_path, monkeypatch):
        async def scenario():
            wal = WriteAheadLog(tmp_path / "wal")
            rt = ServingRuntime(SessionManager(), wal=wal)
            assert rt.offer("a", _item(1, 0.0, 2.0)).admitted

            from repro.serving.wal import TenantWal

            def broken(self, items):
                raise OSError("disk full")

            monkeypatch.setattr(TenantWal, "append_arrivals", broken)
            verdict = rt.offer("a", _item(2, 1.0, 3.0))
            assert verdict.status == "rejected" and verdict.reason == "wal_error"
            assert "disk full" in verdict.error
            monkeypatch.undo()
            # the un-journaled item was never acked, so its id is still free
            assert rt.offer("a", _item(2, 1.0, 3.0)).admitted
            report = await rt.drain()
            assert report.admitted == 2 and report.lost == 0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# hot-tenant eviction
# ---------------------------------------------------------------------------


class TestEviction:
    def test_max_resident_requires_a_wal(self):
        with pytest.raises(ValidationError, match="write-ahead log"):
            ServingRuntime(max_resident=2)

    def test_lru_evicts_then_rehydrates_transparently(self, tmp_path):
        async def scenario():
            rt = ServingRuntime(
                SessionManager(),
                wal=WriteAheadLog(tmp_path / "wal"),
                max_resident=2,
                batch_size=64,
                batch_deadline=30.0,
            )
            assert rt.offer("a", _item(1, 0.0, 4.0)).admitted
            assert rt.offer("b", _item(1, 0.0, 4.0)).admitted
            # "a" is the least recently touched → creating "c" evicts it
            assert rt.offer("c", _item(1, 0.0, 4.0)).admitted
            assert "a" not in rt.manager
            assert rt.registry.counter("serving.evictions", tenant="a").value == 1
            # the evicted tenant's next offer rehydrates it mid-stream
            assert rt.offer("a", _item(2, 1.0, 5.0)).admitted
            assert "a" in rt.manager
            assert rt.registry.counter("serving.rehydrations", tenant="a").value == 1
            # the gate crossed the eviction too: the old id stays dead
            verdict = rt.offer("a", _item(1, 2.0, 6.0))
            assert verdict.status == "rejected" and verdict.reason == "duplicate_id"
            # drain accounts every tenant, resident or journaled
            report = await rt.drain()
            assert report.admitted == 4 and report.lost == 0
            assert sorted(c.tenant for c in report.closed) == ["a", "b", "c"]

        asyncio.run(scenario())

    def test_eviction_preserves_placements_bit_identically(self, tmp_path):
        items_a = [_item(k, 0.5 * k, 0.5 * k + 4.0, 0.21 + 0.1 * (k % 3)) for k in range(9)]

        async def scenario():
            rt = ServingRuntime(
                SessionManager(),
                wal=WriteAheadLog(tmp_path / "wal"),
                max_resident=1,
                batch_size=64,
                batch_deadline=30.0,
            )
            for item in items_a[:5]:
                assert rt.offer("a", item).admitted
            assert rt.offer("b", _item(1, 0.0, 2.0)).admitted  # evicts "a"
            for item in items_a[5:]:  # rehydrates "a" (and evicts "b")
                assert rt.offer("a", item).admitted
            rt.flush("a")
            assert rt.snapshot("a") == _reference_snapshot("first-fit", items_a, None)
            report = await rt.drain()
            assert report.lost == 0

        asyncio.run(scenario())


    def test_corrupt_journal_on_rehydration_is_a_wal_error(self, tmp_path):
        root = tmp_path / "wal"
        # A crashed process left tenant "a" journaled but not resident.
        first = WriteAheadLog(root, config=WalConfig(sync="always"))
        for k in range(10):
            first.tenant("a").append_arrival(_item(k, 0.5 * k, 0.5 * k + 4.0))
        first.close()
        segment = sorted((root / _tenant_dirname("a")).glob("segment-*.wal"))[-1]
        data = bytearray(segment.read_bytes())
        offset = sum(len(line) for line in data.splitlines(keepends=True)[:3])
        data[offset + 20] ^= 0x01  # mid-file corruption in record 4
        segment.write_bytes(bytes(data))

        async def scenario():
            rt = ServingRuntime(
                SessionManager(),
                wal=WriteAheadLog(root),
                max_resident=1,
                batch_size=64,
                batch_deadline=30.0,
            )
            assert rt.offer("b", _item(1, 0.0, 2.0)).admitted
            # The lazy rehydration evicts "b", then reads the damaged journal.
            line = json.dumps({"id": 10, "size": 0.3, "arrival": 5.0, "departure": 9.0})
            verdict = rt.offer_line("a", line)
            assert verdict.status == "rejected" and verdict.reason == "wal_error"
            assert segment.name in verdict.error and f"byte {offset}" in verdict.error
            assert rt.offer("a", _item(11, 5.0, 9.0)).reason == "wal_error"
            assert "a" not in rt.manager
            counter = rt.registry.counter("serving.rejects", tenant="a", reason="wal_error")
            assert counter.value == 2
            rt.wal.close()

        asyncio.run(scenario())
        # Reported, never truncated: every acknowledged byte is still on disk.
        assert segment.read_bytes() == bytes(data)

    def test_damaged_checkpoint_after_compaction_is_a_wal_error(self, tmp_path):
        # Eviction checkpoints "a" and compacts every segment away, so the
        # checkpoint alone holds its five acknowledged arrivals.
        root = tmp_path / "wal"

        async def scenario():
            rt = ServingRuntime(
                SessionManager(),
                wal=WriteAheadLog(root),
                max_resident=1,
                batch_size=64,
                batch_deadline=30.0,
            )
            for k in range(5):
                assert rt.offer("a", _item(k, 0.5 * k, 0.5 * k + 4.0)).admitted
            assert rt.offer("b", _item(1, 0.0, 2.0)).admitted  # evicts "a"
            tenant_dir = root / _tenant_dirname("a")
            assert not list(tenant_dir.glob("segment-*.wal"))
            checkpoint = tenant_dir / "checkpoint.ckpt"
            data = bytearray(checkpoint.read_bytes())
            data[-5] ^= 0x01
            checkpoint.write_bytes(bytes(data))

            fresh = ServingRuntime(SessionManager(), wal=WriteAheadLog(root))
            with pytest.raises(CorruptLogError, match="checkpoint.ckpt"):
                recover(fresh)
            assert "a" not in fresh.manager
            fresh.wal.close()

            # Re-offering acknowledged id 0 must not be answered "ok".
            line = json.dumps({"id": 0, "size": 0.3, "arrival": 5.0, "departure": 9.0})
            verdict = rt.offer_line("a", line)
            assert verdict.status == "rejected" and verdict.reason == "wal_error"
            assert "checkpoint.ckpt" in verdict.error
            assert "a" not in rt.manager
            rt.wal.close()

        asyncio.run(scenario())
        # Reported, never rewritten: the damaged blob is still on disk.
        checkpoint = root / _tenant_dirname("a") / "checkpoint.ckpt"
        assert read_framed_blob(checkpoint) is None


# ---------------------------------------------------------------------------
# rate limiting
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_admits_then_deficit_wait(self):
        bucket = TokenBucket(10.0, 2.0, now=0.0)
        assert bucket.take(0.0) == 0.0
        assert bucket.take(0.0) == 0.0
        wait = bucket.take(0.0)
        assert wait == pytest.approx(0.1)  # one token at 10/s

    def test_honouring_the_wait_guarantees_a_token(self):
        bucket = TokenBucket(10.0, 1.0, now=0.0)
        assert bucket.take(0.0) == 0.0
        wait = bucket.take(0.0)
        assert bucket.take(wait) == 0.0

    def test_failed_take_does_not_drain_the_bucket(self):
        bucket = TokenBucket(1.0, 1.0, now=0.0)
        assert bucket.take(0.0) == 0.0
        first = bucket.take(0.0)
        second = bucket.take(0.5)  # polled again before the deadline
        assert second == pytest.approx(first - 0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(100.0, 3.0, now=0.0)
        for _ in range(3):
            assert bucket.take(1000.0) == 0.0  # a long idle refills to burst...
        assert bucket.take(1000.0) > 0.0  # ...but not beyond

    def test_validation(self):
        with pytest.raises(ValidationError):
            TokenBucket(0.0, 1.0, now=0.0)
        with pytest.raises(ValidationError):
            TokenBucket(1.0, 0.5, now=0.0)


class TestRateLimiter:
    def test_zero_rate_is_unlimited(self):
        limiter = RateLimiter(0.0, clock=_FakeClock())
        assert all(limiter.admit("a") == 0 for _ in range(1000))

    def test_deficit_sized_retry_hint(self):
        clock = _FakeClock()
        limiter = RateLimiter(10.0, 2.0, clock=clock)
        assert limiter.admit("a") == 0
        assert limiter.admit("a") == 0
        hint = limiter.admit("a")
        assert hint == 100  # exactly the 0.1 s deficit, in ms
        clock.now += hint / 1000.0
        assert limiter.admit("a") == 0  # honouring the hint finds a token

    def test_tenants_have_independent_buckets(self):
        limiter = RateLimiter(10.0, 1.0, clock=_FakeClock())
        assert limiter.admit("a") == 0
        assert limiter.admit("a") > 0
        assert limiter.admit("b") == 0  # b's bucket is untouched

    def test_per_tenant_overrides(self):
        clock = _FakeClock()
        limiter = RateLimiter(10.0, 1.0, clock=clock)
        limiter.configure("vip", rate=0.0)  # exempt
        limiter.configure("abuser", rate=1.0, burst=1.0)
        assert limiter.limit_for("vip") == (0.0, 1.0)
        assert all(limiter.admit("vip") == 0 for _ in range(100))
        assert limiter.admit("abuser") == 0
        assert limiter.admit("abuser") == 1000  # 1 s deficit at 1/s

    def test_forget_refills_on_return(self):
        limiter = RateLimiter(10.0, 1.0, clock=_FakeClock())
        assert limiter.admit("a") == 0
        assert limiter.admit("a") > 0
        limiter.forget("a")
        assert limiter.admit("a") == 0  # fresh bucket starts full

    def test_telemetry(self):
        registry = TelemetryRegistry()
        limiter = RateLimiter(10.0, 1.0, registry=registry, clock=_FakeClock())
        limiter.admit("a")
        limiter.admit("a")
        assert registry.counter("serving.ratelimit.allowed", tenant="a").value == 1
        assert registry.counter("serving.ratelimit.throttled", tenant="a").value == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            RateLimiter(-1.0)
        with pytest.raises(ValidationError):
            RateLimiter(1.0, 0.0)
        limiter = RateLimiter()
        with pytest.raises(ValidationError):
            limiter.configure("a", rate=-1.0)


class TestRuntimeRateLimit:
    def test_throttled_offer_is_busy_with_a_hint(self):
        async def scenario():
            clock = _FakeClock()
            rt = ServingRuntime(
                SessionManager(),
                rate_limiter=RateLimiter(10.0, 2.0, clock=clock),
            )
            assert rt.offer("a", _item(1, 0.0, 4.0)).admitted
            assert rt.offer("a", _item(2, 1.0, 5.0)).admitted
            verdict = rt.offer("a", _item(3, 2.0, 6.0))
            assert verdict.status == "busy" and verdict.reason == "rate_limit"
            assert verdict.retry_ms == 100
            # the throttled item was never admitted — retrying after the
            # hint admits it with nothing double-counted
            clock.now += verdict.retry_ms / 1000.0
            assert rt.offer("a", _item(3, 2.0, 6.0)).admitted
            report = await rt.drain()
            assert report.admitted == 3 and report.lost == 0
            assert rt.registry.counter(
                "serving.rejects", tenant="a", reason="rate_limit"
            ).value == 1

        asyncio.run(scenario())

    def test_one_noisy_tenant_does_not_throttle_another(self):
        async def scenario():
            clock = _FakeClock()
            limiter = RateLimiter(clock=clock)  # no default limit
            limiter.configure("noisy", rate=10.0, burst=1.0)
            rt = ServingRuntime(SessionManager(), rate_limiter=limiter)
            assert rt.offer("noisy", _item(1, 0.0, 4.0)).admitted
            assert rt.offer("noisy", _item(2, 1.0, 5.0)).status == "busy"
            for k in range(20):  # the quiet tenant never sees a busy
                assert rt.offer("quiet", _item(k, float(k), k + 4.0)).admitted
            await rt.drain()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# the chaos battery: SIGKILL a live serve, recover, prove nothing acked was lost
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_for_port(port: int, deadline: float = 20.0) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.25).close()
            return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"server never listened on port {port}")


def _serve_child(port: int, wal_dir, *, recover_flag: bool) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    mode = ["--recover", str(wal_dir)] if recover_flag else ["--wal", str(wal_dir)]
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--listen",
            f"tcp:127.0.0.1:{port}",
            "--algorithm",
            "first-fit",
            "--batch-size",
            "8",
            "--batch-deadline",
            "0.002",
            "--checkpoint-every",
            "32",
            "--json",
            *mode,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _chaos_records(tenant_index: int, count: int) -> list[Item]:
    """A deterministic per-tenant arrival stream (the battery's fixed seed)."""
    return [
        Item(
            tenant_index * 1_000_000 + k,
            0.11 + 0.13 * ((tenant_index + k) % 5),
            Interval(0.25 * k, 0.25 * k + 6.0),
        )
        for k in range(count)
    ]


def _item_line(item: Item) -> str:
    return json.dumps(
        {
            "id": item.id,
            "size": item.sizes[0],
            "arrival": item.arrival,
            "departure": item.departure,
        },
        separators=(",", ":"),
    )


class TestChaosBattery:
    """SIGKILL a live serve mid-load; restart with --recover; audit everything."""

    TENANTS = 2
    RECORDS = 120
    KILL_AFTER = 55  # acks on tenant 0 before the kill

    def test_sigkill_recovery_loses_no_acked_item(self, tmp_path):
        wal_dir = tmp_path / "wal"
        streams = {
            f"chaos-{k}": _chaos_records(k, self.RECORDS) for k in range(self.TENANTS)
        }

        port = _free_port()
        child = _serve_child(port, wal_dir, recover_flag=False)
        try:
            _wait_for_port(port)
            acked = asyncio.run(self._phase_one(port, streams, child))
        finally:
            if child.poll() is None:
                child.kill()
            child.communicate(timeout=10)
        assert child.returncode != 0  # SIGKILL, not a clean exit
        assert any(acked.values()), "the kill fired before anything was acked"
        assert any(
            len(ids) < self.RECORDS for ids in acked.values()
        ), "the kill fired after the load completed — nothing was in flight"

        port = _free_port()
        child = _serve_child(port, wal_dir, recover_flag=True)
        try:
            _wait_for_port(port)
            snapshots = asyncio.run(self._phase_two(port, streams, acked))
            child.send_signal(signal.SIGTERM)
            out, err = child.communicate(timeout=30)
        except BaseException:
            child.kill()
            child.communicate(timeout=10)
            raise
        assert child.returncode == 0, f"recovered serve exited {child.returncode}: {err[-2000:]}"
        assert "recovered" in err  # the --recover banner ran

        # Snapshot parity: each tenant's final state equals an uninterrupted
        # in-process run over the same records.
        for tenant, items in streams.items():
            ref = _reference_snapshot("first-fit", items, None)
            assert snapshots[tenant] == {
                "time": ref.time,
                "items_submitted": ref.items_submitted,
                "active_items": ref.active_items,
                "open_bins": ref.open_bins,
                "bins_opened": ref.bins_opened,
                "usage_time": ref.usage_time,
            }, f"snapshot mismatch for {tenant}"

        # The drain report agrees: every record admitted exactly once across
        # both lives of the server, zero lost.
        doc = json.loads(out)
        assert doc["drain"]["admitted"] == self.TENANTS * self.RECORDS, doc["drain"]
        assert doc["drain"]["lost"] == 0, doc["drain"]

    async def _phase_one(self, port, streams, child) -> dict[str, set[int]]:
        """Drive load until the kill threshold, then SIGKILL mid-flight."""
        acked: dict[str, set[int]] = {tenant: set() for tenant in streams}
        killed = asyncio.Event()

        async def drive(tenant: str, items: list[Item]) -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(f"hello {tenant}\n".encode())
                await writer.drain()
                await reader.readline()
                for item in items:
                    if killed.is_set():
                        return
                    writer.write((_item_line(item) + "\n").encode())
                    await writer.drain()
                    raw = await reader.readline()
                    if not raw:
                        return  # the server died under us — expected
                    if json.loads(raw).get("status") == "ok":
                        acked[tenant].add(item.id)
                    if tenant == "chaos-0" and len(acked[tenant]) == self.KILL_AFTER:
                        os.kill(child.pid, signal.SIGKILL)
                        killed.set()
                        return
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # the kill severed this connection mid-request
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

        await asyncio.gather(*(drive(t, items) for t, items in streams.items()))
        return acked

    async def _phase_two(self, port, streams, acked) -> dict[str, dict]:
        """Resend every record; audit ack survival; collect final snapshots."""
        snapshots: dict[str, dict] = {}

        async def drive(tenant: str, items: list[Item]) -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(f"hello {tenant}\n".encode())
                await writer.drain()
                await reader.readline()
                for item in items:
                    writer.write((_item_line(item) + "\n").encode())
                    await writer.drain()
                    verdict = json.loads(await reader.readline())
                    if item.id in acked[tenant]:
                        # THE invariant: an acknowledged item must have
                        # survived the SIGKILL — the resend bounces off the
                        # recovered duplicate gate.
                        assert verdict["status"] == "rejected", (tenant, item.id, verdict)
                        assert verdict["reason"] == "duplicate_id", (tenant, item.id, verdict)
                    else:
                        # never acked → either journaled-but-unacked (now a
                        # duplicate) or genuinely new (admitted now)
                        assert verdict["status"] in ("ok", "rejected"), verdict
                        if verdict["status"] == "rejected":
                            assert verdict["reason"] == "duplicate_id", verdict
                # let the batcher's deadline flush clear the final partial
                # batch before snapshotting (snapshots exclude pending items)
                await asyncio.sleep(0.3)
                writer.write(b"snapshot\n")
                await writer.drain()
                snap = json.loads(await reader.readline())
                snap.pop("status", None)
                snap.pop("tenant", None)
                snapshots[tenant] = snap
                writer.write(b"bye\n")
                await writer.drain()
                await reader.readline()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

        await asyncio.gather(*(drive(t, items) for t, items in streams.items()))
        return snapshots
