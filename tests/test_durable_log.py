"""The one durable log, and its three users under disk faults.

* **the log** — :class:`~repro.resilience.SegmentLog` and
  :func:`~repro.resilience.read_log`: a torn tail is healed by the writer and
  skipped by readers; mid-file corruption (bad frames, schema damage,
  sequence gaps) is reported with its file and byte offset and never
  truncated; a failed append leaves the segment clean and its seq unused;
  compaction works from one directory listing.
* **the fault matrix** — the serving WAL, a ``run_sweep`` checkpoint journal
  and a shard journal, each under a torn tail, a mid-file bit flip, a
  truncated non-newest segment and ``ENOSPC`` on append:

  - a torn tail is healed and counted, and nothing acknowledged is lost;
  - a flip or truncation stops WAL recovery with a ``ReproError``; in a
    sweep journal it is counted in ``resilience.*`` and the cell is
    recomputed bit-identically;
  - ``ENOSPC`` reaches the caller: the WAL rejects the arrival instead of
    acknowledging it, and the sweep raises.
"""

from __future__ import annotations

import asyncio
import errno
import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    ShardCoordinator,
    SweepTask,
    run_shard_worker,
    run_sharded_sweep,
    run_sweep,
)
from repro.core import Interval, Item, ReproError
from repro.obs import TelemetryRegistry
from repro.resilience import (
    CheckpointJournal,
    CorruptLogError,
    SegmentLog,
    frame_line,
    log,
    read_log,
)
from repro.serving import (
    ServingRuntime,
    SessionManager,
    WalConfig,
    WriteAheadLog,
    recover,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

FAULTS = ["torn_tail", "flip", "truncated_segment", "enospc"]


def _segments(root: Path) -> list[Path]:
    return sorted(root.glob("segment-*.wal"))


def _lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


def _offset_of(path: Path, index: int) -> int:
    return sum(len(line) for line in _lines(path)[:index])


def _flip(path: Path, index: int) -> int:
    """Flip one payload byte of line ``index``; returns the line's offset."""
    offset = _offset_of(path, index)
    data = bytearray(path.read_bytes())
    data[offset + 20] ^= 0x01
    path.write_bytes(bytes(data))
    return offset


def _drop_last_line(path: Path) -> None:
    lines = _lines(path)
    path.write_bytes(b"".join(lines[:-1]))


def _tear_last_record(path: Path) -> None:
    """Cut the final record in half: its append was killed mid-write."""
    lines = _lines(path)
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])


def _split(root: Path) -> Path:
    """Split a one-segment log in two, as rotation would; returns the older."""
    [only] = _segments(root)
    lines = _lines(only)
    half = len(lines) // 2
    only.write_bytes(b"".join(lines[:half]))
    (root / f"segment-{half + 1:012d}.wal").write_bytes(b"".join(lines[half:]))
    return only


def _enospc(fd: int, data: bytes) -> int:
    raise OSError(errno.ENOSPC, "No space left on device")


def _tasks(count: int = 4) -> list[SweepTask]:
    return [
        SweepTask(
            packer="first-fit",
            workload="uniform",
            workload_kwargs={"n": 12, "seed": seed},
            label=f"seed={seed}",
        )
        for seed in range(count)
    ]


def _item(item_id: int) -> Item:
    return Item(item_id, 0.3, Interval(float(item_id), item_id + 3.0))


def _log(root: Path, **kwargs) -> SegmentLog:
    return SegmentLog(root, registry=TelemetryRegistry(), prefix="t", **kwargs)


# ---------------------------------------------------------------------------
# The log itself
# ---------------------------------------------------------------------------


class TestSegmentLog:
    def test_records_continue_across_reopen_in_a_new_segment(self, tmp_path):
        first = _log(tmp_path)
        assert [first.append({"k": k}) for k in range(3)] == [1, 2, 3]
        first.rotate()
        second = _log(tmp_path)
        assert second.seq == 3
        assert second.append({"k": 3}) == 4
        assert [p.name for p in _segments(tmp_path)] == [
            "segment-000000000001.wal",
            "segment-000000000004.wal",
        ]
        assert [r["k"] for r, _, _ in read_log(tmp_path)] == [0, 1, 2, 3]
        assert [r["seq"] for r, _, _ in read_log(tmp_path, after_seq=2)] == [3, 4]

    def test_a_torn_tail_is_skipped_by_readers_and_healed_by_the_writer(self, tmp_path):
        _log(tmp_path).append({"k": 0})
        [segment] = _segments(tmp_path)
        good = segment.stat().st_size
        with open(segment, "ab") as fh:
            fh.write(frame_line({"k": 1, "seq": 2}).encode()[:-1])  # no newline
        assert [r["k"] for r, _, _ in read_log(tmp_path)] == [0]
        assert segment.stat().st_size > good  # readers never truncate
        registry = TelemetryRegistry()
        writer = SegmentLog(tmp_path, registry=registry, prefix="t")
        assert segment.stat().st_size == good
        assert registry.counter("t.healed_tails").value == 1
        assert writer.seq == 1

    def test_a_damaged_complete_last_line_is_corruption_not_a_torn_tail(self, tmp_path):
        # A whole line whose CRC fails was written in full and damaged
        # later: it may be an acknowledged record, so it is never healed.
        writer = _log(tmp_path)
        writer.append({"k": 0})
        writer.append({"k": 1})
        writer.rotate()
        [segment] = _segments(tmp_path)
        offset = _flip(segment, 1)
        damaged = segment.read_bytes()
        registry = TelemetryRegistry()
        reopened = SegmentLog(tmp_path, registry=registry, prefix="t")
        assert reopened.seq == 2  # the damaged record's seq is not reused
        assert registry.counter("t.healed_tails").value == 0
        assert segment.read_bytes() == damaged
        with pytest.raises(CorruptLogError, match=f"at byte {offset}"):
            list(read_log(tmp_path))

    def test_a_bad_frame_mid_file_is_reported_with_its_offset(self, tmp_path):
        writer = _log(tmp_path)
        for k in range(4):
            writer.append({"k": k})
        [segment] = _segments(tmp_path)
        offset = _flip(segment, 1)
        with pytest.raises(CorruptLogError) as err:
            list(read_log(tmp_path))
        assert err.value.path == segment
        assert err.value.offset == offset
        assert f"at byte {offset}" in str(err.value)
        corrupt: list = []
        assert [r["k"] for r, _, _ in read_log(tmp_path, corrupt=corrupt)] == [0, 2, 3]
        assert [(c.offset, c.reason) for c in corrupt] == [(offset, "bad frame")]

    def test_a_gap_between_segments_is_reported(self, tmp_path):
        writer = _log(tmp_path, segment_bytes=1)  # one record per segment
        for k in range(3):
            writer.append({"k": k})
        middle = _segments(tmp_path)[1]
        middle.unlink()
        corrupt: list = []
        assert [r["k"] for r, _, _ in read_log(tmp_path, corrupt=corrupt)] == [0, 2]
        assert "sequence gap" in corrupt[0].reason

    def test_a_gap_inside_a_segment_is_reported(self, tmp_path):
        _log(tmp_path).append({"k": 0})
        [segment] = _segments(tmp_path)
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write(frame_line({"k": 2, "seq": 3}))  # seq 2 is missing
        corrupt: list = []
        assert [r["k"] for r, _, _ in read_log(tmp_path, corrupt=corrupt)] == [0, 2]
        assert [c.reason for c in corrupt] == ["sequence gap: found seq 3, expected 2"]

    def test_a_frame_without_a_seq_is_corruption(self, tmp_path):
        _log(tmp_path).append({"k": 0})
        [segment] = _segments(tmp_path)
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write(frame_line({"k": 1}))
            fh.write(frame_line({"k": 2, "seq": 2}))
        corrupt: list = []
        assert [r["k"] for r, _, _ in read_log(tmp_path, corrupt=corrupt)] == [0, 2]
        assert [c.reason for c in corrupt] == ["bad frame"]

    def test_a_short_write_is_undone_and_raised(self, tmp_path, monkeypatch):
        writer = _log(tmp_path)
        writer.append({"k": 0})
        [segment] = _segments(tmp_path)
        size = segment.stat().st_size
        real = log._write
        monkeypatch.setattr(log, "_write", lambda fd, data: real(fd, data[:7]))
        with pytest.raises(OSError) as err:
            writer.append({"k": 1})
        assert err.value.errno == errno.ENOSPC
        assert segment.stat().st_size == size  # the partial frame is gone
        assert writer.seq == 1  # and its seq was not consumed
        monkeypatch.undo()
        assert writer.append({"k": 1}) == 2
        assert [r["k"] for r, _, _ in read_log(tmp_path)] == [0, 1]

    def test_compaction_lists_the_directory_once(self, tmp_path, monkeypatch):
        writer = _log(tmp_path, segment_bytes=1)
        for k in range(6):
            writer.append({"k": k})
        calls = []
        real = log.os.listdir
        monkeypatch.setattr(log.os, "listdir", lambda p: calls.append(p) or real(p))
        assert writer.compact(4) == 4
        assert len(calls) == 1
        monkeypatch.undo()
        assert [r["k"] for r, _, _ in read_log(tmp_path)] == [4, 5]

    def test_a_plain_file_is_refused_not_overwritten(self, tmp_path):
        legacy = tmp_path / "ck.ndjson"
        legacy.write_text('{"key": "k", "ratio": 1.0}\n')
        with pytest.raises(ReproError, match="plain file"):
            CheckpointJournal(legacy).load()
        with pytest.raises(ReproError, match="plain file"):
            CheckpointJournal(legacy).append("k", {"ratio": 2.0})
        assert legacy.read_text() == '{"key": "k", "ratio": 1.0}\n'

    def test_missing_log_reads_empty(self, tmp_path):
        assert list(read_log(tmp_path / "nope")) == []


# ---------------------------------------------------------------------------
# Fault matrix: serving WAL
# ---------------------------------------------------------------------------


def _wal(root: Path, registry: TelemetryRegistry) -> WriteAheadLog:
    return WriteAheadLog(
        root, config=WalConfig(sync="always", segment_bytes=200), registry=registry
    )


def _recovered_ids(root: Path, registry: TelemetryRegistry) -> list[int]:
    runtime = ServingRuntime(SessionManager(), wal=_wal(root, registry))
    recover(runtime)
    ids = [item.id for item in runtime.manager.session("a").result().items]
    asyncio.run(runtime.drain())
    return sorted(ids)


@pytest.mark.parametrize("fault", FAULTS)
def test_wal_under_disk_faults(tmp_path, monkeypatch, fault):
    root = tmp_path / "wal"
    wal = _wal(root, TelemetryRegistry())
    tenant = wal.tenant("a")
    for k in range(8):
        tenant.append_arrival(_item(k))
    wal.close()
    segments = _segments(tenant.path)
    assert len(segments) >= 3
    registry = TelemetryRegistry()

    if fault == "torn_tail":
        # Killed while journaling arrival 8, before its ack.
        frame = frame_line({"op": "arrival", "id": 8, "seq": 9})
        with open(segments[-1], "ab") as fh:
            fh.write(frame.encode()[: len(frame) // 2])
        assert _recovered_ids(root, registry) == list(range(8))
        assert registry.counter("serving.wal.healed_tails").value == 1
    elif fault in ("flip", "truncated_segment"):
        if fault == "flip":
            _flip(segments[1], 0)
        else:
            _drop_last_line(segments[0])
        before = {p: p.read_bytes() for p in segments}
        with pytest.raises(ReproError) as err:
            _recovered_ids(root, registry)
        assert str(segments[1]) in str(err.value)
        assert "at byte 0" in str(err.value)
        assert registry.counter("serving.wal.corrupt_records").value == 1
        assert {p: p.read_bytes() for p in segments} == before  # nothing truncated
    else:

        async def scenario() -> None:
            runtime = ServingRuntime(SessionManager(), wal=_wal(root, registry))
            recover(runtime)
            monkeypatch.setattr(log, "_write", _enospc)
            verdict = runtime.offer("a", _item(8))
            assert verdict.status == "rejected" and verdict.reason == "wal_error"
            monkeypatch.undo()
            assert runtime.offer("a", _item(8)).admitted  # its id is still free
            report = await runtime.drain()
            assert report.lost == 0

        asyncio.run(scenario())
        assert _recovered_ids(root, TelemetryRegistry()) == list(range(9))


# ---------------------------------------------------------------------------
# Fault matrix: run_sweep checkpoint journal
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fault", FAULTS)
def test_sweep_journal_under_disk_faults(tmp_path, monkeypatch, fault):
    tasks = _tasks()
    journal = tmp_path / "sweep-journal"
    if fault == "enospc":
        monkeypatch.setattr(log, "_write", _enospc)
        with pytest.raises(OSError) as err:
            run_sweep(tasks, executor="serial", checkpoint=str(journal))
        assert err.value.errno == errno.ENOSPC
        return
    baseline = run_sweep(tasks, executor="serial", checkpoint=str(journal))
    registry = TelemetryRegistry()
    if fault == "torn_tail":
        [segment] = _segments(journal)
        _tear_last_record(segment)  # killed while journaling the last cell
        rerun = run_sweep(tasks, executor="serial", checkpoint=str(journal), registry=registry)
        assert registry.counter("resilience.journal.healed_tails").value == 1
        assert registry.counter("resilience.journal.corrupt_records").value == 0
    else:
        if fault == "flip":
            [segment] = _segments(journal)
            _flip(segment, 2)
        else:
            _drop_last_line(_split(journal))
        with pytest.warns(RuntimeWarning, match="recomputed"):
            rerun = run_sweep(
                tasks, executor="serial", checkpoint=str(journal), registry=registry
            )
        assert registry.counter("resilience.journal.corrupt_records").value == 1
    # The one damaged cell ran again; every other cell was restored.
    assert [o.from_checkpoint for o in rerun].count(False) == 1
    assert [(o.usage, o.ratio) for o in rerun] == [(o.usage, o.ratio) for o in baseline]


# ---------------------------------------------------------------------------
# Fault matrix: shard journals of a sharded sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fault", FAULTS)
def test_shard_journal_under_disk_faults(tmp_path, monkeypatch, fault):
    tasks = _tasks()
    baseline = run_sweep(tasks, executor="serial")
    root = tmp_path / "coord"
    coordinator = ShardCoordinator(root)
    coordinator.initialize(tasks, chunk_size=1)
    registry = TelemetryRegistry()
    if fault == "enospc":
        monkeypatch.setattr(log, "_write", _enospc)
        with pytest.raises(OSError) as err:
            run_shard_worker(str(root), "w0")
        assert err.value.errno == errno.ENOSPC
        return
    run_shard_worker(str(root), "w0")
    journal = coordinator.journal_path("w0")
    if fault == "torn_tail":
        # w0 was killed while journaling the last cell: its chunk has no
        # done marker, and the restarted w0 heals the tail and finishes it.
        _tear_last_record(_segments(journal)[-1])
        last = len(tasks) - 1
        (root / "done" / f"chunk-{last:06d}.json").unlink()
        shutil.rmtree(root / "leases")
        report = run_shard_worker(str(root), "w0", registry=registry)
        assert report.cells_run == 1
        assert registry.counter("resilience.journal.healed_tails").value == 1
        rerun = coordinator.results()
    else:
        if fault == "flip":
            _flip(_segments(journal)[0], 1)
        else:
            _drop_last_line(_split(journal))
        with pytest.warns(RuntimeWarning, match="recomputed"):
            rerun = run_sharded_sweep(
                tasks, shards=1, coordinator_dir=root, registry=registry
            )
        assert registry.counter("resilience.journal.corrupt_records").value == 1
    assert [(o.usage, o.ratio) for o in rerun] == [(o.usage, o.ratio) for o in baseline]
