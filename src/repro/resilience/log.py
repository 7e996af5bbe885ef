"""One durable log: CRC-framed records in sequence-numbered segment files.

The serving write-ahead journal (:mod:`repro.serving.wal`), the sweep
checkpoint journal and the shard journals
(:class:`~repro.resilience.CheckpointJournal`) are all segment logs: a
directory of append-only ``segment-<first-seq>.wal`` files holding one line
frame per record, ``<crc32 hex> <canonical compact JSON>\\n``.  Every record
carries its ``seq``, which rises by one from record to record and segment
to segment, so a reader tells two faults apart:

* a **torn tail** — the newest segment ends in a line without its newline.
  Each frame goes out in one ``write`` ending in the newline, so this is a
  write cut short by a crash, never acknowledged: the one writer truncates
  it on open (counted in ``<prefix>.healed_tails``) and readers skip it;
* **mid-file corruption** — any other bad frame (a whole line whose CRC
  fails was damaged after it was written, even when it is the last), a
  frame without an integer ``seq``, or a ``seq`` gap inside or between
  segments.  The records around it were acknowledged, so it is never
  truncated but reported as a :class:`CorruptLogError` naming the file and
  byte offset.

Blob frames (magic, CRC32, length) hold atomically replaced snapshots such
as the WAL's tenant checkpoints.
"""

from __future__ import annotations

import errno
import json
import os
import re
import zlib
from pathlib import Path
from typing import IO, Iterator, Mapping

from ..core.exceptions import ReproError
from ..obs import TelemetryRegistry

__all__ = [
    "SEGMENT_BYTES",
    "SegmentLog",
    "CorruptLogError",
    "read_log",
    "segments",
    "frame_line",
    "parse_frame",
    "write_framed_blob",
    "read_framed_blob",
]

#: Default size at which a log rotates to a new segment.
SEGMENT_BYTES = 4 << 20

_SEGMENT_RE = re.compile(r"^segment-(\d{12})\.wal$")

#: Magic prefix of a framed blob file (versioned: bump on format change).
_BLOB_MAGIC = b"RPRFRAME1\n"

#: The one system call every frame is written with; a test substitutes a
#: failing one to rehearse a full disk.
_write = os.write


def frame_line(record: Mapping[str, object]) -> str:
    """One CRC-framed line (with trailing newline).

    The payload is canonical compact JSON (sorted keys, no whitespace) so
    logically identical records frame byte-identically; the leading CRC32
    is computed over the payload's UTF-8 bytes.
    """
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8"))
    return f"{crc:08x} {payload}\n"


def parse_frame(line: str | bytes) -> dict[str, object] | None:
    """Decode one framed line; ``None`` when the frame fails validation.

    A frame is bad when the CRC prefix is missing or malformed, the CRC
    does not match the payload bytes, or the payload is not a JSON object.
    """
    body = (line.encode("utf-8") if isinstance(line, str) else line).strip()
    try:
        crc, payload = int(body[:8], 16), body[9:]
        if body[8:9] != b" " or zlib.crc32(payload) != crc:
            return None
        record = json.loads(payload)
    except ValueError:  # a malformed CRC prefix, bad JSON or bad UTF-8
        return None
    return record if isinstance(record, dict) else None


class CorruptLogError(ReproError):
    """Mid-file corruption: ``reason`` at byte ``offset`` of segment ``path``."""

    def __init__(self, path: Path, offset: int, reason: str) -> None:
        super().__init__(f"corrupt log record in {path} at byte {offset}: {reason}")
        self.path, self.offset, self.reason = path, offset, reason


def segments(root: str | os.PathLike[str]) -> list[tuple[int, Path]]:
    """``(first_seq, path)`` of every segment of the log at ``root``, ascending.

    A missing directory is an empty log; a plain file (an NDJSON journal of
    an older release) is refused, never read past or overwritten.
    """
    root = Path(root)
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    except NotADirectoryError:
        raise ReproError(
            f"{root} is a plain file, not a segment log directory (an NDJSON "
            "journal from an older release?); move it away or use a fresh path"
        ) from None
    return sorted(
        (int(match.group(1)), root / name)
        for name in names
        if (match := _SEGMENT_RE.match(name))
    )


def _frames(
    path: Path, *, newest: bool
) -> tuple[list[tuple[int, dict[str, object] | None]], int | None]:
    """Every non-blank line as ``(offset, record or None if bad)``, and the torn tail.

    A frame is bad when it fails :func:`parse_frame`, has no integer
    ``seq``, or lacks its newline; in the newest segment an unterminated
    last line is the torn tail, left out and its offset returned.
    """
    data = path.read_bytes()
    frames: list[tuple[int, dict[str, object] | None]] = []
    torn = None
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos) + 1 or len(data)
        line = data[pos:end]
        complete = line.endswith(b"\n")
        if not complete and newest:
            torn = pos
        elif line.strip():
            record = parse_frame(line) if complete else None
            valid = record is not None and type(record.get("seq")) is int
            frames.append((pos, record if valid else None))
        pos = end
    return frames, torn


def read_log(
    root: str | os.PathLike[str],
    *,
    after_seq: int = 0,
    corrupt: list[CorruptLogError] | None = None,
) -> Iterator[tuple[dict[str, object], Path, int]]:
    """Yield ``(record, segment, offset)`` for every record past ``after_seq``.

    A torn tail is skipped (only the writer heals it).  Mid-file corruption
    raises :class:`CorruptLogError`, or, when a ``corrupt`` list is given,
    is appended there and reading goes on.  A gap before the first segment
    is the caller's to check: compaction deletes covered segments.
    """

    def report(path: Path, offset: int, reason: str) -> None:
        fault = CorruptLogError(path, offset, reason)
        if corrupt is None:
            raise fault
        corrupt.append(fault)

    found = segments(root)
    expected: int | None = None
    for index, (first, path) in enumerate(found):
        if expected is not None and first != expected:
            report(path, 0, f"sequence gap: segment starts at {first}, expected {expected}")
        expected = first
        try:
            frames, _torn = _frames(path, newest=index == len(found) - 1)
        except FileNotFoundError:  # compacted under this reader
            continue
        for offset, record in frames:
            if record is None:
                report(path, offset, "bad frame")
                expected = None  # resynchronise on the next good frame
                continue
            seq: int = record["seq"]  # type: ignore[assignment]
            if expected is not None and seq != expected:
                report(path, offset, f"sequence gap: found seq {seq}, expected {expected}")
            expected = seq + 1
            if seq > after_seq:
                yield record, path, offset


class SegmentLog:
    """The one writer of a segment log directory.

    Opening heals a torn tail and continues ``seq`` past every record on
    disk, damaged ones included, so no number is reused; the first append
    starts a new segment.  Counters ``<prefix>.healed_tails``, ``.fsyncs``,
    ``.segments_opened``, ``.rotations`` and ``.compacted_segments`` live in
    ``registry``.  ``sync_each`` fsyncs every append before it returns.

    Attributes:
        path: The log directory.
        seq: Sequence number of the last record written.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        registry: TelemetryRegistry,
        prefix: str,
        segment_bytes: int = SEGMENT_BYTES,
        sync_each: bool = False,
    ) -> None:
        self.path = Path(path)
        self.segment_bytes = segment_bytes
        self.sync_each = sync_each
        self._dirty = False  # written since the last fsync
        self._fh: IO[bytes] | None = None
        self._size = 0
        self._registry = registry
        self._prefix = prefix
        self._c_fsyncs = registry.counter(f"{prefix}.fsyncs")
        found = segments(self.path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.seq = self._heal(*found[-1]) if found else 0

    def _count(self, name: str, n: int = 1) -> None:
        self._registry.counter(f"{self._prefix}.{name}").inc(n)

    def _heal(self, first: int, path: Path) -> int:
        """Truncate a torn tail off the newest segment; its last seq."""
        frames, torn = _frames(path, newest=True)
        if torn is not None:
            with open(path, "r+b") as fh:
                fh.truncate(torn)
                fh.flush()
                os.fsync(fh.fileno())
            self._count("healed_tails")
        seqs = [r["seq"] for _, r in frames if r is not None]
        # A damaged line still used up its sequence number: never reuse it.
        return max([first - 1 + len(frames), *seqs])  # type: ignore[list-item]

    def append(self, record: dict[str, object]) -> int:
        """Frame and append ``record`` under the next seq; returns that seq."""
        seq = self.seq + 1
        record["seq"] = seq
        self.write(frame_line(record).encode("utf-8"), seq)
        return seq

    def write(self, frame: bytes, seq: int) -> None:
        """Append one pre-built frame holding record ``seq`` (``self.seq + 1``).

        One ``write`` system call, so a returned append survives process
        death.  A failed or short write (a full disk) is truncated back off
        and raised without consuming ``seq``: the segment stays clean.
        """
        fh = self._fh if self._fh is not None else self._open()
        size = self._size
        try:
            if _write(fh.fileno(), frame) != len(frame):
                raise OSError(errno.ENOSPC, "short write to segment log")
            self._dirty = True
            if self.sync_each:
                self.fsync()
        except OSError:
            try:
                os.ftruncate(fh.fileno(), size)
            except OSError:  # pragma: no cover - the tail heals at next open
                pass
            raise
        self.seq = seq
        self._size = size + len(frame)
        if self._size >= self.segment_bytes:
            self.rotate()

    def _open(self) -> IO[bytes]:
        path = self.path / f"segment-{self.seq + 1:012d}.wal"
        self._fh = open(path, "ab", buffering=0)
        self._size = os.fstat(self._fh.fileno()).st_size
        self._count("segments_opened")
        return self._fh

    def fsync(self) -> bool:
        """fsync the active segment if it is dirty; True when it did."""
        fh = self._fh
        if fh is None or not self._dirty:
            return False
        # Clean before fsync: a write racing a background fsync re-marks
        # dirty, so its bytes are never silently treated as committed.
        self._dirty = False
        try:
            os.fsync(fh.fileno())
        except BaseException:
            self._dirty = True
            raise
        self._c_fsyncs.inc()
        return True

    def rotate(self) -> None:
        """fsync and close the active segment; the next append starts a new one."""
        if self._fh is not None:
            self.fsync()
            self._fh.close()
            self._fh = None
            self._size = 0
            self._count("rotations")

    def compact(self, upto_seq: int) -> int:
        """Delete closed segments whose records all have seq <= ``upto_seq``.

        Works from one listing: a segment ends where the next one starts.
        Returns the number deleted.
        """
        found = segments(self.path)
        closed = found[:-1] if self._fh is not None else found
        ends = [first - 1 for first, _ in found[1:]] + [self.seq]
        removed = 0
        for (_first, path), last in zip(closed, ends):
            if last > upto_seq:
                break
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        if removed:
            self._count("compacted_segments", removed)
        return removed


def write_framed_blob(path: str | os.PathLike[str], payload: bytes) -> None:
    """Atomically write ``payload`` under a magic + CRC32 + length envelope.

    The envelope goes to a fsynced temporary sibling renamed over ``path``
    (directory fsynced), so a reader sees the old blob or the new one.
    """
    target = Path(path)
    crc = zlib.crc32(payload)
    header = _BLOB_MAGIC + f"{crc:08x} {len(payload)}\n".encode("ascii")
    tmp = target.with_name(target.name + ".tmp")
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(tmp, "wb") as fh:
        fh.write(header + payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
    dir_fd = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_framed_blob(path: str | os.PathLike[str]) -> bytes | None:
    """The payload of a framed blob; ``None`` when missing, truncated or corrupt."""
    try:
        raw = Path(path).read_bytes()
        magic, header, payload = raw.split(b"\n", 2)
        crc_hex, length = header.split(b" ")
        if (
            magic + b"\n" == _BLOB_MAGIC
            and len(payload) == int(length)
            and zlib.crc32(payload) == int(crc_hex, 16)
        ):
            return payload
    except (OSError, ValueError):  # missing, or a malformed header
        pass
    return None
