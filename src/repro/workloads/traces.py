"""Trace serialisation: JSONL and CSV round-trips for item lists.

A *trace* is an on-disk record of a workload so experiments can be re-run on
exactly the same instance.  Two formats are supported:

* **JSONL** — one JSON object per item, preserving tags.  Scalar items carry
  ``"size": 0.4``; vector (multi-resource) items carry
  ``"sizes": [0.4, 0.2, 0.1]`` instead — both spellings load, and
  :func:`dump_jsonl` writes whichever matches the item dimensionality.
* **CSV** — ``id,size,arrival,departure`` for scalar traces, or
  ``id,size_0,…,size_{d-1},arrival,departure`` for ``d``-dimensional ones
  (tags dropped), convenient for spreadsheets and external tools.

Loading is hardened for the serve path: every parse or validation failure
names the **1-based line number and offending field** in its
:class:`~repro.core.ValidationError`, and an optional
:class:`~repro.resilience.FaultPolicy` lets a long-running consumer *skip*
malformed records or *clamp* the repairable ones (oversized items to the
unit capacity, inverted intervals to a minimal positive duration) instead
of aborting — with every absorbed fault counted in ``resilience.*``
telemetry and bounded by the policy's error budget.

Two loaders serve each format.  The **object** loader parses one record at a
time and is the diagnostic reference.  The **columnar** loader
(:func:`load_jsonl_columnar` / :func:`load_csv_columnar`, or
``load_trace(..., loader="columnar")`` which memory-maps the file) validates
the whole buffer against the canonical numeric schema with one anchored
regex, then converts it to float columns in a few vectorised passes —
falling back to the object loader on *any* irregular content, so results
and fault diagnostics are always identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import mmap
import re
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.exceptions import ValidationError
from ..core.intervals import Interval
from ..core.items import Item, ItemList

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPolicy

__all__ = [
    "dump_jsonl",
    "load_jsonl",
    "load_jsonl_columnar",
    "dump_csv",
    "load_csv",
    "load_csv_columnar",
    "save_trace",
    "load_trace",
    "parse_arrival",
    "trace_workload",
    "TRACE_LOADERS",
]

#: Accepted ``load_trace`` loader names, in documentation order.
TRACE_LOADERS = ("object", "columnar")

CSV_FIELDS = ("id", "size", "arrival", "departure")


def _csv_fields(dims: int) -> tuple[str, ...]:
    """The CSV header for a ``dims``-dimensional trace."""
    if dims == 1:
        return CSV_FIELDS
    return ("id", *(f"size_{k}" for k in range(dims)), "arrival", "departure")

#: Relative epsilon used when clamping an inverted interval to a minimal
#: positive duration (mirrors :func:`repro.engine.clamp_prediction`).
_CLAMP_EPS = 1e-12


def dump_jsonl(items: ItemList) -> str:
    """Serialise to JSON-lines text (one item per line, tags preserved)."""
    return "\n".join(json.dumps(rec) for rec in items.to_records()) + "\n"


def dump_csv(items: ItemList) -> str:
    """Serialise to CSV text with a header row (tags are dropped).

    Scalar traces keep the legacy ``id,size,arrival,departure`` layout;
    ``d``-dimensional traces write one ``size_k`` column per dimension.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_csv_fields(items.dims))
    for r in items:
        sizes = [repr(s) for s in r.sizes]
        writer.writerow([r.id, *sizes, repr(r.arrival), repr(r.departure)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Hardened record parsing
# ---------------------------------------------------------------------------


class _BadRecord(ValidationError):
    """A malformed trace record: what is wrong, and whether it is repairable.

    Attributes:
        reason: Machine-readable fault label for telemetry.
        clampable: True when a ``clamp`` policy can repair the record.
        clamped: The repaired field values (only when ``clampable``).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str,
        clampable: bool = False,
        clamped: Mapping[str, float] | None = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.clampable = clampable
        self.clamped = dict(clamped or {})


def _numeric(rec: Mapping[str, object], field: str, lineno: int, *, integer: bool = False):
    """Field as a finite number, or :class:`_BadRecord` naming line + field."""
    if field not in rec:
        raise _BadRecord(
            f"trace line {lineno}: missing field {field!r}", reason="missing_field"
        )
    raw = rec[field]
    try:
        value = int(raw) if integer else float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise _BadRecord(
            f"trace line {lineno}: non-numeric {field} {raw!r}", reason="non_numeric"
        ) from None
    if not integer and not math.isfinite(value):
        raise _BadRecord(
            f"trace line {lineno}: non-finite {field} {raw!r}", reason="non_finite"
        )
    return value


def _coord(raw: object, field: str, lineno: int) -> float:
    """One size coordinate as a finite float, or :class:`_BadRecord`."""
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise _BadRecord(
            f"trace line {lineno}: non-numeric {field} {raw!r}", reason="non_numeric"
        ) from None
    if not math.isfinite(value):
        raise _BadRecord(
            f"trace line {lineno}: non-finite {field} {raw!r}", reason="non_finite"
        )
    return value


def _parse_sizes(rec: Mapping[str, object], lineno: int) -> tuple[float, ...]:
    """The validated size vector of a record (``size`` or ``sizes`` spelling).

    Coordinate faults name the offending entry — ``size`` for scalar
    records, ``sizes[k]`` (0-indexed, matching :class:`~repro.core.Item`'s
    own messages) for vector ones.  Oversized coordinates are clampable to
    the unit capacity; non-positive ones are not.
    """
    if "sizes" in rec:
        if "size" in rec:
            raise _BadRecord(
                f"trace line {lineno}: both 'size' and 'sizes' present",
                reason="ambiguous_sizes",
            )
        raw = rec["sizes"]
        if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence) or not raw:
            raise _BadRecord(
                f"trace line {lineno}: field 'sizes' must be a non-empty array, "
                f"got {raw!r}",
                reason="sizes_type",
            )
        sizes = tuple(
            _coord(value, f"sizes[{k}]", lineno) for k, value in enumerate(raw)
        )
        for k, s in enumerate(sizes):
            if s <= 0.0:
                raise _BadRecord(
                    f"trace line {lineno}: field 'sizes[{k}]' out of range (0, 1]: {s}",
                    reason="size_range",
                )
        oversize = [k for k, s in enumerate(sizes) if s > 1.0]
        if oversize:
            k = oversize[0]
            raise _BadRecord(
                f"trace line {lineno}: field 'sizes[{k}]' out of range (0, 1]: "
                f"{sizes[k]}",
                reason="size_range",
                clampable=True,
                clamped={"sizes": [min(s, 1.0) for s in sizes]},
            )
        return sizes
    size = _numeric(rec, "size", lineno)
    if size <= 0.0:
        raise _BadRecord(
            f"trace line {lineno}: field 'size' out of range (0, 1]: {size}",
            reason="size_range",
        )
    if size > 1.0:
        raise _BadRecord(
            f"trace line {lineno}: field 'size' out of range (0, 1]: {size}",
            reason="size_range",
            clampable=True,
            clamped={"size": 1.0},
        )
    return (size,)


def _parse_record(rec: Mapping[str, object], lineno: int) -> Item:
    """One validated :class:`Item` from a raw record.

    Raises:
        _BadRecord: naming the 1-based ``lineno`` and the offending field;
            ``clampable`` faults carry the repaired values.
    """
    item_id = _numeric(rec, "id", lineno, integer=True)
    sizes = _parse_sizes(rec, lineno)
    arrival = _numeric(rec, "arrival", lineno)
    departure = _numeric(rec, "departure", lineno)
    if departure <= arrival:
        fixed = arrival + _CLAMP_EPS * max(1.0, abs(arrival))
        raise _BadRecord(
            f"trace line {lineno}: field 'departure' {departure} <= arrival {arrival}",
            reason="inverted_interval",
            clampable=True,
            clamped={"departure": fixed},
        )
    tags = rec.get("tags", {})
    return Item(
        item_id,
        sizes,
        Interval(arrival, departure),
        dict(tags) if isinstance(tags, Mapping) else {},
    )


def _collect(
    raw_records: list[tuple[int, Mapping[str, object] | _BadRecord]],
    policy: "FaultPolicy | None",
) -> ItemList:
    """Turn parsed (or already-failed) records into an :class:`ItemList`.

    Strict (no policy) raises the first fault; ``skip`` drops faulty
    records; ``clamp`` repairs the repairable and drops the rest.
    Duplicate ids are a fault of the *later* record.
    """
    items: list[Item] = []
    seen: set[int] = set()
    for lineno, parsed in raw_records:
        try:
            if isinstance(parsed, _BadRecord):
                raise parsed
            try:
                item = _parse_record(parsed, lineno)
            except _BadRecord as bad:
                if bad.clampable and policy is not None and policy.wants_clamp:
                    policy.absorb(bad.reason, bad, action="clamp")
                    item = _parse_record({**parsed, **bad.clamped}, lineno)
                else:
                    raise
            if item.id in seen:
                raise _BadRecord(
                    f"trace line {lineno}: duplicate item id {item.id}",
                    reason="duplicate_id",
                )
        except _BadRecord as bad:
            if policy is None:
                raise
            policy.absorb(bad.reason, bad, action="drop")
            continue
        seen.add(item.id)
        items.append(item)
    return ItemList(items)


def parse_arrival(
    line: str, *, lineno: int = 1, policy: "FaultPolicy | None" = None
) -> Item | None:
    """Decode one NDJSON arrival record with full trace-loader diagnostics.

    The single-record entry point for live ingestion (the serving runtime's
    transports decode every incoming arrival through here): exactly the
    per-record grammar and fault handling of :func:`load_jsonl`, without
    building an :class:`~repro.core.ItemList`.

    Args:
        line: One JSON object in the trace-record schema (``size`` or
            ``sizes`` spelling, optional ``tags``).
        lineno: 1-based position reported in diagnostics (for a network
            transport, the per-connection record count).
        policy: Optional :class:`~repro.resilience.FaultPolicy`.  ``skip``
            absorbs a malformed record and returns ``None``; ``clamp``
            additionally repairs repairable records (the repaired
            :class:`~repro.core.Item` is returned).  Without a policy (or
            in strict mode) the fault raises.

    Returns:
        The validated item, or ``None`` when a non-strict policy dropped
        the record.

    Raises:
        ValidationError: on a malformed record (strict), naming the record
            position and offending field; or when the policy's error budget
            is exhausted.
    """
    try:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _BadRecord(
                f"trace line {lineno}: invalid JSON: {exc.msg}",
                reason="invalid_json",
            ) from None
        if not isinstance(record, Mapping):
            raise _BadRecord(
                f"trace line {lineno}: expected a JSON object, "
                f"got {type(record).__name__}",
                reason="not_an_object",
            )
        try:
            return _parse_record(record, lineno)
        except _BadRecord as bad:
            if bad.clampable and policy is not None and policy.wants_clamp:
                policy.absorb(bad.reason, bad, action="clamp")
                return _parse_record({**record, **bad.clamped}, lineno)
            raise
    except _BadRecord as bad:
        if policy is None:
            raise
        policy.absorb(bad.reason, bad, action="drop")
        return None


def load_jsonl(text: str, *, policy: "FaultPolicy | None" = None) -> ItemList:
    """Parse JSON-lines text produced by :func:`dump_jsonl`.

    Args:
        text: The trace text.
        policy: Optional :class:`~repro.resilience.FaultPolicy`; without
            one (or in ``strict`` mode) the first malformed record raises a
            :class:`~repro.core.ValidationError` naming its 1-based line
            number and offending field.

    Raises:
        ValidationError: on malformed records (strict), or when the
            policy's error budget is exhausted.
    """
    raw: list[tuple[int, Mapping[str, object] | _BadRecord]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raw.append(
                (
                    lineno,
                    _BadRecord(
                        f"trace line {lineno}: invalid JSON: {exc.msg}",
                        reason="invalid_json",
                    ),
                )
            )
            continue
        if not isinstance(record, Mapping):
            raw.append(
                (
                    lineno,
                    _BadRecord(
                        f"trace line {lineno}: expected a JSON object, "
                        f"got {type(record).__name__}",
                        reason="not_an_object",
                    ),
                )
            )
            continue
        raw.append((lineno, record))
    return _collect(raw, policy)


# ---------------------------------------------------------------------------
# Columnar (zero-copy) loading
# ---------------------------------------------------------------------------

#: One JSON number token, exactly the RFC 8259 grammar (no leading zeros,
#: no leading '+', no bare '.5') so the fast path accepts nothing the
#: object loader's ``json.loads`` would reject.  Possessive quantifiers
#: (``++``/``?+``, Python 3.11+) keep the whole-buffer match linear — the
#: backtracking variant is ~10x slower on 100MB buffers.
_NUM_RE = rb"-?(?:0|[1-9]\d*+)(?:\.\d++)?+(?:[eE][+-]?\d++)?+"

#: One JSON integer token (item ids).
_INT_RE = rb"-?(?:0|[1-9]\d*+)"

#: One CSV numeric field, matching what both ``float()`` (object loader)
#: and ``np.loadtxt`` accept: leading zeros and '+' are fine here.
_CSV_NUM_RE = rb"[+-]?\d++(?:\.\d*+)?+(?:[eE][+-]?\d++)?+"

#: One CSV id field (``int()`` accepts an optional sign and leading zeros).
_CSV_INT_RE = rb"[+-]?\d++"

#: First-line probe: the regular schema written by :func:`dump_jsonl` (and
#: the common external NDJSON shape) with keys in canonical order.
_JSONL_PROBE = re.compile(rb'\{"id": -?\d+, "size(s)?": ')

_JSONL_PATTERNS: dict[tuple[bool, int, bool], "re.Pattern[bytes]"] = {}
_CSV_PATTERNS: dict[int, "re.Pattern[bytes]"] = {}


def _jsonl_pattern(vector: bool, dims: int, with_tags: bool) -> "re.Pattern[bytes]":
    """Whole-buffer validator for the regular JSONL schema (cached).

    Anchored ``(?:LINE\\n)+\\Z`` over the full byte buffer: *every* line must
    match the exact canonical layout, or the columnar parse refuses the file
    and the per-line object loader (with its line/field diagnostics) runs
    instead.  This is what makes the subsequent ``bytes.replace`` transform
    safe — e.g. a line with reordered keys would silently swap arrival and
    departure if we transformed without validating first.
    """
    key = (vector, dims, with_tags)
    pattern = _JSONL_PATTERNS.get(key)
    if pattern is None:
        if vector:
            sizes = rb'"sizes": \[' + _NUM_RE + (rb", " + _NUM_RE) * (dims - 1) + rb"\]"
        else:
            sizes = rb'"size": ' + _NUM_RE
        line = (
            rb'\{"id": '
            + _INT_RE
            + rb", "
            + sizes
            + rb', "arrival": '
            + _NUM_RE
            + rb', "departure": '
            + _NUM_RE
            + (rb', "tags": \{\}\}' if with_tags else rb"\}")
            + rb"\n"
        )
        pattern = re.compile(rb"(?:" + line + rb")++\Z")
        _JSONL_PATTERNS[key] = pattern
    return pattern


def _csv_pattern(dims: int) -> "re.Pattern[bytes]":
    """Whole-body validator for regular CSV rows (cached).

    Forces an integer-literal id (the object loader rejects ``3.0`` there)
    and exactly ``dims + 2`` further numeric fields per row.
    """
    pattern = _CSV_PATTERNS.get(dims)
    if pattern is None:
        row = _CSV_INT_RE + (rb"," + _CSV_NUM_RE) * (dims + 2) + rb"\r?+\n"
        pattern = re.compile(rb"(?:" + row + rb")++\Z")
        _CSV_PATTERNS[dims] = pattern
    return pattern


def _columns_to_items(table: np.ndarray, dims: int) -> ItemList | None:
    """Vectorised validation + column-backed :class:`ItemList` construction.

    Returns ``None`` on *any* rule violation (non-finite values, ids too
    large for exact float representation, sizes outside ``(0, 1]``,
    inverted intervals, duplicate ids): the caller then falls back to the
    object loader, which re-diagnoses the fault with its usual 1-based
    line/field message and :class:`~repro.resilience.FaultPolicy` handling.
    """
    if table.shape[1] != dims + 3:
        return None
    if not np.isfinite(table).all():
        return None
    ids = table[:, 0]
    # Beyond 2**53 the float64 column can no longer represent the decimal
    # id exactly; hand such (pathological) traces to the object loader.
    if (np.abs(ids) >= 2.0**53).any():
        return None
    sizes = table[:, 1 : 1 + dims]
    if (sizes <= 0.0).any() or (sizes > 1.0).any():
        return None
    arrivals = table[:, 1 + dims]
    departures = table[:, 2 + dims]
    if (departures <= arrivals).any():
        return None
    ids_int = ids.astype(np.int64)
    # Sort plus adjacent compare: np.unique would import numpy.ma.
    ids_sorted = np.sort(ids_int)
    if (ids_sorted[1:] == ids_sorted[:-1]).any():
        return None
    # The lexsort reproduces ItemList's (arrival, id) ordering contract.
    order = np.lexsort((ids_int, arrivals))
    return ItemList._from_columns(
        ids_int[order], arrivals[order], departures[order], sizes[order]
    )


def _columnar_parse_jsonl(buf) -> ItemList | None:
    """Parse a regular JSONL byte buffer columnar-style, or ``None``.

    ``buf`` may be ``bytes`` or an ``mmap`` — probing and validation run
    directly on the buffer without materialising lines.
    """
    nl = buf.find(b"\n")
    if nl <= 0:
        return None
    first = buf[:nl]
    probe = _JSONL_PROBE.match(first)
    if probe is None:
        return None
    vector = probe.group(1) is not None
    with_tags = first.endswith(b', "tags": {}}')
    dims = 1
    if vector:
        if first[probe.end() : probe.end() + 1] != b"[":
            return None
        end_bracket = first.find(b"]", probe.end())
        if end_bracket < 0:
            return None
        dims = first.count(b",", probe.end(), end_bracket) + 1
    data = buf if buf[-1:] == b"\n" else bytes(buf) + b"\n"
    if _jsonl_pattern(vector, dims, with_tags).match(data) is None:
        return None
    body = data if isinstance(data, bytes) else bytes(data)
    body = body.replace(b'{"id": ', b"")
    if vector:
        body = body.replace(b', "sizes": [', b",")
        body = body.replace(b'], "arrival": ', b",")
    else:
        body = body.replace(b', "size": ', b",")
        body = body.replace(b', "arrival": ', b",")
    body = body.replace(b', "departure": ', b",")
    if with_tags:
        body = body.replace(b', "tags": {}}\n', b"\n")
    else:
        body = body.replace(b"}\n", b"\n")
    if vector:
        body = body.replace(b", ", b",")
    try:
        table = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return _columns_to_items(table, dims)


def _columnar_parse_csv(buf) -> ItemList | None:
    """Parse a regular CSV byte buffer columnar-style, or ``None``."""
    nl = buf.find(b"\n")
    if nl < 0:
        return None
    header_bytes = buf[:nl]
    if header_bytes[-1:] == b"\r":
        header_bytes = header_bytes[:-1]
    try:
        header = tuple(h.strip() for h in header_bytes.decode("utf-8").split(","))
        dims = _csv_dims(header)
    except (UnicodeDecodeError, ValidationError):
        return None  # fallback re-raises the identical header diagnostic
    body = buf[nl + 1 :]
    if not body:
        return None
    data = body if body[-1:] == b"\n" else bytes(body) + b"\n"
    if _csv_pattern(dims).match(data) is None:
        return None
    csv_bytes = bytes(data).replace(b"\r\n", b"\n")
    try:
        table = np.loadtxt(
            io.BytesIO(csv_bytes), delimiter=",", dtype=np.float64, ndmin=2
        )
    except ValueError:
        return None
    return _columns_to_items(table, dims)


def load_jsonl_columnar(
    text: "str | bytes | mmap.mmap", *, policy: "FaultPolicy | None" = None
) -> ItemList:
    """Columnar :func:`load_jsonl`: block parse of the regular numeric schema.

    When every line matches the canonical layout written by
    :func:`dump_jsonl` (scalar or vector sizes, empty or absent ``tags``),
    the whole buffer is validated with one anchored regex and converted to
    float columns in a handful of vectorised passes — no per-line
    ``json.loads``, no per-record dicts.  Any irregularity at all (a
    non-empty tag, a malformed line, a reordered key, a duplicate id, an
    out-of-range value) rejects the fast path for the *whole buffer* and
    defers to :func:`load_jsonl`, so fault diagnostics — 1-based line
    numbers, field names, :class:`~repro.resilience.FaultPolicy`
    skip/clamp accounting — are exactly unchanged.

    Args:
        text: The trace as ``str``, ``bytes`` or a read-only ``mmap``.
        policy: Forwarded to :func:`load_jsonl` on fallback; the fast path
            only ever succeeds on fault-free traces, so it never consumes
            error budget.

    Raises:
        ValidationError: from the fallback path, as :func:`load_jsonl`.
    """
    buf = text.encode("utf-8") if isinstance(text, str) else text
    items = _columnar_parse_jsonl(buf)
    if items is not None:
        return items
    if isinstance(text, str):
        return load_jsonl(text, policy=policy)
    return load_jsonl(bytes(buf).decode("utf-8"), policy=policy)


def load_csv_columnar(
    text: "str | bytes | mmap.mmap", *, policy: "FaultPolicy | None" = None
) -> ItemList:
    """Columnar :func:`load_csv`: ``np.loadtxt`` over regex-validated rows.

    Same contract as :func:`load_jsonl_columnar`: the fast path requires
    every data row to be purely numeric with an integer-literal id, and any
    irregularity falls back to :func:`load_csv` with identical diagnostics
    and policy handling.
    """
    buf = text.encode("utf-8") if isinstance(text, str) else text
    items = _columnar_parse_csv(buf)
    if items is not None:
        return items
    if isinstance(text, str):
        return load_csv(text, policy=policy)
    return load_csv(bytes(buf).decode("utf-8"), policy=policy)


def _csv_dims(header: tuple[str, ...]) -> int:
    """Trace dimensionality implied by a CSV header.

    Raises:
        ValidationError: when the header is neither the scalar layout nor a
            ``size_0…size_{d-1}`` vector layout.
    """
    if header == CSV_FIELDS:
        return 1
    dims = len(header) - 3
    if dims >= 1 and header == _csv_fields(dims):
        return dims
    raise ValidationError(
        f"bad CSV header {list(header)}; expected {list(CSV_FIELDS)} or "
        f"id,size_0,…,size_{{d-1}},arrival,departure"
    )


def load_csv(text: str, *, policy: "FaultPolicy | None" = None) -> ItemList:
    """Parse CSV text produced by :func:`dump_csv` (scalar or vector layout).

    Line numbers in error messages are 1-based over the whole file, header
    included (so the first data row is line 2).  Coordinate faults in a
    vector trace name the record-level entry (``sizes[k]``, 0-indexed) the
    offending ``size_k`` column maps to.

    Raises:
        ValidationError: on a missing or wrong header, or (strict) on
            malformed rows with the line number and offending field named.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty CSV trace") from None
    dims = _csv_dims(tuple(h.strip() for h in header))
    fields = _csv_fields(dims)
    raw: list[tuple[int, Mapping[str, object] | _BadRecord]] = []
    for lineno, row in enumerate(reader, 2):
        if not row:
            continue
        if len(row) != len(fields):
            raw.append(
                (
                    lineno,
                    _BadRecord(
                        f"trace line {lineno}: expected {len(fields)} fields "
                        f"({', '.join(fields)}), got {len(row)}",
                        reason="field_count",
                    ),
                )
            )
            continue
        if dims == 1:
            raw.append((lineno, dict(zip(fields, row))))
        else:
            raw.append(
                (
                    lineno,
                    {
                        "id": row[0],
                        "sizes": row[1 : 1 + dims],
                        "arrival": row[1 + dims],
                        "departure": row[2 + dims],
                    },
                )
            )
    return _collect(raw, policy)


def save_trace(items: ItemList, path: str | Path) -> None:
    """Write a trace file; the format follows the extension (.jsonl or .csv)."""
    path = Path(path)
    if path.suffix == ".jsonl":
        path.write_text(dump_jsonl(items))
    elif path.suffix == ".csv":
        path.write_text(dump_csv(items))
    else:
        raise ValidationError(f"unknown trace extension {path.suffix!r} (use .jsonl/.csv)")


def trace_workload(
    n: int | None = None,
    *,
    path: str | Path,
    loader: str = "object",
    seed: int = 0,
) -> ItemList:
    """A recorded trace as a sweep workload (``sweep --workload trace``).

    The trace-backed counterpart of the synthetic generators in
    :data:`~repro.analysis.WORKLOAD_GENERATORS`: instead of synthesising
    items from a seed, the cell loads ``path`` through :func:`load_trace`
    with the requested ``loader`` — which is what wires the columnar
    zero-copy loaders into ``sweep``, completing the replay/serve/sweep
    trio.  Module-level and fully keyword-addressable so process-pool sweep
    workers can reconstruct the workload from a picklable task spec.

    Args:
        n: Optional prefix truncation — keep only the first ``n`` items in
            arrival order (``None``/``0``: the whole trace).
        path: The trace file (.jsonl or .csv).
        loader: ``"object"`` or ``"columnar"``, as :func:`load_trace`.
        seed: Accepted for generator-interface uniformity and ignored — a
            recorded trace is the same instance under every seed.

    Raises:
        ValidationError: whatever :func:`load_trace` raises.
    """
    del seed  # a recorded trace has no randomness to seed
    items = load_trace(path, loader=loader)
    if n:
        items = ItemList(list(items)[: int(n)])
    return items


def load_trace(
    path: str | Path,
    *,
    policy: "FaultPolicy | None" = None,
    loader: str = "object",
) -> ItemList:
    """Read a trace file written by :func:`save_trace`.

    Args:
        path: The trace file (.jsonl or .csv).
        policy: Optional :class:`~repro.resilience.FaultPolicy` forwarded to
            the format loader (see :func:`load_jsonl` / :func:`load_csv`).
        loader: ``"object"`` (the default per-record parser) or
            ``"columnar"`` — memory-map the file and hand it to
            :func:`load_jsonl_columnar` / :func:`load_csv_columnar`, which
            fall back to the object parser on any irregular content.  Both
            loaders return identical item lists; ``columnar`` is the fast
            path for large regular traces.

    Raises:
        ValidationError: for an unknown extension or loader name, and
            whatever the format loader raises.
    """
    path = Path(path)
    if loader not in TRACE_LOADERS:
        raise ValidationError(
            f"unknown trace loader {loader!r}; one of {list(TRACE_LOADERS)}"
        )
    if path.suffix not in (".jsonl", ".csv"):
        raise ValidationError(
            f"unknown trace extension {path.suffix!r} (use .jsonl/.csv)"
        )
    jsonl = path.suffix == ".jsonl"
    if loader == "object":
        text = path.read_text()
        return load_jsonl(text, policy=policy) if jsonl else load_csv(text, policy=policy)
    columnar = load_jsonl_columnar if jsonl else load_csv_columnar
    with open(path, "rb") as handle:
        try:
            buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # a zero-length file cannot be mapped
            return columnar(b"", policy=policy)
        with buf:
            return columnar(buf, policy=policy)
