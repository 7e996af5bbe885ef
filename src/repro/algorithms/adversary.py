"""The incremental repacking adversary: sweep line, memoization, warm starts.

Every empirical ratio in this repository divides by the paper's §3.2
adversary ``OPT_total(R) = ∫ OPT(R, t) dt``.  This module is the production
pipeline for that integral, built from three layers:

* :func:`opt_total` — an event-sorted **sweep line** over the elementary
  intervals (via :func:`repro.core.events.active_size_slices`) that maintains
  the active size multiset incrementally instead of rescanning all items per
  interval.  Each slice goes through **Prop 3 certificate → FFD → memo →
  B&B on the residue**: the lower bound max(⌈S(t)⌉, #items > ½) settles the
  slice when it meets the **warm** upper bound (the previous slice's optimum
  plus its arrivals) or the First-Fit-Decreasing count; only the residue
  consults the :class:`MemoCache` and, on a miss, runs branch and bound.
* :class:`MemoCache` — a thread-safe, optionally disk-backed map from the
  canonical hash of a size multiset to its exact bin count, shared across
  ``opt_total`` calls (and, through a file, across sweep worker processes
  and repeated benchmark runs).  It holds branch-and-bound results only;
  certified slices never reach it.
* :class:`AdversaryOracle` — a stateful evaluator that remembers the slice
  decomposition of the last instance it solved; when the next instance
  differs only by item mutations, it recomputes **only the slices
  intersecting the mutated time windows** and splices the rest — the fast
  path behind :func:`repro.bounds.find_bad_instance`'s hill climb.

All three return values bit-identical to the reference
:func:`repro.algorithms.optimal.opt_total_scan`: the slice boundaries, the
per-slice exact optima and the left-to-right summation order are the same,
so the floating-point result is exactly equal, not merely approximately.
Observability flows through :class:`~repro.algorithms.optimal.SolverStats`.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import struct
import threading
import time

try:  # POSIX advisory file locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]
from bisect import bisect_left, bisect_right, insort
from pathlib import Path
from typing import Sequence

from typing import TYPE_CHECKING

from ..core.events import EventArrays, active_size_slices
from ..core.exceptions import ValidationError
from ..core.items import ItemList
from ..core.stepfun import DEFAULT_TOL
from ..obs import TelemetryRegistry, enabled as _telemetry_enabled
from .optimal import SolverStats, _branch_and_bound, _certificate, _prop3_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.deadline import Deadline

__all__ = [
    "MemoCache",
    "AdversaryOracle",
    "opt_total",
    "opt_total_incremental",
    "default_memo",
]


# ---------------------------------------------------------------------------
# Shared memoization of slice optima
# ---------------------------------------------------------------------------


class MemoCache:
    """Canonical multiset hash → exact bin count, shared across solves.

    Keys are 16-byte BLAKE2b digests of the packed ``(tol, sorted sizes)``
    vector, so identical slices hash identically regardless of which
    instance produced them, and the cache stays compact even for thousands
    of large slices.  All operations take an internal lock (thread-safe);
    persistence is **merge-on-save** with an atomic ``os.replace`` under a
    POSIX advisory lock on a ``<path>.lock`` sidecar, so any number of
    concurrent sweep worker processes pointed at the same path serialise
    their read-merge-write cycles: the file ends up holding the **union**
    of every saver's entries.  (Where ``fcntl`` is unavailable the save is
    still atomic but best-effort — a simultaneous save may lose some of
    another worker's freshly added entries.)

    A cached count is the *exact* optimum of its multiset, independent of
    the node budget it was solved under; a hit can therefore only turn a
    would-be :class:`~repro.core.SolverLimitError` into an exact answer,
    never change a value.

    Args:
        path: Optional file backing the cache; loaded eagerly when it
            exists, written by :meth:`save`.
        max_entries: Soft capacity; the oldest entries are evicted first.
        registry: Optional :class:`~repro.obs.TelemetryRegistry` the cache
            records its persistence telemetry in (``memo.load_entries``,
            ``memo.saves``, ``memo.entries_merged``, ``memo.file_bytes``,
            ``memo.save_retries``); ``None`` records nothing.
    """

    #: Transient-OSError attempts made by :meth:`save` before giving up.
    _SAVE_ATTEMPTS = 3

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        *,
        max_entries: int = 1_000_000,
        registry: TelemetryRegistry | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._data: dict[bytes, int] = {}
        self.max_entries = max_entries
        self.registry = registry
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.load()

    @staticmethod
    def key(sizes: Sequence[float], tol: float) -> bytes:
        """The canonical cache key of a sorted size multiset at ``tol``."""
        packed = struct.pack(f"<{len(sizes) + 1}d", tol, *sizes)
        return hashlib.blake2b(packed, digest_size=16).digest()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: bytes) -> int | None:
        """The cached bin count for ``key``, or ``None``."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: bytes, count: int) -> None:
        """Record the exact bin count of a multiset."""
        with self._lock:
            if key not in self._data and len(self._data) >= self.max_entries:
                del self._data[next(iter(self._data))]
            self._data[key] = count

    def clear(self) -> None:
        """Drop every in-memory entry (the backing file is untouched)."""
        with self._lock:
            self._data.clear()

    def load(self) -> int:
        """Merge entries from the backing file; returns how many were read.

        A missing, empty or unreadable file is treated as an empty cache —
        persistence is an optimisation, never a correctness dependency.
        """
        if self.path is None or not self.path.exists():
            return 0
        try:
            raw = self.path.read_bytes()
            data = pickle.loads(raw) if raw else {}
        except (OSError, pickle.UnpicklingError, EOFError, ValueError):
            return 0
        if not isinstance(data, dict):
            return 0
        with self._lock:
            for k, v in data.items():
                self._data.setdefault(k, v)
        if self.registry is not None:
            self.registry.counter("memo.load_entries").inc(len(data))
        return len(data)

    def merge_from(self, other: "MemoCache") -> int:
        """Fold another cache's in-memory entries into this one.

        Existing entries win (cached optima for the same key are equal by
        construction, so which copy survives is immaterial).  Returns the
        number of newly adopted entries.  This is the driver-side half of
        the sharded-sweep memo story: per-shard caches are merged into one
        and persisted through :meth:`save`'s atomic merge path.
        """
        with other._lock:
            entries = dict(other._data)
        adopted = 0
        with self._lock:
            for key, count in entries.items():
                if key not in self._data:
                    if len(self._data) >= self.max_entries:
                        del self._data[next(iter(self._data))]
                    self._data[key] = count
                    adopted += 1
        return adopted

    @contextlib.contextmanager
    def _save_lock(self):
        """Advisory exclusive lock on the sidecar ``<path>.lock`` file.

        Serialises concurrent read-merge-write save cycles on POSIX so no
        saver's entries are lost; a no-op where ``fcntl`` is unavailable.
        """
        if fcntl is None or self.path is None:
            yield
            return
        lock_path = self.path.with_name(f"{self.path.name}.lock")
        with open(lock_path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def save(self) -> int:
        """Merge this cache into the backing file atomically.

        The read-merge-write cycle runs under :meth:`_save_lock`, so
        concurrent savers append to — never overwrite — each other: on-disk
        entries from other processes are preserved, the merged dict is
        written to a temp file and ``os.replace``d into place (retried a
        few times on transient ``OSError``).  Returns the number of entries
        written (0 without a path).
        """
        if self.path is None:
            return 0
        with self._save_lock():
            merged: dict[bytes, int] = {}
            try:
                raw = self.path.read_bytes()
                on_disk = pickle.loads(raw) if raw else {}
                if isinstance(on_disk, dict):
                    merged.update(on_disk)
            except (OSError, pickle.UnpicklingError, EOFError, ValueError):
                pass
            with self._lock:
                merged.update(self._data)
            payload = pickle.dumps(merged, protocol=pickle.HIGHEST_PROTOCOL)
            tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
            retries = 0
            for attempt in range(self._SAVE_ATTEMPTS):
                try:
                    tmp.write_bytes(payload)
                    os.replace(tmp, self.path)
                    break
                except OSError:
                    retries += 1
                    if attempt == self._SAVE_ATTEMPTS - 1:
                        if self.registry is not None:
                            self.registry.counter("memo.save_retries").inc(retries)
                        raise
        if self.registry is not None:
            self.registry.counter("memo.saves").inc()
            self.registry.counter("memo.entries_merged").inc(len(merged))
            self.registry.gauge("memo.file_bytes").set(len(payload))
            if retries:
                self.registry.counter("memo.save_retries").inc(retries)
        return len(merged)


#: Process-wide default cache used when ``opt_total`` is not handed one.
_DEFAULT_MEMO = MemoCache()


def default_memo() -> MemoCache:
    """The process-wide :class:`MemoCache` behind ``opt_total(memo=None)``."""
    return _DEFAULT_MEMO


# ---------------------------------------------------------------------------
# The sweep-line adversary
# ---------------------------------------------------------------------------


def _slice_count(
    sizes: tuple[float, ...],
    warm_upper: int,
    *,
    tol: float,
    max_nodes: int,
    memo: MemoCache,
    stats: SolverStats | None,
    deadline: "Deadline | None" = None,
    lower_bound: int | None = None,
) -> int:
    """Exact bin count of one ascending slice.

    Prop 3 certificate → FFD → memo → branch and bound: the certificate
    settles most slices against the warm upper bound or the FFD count with
    no memo key at all; only the residue is looked up, and only search
    results are cached.  ``lower_bound`` is the slice's Prop 3 bound when
    the caller already computed it.
    """
    count, ffd = _certificate(sizes, warm_upper, tol, lower_bound)
    if count is not None:
        if stats is not None:
            stats.certified += 1
        return count
    key = MemoCache.key(sizes, tol)
    cached = memo.get(key)
    if cached is not None:
        if stats is not None:
            stats.memo_hits += 1
        return cached
    t0 = None
    if stats is not None:
        stats.memo_misses += 1
        if _telemetry_enabled():
            t0 = time.perf_counter()
    count = _branch_and_bound(
        sizes[::-1],
        ffd,
        warm_upper,
        tol=tol,
        max_nodes=max_nodes,
        stats=stats,
        deadline=deadline,
    )
    if t0 is not None:
        stats.solve_latency.observe(time.perf_counter() - t0)
    memo.put(key, count)
    return count


def _added_count(prev: tuple[float, ...], cur: tuple[float, ...]) -> int:
    """``|cur \\ prev|`` as multisets of sorted floats (two-pointer walk)."""
    i = j = common = 0
    while i < len(prev) and j < len(cur):
        if prev[i] == cur[j]:
            common += 1
            i += 1
            j += 1
        elif prev[i] < cur[j]:
            i += 1
        else:
            j += 1
    return len(cur) - common


def opt_total(
    items: ItemList,
    *,
    tol: float = DEFAULT_TOL,
    max_nodes: int = 2_000_000,
    memo: MemoCache | None = None,
    stats: SolverStats | None = None,
    deadline: "Deadline | None" = None,
    slice_engine: str | None = None,
) -> float:
    """Exact ``OPT_total(R) = ∫ OPT(R, t) dt`` (paper §3.2), fast.

    An event-sorted sweep maintains the active size multiset in O(log n) per
    event.  Each elementary interval's classical bin packing instance is
    settled by the Prop 3 certificate when its lower bound meets the warm
    upper bound — the previous slice's optimum plus its arrival count, valid
    since removing departures cannot increase the optimum and each arrival
    fits in a fresh bin — or the FFD count.  The residue is answered from
    ``memo`` when its multiset has been searched before (by any prior call
    sharing the cache) and otherwise by warm-started branch and bound.

    Values are bit-identical to the reference
    :func:`~repro.algorithms.optimal.opt_total_scan`.

    Args:
        items: The instance ``R``.
        tol: Capacity tolerance (part of the memo key).
        max_nodes: Per-slice branch-and-bound node budget.
        memo: Cache to consult and fill; ``None`` uses the process-wide
            :func:`default_memo`.
        stats: Optional :class:`~repro.algorithms.optimal.SolverStats`
            incremented in place.
        deadline: Optional wall-clock :class:`~repro.resilience.Deadline`
            bounding the **whole** integral — one budget shared by every
            slice's branch and bound, checked between slices and inside
            each solve.
        slice_engine: Sweep engine forwarded to
            :func:`~repro.core.events.active_size_slices` — ``None`` /
            ``"columnar"`` (presorted arrays, the default) or ``"object"``
            (the original per-object sweep).  Both engines yield identical
            slices, so the integral is the same either way; the knob exists
            for parity testing and benchmarking.

    Raises:
        SolverLimitError: if the branch and bound of an uncached residue
            slice exceeds the node budget.
        DeadlineExceeded: if ``deadline`` expires before the sweep finishes.
    """
    if not items:
        return 0.0
    memo = _DEFAULT_MEMO if memo is None else memo
    total = 0.0
    prev_count = 0
    for sl in active_size_slices(items, engine=slice_engine):
        if stats is not None:
            stats.slices += 1
        if deadline is not None:
            deadline.check("opt_total sweep")
        if not sl.sizes:
            prev_count = 0
            continue
        count = _slice_count(
            sl.sizes,
            prev_count + sl.added,
            tol=tol,
            max_nodes=max_nodes,
            memo=memo,
            stats=stats,
            deadline=deadline,
        )
        total += count * (sl.right - sl.left)
        prev_count = count
    if stats is not None:
        stats.full_evals += 1
    return total


# ---------------------------------------------------------------------------
# Incremental re-evaluation under item mutations
# ---------------------------------------------------------------------------


def _merge_windows(windows: list[tuple[float, float]]) -> list[tuple[float, float]]:
    windows.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in windows:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _integral(
    sizes: list[tuple[float, ...]], counts: list[int], times: list[float]
) -> float:
    """``Σ counts[k] · (times[k+1] − times[k])`` over the non-empty slices.

    Summed left to right: the one order every oracle total is computed in.
    """
    total = 0.0
    for k, active in enumerate(sizes):
        if active:
            total += counts[k] * (times[k + 1] - times[k])
    return total


def _proves_rejection(
    target: tuple[float, float],
    sizes: list[tuple[float, ...]],
    counts: list[int],
    times: list[float],
) -> bool:
    """Whether ``counts``, each at most its slice's optimum, prove rejection.

    Each count is an integer no larger than the exact one and is multiplied
    by the same width and summed in the same order, so the float sum is at
    most the float ``OPT_total``.  Correctly rounded division is monotone,
    hence ``usage / OPT_total <= usage / lower <= current``.
    """
    usage, current = target
    lower = _integral(sizes, counts, times)
    return lower > 0 and usage / lower <= current


#: The oracle's remembered evaluation: per-slice size multisets, per-slice
#: optima and the timeline whose ``times`` bound the slices.
_SliceState = tuple[list[tuple[float, ...]], list[int], EventArrays]


class AdversaryOracle:
    """A stateful ``OPT_total`` evaluator with an incremental mutation path.

    The oracle remembers the slice decomposition of the last instance it
    evaluated as three parallel lists: the sorted event times, and per
    elementary slice ``[times[k], times[k+1])`` its ascending size multiset
    and exact optimum.  When the next instance covers the same item ids and
    differs only in some items' sizes or intervals — exactly what one
    hill-climb mutation produces — it maps the mutated items' old/new time
    windows to index ranges of the new timeline and recomputes only those
    slices; each run of untouched slices between windows is spliced from
    the previous evaluation with one list slice.  Slice boundaries always
    come from the new timeline, so a spliced run that ends (or starts) at a
    mutated item's new event time keeps the right width.  The final
    integral is re-summed left to right over all slices, so the result is
    bit-identical to a from-scratch :func:`opt_total` of the new instance.

    The memo cache and stats are shared across evaluations (and may be
    shared wider by passing them in), so repeated slices pay for their
    branch and bound exactly once per oracle/cache lifetime.

    Args:
        tol: Capacity tolerance.
        max_nodes: Per-slice branch-and-bound node budget.
        memo: Shared :class:`MemoCache`; a private one is created if omitted
            (note: *not* the process-wide default, so oracle memory is
            bounded by its own lifetime).
        stats: Shared :class:`~repro.algorithms.optimal.SolverStats`; a
            private one is created if omitted (read it via ``.stats``).
    """

    __slots__ = (
        "tol",
        "max_nodes",
        "memo",
        "stats",
        "_items",
        "_sizes",
        "_counts",
        "_events",
    )

    #: An evaluation falls back to a full sweep when more than this fraction
    #: of the items changed (windows would cover most of the timeline).
    _INCREMENTAL_FRACTION = 0.25

    def __init__(
        self,
        *,
        tol: float = DEFAULT_TOL,
        max_nodes: int = 2_000_000,
        memo: MemoCache | None = None,
        stats: SolverStats | None = None,
    ) -> None:
        self.tol = tol
        self.max_nodes = max_nodes
        self.memo = memo if memo is not None else MemoCache()
        self.stats = stats if stats is not None else SolverStats()
        self._items: ItemList | None = None
        self._sizes: list[tuple[float, ...]] | None = None
        self._counts: list[int] | None = None
        self._events: EventArrays | None = None

    def reset(self) -> None:
        """Forget the remembered baseline (the memo cache is kept)."""
        self._items = self._sizes = self._counts = self._events = None

    def opt_total(
        self, items: ItemList, *, target: tuple[float, float] | None = None
    ) -> float | None:
        """Exact ``OPT_total(items)``, incrementally when possible.

        Args:
            items: The instance to evaluate.
            target: Optional rejection target ``(usage, current)``: a
                hill-climb candidate's usage and the ratio it must beat.
                The incremental path then sums the spliced slices' exact
                counts and the re-walked slices' Prop 3 lower bounds in the
                integral's own order; when ``usage / bound <= current`` it
                returns ``None`` without solving anything.  Otherwise it
                solves the re-walked slices left to right and re-checks
                after each one whose exact count exceeds its bound.
                ``None`` proves ``usage / OPT_total(items) <= current``;
                the call may still return the exact value, which the caller
                compares itself.  Without a target the call never returns
                ``None``.

        A call that returns ``None`` or raises leaves the remembered
        baseline unchanged: the next hill-climb candidate is at most two
        items away from it, so it still takes the incremental path.

        Raises:
            SolverLimitError: if an uncached residue slice exceeds the node budget;
                the remembered baseline is left unchanged in that case.
        """
        if not items:
            return 0.0
        state: _SliceState | None = None
        if self._items is not None:
            changed = self._items.changed_ids(items)
            if changed is not None:
                if not changed:
                    state = self._sizes, self._counts, self._events  # type: ignore[assignment]
                elif len(changed) <= max(2, int(len(items) * self._INCREMENTAL_FRACTION)):
                    state = self._incremental(items, changed, target)
                    if state is None:
                        return None
        if state is None:
            state = self._full(items)
        sizes, counts, events = state
        total = _integral(sizes, counts, events.times)
        self._items = items
        self._sizes, self._counts, self._events = state
        return total

    # -- evaluation paths ---------------------------------------------------

    def _count(
        self, sizes: tuple[float, ...], warm_upper: int, lower_bound: int | None = None
    ) -> int:
        return _slice_count(
            sizes,
            warm_upper,
            tol=self.tol,
            max_nodes=self.max_nodes,
            memo=self.memo,
            stats=self.stats,
            lower_bound=lower_bound,
        )

    def _full(self, items: ItemList) -> _SliceState:
        events = EventArrays.from_items(items)
        sizes: list[tuple[float, ...]] = []
        counts: list[int] = []
        prev_count = 0
        for sl in events.slices():
            self.stats.slices += 1
            count = self._count(sl.sizes, prev_count + sl.added) if sl.sizes else 0
            sizes.append(sl.sizes)
            counts.append(count)
            prev_count = count
        self.stats.full_evals += 1
        return sizes, counts, events

    def _incremental(
        self,
        items: ItemList,
        changed: list[int],
        target: tuple[float, float] | None,
    ) -> _SliceState | None:
        assert self._items is not None and self._events is not None
        assert self._sizes is not None and self._counts is not None
        old_items, old_sizes, old_counts = self._items, self._sizes, self._counts
        old_times = self._events.times
        old_changed = [old_items.by_id(i) for i in changed]
        new_changed = [items.by_id(i) for i in changed]
        raw_windows: list[tuple[float, float]] = []
        for o, n in zip(old_changed, new_changed):
            if o.size == n.size:
                # Same size: only the symmetric difference of the two
                # intervals changes the multiset — the overlap keeps the
                # item as-is.  The two boundary-shift windows cover it
                # (and cover both intervals when they are disjoint).
                if o.arrival != n.arrival:
                    raw_windows.append(
                        (min(o.arrival, n.arrival), max(o.arrival, n.arrival))
                    )
                if o.departure != n.departure:
                    raw_windows.append(
                        (min(o.departure, n.departure), max(o.departure, n.departure))
                    )
            else:
                raw_windows.append(
                    (min(o.arrival, n.arrival), max(o.departure, n.departure))
                )

        # Presort reuse: splice the mutated items' event times into the
        # baseline's sorted timeline instead of re-sorting all 2n events per
        # mutation.  The resulting boundaries are bit-identical to
        # ``items.event_times()`` (same floats, same order).
        try:
            events = self._events.retimed(old_changed, new_changed)
        except ValidationError:
            events = EventArrays.from_items(items)  # baseline mismatch: rebuild
        times = events.times
        n_slices = len(times) - 1

        # Slice k = [times[k], times[k+1]) meets the window [lo, hi) iff
        # bisect_right(times, lo) - 1 <= k < bisect_left(times, hi).
        ranges: list[tuple[int, int]] = []
        for lo, hi in _merge_windows(raw_windows):
            a = max(bisect_right(times, lo) - 1, 0)
            b = min(bisect_left(times, hi), n_slices)
            if a >= b:
                continue
            if ranges and a <= ranges[-1][1]:
                ranges[-1] = (ranges[-1][0], max(ranges[-1][1], b))
            else:
                ranges.append((a, b))
        ranges.append((n_slices, n_slices))

        old_spans = [(r.arrival, r.departure, r.size) for r in old_changed]
        new_spans = [(r.arrival, r.departure, r.size) for r in new_changed]
        stats = self.stats
        sizes: list[tuple[float, ...]] = []
        counts: list[int] = []
        # Non-empty re-walked slices, solved below in left-to-right order so
        # each one's warm upper bound reads its predecessor's exact count.
        todo: list[int] = []
        done = 0
        for a, b in ranges:
            if done < a:
                # Untouched run [done, a).  Every event time strictly inside
                # it belongs to an unchanged item, so the run maps onto
                # consecutive old slices.  Its edges may be new-only times,
                # but each mutated item's windows reach back to one of its
                # old times, so the run never leaves the old coverage.
                run = a - done
                stats.slices += run
                stats.slices_reused += run
                j = bisect_right(old_times, times[done]) - 1
                sizes += old_sizes[j : j + run]
                counts += old_counts[j : j + run]
            for k in range(a, b):
                stats.slices += 1
                left = times[k]
                j = bisect_right(old_times, left) - 1
                active = list(old_sizes[j]) if 0 <= j < len(old_sizes) else []
                for arrival, departure, size in old_spans:
                    if arrival <= left < departure:
                        del active[bisect_left(active, size)]
                for arrival, departure, size in new_spans:
                    if arrival <= left < departure:
                        insort(active, size)
                cur = tuple(active)
                if cur:
                    todo.append(k)
                sizes.append(cur)
                counts.append(0)
            done = b
        assert len(sizes) == n_slices

        if target is not None and todo:
            # Until solved, a re-walked slice's count holds its Prop 3 bound.
            for k in todo:
                counts[k] = _prop3_bound(sizes[k], self.tol)
            if _proves_rejection(target, sizes, counts, times):
                stats.bound_rejects += 1
                return None
        for k in todo:
            cur = sizes[k]
            prev, prev_count = (sizes[k - 1], counts[k - 1]) if k else ((), 0)
            bound = counts[k] if target is not None else None
            count = self._count(cur, prev_count + _added_count(prev, cur), bound)
            counts[k] = count
            if bound is not None and count > bound and _proves_rejection(
                target, sizes, counts, times  # type: ignore[arg-type]
            ):
                stats.bound_rejects += 1
                return None
        stats.incremental_evals += 1
        return sizes, counts, events


def opt_total_incremental(
    base_items: ItemList,
    items: ItemList,
    *,
    tol: float = DEFAULT_TOL,
    max_nodes: int = 2_000_000,
    memo: MemoCache | None = None,
    stats: SolverStats | None = None,
) -> float:
    """``OPT_total(items)`` via the incremental path anchored at ``base_items``.

    Convenience wrapper over :class:`AdversaryOracle` for one-shot use: the
    oracle evaluates the baseline, then re-evaluates the mutated instance
    touching only the slices the mutation can affect.  Bit-identical to
    ``opt_total(items)``.  For repeated mutations keep an oracle instead.
    """
    oracle = AdversaryOracle(tol=tol, max_nodes=max_nodes, memo=memo, stats=stats)
    oracle.opt_total(base_items)
    return oracle.opt_total(items)
