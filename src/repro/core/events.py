"""Arrival/departure event streams.

Online packers and the event-driven simulator consume items as a time-ordered
stream of events.  This module builds that stream from an :class:`ItemList`
with deterministic tie-breaking: at equal times, departures precede arrivals
(half-open intervals mean a departing item frees capacity *at* its departure
instant), and ties within a kind break by item id.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .exceptions import ValidationError
from .items import Item, ItemList

__all__ = [
    "EventKind",
    "Event",
    "EventArrays",
    "event_stream",
    "SizeSlice",
    "active_size_slices",
]


class EventKind(enum.IntEnum):
    """Event types, ordered so departures sort before arrivals at equal times."""

    DEPARTURE = 0
    ARRIVAL = 1


@dataclass(frozen=True, slots=True)
class Event:
    """A single arrival or departure.

    Attributes:
        time: When the event occurs.
        kind: Arrival or departure.
        item: The item arriving or departing.
    """

    time: float
    kind: EventKind
    item: Item

    @property
    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, int(self.kind), self.item.id)


def event_stream(items: ItemList) -> Iterator[Event]:
    """Yield all arrival and departure events of ``items`` in time order.

    The ordering contract (departures first at equal times) is what makes
    back-to-back reuse of bin capacity work with half-open intervals: an item
    departing at ``t`` and another arriving at ``t`` may share capacity.
    """
    rows = list(items)
    # Sort plain (time, kind, id, position) tuples — the ``Event.sort_key``
    # order, ties kept in item order — and build the events once, in order.
    keys = [(r.arrival, 1, r.id, i) for i, r in enumerate(rows)]
    keys += [(r.departure, 0, r.id, i) for i, r in enumerate(rows)]
    keys.sort()
    kinds = (EventKind.DEPARTURE, EventKind.ARRIVAL)
    return iter([Event(t, kinds[k], rows[i]) for t, k, _, i in keys])


@dataclass(frozen=True, slots=True)
class SizeSlice:
    """One elementary interval of the active-size sweep.

    Attributes:
        left: Slice start (an event time).
        right: Slice end (the next event time).
        sizes: Sizes of the items active on ``[left, right)``, sorted
            ascending — the canonical multiset key of the classical bin
            packing instance induced by the slice.
        added: Number of items that arrived at ``left`` (the delta against
            the previous slice's multiset used for warm-starting solvers).
    """

    left: float
    right: float
    sizes: tuple[float, ...]
    added: int

    @property
    def width(self) -> float:
        return self.right - self.left


def _uniq_sorted(values: np.ndarray) -> np.ndarray:
    """Unique values of an already-sorted float array (adjacent compare)."""
    if len(values) == 0:
        return values
    mask = np.empty(len(values), dtype=bool)
    mask[0] = True
    np.not_equal(values[1:], values[:-1], out=mask[1:])
    return values[mask]


class EventArrays:
    """Presorted columnar event timeline of an :class:`ItemList`.

    The sweep-line substrate built once per instance: every arrival and
    departure time in one sorted float64 array (``times_all``, with
    multiplicity), the unique slice boundaries (``times``, python floats —
    exactly ``ItemList.event_times()``), and — for scalar items — the item
    sizes argsorted by arrival and by departure with per-boundary offset
    arrays, so each slice's multiset delta is an O(1) array slice instead of
    a dict lookup over per-item Python objects.

    The adversary's incremental oracle reuses the presorted ``times_all``
    across mutations via :meth:`retimed` instead of re-sorting the whole
    timeline per candidate (the ``opt_total_incremental`` hot loop).

    Attributes:
        times_all: ``(2n,)`` sorted float64 event times, with multiplicity.
        times: Unique boundaries as a list of python floats, identical to
            ``ItemList.event_times()``.
    """

    __slots__ = (
        "times_all",
        "times",
        "_a_sizes",
        "_a_lo",
        "_a_hi",
        "_d_sizes",
        "_d_lo",
        "_d_hi",
    )

    def __init__(self) -> None:
        """Empty timeline; use :meth:`from_items` / :meth:`retimed`."""
        self.times_all = np.empty(0, dtype=np.float64)
        self.times: list[float] = []
        self._a_sizes = self._a_lo = self._a_hi = None
        self._d_sizes = self._d_lo = self._d_hi = None

    @classmethod
    def from_items(cls, items: ItemList) -> "EventArrays":
        """Build the full sweep substrate from scalar items (argsort once).

        Raises:
            ValidationError: for ``d > 1`` items, where the scalar active-size
                sweep is undefined (same error as the object sweep).
        """
        n = len(items)
        ev = cls()
        if n == 0:
            return ev
        arr = np.fromiter((r.arrival for r in items), dtype=np.float64, count=n)
        dep = np.fromiter((r.departure for r in items), dtype=np.float64, count=n)
        ev.times_all = np.sort(np.concatenate((arr, dep)))
        boundaries = _uniq_sorted(ev.times_all)
        ev.times = boundaries.tolist()
        sizes = np.fromiter((r.size for r in items), dtype=np.float64, count=n)
        order = np.argsort(arr, kind="stable")
        arr_sorted = arr[order]
        ev._a_sizes = sizes[order]
        ev._a_lo = np.searchsorted(arr_sorted, boundaries, side="left")
        ev._a_hi = np.searchsorted(arr_sorted, boundaries, side="right")
        order = np.argsort(dep, kind="stable")
        dep_sorted = dep[order]
        ev._d_sizes = sizes[order]
        ev._d_lo = np.searchsorted(dep_sorted, boundaries, side="left")
        ev._d_hi = np.searchsorted(dep_sorted, boundaries, side="right")
        return ev

    def retimed(
        self, removed: Iterable[Item], added: Iterable[Item]
    ) -> "EventArrays":
        """A boundaries-only timeline with some items' times swapped out.

        Deletes one ``times_all`` occurrence per event of each removed item
        and merge-inserts the added items' events — O(k log n) searchsorted
        work on the presorted array instead of an O(n log n) re-sort.  The
        result carries ``times_all``/``times`` only (no size arrays): it is
        the boundary timeline the incremental adversary walks with its own
        active set.

        Raises:
            ValidationError: when a removed event time is not present in the
                timeline (the base timeline does not match ``removed``).
        """
        rem_list: list[float] = []
        for r in removed:
            rem_list.append(r.arrival)
            rem_list.append(r.departure)
        add_list: list[float] = []
        for r in added:
            add_list.append(r.arrival)
            add_list.append(r.departure)
        base = self.times_all
        if rem_list:
            rem = np.sort(np.asarray(rem_list, dtype=np.float64))
            pos = np.searchsorted(base, rem, side="left")
            # Spread duplicate removed values across the matching run.
            pos = pos + (np.arange(len(rem)) - np.searchsorted(rem, rem, side="left"))
            if (pos >= len(base)).any() or not np.array_equal(base[pos], rem):
                raise ValidationError(
                    "retimed: a removed item's event time is not in the timeline"
                )
            base = np.delete(base, pos)
        if add_list:
            add = np.sort(np.asarray(add_list, dtype=np.float64))
            base = np.insert(base, np.searchsorted(base, add, side="left"), add)
        ev = EventArrays()
        ev.times_all = base
        ev.times = _uniq_sorted(base).tolist()
        return ev

    def slices(self) -> Iterator[SizeSlice]:
        """Sweep the prebuilt arrays, yielding one slice per elementary interval.

        Yields exactly what the object sweep yields — same boundaries, same
        ascending size tuples, same ``added`` counts (the within-boundary
        application order differs but the multiset per slice is identical,
        hence the sorted tuple is too).
        """
        times = self.times
        if len(times) < 2:
            return
        if self._a_sizes is None:
            raise ValidationError(
                "this EventArrays holds boundaries only (from retimed); "
                "build with from_items to sweep sizes"
            )
        a_sizes = self._a_sizes.tolist()
        d_sizes = self._d_sizes.tolist()
        a_lo = self._a_lo.tolist()
        a_hi = self._a_hi.tolist()
        d_lo = self._d_lo.tolist()
        d_hi = self._d_hi.tolist()
        active: list[float] = []
        for k in range(len(times) - 1):
            left = times[k]
            for s in d_sizes[d_lo[k] : d_hi[k]]:
                del active[bisect_left(active, s)]
            for s in a_sizes[a_lo[k] : a_hi[k]]:
                insort(active, s)
            yield SizeSlice(left, times[k + 1], tuple(active), a_hi[k] - a_lo[k])


def _slices_object(items: ItemList) -> Iterator[SizeSlice]:
    """The original per-object sweep, kept as the parity reference."""
    times = items.event_times()
    if len(times) < 2:
        return
    arrivals: dict[float, list[float]] = {}
    departures: dict[float, list[float]] = {}
    for r in items:
        arrivals.setdefault(r.arrival, []).append(r.size)
        departures.setdefault(r.departure, []).append(r.size)
    active: list[float] = []
    for left, right in zip(times[:-1], times[1:]):
        for s in departures.get(left, ()):
            del active[bisect_left(active, s)]
        added = arrivals.get(left, ())
        for s in added:
            insort(active, s)
        yield SizeSlice(left, right, tuple(active), len(added))


def _slices_columnar(items: ItemList) -> Iterator[SizeSlice]:
    """Columnar sweep: build :class:`EventArrays` lazily, then walk it."""
    yield from EventArrays.from_items(items).slices()


def active_size_slices(
    items: ItemList, *, engine: str | None = None
) -> Iterator[SizeSlice]:
    """Sweep the event times of ``items``, yielding one slice per elementary
    interval with the active size multiset maintained incrementally.

    Between consecutive event times the set of active items is constant, so
    the whole timeline decomposes into ``len(event_times) - 1`` slices.  The
    default ``columnar`` engine presorts all event times and sizes into numpy
    arrays once (:class:`EventArrays`) and reads each boundary's multiset
    delta as an array slice; the ``object`` engine is the original
    dict-of-lists sweep, kept as the parity reference.  Both yield identical
    slices — boundaries, ascending size tuples and ``added`` counts — which
    the event-sweep tests assert on random instances.

    Half-open interval semantics: at a boundary ``t``, items departing at
    ``t`` are removed *before* items arriving at ``t`` are added, matching
    :class:`EventKind` ordering and ``Item.active_at``.

    Args:
        items: The (scalar) items to sweep.
        engine: ``"columnar"`` (default, ``None``) or ``"object"``.

    Raises:
        ValidationError: for an unknown engine name, or lazily for ``d > 1``
            items (the scalar active-size sweep is undefined).
    """
    if engine is None or engine == "columnar":
        return _slices_columnar(items)
    if engine == "object":
        return _slices_object(items)
    raise ValidationError(
        f"unknown slice engine {engine!r}; expected 'columnar' or 'object'"
    )
