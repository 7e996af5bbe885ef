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


class EventArrays:
    """Presorted columnar event timeline of an :class:`ItemList`.

    The sweep-line substrate built once per instance: the unique slice
    boundaries (``times``, python floats — exactly
    ``ItemList.event_times()``) with each boundary's event multiplicity,
    and — for scalar items — the item sizes argsorted by arrival and by
    departure with per-boundary offset arrays, so each slice's multiset
    delta is an O(1) array slice instead of a dict lookup over per-item
    Python objects.

    The adversary's incremental oracle reuses the timeline across mutations
    via :meth:`retimed` instead of re-sorting it per candidate (the
    ``opt_total_incremental`` hot loop).

    Attributes:
        times: Unique boundaries as a list of python floats, identical to
            ``ItemList.event_times()``.
    """

    __slots__ = (
        "times",
        "_counts",
        "_a_sizes",
        "_a_lo",
        "_a_hi",
        "_d_sizes",
        "_d_lo",
        "_d_hi",
    )

    def __init__(self) -> None:
        """Empty timeline; use :meth:`from_items` / :meth:`retimed`."""
        self.times: list[float] = []
        # Events per boundary; None when the offset arrays below hold them.
        self._counts: dict[float, int] | None = {}
        self._a_sizes = self._a_lo = self._a_hi = None
        self._d_sizes = self._d_lo = self._d_hi = None

    def _event_counts(self) -> dict[float, int]:
        """A fresh boundary → number-of-events dict."""
        if self._counts is not None:
            return dict(self._counts)
        per = self._a_hi - self._a_lo + self._d_hi - self._d_lo
        return dict(zip(self.times, per.tolist()))

    @property
    def times_all(self) -> np.ndarray:
        """``(2n,)`` sorted float64 event times, with multiplicity."""
        counts = self._event_counts()
        return np.repeat(
            np.asarray(self.times, dtype=np.float64), [counts[t] for t in self.times]
        )

    @classmethod
    def from_items(cls, items: ItemList) -> "EventArrays":
        """Build the full sweep substrate from scalar items (argsort once).

        Raises:
            ValidationError: for ``d > 1`` items, where the scalar active-size
                sweep is undefined (same error as the object sweep).
        """
        ev = cls()
        if not items:
            return ev
        if items.dims != 1:
            items[0].size  # raises the scalar-size ValidationError
        _, arr, dep, sizes_matrix = items.columns()
        # Adjacent-unique of the sorted times: np.unique would import numpy.ma.
        times_all = np.sort(np.concatenate((arr, dep)))
        distinct = np.empty(len(times_all), dtype=bool)
        distinct[0] = True
        np.not_equal(times_all[1:], times_all[:-1], out=distinct[1:])
        boundaries = times_all[distinct]
        ev.times = boundaries.tolist()
        ev._counts = None
        sizes = sizes_matrix[:, 0]
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

        Drops one occurrence of each removed item's events and adds the
        added items' events — a multiplicity update per event, and a
        bisect splice of ``times`` when a boundary appears or vanishes,
        instead of re-sorting the whole timeline.  The result carries the
        boundaries only (no size arrays): it is the timeline the
        incremental adversary walks with its own active set.

        Raises:
            ValidationError: when a removed event time is not present in the
                timeline (the base timeline does not match ``removed``).
        """
        times = list(self.times)
        counts = self._event_counts()
        for r in removed:
            for t in (r.arrival, r.departure):
                left = counts.get(t, 0)
                if left == 0:
                    raise ValidationError(
                        "retimed: a removed item's event time is not in the timeline"
                    )
                if left == 1:
                    del counts[t]
                    del times[bisect_left(times, t)]
                else:
                    counts[t] = left - 1
        for r in added:
            for t in (r.arrival, r.departure):
                t = float(t)
                left = counts.get(t, 0)
                if left == 0:
                    insort(times, t)
                counts[t] = left + 1
        ev = EventArrays()
        ev.times = times
        ev._counts = counts
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
