"""Items (jobs) and item lists for MinUsageTime Dynamic Bin Packing.

An :class:`Item` is the paper's ``r``: a size vector ``s(r) ∈ (0, 1]^d`` and
a half-open active interval ``I(r)``.  The scalar problem of the paper's main
body is the ``d = 1`` degenerate case — :attr:`Item.size` exposes the single
coordinate and every scalar API keeps working unchanged — while §6's
multi-resource extension uses ``d > 1`` vectors (CPU/memory/network demands).

An :class:`ItemList` is the paper's ``R`` with the derived quantities the
analysis uses everywhere:

* ``d(R)`` — total time-space demand ``Σ s(r)·l(I(r))`` (Proposition 1);
  for vector instances the maximum over dimensions, since every dimension is
  independently a lower bound,
* ``span(R)`` — measure of times with at least one active item (Prop. 2),
* ``mu`` — max/min item-duration ratio ``μ``,
* the per-dimension total-active-size profile ``S(t)`` (Proposition 3).
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from numbers import Real
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .exceptions import ValidationError
from .intervals import Interval, merge_intervals, span as _span
from .stepfun import StepFunction

__all__ = ["Item", "ItemList", "gc_paused"]

#: The four arrays of :meth:`ItemList.columns`: ids, arrivals, departures and
#: the ``(n, d)`` size matrix.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a bulk build.

    Building many young objects while millions of long-lived ones are live
    (placement records, items) triggers generational collections that rescan
    them all, yet nothing built in the block can be garbage.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True, slots=True)
class Item:
    """A job to pack: identifier, resource demand vector and active interval.

    Attributes:
        id: Unique identifier within an :class:`ItemList`.
        sizes: Resource demand per dimension; every coordinate must lie in
            ``(0, capacity]`` where the bin capacity is 1 throughout the
            library (paper §3.2 WLOG).  A bare ``float`` is accepted and
            normalised to a 1-tuple, so the scalar constructor calls used
            throughout the paper's main body — ``Item(0, 0.5, iv)`` — keep
            working verbatim.
        interval: Half-open active interval ``[arrival, departure)``.
        tags: Optional free-form metadata (e.g. the job template that
            generated the item); ignored by all algorithms.
    """

    id: int
    sizes: tuple[float, ...]
    interval: Interval
    tags: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        raw = self.sizes
        if isinstance(raw, Real):
            sizes = (float(raw),)
        else:
            try:
                sizes = tuple(float(s) for s in raw)
            except TypeError:
                raise ValidationError(
                    f"item {self.id}: sizes must be a number or a sequence of "
                    f"numbers, got {raw!r}"
                ) from None
        if not sizes:
            raise ValidationError(f"item {self.id}: sizes must have at least one dimension")
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) == 1:
            if not (0.0 < sizes[0] <= 1.0):
                raise ValidationError(
                    f"item {self.id}: size must be in (0, 1], got {sizes[0]}"
                )
        else:
            for d, s in enumerate(sizes):
                if not (0.0 < s <= 1.0):
                    raise ValidationError(
                        f"item {self.id}: sizes[{d}] must be in (0, 1], got {s}"
                    )

    # Convenience accessors mirroring the paper's notation -------------------

    @property
    def size(self) -> float:
        """``s(r)`` — the scalar size of a one-dimensional item.

        Raises:
            ValidationError: on a ``d > 1`` item, where a single scalar size
                is undefined; use :attr:`sizes` instead.
        """
        sizes = self.sizes
        if len(sizes) != 1:
            raise ValidationError(
                f"item {self.id} is {len(sizes)}-dimensional; "
                f"scalar .size is undefined, use .sizes"
            )
        return sizes[0]

    @property
    def dims(self) -> int:
        """Number of resource dimensions ``d``."""
        return len(self.sizes)

    @property
    def arrival(self) -> float:
        """``I(r)^-``."""
        return self.interval.left

    @property
    def departure(self) -> float:
        """``I(r)^+``."""
        return self.interval.right

    @property
    def duration(self) -> float:
        """``l(I(r))``."""
        return self.interval.length

    @property
    def demand(self) -> float:
        """Time-space demand ``s(r) · l(I(r))`` (scalar items only)."""
        return self.size * self.duration

    @property
    def demands(self) -> tuple[float, ...]:
        """Per-dimension time-space demand ``s_d(r) · l(I(r))``."""
        dur = self.duration
        return tuple(s * dur for s in self.sizes)

    def active_at(self, t: float) -> bool:
        """True iff the item is active at time ``t`` (half-open semantics)."""
        return t in self.interval

    def shift(self, delta: float) -> "Item":
        """A copy of this item translated in time by ``delta``."""
        return Item(self.id, self.sizes, self.interval.shift(delta), dict(self.tags))

    def with_departure(self, departure: float) -> "Item":
        """A copy with a different departure time (same id/sizes/arrival)."""
        return Item(self.id, self.sizes, Interval(self.arrival, departure), dict(self.tags))


def _trusted_item(
    item_id: int,
    sizes: tuple[float, ...],
    arrival: float,
    departure: float,
    tags: dict | None = None,
) -> Item:
    """Build an :class:`Item` from already-validated fields, skipping checks.

    Every field must satisfy the :class:`Item` invariants (sizes in
    ``(0, 1]``, ``arrival < departure``, both finite) — callers are the
    validated columnar paths (:class:`~repro.core.ArrivalBatch`, the
    column-backed :class:`ItemList`), which check those invariants
    vectorised before constructing any object, and the first-fit core's bin
    replay.
    """
    iv = object.__new__(Interval)
    object.__setattr__(iv, "left", arrival)
    object.__setattr__(iv, "right", departure)
    item = object.__new__(Item)
    object.__setattr__(item, "id", item_id)
    object.__setattr__(item, "sizes", sizes)
    object.__setattr__(item, "interval", iv)
    object.__setattr__(item, "tags", {} if tags is None else tags)
    return item


def _item_columns(items: Sequence[Item], dims: int) -> Columns:
    """The :meth:`ItemList.columns` arrays of a sequence of ``dims``-d items.

    Raises:
        ValueError: if an item does not have ``dims`` sizes.
    """
    n = len(items)
    id_list = [r.id for r in items]
    try:
        ids = np.fromiter(id_list, dtype=np.int64, count=n)
    except OverflowError:
        # An Item id may be any int; beyond int64 the ids stay Python ints.
        ids = np.array(id_list, dtype=object)
    intervals = [r.interval for r in items]
    arrivals = np.fromiter([iv.left for iv in intervals], dtype=np.float64, count=n)
    departures = np.fromiter([iv.right for iv in intervals], dtype=np.float64, count=n)
    rows = [r.sizes for r in items]
    if n and set(map(len, rows)) != {dims}:
        raise ValueError(f"items of mixed dimensionality; expected {dims} sizes each")
    sizes = np.fromiter(chain.from_iterable(rows), dtype=np.float64, count=n * dims)
    return ids, arrivals, departures, sizes.reshape(n, dims)


def _moved_row(columns: Columns, src: int, dst: int, item: Item) -> Columns:
    """``columns`` with row ``src`` removed and ``item``'s row put at ``dst``.

    ``dst`` indexes the list after the removal, as in :meth:`ItemList.replace`:
    a copy of each array shifts the rows between the two positions by one
    and writes the new row.  (``np.delete`` + ``np.insert`` cost more than
    deriving the columns afresh.)
    """
    out = []
    row = (item.id, item.interval.left, item.interval.right, item.sizes)
    for column, value in zip(columns, row):
        moved = column.copy()
        if dst < src:
            moved[dst + 1 : src + 1] = column[dst:src]
        elif dst > src:
            moved[src:dst] = column[src + 1 : dst + 1]
        moved[dst] = value
        moved.flags.writeable = False
        out.append(moved)
    return tuple(out)  # type: ignore[return-value]


def _arrival_key(item: Item) -> tuple[float, int]:
    """The :class:`ItemList` order: arrival, ties broken by id."""
    return (item.interval.left, item.id)


class ItemList:
    """An immutable, validated list of items with cached aggregate statistics.

    Items are stored in arrival order (ties broken by id) — the order in which
    an online algorithm sees them.  The constructor checks id uniqueness and
    that every item has the same dimensionality.

    A list has two interchangeable forms.  One built from items keeps them
    and derives :meth:`columns` on first use.  One built from columns (the
    columnar trace loader, :meth:`~repro.engine.PackingSession.result`)
    holds only the arrays and builds its :class:`Item` objects once, on the
    first per-item access; ``len``, :attr:`dims` and :meth:`columns` never
    build them.
    """

    __slots__ = ("_items", "_by_id", "_dims", "_columns", "_prebuilt", "_size_profile_cache")

    def __init__(self, items: Iterable[Item]):
        ordered = sorted(items, key=_arrival_key)
        by_id: dict[int, Item] = {}
        dims: int | None = None
        for item in ordered:
            if item.id in by_id:
                raise ValidationError(f"duplicate item id {item.id}")
            by_id[item.id] = item
            d = len(item.sizes)
            if dims is None:
                dims = d
            elif d != dims:
                raise ValidationError(
                    f"item {item.id} has {d} dimension(s); "
                    f"list is {dims}-dimensional (all items must agree)"
                )
        self._items: tuple[Item, ...] | None = tuple(ordered)
        self._by_id: dict[int, Item] | None = by_id
        self._dims = 1 if dims is None else dims
        self._columns: Columns | None = None
        self._prebuilt: dict[int, Item] | None = None
        self._size_profile_cache: dict[int, StepFunction] = {}

    @classmethod
    def _from_columns(
        cls,
        ids: np.ndarray,
        arrivals: np.ndarray,
        departures: np.ndarray,
        sizes: np.ndarray,
        prebuilt: Iterable[Item] = (),
    ) -> "ItemList":
        """A column-backed list over already-validated arrays (no checks).

        The rows must satisfy every :class:`Item` invariant, the ids must be
        unique and the rows ordered by (arrival, id); the list takes
        ownership of the arrays and makes them read-only.  ``prebuilt``
        items are used as they are for their ids' rows when the items are
        built (they keep their tags); every other row gets a fresh item with
        empty tags.
        """
        out = object.__new__(cls)
        out._items = None
        out._by_id = None
        out._dims = sizes.shape[1]
        columns = (ids, arrivals, departures, sizes)
        for column in columns:
            column.flags.writeable = False
        out._columns = columns
        out._prebuilt = {r.id: r for r in prebuilt}
        out._size_profile_cache = {}
        return out

    def _build_items(self) -> tuple[Item, ...]:
        """Build the items of a column-backed list, once."""
        ids_l = self._columns[0].tolist()  # type: ignore[index]
        prebuilt = self._prebuilt
        self._prebuilt = None
        if prebuilt and len(prebuilt) == len(ids_l):
            built = [prebuilt[item_id] for item_id in ids_l]
        else:
            built = self._build_rows(ids_l)
            if prebuilt:
                built = [prebuilt.get(i, r) for i, r in zip(ids_l, built)]
        items = tuple(built)
        self._by_id = dict(zip(ids_l, items))
        self._items = items
        return items

    def _build_rows(self, ids_l: list[int]) -> list[Item]:
        """One fresh, tag-less item per row of the columns."""
        _, arrivals, departures, sizes = self._columns  # type: ignore[misc]
        if self._dims == 1:
            size_rows = [(s,) for s in sizes[:, 0].tolist()]
        else:
            size_rows = list(map(tuple, sizes.tolist()))
        built: list[Item] = []
        append = built.append
        new = object.__new__
        fill = object.__setattr__
        # The fields of _trusted_item, inlined: this loop builds every item
        # of a trace.
        with gc_paused():
            for item_id, row, arrival, departure in zip(
                ids_l, size_rows, arrivals.tolist(), departures.tolist()
            ):
                interval = new(Interval)
                fill(interval, "left", arrival)
                fill(interval, "right", departure)
                item = new(Item)
                fill(item, "id", item_id)
                fill(item, "sizes", row)
                fill(item, "interval", interval)
                fill(item, "tags", {})
                append(item)
        return built

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        items = self._items
        return len(self._columns[0]) if items is None else len(items)  # type: ignore[index]

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Item:
        return self.items[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemList):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def _index(self) -> dict[int, Item]:
        """Id → item (builds the items of a column-backed list)."""
        if self._by_id is None:
            self._build_items()
        return self._by_id  # type: ignore[return-value]

    def by_id(self, item_id: int) -> Item:
        """Look up an item by id.

        Raises:
            KeyError: if no item has the given id.
        """
        return self._index()[item_id]

    @property
    def items(self) -> tuple[Item, ...]:
        """All items in arrival order."""
        items = self._items
        return self._build_items() if items is None else items

    @property
    def dims(self) -> int:
        """Common dimensionality of the items (1 for an empty list)."""
        return self._dims

    def columns(self) -> Columns:
        """The list as four read-only arrays, one row per item in list order.

        ``(ids, arrivals, departures, sizes)``: ``(n,)`` int64 ids (object
        dtype if an id does not fit in int64), ``(n,)`` float64 arrival and
        departure times and the ``(n, d)`` float64 size matrix.  A column-backed list returns the arrays it was built from;
        a list built from items derives them once and caches them.  Never
        builds :class:`Item` objects.
        """
        columns = self._columns
        if columns is None:
            columns = _item_columns(self._items, self._dims)  # type: ignore[arg-type]
            for column in columns:
                column.flags.writeable = False
            self._columns = columns
        return columns

    # -- aggregate statistics (paper §3.1) -------------------------------------

    def total_demand(self) -> float:
        """``d(R) = Σ_r s(r)·l(I(r))`` — Proposition 1's lower bound.

        For vector instances, the maximum per-dimension demand: each
        dimension is independently a valid lower bound on usage time, so the
        largest one is the tightest.
        """
        if self._dims == 1:
            return float(sum(r.demand for r in self.items))
        return max(self.demand_by_dim())

    def demand_by_dim(self) -> tuple[float, ...]:
        """Per-dimension total time-space demand ``Σ_r s_d(r)·l(I(r))``."""
        totals = [0.0] * self._dims
        for r in self.items:
            dur = r.duration
            for d, s in enumerate(r.sizes):
                totals[d] += s * dur
        return tuple(float(x) for x in totals)

    def span(self) -> float:
        """``span(R)`` — Proposition 2's lower bound."""
        return _span(r.interval for r in self.items)

    def span_intervals(self) -> list[Interval]:
        """The maximal disjoint intervals making up the span."""
        return merge_intervals(r.interval for r in self.items)

    def min_duration(self) -> float:
        """Minimum item duration ``Δ``.

        Raises:
            ValidationError: on an empty list.
        """
        if not self:
            raise ValidationError("min_duration() of empty item list")
        return min(r.duration for r in self.items)

    def max_duration(self) -> float:
        """Maximum item duration ``μΔ``."""
        if not self:
            raise ValidationError("max_duration() of empty item list")
        return max(r.duration for r in self.items)

    def mu(self) -> float:
        """Max/min duration ratio ``μ ≥ 1``."""
        return self.max_duration() / self.min_duration()

    def size_profile(self, dim: int = 0) -> StepFunction:
        """The total-active-size profile ``S(t)`` in dimension ``dim``.

        Cached per dimension; do not mutate the returned function.

        Raises:
            ValidationError: if ``dim`` is outside ``[0, dims)``.
        """
        if not (0 <= dim < self._dims):
            raise ValidationError(
                f"size_profile dimension {dim} out of range for "
                f"{self._dims}-dimensional items"
            )
        cached = self._size_profile_cache.get(dim)
        if cached is None:
            cached = StepFunction()
            for r in self.items:
                cached.add(r.interval, r.sizes[dim])
            self._size_profile_cache[dim] = cached
        return cached

    def max_concurrent_size(self, dim: int = 0) -> float:
        """``max_t S(t)`` — peak aggregate demand in dimension ``dim``."""
        return self.size_profile(dim).max_value()

    def sizes_matrix(self) -> np.ndarray:
        """All demand vectors as a contiguous ``(len, dims)`` float array."""
        return np.array(self.columns()[3])

    def active_at(self, t: float) -> list[Item]:
        """All items active at time ``t``."""
        return [r for r in self.items if r.active_at(t)]

    def event_times(self) -> list[float]:
        """Sorted distinct arrival/departure times."""
        times = {r.arrival for r in self.items} | {r.departure for r in self.items}
        return sorted(times)

    # -- restructuring ----------------------------------------------------------

    def filter(self, predicate: Callable[[Item], bool]) -> "ItemList":
        """A new list with the items satisfying ``predicate``."""
        return ItemList(r for r in self.items if predicate(r))

    def partition(self, key: Callable[[Item], int]) -> dict[int, "ItemList"]:
        """Group items by an integer key (used by the classification packers)."""
        buckets: dict[int, list[Item]] = {}
        for r in self.items:
            buckets.setdefault(key(r), []).append(r)
        return {k: ItemList(v) for k, v in sorted(buckets.items())}

    def split_by_span_components(self) -> list["ItemList"]:
        """Split into sublists with pairwise-disjoint spans (paper §5.2 WLOG).

        Items whose active intervals fall in the same maximal span component
        end up in the same sublist; the analysis of the classification
        strategies applies to each sublist independently.
        """
        components = self.span_intervals()
        out: list[list[Item]] = [[] for _ in components]
        lefts = [c.left for c in components]
        for r in self.items:
            # Each item interval is fully inside exactly one component.
            idx = int(np.searchsorted(lefts, r.arrival, side="right")) - 1
            out[idx].append(r)
        return [ItemList(group) for group in out if group]

    def shift(self, delta: float) -> "ItemList":
        """All items translated by ``delta``."""
        return ItemList(r.shift(delta) for r in self.items)

    def replace(self, item: Item) -> "ItemList":
        """A new list with the same-id item swapped for ``item``.

        The single-item mutation primitive of the worst-case search and the
        incremental adversary oracle: the old item is removed and the new
        one bisect-inserted at its (arrival, id) position, every other item
        object is shared, and only the new item's dimensions are checked.
        Cached :meth:`columns` are passed on with the one row moved.

        Raises:
            KeyError: if no item with ``item.id`` exists.
            ValidationError: if ``item``'s dimensionality differs from the
                other items'.
        """
        old = self._index()[item.id]
        dims = len(item.sizes)
        if dims != self._dims and len(self) > 1:
            raise ValidationError(
                f"item {item.id} has {dims} dimension(s); "
                f"list is {self._dims}-dimensional (all items must agree)"
            )
        items = list(self.items)
        src = bisect_left(items, _arrival_key(old), key=_arrival_key)
        del items[src]
        dst = bisect_left(items, _arrival_key(item), key=_arrival_key)
        items.insert(dst, item)
        by_id = dict(self._index())
        by_id[item.id] = item
        out = object.__new__(ItemList)
        out._items = tuple(items)
        out._by_id = by_id
        out._dims = dims
        columns = self._columns
        out._columns = (
            None
            if columns is None or dims != self._dims
            else _moved_row(columns, src, dst, item)
        )
        out._prebuilt = None
        out._size_profile_cache = {}
        return out

    def changed_ids(self, other: "ItemList") -> list[int] | None:
        """Ids whose item differs between ``self`` and ``other``.

        Returns ``None`` when the two lists do not cover the same id set
        (an item was added or removed, not mutated) — the caller cannot treat
        the difference as a set of in-place mutations.  Tags are ignored,
        matching :class:`Item` equality.  Items shared by both lists (as
        after :meth:`replace`) are matched by identity, without a field
        comparison.
        """
        if len(self) != len(other):
            return None
        mine, theirs = self._index(), other._index()
        if mine.keys() != theirs.keys():
            return None
        changed = []
        for item_id, item in mine.items():
            other_item = theirs[item_id]
            if item is not other_item and item != other_item:
                changed.append(item_id)
        return changed

    def renumbered(self, start: int = 0) -> "ItemList":
        """Items re-identified ``start, start+1, ...`` in arrival order."""
        return ItemList(
            Item(start + i, r.sizes, r.interval, dict(r.tags))
            for i, r in enumerate(self.items)
        )

    @classmethod
    def concat(cls, lists: Sequence["ItemList"]) -> "ItemList":
        """Concatenate item lists (ids must remain globally unique)."""
        items: list[Item] = []
        for sub in lists:
            items.extend(sub.items)
        return cls(items)

    # -- serialisation -----------------------------------------------------------

    def to_records(self) -> list[dict[str, object]]:
        """Plain-dict records (JSON-ready) for each item.

        Scalar items keep the legacy ``size`` field; vector items emit a
        ``sizes`` list instead (the trace loaders accept both).
        """
        if self._dims == 1:
            return [
                {
                    "id": r.id,
                    "size": r.sizes[0],
                    "arrival": r.arrival,
                    "departure": r.departure,
                    "tags": dict(r.tags),
                }
                for r in self.items
            ]
        return [
            {
                "id": r.id,
                "sizes": list(r.sizes),
                "arrival": r.arrival,
                "departure": r.departure,
                "tags": dict(r.tags),
            }
            for r in self.items
        ]

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, object]]) -> "ItemList":
        """Inverse of :meth:`to_records` (accepts ``size`` or ``sizes``)."""
        items = []
        for rec in records:
            if "sizes" in rec:
                sizes: float | tuple[float, ...] = tuple(
                    float(s) for s in rec["sizes"]  # type: ignore[union-attr]
                )
            else:
                sizes = float(rec["size"])  # type: ignore[arg-type]
            items.append(
                Item(
                    int(rec["id"]),  # type: ignore[arg-type]
                    sizes,
                    Interval(float(rec["arrival"]), float(rec["departure"])),  # type: ignore[arg-type]
                    dict(rec.get("tags", {})),  # type: ignore[arg-type]
                )
            )
        return cls(items)

    def to_json(self) -> str:
        """JSON text for the whole list."""
        return json.dumps(self.to_records())

    @classmethod
    def from_json(cls, text: str) -> "ItemList":
        """Inverse of :meth:`to_json`."""
        return cls.from_records(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ItemList(n={len(self)})"
