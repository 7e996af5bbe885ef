"""The first-fit core: classified First Fit over ``d``-dimensional items.

The paper's two online strategies (§5.2, §5.3) both classify items into
categories at arrival time and run First Fit *within each category* — bins are
never shared across categories.  Plain First Fit is the one-category case, and
vector packing (§6) asks every resource dimension to fit at once, with scalar
packing its ``d = 1`` case.  :class:`ClassifiedFirstFit` is that one
algorithm.  Every first-fit packer in the registry (``first-fit``,
``classify-duration``, ``classify-departure``, ``classify-combined``,
``hybrid-first-fit`` and the ``vector-*`` names) is a configuration of it that
supplies :meth:`~ClassifiedFirstFit.category_key`.

**One placement loop.**  :meth:`~ClassifiedFirstFit.place`,
:meth:`~ClassifiedFirstFit.place_many`, :meth:`~ClassifiedFirstFit.pack` and
:meth:`~ClassifiedFirstFit.pack_stream` all run
:meth:`~ClassifiedFirstFit._place_rows`.  Its state is plain Python lists:

* per-dimension current levels and per-bin close times.  For arrival-order
  placement a bin's committed level can only fall after the current arrival,
  so "fits now" is the whole fit check, and a bin is open at the frontier iff
  its close time lies beyond it;
* a lazy departure heap over per-placement records (bin, sizes, arrival,
  departure, item id), which subtracts each departed item once;
* per-category candidate lists in opening order.  A bin closed at the arrival
  frontier never reopens, so the lists are compacted whenever they double;
* each bin's category.

CPython floats are IEEE doubles, so the loop's additions and comparisons are
those of the :class:`~repro.core.Bin` fit check up to summation order.

**Lazy bins.**  :class:`~repro.core.Bin` objects are built from the records
only when something asks for them: :attr:`~ClassifiedFirstFit.bins`,
:meth:`~repro.algorithms.OnlinePacker.open_bins_at` and
:meth:`~ClassifiedFirstFit.category_bins`; retirement and
``PackingSession.advance`` report bin indices.  The replay is incremental and
repeats the object sequence exactly, an amended placement included (place the
predicted item, then ``Bin.amend_last`` the actual one).
:meth:`~ClassifiedFirstFit.assignment` reads the records directly, and
:meth:`~ClassifiedFirstFit.usage_time` a per-bin usage kept with ``Bin``'s own
arithmetic: a first-fit bin is only joined while open, so its usage is one
interval.
"""

from __future__ import annotations

import abc
import heapq
from typing import Iterable, Sequence

import numpy as np

from ..core.batch import ArrivalBatch
from ..core.bins import Bin
from ..core.exceptions import ValidationError
from ..core.items import Item, ItemList, _trusted_item, gc_paused
from ..core.packing import PackingResult
from ..core.stepfun import DEFAULT_TOL
from .base import BatchPlacement, OnlinePacker

__all__ = ["ClassifiedFirstFit"]

#: Compaction floor: candidate lists shorter than this are never compacted.
_COMPACT_MIN = 64
#: The fit limit of a unit-capacity :class:`~repro.core.Bin` at default tolerance.
_LIMIT = 1.0 + DEFAULT_TOL
_NEG_INF = float("-inf")
_NAN = float("nan")


class ClassifiedFirstFit(OnlinePacker):
    """Online First Fit applied separately within item categories.

    Bin indices stay globally unique (the packing's opening order across all
    categories), while each category only considers its own bins — exactly
    the model under which Theorems 4 and 5 are proved.

    Args:
        dims: Item dimensionality.  ``None`` infers it from the first item
            seen (re-inferred after each :meth:`reset`).  Scalar
            configurations keep the default 1.
    """

    def __init__(self, dims: int | None = 1) -> None:
        super().__init__()
        self._declare_dims(dims)

    def _declare_dims(self, dims: int | None) -> None:
        if dims is not None and (isinstance(dims, bool) or dims < 1):
            raise ValidationError(f"dims must be a positive integer, got {dims!r}")
        self._declared_dims = dims
        self._clear()

    def reset(self) -> None:
        """Clear all state (and re-arm dimension inference) before a pack."""
        super().reset()
        self._clear()

    def _clear(self) -> None:
        self.dims = self._declared_dims
        self._levels: list[list[float]] = [[] for _ in range(self.dims or 0)]
        self._dep_heap: list[tuple[float, int]] = []
        self._rec_bin: list[int] = []
        self._rec_id: list[int] = []
        self._rec_arr: list[float] = []
        # A superseded (amended) record's departure moves to ``_amended`` and
        # reads NaN here, so its heap entry is skipped as stale.
        self._rec_dep: list[float] = []
        self._rec_sizes: list[tuple[float, ...]] = []
        self._rec_tags: dict[int, dict] = {}
        self._amended: dict[int, float] = {}
        self._candidates: dict[object, list[int]] = {}
        self._compact_at: dict[object, int] = {}
        self._bin_category: list[object] = []
        # A first-fit bin is only ever joined while open, so its usage is one
        # interval [start, close); usage accrues with Bin's own arithmetic.
        self._bin_start: list[float] = []
        self._bin_usage: list[float] = []
        self._replayed = 0
        self._last_prev_close = _NEG_INF

    # -- classification ----------------------------------------------------------

    @abc.abstractmethod
    def category_key(
        self, arrival: float, departure: float, sizes: tuple[float, ...]
    ) -> object:
        """The (hashable) category of an item, decided at its arrival.

        May use the departure time — precisely the clairvoyant information
        this paper exploits — and the sizes (``hybrid-first-fit``).
        """

    def category_of(self, item: Item) -> object:
        """The category key of ``item`` (see :meth:`category_key`)."""
        return self.category_key(item.arrival, item.departure, item.sizes)

    # -- placement -----------------------------------------------------------------

    def _bind_dims(self, d: int, item_id: int) -> int:
        dims = self.dims
        if dims is None:
            self.dims = dims = d
            self._levels = [[0.0] * len(self._close_times) for _ in range(d)]
        elif d != dims:
            raise ValidationError(
                f"item {item_id} has {d} dimension(s); "
                f"packer {self.name!r} expects {dims}"
            )
        return dims

    def _place_rows(
        self,
        arrivals: list[float],
        departures: list[float],
        rows: list[tuple[float, ...]],
        ids: list[int],
    ) -> tuple[list[int], list[int], int]:
        """First Fit within each row's category, rows in arrival order.

        The one placement loop of every first-fit packer.  Returns each row's
        bin, the open-bin count right after each placement and the number of
        bins retired while advancing through the arrivals.  Callers run it
        under :func:`~repro.core.items.gc_paused`: the loop allocates while
        the live records number in the millions.
        """
        n = len(arrivals)
        category = self.category_key
        keys = [category(arrivals[i], departures[i], rows[i]) for i in range(n)]
        rec_bin = self._rec_bin
        rec_dep = self._rec_dep
        rec_sizes = self._rec_sizes
        serial = len(rec_bin)
        rec_dep.extend(departures)
        rec_sizes.extend(rows)
        self._rec_arr.extend(arrivals)
        self._rec_id.extend(ids)
        levels = self._levels
        lv0 = levels[0]
        dims = len(levels)
        one_dim = dims == 1
        closes = self._close_times
        dep_heap = self._dep_heap
        retire_heap = self._retire_heap
        open_set = self._open
        candidates = self._candidates
        compact_at = self._compact_at
        bin_category = self._bin_category
        bin_start = self._bin_start
        bin_usage = self._bin_usage
        heappop, heappush = heapq.heappop, heapq.heappush
        indices = [0] * n
        opens = [0] * n
        retired = 0
        prev_close = _NEG_INF
        for i in range(n):
            t = arrivals[i]
            while retire_heap and retire_heap[0][0] <= t:
                close, b = heappop(retire_heap)
                if close != closes[b]:
                    continue  # stale: the bin's close time has since moved
                if b in open_set:
                    open_set.discard(b)
                    retired += 1
            while dep_heap and dep_heap[0][0] <= t:
                dep, s = heappop(dep_heap)
                if dep != rec_dep[s]:
                    continue  # stale: the placement was amended
                b = rec_bin[s]
                sizes = rec_sizes[s]
                if one_dim:
                    lv0[b] -= sizes[0]
                else:
                    for d in range(dims):
                        levels[d][b] -= sizes[d]
            key = keys[i]
            cands = candidates.get(key)
            if cands is None:
                cands = candidates[key] = []
                compact_at[key] = _COMPACT_MIN
            row = rows[i]
            choice = -1
            if one_dim:
                s0 = row[0]
                for b in cands:
                    if closes[b] > t and lv0[b] + s0 <= _LIMIT:
                        choice = b
                        break
            else:
                for b in cands:
                    if closes[b] > t:
                        for d in range(dims):
                            if levels[d][b] + row[d] > _LIMIT:
                                break
                        else:
                            choice = b
                            break
            if choice < 0:
                choice = len(closes)
                for lv in levels:
                    lv.append(0.0)
                closes.append(t)  # an empty busy interval [t, t)
                cands.append(choice)
                bin_category.append(key)
                bin_start.append(t)
                bin_usage.append(0.0)
            if one_dim:
                lv0[choice] += row[0]
            else:
                for d in range(dims):
                    levels[d][choice] += row[d]
            dep = departures[i]
            prev_close = closes[choice]
            if dep > prev_close:
                closes[choice] = dep
                heappush(retire_heap, (dep, choice))
                start = bin_start[choice]
                bin_usage[choice] += (dep - start) - (prev_close - start)
            rec_bin.append(choice)
            heappush(dep_heap, (dep, serial + i))
            open_set.add(choice)
            indices[i] = choice
            opens[i] = len(open_set)
            if len(cands) >= compact_at[key]:
                cands[:] = [b for b in cands if closes[b] > t]
                compact_at[key] = max(_COMPACT_MIN, 2 * len(cands))
        self._last_prev_close = prev_close
        if arrivals[-1] > self._frontier:
            self._frontier = arrivals[-1]
        return indices, opens, retired

    def _place_items(self, items: Sequence[Item]) -> list[int]:
        """Run the placement loop over already-ordered items."""
        if not items:
            return []
        dims = self._bind_dims(len(items[0].sizes), items[0].id)
        for r in items:
            if len(r.sizes) != dims:
                self._bind_dims(len(r.sizes), r.id)
        serial = len(self._rec_bin)
        with gc_paused():
            indices = self._place_rows(
                [r.arrival for r in items],
                [r.departure for r in items],
                [r.sizes for r in items],
                [r.id for r in items],
            )[0]
        for i, r in enumerate(items):
            if r.tags:
                self._rec_tags[serial + i] = r.tags
        return indices

    def place(self, item: Item) -> int:
        """First Fit within the item's category, over all dimensions."""
        self._bind_dims(len(item.sizes), item.id)
        if item.tags:
            self._rec_tags[len(self._rec_bin)] = item.tags
        return self._place_rows(
            [item.arrival], [item.departure], [item.sizes], [item.id]
        )[0][0]

    def place_many(self, batch: ArrivalBatch) -> BatchPlacement:
        """Place a whole batch through the placement loop, building no objects."""
        if len(batch) == 0:
            empty = np.empty(0, dtype=np.int64)
            return BatchPlacement(indices=empty, open_bins=empty, bins_retired=0)
        self._bind_dims(batch.dims, int(batch.ids[0]))
        # Size rows are tuples: the collector untracks all-float tuples on its
        # first visit, while lists would stay tracked for the session's life.
        with gc_paused():
            indices, opens, retired = self._place_rows(
                batch.arrivals.tolist(),
                batch.departures.tolist(),
                list(map(tuple, batch.sizes.tolist())),
                batch.ids.tolist(),
            )
        return BatchPlacement(
            indices=np.asarray(indices, dtype=np.int64),
            open_bins=np.asarray(opens, dtype=np.int64),
            bins_retired=retired,
        )

    def pack(self, items: "ItemList | Iterable[Item]") -> PackingResult:
        """Pack all items (an :class:`~repro.core.ItemList` or any iterable)."""
        if not isinstance(items, ItemList):
            items = ItemList(items)
        self.reset()
        self._place_items(list(items))  # ItemList iterates in arrival order
        return PackingResult(items, self.assignment(), algorithm=self.describe())

    def pack_stream(self, items: Iterable[Item]) -> dict[int, int]:
        """Place an already-ordered stream; returns its item → bin assignment."""
        items = list(items)
        return dict(zip((r.id for r in items), self._place_items(items)))

    def _note_commit(self, index: int, item: Item) -> None:
        """No-op: the placement loop keeps the open-bin index itself."""

    def amend_last(self, bin_index: int, actual: Item) -> None:
        """Replace the last placement (into ``bin_index``) with ``actual``.

        The superseded record stays, marked, so the lazy :class:`~repro.core.Bin`
        replay can repeat the place-then-amend sequence exactly.

        Raises:
            ValidationError: if the last placement was not ``actual``'s id
                into ``bin_index`` (the placement contract was broken).
        """
        s = len(self._rec_bin) - 1
        if s < 0 or self._rec_bin[s] != bin_index or self._rec_id[s] != actual.id:
            raise ValidationError(
                f"bin {bin_index} did not receive item {actual.id} last; "
                f"cannot amend (packer broke the placement contract)"
            )
        self._bind_dims(len(actual.sizes), actual.id)
        old = self._rec_sizes[s]
        for d, lv in enumerate(self._levels):
            lv[bin_index] += actual.sizes[d] - old[d]
        self._amended[s] = self._rec_dep[s]
        self._rec_dep[s] = _NAN
        dep = actual.departure
        self._rec_bin.append(bin_index)
        self._rec_id.append(actual.id)
        self._rec_arr.append(actual.arrival)
        self._rec_dep.append(dep)
        self._rec_sizes.append(actual.sizes)
        if actual.tags:
            self._rec_tags[s + 1] = actual.tags
        heapq.heappush(self._dep_heap, (dep, s + 1))
        close = max(self._last_prev_close, dep)
        self._bin_usage[bin_index] = close - self._bin_start[bin_index]
        if close != self._close_times[bin_index]:
            self._close_times[bin_index] = close
            heapq.heappush(self._retire_heap, (close, bin_index))

    # -- derived views -------------------------------------------------------------

    def assignment(self) -> dict[int, int]:
        """Item id → bin index, read from the placement records."""
        return dict(zip(self._rec_id, self._rec_bin))

    def usage_time(self) -> float:
        """Total bin usage so far, equal to summing ``Bin.usage_time()``."""
        return sum(self._bin_usage)

    @property
    def bins(self) -> list[Bin]:
        """All bins ever opened, in opening order (replayed from the records)."""
        bins = self._bins
        dims = self.dims or 1
        while len(bins) < len(self._close_times):
            bins.append(Bin(len(bins), dims=dims))
        rec_dep = self._rec_dep
        with gc_paused():
            for s in range(self._replayed, len(self._rec_bin)):
                dep = rec_dep[s]
                item = _trusted_item(
                    self._rec_id[s],
                    self._rec_sizes[s],
                    self._rec_arr[s],
                    dep if dep == dep else self._amended[s],
                    self._rec_tags.get(s),
                )
                b = bins[self._rec_bin[s]]
                if s and rec_dep[s - 1] != rec_dep[s - 1]:
                    b.amend_last(item)  # this record supersedes the previous one
                else:
                    b.place(item, check=False)
        self._replayed = len(self._rec_bin)
        return bins

    def categories_used(self) -> list[object]:
        """Category keys that received at least one item (after a pack)."""
        return sorted(set(self._bin_category), key=repr)

    def category_bins(self) -> dict[object, list[Bin]]:
        """Bins per category, in opening order (after a pack).

        Exposed for the proof-instrumentation analyses (e.g. the Theorem 4
        stage decomposition needs each category's own bin sequence).
        """
        out: dict[object, list[Bin]] = {}
        for b, key in zip(self.bins, self._bin_category):
            out.setdefault(key, []).append(b)
        return out
