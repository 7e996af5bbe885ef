"""The streaming packing engine: a persistent session around an online packer.

:class:`PackingSession` is the incremental counterpart of the batch
``packer.pack(items)`` call.  A long-running scheduler submits jobs one at a
time as they arrive (``session.submit(item)``), advances the wall clock
between arrivals (``session.advance(t)``), inspects live state
(``session.snapshot()``, ``session.stats``) and can materialise the packing
so far at any point (``session.result()``).

The session reuses the packer's indexed bin pool (the lazy close-time heap of
:class:`~repro.algorithms.OnlinePacker`) and keeps its own min-heap of
pending departure times, so each event costs O(log n) instead of a rescan of
every bin ever opened.  Streaming placements are **identical** to batch
packing: for every registered online packer the session produces the same
assignment and usage as ``packer.pack`` on the same workload (enforced by the
parity tests in ``tests/test_engine.py``).

Noisy clairvoyance (paper §6) is first-class: ``submit(item,
predicted_departure=...)`` shows the packer an item with the predicted
departure, then amends the committed placement back to the actual interval,
so bins always track the occupancy a real system would observe.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..algorithms.base import OnlinePacker, get_packer
from ..core.batch import ArrivalBatch
from ..core.bins import Bin
from ..core.exceptions import ValidationError
from ..core.intervals import Interval
from ..core.items import Item, ItemList
from ..core.packing import PackingResult
from ..obs import TelemetryRegistry, enabled as _telemetry_enabled
from .stats import EngineStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPolicy

__all__ = ["PackingSession", "EngineSnapshot", "clamp_prediction"]

_NEG_INF = float("-inf")
_perf = time.perf_counter

#: Per-event timing is exact for the first ``_TIMING_EXACT`` events of each
#: kind, then samples one event in ``_TIMING_STRIDE`` and scales the reading,
#: so ``submit_seconds``/``advance_seconds`` stay statistically faithful while
#: the clock reads drop out of the steady-state hot path almost entirely.
_TIMING_EXACT = 64
_TIMING_STRIDE = 8


def clamp_prediction(item: Item, predicted: float) -> float:
    """Sanitise a predicted departure for ``item``.

    Predictions are clamped to be strictly after the arrival — a job is never
    predicted to have already finished the moment it arrives.

    Raises:
        ValidationError: if ``predicted`` is NaN.
    """
    predicted = float(predicted)
    if not predicted == predicted:  # NaN guard
        raise ValidationError(f"estimator returned NaN for item {item.id}")
    return max(predicted, item.arrival + 1e-12 * max(1.0, abs(item.arrival)))


@dataclass(frozen=True, slots=True)
class EngineSnapshot:
    """Point-in-time view of a running :class:`PackingSession`.

    Attributes:
        time: The session clock (max of submitted arrivals and advances).
        items_submitted: Items accepted so far.
        active_items: Items submitted whose departure has not been processed.
        open_bins: Bins currently holding at least one active item.
        bins_opened: Bins ever opened.
        usage_time: Total bin usage accrued by the packing so far.
    """

    time: float
    items_submitted: int
    active_items: int
    open_bins: int
    bins_opened: int
    usage_time: float


class PackingSession:
    """A persistent, incremental packing run over one online packer.

    Args:
        packer: An :class:`~repro.algorithms.OnlinePacker` instance, or a
            registered packer name (resolved through
            :func:`~repro.algorithms.get_packer`, so keyword arguments are
            validated against the packer's declared parameters).
        algorithm: Override for the result's algorithm label.
        registry: Optional shared :class:`~repro.obs.TelemetryRegistry` the
            session's :class:`EngineStats` cells are interned in; ``None``
            gives the stats a private registry.
        fault_policy: Optional :class:`~repro.resilience.FaultPolicy`
            hardening :meth:`submit` against out-of-order arrivals and
            duplicate ids.  Without one (or in ``strict`` mode) such events
            raise, exactly as before; ``skip`` drops the offending item
            (``submit`` returns ``-1``); ``clamp`` repairs an out-of-order
            arrival to the current session clock (duplicates are always
            dropped — there is no certified repair).  Absorbed faults count
            against the policy's error budget and its ``resilience.*``
            telemetry.
        **kwargs: Constructor parameters when ``packer`` is a name.

    Raises:
        TypeError: if ``packer`` is an offline packer (or not a packer), or
            if kwargs are passed alongside a packer instance.
        KeyError / ValueError: propagated from :func:`get_packer` for unknown
            names or invalid parameters.
    """

    def __init__(
        self,
        packer: OnlinePacker | str,
        *,
        algorithm: str | None = None,
        registry: TelemetryRegistry | None = None,
        fault_policy: "FaultPolicy | None" = None,
        **kwargs: object,
    ) -> None:
        if isinstance(packer, str):
            resolved = get_packer(packer, **kwargs)
        else:
            if kwargs:
                raise TypeError(
                    "packer parameters are only accepted with a packer name, "
                    f"not a ready instance: {sorted(kwargs)}"
                )
            resolved = packer
        if not isinstance(resolved, OnlinePacker):
            raise TypeError(
                f"PackingSession needs an OnlinePacker, got {type(resolved).__name__}; "
                "offline packers cannot stream"
            )
        self._packer = resolved
        self._packer.reset()
        self._algorithm = algorithm
        # Pending departure times (a min-heap of plain floats).
        self._dep_times: list[float] = []
        # Scalar submissions as items (they keep their tags), batch
        # submissions as the batches themselves; result() merges the two.
        self._items: list[Item] = []
        self._pending_items: list[ArrivalBatch] = []
        self._ids: set[int] = set()
        self._clock = _NEG_INF
        self._active = 0
        self.fault_policy = fault_policy
        self.stats = EngineStats(registry)
        if fault_policy is not None:
            if fault_policy.registry is None:
                # Faults absorbed on behalf of this session surface in its
                # telemetry, not nowhere.  Remember that *we* bound it, so a
                # later session cannot silently misattribute its faults here.
                fault_policy.registry = self.stats.registry
                fault_policy._session_bound = True
            elif (
                getattr(fault_policy, "_session_bound", False)
                and fault_policy.registry is not self.stats.registry
            ):
                raise ValidationError(
                    "fault policy is already bound to another session's "
                    "telemetry registry; create one FaultPolicy per session, "
                    "or set its registry explicitly to share telemetry"
                )
        # Hot-path timing writes straight to the interned timer cells; the
        # property round trip through EngineStats costs ~3x more per event.
        self._submit_timer = self.stats.registry.timer("engine.submit_seconds")
        self._advance_timer = self.stats.registry.timer("engine.advance_seconds")
        self._submit_hist = self.stats.submit_latency
        self._advance_hist = self.stats.advance_latency
        self._submit_tick = 0
        self._advance_tick = 0

    # -- introspection -------------------------------------------------------

    @property
    def packer(self) -> OnlinePacker:
        """The driven packer (its bins are live — do not mutate)."""
        return self._packer

    @property
    def clock(self) -> float:
        """Current session time (``-inf`` before the first event)."""
        return self._clock

    def open_bins(self) -> list[Bin]:
        """Bins holding at least one active item right now."""
        return self._packer.open_bins_at(self._clock)

    def snapshot(self) -> EngineSnapshot:
        """A consistent point-in-time view, built without ``Bin`` objects.

        Every event retires the bins closed by its time, so the open-bin
        index is current at the session clock.
        """
        packer = self._packer
        return EngineSnapshot(
            time=self._clock,
            items_submitted=self.stats.items_submitted,
            active_items=self._active,
            open_bins=packer.open_bin_count(),
            bins_opened=packer.bin_count(),
            usage_time=packer.usage_time(),
        )

    # -- the streaming API ---------------------------------------------------

    def submit(self, item: Item, predicted_departure: float | None = None) -> int:
        """Submit one arriving item; returns the bin index it was placed in.

        Items must be submitted in arrival order (the online model).  When
        ``predicted_departure`` differs from the item's actual departure, the
        packer decides on the prediction and the committed placement is then
        amended to the actual interval (noisy clairvoyance).

        With a non-strict ``fault_policy``, out-of-order and duplicate
        submissions are absorbed instead of raising: the item is dropped and
        ``-1`` returned, or — ``clamp`` mode, out-of-order only — its arrival
        is repaired to the session clock and placement proceeds.

        Raises:
            ValidationError: on out-of-order arrivals, duplicate item ids, or
                a NaN prediction (strict mode / no fault policy).
        """
        tick = self._submit_tick
        self._submit_tick = tick + 1
        timed = (
            tick < _TIMING_EXACT or not tick % _TIMING_STRIDE
        ) and _telemetry_enabled()
        t0 = _perf() if timed else 0.0
        policy = self.fault_policy
        if item.arrival < self._clock:
            exc = ValidationError(
                f"item {item.id} arrives at {item.arrival}, before the session "
                f"clock {self._clock}; submissions must be in arrival order"
            )
            if policy is not None and policy.wants_clamp:
                policy.absorb("out_of_order", exc, action="clamp")
                arrival = self._clock
                departure = item.departure
                if departure <= arrival:
                    departure = arrival + 1e-12 * max(1.0, abs(arrival))
                item = Item(item.id, item.sizes, Interval(arrival, departure), dict(item.tags))
            else:
                if policy is None:
                    raise exc
                policy.absorb("out_of_order", exc, action="drop")
                return -1
        if item.id in self._ids:
            exc = ValidationError(f"duplicate item id {item.id}")
            if policy is None:
                raise exc
            # No certified repair for a duplicate: clamp mode drops it too.
            policy.absorb("duplicate_id", exc, action="drop")
            return -1
        self._drain_departures(item.arrival)
        self._clock = item.arrival

        if predicted_departure is None:
            decision_item = item
        else:
            pred = clamp_prediction(item, predicted_departure)
            decision_item = item if pred == item.departure else item.with_departure(pred)
        index = self._packer.place(decision_item)
        self._packer._note_commit(index, decision_item)
        if decision_item is not item:
            self._packer.amend_last(index, item)

        self._ids.add(item.id)
        self._items.append(item)
        self._active += 1
        heapq.heappush(self._dep_times, item.departure)

        stats = self.stats
        stats.items_submitted += 1
        stats.bins_opened = self._packer.bin_count()
        if self._active > stats.peak_active_items:
            stats.peak_active_items = self._active
        open_now = self._packer.open_bin_count()
        if open_now > stats.peak_open_bins:
            stats.peak_open_bins = open_now
        if timed:
            delta = _perf() - t0
            self._submit_timer.seconds += (
                delta if tick < _TIMING_EXACT else delta * _TIMING_STRIDE
            )
            self._submit_hist.observe(delta)  # tail buckets want raw, unscaled deltas
        return index

    def submit_many(
        self, arrivals: "ArrivalBatch | Iterable[Item]"
    ) -> np.ndarray:
        """Submit a whole batch of arrivals; returns per-item bin indices.

        The columnar counterpart of calling :meth:`submit` in a loop: the
        batch's clock, fault and telemetry bookkeeping is amortised into a
        handful of vectorised reductions, and placement goes through the
        packer's :meth:`~repro.algorithms.OnlinePacker.place_many` (for the
        first-fit packers, the core's list-based loop, which never
        materialises :class:`~repro.core.Item` objects).  Placements,
        deterministic :class:`~repro.engine.EngineStats` fields and snapshots
        are bit-identical to the scalar loop — asserted for every registered
        online packer by ``tests/test_engine.py`` and
        ``benchmarks/bench_columnar.py``.

        The fast path requires a *well-formed* batch: arrivals non-decreasing
        from the session clock and ids fresh and unique.  Anything else —
        out-of-order rows, duplicate ids — falls back to the scalar
        :meth:`submit` loop so the :class:`~repro.resilience.FaultPolicy`
        semantics (per-item ``-1`` drop markers, clamp repairs, strict
        raises) are exactly preserved.  Predictions are not batched; use
        :meth:`submit` for noisy-clairvoyance submissions.

        Args:
            arrivals: An :class:`~repro.core.ArrivalBatch`, or an iterable of
                items (converted, at per-item cost).

        Returns:
            ``(n,)`` int64 array: the bin index per row, ``-1`` for rows
            dropped by a non-strict fault policy.

        Raises:
            ValidationError: whatever the scalar loop would raise (strict
                mode faults), after committing the rows preceding the fault.
        """
        batch = (
            arrivals
            if isinstance(arrivals, ArrivalBatch)
            else ArrivalBatch.from_items(arrivals)
        )
        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        arr = batch.arrivals
        # Sort plus adjacent compare: np.unique would import numpy.ma.
        ids_sorted = np.sort(batch.ids)
        if (
            float(arr[0]) < self._clock
            or (n > 1 and not bool((arr[1:] >= arr[:-1]).all()))
            or bool((ids_sorted[1:] == ids_sorted[:-1]).any())
            or not self._ids.isdisjoint(batch.ids.tolist())
        ):
            return self._submit_fallback(batch)
        timed = _telemetry_enabled()
        t0 = _perf() if timed else 0.0
        last = float(arr[-1])
        dep = batch.departures
        # Departures from *before* this batch that fall due inside it.
        due_prior: list[float] = []
        dep_times = self._dep_times
        while dep_times and dep_times[0] <= last:
            due_prior.append(heapq.heappop(dep_times))
        prior_sorted = np.sort(np.asarray(due_prior, dtype=np.float64))
        dep_sorted = np.sort(dep)
        # Active items after each placement: the scalar loop drains every
        # departure due by arr[i] before counting item i in.  A departed
        # batch row j has dep[j] <= arr[i] ⇒ arr[j] < arr[i] ⇒ j < i (rows
        # are non-decreasing), so counting over the whole batch is exact.
        drained_prior = np.searchsorted(prior_sorted, arr, side="right")
        drained_intra = np.searchsorted(dep_sorted, arr, side="right")
        active = self._active + np.arange(1, n + 1) - drained_prior - drained_intra

        placement = self._packer.place_many(batch)

        future = dep[dep > last]
        for d in future.tolist():
            heapq.heappush(dep_times, d)
        intra_due = n - len(future)

        stats = self.stats
        stats.items_submitted += n
        stats.departures_processed += len(due_prior) + intra_due
        stats.bins_retired += placement.bins_retired
        stats.bins_opened = self._packer.bin_count()
        peak_active = int(active.max())
        if peak_active > stats.peak_active_items:
            stats.peak_active_items = peak_active
        peak_open = int(placement.open_bins.max())
        if peak_open > stats.peak_open_bins:
            stats.peak_open_bins = peak_open

        self._active = int(active[-1])
        self._ids.update(batch.ids.tolist())
        self._pending_items.append(batch)
        self._clock = last
        if timed:
            # One batch-level observation (per-item timing is what the batch
            # API amortises away); the timer still integrates total seconds.
            delta = _perf() - t0
            self._submit_timer.seconds += delta
            self._submit_hist.observe(delta)
        return placement.indices

    def _submit_fallback(self, batch: ArrivalBatch) -> np.ndarray:
        """Scalar-loop batch submission: exact :meth:`submit` semantics."""
        indices = np.empty(len(batch), dtype=np.int64)
        for i in range(len(batch)):
            indices[i] = self.submit(batch.item(i))
        return indices

    def advance(self, t: float) -> list[int]:
        """Advance the session clock to ``t``; returns the newly retired bin indices.

        Processes every pending departure due by ``t`` (half-open semantics:
        an item departing *at* ``t`` is gone at ``t``) and retires bins whose
        items have all departed.  Returns indices rather than
        :class:`~repro.core.Bin` objects, so streaming builds no bins;
        ``session.packer.bins[i]`` gives the bin itself.

        Raises:
            ValidationError: if ``t`` is before the current clock.
        """
        tick = self._advance_tick
        self._advance_tick = tick + 1
        timed = (
            tick < _TIMING_EXACT or not tick % _TIMING_STRIDE
        ) and _telemetry_enabled()
        t0 = _perf() if timed else 0.0
        if t < self._clock:
            raise ValidationError(
                f"cannot advance backwards: clock is {self._clock}, got {t}"
            )
        retired = self._drain_departures(t)
        self._clock = t
        self.stats.advances += 1
        if timed:
            delta = _perf() - t0
            self._advance_timer.seconds += (
                delta if tick < _TIMING_EXACT else delta * _TIMING_STRIDE
            )
            self._advance_hist.observe(delta)
        return retired

    def _drain_departures(self, t: float) -> list[int]:
        """Process departures due by ``t``; returns the bin indices this retires."""
        dep_times = self._dep_times
        due = 0
        while dep_times and dep_times[0] <= t:
            heapq.heappop(dep_times)
            due += 1
        if due:
            self._active -= due
            self.stats.departures_processed += due
        retired = self._packer.retire_indices(t)
        if retired:
            self.stats.bins_retired += len(retired)
        return retired

    # -- finishing -----------------------------------------------------------

    def result(self) -> PackingResult:
        """The packing of everything submitted so far.

        Does not close the session — more items may still be submitted; each
        call builds a fresh :class:`~repro.core.PackingResult` from the
        submitted items (actual intervals, post-amendment) and the packer's
        :meth:`~repro.algorithms.OnlinePacker.assignment`, without building
        :class:`~repro.core.Bin` objects.  The result's item list is
        column-backed: it concatenates the batch columns with those of the
        scalar-submitted items and sorts them once, so ``validate()`` and
        ``total_usage()`` build no :class:`~repro.core.Item` objects.  Rows
        submitted through :meth:`submit_many` carry no tags; items submitted
        through :meth:`submit` are kept as they are, tags included.
        """
        batches = self._pending_items
        if self._items:
            batches = [*batches, ArrivalBatch.from_items(self._items)]
        if batches:
            ids = np.concatenate([b.ids for b in batches])
            arrivals = np.concatenate([b.arrivals for b in batches])
            order = np.lexsort((ids, arrivals))
            items = ItemList._from_columns(
                ids[order],
                arrivals[order],
                np.concatenate([b.departures for b in batches])[order],
                np.concatenate([b.sizes for b in batches])[order],
                self._items,
            )
        else:
            items = ItemList(())
        return PackingResult(
            items,
            self._packer.assignment(),
            algorithm=self._algorithm or self._packer.describe(),
        )
