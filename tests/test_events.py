"""Tests for repro.core.events."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core import Event, EventKind, Interval, Item, ItemList, event_stream

from conftest import items_strategy


class TestEventStream:
    def test_each_item_yields_two_events(self, simple_items):
        events = list(event_stream(simple_items))
        assert len(events) == 2 * len(simple_items)

    def test_time_ordering(self, simple_items):
        events = list(event_stream(simple_items))
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_departure_before_arrival_at_equal_time(self):
        items = ItemList(
            [Item(0, 0.9, Interval(0.0, 1.0)), Item(1, 0.9, Interval(1.0, 2.0))]
        )
        events = list(event_stream(items))
        # At t=1: item 0 departs before item 1 arrives.
        at_one = [e for e in events if e.time == 1.0]
        assert at_one[0].kind is EventKind.DEPARTURE
        assert at_one[0].item.id == 0
        assert at_one[1].kind is EventKind.ARRIVAL
        assert at_one[1].item.id == 1

    def test_id_tiebreak_within_kind(self):
        items = ItemList(
            [Item(3, 0.1, Interval(0.0, 1.0)), Item(1, 0.1, Interval(0.0, 1.0))]
        )
        arrivals = [e.item.id for e in event_stream(items) if e.kind is EventKind.ARRIVAL]
        assert arrivals == [1, 3]

    def test_event_sort_key(self):
        e = Event(1.5, EventKind.ARRIVAL, Item(2, 0.1, Interval(1.5, 2.0)))
        assert e.sort_key == (1.5, 1, 2)


class TestEventStreamProperties:
    @given(items_strategy())
    def test_sorted_and_complete(self, items):
        events = list(event_stream(items))
        assert len(events) == 2 * len(items)
        keys = [e.sort_key for e in events]
        assert keys == sorted(keys)
        arrived = {e.item.id for e in events if e.kind is EventKind.ARRIVAL}
        departed = {e.item.id for e in events if e.kind is EventKind.DEPARTURE}
        assert arrived == departed == {r.id for r in items}

    @given(items_strategy())
    def test_running_active_count_never_negative(self, items):
        active = 0
        for e in event_stream(items):
            active += 1 if e.kind is EventKind.ARRIVAL else -1
            assert active >= 0


class TestActiveSizeSlices:
    """Columnar sweep parity: both engines yield identical slices."""

    def _slices(self, items, engine):
        from repro.core.events import active_size_slices

        return list(active_size_slices(items, engine=engine))

    def test_engines_agree(self, simple_items):
        assert self._slices(simple_items, "columnar") == self._slices(
            simple_items, "object"
        )

    def test_default_engine_is_columnar(self, simple_items):
        assert self._slices(simple_items, None) == self._slices(
            simple_items, "columnar"
        )

    @given(items_strategy())
    def test_engines_agree_random(self, items):
        assert self._slices(items, "columnar") == self._slices(items, "object")

    def test_unknown_engine_rejected(self, simple_items):
        from repro.core import ValidationError
        from repro.core.events import active_size_slices

        import pytest

        with pytest.raises(ValidationError, match="slice engine"):
            active_size_slices(simple_items, engine="simd")

    def test_empty_items_yield_nothing(self):
        assert self._slices(ItemList([]), "columnar") == []


class TestEventArrays:
    """The presorted sweep substrate and its retimed reuse."""

    def test_times_match_event_times(self, simple_items):
        from repro.core.events import EventArrays

        ev = EventArrays.from_items(simple_items)
        assert ev.times == simple_items.event_times()
        assert len(ev.times_all) == 2 * len(simple_items)

    def test_retimed_matches_fresh_build(self, simple_items):
        from repro.core.events import EventArrays

        base = EventArrays.from_items(simple_items)
        old = simple_items[0]
        new = Item(999, old.size, Interval(old.arrival + 0.25, old.departure + 0.25))
        mutated = ItemList([new] + list(simple_items)[1:])
        swapped = base.retimed([old], [new])
        fresh = EventArrays.from_items(mutated)
        assert swapped.times_all.tolist() == fresh.times_all.tolist()
        assert swapped.times == fresh.times

    def test_retimed_is_boundaries_only(self, simple_items):
        from repro.core import ValidationError
        from repro.core.events import EventArrays

        import pytest

        swapped = EventArrays.from_items(simple_items).retimed([], [])
        with pytest.raises(ValidationError, match="boundaries only"):
            list(swapped.slices())

    def test_retimed_unknown_removal_rejected(self, simple_items):
        from repro.core import ValidationError
        from repro.core.events import EventArrays

        import pytest

        ghost = Item(999, 0.5, Interval(123.0, 456.0))
        with pytest.raises(ValidationError, match="not in the timeline"):
            EventArrays.from_items(simple_items).retimed([ghost], [])

    @given(items_strategy(), st.data())
    def test_retimed_chain_matches_fresh_build(self, items, data):
        """Successive one-item swaps splice to the fresh timeline, ties included."""
        from repro.core.events import EventArrays

        ev = EventArrays.from_items(items)
        for _ in range(3):
            old = items[data.draw(st.integers(0, len(items) - 1))]
            # Reuse existing event times so multiplicities go up and down.
            times = items.event_times()
            start = data.draw(st.sampled_from(times[:-1]))
            end = data.draw(st.sampled_from([t for t in times if t > start]))
            new = Item(old.id, old.size, Interval(start, end))
            items = items.replace(new)
            ev = ev.retimed([old], [new])
            fresh = EventArrays.from_items(items)
            assert ev.times == fresh.times == items.event_times()
            assert ev.times_all.tolist() == fresh.times_all.tolist()


class TestOptTotalSliceEngines:
    """opt_total must be engine-independent, counters included."""

    def test_totals_and_stats_identical(self):
        from repro.algorithms import opt_total
        from repro.algorithms.adversary import MemoCache
        from repro.algorithms.optimal import SolverStats
        from repro.workloads import uniform_random

        items = uniform_random(40, seed=5, arrival_span=120.0)
        results = {}
        stats = {}
        for engine in ("object", "columnar"):
            s = SolverStats()
            results[engine] = opt_total(
                items, memo=MemoCache(), stats=s, slice_engine=engine
            )
            stats[engine] = s.as_dict()
        assert results["object"] == results["columnar"]
        assert stats["object"] == stats["columnar"]
