"""Unit and property tests for repro.core.items."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Interval, Item, ItemList, ValidationError

from conftest import durations, items_strategy, sizes


class TestItem:
    def test_accessors_match_paper_notation(self):
        r = Item(0, 0.25, Interval(2.0, 7.0))
        assert r.arrival == 2.0
        assert r.departure == 7.0
        assert r.duration == 5.0
        assert r.demand == pytest.approx(0.25 * 5.0)

    def test_size_zero_rejected(self):
        with pytest.raises(ValidationError):
            Item(0, 0.0, Interval(0.0, 1.0))

    def test_size_above_capacity_rejected(self):
        with pytest.raises(ValidationError):
            Item(0, 1.01, Interval(0.0, 1.0))

    def test_size_exactly_one_allowed(self):
        assert Item(0, 1.0, Interval(0.0, 1.0)).size == 1.0

    def test_active_at_half_open(self):
        r = Item(0, 0.5, Interval(1.0, 2.0))
        assert r.active_at(1.0)
        assert not r.active_at(2.0)
        assert not r.active_at(0.5)

    def test_shift(self):
        r = Item(3, 0.5, Interval(1.0, 2.0), {"k": "v"})
        shifted = r.shift(10.0)
        assert shifted.interval == Interval(11.0, 12.0)
        assert shifted.id == 3
        assert shifted.tags == {"k": "v"}

    def test_with_departure(self):
        r = Item(0, 0.5, Interval(1.0, 2.0))
        assert r.with_departure(5.0).interval == Interval(1.0, 5.0)

    def test_tags_do_not_affect_equality(self):
        a = Item(0, 0.5, Interval(0.0, 1.0), {"x": 1})
        b = Item(0, 0.5, Interval(0.0, 1.0), {"y": 2})
        assert a == b


class TestItemListBasics:
    def test_sorted_by_arrival_then_id(self):
        items = ItemList(
            [
                Item(5, 0.1, Interval(3.0, 4.0)),
                Item(2, 0.1, Interval(1.0, 2.0)),
                Item(1, 0.1, Interval(3.0, 4.0)),
            ]
        )
        assert [r.id for r in items] == [2, 1, 5]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            ItemList([Item(0, 0.1, Interval(0, 1)), Item(0, 0.2, Interval(1, 2))])

    def test_by_id(self):
        items = ItemList([Item(7, 0.1, Interval(0, 1))])
        assert items.by_id(7).size == 0.1
        with pytest.raises(KeyError):
            items.by_id(8)

    def test_container_protocol(self):
        items = ItemList([Item(0, 0.1, Interval(0, 1)), Item(1, 0.2, Interval(0, 2))])
        assert len(items) == 2
        assert items[0].id == 0
        assert bool(items)
        assert not bool(ItemList([]))

    def test_equality_and_hash(self):
        a = ItemList([Item(0, 0.1, Interval(0, 1))])
        b = ItemList([Item(0, 0.1, Interval(0, 1))])
        assert a == b
        assert hash(a) == hash(b)


class TestItemListStats:
    def test_total_demand(self, simple_items):
        expected = 0.5 * 4 + 0.4 * 2 + 0.3 * 4
        assert simple_items.total_demand() == pytest.approx(expected)

    def test_span_contiguous(self, simple_items):
        assert simple_items.span() == pytest.approx(6.0)

    def test_span_with_gap(self, disjoint_items):
        assert disjoint_items.span() == pytest.approx(3.0)

    def test_span_intervals(self, disjoint_items):
        assert disjoint_items.span_intervals() == [
            Interval(0.0, 1.0),
            Interval(2.0, 3.0),
            Interval(4.0, 5.0),
        ]

    def test_mu(self, simple_items):
        assert simple_items.mu() == pytest.approx(4.0 / 2.0)

    def test_min_max_duration_empty_raises(self):
        empty = ItemList([])
        with pytest.raises(ValidationError):
            empty.min_duration()
        with pytest.raises(ValidationError):
            empty.max_duration()

    def test_size_profile(self, simple_items):
        profile = simple_items.size_profile()
        assert profile.value_at(0.5) == pytest.approx(0.5)
        assert profile.value_at(1.5) == pytest.approx(0.9)
        assert profile.value_at(2.5) == pytest.approx(1.2)
        assert profile.value_at(5.0) == pytest.approx(0.3)

    def test_max_concurrent_size(self, simple_items):
        assert simple_items.max_concurrent_size() == pytest.approx(1.2)

    def test_active_at(self, simple_items):
        assert {r.id for r in simple_items.active_at(2.5)} == {0, 1, 2}
        assert {r.id for r in simple_items.active_at(0.5)} == {0}

    def test_event_times(self, simple_items):
        assert simple_items.event_times() == [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]


class TestItemListRestructuring:
    def test_filter(self, simple_items):
        big = simple_items.filter(lambda r: r.size >= 0.4)
        assert {r.id for r in big} == {0, 1}

    def test_partition(self, simple_items):
        parts = simple_items.partition(lambda r: 0 if r.size < 0.4 else 1)
        assert {r.id for r in parts[0]} == {2}
        assert {r.id for r in parts[1]} == {0, 1}

    def test_split_by_span_components(self, disjoint_items):
        subs = disjoint_items.split_by_span_components()
        assert len(subs) == 3
        assert all(len(s) == 1 for s in subs)

    def test_split_single_component(self, simple_items):
        assert len(simple_items.split_by_span_components()) == 1

    def test_shift(self, simple_items):
        shifted = simple_items.shift(10.0)
        assert shifted.span() == simple_items.span()
        assert shifted[0].arrival == 10.0

    def test_renumbered(self):
        items = ItemList([Item(42, 0.1, Interval(0, 1)), Item(17, 0.2, Interval(2, 3))])
        renum = items.renumbered()
        assert [r.id for r in renum] == [0, 1]

    def test_concat(self):
        a = ItemList([Item(0, 0.1, Interval(0, 1))])
        b = ItemList([Item(1, 0.2, Interval(2, 3))])
        both = ItemList.concat([a, b])
        assert len(both) == 2

    def test_concat_duplicate_ids_rejected(self):
        a = ItemList([Item(0, 0.1, Interval(0, 1))])
        with pytest.raises(ValidationError):
            ItemList.concat([a, a])


class TestSerialisation:
    def test_records_roundtrip(self, simple_items):
        assert ItemList.from_records(simple_items.to_records()) == simple_items

    def test_json_roundtrip(self, simple_items):
        assert ItemList.from_json(simple_items.to_json()) == simple_items

    def test_tags_preserved(self):
        items = ItemList([Item(0, 0.1, Interval(0, 1), {"app": "x"})])
        restored = ItemList.from_json(items.to_json())
        assert restored[0].tags == {"app": "x"}


class TestItemListProperties:
    @given(items_strategy())
    def test_span_le_demand_relation(self, items):
        # span <= sum of durations; demand <= sum of durations (sizes <= 1).
        total_duration = sum(r.duration for r in items)
        assert items.span() <= total_duration + 1e-9
        assert items.total_demand() <= total_duration + 1e-9

    @given(items_strategy())
    def test_mu_at_least_one(self, items):
        assert items.mu() >= 1.0

    @given(items_strategy())
    def test_size_profile_integral_is_demand(self, items):
        assert items.size_profile().integral() == pytest.approx(
            items.total_demand(), rel=1e-9
        )

    @given(items_strategy())
    def test_size_profile_support_is_span(self, items):
        assert items.size_profile().support_measure(tol=1e-12) == pytest.approx(
            items.span(), rel=1e-9
        )

    @given(items_strategy())
    def test_split_components_preserve_items(self, items):
        subs = items.split_by_span_components()
        ids = sorted(r.id for s in subs for r in s)
        assert ids == sorted(r.id for r in items)

    @given(items_strategy())
    def test_roundtrip_json(self, items):
        assert ItemList.from_json(items.to_json()) == items


@st.composite
def columns_strategy(draw):
    """Raw item rows with tied arrivals and shuffled ids, d = 1..3."""
    dims = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=14))
    ids = draw(st.permutations(range(100, 100 + n)))
    rows = []
    for item_id in ids:
        # Few distinct arrivals, so (arrival, id) ties are common.
        arrival = float(draw(st.integers(min_value=0, max_value=4)))
        duration = draw(durations)
        row = tuple(draw(sizes) for _ in range(dims))
        rows.append((item_id, arrival, arrival + duration, row))
    return dims, rows


def _column_built(dims: int, rows) -> ItemList:
    """Sort raw rows by (arrival, id) and wrap them as a column-backed list."""
    ids = np.array([r[0] for r in rows], dtype=np.int64)
    arrivals = np.array([r[1] for r in rows], dtype=np.float64)
    departures = np.array([r[2] for r in rows], dtype=np.float64)
    size_rows = np.array([r[3] for r in rows], dtype=np.float64).reshape(len(rows), dims)
    order = np.lexsort((ids, arrivals))
    return ItemList._from_columns(
        ids[order], arrivals[order], departures[order], size_rows[order]
    )


class TestColumnBackedItemList:
    """A column-backed list behaves exactly like the item-built one."""

    @settings(max_examples=60)
    @given(columns_strategy(), st.data())
    def test_every_public_method_agrees(self, case, data):
        dims, rows = case
        ref = ItemList(Item(i, s, Interval(a, d)) for i, a, d, s in rows)
        col = _column_built(dims, rows)

        # Shape questions and the columns build no items.
        assert len(col) == len(ref) and col.dims == ref.dims
        assert bool(col) == bool(ref)
        for mine, theirs in zip(col.columns(), ref.columns()):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
        assert col._items is None

        assert list(col) == list(ref)
        assert [r.id for r in col] == [r.id for r in ref]
        assert col == ref and hash(col) == hash(ref)
        for i, _, _, _ in rows:
            assert col.by_id(i) == ref.by_id(i)
        assert np.array_equal(col.sizes_matrix(), ref.sizes_matrix())
        assert col.event_times() == ref.event_times()
        assert col.to_records() == ref.to_records()
        for dim in range(dims):
            assert list(col.size_profile(dim).segments()) == list(
                ref.size_profile(dim).segments()
            )
        assert col.total_demand() == ref.total_demand()
        assert col.span() == ref.span()
        target = data.draw(st.sampled_from([r[0] for r in rows]))
        arrival = float(data.draw(st.integers(min_value=0, max_value=4)))
        new = Item(target, (0.5,) * dims, Interval(arrival, arrival + 1.0))
        swapped_col, swapped_ref = col.replace(new), ref.replace(new)
        assert list(swapped_col) == list(swapped_ref)
        assert list(swapped_col) == sorted(swapped_ref, key=lambda r: (r.arrival, r.id))
        assert np.array_equal(swapped_col.columns()[0], swapped_ref.columns()[0])
        expected = [] if ref.by_id(target) == new else [target]
        assert col.changed_ids(swapped_col) == expected
        assert ref.changed_ids(swapped_ref) == expected
        assert col.changed_ids(ref) == []

    @settings(max_examples=30)
    @given(columns_strategy())
    def test_pickle_round_trip(self, case):
        dims, rows = case
        col = _column_built(dims, rows)
        lazy = pickle.loads(pickle.dumps(col))
        assert lazy._items is None
        list(col)  # build the items, then pickle the item form
        built = pickle.loads(pickle.dumps(col))
        for restored in (lazy, built):
            assert restored == col and restored.dims == col.dims
            for mine, theirs in zip(restored.columns(), col.columns()):
                assert np.array_equal(mine, theirs)

    def test_columns_are_read_only(self, simple_items):
        for column in simple_items.columns():
            with pytest.raises(ValueError):
                column[0] = 0

    def test_prebuilt_items_keep_their_tags(self):
        tagged = Item(7, 0.25, Interval(1.0, 2.0), {"app": "x"})
        col = ItemList._from_columns(
            np.array([3, 7]),
            np.array([0.0, 1.0]),
            np.array([1.0, 2.0]),
            np.array([[0.5], [0.25]]),
            [tagged],
        )
        assert col.by_id(7) is tagged
        assert col.by_id(3).tags == {}

    def test_ids_beyond_int64_stay_python_ints(self):
        from repro.algorithms import get_packer

        huge = 2**70
        items = ItemList([Item(huge, 0.5, Interval(0.0, 2.0)), Item(1, 0.75, Interval(1.0, 3.0))])
        assert items.columns()[0].tolist() == [huge, 1]
        result = get_packer("first-fit").pack(items)
        result.validate()
        assert result.total_usage() == 4.0


class TestReplace:
    def test_unknown_id_raises_key_error(self, simple_items):
        with pytest.raises(KeyError):
            simple_items.replace(Item(99, 0.5, Interval(0.0, 1.0)))

    def test_other_dimensionality_rejected(self, simple_items):
        with pytest.raises(ValidationError, match="item 1 has 2 dimension"):
            simple_items.replace(Item(1, (0.5, 0.5), Interval(0.0, 1.0)))

    def test_moves_item_to_its_arrival_position(self, simple_items):
        moved = simple_items.replace(Item(0, 0.5, Interval(5.0, 6.0)))
        assert [r.id for r in moved] == [1, 2, 0]
        assert moved.by_id(0).arrival == 5.0
        assert moved.columns()[1].tolist() == [1.0, 2.0, 5.0]

    def test_single_item_list_may_change_dimensionality(self):
        one = ItemList([Item(0, 0.5, Interval(0.0, 1.0))])
        vector = one.replace(Item(0, (0.5, 0.25), Interval(0.0, 1.0)))
        assert vector.dims == 2 and vector.sizes_matrix().shape == (1, 2)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_splices_cached_columns(self, data):
        """A list holding columns passes them on, spliced, equal to a fresh derivation."""
        from repro.core.items import _item_columns

        dims = data.draw(st.integers(min_value=1, max_value=3))
        base = data.draw(st.sampled_from([0, 2**70]))  # int64 and object ids
        tied = st.integers(min_value=0, max_value=4).map(float)
        starts = data.draw(st.lists(tied, min_size=1, max_size=10))
        items = ItemList(
            Item(base + i, (0.5,) * dims, Interval(a, a + 1.0)) for i, a in enumerate(starts)
        )
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            items.columns()
            target = data.draw(st.sampled_from([r.id for r in items]))
            # Before the first and after the last arrival, or onto a tie.
            arrival = data.draw(st.sampled_from([-1.0, 9.0]) | tied)
            size = data.draw(st.floats(min_value=0.01, max_value=1.0))
            items = items.replace(Item(target, (size,) * dims, Interval(arrival, arrival + 2.0)))
            assert items._columns is not None
            for mine, theirs in zip(items._columns, _item_columns(items.items, dims)):
                assert mine.dtype == theirs.dtype
                assert np.array_equal(mine, theirs)
                assert not mine.flags.writeable
