"""Tests for multi-resource (vector) packing on the core types.

Vector items, bins and packings are the core :class:`~repro.core.Item`,
:class:`~repro.core.Bin` and :class:`~repro.core.PackingResult`; the packers
live in :mod:`repro.algorithms.vector` and the lower bounds in
:mod:`repro.bounds`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    VectorClassifyByDeparture,
    VectorClassifyByDuration,
    VectorFirstFit,
)
from repro.bounds import vector_ceil_lower_bound, vector_demand_lower_bound
from repro.core import Bin, CapacityError, Interval, Item, ItemList, PackingResult, ValidationError


def vi(i, sizes, left, right):
    return Item(i, tuple(sizes), Interval(left, right))


class TestVectorItem:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Item(0, (), Interval(0, 1))
        with pytest.raises(ValidationError):
            Item(0, (0.5, 1.2), Interval(0, 1))
        with pytest.raises(ValidationError):
            Item(0, (0.0,), Interval(0, 1))

    def test_accessors(self):
        item = vi(0, (0.2, 0.3), 1.0, 4.0)
        assert item.arrival == 1.0
        assert item.departure == 4.0
        assert item.duration == 3.0
        assert item.dims == 2


class TestVectorFirstFit:
    def test_fit_requires_all_dimensions(self):
        # Items compatible in dim 0 but conflicting in dim 1 cannot share.
        items = [
            vi(0, (0.2, 0.9), 0.0, 4.0),
            vi(1, (0.2, 0.9), 0.0, 4.0),
        ]
        packing = VectorFirstFit().pack(items)
        packing.validate()
        assert packing.num_bins == 2

    def test_shares_when_all_dims_fit(self):
        items = [
            vi(0, (0.4, 0.3), 0.0, 4.0),
            vi(1, (0.5, 0.6), 0.0, 4.0),
        ]
        packing = VectorFirstFit().pack(items)
        assert packing.num_bins == 1

    def test_dimension_mismatch_rejected(self):
        items = [vi(0, (0.4,), 0.0, 1.0), vi(1, (0.4, 0.4), 0.0, 1.0)]
        with pytest.raises(ValidationError):
            VectorFirstFit().pack(items)

    def test_empty(self):
        packing = VectorFirstFit().pack([])
        assert packing.num_bins == 0
        assert packing.total_usage() == 0.0

    def test_validate_detects_overflow(self):
        items = ItemList([vi(0, (0.8, 0.1), 0.0, 2.0), vi(1, (0.8, 0.1), 0.0, 2.0)])
        packing = PackingResult(items, {0: 0, 1: 0}, algorithm="manual")
        with pytest.raises(ValidationError):
            packing.validate()

    def test_bin_place_detects_overflow(self):
        b = Bin(0, dims=2)
        b.place(vi(0, (0.8, 0.1), 0.0, 2.0))
        with pytest.raises(CapacityError):
            b.place(vi(1, (0.8, 0.1), 0.0, 2.0))


class TestVectorClassifyByDuration:
    def test_duration_separation(self):
        items = [
            vi(0, (0.2, 0.2), 0.0, 1.0),
            vi(1, (0.2, 0.2), 0.0, 50.0),
        ]
        packing = VectorClassifyByDuration(alpha=2.0).pack(items)
        assert packing.assignment[0] != packing.assignment[1]

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            VectorClassifyByDuration(alpha=1.0)

    def test_beats_plain_ff_on_retention_style_workload(self):
        # Vector analogue of the retention trap in both dimensions.
        items = []
        for j in range(12):
            t = j * 0.04
            items.append(vi(2 * j, (0.02, 0.02), t, t + 40.0))
            items.append(vi(2 * j + 1, (0.97, 0.97), t, t + 1.0))
        ff = VectorFirstFit().pack(items)
        cd = VectorClassifyByDuration(alpha=2.0, base=1.0).pack(items)
        ff.validate()
        cd.validate()
        assert cd.total_usage() < ff.total_usage()


class TestVectorLowerBound:
    def test_takes_max_over_dimensions(self):
        items = [vi(0, (0.5, 0.1), 0.0, 10.0)]
        assert vector_demand_lower_bound(items) == pytest.approx(10.0)  # span wins

    def test_demand_dominates_when_dense(self):
        items = [vi(i, (1.0, 0.1), 0.0, 10.0) for i in range(5)]
        assert vector_demand_lower_bound(items) == pytest.approx(50.0)

    def test_empty(self):
        assert vector_demand_lower_bound([]) == 0.0

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10_000))
    def test_usage_dominates_lower_bound(self, n, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        items = []
        for i in range(n):
            left = float(rng.uniform(0, 10))
            length = float(rng.uniform(0.5, 5))
            items.append(vi(i, rng.uniform(0.05, 0.6, 2), left, left + length))
        packing = VectorFirstFit().pack(items)
        packing.validate()
        assert packing.total_usage() >= vector_demand_lower_bound(items) - 1e-9


class TestVectorClassifyByDeparture:
    def test_far_departures_not_mixed(self):
        items = [
            vi(0, (0.2, 0.2), 0.0, 1.0),
            vi(1, (0.2, 0.2), 0.0, 50.0),
        ]
        packing = VectorClassifyByDeparture(rho=5.0).pack(items)
        packing.validate()
        assert packing.assignment[0] != packing.assignment[1]

    def test_similar_departures_share(self):
        items = [
            vi(0, (0.2, 0.2), 0.0, 4.0),
            vi(1, (0.2, 0.2), 0.5, 4.5),
        ]
        packing = VectorClassifyByDeparture(rho=5.0).pack(items)
        assert packing.assignment[0] == packing.assignment[1]

    def test_rho_validated(self):
        with pytest.raises(ValidationError):
            VectorClassifyByDeparture(rho=0.0)

    def test_reusable_across_packs(self):
        p = VectorClassifyByDeparture(rho=2.0)
        a = p.pack([vi(0, (0.3,), 10.0, 11.0)])
        b = p.pack([vi(0, (0.3,), 0.0, 1.0)])  # origin must re-anchor
        assert a.num_bins == b.num_bins == 1


class TestVectorCeilLowerBound:
    def test_dominates_demand_bound(self):
        import numpy as np

        rng = np.random.default_rng(7)
        items = []
        for i in range(25):
            left = float(rng.uniform(0, 10))
            items.append(
                vi(i, rng.uniform(0.1, 0.6, 2), left, left + float(rng.uniform(1, 5)))
            )
        assert vector_ceil_lower_bound(items) >= vector_demand_lower_bound(items) - 1e-9

    def test_usage_dominates_ceil_bound(self):
        items = [vi(i, (0.6, 0.3), 0.5 * i, 0.5 * i + 2.0) for i in range(12)]
        packing = VectorFirstFit().pack(items)
        packing.validate()
        assert packing.total_usage() >= vector_ceil_lower_bound(items) - 1e-9

    def test_empty(self):
        assert vector_ceil_lower_bound([]) == 0.0
