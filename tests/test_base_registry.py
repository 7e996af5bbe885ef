"""Tests for packer base classes and the registry."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    FirstFitPacker,
    OnlinePacker,
    PackerInfo,
    available_packers,
    get_packer,
    packer_info,
    register_packer,
)
from repro.core import Interval, Item, ItemList


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        names = available_packers()
        for expected in (
            "first-fit",
            "best-fit",
            "worst-fit",
            "last-fit",
            "random-fit",
            "next-fit",
            "hybrid-first-fit",
            "duration-descending-first-fit",
            "dual-coloring",
            "classify-departure",
            "classify-duration",
            "classify-combined",
        ):
            assert expected in names

    def test_get_packer_with_kwargs(self):
        p = get_packer("classify-duration", alpha=3.0)
        assert p.alpha == 3.0

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="first-fit"):
            get_packer("no-such-packer")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_packer("first-fit")(FirstFitPacker)


class TestRegistryMetadata:
    def test_available_packers_maps_names_to_info(self):
        info = available_packers()
        assert isinstance(info, dict)
        assert list(info) == sorted(info)
        assert all(isinstance(v, PackerInfo) for v in info.values())

    def test_declared_params_visible(self):
        info = packer_info("classify-duration")
        assert "alpha" in info.param_names()
        assert "alpha" in info.required_params()
        seeded = packer_info("random-fit")
        assert "seed" in seeded.param_names()
        assert seeded.required_params() == ()

    def test_unknown_kwarg_lists_accepted(self):
        with pytest.raises(ValueError, match="accepted.*alpha"):
            get_packer("classify-duration", alpha=2.0, gamma=1.0)

    def test_unknown_kwarg_on_parameterless_packer(self):
        with pytest.raises(ValueError, match="accepted: none"):
            get_packer("first-fit", alpha=2.0)

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="requires.*rho"):
            get_packer("classify-departure")

    def test_packer_info_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            packer_info("no-such-packer")

    def test_param_describe_shows_defaults(self):
        (seed,) = [
            p for p in packer_info("random-fit").params if p.name == "seed"
        ]
        assert seed.describe() == "seed=0"


class TestOnlinePackerDriver:
    def test_pack_presents_items_in_arrival_order(self):
        seen: list[int] = []

        class Recorder(OnlinePacker):
            name = "recorder"

            def place(self, item):
                seen.append(item.id)
                b = self.open_bin()
                b.place(item, check=False)
                return b.index

        items = ItemList(
            [
                Item(2, 0.1, Interval(5.0, 6.0)),
                Item(0, 0.1, Interval(1.0, 2.0)),
                Item(1, 0.1, Interval(1.0, 3.0)),
            ]
        )
        Recorder().pack(items)
        assert seen == [0, 1, 2]

    def test_open_bins_at_excludes_closed(self):
        p = FirstFitPacker()
        p.reset()
        p.place(Item(0, 0.5, Interval(0.0, 1.0)))
        p.place(Item(1, 0.5, Interval(2.0, 3.0)))
        assert [b.index for b in p.open_bins_at(0.5)] == [0]
        assert [b.index for b in p.open_bins_at(2.5)] == [1]
        assert p.open_bins_at(1.5) == []

    def test_pack_stream_matches_pack(self, simple_items):
        p = FirstFitPacker()
        full = p.pack(simple_items).assignment
        p.reset()
        streamed = p.pack_stream(iter(simple_items))
        assert streamed == full

    def test_describe_defaults_to_name(self):
        assert FirstFitPacker().describe() == "first-fit"
        assert "FirstFitPacker" in repr(FirstFitPacker())


class TestOpenBinIndex:
    def test_retire_until_returns_closed_bins(self):
        p = FirstFitPacker()
        p.reset()
        p.place(Item(0, 0.9, Interval(0.0, 1.0)))
        p._note_commit(0, Item(0, 0.9, Interval(0.0, 1.0)))
        p.place(Item(1, 0.9, Interval(0.5, 4.0)))
        p._note_commit(1, Item(1, 0.9, Interval(0.5, 4.0)))
        assert p.retire_indices(0.9) == []
        assert p.retire_indices(1.0) == [0]
        assert p.retire_indices(1.0) == []  # idempotent
        assert p.retire_indices(100.0) == [1]

    def test_stale_heap_entries_skipped_after_amend(self):
        # The bin's close time shrinks when an over-predicted item is amended;
        # the old heap entry must not retire the bin twice or at a wrong time.
        p = FirstFitPacker()
        p.reset()
        predicted = Item(0, 0.9, Interval(0.0, 50.0))
        p.place(predicted)
        p._note_commit(0, predicted)
        p.amend_last(0, Item(0, 0.9, Interval(0.0, 1.0)))
        assert [b.index for b in p.open_bins_at(0.5)] == [0]
        assert p.retire_indices(2.0) == [0]
        assert p.open_bins_at(2.0) == []

    def test_frontier_fast_path_matches_exact_scan(self):
        p = FirstFitPacker()
        p.reset()
        items = [
            Item(0, 0.4, Interval(0.0, 3.0)),
            Item(1, 0.4, Interval(1.0, 2.0)),
            Item(2, 0.9, Interval(2.5, 5.0)),
            Item(3, 0.9, Interval(4.0, 6.0)),
        ]
        for r in items:
            p._note_commit(p.place(r), r)
        for t in (4.0, 4.5, 5.0, 5.5, 6.0, 7.0):  # at/after the frontier
            fast = [b.index for b in p.open_bins_at(t)]
            exact = [b.index for b in p.bins if b.is_open_at(t)]
            assert fast == exact
