"""Tests for the automated worst-case instance search."""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from repro import get_packer
from repro.algorithms import FirstFitPacker, NextFitPacker, opt_total
from repro.bounds import find_bad_instance, first_fit_ratio, next_fit_ratio
from repro.bounds.search import _mutate, _random_instance
from repro.core import ItemList, ValidationError


class TestFindBadInstance:
    def test_returns_consistent_ratio(self):
        result = find_bad_instance(
            FirstFitPacker, n_items=6, iterations=40, seed=3, restarts=1
        )
        usage = FirstFitPacker().pack(result.items).total_usage()
        assert usage / opt_total(result.items) == pytest.approx(result.ratio)

    def test_deterministic_given_seed(self):
        a = find_bad_instance(FirstFitPacker, n_items=6, iterations=30, seed=7, restarts=1)
        b = find_bad_instance(FirstFitPacker, n_items=6, iterations=30, seed=7, restarts=1)
        assert a.ratio == pytest.approx(b.ratio)
        assert a.items == b.items

    def test_search_beats_random_baseline(self):
        from repro.analysis import measured_ratio
        from repro.workloads import uniform_random

        result = find_bad_instance(
            FirstFitPacker, n_items=8, iterations=120, seed=1, restarts=2
        )
        random_ratio = measured_ratio(
            FirstFitPacker(), uniform_random(8, seed=1)
        ).ratio
        assert result.ratio > random_ratio

    def test_found_ratios_respect_theorems(self):
        ff = find_bad_instance(FirstFitPacker, n_items=8, iterations=80, seed=2, restarts=2)
        assert ff.ratio <= first_fit_ratio(ff.items.mu()) + 1e-9
        nf = find_bad_instance(NextFitPacker, n_items=8, iterations=80, seed=2, restarts=2)
        assert nf.ratio <= next_fit_ratio(nf.items.mu()) + 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            find_bad_instance(FirstFitPacker, n_items=1)
        with pytest.raises(ValidationError):
            find_bad_instance(FirstFitPacker, iterations=0)
        with pytest.raises(ValidationError):
            find_bad_instance(FirstFitPacker, min_duration=0.0)


def _mutate_via_records(rng, items, span, min_dur, max_dur):
    """The record round trip ``_mutate`` once made, kept as its reference.

    Every item goes through ``to_records``/``from_records``; the RNG draws
    and the float arithmetic are the ones ``_mutate`` must reproduce.
    """
    records = items.to_records()
    idx = int(rng.integers(len(records)))
    rec = dict(records[idx])
    move = rng.random()
    arrival = float(rec["arrival"])
    duration = float(rec["departure"]) - arrival
    size = float(rec["size"])
    if move < 0.3:
        arrival = float(np.clip(arrival + rng.normal(0, 0.15 * span), 0, span))
    elif move < 0.6:
        duration = float(np.clip(duration * np.exp(rng.normal(0, 0.4)), min_dur, max_dur))
    elif move < 0.85:
        size = float(np.clip(size * np.exp(rng.normal(0, 0.4)), 0.02, 1.0))
    else:
        arrival = float(rng.uniform(0, span))
        duration = float(rng.uniform(min_dur, max_dur))
        size = float(rng.uniform(0.05, 1.0))
    rec["arrival"] = arrival
    rec["departure"] = arrival + duration
    rec["size"] = size
    records[idx] = rec
    return ItemList.from_records(records)


class TestMutate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_record_round_trip(self, seed):
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        fast = ref = _random_instance(fast_rng, 12, 10.0, 0.5, 8.0)
        _random_instance(ref_rng, 12, 10.0, 0.5, 8.0)
        for _ in range(300):
            fast = _mutate(fast_rng, fast, 10.0, 0.5, 8.0)
            ref = _mutate_via_records(ref_rng, ref, 10.0, 0.5, 8.0)
            assert fast == ref
            assert fast.to_records() == ref.to_records()
        # Both consumed exactly the same draws.
        assert fast_rng.random() == ref_rng.random()

    def test_shares_untouched_items(self):
        rng = np.random.default_rng(5)
        items = _random_instance(rng, 10, 10.0, 0.5, 8.0)
        mutated = _mutate(rng, items, 10.0, 0.5, 8.0)
        shared = [r for r in mutated if r is items.by_id(r.id)]
        assert len(shared) >= len(items) - 1
        assert len(items.changed_ids(mutated)) <= 1


#: ``find_bad_instance(n_items=8, iterations=60, restarts=2, seed=11)`` per
#: packer: the ratio's repr, the SHA-256 of the worst instance's
#: ``to_records()`` JSON, and the accumulated solver counters.  Any change
#: to the mutation draws, the oracle's slice walk or the usage sum shows
#: up here.
SEARCH_PINS = {
    ("first-fit", ()): (
        "1.3000739063453535",
        "406045e45e53a89f9274d33889cd929b8c0e5e69643068f57565248dcd4558e4",
        {
            "nodes": 173, "lb_prunes": 0, "dominance_hits": 0, "warm_start_hits": 0,
            "memo_hits": 6, "memo_misses": 37, "slices": 1830, "slices_reused": 1233,
            "incremental_evals": 21, "full_evals": 2, "certified": 161,
            "bound_rejects": 99,
        },
    ),
    ("classify-duration", (("alpha", 2.0),)): (
        "1.644478447565616",
        "166488553b61bad6c36fa53f001bad80a49e6ac9512aac7c3b1427db9ebfbc70",
        {
            "nodes": 126, "lb_prunes": 0, "dominance_hits": 2, "warm_start_hits": 0,
            "memo_hits": 3, "memo_misses": 26, "slices": 1830, "slices_reused": 1289,
            "incremental_evals": 32, "full_evals": 2, "certified": 163,
            "bound_rejects": 88,
        },
    ),
    ("classify-departure", (("rho", 4.0),)): (
        "1.3170158919755481",
        "8264bcb4efb8f990ae26f128394bb517ab46860e3b613917b9d8d4ded8e89076",
        {
            "nodes": 7, "lb_prunes": 0, "dominance_hits": 0, "warm_start_hits": 0,
            "memo_hits": 2, "memo_misses": 2, "slices": 1815, "slices_reused": 1308,
            "incremental_evals": 26, "full_evals": 2, "certified": 162,
            "bound_rejects": 93,
        },
    ),
}


class TestSearchDeterminism:
    @pytest.mark.parametrize("packer,kwargs", list(SEARCH_PINS))
    def test_pinned_result(self, packer, kwargs):
        ratio, records_sha, stats = SEARCH_PINS[(packer, kwargs)]
        result = find_bad_instance(
            functools.partial(get_packer, packer, **dict(kwargs)),
            n_items=8,
            iterations=60,
            restarts=2,
            seed=11,
        )
        records = json.dumps(result.items.to_records(), sort_keys=True)
        assert repr(result.ratio) == ratio
        assert hashlib.sha256(records.encode()).hexdigest() == records_sha
        assert result.solver_stats.as_dict() == stats
