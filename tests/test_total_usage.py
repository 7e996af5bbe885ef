"""``PackingResult.total_usage`` against the grouped numpy sweep it replaced.

The Python union sweep must return the same float, bit for bit: usage
values feed output digests and journal records.  It reproduces numpy's
pairwise ``add.reduce`` order, so the last test checks that the installed
numpy still sums in that order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import get_packer
from repro.core import Interval, Item, ItemList, PackingResult
from repro.core.packing import _pairwise_sum
from repro.workloads import uniform_random


def numpy_total_usage(result: PackingResult) -> float:
    """The former ``total_usage`` body: a grouped numpy interval-union sweep."""
    n = len(result.items)
    if n == 0:
        return 0.0
    bins_col = np.fromiter(
        (result.assignment[r.id] for r in result.items), dtype=np.int64, count=n
    )
    arrivals = np.fromiter((r.arrival for r in result.items), dtype=float, count=n)
    departures = np.fromiter((r.departure for r in result.items), dtype=float, count=n)
    order = np.lexsort((arrivals, bins_col))
    sorted_bins = bins_col[order]
    lefts = arrivals[order]
    rights = departures[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_bins)) + 1, [n]])
    total = 0.0
    for s, e in zip(starts[:-1], starts[1:]):
        ga, gd = lefts[s:e], rights[s:e]
        reach = np.maximum.accumulate(gd)
        prev = np.concatenate([[ga[0]], reach[:-1]])
        total += float(np.maximum(gd - np.maximum(ga, prev), 0.0).sum())
    return total


PACKERS = [
    ("first-fit", {}),
    ("best-fit", {}),
    ("next-fit", {}),
    ("classify-duration", {"alpha": 2.0}),
    ("classify-departure", {"rho": 4.0}),
    ("hybrid-first-fit", {}),
    ("duration-descending-first-fit", {}),
]


@pytest.mark.parametrize("packer,kwargs", PACKERS)
@pytest.mark.parametrize("n", [1, 5, 40, 600])
def test_random_packings_match_numpy_sweep(packer, kwargs, n):
    for seed in range(3):
        items = uniform_random(n, seed=seed, arrival_span=max(4.0, n / 4))
        result = get_packer(packer, **kwargs).pack(items)
        assert repr(result.total_usage()) == repr(numpy_total_usage(result))


@pytest.mark.parametrize("per_bin", [1, 7, 8, 9, 128, 129, 300])
def test_hand_built_bins_match_numpy_sweep(per_bin):
    # Every branch of the pairwise sum: sequential (< 8), eight
    # accumulators (8..128) and the halving split (> 128).  Intervals
    # overlap, nest and leave gaps, so some parts are clipped to zero.
    rng = np.random.default_rng(per_bin)
    items, assignment = [], {}
    for b in range(3):
        for _ in range(per_bin):
            left = float(rng.uniform(0, 50)) * float(rng.choice([1e-3, 1.0, 1e3]))
            width = float(rng.exponential(2.0)) + 1e-6
            item_id = len(items)
            items.append(Item(item_id, 0.01, Interval(left, left + width)))
            assignment[item_id] = 7 - 3 * b  # bins out of index order
    result = PackingResult(ItemList(items), assignment)
    assert repr(result.total_usage()) == repr(numpy_total_usage(result))


def test_empty_packing():
    assert PackingResult(ItemList([]), {}).total_usage() == 0.0


def test_installed_numpy_sums_in_the_reproduced_order():
    # If a numpy release changes its float64 reduction order, total_usage
    # would silently drift from earlier digests; fail here instead.
    rng = np.random.default_rng(0)
    lengths = list(range(1, 300)) + [511, 1024, 5000, 20000]
    for n in lengths:
        values = rng.uniform(0, 10, n) * rng.choice([1e-6, 1.0, 1e6], n)
        assert float(values.sum()) == 0.0 + _pairwise_sum(values.tolist()), (
            f"np.sum no longer follows the pairwise order for n={n}; "
            "PackingResult.total_usage must be re-derived"
        )
