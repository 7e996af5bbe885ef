"""One reference oracle for every first-fit packer.

The oracle is the textbook algorithm on :class:`~repro.core.Bin` objects:
First Fit within each category over every bin ever opened, asking
``Bin.is_open_at`` and ``Bin.fits_at_arrival`` (no level mirror, no pruning).
It reuses :class:`~repro.algorithms.AnyFitPacker` and takes the category
function from a fresh instance of the packer under test.  The first-fit core
must match it through ``pack()``, scalar ``submit`` with predicted departures
(amends) and advances, ``submit_many``, and interleavings, at d = 1..3.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import AnyFitPacker, get_packer
from repro.core import ArrivalBatch, EventKind, Interval, Item, ItemList, event_stream
from repro.engine import PackingSession
from repro.workloads import uniform_random

#: Every first-fit name: its parameters and the dimensionalities it takes.
FAMILY = {
    "first-fit": ({}, (1,)),
    "classify-duration": ({"alpha": 2.0}, (1,)),
    "classify-departure": ({"rho": 2.5}, (1,)),
    "classify-combined": ({"alpha": 2.0}, (1,)),
    "hybrid-first-fit": ({}, (1,)),
    "vector-first-fit": ({}, (1, 2, 3)),
    "vector-classify-duration": ({"alpha": 2.0}, (1, 2, 3)),
    "vector-classify-departure": ({"rho": 2.5}, (1, 2, 3)),
}


class ReferenceFirstFit(AnyFitPacker):
    """Per-category First Fit over every bin ever opened (the oracle)."""

    name = "reference-first-fit"

    def __init__(self, packer_name: str) -> None:
        super().__init__()
        self.classifier = get_packer(packer_name, **FAMILY[packer_name][0])
        self._category: list[object] = []

    def reset(self) -> None:
        super().reset()
        self.classifier.reset()
        self._category = []

    def open_bins_at(self, t):
        return [b for b in self.bins if b.is_open_at(t)]

    def place(self, item):
        self.dims = len(item.sizes)
        self._key = self.classifier.category_of(item)
        return super().place(item)

    def choose(self, item, candidates):
        return next((b for b in candidates if self._category[b.index] == self._key), None)

    def open_bin(self):
        self._category.append(self._key)
        return super().open_bin()


@st.composite
def workloads(draw, dims: int):
    """Items, a prediction factor per item and batch cut points."""
    n = draw(st.integers(min_value=1, max_value=14))
    whole = st.integers(min_value=1, max_value=6).map(float)  # makes times coincide
    times = st.floats(min_value=0.05, max_value=20.0) | whole
    coord = st.floats(min_value=0.01, max_value=1.0) | st.sampled_from([0.25, 0.5, 1.0])
    items = []
    for i in range(n):
        a, d = draw(times), draw(times)
        items.append(Item(i, tuple(draw(coord) for _ in range(dims)), Interval(a, a + d)))
    factors = draw(st.lists(st.sampled_from([None, 0.3, 1.0, 2.5]), min_size=n, max_size=n))
    cuts = sorted(set(draw(st.lists(st.integers(min_value=1, max_value=n), max_size=4))))
    return ItemList(items), factors, cuts


def det(session: PackingSession) -> dict[str, object]:
    """Deterministic EngineStats fields (timers measure wall clock)."""
    return {k: v for k, v in session.stats.as_dict().items() if not k.endswith("_seconds")}


def drive(session: PackingSession, items: ItemList, factors, cuts, mode: str) -> list[int]:
    """Feed ``items`` into ``session`` as ``mode`` says; returns the last retirements."""
    if mode == "submit":
        for event in event_stream(items):
            if event.kind is EventKind.DEPARTURE:
                session.advance(event.time)
            elif (factor := factors[event.item.id]) is None:
                session.submit(event.item)
            else:
                r = event.item
                session.submit(r, predicted_departure=r.arrival + factor * r.duration)
    else:
        rows, bounds = list(items), [0, *cuts, len(items)]
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if mode == "interleaved" and k % 2:
                for r in rows[lo:hi]:
                    session.submit(r)
            else:
                session.submit_many(ArrivalBatch.from_items(rows[lo:hi]))
    return session.advance(max(r.departure for r in items))


@pytest.mark.parametrize("name", sorted(FAMILY))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_core_matches_reference(name, data):
    kwargs, dims = FAMILY[name]
    items, factors, cuts = data.draw(workloads(data.draw(st.sampled_from(dims))))
    packed, want = get_packer(name, **kwargs).pack(items), ReferenceFirstFit(name).pack(items)
    assert packed.assignment == want.assignment
    assert packed.total_usage() == want.total_usage()
    for mode in ("submit", "many", "interleaved"):
        core, oracle = PackingSession(name, **kwargs), PackingSession(ReferenceFirstFit(name))
        assert drive(core, items, factors, cuts, mode) == drive(oracle, items, factors, cuts, mode)
        assert core.result().assignment == oracle.result().assignment
        assert core.result().total_usage() == oracle.result().total_usage()
        assert det(core) == det(oracle)
        assert core.snapshot() == oracle.snapshot()
        assert [(b.items, b.usage_time()) for b in core.packer.bins] == [
            (b.items, b.usage_time()) for b in oracle.packer.bins
        ]


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_pack_leaves_bins_that_agree_with_the_result(name):
    packer = get_packer(name, **FAMILY[name][0])
    result = packer.pack(uniform_random(200, seed=1, arrival_span=50))
    assert packer.bin_count() == len(packer.bins) == result.num_bins
    assert packer.assignment() == result.assignment
    assert {r.id: b.index for b in packer.bins for r in b} == result.assignment
    by_category = packer.category_bins()
    assert sorted(b.index for bins in by_category.values() for b in bins) == list(
        range(result.num_bins)
    )
    for b in packer.bins:
        b.check_invariants()


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_compacted_candidate_lists_match_reference(name):
    # Dense, short-lived items: every category opens well over the 64 bins
    # at which its candidate list is first compacted at the arrival frontier.
    items = uniform_random(
        1500, seed=3, arrival_span=2.5, duration_range=(0.5, 1.0), size_range=(0.4, 0.9)
    )
    want = ReferenceFirstFit(name).pack(items)
    packer = get_packer(name, **FAMILY[name][0])
    packed = packer.pack(items)
    assert sum(map(len, packer._candidates.values())) < packer.bin_count()  # compacted
    assert packed.assignment == want.assignment
    assert packed.total_usage() == want.total_usage()
    session, rows = PackingSession(name, **FAMILY[name][0]), list(items)
    for lo in range(0, len(rows), 400):
        session.submit_many(ArrivalBatch.from_items(rows[lo : lo + 400]))
    assert session.result().assignment == want.assignment
