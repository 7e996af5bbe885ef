"""Tests for the streaming packing engine (repro.engine).

The load-bearing guarantees:

* **parity** — for every registered online packer, streaming submission
  through a :class:`PackingSession` produces exactly the assignment and
  usage of batch ``pack`` on the same workload;
* **cache integrity** — each bin's incremental occupancy caches match an
  exact recomputation after every event (``Bin.check_invariants``);
* the session API enforces the online model (arrival order, unique ids) and
  exposes faithful counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import available_packers, get_packer
from repro.algorithms.base import OnlinePacker
from repro.core import (
    ArrivalBatch,
    EventKind,
    Interval,
    Item,
    ItemList,
    PackingResult,
    ValidationError,
    event_stream,
)
from repro.engine import EngineSnapshot, EngineStats, PackingSession, clamp_prediction
from repro.resilience import FaultPolicy
from repro.workloads import uniform_random

#: Constructor arguments for packers with required parameters.
SPECIAL = {
    "classify-departure": {"rho": 2.0},
    "classify-duration": {"alpha": 2.0},
    "classify-combined": {"alpha": 2.0},
    "vector-classify-departure": {"rho": 2.0},
    "vector-classify-duration": {"alpha": 2.0},
}


def online_names() -> list[str]:
    return [
        name
        for name in available_packers()
        if isinstance(get_packer(name, **SPECIAL.get(name, {})), OnlinePacker)
    ]


def drive(session: PackingSession, items: ItemList) -> None:
    """Feed the full event stream (arrivals and departures) into a session."""
    for event in event_stream(items):
        if event.kind is EventKind.ARRIVAL:
            session.submit(event.item)
        else:
            session.advance(event.time)


class TestSessionBasics:
    def test_submit_returns_bin_index(self, simple_items):
        session = PackingSession("first-fit")
        indices = [session.submit(r) for r in simple_items]
        assert indices == list(session.result().assignment[r.id] for r in simple_items)

    def test_result_matches_batch(self, simple_items):
        session = PackingSession("first-fit")
        for r in simple_items:
            session.submit(r)
        batch = get_packer("first-fit").pack(simple_items)
        result = session.result()
        assert result.assignment == batch.assignment
        assert result.total_usage() == pytest.approx(batch.total_usage())
        assert result.algorithm == "first-fit"

    def test_result_is_incremental(self):
        session = PackingSession("first-fit")
        session.submit(Item(0, 0.5, Interval(0.0, 2.0)))
        assert len(session.result().items) == 1
        session.submit(Item(1, 0.5, Interval(1.0, 3.0)))
        assert len(session.result().items) == 2
        session.result().validate()

    def test_out_of_order_arrival_rejected(self):
        session = PackingSession("first-fit")
        session.submit(Item(0, 0.5, Interval(5.0, 6.0)))
        with pytest.raises(ValidationError, match="arrival order"):
            session.submit(Item(1, 0.5, Interval(1.0, 2.0)))

    def test_duplicate_id_rejected(self):
        session = PackingSession("first-fit")
        session.submit(Item(0, 0.5, Interval(0.0, 1.0)))
        with pytest.raises(ValidationError, match="duplicate"):
            session.submit(Item(0, 0.5, Interval(0.5, 1.5)))

    def test_advance_backwards_rejected(self):
        session = PackingSession("first-fit")
        session.submit(Item(0, 0.5, Interval(0.0, 1.0)))
        session.advance(2.0)
        with pytest.raises(ValidationError, match="backwards"):
            session.advance(1.0)

    def test_advance_returns_retired_bins(self):
        session = PackingSession("first-fit")
        session.submit(Item(0, 0.9, Interval(0.0, 1.0)))
        assert session.advance(0.5) == []
        retired = session.advance(1.0)  # half-open: gone at its departure
        assert retired == [0]
        assert session.open_bins() == []

    def test_constructor_validates_kwargs(self):
        with pytest.raises(KeyError, match="available"):
            PackingSession("no-such-packer")
        with pytest.raises(ValueError, match="accepted"):
            PackingSession("first-fit", bogus=1)

    def test_offline_packer_rejected(self):
        with pytest.raises(TypeError, match="OnlinePacker"):
            PackingSession("dual-coloring")

    def test_instance_with_kwargs_rejected(self):
        with pytest.raises(TypeError, match="packer name"):
            PackingSession(get_packer("first-fit"), alpha=2.0)


class TestSnapshotAndStats:
    def test_snapshot_fields(self):
        session = PackingSession("first-fit")
        session.submit(Item(0, 0.5, Interval(0.0, 4.0)))
        session.submit(Item(1, 0.9, Interval(1.0, 2.0)))
        snap = session.snapshot()
        assert isinstance(snap, EngineSnapshot)
        assert snap.time == 1.0
        assert snap.items_submitted == 2
        assert snap.active_items == 2
        assert snap.open_bins == 2
        assert snap.bins_opened == 2
        assert snap.usage_time == pytest.approx(5.0)
        session.advance(10.0)
        snap = session.snapshot()
        assert snap.active_items == 0
        assert snap.open_bins == 0

    def test_stats_counters(self):
        session = PackingSession("first-fit")
        assert isinstance(session.stats, EngineStats)
        items = uniform_random(40, seed=3)
        drive(session, items)
        stats = session.stats
        assert stats.items_submitted == 40
        assert stats.departures_processed == 40
        assert stats.bins_opened == len(session.packer.bins)
        assert stats.bins_retired == stats.bins_opened  # all departed at the end
        assert stats.peak_active_items >= 1
        assert stats.peak_open_bins >= 1
        assert stats.advances == 40
        d = stats.as_dict()
        assert set(d) >= {"items_submitted", "peak_open_bins", "submit_seconds"}


class TestPredictions:
    def test_nan_prediction_rejected(self):
        session = PackingSession("first-fit")
        with pytest.raises(ValidationError, match="NaN"):
            session.submit(Item(0, 0.5, Interval(0.0, 1.0)), float("nan"))

    def test_clamp_prediction(self):
        item = Item(0, 0.5, Interval(3.0, 4.0))
        assert clamp_prediction(item, 10.0) == 10.0
        assert clamp_prediction(item, 1.0) > 3.0  # never before arrival

    def test_overprediction_amended_to_actual(self):
        # Item 0 is predicted to stay forever but actually leaves at 1; the
        # bin must be closed at t=2, so item 1 opens a new bin.
        session = PackingSession("first-fit")
        session.submit(Item(0, 0.9, Interval(0.0, 1.0)), predicted_departure=100.0)
        session.submit(Item(1, 0.9, Interval(2.0, 3.0)))
        result = session.result()
        assert result.assignment[0] != result.assignment[1]
        result.validate()

    def test_underprediction_keeps_actual_occupancy(self):
        # Item 0 is predicted to leave at 1 but stays to 10: a later arrival
        # must still see the bin occupied.
        session = PackingSession("first-fit")
        session.submit(Item(0, 0.9, Interval(0.0, 10.0)), predicted_departure=1.0)
        session.submit(Item(1, 0.9, Interval(2.0, 3.0)))
        result = session.result()
        assert result.assignment[0] != result.assignment[1]
        result.validate()

    def test_perfect_prediction_is_identity(self, simple_items):
        with_pred = PackingSession("best-fit")
        plain = PackingSession("best-fit")
        for r in simple_items:
            with_pred.submit(r, predicted_departure=r.departure)
            plain.submit(r)
        assert with_pred.result().assignment == plain.result().assignment


class TestStreamingParity:
    """Streaming and batch packing must be byte-identical for every packer."""

    @pytest.mark.parametrize("name", online_names())
    @pytest.mark.parametrize("seed", [0, 7])
    def test_session_matches_pack(self, name, seed):
        items = uniform_random(120, seed=seed)
        kwargs = SPECIAL.get(name, {})
        session = PackingSession(name, **kwargs)
        drive(session, items)
        streamed = session.result()
        batch = get_packer(name, **kwargs).pack(items)
        assert streamed.assignment == batch.assignment
        assert streamed.total_usage() == pytest.approx(batch.total_usage(), rel=1e-12)
        streamed.validate()

    @pytest.mark.parametrize("name", online_names())
    def test_submit_only_matches_pack(self, name):
        # No explicit advances at all: retirement happens lazily on submit.
        items = uniform_random(80, seed=11)
        kwargs = SPECIAL.get(name, {})
        session = PackingSession(name, **kwargs)
        for r in items:
            session.submit(r)
        assert session.result().assignment == get_packer(name, **kwargs).pack(items).assignment


class TestCacheInvariants:
    """Incremental bin caches must equal exact recomputation after every event."""

    @pytest.mark.parametrize("name", ["first-fit", "usage-aware-fit"])
    def test_invariants_hold_after_every_event(self, name):
        items = uniform_random(60, seed=5)
        session = PackingSession(name)
        for event in event_stream(items):
            if event.kind is EventKind.ARRIVAL:
                session.submit(event.item)
            else:
                session.advance(event.time)
            for b in session.packer.bins:
                b.check_invariants()

    def test_invariants_hold_with_noisy_predictions(self):
        items = uniform_random(40, seed=9)
        session = PackingSession("first-fit")
        for i, r in enumerate(items):
            session.submit(r, predicted_departure=r.departure + (i % 3) * 0.7)
            for b in session.packer.bins:
                b.check_invariants()


def det_stats(session: PackingSession) -> dict[str, object]:
    """Deterministic EngineStats fields (timers measure wall clock)."""
    return {
        k: v for k, v in session.stats.as_dict().items() if not k.endswith("_seconds")
    }


class TestSubmitMany:
    """Batched submission must be bit-identical to the scalar submit loop."""

    #: Batch boundaries exercising singleton, small and remainder batches.
    CUTS = (0, 1, 8, 9, 150)

    def _run_batched(self, name: str, items: ItemList, **kw) -> PackingSession:
        session = PackingSession(name, **SPECIAL.get(name, {}), **kw)
        rows = list(items)
        cuts = [c for c in self.CUTS if c < len(rows)] + [len(rows)]
        for a, b in zip(cuts, cuts[1:]):
            got = session.submit_many(ArrivalBatch.from_items(rows[a:b]))
            assert got.shape == (b - a,)
        return session

    def _run_scalar(self, name: str, items: ItemList, **kw) -> PackingSession:
        session = PackingSession(name, **SPECIAL.get(name, {}), **kw)
        for r in items:
            session.submit(r)
        return session

    @pytest.mark.parametrize("name", online_names())
    def test_matches_scalar_submit(self, name):
        items = uniform_random(150, seed=13, arrival_span=60.0)
        scalar = self._run_scalar(name, items)
        batched = self._run_batched(name, items)
        assert scalar.result().assignment == batched.result().assignment
        assert scalar.result().total_usage() == batched.result().total_usage()
        assert det_stats(scalar) == det_stats(batched)
        assert scalar.snapshot() == batched.snapshot()

    def test_returns_indices_in_row_order(self):
        items = uniform_random(40, seed=3)
        session = PackingSession("first-fit")
        got = session.submit_many(ArrivalBatch.from_items(list(items)))
        assignment = session.result().assignment
        assert got.tolist() == [assignment[r.id] for r in items]

    def test_empty_batch_is_noop(self):
        session = PackingSession("first-fit")
        assert session.submit_many([]).shape == (0,)
        assert session.stats.items_submitted == 0

    def test_iterable_of_items_accepted(self, simple_items):
        a = PackingSession("first-fit")
        a.submit_many(iter(simple_items))
        b = self._run_scalar("first-fit", simple_items)
        assert a.result().assignment == b.result().assignment

    def test_mixed_submit_and_submit_many(self):
        items = uniform_random(90, seed=21, arrival_span=40.0)
        rows = list(items)
        scalar = self._run_scalar("vector-first-fit", items)
        mixed = PackingSession("vector-first-fit")
        mixed.submit_many(ArrivalBatch.from_items(rows[:30]))
        for r in rows[30:40]:
            mixed.submit(r)
        mixed.submit_many(ArrivalBatch.from_items(rows[40:]))
        assert scalar.result().assignment == mixed.result().assignment
        assert det_stats(scalar) == det_stats(mixed)
        assert scalar.snapshot() == mixed.snapshot()


class TestSubmitManyFaults:
    """Malformed batches take the scalar fallback: FaultPolicy semantics exact."""

    def _items(self):
        return [
            Item(0, 0.4, Interval(0.0, 10.0)),
            Item(1, 0.4, Interval(2.0, 12.0)),
            Item(2, 0.4, Interval(4.0, 14.0)),
        ]

    def test_out_of_order_row_skip_marks_minus_one(self):
        session = PackingSession(
            "first-fit", fault_policy=FaultPolicy("skip")
        )
        session.submit(Item(10, 0.3, Interval(5.0, 9.0)))
        # Second row arrives before the session clock: the batch falls back
        # to the scalar loop, which drops that row and returns -1 for it.
        batch = ArrivalBatch.from_items(
            [Item(11, 0.3, Interval(6.0, 9.0)), Item(12, 0.3, Interval(1.0, 9.0))]
        )
        got = session.submit_many(batch)
        assert got.tolist()[1] == -1
        assert got.tolist()[0] >= 0
        assert session.fault_policy.dropped == 1
        assert set(session.result().assignment) == {10, 11}

    def test_out_of_order_row_clamp_repairs_arrival(self):
        session = PackingSession(
            "first-fit", fault_policy=FaultPolicy("clamp")
        )
        session.submit(Item(10, 0.3, Interval(5.0, 9.0)))
        batch = ArrivalBatch.from_items([Item(11, 0.3, Interval(1.0, 9.0))])
        got = session.submit_many(batch)
        assert got.tolist() == [0]
        assert session.fault_policy.clamped == 1
        # The repaired arrival is the session clock, not the faulty time.
        assert session.result().items.by_id(11).arrival == 5.0

    def test_duplicate_id_in_batch_skip_marks_minus_one(self):
        session = PackingSession("first-fit", fault_policy=FaultPolicy("skip"))
        rows = self._items()
        rows.append(Item(0, 0.4, Interval(5.0, 15.0)))  # duplicate id 0
        got = session.submit_many(ArrivalBatch.from_items(rows))
        assert got.tolist()[3] == -1
        assert all(i >= 0 for i in got.tolist()[:3])
        assert session.fault_policy.dropped == 1

    def test_strict_batch_raises_like_scalar(self):
        session = PackingSession("first-fit")
        session.submit(Item(10, 0.3, Interval(5.0, 9.0)))
        with pytest.raises(ValidationError, match="arrival order"):
            session.submit_many(
                ArrivalBatch.from_items([Item(11, 0.3, Interval(1.0, 9.0))])
            )

    def test_fallback_matches_scalar_loop_exactly(self):
        # An unsorted (but internally consistent) batch: fallback must equal
        # running submit row by row with the same policy.
        rows = [
            Item(0, 0.4, Interval(0.0, 10.0)),
            Item(1, 0.4, Interval(4.0, 14.0)),
            Item(2, 0.4, Interval(2.0, 12.0)),  # out of order
            Item(3, 0.4, Interval(6.0, 16.0)),
        ]
        batched = PackingSession("first-fit", fault_policy=FaultPolicy("skip"))
        got = batched.submit_many(ArrivalBatch.from_items(rows))
        scalar = PackingSession("first-fit", fault_policy=FaultPolicy("skip"))
        want = [scalar.submit(r) for r in rows]
        assert got.tolist() == want
        assert scalar.result().assignment == batched.result().assignment
        assert det_stats(scalar) == det_stats(batched)


class TestFaultPolicyBinding:
    """A FaultPolicy bound to one session cannot be silently rebound."""

    def test_rebinding_bound_policy_rejected(self):
        policy = FaultPolicy("skip")
        PackingSession("first-fit", fault_policy=policy)
        with pytest.raises(ValidationError, match="already bound"):
            PackingSession("first-fit", fault_policy=policy)

    def test_explicit_registry_still_shareable(self):
        from repro.obs import TelemetryRegistry

        registry = TelemetryRegistry()
        policy = FaultPolicy("skip", registry=registry)
        PackingSession("first-fit", fault_policy=policy)
        # The user wired the registry themselves: sharing is deliberate.
        PackingSession("first-fit", fault_policy=policy)
        assert policy.registry is registry


@st.composite
def _session_script(draw):
    """Arrival-ordered rows cut into scalar-submit runs and batches."""
    dims = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=30))
    ids = draw(st.permutations(range(n)))
    # Few distinct arrivals: equal arrivals with descending ids are common,
    # so result()'s (arrival, id) sort must reorder the submitted rows.
    arrivals = sorted(float(draw(st.integers(min_value=0, max_value=6))) for _ in ids)
    items = [
        Item(
            item_id,
            tuple(draw(st.floats(min_value=0.05, max_value=0.9)) for _ in range(dims)),
            Interval(arrival, arrival + draw(st.floats(min_value=0.5, max_value=5.0))),
        )
        for item_id, arrival in zip(ids, arrivals)
    ]
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else [])
    bounds = [0, *cuts, n]
    runs = [
        (draw(st.booleans()), items[a:b]) for a, b in zip(bounds, bounds[1:])
    ]
    return dims, runs


class TestColumnarResult:
    """result() on a column-backed list equals the item-built reference."""

    @staticmethod
    def _drive(packer: str, runs) -> tuple[PackingSession, list[Item]]:
        session = PackingSession(packer)
        submitted = []
        for scalar, rows in runs:
            if scalar:
                for r in rows:
                    tagged = Item(r.id, r.sizes, r.interval, {"via": "submit"})
                    session.submit(tagged)
                    submitted.append(tagged)
            else:
                session.submit_many(ArrivalBatch.from_items(rows))
                submitted.extend(rows)
        return session, submitted

    @staticmethod
    def _verdict(result: PackingResult) -> str | None:
        try:
            result.validate()
        except ValidationError as exc:
            return str(exc)
        return None

    @settings(max_examples=60, deadline=None)
    @given(_session_script(), st.sampled_from(["vector-first-fit", "best-fit"]))
    def test_matches_item_built_reference(self, script, packer):
        dims, runs = script
        if packer == "best-fit" and dims > 1:
            packer = "vector-first-fit"
        session, submitted = self._drive(packer, runs)
        result = session.result()
        ref = PackingResult(ItemList(submitted), result.assignment)
        assert result.items._items is None  # validate/total_usage read columns
        assert result.assignment == ref.assignment
        assert result.total_usage().hex() == ref.total_usage().hex()
        assert self._verdict(result) == self._verdict(ref) is None
        # One bin for everything: the overflow message must match too.
        crammed = {i: 0 for i in result.assignment}
        assert self._verdict(PackingResult(result.items, crammed)) == self._verdict(
            PackingResult(ref.items, crammed)
        )
        assert result.items._items is None
        assert list(result.items) == list(ref.items)
        for r in submitted:
            assert result.items.by_id(r.id).tags == r.tags

    def test_overflow_message(self):
        session = PackingSession("vector-first-fit")
        session.submit_many(
            ArrivalBatch.from_arrays([5, 3], [1.0, 1.0], [4.0, 3.0], [[0.2, 0.7], [0.2, 0.6]])
        )
        session.submit(Item(9, (0.25, 0.25), Interval(2.0, 5.0), {"via": "submit"}))
        result = PackingResult(session.result().items, {3: 0, 5: 0, 9: 0})
        with pytest.raises(
            ValidationError,
            match=r"^bin 0 overflows \(dim 1\) at t=1\.0: level 1\.2999999999999998 > capacity 1\.0$",
        ):
            result.validate()
        assert [r.id for r in result.items] == [3, 5, 9]

    def test_batch_rows_have_no_tags(self):
        session = PackingSession("first-fit")
        session.submit_many([Item(0, 0.5, Interval(0.0, 1.0), {"app": "x"})])
        assert session.result().items.by_id(0).tags == {}

    def test_empty_session(self):
        result = PackingSession("first-fit").result()
        assert len(result.items) == 0 and result.total_usage() == 0.0
        result.validate()


class TestArrivalBatchFromItems:
    @pytest.mark.parametrize("dims", [1, 3])
    def test_size_matrix_layout(self, dims):
        rows = [Item(i, (0.1 * (i + 1),) * dims, Interval(i, i + 1.0)) for i in range(4)]
        sizes = ArrivalBatch.from_items(rows).sizes
        assert sizes.shape == (4, dims) and sizes.dtype == np.float64
        assert sizes.flags.c_contiguous
        assert sizes[:, -1].tolist() == [r.sizes[-1] for r in rows]

    def test_empty(self):
        batch = ArrivalBatch.from_items([])
        assert batch.sizes.shape == (0, 1) and len(batch) == 0
