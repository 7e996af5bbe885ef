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

import pytest

from repro.algorithms import available_packers, get_packer
from repro.algorithms.base import OnlinePacker
from repro.core import (
    ArrivalBatch,
    EventKind,
    Interval,
    Item,
    ItemList,
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
