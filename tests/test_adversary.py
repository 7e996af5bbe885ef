"""Tests for the fast adversary pipeline: sweep line, memo cache, oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AdversaryOracle,
    MemoCache,
    SolverStats,
    default_memo,
    opt_total,
    opt_total_incremental,
    opt_total_scan,
)
from repro.bounds.search import _mutate, _random_instance
from repro.core import Interval, Item, ItemList, SolverLimitError
from repro.core.stepfun import DEFAULT_TOL
from repro.workloads import uniform_random

from conftest import items_strategy

#: Per-slice sizes whose FFD solution is suboptimal (3 vs 2 bins), so the
#: branch and bound genuinely has to search.
GAP_SIZES = (0.41, 0.36, 0.23, 0.41, 0.36, 0.23)


def gap_instance() -> ItemList:
    """One elementary interval containing :data:`GAP_SIZES`."""
    return ItemList(
        [Item(i, s, Interval(0.0, 1.0)) for i, s in enumerate(GAP_SIZES)]
    )


def random_mutation(rng: np.random.Generator, items: ItemList) -> ItemList:
    """Mutate one random item's size and interval."""
    records = items.to_records()
    idx = int(rng.integers(len(records)))
    rec = dict(records[idx])
    arrival = max(0.0, float(rec["arrival"]) + float(rng.normal(0, 1.0)))
    duration = max(0.2, float(rec["departure"]) - float(rec["arrival"]))
    if rng.random() < 0.5:
        duration = float(np.clip(duration * np.exp(rng.normal(0, 0.3)), 0.2, 10.0))
    if rng.random() < 0.5:
        rec["size"] = float(np.clip(float(rec["size"]) * np.exp(rng.normal(0, 0.3)), 0.02, 1.0))
    rec["arrival"] = arrival
    rec["departure"] = arrival + duration
    records[idx] = rec
    return ItemList.from_records(records)


class TestMemoCache:
    def test_key_is_canonical(self):
        a = MemoCache.key((0.25, 0.5), 1e-9)
        b = MemoCache.key((0.25, 0.5), 1e-9)
        assert a == b
        assert MemoCache.key((0.25, 0.5), 1e-6) != a
        assert MemoCache.key((0.5, 0.25), 1e-9) != a  # caller sorts; order matters

    def test_put_get_clear(self):
        memo = MemoCache()
        key = MemoCache.key((0.5,), 1e-9)
        assert memo.get(key) is None
        memo.put(key, 1)
        assert memo.get(key) == 1
        assert len(memo) == 1
        memo.clear()
        assert memo.get(key) is None

    def test_eviction_at_capacity(self):
        memo = MemoCache(max_entries=2)
        keys = [MemoCache.key((s,), 1e-9) for s in (0.1, 0.2, 0.3)]
        for i, key in enumerate(keys):
            memo.put(key, i)
        assert len(memo) == 2
        assert memo.get(keys[0]) is None  # oldest evicted
        assert memo.get(keys[2]) == 2

    def test_disk_roundtrip(self, tmp_path):
        path = tmp_path / "memo.pkl"
        memo = MemoCache(path)
        key = MemoCache.key((0.4, 0.4), 1e-9)
        memo.put(key, 1)
        assert memo.save() == 1
        fresh = MemoCache(path)
        assert fresh.get(key) == 1

    def test_save_merges_with_disk(self, tmp_path):
        path = tmp_path / "memo.pkl"
        first = MemoCache(path)
        key_a = MemoCache.key((0.1,), 1e-9)
        first.put(key_a, 1)
        first.save()
        second = MemoCache(path=None)
        second.path = path  # skip eager load: simulate a concurrent worker
        key_b = MemoCache.key((0.9,), 1e-9)
        second.put(key_b, 1)
        assert second.save() == 2
        merged = MemoCache(path)
        assert merged.get(key_a) == 1 and merged.get(key_b) == 1

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "memo.pkl"
        path.write_bytes(b"not a pickle")
        memo = MemoCache(path)
        assert len(memo) == 0

    def test_default_memo_is_shared(self):
        assert default_memo() is default_memo()


class TestOptTotalSweep:
    def test_empty(self):
        assert opt_total(ItemList([])) == 0.0

    def test_matches_scan_on_workload(self):
        items = uniform_random(120, seed=3)
        assert opt_total(items, memo=MemoCache()) == opt_total_scan(items)

    def test_matches_scan_with_gaps(self):
        # Disjoint bursts: the sweep must reset across empty slices.
        items = ItemList(
            [
                Item(0, 0.6, Interval(0.0, 1.0)),
                Item(1, 0.6, Interval(0.5, 1.5)),
                Item(2, 0.7, Interval(5.0, 6.0)),
            ]
        )
        assert opt_total(items, memo=MemoCache()) == opt_total_scan(items)

    @settings(max_examples=40, deadline=None)
    @given(items_strategy(max_items=10))
    def test_random_parity_is_bitexact(self, items):
        assert opt_total(items, memo=MemoCache()) == opt_total_scan(items)

    def test_node_budget_propagates(self):
        with pytest.raises(SolverLimitError):
            opt_total(gap_instance(), max_nodes=1, memo=MemoCache())

    def test_memo_turns_budget_overflow_into_answer(self):
        memo = MemoCache()
        items = gap_instance()
        value = opt_total(items, memo=memo)
        # A cached slice needs no search at all, so even a 1-node budget works.
        assert opt_total(items, max_nodes=1, memo=memo) == value

    def test_stats_populated(self):
        stats = SolverStats()
        items = uniform_random(50, seed=1)
        opt_total(items, memo=MemoCache(), stats=stats)
        assert stats.slices > 0
        assert stats.full_evals == 1
        assert stats.memo_misses > 0
        opt_total(items, memo=MemoCache(), stats=stats)
        assert stats.full_evals == 2

    def test_memo_hits_across_calls(self):
        memo = MemoCache()
        items = uniform_random(40, seed=2)
        stats = SolverStats()
        opt_total(items, memo=memo, stats=stats)
        assert stats.memo_hits < stats.slices
        again = SolverStats()
        opt_total(items, memo=memo, stats=again)
        assert again.memo_misses == 0


class TestAdversaryOracle:
    def test_single_mutation_parity(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            base = uniform_random(14, seed=trial, arrival_span=8.0)
            mutated = random_mutation(rng, base)
            assert opt_total_incremental(base, mutated) == opt_total_scan(mutated)

    def test_chained_mutations_parity(self):
        rng = np.random.default_rng(1)
        oracle = AdversaryOracle()
        current = uniform_random(12, seed=9, arrival_span=8.0)
        oracle.opt_total(current)
        for _ in range(20):
            current = random_mutation(rng, current)
            assert oracle.opt_total(current) == opt_total_scan(current)

    def test_reject_and_reanchor_parity(self):
        # Hill-climb pattern: candidates from one baseline, some rejected.
        rng = np.random.default_rng(2)
        oracle = AdversaryOracle()
        current = uniform_random(12, seed=4, arrival_span=8.0)
        oracle.opt_total(current)
        for step in range(20):
            candidate = random_mutation(rng, current)
            assert oracle.opt_total(candidate) == opt_total_scan(candidate)
            if rng.random() < 0.5:
                current = candidate
            else:
                oracle.opt_total(current)  # re-anchor at the kept baseline

    def test_incremental_path_taken_and_slices_reused(self):
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        base = uniform_random(20, seed=5, arrival_span=30.0)
        oracle.opt_total(base)
        rng = np.random.default_rng(3)
        oracle.opt_total(random_mutation(rng, base))
        assert stats.incremental_evals == 1
        assert stats.slices_reused > 0

    def test_identical_instance_is_free(self):
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        items = uniform_random(15, seed=6)
        value = oracle.opt_total(items)
        assert oracle.opt_total(items) == value
        assert stats.full_evals == 1
        assert stats.incremental_evals == 0

    def test_falls_back_to_full_on_many_changes(self):
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        base = uniform_random(10, seed=7)
        oracle.opt_total(base)
        other = uniform_random(10, seed=8)  # same ids, all items differ
        assert oracle.opt_total(other) == opt_total_scan(other)
        assert stats.incremental_evals == 0
        assert stats.full_evals == 2

    def test_different_id_sets_fall_back_to_full(self):
        oracle = AdversaryOracle()
        base = uniform_random(10, seed=1)
        oracle.opt_total(base)
        grown = ItemList(list(base) + [Item(999, 0.5, Interval(0.0, 1.0))])
        assert oracle.opt_total(grown) == opt_total_scan(grown)

    def test_budget_overflow_leaves_baseline_intact(self):
        oracle = AdversaryOracle(max_nodes=1)
        with pytest.raises(SolverLimitError):
            oracle.opt_total(gap_instance())
        easy = ItemList([Item(0, 0.5, Interval(0.0, 2.0))])
        assert oracle.opt_total(easy) == pytest.approx(2.0)

    def test_reset_forgets_baseline(self):
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        items = uniform_random(12, seed=2)
        oracle.opt_total(items)
        oracle.reset()
        oracle.opt_total(items)
        assert stats.full_evals == 2

    def test_empty_items(self):
        assert AdversaryOracle().opt_total(ItemList([])) == 0.0


def assert_matches_full(oracle: AdversaryOracle, items: ItemList) -> None:
    """Evaluate ``items`` on ``oracle``; its remembered slices must equal a
    from-scratch sweep's boundaries, multisets and optima, and its total
    the reference scan's."""
    total = oracle.opt_total(items)
    sizes, counts, events = AdversaryOracle()._full(items)
    assert oracle._events.times == events.times == items.event_times()
    assert oracle._sizes == sizes
    assert oracle._counts == counts
    assert total == opt_total_scan(items)


def moved(items: ItemList, item_id: int, **changes: float) -> ItemList:
    """``items`` with one item's size/arrival/departure replaced."""
    r = items.by_id(item_id)
    size = changes.get("size", r.size)
    arrival = changes.get("arrival", r.arrival)
    departure = changes.get("departure", r.departure)
    return items.replace(Item(item_id, size, Interval(arrival, departure)))


class TestOracleSplice:
    """Splicing untouched slice runs reproduces the full sweep exactly."""

    @pytest.fixture
    def base(self) -> ItemList:
        return ItemList(
            [
                Item(0, 0.3, Interval(0.0, 10.0)),
                Item(1, 0.4, Interval(2.0, 6.0)),
                Item(2, 0.2, Interval(4.0, 8.0)),
                Item(3, 0.5, Interval(1.0, 9.0)),
                Item(4, 0.6, Interval(3.0, 5.0)),
            ]
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mutation_chains_match_full_sweep(self, seed):
        # Hill-climb pattern: each candidate mutates the kept instance; half
        # are kept, so the baseline is sometimes two mutations away.
        rng = np.random.default_rng(seed)
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        current = _random_instance(rng, 14, 10.0, 0.5, 8.0)
        assert_matches_full(oracle, current)
        for _ in range(500):
            candidate = _mutate(rng, current, 10.0, 0.5, 8.0)
            assert_matches_full(oracle, candidate)
            if rng.random() < 0.5:
                current = candidate
        assert stats.incremental_evals > 400
        assert stats.slices_reused > 0

    def test_window_edge_at_new_only_event(self, base):
        oracle = AdversaryOracle()
        assert_matches_full(oracle, base)
        # The untouched slice before the window now ends at 5.5, a time
        # only the new instance has ...
        assert_matches_full(oracle, moved(base, 1, departure=5.5))
        # ... and the untouched slice after this window starts at 7.5.
        assert_matches_full(oracle, moved(base, 1, departure=7.5))
        assert_matches_full(oracle, moved(base, 2, arrival=0.5))

    def test_item_moved_before_first_and_past_last_event(self, base):
        oracle = AdversaryOracle()
        assert_matches_full(oracle, base)
        early = moved(base, 4, arrival=-3.0, departure=-1.0)
        assert_matches_full(oracle, early)
        late = moved(early, 4, arrival=12.0, departure=14.0)
        assert_matches_full(oracle, late)
        assert_matches_full(oracle, moved(late, 0, arrival=11.0, departure=13.0))
        assert_matches_full(oracle, base)

    def test_shared_event_times(self, base):
        oracle = AdversaryOracle()
        assert_matches_full(oracle, base)
        # Onto times other items already have, then off them again.
        shared = moved(base, 4, arrival=2.0, departure=6.0)
        assert_matches_full(oracle, shared)
        assert_matches_full(oracle, moved(shared, 1, arrival=4.0, departure=8.0))
        assert_matches_full(oracle, moved(shared, 4, arrival=3.0, departure=6.0))

    def test_size_only_change(self, base):
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        assert_matches_full(oracle, base)
        assert_matches_full(oracle, moved(base, 3, size=0.45))
        assert stats.incremental_evals == 1

    def test_mutation_that_changes_nothing(self, base):
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        assert_matches_full(oracle, base)
        same = moved(base, 2)  # a new, equal Item object
        assert same.by_id(2) is not base.by_id(2)
        slices = stats.slices
        assert_matches_full(oracle, same)
        assert stats.incremental_evals == 0
        assert stats.slices == slices


#: Sizes whose slice sums land on an integer, or an integer ± tol: the edge
#: of the Prop 3 bound's ⌈(S − tol)/(1 + tol)⌉ and of its "> ½ + tol" count.
EDGE_SIZES = (
    0.5,
    0.25,
    0.125,
    0.75,
    1.0,
    0.1,
    0.2,
    0.3,
    0.5 + DEFAULT_TOL,
    0.5 - DEFAULT_TOL,
    0.25 + DEFAULT_TOL / 2,
    0.25 - DEFAULT_TOL / 2,
)

edge_items = st.lists(
    st.tuples(
        st.sampled_from(EDGE_SIZES),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=3,
    max_size=12,
).map(
    lambda rows: ItemList(
        Item(i, s, Interval(float(a), float(a + d))) for i, (s, a, d) in enumerate(rows)
    )
)


class TestBoundFirstRejection:
    """A rejection target never changes an answer the search acts on."""

    @settings(max_examples=150, deadline=None)
    @given(base=edge_items, data=st.data())
    def test_rejection_is_sound(self, base, data):
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        oracle.opt_total(base)
        current = base
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            item_id = data.draw(st.sampled_from([r.id for r in current]))
            arrival = float(data.draw(st.integers(min_value=0, max_value=5)))
            duration = float(data.draw(st.integers(min_value=1, max_value=4)))
            size = data.draw(st.sampled_from(EDGE_SIZES))
            candidate = current.replace(
                Item(item_id, size, Interval(arrival, arrival + duration))
            )
            exact = opt_total(candidate, memo=MemoCache())
            usage = exact * data.draw(st.sampled_from([0.5, 1.0, 1.3, 2.0]))
            ratio = usage / exact
            target = data.draw(
                st.sampled_from(
                    [
                        ratio,  # a tie must reject
                        np.nextafter(ratio, 0.0),
                        np.nextafter(ratio, np.inf),
                        ratio * 0.9,
                        ratio * 1.1,
                    ]
                )
            )
            rejects = stats.bound_rejects
            got = oracle.opt_total(candidate, target=(usage, target))
            if got is None:
                assert usage / exact <= target
                assert stats.bound_rejects == rejects + 1
            else:
                assert got == exact
                assert stats.bound_rejects == rejects
            if target == ratio:
                assert got is None or usage / got <= target
            if got is None or data.draw(st.booleans()):
                # The next call, after a rejection too, is exact bit for bit.
                again = oracle.opt_total(candidate)
                assert again == exact == opt_total_scan(candidate)
            if data.draw(st.booleans()):
                current = candidate

    def test_tie_rejects_without_solving(self):
        base = ItemList(
            [
                Item(0, 0.5, Interval(0.0, 4.0)),
                Item(1, 0.5 + DEFAULT_TOL, Interval(1.0, 3.0)),
                Item(2, 0.25, Interval(2.0, 5.0)),
            ]
        )
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        oracle.opt_total(base)
        candidate = moved(base, 2, size=0.5 - DEFAULT_TOL)
        exact = opt_total(candidate, memo=MemoCache())
        usage = 1.25 * exact
        certified = stats.certified
        assert oracle.opt_total(candidate, target=(usage, usage / exact)) is None
        assert stats.certified == certified and stats.bound_rejects == 1
        # Beyond the exact ratio the candidate is accepted, with its exact value.
        beaten = np.nextafter(usage / exact, 0.0)
        assert oracle.opt_total(candidate, target=(usage, beaten)) == exact

    def test_rejection_keeps_the_baseline(self):
        # The hill climb's pattern: only an exactly answered candidate can
        # be accepted, so the baseline stays within two items of the next
        # candidate and every evaluation takes the incremental path.
        from repro.algorithms import FirstFitPacker

        rng = np.random.default_rng(4)
        packer = FirstFitPacker()
        stats = SolverStats()
        oracle = AdversaryOracle(stats=stats)
        current = _random_instance(rng, 14, 10.0, 0.5, 8.0)
        current_ratio = packer.pack(current).total_usage() / oracle.opt_total(current)
        for _ in range(300):
            candidate = _mutate(rng, current, 10.0, 0.5, 8.0)
            usage = packer.pack(candidate).total_usage()
            exact = opt_total_scan(candidate)
            got = oracle.opt_total(candidate, target=(usage, current_ratio))
            if got is None:
                assert usage / exact <= current_ratio
                assert oracle._items is not candidate
                continue
            assert got == exact and oracle._items is candidate
            if usage / got > current_ratio:
                current, current_ratio = candidate, usage / got
        assert stats.full_evals == 1
        assert stats.bound_rejects > 150
        assert stats.incremental_evals + stats.bound_rejects >= 290


class TestSolverStats:
    def test_merge_adds_counters(self):
        a = SolverStats(nodes=1, memo_hits=2, slices=3)
        b = SolverStats(nodes=10, lb_prunes=5, full_evals=1)
        a.merge(b)
        assert a.nodes == 11 and a.lb_prunes == 5 and a.memo_hits == 2
        assert a.slices == 3 and a.full_evals == 1

    def test_as_dict_covers_all_fields(self):
        stats = SolverStats()
        d = stats.as_dict()
        assert set(d) == {
            "nodes",
            "lb_prunes",
            "dominance_hits",
            "warm_start_hits",
            "memo_hits",
            "memo_misses",
            "slices",
            "slices_reused",
            "incremental_evals",
            "full_evals",
            "certified",
            "bound_rejects",
        }

    def test_exposed_via_analysis(self):
        from repro.analysis import MemoCache as M
        from repro.analysis import SolverStats as S

        assert S is SolverStats and M is MemoCache
