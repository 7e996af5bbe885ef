"""Tests for the exact solvers (classical bin packing, OPT_total, tiny-OPT)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.algorithms import (
    DurationDescendingFirstFit,
    FirstFitPacker,
    SolverStats,
    bin_packing_min_bins,
    brute_force_min_usage,
    opt_total,
    opt_total_scan,
    optimal_packing,
)
from repro.algorithms.adversary import MemoCache, _slice_count
from repro.algorithms.optimal import _ffd_bins
from repro.bounds import best_lower_bound
from repro.core import Interval, Item, ItemList, SolverLimitError, ValidationError

from conftest import items_strategy


class TestBinPackingMinBins:
    def test_empty(self):
        assert bin_packing_min_bins([]) == 0

    def test_single(self):
        assert bin_packing_min_bins([0.5]) == 1

    def test_perfect_pairs(self):
        assert bin_packing_min_bins([0.6, 0.4, 0.7, 0.3]) == 2

    def test_all_large(self):
        assert bin_packing_min_bins([0.6, 0.6, 0.6]) == 3

    def test_ffd_suboptimal_instance(self):
        # A classic case where FFD needs one more bin than optimal:
        # optimal = 2 via {0.45,0.35,0.2} x2 ... construct a 3-vs-2 case.
        sizes = [0.5, 0.5, 0.34, 0.33, 0.33]
        # FFD: [0.5,0.5], [0.34,0.33,0.33] -> 2. exact must be <= 2.
        assert bin_packing_min_bins(sizes) == 2

    def test_branch_and_bound_beats_ffd(self):
        # FFD packs [0.41,0.41], [0.36,0.36], [0.23,0.23,...] suboptimally on
        # this well-known pattern; exact finds 2 bins where FFD uses 3.
        sizes = [0.41, 0.36, 0.23, 0.41, 0.36, 0.23]
        assert bin_packing_min_bins(sizes) == 2

    def test_float_dust(self):
        assert bin_packing_min_bins([0.1] * 10) == 1

    def test_invalid_size(self):
        with pytest.raises(ValidationError):
            bin_packing_min_bins([1.5])
        with pytest.raises(ValidationError):
            bin_packing_min_bins([0.0])

    def test_node_budget(self):
        # FFD is suboptimal here (3 vs 2 bins) so the search must run and
        # immediately exhaust its one-node budget.
        with pytest.raises(SolverLimitError) as exc_info:
            bin_packing_min_bins([0.41, 0.36, 0.23] * 2, max_nodes=1)
        assert exc_info.value.best_known == 3

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=10))
    def test_at_least_continuous_bound(self, sizes):
        n = bin_packing_min_bins(sizes)
        assert n >= sum(sizes) - 1e-9
        assert n <= len(sizes)

    @given(st.lists(st.floats(min_value=0.51, max_value=1.0), min_size=1, max_size=8))
    def test_all_big_items_need_own_bins(self, sizes):
        assert bin_packing_min_bins(sizes) == len(sizes)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=30))
    def test_ffd_unsorted_matches_presorted(self, sizes):
        tol = 1e-9
        expected = _ffd_bins(sorted(sizes, reverse=True), tol, presorted=True)
        assert _ffd_bins(sizes, tol) == expected

    def test_warm_start_upper_bound_keeps_exactness(self):
        sizes = [0.41, 0.36, 0.23] * 2
        exact = bin_packing_min_bins(sizes)
        stats = SolverStats()
        # A tight external bound meets the Prop 3 bound (S = 2): certified
        # before FFD or any search runs.
        assert bin_packing_min_bins(sizes, upper_bound=exact, stats=stats) == exact
        assert stats.certified == 1 and stats.nodes == 0
        # Here OPT = 7 lies strictly between the bound (6) and FFD (8), so
        # the search runs and starts from the warm bound, not FFD.
        sizes = [0.29, 0.3, 0.32, 0.34, 0.37, 0.38, 0.4, 0.42, 0.45, 0.51, 0.72, 0.73, 0.77]
        assert _ffd_bins(sizes, 1e-9) == 8
        stats = SolverStats()
        assert bin_packing_min_bins(sizes, upper_bound=7, stats=stats) == 7
        assert stats.warm_start_hits == 1 and stats.certified == 0
        # A loose-but-valid external bound must not change the optimum.
        assert bin_packing_min_bins(sizes, upper_bound=9) == 7

    def test_stats_count_nodes_and_prunes(self):
        stats = SolverStats()
        bin_packing_min_bins([0.41, 0.36, 0.23] * 2, stats=stats)
        assert stats.nodes > 0
        assert stats.lb_prunes + stats.dominance_hits > 0


TOL = 1e-9


def partition_min_bins(sizes, tol=TOL):
    """Independent oracle: fewest feasible blocks over all set partitions.

    A block is feasible when its exactly rounded sum is at most ``1 + tol``.
    Every partition of the items into blocks is enumerated (restricted
    growth: item ``i`` joins an earlier block or opens the next one), with
    no bounds, no sorting and no heuristic incumbent.
    """
    best = len(sizes)

    def assign(i, blocks):
        nonlocal best
        if i == len(sizes):
            if all(math.fsum(b) <= 1.0 + tol for b in blocks):
                best = min(best, len(blocks))
            return
        for block in blocks:
            block.append(sizes[i])
            assign(i + 1, blocks)
            block.pop()
        blocks.append([sizes[i]])
        assign(i + 1, blocks)
        blocks.pop()

    assign(0, [])
    return best


#: Tolerance edge cases: the optimum hinges on whether a bin may hold
#: exactly ``1 + tol`` and on sums a hair above an integer.
EDGE_CASES = {
    "halves": [0.5, 0.5],
    "half_and_half_plus_tol": [0.5, 0.5 + TOL],
    "half_and_half_plus_2tol": [0.5, 0.5 + 2 * TOL],
    "two_half_plus_tol": [0.5 + TOL, 0.5 + TOL],
    "two_half_plus_2tol": [0.5 + 2 * TOL, 0.5 + 2 * TOL],
    "halves_mixed": [0.5, 0.5, 0.5 + TOL, 0.5 + TOL],
    "halves_three_kinds": [0.5, 0.5 + TOL, 0.5 + 2 * TOL, 0.25, 0.25],
    "sum_k": [0.6, 0.4, 0.7, 0.3],
    "sum_k_plus_half_tol": [0.6, 0.4, 0.7, 0.3 + TOL / 2],
    "sum_k_plus_2tol_one_bin": [0.6, 0.4, 0.7, 0.3 + 2 * TOL],
    # Σ = 2 + 2·tol, yet two bins of level exactly 1 + tol hold it: a
    # continuous bound of ⌈Σ − tol⌉ = 3 would certify a warm bound of 3.
    "sum_k_plus_2tol_spread": [0.6, 0.4 + TOL, 0.7, 0.3 + TOL],
    "sum_1_plus_2tol": [0.3, 0.3, 0.4 + 2 * TOL],
    # FFD needs 3 bins, the optimum 2 exploits the tolerance in both bins.
    "sum_k_plus_2tol_ffd_trap": [0.41 + TOL, 0.36, 0.23, 0.41, 0.36, 0.23 + TOL],
    "all_above_half": [0.6, 0.7, 0.8, 0.5 + 2 * TOL],
    "all_just_above_half": [0.5 + 2 * TOL] * 4,
    "single_full": [1.0],
    "full_and_dust": [1.0, 1.0, TOL / 2],
    "ffd_trap": [0.41, 0.36, 0.23] * 2,
    "eight_items": [0.5, 0.5 + TOL, 0.25, 0.25, 0.125, 0.375, 0.625, 0.375],
}


def _slice_path(sizes, warm):
    """The adversary's per-slice answer for ``sizes`` under warm bound ``warm``."""
    return _slice_count(
        tuple(sorted(sizes)),
        warm,
        tol=TOL,
        max_nodes=2_000_000,
        memo=MemoCache(),
        stats=SolverStats(),
    )


class TestIndependentOracle:
    """Both solver entry points against :func:`partition_min_bins`.

    ``opt_total_scan`` shares the solver, so it cannot serve as the oracle.
    """

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_tolerance_edge_cases(self, name):
        sizes = EDGE_CASES[name]
        opt = partition_min_bins(sizes)
        assert bin_packing_min_bins(sizes) == opt
        # Warm upper bounds at the optimum and above it.
        for warm in sorted({opt, opt + 1, len(sizes)}):
            assert bin_packing_min_bins(sizes, upper_bound=warm) == opt
            assert _slice_path(sizes, warm) == opt

    def test_random_multisets(self):
        rng = np.random.default_rng(16)
        menu = np.array(
            [0.5, 0.5 + TOL, 0.5 + 2 * TOL, 0.25, 0.25 + TOL, 0.75, 1.0, 0.3, 0.4,
             0.6, 0.7, 0.2 + TOL / 2, 0.41, 0.36, 0.23, 0.125]
        )
        for _ in range(150):
            n = int(rng.integers(1, 9))
            if rng.random() < 0.5:
                sizes = [float(x) for x in rng.choice(menu, size=n)]
            else:
                sizes = [float(x) for x in rng.uniform(0.05, 0.7, size=n)]
            opt = partition_min_bins(sizes)
            assert bin_packing_min_bins(sizes) == opt, sizes
            warm = int(rng.integers(opt, len(sizes) + 1))
            assert _slice_path(sizes, warm) == opt, (sizes, warm)

    def test_slice_path_counts_certified_and_residue(self):
        stats = SolverStats()
        memo = MemoCache()
        ffd_trap = (0.23, 0.23, 0.36, 0.36, 0.41, 0.41)
        tolerant_fit = (0.5, 0.5 + TOL, 0.6)
        kw = dict(tol=TOL, max_nodes=2_000_000, memo=memo, stats=stats)
        assert _slice_count(tolerant_fit, 3, **kw) == 2  # FFD meets the bound
        assert _slice_count(ffd_trap, 2, **kw) == 2  # warm bound meets it
        assert stats.certified == 2 and len(memo) == 0
        assert _slice_count(ffd_trap, 3, **kw) == 2  # residue: searched
        assert _slice_count(ffd_trap, 4, **kw) == 2  # residue: memo hit
        assert (stats.memo_misses, stats.memo_hits, len(memo)) == (1, 1, 1)


class TestOptTotal:
    def test_empty(self):
        assert opt_total(ItemList([])) == 0.0

    def test_single_item(self):
        items = ItemList([Item(0, 0.5, Interval(0.0, 3.0))])
        assert opt_total(items) == pytest.approx(3.0)

    def test_two_compatible_items(self):
        items = ItemList(
            [Item(0, 0.5, Interval(0.0, 2.0)), Item(1, 0.5, Interval(0.0, 2.0))]
        )
        assert opt_total(items) == pytest.approx(2.0)

    def test_two_conflicting_items(self):
        items = ItemList(
            [Item(0, 0.6, Interval(0.0, 2.0)), Item(1, 0.6, Interval(1.0, 3.0))]
        )
        # [0,1): 1 bin, [1,2): 2 bins, [2,3): 1 bin.
        assert opt_total(items) == pytest.approx(1.0 + 2.0 + 1.0)

    def test_repacking_beats_fixed_assignment(self):
        # The adversary may repack at any time, so OPT_total can be lower
        # than any non-migratory packing: staircase of conflicting items.
        items = ItemList(
            [
                Item(0, 0.6, Interval(0.0, 2.0)),
                Item(1, 0.6, Interval(1.0, 3.0)),
                Item(2, 0.3, Interval(0.0, 3.0)),
            ]
        )
        value = opt_total(items)
        fixed_best = brute_force_min_usage(items)
        assert value <= fixed_best + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(items_strategy(max_items=8))
    def test_dominates_all_lower_bounds(self, items):
        value = opt_total(items)
        assert value >= best_lower_bound(items) - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(items_strategy(max_items=8))
    def test_below_any_algorithm(self, items):
        value = opt_total(items)
        for packer in (FirstFitPacker(), DurationDescendingFirstFit()):
            assert packer.pack(items).total_usage() >= value - 1e-9

    def test_node_budget_propagates(self):
        # Per-slice sizes where FFD is suboptimal, so the search must run.
        items = ItemList(
            [
                Item(i, s, Interval(0.0, 1.0))
                for i, s in enumerate([0.41, 0.36, 0.23] * 2)
            ]
        )
        with pytest.raises(SolverLimitError):
            opt_total_scan(items, max_nodes=1)

    @settings(max_examples=25, deadline=None)
    @given(items_strategy(max_items=8))
    def test_sweep_matches_scan_bitexact(self, items):
        assert opt_total(items) == opt_total_scan(items)


class TestOptimalPacking:
    def test_refuses_large_instances(self):
        items = ItemList([Item(i, 0.1, Interval(0, 1)) for i in range(30)])
        with pytest.raises(ValidationError):
            optimal_packing(items)

    def test_matches_brute_force(self):
        items = ItemList(
            [
                Item(0, 0.6, Interval(0.0, 2.0)),
                Item(1, 0.5, Interval(1.0, 4.0)),
                Item(2, 0.4, Interval(0.5, 3.0)),
                Item(3, 0.3, Interval(2.0, 5.0)),
            ]
        )
        result = optimal_packing(items)
        result.validate()
        assert result.total_usage() == pytest.approx(brute_force_min_usage(items))

    @settings(max_examples=15, deadline=None)
    @given(items_strategy(max_items=6))
    def test_random_matches_brute_force(self, items):
        result = optimal_packing(items)
        result.validate()
        assert result.total_usage() == pytest.approx(
            brute_force_min_usage(items), rel=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(items_strategy(max_items=6))
    def test_sandwiched_between_adversary_and_heuristics(self, items):
        best_fixed = optimal_packing(items).total_usage()
        assert opt_total(items) <= best_fixed + 1e-9
        assert FirstFitPacker().pack(items).total_usage() >= best_fixed - 1e-9

    def test_seeded_seven_item_instances_match_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            items = ItemList(
                [
                    Item(
                        i,
                        float(rng.uniform(0.05, 1.0)),
                        Interval(a := float(rng.uniform(0, 5)), a + float(rng.uniform(0.5, 4))),
                    )
                    for i in range(7)
                ]
            )
            result = optimal_packing(items)
            result.validate()
            assert result.total_usage() == pytest.approx(
                brute_force_min_usage(items), rel=1e-9
            )

    def test_budget_overflow_before_any_solution_carries_none(self):
        items = ItemList(
            [Item(i, 0.4, Interval(float(i), float(i) + 2.0)) for i in range(4)]
        )
        with pytest.raises(SolverLimitError) as exc_info:
            optimal_packing(items, max_nodes=1)
        assert exc_info.value.best_known is None

    def test_budget_overflow_after_a_solution_carries_float_usage(self):
        items = ItemList(
            [Item(i, 0.4, Interval(0.25 * i, 0.25 * i + 1.5)) for i in range(4)]
        )
        # Enough nodes to reach one full assignment (depth 4 + root), not
        # enough to finish the proof: best_known must be the float usage.
        with pytest.raises(SolverLimitError) as exc_info:
            optimal_packing(items, max_nodes=5)
        best = exc_info.value.best_known
        assert isinstance(best, float) and not isinstance(best, bool)
        assert best == optimal_packing(items).total_usage() or best > 0.0
