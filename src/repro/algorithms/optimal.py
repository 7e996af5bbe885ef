"""Exact solvers: classical bin packing, the repacking adversary, and tiny-OPT.

The paper measures all ratios against the *optimal offline adversary that can
repack everything at any time* (§3.2):

    ``OPT_total(R) = ∫ OPT(R, t) dt``

where ``OPT(R, t)`` is the minimum number of unit bins into which the items
active at time ``t`` can be packed — a classical (static) bin packing
instance.  The production solver for the integral lives in
:mod:`repro.algorithms.adversary` (sweep line + memoization + warm starts);
this module keeps the building blocks: the exact classical solver
:func:`bin_packing_min_bins` (Prop 3 certificate → FFD → branch and bound
on the residue, with closing perfect-fit dominance and optional
warm-started upper bounds), the private certificate and search entry
points the adversary calls on presorted slices, its
:class:`SolverStats` observability counters, and
:func:`opt_total_scan` — the straightforward one-rescan-per-interval
reference implementation that benches and parity tests compare against.

For very small instances, :func:`optimal_packing` additionally finds the best
*non-repacking* assignment (the true optimum of the DBP problem itself) by
exhaustive branch-and-bound over assignments; it is used in tests to sanity
check that ``opt_total <= optimal_packing`` and that the approximation
algorithms sit between the two.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..core.bins import Bin
from ..core.exceptions import SolverLimitError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..resilience.deadline import Deadline
from ..core.items import ItemList
from ..core.packing import PackingResult
from ..core.stepfun import DEFAULT_TOL
from ..obs import Histogram, TelemetryRegistry

__all__ = [
    "SolverStats",
    "bin_packing_min_bins",
    "opt_total_scan",
    "optimal_packing",
]


#: Counter cells behind :class:`SolverStats`, in declaration (report) order,
#: with the doc of each attribute view.
_SOLVER_DOCS = {
    "nodes": "Branch-and-bound nodes expanded.",
    "lb_prunes": "In-tree branches cut because the continuous bound met the incumbent.",
    "dominance_hits": "Closing perfect-fit dominance applications.",
    "warm_start_hits": "Searches whose warm-started upper bound beat the FFD bound.",
    "memo_hits": "Residue slices answered from the memo cache.",
    "memo_misses": "Residue slices that had to be searched.",
    "slices": "Elementary intervals processed by ``opt_total``.",
    "slices_reused": "Slices an incremental re-evaluation copied from the previous one.",
    "incremental_evals": "Oracle evaluations the incremental path answered exactly.",
    "full_evals": "Evaluations that swept the whole timeline.",
    "certified": "Instances answered by the Prop 3 certificate, without search.",
    "bound_rejects": "Oracle evaluations whose rejection target the Prop 3 bounds proved.",
}
SOLVER_FIELDS = tuple(_SOLVER_DOCS)


def _counter_view(name: str) -> property:
    """Read/write attribute over the ``_<name>`` counter cell."""
    slot = f"_{name}"

    def get(self: "SolverStats") -> int:
        return getattr(self, slot).value

    def put(self: "SolverStats", value: int) -> None:
        getattr(self, slot).value = value

    return property(get, put, doc=_SOLVER_DOCS[name])


class SolverStats:
    """Mutable counters of the exact adversary pipeline.

    The :class:`~repro.engine.EngineStats` of the solver layer: every
    component that accepts a ``stats`` argument increments these in place, so
    one object threaded through a sweep aggregates the whole run.  Each
    field is a thin view over a ``solver.<field>`` counter cell in
    ``self.registry`` — pass a shared
    :class:`~repro.obs.TelemetryRegistry` to aggregate the adversary's
    counters with the rest of a run's telemetry (non-zero constructor values
    *add* into an already-populated shared registry).

    Attributes:
        nodes: Branch-and-bound nodes expanded.
        lb_prunes: Branches cut inside the search tree because the
            continuous bound met the incumbent.
        dominance_hits: Closing perfect-fit dominance applications (the
            current item filled a bin that no two further items could enter,
            so all sibling branches were skipped).
        warm_start_hits: Searches whose warm-started upper bound (previous
            slice's optimum plus its arrivals) beat the FFD bound.
        memo_hits: Residue slices (not certified) answered from the memo.
        memo_misses: Residue slices that had to be searched.
        slices: Elementary intervals processed by ``opt_total``.
        slices_reused: Slices an incremental re-evaluation copied verbatim
            from the previous evaluation (no rescan, no memo lookup).
        incremental_evals: Oracle evaluations served by the incremental
            (mutation-window) path to an exact value (bound rejections
            count in ``bound_rejects`` instead).
        full_evals: Oracle / ``opt_total`` evaluations that swept the whole
            timeline.
        certified: Instances answered by the Prop 3 certificate — the
            lower bound met the warm upper bound or the FFD count — with no
            memo lookup and no search.
        bound_rejects: Oracle evaluations given a rejection target that
            the spliced exact counts plus the Prop 3 bounds of the
            re-walked slices proved, leaving those slices unsolved (see
            :meth:`~repro.algorithms.AdversaryOracle.opt_total`).
        solve_latency: Per-solve latency :class:`~repro.obs.Histogram` of
            the branch-and-bound searches the sweep runs on residue memo
            misses (recorded only while telemetry timing is enabled; not
            part of :meth:`as_dict`).
        registry: The backing :class:`~repro.obs.TelemetryRegistry`.
    """

    __slots__ = ("registry", "_solve_latency") + tuple(f"_{name}" for name in SOLVER_FIELDS)

    def __init__(self, *, registry: TelemetryRegistry | None = None, **initial: int) -> None:
        self.registry = registry if registry is not None else TelemetryRegistry()
        for name in SOLVER_FIELDS:
            cell = self.registry.counter(f"solver.{name}")
            cell.value += int(initial.pop(name, 0))
            setattr(self, f"_{name}", cell)
        if initial:
            raise TypeError(f"unknown SolverStats fields: {sorted(initial)}")
        self._solve_latency = self.registry.histogram("solver.solve_latency")

    # -- the attribute API (thin views over the registry cells) --------------

    nodes = _counter_view("nodes")
    lb_prunes = _counter_view("lb_prunes")
    dominance_hits = _counter_view("dominance_hits")
    warm_start_hits = _counter_view("warm_start_hits")
    memo_hits = _counter_view("memo_hits")
    memo_misses = _counter_view("memo_misses")
    slices = _counter_view("slices")
    slices_reused = _counter_view("slices_reused")
    incremental_evals = _counter_view("incremental_evals")
    full_evals = _counter_view("full_evals")
    certified = _counter_view("certified")
    bound_rejects = _counter_view("bound_rejects")

    @property
    def solve_latency(self) -> Histogram:
        """Per-search latency distribution of residue branch and bound."""
        return self._solve_latency

    # -- aggregation and serialisation ---------------------------------------

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for tabulation and JSON reports."""
        return {name: getattr(self, name) for name in SOLVER_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "SolverStats":
        """Rebuild stats from :meth:`as_dict` output (JSON round-trip).

        Missing fields read as 0, so records written before a counter
        existed (e.g. sweep journals without ``certified``) still load.
        """
        return cls(**{k: int(v) for k, v in data.items()})

    def merge(self, other: "SolverStats") -> None:
        """Add ``other``'s counters (and latency buckets) into this object."""
        for name in SOLVER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other._solve_latency.count:
            self._solve_latency.merge(other._solve_latency)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolverStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"SolverStats({self.as_dict()!r})"


# ---------------------------------------------------------------------------
# Classical bin packing (sizes only), exact
# ---------------------------------------------------------------------------


def _ffd_bins(sizes: Iterable[float], tol: float, *, presorted: bool = False) -> int:
    """First-Fit-Decreasing upper bound on the optimal bin count.

    Args:
        sizes: Item sizes.
        tol: Capacity tolerance.
        presorted: Set when ``sizes`` is already in decreasing order (e.g. a
            reversed ascending slice) to skip the sort.
    """
    levels: list[float] = []
    ordered = sizes if presorted else sorted(sizes, reverse=True)
    for s in ordered:
        for i, lvl in enumerate(levels):
            if lvl + s <= 1.0 + tol:
                levels[i] = lvl + s
                break
        else:
            levels.append(s)
    return len(levels)


def _prop3_bound(ascending: Sequence[float], tol: float) -> int:
    """The Proposition 3 lower bound on a non-empty ascending multiset.

    The larger of the continuous bound ⌈S⌉ and the number of items above
    one half, no two of which share a bin.
    """
    # The sum is taken afresh from the slice's own sizes, never carried
    # between slices, so rounding drift cannot inflate the bound.  A bin
    # accepts items up to level 1 + tol, so the total is divided by that
    # capacity: ⌈S − tol⌉ alone would claim 3 bins for (½, ½, ½+tol, ½+tol),
    # which fits two bins filled to exactly 1 + tol.
    return max(
        math.ceil((sum(ascending) - tol) / (1.0 + tol)),
        len(ascending) - bisect_right(ascending, 0.5 + tol),
    )


def _certificate(
    ascending: Sequence[float],
    upper_bound: int | None,
    tol: float,
    lower_bound: int | None = None,
) -> tuple[int | None, int]:
    """Settle a non-empty ascending multiset without search, if possible.

    Returns ``(count, ffd)``: ``count`` is the exact optimum when the
    :func:`_prop3_bound` (or ``lower_bound``, when the caller already has
    it) meets ``upper_bound`` (checked first, so FFD is skipped) or the FFD
    count, and ``None`` otherwise; ``ffd`` is then the FFD count, the
    incumbent :func:`_branch_and_bound` starts from.
    """
    lb = _prop3_bound(ascending, tol) if lower_bound is None else lower_bound
    if upper_bound is not None and lb >= upper_bound:
        return upper_bound, upper_bound
    ffd = _ffd_bins(reversed(ascending), tol, presorted=True)
    return (ffd if lb >= ffd else None), ffd


def _branch_and_bound(
    order: Sequence[float],
    ffd: int,
    upper_bound: int | None,
    *,
    tol: float,
    max_nodes: int,
    stats: SolverStats | None,
    deadline: "Deadline | None",
) -> int:
    """Exact optimum of a non-empty multiset given in decreasing order.

    The search behind :func:`bin_packing_min_bins`, without its validation
    and sort: the adversary calls it directly on the residue slices the
    certificate left open.  The incumbent starts at ``ffd``, or at
    ``upper_bound`` when that is smaller (a warm start).
    """
    n = len(order)
    best_found = ffd
    if upper_bound is not None and upper_bound < ffd:
        best_found = upper_bound
        if stats is not None:
            stats.warm_start_hits += 1
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i]
    nodes = 0
    smallest = order[-1]
    # A bin whose total residual is below this can receive at most one more
    # item in any completion — the closing perfect-fit dominance condition.
    closing_residual = 2.0 * smallest

    def search(i: int, levels: list[float]) -> None:
        nonlocal best_found, nodes
        nodes += 1
        if nodes > max_nodes:
            if stats is not None:
                stats.nodes += nodes
            raise SolverLimitError(
                f"bin packing B&B exceeded {max_nodes} nodes", best_known=best_found
            )
        # Deadline checks are strided: one clock read per 1024 nodes keeps
        # the bounded path within noise of the unbounded one.
        if deadline is not None and not nodes & 1023 and deadline.expired():
            if stats is not None:
                stats.nodes += nodes
            deadline.check("bin packing B&B", best_known=best_found)
        if i == n:
            best_found = min(best_found, len(levels))
            return
        # Continuous lower bound on the completed solution: the remaining
        # sizes fill the open bins up to level 1 + tol, then new bins of
        # that capacity (the same tolerance rule as :func:`_certificate`).
        free = len(levels) * (1.0 + tol) - sum(levels)
        lower = len(levels) + max(0, math.ceil((suffix[i] - free - tol) / (1.0 + tol)))
        if lower >= best_found:
            if stats is not None:
                stats.lb_prunes += 1
            return
        s = order[i]
        for j, lvl in enumerate(levels):
            if lvl + s <= 1.0 + tol and (
                i == n - 1 or (1.0 + tol) - lvl < closing_residual
            ):
                # Closing perfect fit: this placement is dominant.
                if stats is not None:
                    stats.dominance_hits += 1
                levels[j] = lvl + s
                search(i + 1, levels)
                levels[j] = lvl
                return
        tried: set[float] = set()
        for j, lvl in enumerate(levels):
            if lvl + s <= 1.0 + tol and lvl not in tried:
                tried.add(lvl)
                levels[j] = lvl + s
                search(i + 1, levels)
                levels[j] = lvl
        if len(levels) + 1 < best_found:
            levels.append(s)
            search(i + 1, levels)
            levels.pop()

    search(0, [])
    if stats is not None:
        stats.nodes += nodes
    return best_found


def bin_packing_min_bins(
    sizes: Sequence[float],
    *,
    tol: float = DEFAULT_TOL,
    max_nodes: int = 2_000_000,
    upper_bound: int | None = None,
    stats: SolverStats | None = None,
    deadline: "Deadline | None" = None,
) -> int:
    """Exact minimum number of unit bins for the given sizes.

    The same pipeline as one adversary slice, minus the memo:

    * **Prop 3 certificate** — the lower bound max(⌈S⌉, #items > ½) is
      compared with the warm ``upper_bound`` first, then with the
      First-Fit-Decreasing count; when it meets either, that bound is the
      optimum and no search runs (``stats.certified``).
    * **Branch and bound** on the residue — items in decreasing size order;
      each goes into an existing bin (distinct levels only, to break
      symmetry) or one new bin.  The incumbent starts at the smaller of FFD
      and ``upper_bound`` (``warm_start_hits`` when the latter wins).
      **Closing perfect-fit dominance** tightens the search: when the
      current item fits a bin whose residual capacity cannot hold two
      further items, placing it there is provably optimal (exchange
      argument: any set the adversary puts there instead is a single item
      no larger than the current one), so all sibling branches are skipped.

    Args:
        sizes: Item sizes, each in (0, 1].
        tol: Capacity tolerance.
        max_nodes: Search-node budget.
        upper_bound: Optional externally-known valid upper bound on the
            optimum (must be achievable, e.g. derived from a feasible
            packing); the returned value is still the exact optimum.
        stats: Optional :class:`SolverStats` to increment in place.
        deadline: Optional wall-clock :class:`~repro.resilience.Deadline`
            checked at entry and every 1024 search nodes; expiry raises
            :class:`~repro.core.DeadlineExceeded` carrying the best
            feasible count found so far.

    Raises:
        ValidationError: if any size is outside (0, 1].
        SolverLimitError: if the node budget is exhausted before proving
            optimality (carries the best feasible value found).
        DeadlineExceeded: if ``deadline`` expires first.
    """
    for s in sizes:
        if not (0.0 < s <= 1.0 + tol):
            raise ValidationError(f"size out of range (0, 1]: {s}")
    if not sizes:
        return 0
    if deadline is not None:
        deadline.check("bin_packing_min_bins")
    ascending = sorted(sizes)
    count, ffd = _certificate(ascending, upper_bound, tol)
    if count is not None:
        if stats is not None:
            stats.certified += 1
        return count
    return _branch_and_bound(
        ascending[::-1],
        ffd,
        upper_bound,
        tol=tol,
        max_nodes=max_nodes,
        stats=stats,
        deadline=deadline,
    )


# ---------------------------------------------------------------------------
# The repacking adversary OPT_total — reference implementation
# ---------------------------------------------------------------------------


def opt_total_scan(
    items: ItemList, *, tol: float = DEFAULT_TOL, max_nodes: int = 2_000_000
) -> float:
    """Exact ``OPT_total(R) = ∫ OPT(R, t) dt`` by per-interval rescans.

    The straightforward reference implementation: one classical bin packing
    instance per elementary interval, with the active set rebuilt by a full
    O(n) scan per interval and results cached per call on the multiset of
    active sizes.  The production :func:`repro.algorithms.opt_total`
    (sweep line + shared memoization + warm starts) returns bit-identical
    values; benches and parity tests keep this version around as the ground
    truth to diff against.

    Raises:
        SolverLimitError: propagated from :func:`bin_packing_min_bins` if an
            instance exceeds the node budget.
    """
    if not items:
        return 0.0
    times = items.event_times()
    cache: dict[tuple[float, ...], int] = {}
    total = 0.0
    for left, right in zip(times[:-1], times[1:]):
        active = [r.size for r in items if r.arrival <= left and r.departure > left]
        if not active:
            continue
        key = tuple(sorted(active))
        if key not in cache:
            cache[key] = bin_packing_min_bins(key, tol=tol, max_nodes=max_nodes)
        total += cache[key] * (right - left)
    return total


# ---------------------------------------------------------------------------
# Exact non-repacking optimum (tiny instances)
# ---------------------------------------------------------------------------


def optimal_packing(
    items: ItemList, *, max_items: int = 14, max_nodes: int = 5_000_000
) -> PackingResult:
    """The best non-migratory packing of ``items`` by exhaustive B&B.

    Items are assigned in arrival order; each goes to a feasible existing bin
    or to one fresh bin (symmetry-broken).  Pruning uses the current usage
    plus a span lower bound for unassigned items.  Exponential — refuse
    instances above ``max_items``.

    Raises:
        ValidationError: if the instance exceeds ``max_items``.
        SolverLimitError: if the node budget is exhausted.
    """
    if len(items) > max_items:
        raise ValidationError(
            f"optimal_packing is exhaustive; {len(items)} items exceeds the "
            f"limit of {max_items}"
        )
    order = list(items)
    n = len(order)
    if n == 0:
        return PackingResult(items, {}, algorithm="optimal")

    best_usage = float("inf")
    best_assignment: dict[int, int] | None = None
    nodes = 0

    # Precompute a lower bound on the extra usage the remaining items force:
    # the part of their span not coverable by any current bin is at least the
    # span of the remaining items minus total span — we keep it simple and use
    # zero (correct, weaker); current-usage pruning already cuts most of it.

    def usage_of(bins: list[Bin]) -> float:
        return sum(b.usage_time() for b in bins)

    def search(i: int, bins: list[Bin], assignment: dict[int, int]) -> None:
        nonlocal best_usage, best_assignment, nodes
        nodes += 1
        if nodes > max_nodes:
            raise SolverLimitError(
                f"optimal_packing exceeded {max_nodes} nodes",
                best_known=None if best_assignment is None else best_usage,
            )
        current = usage_of(bins)
        if current >= best_usage:
            return
        if i == n:
            best_usage = current
            best_assignment = dict(assignment)
            return
        item = order[i]
        for b in bins:
            if b.fits(item):
                b.place(item, check=False)
                assignment[item.id] = b.index
                search(i + 1, bins, assignment)
                del assignment[item.id]
                b.pop_last()
        fresh = Bin(len(bins))
        fresh.place(item, check=False)
        bins.append(fresh)
        assignment[item.id] = fresh.index
        search(i + 1, bins, assignment)
        del assignment[item.id]
        bins.pop()

    search(0, [], {})
    assert best_assignment is not None
    return PackingResult(items, best_assignment, algorithm="optimal")


def brute_force_min_usage(items: ItemList, max_items: int = 8) -> float:
    """Reference optimum by trying *every* assignment (tests only).

    Enumerates all partitions of items into ordered bins via assignment
    vectors with the restricted-growth property; infeasible assignments are
    skipped.  Factorially slow — keep ``max_items`` tiny.
    """
    if len(items) > max_items:
        raise ValidationError(f"brute force limited to {max_items} items")
    order = list(items)
    n = len(order)
    if n == 0:
        return 0.0
    best = float("inf")
    for assignment_vec in itertools.product(range(n), repeat=n):
        # Restricted growth: bin k may appear only if bin k-1 appears earlier.
        maxseen = -1
        ok = True
        for a in assignment_vec:
            if a > maxseen + 1:
                ok = False
                break
            maxseen = max(maxseen, a)
        if not ok:
            continue
        result = PackingResult(
            ItemList(order), {r.id: a for r, a in zip(order, assignment_vec)}
        )
        if result.is_feasible():
            best = min(best, result.total_usage())
    return best
