"""Automated worst-case search: hill-climb toward bad instances.

The paper's lower bounds come from hand-crafted constructions; this module
*searches* for bad instances automatically — a standard tool for probing how
tight a competitive analysis is.  A seeded hill-climb mutates a small
instance (perturb an item's arrival/duration/size, or resample one item) and
keeps mutations that increase the measured ratio of a target algorithm
against the exact repacking adversary.

Instances are kept small so ``opt_total`` stays exact; the result therefore
reports true ratios, directly comparable to the theorems' bounds.  One
evaluation costs what its mutation changes:

* a mutation builds one new :class:`~repro.core.Item` and swaps it in with
  :meth:`~repro.core.ItemList.replace`, sharing every other item object;
* the shared :class:`~repro.algorithms.AdversaryOracle` re-solves only the
  time slices intersecting the mutated window, splices the untouched runs
  from the previous evaluation and answers recurring slices from its memo
  cache — an order of magnitude faster than re-paying the full adversary
  per mutation (see ``benchmarks/bench_opt_total.py``), with bit-identical
  ratios;
* the packer's usage comes from
  :meth:`~repro.core.PackingResult.total_usage`, one Python pass over the
  items;
* the candidate is packed first and its usage and the ratio to beat are
  handed to the oracle as a rejection target: most rejections are proved
  from the spliced exact counts plus the paper's Prop 3 lower bound
  (max(⌈S(t)⌉, #sizes > ½) ≤ OPT(t)) of the re-walked slices, with no
  FFD, memo lookup or branch and bound, and such a proof is treated
  exactly like ``cand_ratio <= current_ratio``.  It is never a budget
  rejection (see ``SolverStats.bound_rejects``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..algorithms.adversary import AdversaryOracle
from ..algorithms.base import Packer
from ..algorithms.optimal import SolverStats
from ..core.exceptions import SolverLimitError, ValidationError
from ..core.intervals import Interval
from ..core.items import Item, ItemList
from ..obs import TelemetryRegistry

__all__ = ["SearchResult", "find_bad_instance"]


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Outcome of a worst-case search.

    Attributes:
        items: The worst instance found.
        ratio: Its exact algorithm/OPT_total ratio.
        iterations: Mutation steps performed.
        accepted: Mutations that improved the ratio.
        solver_stats: Adversary counters accumulated over every evaluation
            of the search (nodes, prunes, memo/warm-start hits, reuse).
    """

    items: ItemList
    ratio: float
    iterations: int
    accepted: int
    solver_stats: SolverStats = field(default_factory=SolverStats, compare=False)


def _ratio(
    packer: Packer,
    items: ItemList,
    oracle: AdversaryOracle,
    current: float | None = None,
) -> float | None:
    """The exact ratio of ``items``, or ``None`` once it is proved ``<= current``."""
    usage = packer.pack(items).total_usage()
    denom = oracle.opt_total(items, target=None if current is None else (usage, current))
    if denom is None:
        return None
    return usage / denom if denom > 0 else 1.0


def _random_instance(
    rng: np.random.Generator, n: int, span: float, min_dur: float, max_dur: float
) -> ItemList:
    items = []
    for i in range(n):
        a = float(rng.uniform(0, span))
        d = float(rng.uniform(min_dur, max_dur))
        s = float(rng.uniform(0.05, 1.0))
        items.append(Item(i, s, Interval(a, a + d)))
    return ItemList(items)


def _mutate(
    rng: np.random.Generator,
    items: ItemList,
    span: float,
    min_dur: float,
    max_dur: float,
) -> ItemList:
    item = items[int(rng.integers(len(items)))]
    move = rng.random()
    arrival = item.arrival
    duration = item.departure - arrival
    size = item.size
    if move < 0.3:  # nudge arrival
        arrival = float(np.clip(arrival + rng.normal(0, 0.15 * span), 0, span))
    elif move < 0.6:  # nudge duration
        duration = float(
            np.clip(duration * np.exp(rng.normal(0, 0.4)), min_dur, max_dur)
        )
    elif move < 0.85:  # nudge size
        size = float(np.clip(size * np.exp(rng.normal(0, 0.4)), 0.02, 1.0))
    else:  # resample the item entirely
        arrival = float(rng.uniform(0, span))
        duration = float(rng.uniform(min_dur, max_dur))
        size = float(rng.uniform(0.05, 1.0))
    mutated = Item(item.id, size, Interval(arrival, arrival + duration), dict(item.tags))
    return items.replace(mutated)


def find_bad_instance(
    make_packer: Callable[[], Packer],
    *,
    n_items: int = 10,
    iterations: int = 200,
    seed: int = 0,
    span: float = 10.0,
    min_duration: float = 0.5,
    max_duration: float = 8.0,
    restarts: int = 3,
    solver_nodes: int = 200_000,
    registry: TelemetryRegistry | None = None,
) -> SearchResult:
    """Hill-climb toward a high-ratio instance for the given algorithm.

    Args:
        make_packer: Factory producing a fresh packer (reused across
            evaluations via its own ``pack`` reset).
        n_items: Instance size — keep ≤ ~14 so the exact adversary is fast.
        iterations: Mutation budget *per restart*.
        seed: Seed for the whole search (restarts derive sub-seeds).
        span: Arrival window width.
        min_duration / max_duration: Duration band (bounds μ).
        restarts: Independent random restarts; the best result wins.
        solver_nodes: Budget for each exact ``opt_total`` evaluation;
            mutations whose evaluation exceeds it are rejected.
        registry: Optional shared :class:`~repro.obs.TelemetryRegistry` the
            search's solver counters and progress metrics are interned in
            (``search.restarts``, ``search.mutations``, ``search.accepted``,
            ``search.best_ratio``, plus per-restart ``search.restart``
            spans); the returned result is identical with or without it.

    Raises:
        ValidationError: on non-positive sizes of the search space.
    """
    if n_items < 2 or iterations < 1 or restarts < 1:
        raise ValidationError("need n_items >= 2, iterations >= 1, restarts >= 1")
    if not 0 < min_duration <= max_duration:
        raise ValidationError("need 0 < min_duration <= max_duration")
    obs = registry if registry is not None else TelemetryRegistry()
    packer = make_packer()
    stats = SolverStats(registry=obs)
    # One oracle for the whole search: the memo cache spans restarts, and
    # each mutation re-solves only the slices its window touches.
    oracle = AdversaryOracle(max_nodes=solver_nodes, stats=stats)
    mutations = obs.counter("search.mutations")
    accepts = obs.counter("search.accepted")
    rejected = obs.counter("search.budget_rejections")
    best: SearchResult | None = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        with obs.span("search.restart"):
            obs.counter("search.restarts").inc()
            current = _random_instance(rng, n_items, span, min_duration, max_duration)
            try:
                current_ratio = _ratio(packer, current, oracle)
            except SolverLimitError:
                rejected.inc()
                continue
            accepted = 0
            for _ in range(iterations):
                candidate = _mutate(rng, current, span, min_duration, max_duration)
                mutations.inc()
                try:
                    cand_ratio = _ratio(packer, candidate, oracle, current_ratio)
                except SolverLimitError:
                    rejected.inc()
                    continue
                if cand_ratio is not None and cand_ratio > current_ratio:
                    current, current_ratio = candidate, cand_ratio
                    accepted += 1
                    accepts.inc()
        result = SearchResult(
            items=current,
            ratio=current_ratio,
            iterations=iterations,
            accepted=accepted,
            solver_stats=stats,
        )
        if best is None or result.ratio > best.ratio:
            best = result
            obs.gauge("search.best_ratio", aggregate="max").set(best.ratio)
    if best is None:
        raise SolverLimitError(
            "every restart exceeded the exact-adversary node budget; "
            "reduce n_items or raise solver_nodes"
        )
    return best
