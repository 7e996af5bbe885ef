"""Lower bounds on ``OPT_total`` — Propositions 1–3 of the paper (§3.2).

Given an item list ``R``:

* **Proposition 1**: ``OPT_total(R) ≥ d(R)`` — no bin capacity is ever
  wasted in the best case.
* **Proposition 2**: ``OPT_total(R) ≥ span(R)`` — at least one bin is in use
  whenever any item is active.
* **Proposition 3**: ``OPT_total(R) ≥ ∫ ⌈S(t)⌉ dt`` — at time ``t`` at least
  ``⌈S(t)⌉`` bins are open.  This bound dominates the other two.

These are cheap (no search), so they scale to instances where the exact
:func:`repro.algorithms.opt_total` solver does not.

All three bounds are dimension-generic: for a vector instance (paper §6)
each resource dimension independently yields a valid lower bound, so the
vector bound is the maximum over dimensions — ``max_d Σ_r s_d(r)·l(I(r))``
for Proposition 1 and ``max_d ∫ ⌈S_d(t)⌉ dt`` for Proposition 3.  The
:func:`vector_demand_lower_bound` / :func:`vector_ceil_lower_bound` helpers
expose those per-dimension forms directly on plain item sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..core.exceptions import DeadlineExceeded, SolverLimitError
from ..core.items import Item, ItemList

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..algorithms.adversary import MemoCache
    from ..algorithms.optimal import SolverStats
    from ..resilience.deadline import Deadline

__all__ = [
    "demand_lower_bound",
    "span_lower_bound",
    "ceil_size_lower_bound",
    "best_lower_bound",
    "vector_demand_lower_bound",
    "vector_ceil_lower_bound",
    "resolve_denominator",
    "DenominatorInfo",
    "OptBounds",
]


def demand_lower_bound(items: ItemList) -> float:
    """Proposition 1: total time-space demand ``d(R)``.

    For vector instances this is the max per-dimension demand (each
    dimension alone constrains capacity).
    """
    return items.total_demand()


def span_lower_bound(items: ItemList) -> float:
    """Proposition 2: ``span(R)``."""
    return items.span()


def ceil_size_lower_bound(items: ItemList) -> float:
    """Proposition 3: ``∫ ⌈S(t)⌉ dt`` over the span of ``R``.

    For vector instances, the max over dimensions ``max_d ∫ ⌈S_d(t)⌉ dt``:
    dimension ``d`` alone forces ``⌈S_d(t)⌉`` open bins at time ``t``.
    """
    return max(
        items.size_profile(dim).integral_ceil() for dim in range(items.dims)
    )


def vector_demand_lower_bound(items: "ItemList | Iterable[Item]") -> float:
    """Vector analogue of Propositions 1–2 on a plain item sequence.

    ``OPT ≥ max(max_d Σ_r s_d(r)·l(I(r)), span(R))`` — the per-dimension
    demand maximum combined with the span bound.  Accepts any iterable of
    (vector) items, expressed through the dimension-generic core bounds.
    """
    if not isinstance(items, ItemList):
        items = ItemList(items)
    if not items:
        return 0.0
    return max(demand_lower_bound(items), span_lower_bound(items))


def vector_ceil_lower_bound(items: "ItemList | Iterable[Item]") -> float:
    """Vector analogue of Proposition 3: ``max_d ∫ ⌈S_d(t)⌉ dt``.

    Dominates :func:`vector_demand_lower_bound` (pointwise ``⌈x⌉ ≥ x`` and
    ``≥ 1`` on the support).  Accepts any iterable of (vector) items.
    """
    if not isinstance(items, ItemList):
        items = ItemList(items)
    if not items:
        return 0.0
    return ceil_size_lower_bound(items)


def best_lower_bound(items: ItemList) -> float:
    """The tightest of the three lower bounds.

    Proposition 3 dominates Propositions 1 and 2 pointwise (``⌈S(t)⌉ ≥ S(t)``
    and ``⌈S(t)⌉ ≥ 1`` wherever an item is active), so this simply evaluates
    it; the max is taken anyway as a numerical belt-and-braces.
    """
    return max(
        demand_lower_bound(items),
        span_lower_bound(items),
        ceil_size_lower_bound(items),
    )


@dataclass(frozen=True, slots=True)
class DenominatorInfo:
    """The resolved ratio denominator plus how it was obtained.

    Attributes:
        value: The denominator — exact ``OPT_total`` or the certified
            Proposition 1–3 lower bound.
        exact: True iff ``value`` is the solved ``OPT_total``.
        degraded_reason: ``None`` when exact; otherwise why the solver
            degraded to bounds: ``"deadline"`` (wall-clock budget expired),
            ``"node_budget"`` (branch-and-bound node budget exhausted),
            ``"instance_too_large"`` (above the exact-adversary size
            ceiling) or ``"vector_dims"`` (the exact adversary is
            scalar-only; vector instances always use the per-dimension
            Proposition 1–3 bounds).
    """

    value: float
    exact: bool
    degraded_reason: str | None = None


def resolve_denominator(
    items: ItemList,
    *,
    exact_opt_max_items: int = 200,
    solver_nodes: int = 500_000,
    memo: "MemoCache | None" = None,
    stats: "SolverStats | None" = None,
    deadline: "Deadline | None" = None,
) -> DenominatorInfo:
    """The ratio denominator: exact ``OPT_total`` when tractable, else bounds.

    The single policy every ratio measurement shares: solve the exact
    repacking adversary for instances up to ``exact_opt_max_items`` items,
    degrading to the certified Proposition 1–3 lower bound on size overflow,
    node-budget exhaustion or wall-clock ``deadline`` expiry.  Degradation
    makes the reported ratio an *upper bound* on the true one — the
    conservative direction for checking the paper's guarantees — and is
    always bounded: the bounds themselves are closed-form, so the total time
    past an expired deadline is the time to notice expiry, not another
    search.

    Degradations increment the ``resilience.solver.degraded`` counter
    (labelled by reason) in ``stats``'s registry when ``stats`` is given.
    """
    from ..algorithms.adversary import opt_total

    reason: str
    if items.dims > 1:
        # The exact repacking adversary is scalar-only; vector instances
        # degrade straight to the per-dimension Proposition 1-3 bounds.
        if stats is not None:
            stats.registry.counter(
                "resilience.solver.degraded", reason="vector_dims"
            ).inc()
        return DenominatorInfo(best_lower_bound(items), False, "vector_dims")
    if len(items) <= exact_opt_max_items:
        try:
            value = opt_total(
                items, max_nodes=solver_nodes, memo=memo, stats=stats, deadline=deadline
            )
            return DenominatorInfo(value, True)
        except DeadlineExceeded:
            reason = "deadline"
        except SolverLimitError:
            reason = "node_budget"
    else:
        reason = "instance_too_large"
    if stats is not None:
        stats.registry.counter("resilience.solver.degraded", reason=reason).inc()
    return DenominatorInfo(best_lower_bound(items), False, reason)


@dataclass(frozen=True, slots=True)
class OptBounds:
    """All three lower bounds of an instance, for reporting."""

    demand: float
    span: float
    ceil_size: float

    @classmethod
    def of(cls, items: ItemList) -> "OptBounds":
        return cls(
            demand=demand_lower_bound(items),
            span=span_lower_bound(items),
            ceil_size=ceil_size_lower_bound(items),
        )

    @property
    def best(self) -> float:
        return max(self.demand, self.span, self.ceil_size)
