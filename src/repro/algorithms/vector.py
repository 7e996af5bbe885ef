"""Vector (multi-dimensional) packers — paper §6, first-class.

The paper's §6 sketches MinUsageTime DBP with ``d``-dimensional resource
demands (CPU/memory/network), the production case of the follow-up work on
Dynamic Vector Bin Packing.  The first-fit core
(:class:`~repro.algorithms.ClassifiedFirstFit`) is dimension-generic, so the
vector packers are its scalar configurations with the dimensionality left
open: registered with ``dims=None`` capability (any dimensionality, including
the scalar ``d=1`` case), they work everywhere scalar packers do — batch
``pack``, the streaming :class:`~repro.engine.PackingSession`, the
``pack``/``serve``/``sweep`` CLI, :func:`~repro.analysis.measured_ratio` and
:func:`~repro.analysis.run_sweep`.

At ``d=1`` each vector packer *is* its scalar counterpart (``vector-first-fit``
↔ ``first-fit``, ``vector-classify-duration`` ↔ ``classify-duration``,
``vector-classify-departure`` ↔ ``classify-departure``): same class, same
category function, same placement loop.
"""

from __future__ import annotations

from ..bounds.opt_bounds import vector_ceil_lower_bound, vector_demand_lower_bound
from .anyfit import FirstFitPacker
from .base import register_packer
from .classify_departure import ClassifyByDepartureFirstFit
from .classify_duration import ClassifyByDurationFirstFit

__all__ = [
    "VectorFirstFit",
    "VectorClassifyByDuration",
    "VectorClassifyByDeparture",
    "vector_demand_lower_bound",
    "vector_ceil_lower_bound",
]


@register_packer("vector-first-fit", dims=None)
class VectorFirstFit(FirstFitPacker):
    """First Fit over ``d``-dimensional items (single category).

    At ``d=1`` this is exactly the scalar ``first-fit`` packer: the single
    category makes the scan the plain earliest-opened-accommodating-bin rule.

    Args:
        dims: Expected dimensionality (``None`` infers from the first item).
    """

    name = "vector-first-fit"

    def __init__(self, dims: int | None = None) -> None:
        super().__init__()
        self._declare_dims(dims)


@register_packer("vector-classify-duration", dims=None)
class VectorClassifyByDuration(ClassifyByDurationFirstFit):
    """Classify-by-duration First Fit for vector items (paper §5.3 lifted).

    Duration classification reads only times, so it composes unchanged with
    the all-dimensions fit rule; categories use the same float-robust
    :func:`~repro.algorithms.duration_category` as the scalar packer.

    Args:
        alpha: Max/min duration ratio per category, must exceed 1.
        base: Base duration; ``None`` anchors to the first item seen
            (re-anchored after each :meth:`reset`).
        dims: Expected dimensionality (``None`` infers from the first item).
    """

    name = "vector-classify-duration"

    def __init__(
        self, alpha: float, base: float | None = None, dims: int | None = None
    ) -> None:
        super().__init__(alpha, base)
        self._declare_dims(dims)


@register_packer("vector-classify-departure", dims=None)
class VectorClassifyByDeparture(ClassifyByDepartureFirstFit):
    """Classify-by-departure-time First Fit for vector items (§5.2 lifted).

    Departure windows read only times, so the strategy composes unchanged
    with the all-dimensions fit rule.

    Args:
        rho: Category width ρ > 0; category ``k`` holds items departing in
            ``(origin + (k-1)·ρ, origin + k·ρ]``.
        origin: Classification time origin; ``None`` anchors to the arrival
            of the first item seen (re-anchored after each :meth:`reset`).
        dims: Expected dimensionality (``None`` infers from the first item).
    """

    name = "vector-classify-departure"

    def __init__(
        self, rho: float, origin: float | None = None, dims: int | None = None
    ) -> None:
        super().__init__(rho, origin)
        self._declare_dims(dims)
