"""Classify-by-departure-time First Fit (paper §5.2, Theorem 4).

Time is split into intervals of length ``ρ``; items departing within the same
interval form one category, and First Fit packs each category separately.
Items in one bin then depart at around the same time, so bins close promptly
instead of idling at low level.

Guarantees (Theorem 4): competitive ratio ≤ ρ/Δ + μΔ/ρ + 3 where Δ is the
minimum item duration; with Δ and μ known, choosing ρ = √μ·Δ yields 2√μ + 3.
"""

from __future__ import annotations

import math

from ..core.exceptions import ValidationError
from .base import register_packer
from .classified import ClassifiedFirstFit

__all__ = ["ClassifyByDepartureFirstFit"]


@register_packer("classify-departure")
class ClassifyByDepartureFirstFit(ClassifiedFirstFit):
    """Online First Fit over departure-time categories of width ``rho``.

    Args:
        rho: Category width ρ > 0.  Category ``k`` holds the items departing
            in ``(origin + (k-1)·ρ, origin + k·ρ]`` — the paper's convention
            with the first category being ``(0, ρ]``.
        origin: Reference time 0 of the classification.  ``None`` (default)
            pins the origin to the arrival time of the first item seen, which
            is an online-computable choice matching the paper's WLOG
            "first item arrives at time 0".
    """

    name = "classify-departure"

    def __init__(self, rho: float, origin: float | None = None) -> None:
        super().__init__()
        if rho <= 0:
            raise ValidationError(f"rho must be positive, got {rho}")
        self.rho = rho
        self._fixed_origin = origin
        self._origin: float | None = origin

    @classmethod
    def with_known_durations(
        cls, min_duration: float, mu: float, origin: float | None = None
    ) -> "ClassifyByDepartureFirstFit":
        """Instantiate with the Theorem 4 optimal parameter ρ = √μ·Δ."""
        if min_duration <= 0 or mu < 1:
            raise ValidationError(
                f"need min_duration > 0 and mu >= 1, got {min_duration}, {mu}"
            )
        return cls(rho=math.sqrt(mu) * min_duration, origin=origin)

    def describe(self) -> str:
        return f"{self.name}(rho={self.rho:g})"

    def reset(self) -> None:
        super().reset()
        self._origin = self._fixed_origin

    def category_key(
        self, arrival: float, departure: float, sizes: tuple[float, ...]
    ) -> int:
        """Departure-window category; the first arrival seen anchors ``origin``."""
        if self._origin is None:
            self._origin = arrival
        # Departure in (origin + (k-1)ρ, origin + kρ]  ⇒  k = ⌈(dep - origin)/ρ⌉.
        offset = departure - self._origin
        k = math.ceil(offset / self.rho)
        # Exact-boundary care: ceil of a float quotient can land one category
        # high when offset is an exact multiple of rho scaled through floats.
        if (k - 1) * self.rho >= offset:
            k -= 1
        return k
