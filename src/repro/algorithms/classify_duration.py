"""Classify-by-duration First Fit (paper §5.3, Theorem 5).

Items are classified so that each category's max/min duration ratio is at
most a constant ``α``: given a base duration ``b``, category ``i`` holds the
items with duration in ``(b·α^{i-1}, b·α^i]``.  First Fit packs each category
separately; since First Fit is (μ+4)-competitive with usage bounded by
``(μ+3)·d(R) + span(R)`` [24], each category contributes ``(α+3)·d(R_i) +
span(R_i)``, giving a total ratio of ``α + ⌈log_α μ⌉ + 4``.

With Δ and μ known, set ``b = Δ`` and ``α = μ^{1/n}`` so exactly ``n``
categories arise, achieving ``min_{n≥1} μ^{1/n} + n + 3`` (Theorem 5).
"""

from __future__ import annotations

import math

from ..core.exceptions import ValidationError
from .base import register_packer
from .classified import ClassifiedFirstFit

__all__ = ["ClassifyByDurationFirstFit", "duration_category"]


def duration_category(duration: float, base: float, alpha: float) -> int:
    """Index ``i`` with ``duration ∈ (base·α^{i-1}, base·α^i]``.

    Durations equal to ``base`` get category 0's upper boundary, i.e. ``i=0``.
    Float-robust: the logarithm-based first guess is corrected against the
    exact predicate, so boundary durations never straddle two categories.
    """
    if duration <= 0:
        raise ValidationError(f"duration must be positive, got {duration}")
    ratio = duration / base
    i = math.ceil(math.log(ratio) / math.log(alpha)) if ratio > 1 else 0
    # Correct any off-by-one from float logs: want alpha^(i-1) < ratio <= alpha^i.
    while ratio > alpha**i:
        i += 1
    while i > 0 and ratio <= alpha ** (i - 1):
        i -= 1
    while ratio <= alpha ** (i - 1):  # durations below base ⇒ negative categories
        i -= 1
    return i


@register_packer("classify-duration")
class ClassifyByDurationFirstFit(ClassifiedFirstFit):
    """Online First Fit over geometric duration categories.

    Args:
        alpha: Max/min duration ratio per category, must exceed 1.
        base: Base duration ``b``.  ``None`` (default) uses the duration of
            the first item seen — an online-computable anchor; categories may
            then have negative indices, which is harmless.
    """

    name = "classify-duration"

    def __init__(self, alpha: float, base: float | None = None) -> None:
        super().__init__()
        if alpha <= 1:
            raise ValidationError(f"alpha must exceed 1, got {alpha}")
        self.alpha = alpha
        self._fixed_base = base
        self._base: float | None = base

    @classmethod
    def with_known_durations(
        cls, min_duration: float, mu: float, n: int | None = None
    ) -> "ClassifyByDurationFirstFit":
        """Instantiate with Theorem 5's optimal setting.

        Sets ``base = min_duration`` and ``α = μ^{1/n}``; when ``n`` is not
        given, the ``n ≥ 1`` minimising the bound ``μ^{1/n} + n + 3`` is used
        (computed numerically, as in the paper's §5.4).
        """
        if min_duration <= 0 or mu < 1:
            raise ValidationError(
                f"need min_duration > 0 and mu >= 1, got {min_duration}, {mu}"
            )
        if n is None:
            from ..bounds.competitive import optimal_num_duration_classes

            n = optimal_num_duration_classes(mu)
        if mu == 1.0:
            # One category suffices; any alpha > 1 classifies all items together.
            return cls(alpha=2.0, base=min_duration)
        return cls(alpha=mu ** (1.0 / n), base=min_duration)

    def describe(self) -> str:
        return f"{self.name}(alpha={self.alpha:g})"

    def reset(self) -> None:
        super().reset()
        self._base = self._fixed_base

    def category_key(
        self, arrival: float, departure: float, sizes: tuple[float, ...]
    ) -> int:
        """Geometric duration category; the first duration seen anchors ``base``."""
        duration = departure - arrival
        if self._base is None:
            self._base = duration
        return duration_category(duration, self._base, self.alpha)
