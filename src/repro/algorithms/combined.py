"""Combined classification strategy (the paper's §5.4 remark / §6 future work).

The paper observes that classify-by-departure-time wins for small μ and
classify-by-duration wins for large μ, and suggests combining them: *first*
classify items by duration (reducing the per-category max/min duration ratio
to α), *then* classify each duration category by departure time.  Within a
duration category ``i`` the durations lie in ``(b·α^{i-1}, b·α^i]``, i.e. the
category-local minimum duration is ``Δ_i ≈ b·α^{i-1}`` and the local μ is α,
so Theorem 4 suggests the per-category width ``ρ_i = √α · Δ_i``.

The paper leaves the combined algorithm's analysis as future work; this
implementation exists for the ablation bench (`bench_ablation_combined`),
which measures it empirically against both single strategies.
"""

from __future__ import annotations

import math

from ..core.exceptions import ValidationError
from .base import register_packer
from .classified import ClassifiedFirstFit
from .classify_duration import duration_category

__all__ = ["CombinedClassifyFirstFit"]


@register_packer("classify-combined")
class CombinedClassifyFirstFit(ClassifiedFirstFit):
    """Duration-then-departure classified First Fit.

    Args:
        alpha: Duration ratio per duration category (> 1).
        base: Base duration ``b`` (``None`` ⇒ first item's duration).
        rho_scale: The per-category departure width is
            ``rho_scale · √α · b·α^{i-1}``; 1.0 matches the Theorem 4 optimum
            applied category-locally.
        origin: Classification time origin (``None`` ⇒ first arrival).
    """

    name = "classify-combined"

    def __init__(
        self,
        alpha: float,
        base: float | None = None,
        rho_scale: float = 1.0,
        origin: float | None = None,
    ) -> None:
        super().__init__()
        if alpha <= 1:
            raise ValidationError(f"alpha must exceed 1, got {alpha}")
        if rho_scale <= 0:
            raise ValidationError(f"rho_scale must be positive, got {rho_scale}")
        self.alpha = alpha
        self.rho_scale = rho_scale
        self._fixed_base = base
        self._fixed_origin = origin
        self._base: float | None = base
        self._origin: float | None = origin

    @classmethod
    def with_known_durations(
        cls, min_duration: float, mu: float, n: int | None = None
    ) -> "CombinedClassifyFirstFit":
        """Anchor ``base`` at Δ and pick α = μ^{1/n} like Theorem 5."""
        if min_duration <= 0 or mu < 1:
            raise ValidationError(
                f"need min_duration > 0 and mu >= 1, got {min_duration}, {mu}"
            )
        if n is None:
            from ..bounds.competitive import optimal_num_duration_classes

            n = optimal_num_duration_classes(mu)
        alpha = 2.0 if mu == 1.0 else mu ** (1.0 / n)
        return cls(alpha=alpha, base=min_duration)

    def describe(self) -> str:
        return f"classify-combined(alpha={self.alpha:g}, rho_scale={self.rho_scale:g})"

    def reset(self) -> None:
        super().reset()
        self._base = self._fixed_base
        self._origin = self._fixed_origin

    def category_key(
        self, arrival: float, departure: float, sizes: tuple[float, ...]
    ) -> tuple[int, int]:
        """(duration class, category-local departure window)."""
        duration = departure - arrival
        if self._base is None:
            self._base = duration
        if self._origin is None:
            self._origin = arrival
        i = duration_category(duration, self._base, self.alpha)
        # Category-local minimum duration and the Theorem-4-style width.
        delta_i = self._base * self.alpha ** (i - 1)
        rho_i = self.rho_scale * math.sqrt(self.alpha) * delta_i
        offset = departure - self._origin
        k = math.ceil(offset / rho_i)
        if (k - 1) * rho_i >= offset:
            k -= 1
        return (i, k)
