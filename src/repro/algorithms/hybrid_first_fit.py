"""Hybrid First Fit — the size-classified baseline of Li et al. [17, 19].

Li et al. improved on plain First Fit in the non-clairvoyant setting by
*classifying and packing items based on their sizes*: large items (size above
a threshold) are segregated from small ones, and the small range is split
into geometric size classes, each packed by First Fit separately.  They
proved ratios of μ+5 (μ known) and (8/7)μ + 55/7 (μ unknown).

Reproduction note: the SPAA'16 paper cites but does not restate the exact
class boundaries; we implement the standard harmonic-style variant — classes
``(1/2, 1]``, ``(1/3, 1/2]``, …, ``(1/(K), 1/(K-1)]`` and a final catch-all
``(0, 1/K]`` — which matches the description "classifies and packs items
based on their sizes" and reproduces the qualitative behaviour (tighter bins,
fewer long-lived low-level bins).  ``K`` defaults to 4 as in Li et al.'s
experimental configuration of size classes.
"""

from __future__ import annotations

from ..core.exceptions import ValidationError
from .base import register_packer
from .classified import ClassifiedFirstFit

__all__ = ["HybridFirstFitPacker"]


@register_packer("hybrid-first-fit")
class HybridFirstFitPacker(ClassifiedFirstFit):
    """First Fit within harmonic size classes.

    Args:
        num_classes: Number of size classes ``K ≥ 1``.  Class ``k`` for
            ``k < K`` holds sizes in ``(1/(k+1), 1/k]``; class ``K`` holds
            sizes in ``(0, 1/K]``.  ``K = 1`` degenerates to plain First Fit.
    """

    name = "hybrid-first-fit"

    def __init__(self, num_classes: int = 4) -> None:
        super().__init__()
        if num_classes < 1:
            raise ValidationError(f"num_classes must be >= 1, got {num_classes}")
        self.num_classes = num_classes

    def describe(self) -> str:
        return f"hybrid-first-fit(K={self.num_classes})"

    def category_key(
        self, arrival: float, departure: float, sizes: tuple[float, ...]
    ) -> int:
        """Harmonic size class of the (scalar) size."""
        # Smallest k with size > 1/(k+1)  ⇔  k = floor(1/size) unless exact.
        for k in range(1, self.num_classes):
            if sizes[0] > 1.0 / (k + 1):
                return k
        return self.num_classes
