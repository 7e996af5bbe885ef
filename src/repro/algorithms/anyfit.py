"""The Any Fit family of online packers: First/Best/Worst/Last Fit + Next Fit.

These are the non-clairvoyant baselines analysed by Li et al. [17, 19],
Kamali & López-Ortiz [13] and Tang et al. [24], reproduced here both as
baselines and as the building block of the paper's classification strategies
(classify-by-departure-time / classify-by-duration First Fit run First Fit
within each item category).

An *Any Fit* algorithm opens a new bin only when no currently open bin can
accommodate the incoming item.  The family members differ only in which
accommodating open bin they choose:

* **First Fit** — the open bin that was opened earliest (competitive ratio
  ≤ μ+4 in the non-clairvoyant setting [24]);
* **Best Fit** — the fullest accommodating bin (unbounded ratio for any μ);
* **Worst Fit** — the emptiest accommodating bin;
* **Last Fit** — the most recently opened accommodating bin.

**Next Fit** is *not* an Any Fit algorithm: it keeps a single *current* bin
and abandons it (while still paying for its remaining usage) whenever an item
does not fit, achieving ratio ≤ 2μ+1 [13].

Placement decisions use only the bins' levels at the arrival instant, so the
same code is valid in both the clairvoyant and non-clairvoyant information
models: for arrival-order packing the level of an open bin can only decrease
in the item's future, hence "fits now" ⇔ "fits throughout" (cross-checked in
tests against the full-interval fit check).

First Fit itself is the one-category configuration of the first-fit core
(:class:`~repro.algorithms.ClassifiedFirstFit`); :class:`AnyFitPacker` runs
the other members over :class:`~repro.core.Bin` objects.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bins import Bin
from ..core.items import Item
from .base import OnlinePacker, register_packer
from .classified import ClassifiedFirstFit

__all__ = [
    "AnyFitPacker",
    "FirstFitPacker",
    "BestFitPacker",
    "WorstFitPacker",
    "LastFitPacker",
    "RandomFitPacker",
    "NextFitPacker",
]


class AnyFitPacker(OnlinePacker):
    """Base class implementing the Any Fit contract.

    Subclasses override :meth:`choose` to pick among the accommodating open
    bins; :meth:`place` opens a new bin only when ``choose`` has no
    candidates, which is exactly the Any Fit property.
    """

    def place(self, item: Item) -> int:
        t = item.arrival
        candidates = [b for b in self.open_bins_at(t) if b.fits_at_arrival(item)]
        target = self.choose(item, candidates) if candidates else None
        if target is None:
            target = self.open_bin()
        return self.commit(target, item)

    def choose(self, item: Item, candidates: Sequence[Bin]) -> Bin | None:
        """Pick one of ``candidates`` (non-empty, in opening order)."""
        raise NotImplementedError


@register_packer("first-fit")
class FirstFitPacker(ClassifiedFirstFit):
    """First Fit: earliest-opened accommodating bin (paper §5.2)."""

    name = "first-fit"

    def __init__(self) -> None:  # scalar: no ``dims`` parameter in the registry
        super().__init__()

    def category_key(
        self, arrival: float, departure: float, sizes: tuple[float, ...]
    ) -> int:
        """Single shared category: plain First Fit."""
        return 0


@register_packer("best-fit")
class BestFitPacker(AnyFitPacker):
    """Best Fit: fullest accommodating bin, ties to the earliest opened."""

    name = "best-fit"

    def choose(self, item: Item, candidates: Sequence[Bin]) -> Bin:
        t = item.arrival
        return max(candidates, key=lambda b: (b.level_at(t), -b.index))


@register_packer("worst-fit")
class WorstFitPacker(AnyFitPacker):
    """Worst Fit: emptiest accommodating bin, ties to the earliest opened."""

    name = "worst-fit"

    def choose(self, item: Item, candidates: Sequence[Bin]) -> Bin:
        t = item.arrival
        return min(candidates, key=lambda b: (b.level_at(t), b.index))


@register_packer("last-fit")
class LastFitPacker(AnyFitPacker):
    """Last Fit: most recently opened accommodating bin."""

    name = "last-fit"

    def choose(self, item: Item, candidates: Sequence[Bin]) -> Bin:
        return candidates[-1]


@register_packer("random-fit")
class RandomFitPacker(AnyFitPacker):
    """Random Fit: uniformly random accommodating bin (seeded).

    Not analysed in the paper; included as an Any Fit family member for
    empirical comparison (any Any Fit algorithm is ≥ (μ+1)-competitive).
    """

    name = "random-fit"

    def __init__(self, seed: int | None = 0) -> None:
        super().__init__()
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)

    def describe(self) -> str:
        return f"random-fit(seed={self._seed})"

    def choose(self, item: Item, candidates: Sequence[Bin]) -> Bin:
        return candidates[int(self._rng.integers(len(candidates)))]


@register_packer("next-fit")
class NextFitPacker(OnlinePacker):
    """Next Fit: keep one current bin; abandon it when an item does not fit.

    Kamali & López-Ortiz [13] showed Next Fit is (2μ+1)-competitive for
    Non-Clairvoyant MinUsageTime DBP.  An abandoned bin stays in the packing
    (its already-placed items keep it in use until they depart) but never
    receives another item.
    """

    name = "next-fit"

    def __init__(self) -> None:
        super().__init__()
        self._current: Bin | None = None

    def reset(self) -> None:
        super().reset()
        self._current = None

    def place(self, item: Item) -> int:
        t = item.arrival
        cur = self._current
        # A closed current bin (all items departed) is also abandoned.
        if cur is not None and (not cur.is_open_at(t) or not cur.fits_at_arrival(item)):
            cur = None
        if cur is None:
            cur = self.open_bin()
            self._current = cur
        return self.commit(cur, item)
