"""Packing results: assignments, feasibility validation and the objective.

A :class:`PackingResult` is the canonical output of every algorithm in the
library: the item list plus an item→bin assignment.  It rebuilds the bins,
validates feasibility and computes the MinUsageTime objective (total bin
usage time) and auxiliary profiles used in the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bins import Bin, bins_from_assignment
from .exceptions import ValidationError
from .intervals import Interval
from .items import ItemList
from .stepfun import DEFAULT_TOL, StepFunction

__all__ = ["PackingResult", "PackingStats"]


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum ``values`` in the order of numpy's float64 ``add.reduce``.

    numpy sums a contiguous float64 array pairwise: below 8 elements
    sequentially from ``0.0``; up to 128 with 8 interleaved accumulators
    combined as ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))`` plus a sequential
    tail; above 128 by splitting at half the length rounded down to a
    multiple of 8.  Reproducing that order makes pure-Python sums
    bit-identical to ``np.sum`` (the test suite checks the installed numpy
    still follows it).
    """
    n = len(values)
    if n < 8:
        res = 0.0
        for v in values:
            res += v
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for v in values[end:]:
            res += v
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


@dataclass(frozen=True, slots=True)
class PackingStats:
    """Summary statistics of a packing, suitable for tabulation."""

    algorithm: str
    num_items: int
    num_bins: int
    total_usage: float
    total_demand: float
    span: float
    max_open_bins: int
    utilization: float

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for tabulation."""
        return {
            "algorithm": self.algorithm,
            "num_items": self.num_items,
            "num_bins": self.num_bins,
            "total_usage": self.total_usage,
            "total_demand": self.total_demand,
            "span": self.span,
            "max_open_bins": self.max_open_bins,
            "utilization": self.utilization,
        }


class PackingResult:
    """An item→bin assignment with validation and objective computation.

    Args:
        items: The packed item list.
        assignment: Map from item id to bin index.  Bin indices should be
            the opening order of the producing algorithm but any integers
            work; they are preserved.
        algorithm: Human-readable producer name (for reports).
        capacity: Bin capacity used for validation.
        tol: Capacity tolerance.

    Raises:
        ValidationError: if the assignment does not cover exactly the item
            list's ids.
    """

    __slots__ = ("items", "assignment", "algorithm", "capacity", "tol", "_bins")

    def __init__(
        self,
        items: ItemList,
        assignment: Mapping[int, int],
        *,
        algorithm: str = "unknown",
        capacity: float = 1.0,
        tol: float = DEFAULT_TOL,
    ) -> None:
        ids = set(items.columns()[0].tolist())
        if set(assignment) != ids:
            missing = ids - set(assignment)
            extra = set(assignment) - ids
            raise ValidationError(
                f"assignment does not match items (missing={sorted(missing)[:5]}, "
                f"extra={sorted(extra)[:5]})"
            )
        self.items = items
        self.assignment: dict[int, int] = dict(assignment)
        self.algorithm = algorithm
        self.capacity = capacity
        self.tol = tol
        self._bins: list[Bin] | None = None

    @classmethod
    def from_bins(
        cls,
        bins: Iterable[Bin],
        items: ItemList | None = None,
        *,
        algorithm: str = "unknown",
        capacity: float = 1.0,
        tol: float = DEFAULT_TOL,
    ) -> "PackingResult":
        """Build a result directly from materialised bins.

        This is the canonical constructor for algorithms that maintain
        :class:`~repro.core.Bin` objects while packing (every online packer,
        the streaming engine, the exact solvers): the assignment is derived
        from the bins, so the two can never disagree.  The plain constructor
        remains for assignment-only callers (deserialisation, repacking
        transforms); avoid hand-rolling assignment dicts when bins exist.

        Args:
            bins: The packing's bins; empty bins are skipped.
            items: The packed item list.  ``None`` collects the items from
                the bins (ids must be unique).
            algorithm: Producer name for reports.
            capacity: Bin capacity used for validation.
            tol: Capacity tolerance.
        """
        bins = list(bins)
        assignment = {r.id: b.index for b in bins for r in b}
        if items is None:
            items = ItemList(r for b in bins for r in b)
        return cls(items, assignment, algorithm=algorithm, capacity=capacity, tol=tol)

    # -- bins -----------------------------------------------------------------

    def bins(self) -> Sequence[Bin]:
        """The bins of this packing, materialised lazily (cached)."""
        if self._bins is None:
            self._bins = bins_from_assignment(
                self.items, self.assignment, capacity=self.capacity, tol=self.tol
            )
        return self._bins

    @property
    def num_bins(self) -> int:
        """Number of distinct bins ever opened."""
        return len(set(self.assignment.values()))

    # -- feasibility -------------------------------------------------------------

    def _bin_column(self, ids: np.ndarray) -> np.ndarray:
        """The bin index of each of ``ids``, as an int64 array."""
        return np.fromiter(
            map(self.assignment.__getitem__, ids.tolist()), dtype=np.int64, count=len(ids)
        )

    def validate(self) -> None:
        """Check full feasibility of the packing.

        Verified invariants:

        * every item is assigned to exactly one bin for its entire active
          interval (no migration is representable in this model by
          construction, so this is implied by the assignment shape);
        * at every event time, each bin's level is within capacity.

        Levels are piecewise constant between event times, so checking at
        event times (the left endpoint of each constant piece) is exact.
        The check runs on a vectorised numpy sweep — all arrival/departure
        deltas are sorted by (bin, time, sign) and cumulatively summed, with
        per-bin baselines subtracted so float noise cannot leak across bins
        (cross-checked against the segment-by-segment recompute in tests).
        Vector packings run one sweep per resource dimension.

        Raises:
            ValidationError: on any capacity violation, reporting the bin,
                dimension, time and level.
        """
        n = len(self.items)
        if n == 0:
            return
        ids, arrivals, departures, sizes_matrix = self.items.columns()
        bins_col = self._bin_column(ids)
        ev_bins = np.concatenate([bins_col, bins_col])
        ev_times = np.concatenate([arrivals, departures])
        dims = self.items.dims
        for dim in range(dims):
            sizes = sizes_matrix[:, dim]
            ev_deltas = np.concatenate([sizes, -sizes])
            # Departures sort before arrivals at equal times (negative deltas
            # first), matching half-open interval semantics.
            order = np.lexsort((ev_deltas, ev_times, ev_bins))
            sorted_bins = ev_bins[order]
            levels = np.cumsum(ev_deltas[order])
            # Subtract each bin's closing balance so the running sum restarts
            # at exactly zero per bin (float cancellation is not exact on its
            # own).
            boundaries = np.flatnonzero(np.diff(sorted_bins)) + 1
            if boundaries.size:
                offsets = np.concatenate([[0.0], levels[boundaries - 1]])
                seg_lengths = np.diff(np.concatenate([[0], boundaries, [2 * n]]))
                levels = levels - np.repeat(offsets, seg_lengths)
            bad = levels > self.capacity + self.tol
            if bad.any():
                k = int(np.argmax(bad))
                where = f" (dim {dim})" if dims > 1 else ""
                raise ValidationError(
                    f"bin {int(sorted_bins[k])} overflows{where} at "
                    f"t={ev_times[order][k]}: "
                    f"level {float(levels[k])} > capacity {self.capacity}"
                )

    def _validate_exact(self) -> None:
        """Reference implementation of :meth:`validate` (pure Python).

        Kept for cross-checking the vectorised sweep in the test suite;
        identical contract and error conditions.
        """
        for b in self.bins():
            for dim in range(self.items.dims):
                profile = StepFunction()
                for item in b.items:
                    profile.add(item.interval, item.sizes[dim])
                for left, _right, value in profile.segments():
                    if value > self.capacity + self.tol:
                        raise ValidationError(
                            f"bin {b.index} overflows at t={left}: level {value} > "
                            f"capacity {self.capacity}"
                        )

    def is_feasible(self) -> bool:
        """Boolean wrapper around :meth:`validate`."""
        try:
            self.validate()
        except ValidationError:
            return False
        return True

    # -- objective & profiles -------------------------------------------------------

    def total_usage(self) -> float:
        """The MinUsageTime objective: ``Σ_bins span(items in bin)``.

        Computed by one Python interval-union pass over the item list's
        :meth:`~repro.core.ItemList.columns` and the raw assignment, so large
        packings never pay for materialising :class:`~repro.core.Bin` or
        :class:`~repro.core.Item` objects.  Each
        bin's intervals are taken in item order (arrival, then id); each
        contributes the part of itself beyond the running maximum departure
        of the bin's earlier intervals.  A bin's parts are added in the
        order of numpy's pairwise ``add.reduce`` (:func:`_pairwise_sum`) and
        the bins in ascending index order, so the float is bit-identical to
        the grouped numpy sweep this replaced — usage values feed output
        digests and journal records, where one ulp of drift would show.
        When the bins are already cached (someone called :meth:`bins`),
        their O(1) cached usage times are summed instead.
        """
        if self._bins is not None:
            return sum(b.usage_time() for b in self._bins)
        ids, arrivals, departures, _ = self.items.columns()
        bins = self._bin_column(ids)
        # A stable sort by bin keeps each bin's items in list order.
        order = np.argsort(bins, kind="stable")
        total = 0.0
        parts: list[float] = []
        current = None
        for b, left, right in zip(
            bins[order].tolist(), arrivals[order].tolist(), departures[order].tolist()
        ):
            if b != current:
                total += 0.0 + _pairwise_sum(parts)  # numpy's reduce starts at 0.0
                parts = []
                current, reach = b, left
            part = right - (left if left > reach else reach)
            parts.append(part if part > 0.0 else 0.0)
            if right > reach:
                reach = right
        return total + (0.0 + _pairwise_sum(parts))

    def per_bin_usage(self) -> dict[int, float]:
        """Usage time of each bin, keyed by bin index."""
        return {b.index: b.usage_time() for b in self.bins()}

    def open_bins_profile(self) -> StepFunction:
        """Step function counting bins in use at each time."""
        profile = StepFunction()
        for b in self.bins():
            for iv in b.usage_intervals():
                profile.add(iv, 1.0)
        return profile

    def max_open_bins(self) -> int:
        """Peak number of simultaneously used bins (classical-DBP objective)."""
        return int(round(self.open_bins_profile().max_value()))

    def open_bins_at(self, t: float) -> int:
        """Number of bins in use at time ``t``."""
        return int(round(self.open_bins_profile().value_at(t)))

    def utilization(self) -> float:
        """``d(R) / total_usage`` — fraction of rented capacity actually used."""
        usage = self.total_usage()
        if usage == 0:
            return 1.0
        return self.items.total_demand() / usage

    def bin_usage_over(self, interval: Interval) -> float:
        """Aggregate bin usage time restricted to a window (for stage analyses)."""
        total = 0.0
        for b in self.bins():
            for iv in b.usage_intervals():
                clipped = iv.intersection(interval)
                if clipped is not None:
                    total += clipped.length
        return total

    def stats(self) -> PackingStats:
        """Aggregate :class:`PackingStats` for reporting."""
        return PackingStats(
            algorithm=self.algorithm,
            num_items=len(self.items),
            num_bins=self.num_bins,
            total_usage=self.total_usage(),
            total_demand=self.items.total_demand(),
            span=self.items.span(),
            max_open_bins=self.max_open_bins(),
            utilization=self.utilization(),
        )

    # -- serialisation -------------------------------------------------------

    def to_record(self) -> dict[str, object]:
        """A JSON-ready record of this packing (items + assignment)."""
        return {
            "algorithm": self.algorithm,
            "capacity": self.capacity,
            "items": self.items.to_records(),
            "assignment": {str(k): v for k, v in self.assignment.items()},
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "PackingResult":
        """Inverse of :meth:`to_record`."""
        items = ItemList.from_records(record["items"])  # type: ignore[arg-type]
        assignment = {
            int(k): int(v)
            for k, v in record["assignment"].items()  # type: ignore[union-attr]
        }
        return cls(
            items,
            assignment,
            algorithm=str(record.get("algorithm", "unknown")),
            capacity=float(record.get("capacity", 1.0)),  # type: ignore[arg-type]
        )

    def to_json(self) -> str:
        """JSON text for the whole packing (audit/replay artefact)."""
        import json

        return json.dumps(self.to_record())

    @classmethod
    def from_json(cls, text: str) -> "PackingResult":
        """Inverse of :meth:`to_json`."""
        import json

        return cls.from_record(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PackingResult(algorithm={self.algorithm!r}, items={len(self.items)}, "
            f"bins={self.num_bins})"
        )
