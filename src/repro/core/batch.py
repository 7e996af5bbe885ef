"""Structure-of-arrays arrival batches for the columnar engine hot path.

The streaming engine's scalar API (:meth:`~repro.engine.PackingSession.submit`)
pays per-item Python overhead — clock checks, fault checks, telemetry writes,
an open-bin query — for every arrival.  :class:`ArrivalBatch` is the columnar
input type that lets :meth:`~repro.engine.PackingSession.submit_many` and
:meth:`~repro.algorithms.OnlinePacker.place_many` amortise all of that across
a whole batch: ids, arrivals, departures and the ``(n, d)`` size matrix live
in contiguous numpy arrays, so batch validation is a handful of vectorised
reductions and the first-fit core
(:class:`~repro.algorithms.ClassifiedFirstFit`) can consume size rows
directly without ever materialising :class:`~repro.core.Item` objects on the
hot path.

Construction is validated once per batch (:meth:`ArrivalBatch.from_arrays`)
or inherited from already-validated items (:meth:`ArrivalBatch.from_items`),
which is what makes the trusted fast paths downstream sound.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exceptions import ValidationError
from .items import Item, ItemList, _item_columns, _trusted_item

__all__ = ["ArrivalBatch"]


class ArrivalBatch:
    """A validated, columnar batch of arriving items (structure of arrays).

    Attributes:
        ids: ``(n,)`` int64 item identifiers.
        arrivals: ``(n,)`` float64 arrival times.
        departures: ``(n,)`` float64 departure times.
        sizes: ``(n, d)`` float64 demand matrix (C-contiguous); row ``i`` is
            item ``i``'s demand vector.

    Rows are kept in the order given; :meth:`~repro.engine.PackingSession.submit_many`
    requires (and checks) non-decreasing arrivals for its fast path.
    """

    __slots__ = ("ids", "arrivals", "departures", "sizes")

    def __init__(
        self,
        ids: np.ndarray,
        arrivals: np.ndarray,
        departures: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Wrap pre-normalised arrays; use the classmethod constructors."""
        self.ids = ids
        self.arrivals = arrivals
        self.departures = departures
        self.sizes = sizes

    @classmethod
    def from_arrays(
        cls,
        ids: "np.ndarray | Iterable[int]",
        arrivals: "np.ndarray | Iterable[float]",
        departures: "np.ndarray | Iterable[float]",
        sizes: "np.ndarray | Iterable[float] | Iterable[Iterable[float]]",
    ) -> "ArrivalBatch":
        """Build a batch from array-likes, validating the item invariants.

        ``sizes`` may be ``(n,)`` (scalar items) or ``(n, d)``.  Validation
        mirrors :class:`~repro.core.Item`: every size coordinate in
        ``(0, 1]``, finite times with ``arrival < departure`` per row.

        Raises:
            ValidationError: on shape mismatches or any out-of-range row
                (the message names the first offending row's id).
        """
        ids_a = np.ascontiguousarray(ids, dtype=np.int64)
        arr = np.ascontiguousarray(arrivals, dtype=np.float64)
        dep = np.ascontiguousarray(departures, dtype=np.float64)
        sz = np.ascontiguousarray(sizes, dtype=np.float64)
        if sz.ndim == 1:
            sz = sz.reshape(-1, 1)
        n = ids_a.shape[0]
        if sz.ndim != 2 or arr.shape != (n,) or dep.shape != (n,) or sz.shape[0] != n:
            raise ValidationError(
                "ArrivalBatch arrays must share one length: got "
                f"ids {ids_a.shape}, arrivals {arr.shape}, departures "
                f"{dep.shape}, sizes {sz.shape}"
            )
        if n:
            bad = ~(np.isfinite(arr) & np.isfinite(dep) & (dep > arr))
            if bad.any():
                i = int(bad.argmax())
                raise ValidationError(
                    f"item {ids_a[i]}: invalid interval "
                    f"[{arr[i]}, {dep[i]}) (need finite arrival < departure)"
                )
            bad_size = ~((sz > 0.0) & (sz <= 1.0)).all(axis=1)
            if bad_size.any():
                i = int(bad_size.argmax())
                raise ValidationError(
                    f"item {ids_a[i]}: sizes must be in (0, 1], got "
                    f"{tuple(sz[i])}"
                )
        return cls(ids_a, arr, dep, sz)

    @classmethod
    def from_items(cls, items: "ItemList | Iterable[Item]") -> "ArrivalBatch":
        """Build a batch from already-validated items (no re-validation).

        The row order follows the iteration order of ``items`` (for an
        :class:`~repro.core.ItemList`, arrival order).
        """
        seq = list(items)
        return cls(*_item_columns(seq, len(seq[0].sizes) if seq else 1))

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def dims(self) -> int:
        """Number of resource dimensions ``d``."""
        return self.sizes.shape[1]

    def item(self, i: int) -> Item:
        """Materialise row ``i`` as an :class:`~repro.core.Item`."""
        return _trusted_item(
            int(self.ids[i]),
            tuple(self.sizes[i].tolist()),
            float(self.arrivals[i]),
            float(self.departures[i]),
        )
