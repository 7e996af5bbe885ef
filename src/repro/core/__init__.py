"""Core substrate: intervals, step functions, items, bins and packings."""

from .batch import ArrivalBatch
from .bins import Bin, bins_from_assignment
from .events import (
    Event,
    EventArrays,
    EventKind,
    SizeSlice,
    active_size_slices,
    event_stream,
)
from .exceptions import (
    CapacityError,
    DeadlineExceeded,
    InfeasibleError,
    RegistryError,
    ReproError,
    SolverLimitError,
    UnknownPackerError,
    ValidationError,
)
from .intervals import Interval, intersect_many, merge_intervals, span, total_length
from .items import Item, ItemList
from .packing import PackingResult, PackingStats
from .stepfun import DEFAULT_TOL, StepFunction, iceil

__all__ = [
    "ArrivalBatch",
    "Bin",
    "bins_from_assignment",
    "Event",
    "EventArrays",
    "EventKind",
    "SizeSlice",
    "active_size_slices",
    "event_stream",
    "CapacityError",
    "DeadlineExceeded",
    "InfeasibleError",
    "RegistryError",
    "ReproError",
    "SolverLimitError",
    "UnknownPackerError",
    "ValidationError",
    "Interval",
    "intersect_many",
    "merge_intervals",
    "span",
    "total_length",
    "Item",
    "ItemList",
    "PackingResult",
    "PackingStats",
    "DEFAULT_TOL",
    "StepFunction",
    "iceil",
]
