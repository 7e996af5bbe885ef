"""Packer base classes and the algorithm registry.

Two families of packers exist, mirroring the paper's offline/online split:

* :class:`OfflinePacker` sees the whole :class:`~repro.core.ItemList` at once
  and may process items in any order (e.g. Duration Descending First Fit,
  Dual Coloring).
* :class:`OnlinePacker` must place items irrevocably in arrival order.  In the
  *clairvoyant* setting the packer may read each item's departure time when
  placing it; non-clairvoyant baselines simply never look at it.

Every packer produces a :class:`~repro.core.PackingResult`.  The registry maps
stable string names to packer factories so benches, the CLI, the cloud
scheduler and the streaming engine can be configured by name;
:func:`get_packer` validates keyword arguments against each factory's
declared parameters and :func:`available_packers` exposes the per-packer
parameter metadata.

Online packers carry an **indexed bin pool**: a lazy min-heap over bin close
times retires departed bins in O(log n), so :meth:`OnlinePacker.open_bins_at`
at the arrival frontier touches only the bins that are actually open instead
of rescanning every bin ever opened.  Both batch :meth:`OnlinePacker.pack`
and the streaming :class:`~repro.engine.PackingSession` run on this index.
"""

from __future__ import annotations

import abc
import heapq
import inspect
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..core.batch import ArrivalBatch
from ..core.bins import Bin
from ..core.exceptions import RegistryError, UnknownPackerError
from ..core.items import Item, ItemList
from ..core.packing import PackingResult

__all__ = [
    "Packer",
    "OfflinePacker",
    "OnlinePacker",
    "BatchPlacement",
    "ParamInfo",
    "PackerInfo",
    "register_packer",
    "get_packer",
    "packer_info",
    "available_packers",
]


class Packer(abc.ABC):
    """Common interface of all packing algorithms."""

    #: Stable machine-readable algorithm name (set by subclasses).
    name: str = "packer"

    @abc.abstractmethod
    def pack(self, items: ItemList) -> PackingResult:
        """Pack all items, returning the resulting assignment."""

    def describe(self) -> str:
        """Human-readable one-line description (name + parameters)."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


class OfflinePacker(Packer):
    """A packer allowed to inspect the whole item list before placing."""

    def pack(self, items: ItemList) -> PackingResult:
        assignment = self._assign(items)
        return PackingResult(items, assignment, algorithm=self.describe())

    @abc.abstractmethod
    def _assign(self, items: ItemList) -> dict[int, int]:
        """Compute the item-id → bin-index assignment."""


_NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class BatchPlacement:
    """Result of one :meth:`OnlinePacker.place_many` call.

    Attributes:
        indices: ``(n,)`` int64 array — the bin index each batch row was
            committed to, in row order (never ``-1``: the packer itself
            always places; fault-driven drops happen in the session layer).
        open_bins: ``(n,)`` int64 array — the number of open bins right
            after each row's placement, measured at that row's arrival time
            (what the scalar path reads via ``len(open_bins_at(arrival))``).
        bins_retired: Total bins retired while advancing through the batch's
            arrivals (matches the sum the scalar loop would accumulate).
    """

    indices: np.ndarray
    open_bins: np.ndarray
    bins_retired: int


class OnlinePacker(Packer):
    """A packer that places items one at a time, in arrival order.

    Subclasses implement :meth:`place`, which must decide irrevocably where
    the presented item goes.  The base class manages the shared pool of bins
    (``self._bins``) and the opening counter; :meth:`open_bin` creates a new
    bin with the next index.

    The driver presents items in arrival order (ties broken by item id,
    matching :func:`repro.core.event_stream`).  A fresh :meth:`reset` happens
    at the start of each :meth:`pack`, so a packer instance is reusable.

    **Incremental place contract.**  ``place(item)`` must commit *exactly*
    the presented item to the bin whose index it returns, and nothing else —
    the streaming engine relies on this to feed items one at a time and to
    amend mispredicted departures afterwards.  Subclasses should commit via
    :meth:`commit`, which also maintains the open-bin index; committing with
    ``bin.place`` directly stays correct because every driver (``pack``,
    ``pack_stream``, the engine session) re-syncs the index from the returned
    bin after each placement.
    """

    #: Dimensionality of the bins this packer opens.  Scalar packers keep the
    #: default 1; vector packers set it per instance (possibly inferring it
    #: from the first item, in which case it may be ``None`` until then).
    dims: int | None = 1

    def __init__(self) -> None:
        self._bins: list[Bin] = []
        self._open: set[int] = set()
        self._close_times: list[float] = []
        self._retire_heap: list[tuple[float, int]] = []
        self._frontier = _NEG_INF

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Clear all state before packing a new item list."""
        self._bins = []
        self._open = set()
        self._close_times = []
        self._retire_heap = []
        self._frontier = _NEG_INF

    def pack(self, items: ItemList) -> PackingResult:
        """Pack all items, returning the resulting assignment."""
        self.reset()
        for item in items:  # ItemList iterates in arrival order
            index = self.place(item)
            self._note_commit(index, item)
        return PackingResult.from_bins(self._bins, items, algorithm=self.describe())

    def pack_stream(self, items: Iterable[Item]) -> dict[int, int]:
        """Pack an already-ordered stream without building a result object.

        Used by the event-driven simulator, which interleaves its own
        bookkeeping between placements.  The caller is responsible for
        calling :meth:`reset` first and for arrival ordering.
        """
        assignment: dict[int, int] = {}
        for item in items:
            index = self.place(item)
            self._note_commit(index, item)
            assignment[item.id] = index
        return assignment

    def place_many(self, batch: ArrivalBatch) -> BatchPlacement:
        """Place a whole :class:`~repro.core.ArrivalBatch`, row by row.

        The default implementation is the scalar loop — it materialises each
        row as an :class:`~repro.core.Item` and routes it through
        :meth:`place`, retiring departed bins at every arrival exactly as the
        streaming session does.  The first-fit core
        (:class:`~repro.algorithms.ClassifiedFirstFit`) overrides this with its
        list-based placement loop, which builds no objects; either way the
        placements equal the scalar loop's (``tests/test_engine.py``,
        ``tests/test_first_fit_core.py``).

        The caller (``PackingSession.submit_many``) guarantees rows arrive in
        non-decreasing arrival order with unique, fresh ids.
        """
        n = len(batch)
        indices = np.empty(n, dtype=np.int64)
        opens = np.empty(n, dtype=np.int64)
        retired = 0
        for i in range(n):
            item = batch.item(i)
            retired += len(self.retire_indices(item.arrival))
            index = self.place(item)
            self._note_commit(index, item)
            indices[i] = index
            opens[i] = len(self._open)
        return BatchPlacement(indices=indices, open_bins=opens, bins_retired=retired)

    # -- bin pool ----------------------------------------------------------------

    @property
    def bins(self) -> list[Bin]:
        """All bins ever opened, in opening order."""
        return self._bins

    def bin_count(self) -> int:
        """Number of bins ever opened.

        Equivalent to ``len(self.bins)`` but safe to call on the hot path:
        the first-fit core builds its :class:`~repro.core.Bin` objects only
        on demand and answers this without building them.
        """
        return len(self._close_times)

    def open_bin_count(self) -> int:
        """Size of the open-bin index (bins not yet retired).

        Right after a placement at the arrival frontier this equals
        ``len(open_bins_at(arrival))`` without building or sorting bins.
        """
        return len(self._open)

    def assignment(self) -> dict[int, int]:
        """Item id → bin index of everything placed so far."""
        return {r.id: b.index for b in self.bins for r in b}

    def usage_time(self) -> float:
        """Total usage time of every bin opened so far."""
        return sum(b.usage_time() for b in self.bins)

    def open_bin(self) -> Bin:
        """Open a fresh bin with the next index and return it."""
        b = Bin(len(self._bins), dims=self.dims or 1)
        self._bins.append(b)
        self._close_times.append(_NEG_INF)
        return b

    def commit(self, b: Bin, item: Item, *, check: bool = False) -> int:
        """Commit ``item`` to bin ``b`` and update the open-bin index.

        The preferred way for :meth:`place` implementations to commit their
        decision; returns the bin index so ``place`` can end with
        ``return self.commit(target, item)``.
        """
        b.place(item, check=check)
        self._note_commit(b.index, item)
        return b.index

    def _note_commit(self, index: int, item: Item) -> None:
        """Sync the open-bin index after ``item`` landed in bin ``index``.

        Idempotent: drivers call it after every ``place`` even when the
        placement already went through :meth:`commit`.
        """
        close = self._bins[index].close_time()
        if self._close_times[index] != close:
            self._close_times[index] = close
            heapq.heappush(self._retire_heap, (close, index))
        self._open.add(index)
        if item.arrival > self._frontier:
            self._frontier = item.arrival

    def retire_indices(self, t: float) -> list[int]:
        """Drop bins whose close time is ``<= t`` from the open set.

        Returns the newly retired bin indices (in retirement order).  Uses
        the lazy close-time heap: stale entries — from bins whose close time
        moved after the entry was pushed — are skipped, so each entry is paid
        for once, O(log n).
        """
        retired: list[int] = []
        heap = self._retire_heap
        while heap and heap[0][0] <= t:
            close, index = heapq.heappop(heap)
            if close != self._close_times[index]:
                continue  # stale: the bin's close time has since moved
            if index in self._open:
                self._open.discard(index)
                retired.append(index)
        return retired

    def amend_last(self, bin_index: int, actual: Item) -> None:
        """Replace the item just committed to ``bin_index`` with ``actual``.

        Supports noisy clairvoyance: the packer decided on a *predicted*
        departure, but the bin must track the *actual* occupancy a real
        system would observe.  Updates the bin and the open-bin index.

        Raises:
            ValidationError: if that bin's last item has a different id
                (the placement contract was broken).
        """
        b = self._bins[bin_index]
        b.amend_last(actual)
        self._note_commit(bin_index, actual)

    def open_bins_at(self, t: float) -> list[Bin]:
        """Bins with at least one item active at ``t``, in opening order.

        A bin whose items have all departed is *closed* (paper §5) and is
        never considered for new placements — re-using it would cost the same
        as a new bin and would muddle the analysis.

        At or beyond the arrival frontier (the hot path: every placement
        queries its own arrival time) this reads the retire-heap index and
        touches only open bins.  Queries strictly in the past fall back to
        the exact linear scan, since a bin may have usage gaps there.
        """
        bins = self.bins
        if t >= self._frontier:
            self.retire_indices(t)
            return [bins[i] for i in sorted(self._open) if self._close_times[i] > t]
        return [b for b in bins if b.is_open_at(t)]

    # -- the decision ---------------------------------------------------------------

    @abc.abstractmethod
    def place(self, item: Item) -> int:
        """Choose a bin for ``item`` and commit it; return the bin index."""


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ParamInfo:
    """One constructor parameter of a registered packer.

    Attributes:
        name: Parameter name as accepted by :func:`get_packer`.
        required: True when the parameter has no default.
        default: The default value (``None`` when required).
        annotation: The declared type annotation as text ("" if absent).
    """

    name: str
    required: bool
    default: object
    annotation: str

    def describe(self) -> str:
        """Render as ``name`` / ``name=default`` for error messages."""
        return self.name if self.required else f"{self.name}={self.default!r}"


@dataclass(frozen=True, slots=True)
class PackerInfo:
    """Registry metadata of one packer: its name and declared parameters.

    Attributes:
        name: The registry name.
        params: Declared constructor parameters, in declaration order.
        accepts_extra: True when the factory takes ``**kwargs`` (no keyword
            validation is possible).
        summary: First line of the factory's docstring.
        dims: Item dimensionalities the packer supports — a tuple of allowed
            values, or ``None`` for *any* dimensionality (the vector
            packers).  Scalar packers declare the default ``(1,)``.
    """

    name: str
    params: tuple[ParamInfo, ...]
    accepts_extra: bool
    summary: str
    dims: tuple[int, ...] | None = (1,)

    def param_names(self) -> tuple[str, ...]:
        """Accepted keyword names, in declaration order."""
        return tuple(p.name for p in self.params)

    def required_params(self) -> tuple[str, ...]:
        """Names of the parameters without defaults."""
        return tuple(p.name for p in self.params if p.required)

    def supports_dims(self, dims: int) -> bool:
        """True iff the packer can place ``dims``-dimensional items."""
        return self.dims is None or dims in self.dims

    def describe_dims(self) -> str:
        """Render the supported dimensionalities for listings/messages."""
        if self.dims is None:
            return "any"
        return ", ".join(str(d) for d in self.dims)


_REGISTRY: dict[str, Callable[..., Packer]] = {}
_INFO: dict[str, PackerInfo] = {}


def _inspect_factory(
    name: str,
    factory: Callable[..., Packer],
    dims: tuple[int, ...] | None = (1,),
) -> PackerInfo:
    """Build :class:`PackerInfo` from a factory's signature and docstring."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return PackerInfo(name=name, params=(), accepts_extra=True, summary="", dims=dims)
    params: list[ParamInfo] = []
    accepts_extra = False
    for p in signature.parameters.values():
        if p.name == "self" or p.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        if p.kind is inspect.Parameter.VAR_KEYWORD:
            accepts_extra = True
            continue
        required = p.default is inspect.Parameter.empty
        annotation = "" if p.annotation is inspect.Parameter.empty else str(p.annotation)
        params.append(
            ParamInfo(
                name=p.name,
                required=required,
                default=None if required else p.default,
                annotation=annotation,
            )
        )
    doc = inspect.getdoc(factory) or ""
    summary = doc.splitlines()[0].strip() if doc else ""
    return PackerInfo(
        name=name,
        params=tuple(params),
        accepts_extra=accepts_extra,
        summary=summary,
        dims=dims,
    )


def register_packer(
    name: str, *, dims: tuple[int, ...] | None = (1,)
) -> Callable[[Callable[..., Packer]], Callable[..., Packer]]:
    """Class decorator registering a packer factory under ``name``.

    Args:
        name: Stable registry name.
        dims: Item dimensionalities the packer supports; ``None`` means any
            (see :attr:`PackerInfo.dims`).
    """

    def deco(factory: Callable[..., Packer]) -> Callable[..., Packer]:
        if name in _REGISTRY:
            raise RegistryError(f"packer name already registered: {name}")
        _REGISTRY[name] = factory
        _INFO[name] = _inspect_factory(name, factory, dims)
        return factory

    return deco


def _unknown_name_error(name: str) -> UnknownPackerError:
    return UnknownPackerError(
        f"packer {name!r}: unknown packer; available: {', '.join(sorted(_REGISTRY))}"
    )


def get_packer(name: str, **kwargs: object) -> Packer:
    """Instantiate a registered packer by name, validating its parameters.

    Keyword arguments are checked against the factory's declared parameters
    (its ``__init__`` signature) *before* instantiation, so a typo'd or
    unsupported parameter fails loudly instead of being silently accepted.

    A ``dims`` keyword is additionally checked against the packer's declared
    dimensionality capability (:attr:`PackerInfo.dims`): passing the
    dimensionality of the instance to be packed rejects incompatible packers
    up front (e.g. a scalar-only packer for a 3-resource trace).  When the
    factory itself declares a ``dims`` parameter (the vector packers), the
    value is forwarded; otherwise it is consumed by the validation alone.

    Every failure path raises the same uniform
    :class:`~repro.core.RegistryError` shape (a
    :class:`~repro.core.ValidationError`, hence also a ``ValueError``) with a
    ``packer '<name>':`` message prefix; unknown names raise
    :class:`~repro.core.UnknownPackerError`, which also subclasses
    ``KeyError`` for mapping-style callers.

    Raises:
        UnknownPackerError: for unknown names; the message lists what is
            available.
        RegistryError: for unknown keyword arguments, missing required ones,
            or an unsupported ``dims``; the message lists the packer's
            accepted parameters / supported dimensionalities.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise _unknown_name_error(name) from None
    info = _INFO[name]
    dims = kwargs.get("dims")
    if dims is not None:
        if isinstance(dims, bool) or not isinstance(dims, int) or dims < 1:
            raise RegistryError(
                f"packer {name!r}: dims must be a positive integer, got {dims!r}"
            )
        if not info.supports_dims(dims):
            raise RegistryError(
                f"packer {name!r}: does not support {dims}-dimensional items; "
                f"supported dims: {info.describe_dims()}"
            )
        if "dims" not in info.param_names() and not info.accepts_extra:
            kwargs = {k: v for k, v in kwargs.items() if k != "dims"}
    if not info.accepts_extra:
        accepted = info.param_names()
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            listing = ", ".join(p.describe() for p in info.params) or "none"
            raise RegistryError(
                f"packer {name!r}: unknown parameter(s) {', '.join(unknown)}; "
                f"accepted: {listing}"
            )
        missing = sorted(set(info.required_params()) - set(kwargs))
        if missing:
            raise RegistryError(
                f"packer {name!r}: requires parameter(s): {', '.join(missing)}"
            )
    return factory(**kwargs)


def packer_info(name: str) -> PackerInfo:
    """The declared parameter metadata of one registered packer.

    Raises:
        UnknownPackerError: for unknown names; the message lists what is
            available.
    """
    if name not in _INFO:
        raise _unknown_name_error(name)
    return _INFO[name]


def available_packers() -> dict[str, PackerInfo]:
    """All registered packers: name → parameter metadata, sorted by name.

    The mapping iterates in name order, so existing callers that treated the
    result as a list of names (``for name in available_packers()``,
    ``"first-fit" in available_packers()``) keep working unchanged.
    """
    return {name: _INFO[name] for name in sorted(_REGISTRY)}
