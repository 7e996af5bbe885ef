"""Decision replay: record *why* an online packer placed each item.

For debugging, teaching and post-mortems: :func:`record_decisions` replays a
workload against an online packer and logs, for every placement, the system
state the packer saw — which bins were open, their levels, which could have
accommodated the item — and what it chose.  The log pinpoints exactly where
two policies diverge on the same workload (:func:`first_divergence`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.base import OnlinePacker
from ..core.items import ItemList
from ..obs import TelemetryRegistry

__all__ = ["Decision", "DecisionLog", "record_decisions", "first_divergence"]


@dataclass(frozen=True, slots=True)
class Decision:
    """One placement decision.

    Attributes:
        item_id: The item being placed.
        time: Its arrival (decision) time.
        open_bins: Indices of bins open at the decision time, in opening
            order.
        levels: Those bins' levels at the decision time.
        feasible_bins: The subset that could have accommodated the item.
        chosen_bin: Where the item went.
        opened_new: Whether the choice opened a fresh bin.
    """

    item_id: int
    time: float
    open_bins: tuple[int, ...]
    levels: tuple[float, ...]
    feasible_bins: tuple[int, ...]
    chosen_bin: int
    opened_new: bool

    def as_dict(self) -> dict[str, object]:
        """JSON-ready row (the CLI's ``replay --json`` decision shape)."""
        return {
            "item_id": self.item_id,
            "time": self.time,
            "open_bins": list(self.open_bins),
            "levels": list(self.levels),
            "feasible_bins": list(self.feasible_bins),
            "chosen_bin": self.chosen_bin,
            "opened_new": self.opened_new,
        }


@dataclass(frozen=True, slots=True)
class DecisionLog:
    """The full decision sequence of one run.

    Attributes:
        algorithm: The packer's label.
        decisions: Every placement decision, in arrival order.
        error: ``None`` for a clean replay; otherwise the error that stopped
            it early (``record_decisions(..., on_error="stop")``), with the
            decisions up to that point retained.
    """

    algorithm: str
    decisions: tuple[Decision, ...]
    error: str | None = None

    def __len__(self) -> int:
        return len(self.decisions)

    def by_item(self, item_id: int) -> Decision:
        """The decision for one item.

        Raises:
            KeyError: if the item never appeared.
        """
        for d in self.decisions:
            if d.item_id == item_id:
                return d
        raise KeyError(item_id)

    def new_bin_openings(self) -> list[Decision]:
        """The decisions that opened fresh bins (the cost drivers)."""
        return [d for d in self.decisions if d.opened_new]

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form: algorithm plus every decision row."""
        payload: dict[str, object] = {
            "algorithm": self.algorithm,
            "decisions": [d.as_dict() for d in self.decisions],
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


def record_decisions(
    packer: OnlinePacker,
    items: ItemList,
    *,
    registry: TelemetryRegistry | None = None,
    on_error: str = "raise",
) -> DecisionLog:
    """Replay ``items`` against ``packer``, capturing every decision.

    The packer is reset first; the resulting packing is identical to
    ``packer.pack(items)`` (pure observation, no behavioural change).  With
    a ``registry``, the replay is wrapped in a ``replay.record`` span and
    records ``replay.decisions`` / ``replay.new_bins`` counters labelled by
    algorithm; the returned log is identical with or without it.

    Args:
        on_error: ``"raise"`` propagates a packer exception mid-replay (the
            default); ``"stop"`` truncates instead — the log keeps every
            decision made before the failure, records the error in
            ``DecisionLog.error`` and increments ``replay.errors``.
    """
    if on_error not in ("raise", "stop"):
        raise ValueError(f"on_error must be 'raise' or 'stop', got {on_error!r}")
    obs = registry if registry is not None else TelemetryRegistry()
    packer.reset()
    decisions = []
    error: str | None = None
    with obs.span("replay.record"):
        for item in items:  # arrival order
            t = item.arrival
            open_bins = packer.open_bins_at(t)
            open_indices = tuple(b.index for b in open_bins)
            levels = tuple(b.level_at(t) for b in open_bins)
            feasible = tuple(
                b.index for b in open_bins if b.fits_at_arrival(item)
            )
            before = packer.bin_count()
            try:
                chosen = packer.place(item)
            except Exception as exc:
                if on_error == "raise":
                    raise
                error = f"item {item.id}: {type(exc).__name__}: {exc}"
                break
            decisions.append(
                Decision(
                    item_id=item.id,
                    time=t,
                    open_bins=open_indices,
                    levels=levels,
                    feasible_bins=feasible,
                    chosen_bin=chosen,
                    opened_new=packer.bin_count() > before,
                )
            )
    labels = {"algorithm": packer.describe()}
    obs.counter("replay.decisions", **labels).inc(len(decisions))
    obs.counter("replay.new_bins", **labels).inc(
        sum(1 for d in decisions if d.opened_new)
    )
    if error is not None:
        obs.counter("replay.errors", **labels).inc()
    return DecisionLog(
        algorithm=packer.describe(), decisions=tuple(decisions), error=error
    )


def first_divergence(
    a: OnlinePacker,
    b: OnlinePacker,
    items: ItemList,
    *,
    registry: TelemetryRegistry | None = None,
) -> tuple[Decision, Decision] | None:
    """The first item on which two policies choose structurally differently.

    "Structurally different" compares the *partition* the choices induce, not
    raw bin indices: two runs agree on an item when it joins a bin holding
    the same set of previously-placed items (or both open a new bin).

    Returns ``None`` when the induced partitions are identical throughout.
    A ``registry`` is threaded into both :func:`record_decisions` replays.
    """
    log_a = record_decisions(a, items, registry=registry)
    log_b = record_decisions(b, items, registry=registry)
    groups_a: dict[int, set[int]] = {}
    groups_b: dict[int, set[int]] = {}
    for da, db in zip(log_a.decisions, log_b.decisions):
        members_a = frozenset(groups_a.get(da.chosen_bin, set()))
        members_b = frozenset(groups_b.get(db.chosen_bin, set()))
        if members_a != members_b:
            return (da, db)
        groups_a.setdefault(da.chosen_bin, set()).add(da.item_id)
        groups_b.setdefault(db.chosen_bin, set()).add(db.item_id)
    return None
