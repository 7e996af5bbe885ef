"""Crash recovery: rehydrate tenant sessions from the write-ahead journal.

The inverse of :mod:`repro.serving.wal`.  For each journaled tenant,
recovery

1. loads the latest valid **checkpoint** (a pickled bundle of the tenant's
   live session, fault policy, private engine registry and admission-gate
   bookkeeping) when one exists — a pickle round-trip of a
   :class:`~repro.engine.PackingSession` is bit-identical, so the restored
   session *is* the checkpointed one;
2. **replays the segment tail** (records after the checkpoint's covered
   sequence number) through the columnar
   :meth:`~repro.engine.PackingSession.submit_many` fast path — runs of
   consecutive arrival records become one
   :class:`~repro.core.batch.ArrivalBatch` each, split at ``advance``
   records so event ordering is preserved.  ``submit_many`` placements are
   invariant to batch grouping (the PR 7 parity gates), so the rehydrated
   session matches an uninterrupted run bit for bit;
3. **restores the admission gate** — ``seen_ids``, the ingest tail, and
   the admitted/placed accounting — so a duplicate of an already-acked item
   is still rejected after restart and the drain report's ``lost == 0``
   invariant keeps holding across process death.

Used eagerly by ``serve --recover`` (every journaled tenant is rehydrated
before the transport starts accepting) and lazily by the runtime's
hot-tenant eviction (an evicted tenant rehydrates transparently on its next
request).  A torn tail — never acknowledged — is healed when the journal
opens; any other damage raises :class:`~repro.resilience.CorruptLogError`
before the tenant's state is touched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.batch import ArrivalBatch
from ..core.items import Item

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ServingRuntime

__all__ = ["TenantRecovery", "RecoveryReport", "recover", "rehydrate_tenant"]


@dataclass(frozen=True)
class TenantRecovery:
    """One tenant's rehydration outcome.

    Attributes:
        tenant: The client id.
        from_checkpoint: True when a valid checkpoint seeded the session.
        checkpoint_seq: Sequence number the checkpoint covered (0: none).
        replayed_arrivals: Tail arrival records replayed into the engine.
        replayed_advances: Tail advance records replayed.
        placed: Replayed arrivals actually placed into bins.
        items_submitted: The rehydrated session's final submitted count.
    """

    tenant: str
    from_checkpoint: bool
    checkpoint_seq: int
    replayed_arrivals: int
    replayed_advances: int
    placed: int
    items_submitted: int


@dataclass(frozen=True)
class RecoveryReport:
    """The outcome of an eager :func:`recover` pass.

    Attributes:
        tenants: Per-tenant outcomes, in journal (sorted-tenant) order.
        duration_seconds: Wall-clock recovery time.
    """

    tenants: list[TenantRecovery] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def replayed(self) -> int:
        """Total tail records replayed across tenants."""
        return sum(t.replayed_arrivals + t.replayed_advances for t in self.tenants)

    @property
    def recovered_tenants(self) -> int:
        """Tenants rehydrated."""
        return len(self.tenants)


def rehydrate_tenant(runtime: "ServingRuntime", tenant: str) -> TenantRecovery:
    """Rebuild one tenant's session and admission gate from its journal.

    The tenant must not be resident (no open session, no queue).  Raises
    :class:`~repro.core.ValidationError` via the manager when restoring
    would exceed the tenant cap, and
    :class:`~repro.resilience.CorruptLogError` when the journal is damaged
    (nothing is restored then).
    """
    wal = runtime.wal.tenant(tenant)
    # Read the whole tail first: a corrupt journal fails before any state
    # reaches the manager.
    records = list(wal.replay())
    checkpoint = wal.load_checkpoint()
    gate: dict[str, object]
    if checkpoint is not None:
        checkpoint_seq, state = checkpoint
        runtime.manager.restore(tenant, state["manager"])
        gate = dict(state["gate"])
    else:
        checkpoint_seq = 0
        runtime.manager.session(tenant)
        gate = {
            "seen_ids": set(),
            "last_arrival": float("-inf"),
            "records": 0,
            "admitted": 0,
            "placed": 0,
            "dropped": 0,
            "absorbed": 0,
        }

    manager = runtime.manager
    pending: list[Item] = []
    replayed_arrivals = replayed_advances = placed = 0
    seen_ids: set[int] = set(gate["seen_ids"])  # type: ignore[arg-type]
    last_arrival = float(gate["last_arrival"])  # type: ignore[arg-type]

    def flush_pending() -> None:
        nonlocal placed
        if pending:
            indices = manager.submit_many(tenant, ArrivalBatch.from_items(pending))
            placed += int((indices >= 0).sum())
            pending.clear()

    for record in records:
        if record.op == "arrival":
            item = record.item
            assert item is not None
            pending.append(item)
            seen_ids.add(item.id)
            last_arrival = max(last_arrival, item.arrival)
            replayed_arrivals += 1
        else:
            flush_pending()
            manager.advance(tenant, record.time)
            replayed_advances += 1
    flush_pending()

    runtime.install_gate(
        tenant,
        seen_ids=seen_ids,
        last_arrival=last_arrival,
        records=int(gate["records"]) + replayed_arrivals,  # type: ignore[call-overload]
        admitted=int(gate["admitted"]) + replayed_arrivals,  # type: ignore[call-overload]
        placed=int(gate["placed"]) + placed,  # type: ignore[call-overload]
        dropped=int(gate["dropped"]) + (replayed_arrivals - placed),  # type: ignore[call-overload]
        absorbed=int(gate["absorbed"]),  # type: ignore[call-overload]
    )

    registry = runtime.registry
    registry.counter("serving.wal.recovered_records").inc(
        replayed_arrivals + replayed_advances
    )
    registry.counter("serving.rehydrations", tenant=tenant).inc()
    return TenantRecovery(
        tenant=tenant,
        from_checkpoint=checkpoint is not None,
        checkpoint_seq=checkpoint_seq,
        replayed_arrivals=replayed_arrivals,
        replayed_advances=replayed_advances,
        placed=placed,
        items_submitted=manager.snapshot(tenant).items_submitted,
    )


def recover(runtime: "ServingRuntime") -> RecoveryReport:
    """Eagerly rehydrate every journaled tenant that is not yet resident.

    The ``serve --recover`` entry point: called before the transport starts
    accepting, so every pre-crash tenant answers its first request from
    fully restored state.  When the runtime caps resident tenants, the
    least recently recovered are checkpointed back out at the end, leaving
    at most ``max_resident`` live sessions.
    """
    if runtime.wal is None:
        raise ValueError("recover() needs a runtime with a write-ahead log")
    t0 = time.monotonic()
    outcomes = []
    for tenant in runtime.wal.tenants():
        if tenant in runtime.manager:
            continue
        outcomes.append(rehydrate_tenant(runtime, tenant))
    runtime.enforce_residency()
    report = RecoveryReport(
        tenants=outcomes, duration_seconds=time.monotonic() - t0
    )
    runtime.registry.counter("serving.wal.recovered_tenants").inc(
        report.recovered_tenants
    )
    return report
