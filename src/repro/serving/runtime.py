"""The asyncio serving runtime: admission control, micro-batching, drain.

The middle and top tiers of the serving stack.  A :class:`ServingRuntime`
wraps a :class:`~repro.serving.SessionManager` with, per tenant:

* a **bounded pending queue** (``queue_limit``) — when the engine lags
  behind arrivals the queue fills and further offers are answered with an
  explicit backpressure verdict instead of unbounded buffering;
* a **micro-batcher** — admitted arrivals are flushed into
  :meth:`~repro.engine.PackingSession.submit_many` when the pending batch
  reaches ``batch_size`` *or* a flush deadline (``batch_deadline`` seconds
  after the oldest pending arrival) expires, so the PR 7 columnar fast path
  carries live traffic without adding unbounded latency at low rates;
* an **admission gate** — decode faults follow the tenant's
  :class:`~repro.resilience.FaultPolicy` (strict rejects, ``skip`` drops,
  ``clamp`` repairs), out-of-order and duplicate-id arrivals are settled
  *at admission* against the tenant's queue tail, and a tripped error
  budget turns into rejects.  The invariant this buys is central: every
  queue the flusher sees is well-formed (non-decreasing arrivals, fresh
  unique ids), so ``submit_many`` always takes its columnar fast path and
  an admitted item can never be lost to a mid-batch validation error.

**Graceful drain** (:meth:`ServingRuntime.drain`, wired to SIGTERM by the
CLI): new offers are rejected with ``draining``, every tenant's pending
queue is flushed through the engine, batcher tasks are stopped, sessions
close with final snapshots, and the whole teardown is timed into
``serving.drain_duration_seconds``.  Zero admitted items are lost — the
:class:`DrainReport` proves it by accounting ``admitted == placed +
dropped_by_policy`` per tenant.

**Crash safety** (optional, PR 10): give the runtime a
:class:`~repro.serving.wal.WriteAheadLog` and every admitted arrival is
journaled *before* its ``ok`` goes out, so a SIGKILL loses nothing a client
was promised — ``serve --recover`` (:mod:`repro.serving.recovery`)
rehydrates every tenant bit-identically on restart.  On the same knob hang
per-tenant token-bucket **rate limits** (:mod:`repro.serving.ratelimit`;
``busy`` verdicts carry a ``retry_ms`` hint sized to the bucket deficit)
and **LRU hot-tenant eviction** (``max_resident``): the least recently
touched tenant is checkpointed to its journal and popped, then rehydrated
transparently on its next request.

Everything here runs on one event loop; the engine calls are synchronous
CPU work executed inline (packing a batch is far cheaper than a network
round trip, and a single engine thread keeps placements deterministic).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..core.batch import ArrivalBatch
from ..core.exceptions import ValidationError
from ..core.intervals import Interval
from ..core.items import Item
from ..engine import EngineSnapshot
from ..obs import TelemetryRegistry
from ..resilience import CorruptLogError
from ..workloads import parse_arrival
from .manager import ClosedTenant, SessionManager, TenantLimitError
from .protocol import DEFAULT_TENANT
from .ratelimit import RateLimiter
from .wal import WriteAheadLog

__all__ = ["Admission", "DrainReport", "ServingRuntime"]

_NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class Admission:
    """The verdict on one offered arrival.

    Attributes:
        status: ``"ok"`` (admitted and queued), ``"busy"`` (backpressure —
            retry later), ``"dropped"`` (a non-strict fault policy absorbed
            the record) or ``"rejected"`` (strict fault, tripped budget,
            tenant limit, or draining).
        reason: Machine-readable cause for non-``ok`` verdicts
            (``"backpressure"``, ``"rate_limit"``, ``"draining"``,
            ``"malformed"``, ``"out_of_order"``, ``"duplicate_id"``,
            ``"error_budget"``, ``"tenant_limit"``, ``"wal_error"``).
        queue_depth: The tenant queue depth after the verdict.
        item: The admitted (possibly clamp-repaired) item, when ``ok``.
        error: Diagnostic message for rejects and drops.
        retry_ms: For ``busy`` verdicts, how long a well-behaved client
            should back off before retrying (the rate limiter sizes this
            to its actual token deficit).
    """

    status: str
    reason: str = ""
    queue_depth: int = 0
    item: Item | None = None
    error: str = ""
    retry_ms: int = 0

    @property
    def admitted(self) -> bool:
        """True when the arrival was queued for placement."""
        return self.status == "ok"


@dataclass(frozen=True)
class DrainReport:
    """The outcome of a graceful drain.

    Attributes:
        closed: Per-tenant final state, in session-opening order.
        flushed_items: Items still pending at drain start that were placed.
        admitted: Total arrivals admitted over the runtime's lifetime.
        placed: Total arrivals actually placed into bins.
        dropped_by_policy: Admitted arrivals a non-strict fault policy
            dropped inside the engine (counted, never silently lost).
        duration_seconds: Wall-clock drain time.
    """

    closed: list[ClosedTenant] = field(default_factory=list)
    flushed_items: int = 0
    admitted: int = 0
    placed: int = 0
    dropped_by_policy: int = 0
    duration_seconds: float = 0.0

    @property
    def lost(self) -> int:
        """Admitted items unaccounted for after drain (must be zero)."""
        return self.admitted - self.placed - self.dropped_by_policy


class _TenantQueue:
    """Per-tenant pending arrivals plus the bookkeeping the gate needs."""

    __slots__ = (
        "tenant",
        "pending",
        "last_arrival",
        "seen_ids",
        "records",
        "flush_event",
        "task",
        "admitted",
        "placed",
        "dropped",
        "absorbed",
        "touched",
    )

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.pending: list[Item] = []
        self.last_arrival = _NEG_INF
        self.seen_ids: set[int] = set()
        self.records = 0  # per-tenant record counter for diagnostics
        self.flush_event = asyncio.Event()
        self.task: asyncio.Task | None = None
        self.admitted = 0  # offers answered "ok" (queued)
        self.placed = 0  # admitted items placed into bins
        self.dropped = 0  # admitted items dropped inside the engine
        self.absorbed = 0  # never-admitted records absorbed at the gate
        self.touched = 0  # LRU tick of the last gate access


class ServingRuntime:
    """Admission control and micro-batching over a :class:`SessionManager`.

    Args:
        manager: The session tier; its shared registry receives every
            ``serving.*`` metric the runtime emits.
        queue_limit: Max pending (admitted, not yet placed) arrivals per
            tenant before offers get a ``busy`` backpressure verdict.
        batch_size: Flush the pending batch at this size.
        batch_deadline: Flush no later than this many seconds after the
            oldest pending arrival was admitted (``0``: flush immediately,
            effectively unbatched).
        retry_hint_ms: The ``retry_ms`` hint included in backpressure
            ``busy`` replies (rate-limit replies size their own hint).
        wal: When given, every admitted arrival is journaled here before
            acknowledgement, flushes group-commit the journal, and drain
            checkpoints every tenant — the crash-safety tier.
        rate_limiter: Per-tenant token buckets charged at the admission
            gate; an empty bucket answers ``busy``/``rate_limit`` with a
            deficit-sized ``retry_ms``.
        max_resident: Soft cap on resident (in-memory) tenants; on the way
            past it the least recently touched tenant is checkpointed to
            the journal and evicted.  Requires ``wal``.
    """

    def __init__(
        self,
        manager: SessionManager | None = None,
        *,
        queue_limit: int = 1024,
        batch_size: int = 256,
        batch_deadline: float = 0.005,
        retry_hint_ms: int = 10,
        wal: WriteAheadLog | None = None,
        rate_limiter: RateLimiter | None = None,
        max_resident: int | None = None,
    ) -> None:
        if queue_limit < 1:
            raise ValidationError(f"queue_limit must be >= 1, got {queue_limit}")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        if batch_deadline < 0:
            raise ValidationError(f"batch_deadline must be >= 0, got {batch_deadline}")
        if max_resident is not None and max_resident < 1:
            raise ValidationError(f"max_resident must be >= 1, got {max_resident}")
        if max_resident is not None and wal is None:
            raise ValidationError(
                "max_resident needs a write-ahead log: eviction journals the "
                "tenant's state so it can rehydrate on its next request"
            )
        self.manager = manager if manager is not None else SessionManager()
        self.registry: TelemetryRegistry = self.manager.registry
        self.queue_limit = queue_limit
        self.batch_size = batch_size
        self.batch_deadline = batch_deadline
        self.retry_hint_ms = retry_hint_ms
        self.wal = wal
        self.rate_limiter = rate_limiter
        self.max_resident = max_resident
        self.draining = False
        self._queues: dict[str, _TenantQueue] = {}
        self._drain_report: DrainReport | None = None
        self._touch_tick = 0

    # -- introspection -------------------------------------------------------

    def queue_depth(self, tenant: str) -> int:
        """Pending (admitted, unplaced) arrivals for ``tenant``."""
        q = self._queues.get(tenant)
        return len(q.pending) if q is not None else 0

    def snapshot(self, tenant: str = DEFAULT_TENANT) -> EngineSnapshot:
        """The tenant's engine snapshot (pending items not yet included)."""
        return self.manager.snapshot(tenant)

    @property
    def drain_report(self) -> DrainReport | None:
        """The report of a completed drain (``None`` while serving)."""
        return self._drain_report

    # -- admission (tier 3) --------------------------------------------------

    def offer_line(self, tenant: str, line: str) -> Admission:
        """Decode one raw NDJSON arrival line and offer it for admission.

        Decode faults go through the tenant's fault policy with the exact
        trace-loader diagnostics (:func:`~repro.workloads.parse_arrival`);
        the record position in messages is the tenant's 1-based arrival
        count on this runtime.
        """
        q = self._admission_queue(tenant)
        if isinstance(q, Admission):
            return q
        q.records += 1
        # _queue() opened the session, so the tenant's configured policy
        # governs decode faults from the very first record.
        policy = self.manager.policy_for(tenant)
        try:
            item = parse_arrival(line, lineno=q.records, policy=policy)
        except ValidationError as exc:
            reason = (
                "error_budget"
                if policy is not None and policy.tripped
                else "malformed"
            )
            return self._reject(tenant, reason, str(exc))
        if item is None:
            q.absorbed += 1
            self.registry.counter(
                "serving.policy_drops", tenant=tenant
            ).inc()
            return Admission(
                status="dropped",
                reason="fault_policy",
                queue_depth=len(q.pending),
            )
        return self.offer(tenant, item)

    def offer(self, tenant: str, item: Item) -> Admission:
        """Offer one decoded arrival for admission into the tenant's queue.

        Settles identity and ordering *now*, against the queue tail, so the
        pending queue stays well-formed for the columnar flush:

        * a duplicate id is dropped (non-strict) or rejected (strict) —
          there is no certified repair.  Identity settles *before*
          ordering, so a client retrying an already-acknowledged item
          always reads ``duplicate_id`` (the idempotency signal the
          post-recovery audit relies on), never ``out_of_order``;
        * an arrival earlier than the queue tail is out of order — clamped
          to the tail time under a ``clamp`` policy, dropped under ``skip``,
          rejected under strict;
        * a full queue is answered ``busy`` (backpressure), never dropped.
        """
        if self.draining:
            return self._reject(tenant, "draining", "runtime is draining")
        if self.rate_limiter is not None:
            retry_ms = self.rate_limiter.admit(tenant)
            if retry_ms:
                self.registry.counter(
                    "serving.rejects", tenant=tenant, reason="rate_limit"
                ).inc()
                return Admission(
                    status="busy",
                    reason="rate_limit",
                    queue_depth=self.queue_depth(tenant),
                    retry_ms=retry_ms,
                )
        q = self._admission_queue(tenant)
        if isinstance(q, Admission):
            return q
        if len(q.pending) >= self.queue_limit:
            self.registry.counter(
                "serving.rejects", tenant=tenant, reason="backpressure"
            ).inc()
            return Admission(
                status="busy",
                reason="backpressure",
                queue_depth=len(q.pending),
                retry_ms=self.retry_hint_ms,
            )
        policy = self.manager.policy_for(tenant)
        if item.id in q.seen_ids:
            exc = ValidationError(f"duplicate item id {item.id}")
            if policy is not None and not policy.strict:
                try:
                    policy.absorb("duplicate_id", exc, action="drop")
                except ValidationError as tripped:
                    return self._reject(tenant, "error_budget", str(tripped))
                q.absorbed += 1
                self.registry.counter("serving.policy_drops", tenant=tenant).inc()
                return Admission(
                    status="dropped",
                    reason="duplicate_id",
                    queue_depth=len(q.pending),
                )
            return self._reject(tenant, "duplicate_id", str(exc))
        tail = max(q.last_arrival, self.manager.session(tenant).clock)
        if item.arrival < tail:
            exc = ValidationError(
                f"item {item.id} arrives at {item.arrival}, before the "
                f"tenant {tenant!r} ingest tail {tail}; arrivals must be "
                "non-decreasing per tenant"
            )
            if policy is not None and policy.wants_clamp:
                try:
                    policy.absorb("out_of_order", exc, action="clamp")
                except ValidationError as tripped:
                    return self._reject(tenant, "error_budget", str(tripped))
                departure = item.departure
                if departure <= tail:
                    departure = tail + 1e-12 * max(1.0, abs(tail))
                item = Item(item.id, item.sizes, Interval(tail, departure), dict(item.tags))
            elif policy is not None and not policy.strict:
                try:
                    policy.absorb("out_of_order", exc, action="drop")
                except ValidationError as tripped:
                    return self._reject(tenant, "error_budget", str(tripped))
                q.absorbed += 1
                self.registry.counter("serving.policy_drops", tenant=tenant).inc()
                return Admission(
                    status="dropped",
                    reason="out_of_order",
                    queue_depth=len(q.pending),
                )
            else:
                return self._reject(tenant, "out_of_order", str(exc))

        if self.wal is not None:
            # Journal-before-ack: once the client sees "ok" the item exists
            # on disk, so a kill between ack and flush loses nothing.
            try:
                self.wal.tenant(tenant).append_arrival(item)
            except OSError as exc:
                return self._reject(
                    tenant, "wal_error", f"journal append failed: {exc}"
                )
        q.pending.append(item)
        q.seen_ids.add(item.id)
        q.last_arrival = item.arrival
        q.admitted += 1
        depth = len(q.pending)
        self.registry.counter("serving.admitted", tenant=tenant).inc()
        self.registry.gauge("serving.queue_depth", tenant=tenant).set(depth)
        self._ensure_batcher(q)
        if depth >= self.batch_size:
            q.flush_event.set()
        return Admission(status="ok", queue_depth=depth, item=item)

    def _reject(self, tenant: str, reason: str, error: str) -> Admission:
        """Account one rejected offer."""
        self.registry.counter("serving.rejects", tenant=tenant, reason=reason).inc()
        return Admission(
            status="rejected",
            reason=reason,
            queue_depth=self.queue_depth(tenant),
            error=error,
        )

    def _admission_queue(self, tenant: str) -> _TenantQueue | Admission:
        """The tenant's queue, or the rejection that answers the offer.

        A damaged journal met while rehydrating an evicted tenant answers
        ``wal_error``: the corruption is reported, and the tenant stays
        out of memory rather than restarting without its records.
        """
        try:
            q = self._queue(tenant)
        except CorruptLogError as exc:
            return self._reject(tenant, "wal_error", f"journal recovery failed: {exc}")
        if q is None:
            return self._reject(tenant, "tenant_limit", "tenant limit reached")
        return q

    def _queue(self, tenant: str) -> _TenantQueue | None:
        """Get or create the tenant's queue; ``None`` over the tenant cap.

        A tenant with journal state but no live session (evicted, or left
        over from a crashed process) is rehydrated transparently here —
        the caller just sees its queue.  Every access bumps the tenant's
        LRU tick; creating or rehydrating first evicts past
        ``max_resident``.
        """
        q = self._queues.get(tenant)
        if q is None:
            if (
                tenant not in self.manager
                and len(self.manager) >= self.manager.max_tenants
            ):
                return None
            self.enforce_residency(incoming=1)
            if (
                self.wal is not None
                and tenant not in self.manager
                and self.wal.has_tenant(tenant)
            ):
                from .recovery import rehydrate_tenant

                try:
                    rehydrate_tenant(self, tenant)
                except TenantLimitError:
                    return None
                q = self._queues[tenant]
            else:
                try:
                    self.manager.session(tenant)
                except TenantLimitError:
                    return None
                q = _TenantQueue(tenant)
                self._queues[tenant] = q
        self._touch_tick += 1
        q.touched = self._touch_tick
        return q

    def install_gate(
        self,
        tenant: str,
        *,
        seen_ids: set[int],
        last_arrival: float,
        records: int,
        admitted: int,
        placed: int,
        dropped: int,
        absorbed: int,
    ) -> None:
        """Install a recovered admission gate for ``tenant`` (recovery hook).

        The counterpart of the gate bookkeeping a checkpoint carries:
        :func:`~repro.serving.recovery.rehydrate_tenant` rebuilds the set
        of acknowledged ids, the ingest tail, and the admitted/placed
        accounting, then installs them here so duplicate detection and the
        drain report's ``lost == 0`` invariant hold across restarts.
        """
        q = _TenantQueue(tenant)
        q.seen_ids = set(seen_ids)
        q.last_arrival = last_arrival
        q.records = records
        q.admitted = admitted
        q.placed = placed
        q.dropped = dropped
        q.absorbed = absorbed
        self._queues[tenant] = q
        self._touch_tick += 1
        q.touched = self._touch_tick

    # -- durability: checkpoint, eviction, advance ---------------------------

    @staticmethod
    def _gate_state(q: _TenantQueue) -> dict[str, object]:
        """The picklable admission-gate bookkeeping a checkpoint carries."""
        return {
            "seen_ids": set(q.seen_ids),
            "last_arrival": q.last_arrival,
            "records": q.records,
            "admitted": q.admitted,
            "placed": q.placed,
            "dropped": q.dropped,
            "absorbed": q.absorbed,
        }

    def checkpoint_tenant(self, tenant: str) -> int:
        """Flush, then durably checkpoint the tenant's state to its journal.

        After this the tenant's journal compacts down to the checkpoint
        blob plus an empty tail.  Returns the covered sequence number.
        """
        if self.wal is None:
            raise ValidationError("checkpoint_tenant needs a write-ahead log")
        q = self._queues[tenant]
        self.flush(tenant, cause="checkpoint")
        state = {
            "manager": self.manager.checkpoint_state(tenant),
            "gate": self._gate_state(q),
        }
        return self.wal.tenant(tenant).checkpoint(state)

    def evict_tenant(self, tenant: str) -> None:
        """Journal-then-evict: checkpoint the tenant and free its slot.

        The session is flushed, its live state checkpointed to the journal
        and popped from the manager — not closed, so the tenant rehydrates
        mid-stream on its next request with nothing lost.
        """
        if self.wal is None:
            raise ValidationError("eviction needs a write-ahead log")
        q = self._queues[tenant]
        self.flush(tenant, cause="evict")
        state = {
            "manager": self.manager.evict(tenant),
            "gate": self._gate_state(q),
        }
        self.wal.tenant(tenant).checkpoint(state)
        if q.task is not None:
            q.task.cancel()
        del self._queues[tenant]
        if self.rate_limiter is not None:
            self.rate_limiter.forget(tenant)
        self.registry.counter("serving.evictions", tenant=tenant).inc()

    def enforce_residency(self, incoming: int = 0) -> int:
        """Evict least-recently-touched tenants past ``max_resident``.

        ``incoming`` reserves slots for tenants about to be created.
        Returns the number of evictions performed (0 when no cap is set).
        """
        if self.wal is None or self.max_resident is None:
            return 0
        evicted = 0
        while len(self._queues) + incoming > self.max_resident and self._queues:
            victim = min(self._queues.values(), key=lambda q: q.touched)
            self.evict_tenant(victim.tenant)
            evicted += 1
        return evicted

    def advance(self, tenant: str, t: float):
        """Journal and apply one clock advance; returns the retired bin indices.

        Pending arrivals flush first so the journal's record order matches
        the engine's event order — replay then reproduces both exactly.
        """
        q = self._queue(tenant)
        if q is None:
            raise TenantLimitError("tenant limit reached")
        self.flush(tenant, cause="advance")
        if self.wal is not None:
            twal = self.wal.tenant(tenant)
            twal.append_advance(t)
            twal.sync_soon()
        return self.manager.advance(tenant, t)

    # -- micro-batching (tier 2) ---------------------------------------------

    def _ensure_batcher(self, q: _TenantQueue) -> None:
        """Start the tenant's flush task if it is not already running."""
        if q.task is None or q.task.done():
            q.task = asyncio.get_running_loop().create_task(
                self._batch_loop(q), name=f"repro-serving-batch-{q.tenant}"
            )

    async def _batch_loop(self, q: _TenantQueue) -> None:
        """Flush the tenant queue on size or deadline until it runs dry."""
        loop = asyncio.get_running_loop()
        while q.pending and not self.draining:
            deadline = loop.time() + self.batch_deadline
            while (
                len(q.pending) < self.batch_size
                and not self.draining
                and (remaining := deadline - loop.time()) > 0
            ):
                try:
                    await asyncio.wait_for(q.flush_event.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
                q.flush_event.clear()
            if q.pending:
                cause = "size" if len(q.pending) >= self.batch_size else "deadline"
                self.flush(q.tenant, cause=cause)
            # Yield so transports can enqueue more before the loop re-checks.
            await asyncio.sleep(0)

    def flush(self, tenant: str, *, cause: str = "explicit") -> int:
        """Flush the tenant's pending arrivals into the engine now.

        Returns the number of items placed (admitted minus policy drops
        inside the engine).  Safe to call when nothing is pending.
        """
        q = self._queues.get(tenant)
        if q is None or not q.pending:
            return 0
        batch, q.pending = q.pending, []
        q.flush_event.clear()
        indices = self.manager.submit_many(tenant, ArrivalBatch.from_items(batch))
        placed = int((indices >= 0).sum())
        q.placed += placed
        q.dropped += len(batch) - placed
        self.registry.gauge("serving.queue_depth", tenant=tenant).set(0)
        self.registry.counter("serving.flushes", tenant=tenant, cause=cause).inc()
        self.registry.histogram("serving.batch_items").observe(float(len(batch)))
        if self.wal is not None:
            # The group-commit point: everything this flush placed is now
            # fsynced in one windowed off-thread call instead of one
            # blocking fsync per arrival.
            twal = self.wal.tenant(tenant)
            twal.sync_soon()
            limit = self.wal.config.checkpoint_records
            if (
                limit
                and twal.records_since_checkpoint >= limit
                and cause != "checkpoint"
            ):
                twal.checkpoint(
                    {
                        "manager": self.manager.checkpoint_state(tenant),
                        "gate": self._gate_state(q),
                    }
                )
        return placed

    # -- graceful drain ------------------------------------------------------

    async def drain(self) -> DrainReport:
        """Gracefully drain: flush every queue, close every session.

        Idempotent — a second call returns the first report.  After drain,
        every offer is rejected with ``draining``.
        """
        if self._drain_report is not None:
            return self._drain_report
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        self.draining = True
        flushed = 0
        for q in list(self._queues.values()):
            if q.flush_event is not None:
                q.flush_event.set()  # wake the batcher so it can exit
            flushed += self.flush(q.tenant, cause="drain")
        tasks = [q.task for q in self._queues.values() if q.task is not None]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self.wal is not None:
            # Final durable state: checkpoint every resident tenant, then
            # rehydrate journaled-but-evicted tenants so the drain report
            # (and close_all below) accounts for every tenant the journal
            # knows about — `lost == 0` holds across evictions too.
            from .recovery import rehydrate_tenant

            for q in list(self._queues.values()):
                if q.tenant in self.manager:
                    self.wal.tenant(q.tenant).checkpoint(
                        {
                            "manager": self.manager.checkpoint_state(q.tenant),
                            "gate": self._gate_state(q),
                        }
                    )
            for tenant in self.wal.tenants():
                if tenant not in self.manager:
                    rehydrate_tenant(self, tenant)
        closed = self.manager.close_all()
        report = DrainReport(
            closed=closed,
            flushed_items=flushed,
            admitted=sum(q.admitted for q in self._queues.values()),
            placed=sum(q.placed for q in self._queues.values()),
            dropped_by_policy=sum(q.dropped for q in self._queues.values()),
            duration_seconds=loop.time() - t0,
        )
        self.registry.gauge("serving.drain_duration_seconds").set(
            report.duration_seconds
        )
        self.registry.counter("serving.drains").inc()
        self.registry.counter("serving.drain_flushed_items").inc(flushed)
        if self.wal is not None:
            self.wal.close()
        self._drain_report = report
        return report
