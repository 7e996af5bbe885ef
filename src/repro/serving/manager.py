"""Multi-session tenancy: N concurrent packing sessions keyed by client id.

:class:`SessionManager` is the bottom tier of the serving runtime — a plain
synchronous façade that owns one :class:`~repro.engine.PackingSession` per
tenant.  Each tenant gets its own packer instance (built through the
validated :func:`~repro.algorithms.get_packer` path from a per-tenant
:class:`TenantConfig`), its own :class:`~repro.resilience.FaultPolicy` and a
**private** engine telemetry registry, so two tenants' ``engine.*`` cells
never collide.  The manager's own *shared* registry carries the cross-tenant
``serving.*`` metrics (tenant gauge, per-tenant submit counters, close
events), and :meth:`SessionManager.export_registry` merges shared + every
tenant's engine registry into one fresh registry — the callable the
Prometheus :class:`~repro.obs.MetricsServer` scrapes, so one ``/metrics``
endpoint shows the whole fleet.

The manager is transport- and policy-agnostic: admission control, queueing
and batching live one tier up (:class:`~repro.serving.ServingRuntime`); the
CLI's replay mode drives a manager-owned session directly, event by event,
which is what keeps replayed traces bit-identical to the pre-runtime serve
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..algorithms.base import OnlinePacker, get_packer
from ..core.batch import ArrivalBatch
from ..core.exceptions import ValidationError
from ..core.items import Item
from ..core.packing import PackingResult
from ..engine import EngineSnapshot, PackingSession
from ..obs import TelemetryRegistry
from ..resilience import FaultPolicy

__all__ = ["TenantConfig", "SessionManager", "ClosedTenant", "TenantLimitError"]


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant packing configuration.

    Attributes:
        algorithm: Registered online packer name for this tenant's session.
        packer_kwargs: Constructor parameters, validated by
            :func:`~repro.algorithms.get_packer`.
        fault_mode: ``strict | skip | clamp`` — the tenant's
            :class:`~repro.resilience.FaultPolicy` mode for malformed and
            inconsistent arrivals.
        error_budget: Faults absorbed before the tenant's policy trips back
            to strict (``None``: unlimited).
        dims: Trace dimensionality the packer must support (forwarded to
            the registry's capability check).
    """

    algorithm: str = "first-fit"
    packer_kwargs: Mapping[str, object] = field(default_factory=dict)
    fault_mode: str = "strict"
    error_budget: int | None = None
    dims: int = 1

    def build_policy(self, registry: TelemetryRegistry | None) -> FaultPolicy | None:
        """The tenant's fault policy (``None`` for plain strict, no budget)."""
        if self.fault_mode == "strict" and self.error_budget is None:
            return None
        return FaultPolicy(
            self.fault_mode, error_budget=self.error_budget, registry=registry
        )

    def build_packer(self) -> OnlinePacker:
        """A fresh packer instance through the validated registry path.

        Raises:
            TypeError: when the configured algorithm is not an online packer.
            KeyError / ValueError: from :func:`~repro.algorithms.get_packer`
                for unknown names, bad parameters, or unsupported ``dims``.
        """
        kwargs = dict(self.packer_kwargs)
        if self.dims != 1:
            kwargs["dims"] = self.dims
        packer = get_packer(self.algorithm, **kwargs)
        if not isinstance(packer, OnlinePacker):
            raise TypeError(
                f"tenant config needs an online packer, got {self.algorithm!r} "
                f"({type(packer).__name__})"
            )
        return packer


@dataclass(frozen=True)
class ClosedTenant:
    """What a tenant leaves behind when its session is closed.

    Attributes:
        tenant: The client id.
        snapshot: The final :class:`~repro.engine.EngineSnapshot`.
        stats: The session's :class:`~repro.engine.EngineStats` legacy dict.
        result: The final packing (validated).
    """

    tenant: str
    snapshot: EngineSnapshot
    stats: dict[str, object]
    result: PackingResult


class _Tenant:
    """One tenant's live state: session, policy, private engine registry."""

    __slots__ = ("tenant", "config", "session", "policy", "registry")

    def __init__(
        self,
        tenant: str,
        config: TenantConfig,
        *,
        registry: TelemetryRegistry | None = None,
        packer: OnlinePacker | None = None,
        policy: FaultPolicy | None = None,
    ) -> None:
        self.tenant = tenant
        self.config = config
        self.registry = registry if registry is not None else TelemetryRegistry()
        self.policy = policy if policy is not None else config.build_policy(self.registry)
        self.session = PackingSession(
            packer if packer is not None else config.build_packer(),
            registry=self.registry,
            fault_policy=self.policy,
        )


class SessionManager:
    """Owns N concurrent :class:`~repro.engine.PackingSession`s keyed by tenant.

    Args:
        default_config: The :class:`TenantConfig` used for tenants first seen
            by :meth:`session` without a prior :meth:`configure` /
            :meth:`open`.
        registry: The shared ``serving.*`` registry; ``None`` creates a
            private one.
        max_tenants: Hard cap on concurrently open sessions; exceeding it
            raises :class:`TenantLimitError` (the runtime above turns that
            into an admission reject, not a crash).
    """

    def __init__(
        self,
        default_config: TenantConfig | None = None,
        *,
        registry: TelemetryRegistry | None = None,
        max_tenants: int = 1024,
    ) -> None:
        if max_tenants < 1:
            raise ValidationError(f"max_tenants must be >= 1, got {max_tenants}")
        self.registry = registry if registry is not None else TelemetryRegistry()
        self.default_config = (
            default_config if default_config is not None else TenantConfig()
        )
        self.max_tenants = max_tenants
        self._tenants: dict[str, _Tenant] = {}
        self._configs: dict[str, TenantConfig] = {}
        self._tenant_gauge = self.registry.gauge("serving.tenants", aggregate="max")
        self._tenant_gauge.set(0)

    # -- tenancy -------------------------------------------------------------

    def tenants(self) -> list[str]:
        """Client ids with an open session, in opening order."""
        return list(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._tenants

    def configure(self, tenant: str, config: TenantConfig) -> None:
        """Register ``config`` for ``tenant`` before its session exists.

        Raises:
            ValidationError: if the tenant's session is already open (a live
                session cannot change packer mid-run — close it first).
        """
        if tenant in self._tenants:
            raise ValidationError(
                f"tenant {tenant!r} already has an open session; close it "
                "before reconfiguring"
            )
        self._configs[tenant] = config

    def config_for(self, tenant: str) -> TenantConfig:
        """The config a (possibly future) session for ``tenant`` would use."""
        if tenant in self._tenants:
            return self._tenants[tenant].config
        return self._configs.get(tenant, self.default_config)

    def open(
        self,
        tenant: str,
        *,
        config: TenantConfig | None = None,
        packer: OnlinePacker | None = None,
        policy: FaultPolicy | None = None,
        registry: TelemetryRegistry | None = None,
    ) -> PackingSession:
        """Explicitly open ``tenant``'s session, overriding pieces as needed.

        The escape hatch for advanced callers (the CLI's replay mode passes
        its own packer instance, fault policy and the run-wide registry so
        the replayed session's telemetry lands exactly where the legacy
        serve path put it).  Plain ingestion should use :meth:`session`.

        Raises:
            ValidationError: if the tenant is already open, or the manager
                is at :attr:`max_tenants`.
        """
        if tenant in self._tenants:
            raise ValidationError(f"tenant {tenant!r} already has an open session")
        if len(self._tenants) >= self.max_tenants:
            raise TenantLimitError(
                f"tenant limit reached ({self.max_tenants} open sessions)"
            )
        state = _Tenant(
            tenant,
            config if config is not None else self.config_for(tenant),
            registry=registry,
            packer=packer,
            policy=policy,
        )
        self._tenants[tenant] = state
        self._tenant_gauge.set(len(self._tenants))
        self.registry.counter("serving.sessions_opened").inc()
        return state.session

    def session(self, tenant: str) -> PackingSession:
        """The tenant's session, opened on first use with its configured setup.

        Raises:
            TenantLimitError: when opening would exceed :attr:`max_tenants`.
        """
        state = self._tenants.get(tenant)
        if state is not None:
            return state.session
        return self.open(tenant)

    def policy_for(self, tenant: str) -> FaultPolicy | None:
        """The open tenant's fault policy (``None`` if strict or not open)."""
        state = self._tenants.get(tenant)
        return state.policy if state is not None else None

    # -- ingestion -----------------------------------------------------------

    def submit(self, tenant: str, item: Item) -> int:
        """Submit one arrival to the tenant's session; returns the bin index."""
        counted = self.registry.counter("serving.items", tenant=tenant)
        index = self.session(tenant).submit(item)
        if index >= 0:
            counted.inc()
        return index

    def submit_many(
        self, tenant: str, arrivals: "ArrivalBatch | Iterable[Item]"
    ) -> np.ndarray:
        """Micro-batch submission through the columnar engine fast path.

        Returns the per-row bin indices from
        :meth:`~repro.engine.PackingSession.submit_many` (``-1`` marks rows
        dropped by a non-strict fault policy).
        """
        indices = self.session(tenant).submit_many(arrivals)
        placed = int((indices >= 0).sum())
        self.registry.counter("serving.items", tenant=tenant).inc(placed)
        return indices

    def advance(self, tenant: str, t: float):
        """Advance the tenant's session clock; returns the retired bin indices."""
        return self.session(tenant).advance(t)

    def snapshot(self, tenant: str) -> EngineSnapshot:
        """A point-in-time view of the tenant's session."""
        return self.session(tenant).snapshot()

    # -- checkpoint / eviction -----------------------------------------------

    def checkpoint_state(self, tenant: str) -> dict[str, object]:
        """The tenant's live state as a picklable bundle, session kept open.

        The bundle — session, fault policy, private engine registry and
        config — pickles and round-trips bit-identically (the WAL
        checkpoint experiment in :mod:`repro.serving.wal` relies on this),
        so :meth:`restore` of the unpickled bundle continues exactly where
        this tenant is now.

        Raises:
            KeyError: if the tenant has no open session.
        """
        state = self._tenants[tenant]
        return {
            "config": state.config,
            "session": state.session,
            "policy": state.policy,
            "registry": state.registry,
        }

    def evict(self, tenant: str) -> dict[str, object]:
        """Pop the tenant's live state without closing the session.

        The hot-tenant eviction path: the returned bundle (same shape as
        :meth:`checkpoint_state`) is journaled by the caller, and the slot
        is freed for another tenant.  The session is *not* closed — it
        resumes untouched when :meth:`restore` brings the bundle back.

        Raises:
            KeyError: if the tenant has no open session.
        """
        state = self._tenants.pop(tenant)
        self._tenant_gauge.set(len(self._tenants))
        self.registry.counter("serving.sessions_evicted").inc()
        return {
            "config": state.config,
            "session": state.session,
            "policy": state.policy,
            "registry": state.registry,
        }

    def restore(self, tenant: str, state: Mapping[str, object]) -> PackingSession:
        """Re-install a checkpointed/evicted tenant bundle as the live session.

        Raises:
            ValidationError: if the tenant is already open.
            TenantLimitError: when restoring would exceed :attr:`max_tenants`.
        """
        if tenant in self._tenants:
            raise ValidationError(f"tenant {tenant!r} already has an open session")
        if len(self._tenants) >= self.max_tenants:
            raise TenantLimitError(
                f"tenant limit reached ({self.max_tenants} open sessions)"
            )
        restored = _Tenant.__new__(_Tenant)
        restored.tenant = tenant
        restored.config = state["config"]
        restored.registry = state["registry"]
        restored.policy = state["policy"]
        restored.session = state["session"]
        self._tenants[tenant] = restored
        self._tenant_gauge.set(len(self._tenants))
        self.registry.counter("serving.sessions_restored").inc()
        return restored.session

    # -- shutdown ------------------------------------------------------------

    def close(self, tenant: str) -> ClosedTenant:
        """Close the tenant's session, emitting its final snapshot and packing.

        Raises:
            KeyError: if the tenant has no open session.
        """
        state = self._tenants.pop(tenant)
        self._tenant_gauge.set(len(self._tenants))
        snapshot = state.session.snapshot()
        result = state.session.result()
        closed = ClosedTenant(
            tenant=tenant,
            snapshot=snapshot,
            stats=state.session.stats.as_dict(),
            result=result,
        )
        self.registry.counter("serving.sessions_closed").inc()
        return closed

    def close_all(self) -> list[ClosedTenant]:
        """Close every open session (drain order = opening order)."""
        return [self.close(tenant) for tenant in list(self._tenants)]

    # -- export --------------------------------------------------------------

    def export_registry(self) -> TelemetryRegistry:
        """One fresh registry merging serving metrics + every tenant's engine.

        Per-tenant engine registries are kept separate so ``engine.*`` cells
        stay correct per session; the merged view (counters summed, gauges
        max-merged, histograms bucket-added) is what a fleet-level scrape
        wants.  Pass this *method* as the :class:`~repro.obs.MetricsServer`
        source so every scrape re-merges live values.
        """
        merged = TelemetryRegistry()
        merged.merge(self.registry.snapshot())
        for state in list(self._tenants.values()):
            merged.merge(state.registry.snapshot())
        return merged


class TenantLimitError(ValidationError):
    """Opening another session would exceed the manager's tenant cap."""
