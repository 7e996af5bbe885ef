"""Tests for the layered serving runtime (:mod:`repro.serving`).

Covers the three tiers bottom-up — session tenancy, admission control with
micro-batching, transports — plus the two properties the PR gates on:

* **replay parity**: the ``serve --trace`` replay path over the
  :class:`~repro.serving.SessionManager` is bit-identical (placements,
  engine counters, snapshots) to the legacy direct event loop, for every
  registered online packer;
* **zero admitted-item loss**: graceful drain places or policy-accounts
  every admitted arrival (``DrainReport.lost == 0``), including under
  overload, where backpressure is an explicit ``busy`` reply.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket

import pytest

from repro.algorithms import available_packers, get_packer, packer_info
from repro.algorithms.base import OnlinePacker
from repro.core import EventKind, Interval, Item, event_stream
from repro.engine import PackingSession
from repro.obs import TelemetryRegistry, set_enabled
from repro.resilience import FaultPolicy, log
from repro.serving import (
    HttpTransport,
    LoadGenerator,
    ReplayTransport,
    ServingRuntime,
    SessionManager,
    StdinTransport,
    TcpTransport,
    TenantConfig,
    TenantLimitError,
    WriteAheadLog,
    parse_request,
)
from repro.workloads import uniform_random

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _arrival(item_id: int, arrival: float, departure: float, size: float = 0.3) -> str:
    return json.dumps(
        {"id": item_id, "size": size, "arrival": arrival, "departure": departure}
    )


def _item(item_id: int, arrival: float, departure: float, size: float = 0.3) -> Item:
    return Item(item_id, size, Interval(arrival, departure))


@pytest.fixture
def items():
    return uniform_random(30, seed=5)


# ---------------------------------------------------------------------------
# session tier
# ---------------------------------------------------------------------------


class TestSessionManager:
    def test_sessions_are_per_tenant(self):
        manager = SessionManager()
        a = manager.session("a")
        b = manager.session("b")
        assert a is not b
        assert a is manager.session("a")
        assert manager.tenants() == ["a", "b"]
        assert "a" in manager and "zzz" not in manager

    def test_engine_counters_do_not_collide_across_tenants(self):
        manager = SessionManager()
        manager.submit("a", _item(1, 0.0, 2.0))
        manager.submit("b", _item(1, 0.0, 2.0))
        manager.submit("b", _item(2, 0.5, 2.0))
        assert manager.snapshot("a").items_submitted == 1
        assert manager.snapshot("b").items_submitted == 2

    def test_export_registry_merges_the_fleet(self):
        manager = SessionManager()
        manager.submit("a", _item(1, 0.0, 2.0))
        manager.submit("b", _item(2, 0.0, 2.0))
        merged = manager.export_registry()
        cell = merged.counter("engine.items_submitted")
        assert cell.value == 2  # summed across both tenants' registries
        assert merged.counter("serving.items", tenant="a").value == 1

    def test_configure_sets_the_tenant_packer(self):
        manager = SessionManager()
        manager.configure("vip", TenantConfig(algorithm="best-fit"))
        session = manager.session("vip")
        assert "best-fit" in session.packer.describe()

    def test_configure_open_tenant_is_an_error(self):
        from repro.core.exceptions import ValidationError

        manager = SessionManager()
        manager.session("a")
        with pytest.raises(ValidationError, match="already has an open session"):
            manager.configure("a", TenantConfig())

    def test_tenant_limit(self):
        manager = SessionManager(max_tenants=2)
        manager.session("a")
        manager.session("b")
        with pytest.raises(TenantLimitError):
            manager.session("c")

    def test_close_reports_final_state(self):
        manager = SessionManager()
        manager.submit("a", _item(1, 0.0, 2.0))
        closed = manager.close("a")
        assert closed.tenant == "a"
        assert closed.snapshot.items_submitted == 1
        assert len(closed.result.assignment) == 1
        assert "a" not in manager
        # the id is free for a fresh session now
        assert manager.session("a").snapshot().items_submitted == 0

    def test_close_all_drains_in_opening_order(self):
        manager = SessionManager()
        for tenant in ("x", "y", "z"):
            manager.submit(tenant, _item(1, 0.0, 1.0))
        closed = manager.close_all()
        assert [c.tenant for c in closed] == ["x", "y", "z"]
        assert len(manager) == 0

    def test_offline_algorithm_is_rejected(self):
        manager = SessionManager(TenantConfig(algorithm="dual-coloring"))
        with pytest.raises(TypeError, match="online"):
            manager.session("a")


# ---------------------------------------------------------------------------
# replay parity (the tentpole gate)
# ---------------------------------------------------------------------------


def _online_packer_names() -> list[str]:
    names = []
    for name, info in available_packers().items():
        if info.dims is not None and 1 not in info.dims:
            continue
        candidates = {"rho": 2.0, "alpha": 2.0}
        accepted = set(packer_info(name).param_names())
        kwargs = {k: v for k, v in candidates.items() if k in accepted}
        if isinstance(get_packer(name, **kwargs), OnlinePacker):
            names.append(name)
    return names


def _build(name: str) -> OnlinePacker:
    candidates = {"rho": 2.0, "alpha": 2.0}
    accepted = set(packer_info(name).param_names())
    return get_packer(name, **{k: v for k, v in candidates.items() if k in accepted})


class TestReplayParity:
    """ReplayTransport over a manager == the legacy direct serve loop."""

    @pytest.mark.parametrize("name", _online_packer_names())
    def test_bit_identical_replay(self, name, items):
        set_enabled(False)  # sampled timers stay 0.0 → stats fully comparable
        try:
            legacy = PackingSession(_build(name), registry=TelemetryRegistry())
            snapshots = []
            arrivals = 0
            for event in event_stream(items):
                if event.kind is EventKind.ARRIVAL:
                    legacy.submit(event.item)
                    arrivals += 1
                    if arrivals % 7 == 0:
                        snapshots.append(legacy.snapshot())
                else:
                    legacy.advance(event.time)
            legacy_result = legacy.result()

            manager = SessionManager()
            registry = TelemetryRegistry()
            session = manager.open("replay", packer=_build(name), registry=registry)
            seen = []
            ReplayTransport(
                items, tenant="replay", snapshot_every=7, on_snapshot=seen.append
            ).run(manager)
            result = session.result()
        finally:
            set_enabled(True)

        assert result.assignment == legacy_result.assignment
        assert session.stats.as_dict() == legacy.stats.as_dict()
        assert session.snapshot() == legacy.snapshot()
        assert seen == snapshots

    def test_fault_policy_wiring_matches_legacy(self, items):
        set_enabled(False)
        try:
            policy_a = FaultPolicy("skip", registry=TelemetryRegistry())
            legacy = PackingSession(
                _build("first-fit"),
                registry=TelemetryRegistry(),
                fault_policy=policy_a,
            )
            for event in event_stream(items):
                if event.kind is EventKind.ARRIVAL:
                    legacy.submit(event.item)
                else:
                    legacy.advance(event.time)

            registry = TelemetryRegistry()
            policy_b = FaultPolicy("skip", registry=registry)
            manager = SessionManager()
            session = manager.open(
                "replay", packer=_build("first-fit"), policy=policy_b, registry=registry
            )
            ReplayTransport(items, tenant="replay").run(manager)
        finally:
            set_enabled(True)
        assert session.stats.as_dict() == legacy.stats.as_dict()
        assert policy_b.dropped == policy_a.dropped


class TestReplayPacing:
    """--pace schedules against a monotonic deadline, not per-event sleeps."""

    def test_pacing_absorbs_processing_drift(self, items):
        class FakeClock:
            def __init__(self, work: float) -> None:
                self.now = 0.0
                self.work = work
                self.sleeps: list[float] = []

            def clock(self) -> float:
                self.now += self.work  # every sample costs `work` seconds
                return self.now

            def sleep(self, seconds: float) -> None:
                self.sleeps.append(seconds)
                self.now += seconds

        pace = 0.01
        fake = FakeClock(work=0.003)
        manager = SessionManager()
        transport = ReplayTransport(
            items, pace=pace, clock=fake.clock, sleep=fake.sleep
        )
        transport.run(manager)
        n_events = len(list(event_stream(items)))
        # Drift-free: the run ends exactly on the last event's absolute
        # deadline (t0 + n*pace).  Per-event sleeping would have ended at
        # t0 + n*(pace + work) — 30% late for this workload.
        assert fake.now == pytest.approx(fake.work + n_events * pace)
        # every sleep was shortened to absorb the processing time
        assert all(s < pace for s in fake.sleeps)

    def test_zero_pace_never_sleeps(self, items):
        calls = []
        manager = SessionManager()
        ReplayTransport(items, pace=0.0, sleep=lambda s: calls.append(s)).run(manager)
        assert calls == []


# ---------------------------------------------------------------------------
# admission + micro-batching + drain
# ---------------------------------------------------------------------------


def _runtime(**kwargs) -> ServingRuntime:
    defaults = {"queue_limit": 8, "batch_size": 64, "batch_deadline": 30.0}
    defaults.update(kwargs)
    manager = kwargs.pop("manager", None)
    defaults.pop("manager", None)
    return ServingRuntime(manager, **defaults)


class TestAdmission:
    def test_backpressure_is_an_explicit_busy(self):
        async def scenario():
            rt = _runtime(queue_limit=3)
            verdicts = [
                rt.offer("a", _item(k, float(k), k + 2.0)) for k in range(5)
            ]
            assert [v.status for v in verdicts] == ["ok", "ok", "ok", "busy", "busy"]
            assert verdicts[3].reason == "backpressure"
            assert verdicts[3].queue_depth == 3
            # nothing was lost: the three admitted items all place on drain
            report = await rt.drain()
            assert report.admitted == 3 and report.placed == 3 and report.lost == 0
            assert rt.registry.counter(
                "serving.rejects", tenant="a", reason="backpressure"
            ).value == 2

        asyncio.run(scenario())

    def test_out_of_order_strict_rejects(self):
        async def scenario():
            rt = _runtime()
            assert rt.offer("a", _item(1, 5.0, 9.0)).admitted
            verdict = rt.offer("a", _item(2, 3.0, 9.0))
            assert verdict.status == "rejected"
            assert verdict.reason == "out_of_order"
            await rt.drain()

        asyncio.run(scenario())

    def test_out_of_order_clamp_repairs_to_the_tail(self):
        async def scenario():
            manager = SessionManager(TenantConfig(fault_mode="clamp"))
            rt = _runtime(manager=manager)
            assert rt.offer("a", _item(1, 5.0, 9.0)).admitted
            verdict = rt.offer("a", _item(2, 3.0, 9.0))
            assert verdict.admitted
            assert verdict.item.arrival == 5.0  # clamped to the queue tail
            report = await rt.drain()
            assert report.placed == 2 and report.lost == 0

        asyncio.run(scenario())

    def test_out_of_order_skip_drops_with_accounting(self):
        async def scenario():
            manager = SessionManager(TenantConfig(fault_mode="skip"))
            rt = _runtime(manager=manager)
            assert rt.offer("a", _item(1, 5.0, 9.0)).admitted
            verdict = rt.offer("a", _item(2, 3.0, 9.0))
            assert verdict.status == "dropped" and verdict.reason == "out_of_order"
            report = await rt.drain()
            # the drop happened at the gate, before admission — not "lost"
            assert report.admitted == 1 and report.placed == 1 and report.lost == 0
            assert rt.registry.counter("serving.policy_drops", tenant="a").value == 1

        asyncio.run(scenario())

    def test_duplicate_ids_cannot_enter_one_tenant(self):
        async def scenario():
            rt = _runtime()
            assert rt.offer("a", _item(7, 1.0, 3.0)).admitted
            verdict = rt.offer("a", _item(7, 2.0, 4.0))
            assert verdict.status == "rejected" and verdict.reason == "duplicate_id"
            # ...but the same id is fine on another tenant
            assert rt.offer("b", _item(7, 1.0, 3.0)).admitted
            await rt.drain()

        asyncio.run(scenario())

    def test_malformed_line_strict_rejects_with_diagnostics(self):
        async def scenario():
            rt = _runtime()
            verdict = rt.offer_line("a", '{"id": 1, "size": "wat"}')
            assert verdict.status == "rejected" and verdict.reason == "malformed"
            assert "record 1" in verdict.error or "size" in verdict.error
            await rt.drain()

        asyncio.run(scenario())

    def test_malformed_line_skip_policy_drops(self):
        async def scenario():
            manager = SessionManager(TenantConfig(fault_mode="skip"))
            rt = _runtime(manager=manager)
            assert rt.offer_line("a", "not json at all").status == "dropped"
            assert rt.offer_line("a", _arrival(1, 0.0, 2.0)).admitted
            report = await rt.drain()
            assert report.placed == 1 and report.lost == 0

        asyncio.run(scenario())

    def test_error_budget_trips_to_rejects(self):
        async def scenario():
            manager = SessionManager(
                TenantConfig(fault_mode="skip", error_budget=2)
            )
            rt = _runtime(manager=manager)
            assert rt.offer_line("a", "bad-1").status == "dropped"
            assert rt.offer_line("a", "bad-2").status == "dropped"
            verdict = rt.offer_line("a", "bad-3")
            assert verdict.status == "rejected" and verdict.reason == "error_budget"
            await rt.drain()

        asyncio.run(scenario())

    def test_tenant_limit_rejects(self):
        async def scenario():
            manager = SessionManager(max_tenants=1)
            rt = _runtime(manager=manager)
            assert rt.offer("a", _item(1, 0.0, 1.0)).admitted
            verdict = rt.offer("b", _item(1, 0.0, 1.0))
            assert verdict.status == "rejected" and verdict.reason == "tenant_limit"
            await rt.drain()

        asyncio.run(scenario())


class TestMicroBatching:
    def test_flush_on_batch_size(self):
        async def scenario():
            rt = _runtime(batch_size=4, batch_deadline=30.0)
            for k in range(4):
                rt.offer("a", _item(k, float(k), k + 2.0))
            await asyncio.sleep(0.05)  # let the batcher wake on the size event
            assert rt.snapshot("a").items_submitted == 4
            assert rt.queue_depth("a") == 0
            assert rt.registry.counter(
                "serving.flushes", tenant="a", cause="size"
            ).value >= 1
            await rt.drain()

        asyncio.run(scenario())

    def test_flush_on_deadline(self):
        async def scenario():
            rt = _runtime(batch_size=1000, batch_deadline=0.02)
            rt.offer("a", _item(1, 0.0, 2.0))
            await asyncio.sleep(0.1)
            assert rt.snapshot("a").items_submitted == 1
            assert rt.registry.counter(
                "serving.flushes", tenant="a", cause="deadline"
            ).value >= 1
            await rt.drain()

        asyncio.run(scenario())

    def test_admitted_batches_always_take_the_columnar_path(self):
        # The admission gate repairs ordering/ids, so flushes must place
        # every admitted row even under a strict policy (no fallback raise).
        async def scenario():
            rt = _runtime(queue_limit=256)
            for k in range(100):
                assert rt.offer("a", _item(k, 0.1 * k, 0.1 * k + 3.0)).admitted
            report = await rt.drain()
            assert report.placed == report.admitted
            assert report.lost == 0

        asyncio.run(scenario())


def _admission_fields(verdict) -> tuple:
    item = verdict.item
    return (
        verdict.status,
        verdict.reason,
        verdict.queue_depth,
        verdict.error,
        verdict.retry_ms,
        None if item is None else (item.id, item.sizes, item.arrival, item.departure, item.tags),
    )


def _segment_bytes(runtime: ServingRuntime, tenant: str) -> dict[str, bytes]:
    path = runtime.wal.tenant(tenant).path
    return {p.name: p.read_bytes() for p in sorted(path.glob("segment-*.wal"))}


class TestAdmissionByRead:
    """``offer_lines``: one gate pass and one journal write for a whole read."""

    #: After one earlier arrival (id 0), a run that meets every gate verdict.
    MIXED = [
        _arrival(1, 1.0, 4.0),
        _arrival(0, 1.0, 4.0),  # duplicate of an earlier read
        _arrival(1, 2.0, 5.0),  # duplicate within this run
        _arrival(2, 0.5, 5.0),  # out of order
        '{"id": 3, "size": "wat"}',  # malformed
        *[_arrival(k, k - 1.0, k + 3.0) for k in range(3, 8)],
    ]

    @pytest.mark.parametrize("mode", ["strict", "skip", "clamp"])
    def test_one_batch_matches_one_call_per_line(self, tmp_path, mode):
        async def offered(batched: bool) -> tuple[list, dict[str, bytes], ServingRuntime]:
            rt = _runtime(
                manager=SessionManager(TenantConfig(fault_mode=mode)),
                queue_limit=6,
                wal=WriteAheadLog(tmp_path / f"{mode}-{batched}"),
            )
            assert rt.offer_line("a", _arrival(0, 0.0, 3.0)).admitted
            if batched:
                verdicts = rt.offer_lines("a", self.MIXED)
            else:
                verdicts = [rt.offer_line("a", line) for line in self.MIXED]
            return [_admission_fields(v) for v in verdicts], _segment_bytes(rt, "a"), rt

        async def scenario():
            one, one_wal, rt_one = await offered(batched=False)
            batch, batch_wal, rt_batch = await offered(batched=True)
            assert batch == one
            assert batch_wal == one_wal
            for rt in (rt_one, rt_batch):
                report = await rt.drain()
                assert report.lost == 0
            assert rt_batch.registry.counter("serving.admitted", tenant="a").value == (
                rt_one.registry.counter("serving.admitted", tenant="a").value
            )
            if mode == "strict":
                assert [(v[0], v[1]) for v in batch] == [
                    ("ok", ""),
                    ("rejected", "duplicate_id"),
                    ("rejected", "duplicate_id"),
                    ("rejected", "out_of_order"),
                    ("rejected", "malformed"),
                    *[("ok", "")] * 4,
                    ("busy", "backpressure"),
                ]
                assert [v[2] for v in batch] == [2, 2, 2, 2, 2, 3, 4, 5, 6, 6]

        asyncio.run(scenario())

    def test_batched_journal_is_byte_identical(self, tmp_path, monkeypatch):
        # 500 lines with one duplicate, one malformed line and some tagged
        # records: one offer_lines call journals exactly the bytes that 500
        # offer_line calls do, in one write instead of 498.
        lines = []
        for k in range(500):
            record = {"id": k, "size": 0.25, "arrival": float(k), "departure": k + 2.5}
            if k % 7 == 0:
                record["tags"] = {"app": f"game-{k % 3}"}
            lines.append(json.dumps(record))
        lines[100] = lines[99]
        lines[200] = '{"id": 200, "size": 2.0, "arrival": 200.0, "departure": 201.0}'

        writes = []
        write = log._write
        monkeypatch.setattr(log, "_write", lambda fd, data: writes.append(fd) or write(fd, data))

        async def journal(batched: bool) -> tuple[dict[str, bytes], int]:
            rt = _runtime(queue_limit=1024, wal=WriteAheadLog(tmp_path / str(batched)))
            writes.clear()
            if batched:
                verdicts = rt.offer_lines("a", lines)
            else:
                verdicts = [rt.offer_line("a", line) for line in lines]
            assert sum(v.admitted for v in verdicts) == 498
            assert len(writes) == (1 if batched else 498)
            segments = _segment_bytes(rt, "a")
            appends = rt.wal.registry.counter("serving.wal.appends", tenant="a").value
            assert (await rt.drain()).lost == 0
            return segments, appends

        async def scenario():
            one, appends_one = await journal(False)
            batch, appends_batch = await journal(True)
            assert batch == one and len(one) == 1
            assert appends_one == appends_batch == 498

        asyncio.run(scenario())

    def test_offer_lines_of_nothing_is_nothing(self):
        async def scenario():
            rt = _runtime()
            assert rt.offer_lines("a", []) == []
            await rt.drain()

        asyncio.run(scenario())


class TestDrain:
    def test_drain_flushes_pending_and_loses_nothing(self):
        async def scenario():
            rt = _runtime(batch_size=1000, batch_deadline=30.0, queue_limit=64)
            for tenant in ("a", "b", "c"):
                for k in range(10):
                    rt.offer(tenant, _item(k, float(k), k + 2.0))
            report = await rt.drain()
            assert report.flushed_items == 30
            assert report.admitted == 30 and report.placed == 30
            assert report.lost == 0
            assert [c.tenant for c in report.closed] == ["a", "b", "c"]
            assert all(c.snapshot.items_submitted == 10 for c in report.closed)
            assert report.duration_seconds >= 0

        asyncio.run(scenario())

    def test_drain_is_idempotent_and_rejects_afterwards(self):
        async def scenario():
            rt = _runtime()
            rt.offer("a", _item(1, 0.0, 2.0))
            first = await rt.drain()
            assert await rt.drain() is first
            verdict = rt.offer("a", _item(2, 1.0, 2.0))
            assert verdict.status == "rejected" and verdict.reason == "draining"

        asyncio.run(scenario())

    def test_drain_metrics_are_exported(self):
        async def scenario():
            rt = _runtime()
            rt.offer("a", _item(1, 0.0, 2.0))
            await rt.drain()
            assert rt.registry.counter("serving.drains").value == 1
            assert rt.registry.gauge("serving.drain_duration_seconds").value >= 0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_routing(self):
        assert parse_request('{"id": 1}').op == "arrival"
        assert parse_request("hello acme").tenant == "acme"
        assert parse_request("snapshot").op == "snapshot"
        assert parse_request("bye").op == "bye"
        assert parse_request("").op == "error"
        assert parse_request("frobnicate").op == "error"
        assert parse_request("hello").op == "error"


class TestTcpTransport:
    def test_line_protocol_end_to_end(self):
        async def scenario():
            rt = ServingRuntime(batch_size=4, batch_deadline=0.005)
            tcp = TcpTransport(rt)
            port = await tcp.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def ask(line: str) -> dict:
                writer.write((line + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            assert (await ask("hello acme"))["tenant"] == "acme"
            for k in range(5):
                verdict = await ask(_arrival(k, float(k), k + 4.0))
                assert verdict["status"] == "ok" and verdict["id"] == k
            await asyncio.sleep(0.05)
            snap = await ask("snapshot")
            assert snap["status"] == "snapshot" and snap["items_submitted"] == 5
            assert (await ask("bye"))["status"] == "bye"
            writer.close()
            report = await rt.drain()
            await tcp.stop()
            assert report.admitted == 5 and report.lost == 0

        asyncio.run(scenario())

    def test_overload_answers_busy_not_drops(self):
        async def scenario():
            rt = ServingRuntime(queue_limit=2, batch_size=1000, batch_deadline=30.0)
            tcp = TcpTransport(rt)
            port = await tcp.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            statuses = []
            for k in range(4):
                writer.write((_arrival(k, float(k), k + 2.0) + "\n").encode())
                await writer.drain()
                statuses.append(json.loads(await reader.readline())["status"])
            assert statuses == ["ok", "ok", "busy", "busy"]
            writer.close()
            report = await rt.drain()
            await tcp.stop()
            assert report.admitted == 2 and report.placed == 2 and report.lost == 0

        asyncio.run(scenario())

    def test_malformed_line_gets_a_rejected_reply(self):
        async def scenario():
            rt = ServingRuntime()
            tcp = TcpTransport(rt)
            port = await tcp.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"id": 1, "size": 99.0, "arrival": 0, "departure": 1}\n')
            await writer.drain()
            verdict = json.loads(await reader.readline())
            assert verdict["status"] == "rejected"
            assert verdict["reason"] == "malformed"
            writer.close()
            await rt.drain()
            await tcp.stop()

        asyncio.run(scenario())


    def test_pipelined_read_answers_every_line_in_order(self):
        async def scenario():
            manager = SessionManager()
            manager.configure("skip", TenantConfig(fault_mode="skip"))
            manager.configure("clamp", TenantConfig(fault_mode="clamp"))
            rt = ServingRuntime(manager, queue_limit=3, batch_size=1000, batch_deadline=30.0)
            tcp = TcpTransport(rt)
            port = await tcp.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"hello a\n{_arrival(1, 0.0, 4.0)}\n".encode())
            await writer.drain()
            assert json.loads(await reader.readline())["status"] == "hello"
            assert json.loads(await reader.readline())["status"] == "ok"
            read = [
                (_arrival(1, 1.0, 5.0), "rejected", "duplicate_id"),  # seen before
                (_arrival(2, 1.0, 5.0), "ok", None),
                (_arrival(2, 2.0, 6.0), "rejected", "duplicate_id"),  # in this read
                (_arrival(3, 0.5, 6.0), "rejected", "out_of_order"),
                ('{"id": 3, "size": "wat"}', "rejected", "malformed"),
                ("snapshot", "snapshot", None),
                (_arrival(4, 2.0, 6.0), "ok", None),
                (_arrival(5, 3.0, 7.0), "busy", "backpressure"),
                ("hello skip", "hello", None),
                (_arrival(1, 5.0, 9.0), "ok", None),
                (_arrival(2, 4.0, 9.0), "dropped", "out_of_order"),
                ("hello clamp", "hello", None),
                (_arrival(1, 5.0, 9.0), "ok", None),
                (_arrival(2, 4.0, 9.0), "ok", None),  # clamped to the tail
                ("bye", "bye", None),
                (_arrival(9, 9.0, 12.0), None, None),  # after bye: never read
            ]
            writer.write("".join(line + "\n" for line, _, _ in read).encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)  # bye closes
            replies = [json.loads(line) for line in raw.splitlines()]
            expected = [(status, reason) for _, status, reason in read if status]
            assert [(r["status"], r.get("reason")) for r in replies] == expected
            assert replies[5]["tenant"] == "a"
            assert [r["id"] for r in replies if r["status"] == "ok"] == [2, 4, 1, 1, 2]
            writer.close()
            report = await rt.drain()
            await tcp.stop()
            assert report.admitted == 6 and report.lost == 0

        asyncio.run(scenario())

    @pytest.mark.parametrize("ended", [True, False], ids=["newline", "no-newline"])
    def test_overlong_line_is_refused_then_closed(self, ended):
        async def scenario():
            rt = ServingRuntime(batch_size=1000, batch_deadline=30.0)
            tcp = TcpTransport(rt)
            port = await tcp.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            overlong = json.dumps(
                {"id": 2, "size": 0.3, "arrival": 1.0, "departure": 5.0,
                 "tags": {"blob": "x" * 70_000}}
            )
            payload = _arrival(1, 0.0, 4.0) + "\n" + overlong
            if ended:
                payload += "\n" + _arrival(3, 2.0, 6.0) + "\n"
            writer.write(payload.encode())
            await writer.drain()
            # Without a newline the server must not wait for one: it refuses
            # the line once it outgrows the limit and closes the connection.
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            replies = [json.loads(line) for line in raw.splitlines()]
            assert [r["status"] for r in replies] == ["ok", "rejected"]
            assert replies[1]["reason"] == "protocol"
            assert "65536" in replies[1]["error"]
            writer.close()
            report = await rt.drain()
            await tcp.stop()
            assert report.admitted == 1 and report.lost == 0

        asyncio.run(scenario())


class TestHttpTransport:
    def test_submit_snapshot_healthz(self):
        async def scenario():
            rt = ServingRuntime(batch_size=4, batch_deadline=0.005)
            http = HttpTransport(rt)
            port = await http.start()

            async def request(raw: bytes) -> tuple[int, bytes]:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(raw)
                await writer.drain()
                status_line = await reader.readline()
                status = int(status_line.split()[1])
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    if header.lower().startswith(b"content-length:"):
                        length = int(header.split(b":")[1])
                body = await reader.readexactly(length)
                writer.close()
                return status, body

            ndjson = "\n".join(_arrival(k, float(k), k + 3.0) for k in range(6))
            body = ndjson.encode()
            status, answer = await request(
                b"POST /submit HTTP/1.1\r\nHost: x\r\nX-Tenant: web\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            assert status == 200
            assert json.loads(answer)["admitted"] == 6

            await asyncio.sleep(0.05)
            status, answer = await request(
                b"GET /snapshot?tenant=web HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert status == 200
            assert json.loads(answer)["items_submitted"] == 6

            status, answer = await request(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert (status, answer) == (200, b"ok")

            status, _ = await request(
                b"GET /snapshot?tenant=nope HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert status == 404

            report = await rt.drain()
            status, answer = await request(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert (status, answer) == (503, b"draining")
            await http.stop()
            assert report.admitted == 6 and report.lost == 0

        asyncio.run(scenario())

    def test_busy_maps_to_429(self):
        async def scenario():
            rt = ServingRuntime(queue_limit=2, batch_size=1000, batch_deadline=30.0)
            http = HttpTransport(rt)
            port = await http.start()
            ndjson = "\n".join(_arrival(k, float(k), k + 3.0) for k in range(5))
            body = ndjson.encode()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            assert status == 429
            # a 429 advertises the backoff as a whole-second Retry-After
            headers = b""
            while True:
                line = await reader.readline()
                headers += line
                if line in (b"\r\n", b"\n", b""):
                    break
            assert b"retry-after:" in headers.lower()
            writer.close()
            await rt.drain()
            await http.stop()

        asyncio.run(scenario())


class TestHttpHardening:
    """Malformed requests answer 400/413 protocol errors, never a crash."""

    @staticmethod
    async def _raw_request(port: int, raw: bytes) -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        if hasattr(writer, "write_eof"):
            writer.write_eof()  # nothing further is coming
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            if header.lower().startswith(b"content-length:"):
                length = int(header.split(b":")[1])
        body = await reader.readexactly(length)
        writer.close()
        return status, body

    def _served(self, raw: bytes) -> tuple[int, dict]:
        async def scenario():
            rt = ServingRuntime()
            http = HttpTransport(rt)
            port = await http.start()
            status, body = await self._raw_request(port, raw)
            # the reader task survived the fault: a well-formed request
            # on a fresh connection still answers
            ok, _ = await self._raw_request(
                port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert ok == 200
            await rt.drain()
            await http.stop()
            return status, json.loads(body)

        return asyncio.run(scenario())

    def test_malformed_content_length_is_a_400(self):
        status, doc = self._served(
            b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n"
        )
        assert status == 400
        assert doc["reason"] == "protocol"
        assert "content-length" in doc["error"]

    def test_negative_content_length_is_a_400(self):
        status, doc = self._served(
            b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n"
        )
        assert status == 400
        assert doc["reason"] == "protocol"

    def test_oversized_body_is_a_413(self):
        oversize = HttpTransport.MAX_BODY + 1
        status, doc = self._served(
            f"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: {oversize}\r\n\r\n".encode()
        )
        assert status == 413
        assert doc["reason"] == "protocol"
        assert "limit" in doc["error"]

    def test_truncated_body_is_a_400(self):
        status, doc = self._served(
            b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n"
            b'{"id": 1'  # 492 bytes short of the declared length
        )
        assert status == 400
        assert doc["reason"] == "protocol"
        assert "truncated" in doc["error"]


class TestStdinTransport:
    def test_pipe_end_to_end(self):
        async def scenario():
            rt = ServingRuntime(batch_size=4, batch_deadline=0.005)
            lines = "\n".join(
                ["hello pipe", _arrival(1, 0.0, 4.0), _arrival(2, 1.0, 5.0), "bye"]
            )
            out = io.StringIO()
            transport = StdinTransport(
                rt, in_stream=io.StringIO(lines + "\n"), out_stream=out
            )
            consumed = await transport.run()
            assert consumed == 4
            report = await rt.drain()
            replies = [json.loads(line) for line in out.getvalue().splitlines()]
            assert [r["status"] for r in replies] == ["hello", "ok", "ok", "bye"]
            assert report.admitted == 2 and report.lost == 0

        asyncio.run(scenario())

    def test_stop_wakes_a_parked_reader(self):
        async def scenario():
            rt = ServingRuntime()

            class Blocking:
                """A stream whose readline never returns (like an open tty)."""

                def readline(self) -> str:
                    import time as _time

                    _time.sleep(30.0)
                    return ""

            transport = StdinTransport(rt, in_stream=Blocking(), out_stream=io.StringIO())
            task = asyncio.ensure_future(transport.run())
            await asyncio.sleep(0.05)
            transport.stop()
            consumed = await asyncio.wait_for(task, timeout=2.0)
            assert consumed == 0
            await rt.drain()

        asyncio.run(scenario())

    def test_reader_threads_do_not_accumulate_across_runs(self):
        # Before the join-on-drain fix, every transport left its daemon
        # reader parked on readline forever; 20 runs leaked 20 threads.
        import threading

        class Parked:
            """readline parks until the stream is closed (like a quiet pipe)."""

            def __init__(self) -> None:
                self._gate = threading.Event()

            def readline(self) -> str:
                self._gate.wait(timeout=30.0)
                raise ValueError("I/O operation on closed stream")

            def close(self) -> None:
                self._gate.set()

        async def one_run() -> None:
            rt = ServingRuntime()
            transport = StdinTransport(rt, in_stream=Parked(), out_stream=io.StringIO())
            task = asyncio.ensure_future(transport.run())
            await asyncio.sleep(0.01)
            transport.stop()
            await asyncio.wait_for(task, timeout=5.0)
            await rt.drain()

        def serving_threads() -> int:
            return sum(
                t.name.startswith("repro-serving-stdin")
                for t in threading.enumerate()
            )

        baseline = serving_threads()
        for _ in range(20):
            asyncio.run(one_run())
        assert serving_threads() <= baseline  # joined, not abandoned

    def test_eof_run_joins_its_reader(self):
        import threading

        async def scenario():
            rt = ServingRuntime()
            transport = StdinTransport(
                rt, in_stream=io.StringIO("bye\n"), out_stream=io.StringIO()
            )
            assert await transport.run() == 1
            await rt.drain()
            return transport._thread

        thread = asyncio.run(scenario())
        thread.join(timeout=1.0)
        assert not thread.is_alive()
        assert threading.current_thread() is threading.main_thread()


class TestLoadGenerator:
    def test_multi_tenant_load_round_trips(self):
        async def scenario():
            rt = ServingRuntime(batch_size=32, batch_deadline=0.002)
            tcp = TcpTransport(rt)
            port = await tcp.start()
            gen = LoadGenerator("127.0.0.1", port, tenants=4, seed=3)
            report = await gen.run(200)
            drained = await rt.drain()
            await tcp.stop()
            assert report.admitted == 200
            assert report.rejected == 0 and report.abandoned == 0
            assert len(report.tenants) == 4
            assert report.latency.count == report.admitted
            assert report.latency.quantile(0.99) > 0
            assert drained.admitted == 200 and drained.lost == 0

        asyncio.run(scenario())

    def test_busy_retry_hints_are_honoured_without_hot_spin(self):
        # 2x overload: the limiter admits at half the closed-loop offered
        # rate, so roughly every other offer answers busy with a
        # deficit-sized retry_ms.  A well-behaved client sleeps the hint
        # (bounded retries, real backoff) instead of hammering the server.
        from repro.serving import RateLimiter

        total, rate, burst = 30, 100.0, 2.0
        tenants = 2

        async def scenario():
            rt = ServingRuntime(
                rate_limiter=RateLimiter(rate, burst),
                batch_size=16,
                batch_deadline=0.002,
            )
            tcp = TcpTransport(rt)
            port = await tcp.start()
            gen = LoadGenerator(
                "127.0.0.1", port, tenants=tenants, seed=7, max_retries=100
            )
            report = await gen.run(total)
            drained = await rt.drain()
            await tcp.stop()
            return report, drained

        report, drained = asyncio.run(scenario())
        # every record eventually lands — throttling delays, never loses
        assert report.admitted == total and report.abandoned == 0
        assert drained.admitted == total and drained.lost == 0
        assert report.busy > 0
        # the client really slept the hints: the run cannot beat the
        # token-refill floor (per tenant: (records - burst) / rate)
        floor = (total / tenants - burst) / rate
        assert report.duration_seconds >= 0.8 * floor
        assert report.retry_wait_seconds > 0
        # no hot-spin: deficit-sized hints mean ~one retry per throttled
        # record, so sends stay within a small multiple of the workload —
        # a hot-spinning client would show thousands of sends
        sent = sum(t.sent for t in report.tenants)
        assert sent <= 4 * total
        # per-tenant stats carry the backoff accounting
        assert all(t.retry_wait_seconds >= 0 for t in report.tenants)
        assert any(t.retry_wait_seconds > 0 for t in report.tenants)


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


@pytest.fixture
def trace(tmp_path):
    from repro.cli import main

    path = tmp_path / "trace.jsonl"
    assert (
        main(["generate", "--kind", "uniform", "--n", "30", "--seed", "5", "--out", str(path)])
        == 0
    )
    return path


class TestServeCli:
    def test_trace_and_listen_are_mutually_exclusive(self, trace, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--trace", str(trace), "--listen", "stdin", "--algorithm", "first-fit"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_one_mode_is_required(self, capsys):
        from repro.cli import main

        assert main(["serve", "--algorithm", "first-fit"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_bad_listen_spec(self, capsys):
        from repro.cli import main

        assert main(["serve", "--listen", "carrier-pigeon", "--algorithm", "first-fit"]) == 2
        assert "--listen expects" in capsys.readouterr().err

    def test_listen_stdin_serves_and_drains(self, capsys, monkeypatch):
        import sys as _sys

        from repro.cli import main

        lines = "\n".join(
            ["hello cli", _arrival(1, 0.0, 4.0), _arrival(2, 1.0, 5.0)]
        )
        monkeypatch.setattr(_sys, "stdin", io.StringIO(lines + "\n"))
        assert main(["serve", "--listen", "stdin", "--algorithm", "first-fit"]) == 0
        out = capsys.readouterr().out
        assert '"status":"ok"' in out
        assert "drained 1 tenant sessions" in out
        assert "lost=0" in out

    def test_listen_stdin_json_report(self, capsys, monkeypatch):
        import sys as _sys

        from repro.cli import main

        monkeypatch.setattr(
            _sys, "stdin", io.StringIO(_arrival(1, 0.0, 4.0) + "\n")
        )
        assert main(["serve", "--listen", "stdin", "--algorithm", "first-fit", "--json"]) == 0
        stdout = capsys.readouterr().out
        # one protocol reply line, then the multi-line report document
        doc = json.loads("\n".join(stdout.splitlines()[1:]))
        assert doc["command"] == "serve"
        assert doc["drain"]["admitted"] == 1
        assert doc["drain"]["lost"] == 0
        assert doc["tenants"][0]["tenant"] == "default"


class TestSweepTraceLoader:
    @pytest.mark.parametrize("loader", ["object", "columnar"])
    def test_sweep_over_a_trace(self, trace, loader, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--algorithm",
                "first-fit",
                "--workload",
                "trace",
                "--trace",
                str(trace),
                "--loader",
                loader,
                "--seeds",
                "2",
                "--executor",
                "serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: first-fit on trace" in out
        # fixed input → every cell reports the identical ratio
        lines = [line for line in out.splitlines() if line.startswith("seed=")]
        assert len(lines) == 2
        assert lines[0].split()[1:4] == lines[1].split()[1:4]

    def test_trace_workload_requires_a_trace(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--algorithm", "first-fit", "--workload", "trace"]) == 2
        assert "--trace" in capsys.readouterr().err


class TestMetricsServerLifecycle:
    """serve --metrics-port lifecycle: bind errors, auto-assign, release."""

    def test_port_in_use_exits_2(self, trace, capsys):
        from repro.cli import main

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            code = main(
                [
                    "serve",
                    "--trace",
                    str(trace),
                    "--algorithm",
                    "first-fit",
                    "--metrics-port",
                    str(port),
                ]
            )
        assert code == 2
        assert "cannot bind metrics endpoint" in capsys.readouterr().err

    def test_port_zero_auto_assigns_and_is_scraped(self):
        from repro.obs import MetricsServer, validate_exposition

        registry = TelemetryRegistry()
        registry.counter("engine.items_submitted").inc(3)
        server = MetricsServer(registry, port=0)
        server.start()
        try:
            import urllib.request

            assert server.port > 0
            body = urllib.request.urlopen(server.url, timeout=5).read().decode()
            assert validate_exposition(body) > 0
            assert "repro_engine_items_submitted_total 3" in body
        finally:
            server.stop()

    def test_stop_releases_the_port_for_a_second_serve(self, trace, capsys):
        from repro.cli import main

        with socket.socket() as probe:  # a port that is free right now
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        argv = [
            "serve",
            "--trace",
            str(trace),
            "--algorithm",
            "first-fit",
            "--metrics-port",
            str(port),
        ]
        assert main(argv) == 0
        # the first run's endpoint must be fully released for the rebind
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.count("metrics endpoint:") == 2
