"""Tests of the benchmark harness itself: ``pytest benchmarks/perf -q``."""

from __future__ import annotations

import asyncio
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import loadgen
import metrics
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "perf" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- end to end ------------------------------------------------------------------


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_workload_smoke(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        values = [v["value"] for v in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        if trace == 0:
            assert all(v > 0 for v in values)
        else:
            layers = result["metrics"]
            assert -0.1 <= layers["trace.unattributed_frac"]["value"] <= 1.0
    assert not (ROOT / ".perf_run").exists()


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "replay-long", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- metric catalogue ------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    for section, catalogue in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]
        assert declared == list(catalogue)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOADS)


# -- open-loop timing ------------------------------------------------------------


def test_ledger_times_requests_from_their_due_time():
    """A stalled reply makes every request due during the stall late."""
    now = [0.0]
    ledger = loadgen.Ledger(clock=lambda: now[0])
    period, service, stall_at, stall = 0.001, 0.0001, 3, 0.050
    due = [k * period for k in range(10)]
    done, free_at = [], 0.0
    for k, d in enumerate(due):  # a serial server: one reply at a time
        free_at = max(free_at, d) + service + (stall if k == stall_at else 0.0)
        done.append(free_at)
    events = sorted([(d, 0, k) for k, d in enumerate(due)] + [(t, 1, k) for k, t in enumerate(done)])
    for t, kind, _ in events:
        now[0] = t
        if kind == 0:
            ledger.sent(t, "arrival")
        else:
            ledger.replied("ok")
    latencies = [s[2] for s in ledger.samples]
    assert latencies == pytest.approx([t - d for t, d in zip(done, due)])
    assert all(lat < 0.001 for lat in latencies[:stall_at])
    assert all(lat > 0.040 for lat in latencies[stall_at:])


def test_open_loop_client_charges_a_server_stall_to_later_requests():
    async def scenario():
        served = 0

        async def handle(reader, writer):
            nonlocal served
            while line := await reader.readline():
                if line.startswith(b"{"):
                    served += 1
                    if served == 5:
                        await asyncio.sleep(0.2)
                writer.write(b'{"status":"ok"}\n' if line.startswith((b"{", b"hello", b"bye"))
                             else b'{"status":"snapshot"}\n')
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen.run_step(
                "127.0.0.1", port, rate=200, seconds=0.5, seed=1, step=0, connections=1
            )
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(scenario())
    acks = [s for s in result.samples if s[0] == "arrival"]
    start = acks[0][1]
    # Requests due in the 100 ms after the stall began were answered only
    # after it ended, and are charged the wait from their due time.
    during = [s for s in acks[5:] if s[1] - start < 0.1]
    assert during and all(s[2] > 0.08 for s in during)
    assert result.refused == 0


def test_slo_counts_refusals_as_missing_the_limit():
    step = loadgen.StepResult(rate=1000)
    step.samples = [("arrival", k * 0.001, 0.0005, "ok") for k in range(999)]
    assert step.meets_slo()
    step.samples += [("arrival", 0.999, 0.0005, "busy")] * 2
    assert not step.meets_slo()


# -- span arithmetic ---------------------------------------------------------------


def test_self_times_windows_and_unattributed(tmp_path):
    rec = tracer.Tracer(str(tmp_path))
    rec.spans = [  # [id, layer, start, end, parent, trace, thread], in exit order
        [2, "c", 2.0, 3.0, 1, None, 0],
        [1, "b", 1.0, 4.0, 0, None, 0],
        [3, "b", 5.0, 9.0, 0, None, 0],
        [0, "a", 0.0, 10.0, -1, "t0", 0],
    ]
    path = rec.write()
    records = {r["id"]: r for r in map(json.loads, open(path, encoding="utf-8"))}
    assert [records[i]["self"] for i in range(4)] == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert {r["trace"] for r in records.values()} == {"t0"}  # children inherit
    summary = tracer.summarize([path], {"late": [(4.5, 10.0)]}, ["b"])
    assert summary.self_s == pytest.approx({"a": 3.0, "b": 6.0, "c": 1.0})
    assert sum(summary.self_s.values()) == pytest.approx(10.0)
    assert summary.windowed["late"] == pytest.approx({"b": 4.0})
    assert summary.durations["b"] == pytest.approx([3.0, 4.0])
    assert tracer.unattributed_frac(9.0, 10.0) == pytest.approx(0.1)
    assert tracer.unattributed_frac(1.0, 0.0) == 0.0


def test_wrappers_nest_start_traces_and_flush(tmp_path):
    rec = tracer.Tracer(str(tmp_path))

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    traced_inner = rec.wrap(inner, "optimal.bb")
    traced_outer = rec.wrap(outer, "analysis.cell")  # starts a new trace per call
    assert traced_outer(1) == 4 and traced_outer(2) == 6
    records = [json.loads(line) for line in open(rec.write(), encoding="utf-8")]
    cells = [r for r in records if r["name"] == "analysis.cell"]
    bbs = [r for r in records if r["name"] == "optimal.bb"]
    assert [b["parent"] for b in bbs] == [c["id"] for c in cells]
    assert [b["trace"] for b in bbs] == [c["trace"] for c in cells]
    assert len({c["trace"] for c in cells}) == 2


def test_missing_wrap_target_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.setitem(tracer.LAYERS, "gone.layer", ("repro.core.batch", "ArrivalBatch.nope"))
    monkeypatch.setitem(tracer.LAYERS, "gone.module", ("repro.no_such_module", "f"))
    rec = tracer.Tracer(str(tmp_path))
    tracer.install(rec, ["gone.layer", "gone.module"])
    assert rec.absent == ["gone.layer", "gone.module"]


# -- comparison rule ---------------------------------------------------------------


def _series(base, step, n=10):
    return [base + step * ((k % 3) - 1) for k in range(n)]


def test_compare_gain_regression_and_no_change():
    parent = _series(100.0, 0.5)
    gain = compare.compare_metric(parent, [v * 1.2 for v in parent], better="higher", bound=0.1)
    assert gain["verdict"] == "gain" and gain["wins"] == 10
    worse = compare.compare_metric(parent, [v * 0.8 for v in parent], better="higher", bound=0.1)
    assert worse["verdict"] == "regression"
    same = compare.compare_metric(parent, list(reversed(parent)), better="higher", bound=0.1)
    assert same["verdict"] == "no change"
    # Lower-is-better metrics improve downwards.
    faster = compare.compare_metric(parent, [v * 0.8 for v in parent], better="lower", bound=0.1)
    assert faster["verdict"] == "gain"


def test_compare_reports_unresolved_when_spread_exceeds_bound():
    noisy = [100.0, 70.0, 130.0, 90.0, 110.0, 60.0, 140.0, 100.0, 85.0, 115.0]
    result = compare.compare_metric(noisy, [v * 0.95 for v in noisy], better="higher", bound=0.1)
    assert result["verdict"] == "unresolved"
    # ...unless every change run beats every parent run.
    result = compare.compare_metric(noisy, [v + 100.0 for v in noisy], better="higher", bound=0.1)
    assert result["verdict"] == "gain"


def _record(seed, value, *, digest="d", failed=0, started=0.0):
    return {
        "workload": "replay-long", "seed": seed, "trace": 0, "started": started,
        "digest": digest, "attempted": 100, "failed": failed,
        "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                    for m in BENCHMARK["end_to_end"]},
    }


def test_compare_checks_digests_failures_and_pair_count():
    parent = [_record(s, 100.0 + s % 3, started=2 * s + s % 2) for s in range(10)]
    change = [_record(s, 100.0 + s % 3, started=2 * s + 1 - s % 2) for s in range(10)]
    lines, ok = compare.compare(parent, change, BENCHMARK)
    assert ok and "alternated=True" in lines[0]
    bad_digest = change[:9] + [_record(9, 100.0, digest="other")]
    assert not compare.compare(parent, bad_digest, BENCHMARK)[1]
    more_failed = change[:9] + [_record(9, 100.0, failed=5)]
    assert not compare.compare(parent, more_failed, BENCHMARK)[1]
    assert not compare.compare(parent[:5], change[:5], BENCHMARK)[1]

