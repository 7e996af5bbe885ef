"""The ``serve-wal`` workload: a real ``repro serve`` process under load.

The server runs the production configuration -- TCP line protocol,
first-fit, a write-ahead log with group commit and a Prometheus endpoint --
except that periodic checkpoints are off (``--checkpoint-every 0``); the
drain still checkpoints every tenant.  The benchmark may only write inside
its checkout, and on this host's shared virtual disk a checkpoint's inline
fsync stalled the event loop for 100-350 ms at random, so ack p99 at
1000 lines/s ranged from 5 to 218 ms across three runs (1.4-2.0 ms without
periodic checkpoints).  That measured the other tenants of the disk, not
this program.

The client (this process, one asyncio thread, two connections) first climbs
an open-loop ladder (:data:`metrics.LADDER`), then runs closed-loop
saturation bursts; each step and burst uses fresh tenants.  The server's
``/metrics`` endpoint is scraped once per ladder step.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import loadgen
from metrics import LADDER

HOST = "127.0.0.1"
#: Lines in flight per connection during a saturation burst.
BURST_WINDOW = 64
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark could not run the workload to the end."""


def serve_argv(wal_dir: Path) -> list[str]:
    return [
        "serve",
        "--listen",
        f"tcp:{HOST}:0",
        "--algorithm",
        "first-fit",
        "--wal",
        str(wal_dir),
        "--checkpoint-every",
        "0",
        "--metrics-port",
        "0",
        "--json",
    ]


class Server:
    """One ``repro serve`` child: start, observe, stop.

    ``ready_s`` is the time from launch until the TCP port accepts (the
    server prints its endpoint after binding).
    """

    def __init__(self, command: list[str], env: dict[str, str], cwd: Path) -> None:
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        self.stderr: list[str] = []
        self._stdout = b""
        self._ready = threading.Event()
        self.port = 0
        self.metrics_url = ""
        self._readers = [
            threading.Thread(target=self._read_stderr, daemon=True),
            threading.Thread(target=self._read_stdout, daemon=True),
        ]
        for reader in self._readers:
            reader.start()
        deadline = began + START_TIMEOUT_S
        while not self._ready.wait(0.01):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                raise BenchError("serve did not start:\n" + "".join(self.stderr[-20:]))
        self.ready_s = time.perf_counter() - began

    def _read_stderr(self) -> None:
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace")
            self.stderr.append(line)
            if match := re.search(r"metrics endpoint: (\S+)", line):
                self.metrics_url = match.group(1)
            if match := re.search(r"serving endpoint: tcp://[^:]+:(\d+)", line):
                self.port = int(match.group(1))
                self._ready.set()

    def _read_stdout(self) -> None:
        self._stdout = self.proc.stdout.read()

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def scrape(self) -> dict[str, float]:
        """``/metrics`` summed over labels, by Prometheus family member name."""
        with urllib.request.urlopen(self.metrics_url, timeout=10) as response:
            text = response.read().decode("utf-8")
        totals: dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            name = name_part.split("{", 1)[0]
            try:
                totals[name] = totals.get(name, 0.0) + float(value)
            except ValueError:
                continue
        return totals

    def stop(self) -> tuple[int, bytes, float]:
        """SIGTERM, wait for the drain; returns ``(exit code, stdout, peak RSS MB)``."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.kill()
                raise BenchError("serve did not drain within the timeout")
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in self._readers:
            reader.join(timeout=10)
        return self.proc.returncode, self._stdout, usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for reader in self._readers:
            reader.join(timeout=10)


def run(
    *,
    seed: int,
    scale: float,
    run_dir: Path,
    env: dict[str, str],
    cwd: Path,
    launches: int,
    traced: bool,
) -> tuple[dict, list[float]]:
    """Run the workload; returns ``(raw measurements, set-up times)``."""
    here = Path(__file__).resolve().parent
    setup: list[float] = []
    server = None
    try:
        for launch in range(launches):
            wal = run_dir / f"wal-{'traced' if traced else 'plain'}-{launch}"
            args = serve_argv(wal)
            if traced:
                command = [sys.executable, str(here / "serve_traced.py"), str(run_dir), *args]
            else:
                command = [sys.executable, "-m", "repro", *args]
            server = Server(command, env, cwd)
            setup.append(server.ready_s)
            if launch < launches - 1:
                server.stop()
                server = None
        step_s = max(0.5, 2.0 * scale)
        steps = []
        for index, rate in enumerate(LADDER):
            cpu0 = server.cpu_s()
            began = time.perf_counter()
            result = asyncio.run(
                loadgen.run_step(
                    HOST, server.port, rate=rate, seconds=step_s, seed=seed, step=index
                )
            )
            ended = time.perf_counter()
            cpu1 = server.cpu_s()
            counters = server.scrape()
            steps.append(
                {
                    "rate": rate,
                    "start": began,
                    "end": ended,
                    "wall_s": ended - began,
                    "cpu_s": cpu1 - cpu0,
                    "ack_ms": result.ack_ms(),
                    "snapshot_ms": result.snapshot_ms(),
                    "lines": len(result.samples),
                    "ok": result.ok,
                    "refused": result.refused,
                    "failed_snapshots": result.failed_snapshots(),
                    "lag_ms_max": result.lag_max_s * 1e3,
                    "meets_slo": result.meets_slo(),
                    "wal_fsyncs_total": counters.get("repro_serving_wal_fsyncs_total", 0.0),
                }
            )
        bursts = []
        per_connection = max(200, round(15_000 * min(scale, 1.0)))
        for index in range(max(2, round(4 * scale))):
            cpu0 = server.cpu_s()
            began = time.perf_counter()
            offered, acked, wall = asyncio.run(
                loadgen.run_saturation(
                    HOST,
                    server.port,
                    per_connection=per_connection,
                    seed=seed,
                    tag=f"burst{index}",
                    window=BURST_WINDOW,
                )
            )
            ended = time.perf_counter()
            bursts.append(
                {
                    "start": began,
                    "end": ended,
                    "wall_s": wall,
                    "cpu_s": server.cpu_s() - cpu0,
                    "offered": offered,
                    "acked": acked,
                }
            )
        scrape = server.scrape()
        code, stdout, peak_rss_mb = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    if code != 0:
        raise BenchError(f"serve exited with status {code}")
    report = json.loads(stdout)
    drain = report["drain"]
    client_ok = sum(s["ok"] for s in steps) + sum(b["acked"] for b in bursts)
    digest = hashlib.sha256()
    for tenant in sorted(report["tenants"], key=lambda t: t["tenant"]):
        snap = tenant["snapshot"]
        digest.update(
            f"{tenant['tenant']}|{snap['items_submitted']}|{snap['bins_opened']}|"
            f"{snap['usage_time']!r}\n".encode()
        )
    failed = (
        sum(s["refused"] + s["failed_snapshots"] for s in steps)
        + sum(b["offered"] - b["acked"] for b in bursts)
    )
    raw = {
        "steps": steps,
        "bursts": bursts,
        "scrape": scrape,
        "drain": drain,
        "peak_rss_mb": peak_rss_mb,
        "correct": drain["lost"] == 0 and drain["admitted"] == client_ok,
        "attempted": sum(s["lines"] for s in steps) + sum(b["offered"] for b in bursts),
        "failed": failed,
        "digest": digest.hexdigest(),
    }
    return raw, setup
