"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 benchmarks/perf/run.py --workload replay-long --seed 1 --seconds 12 --trace 0
    python3 benchmarks/perf/run.py --trace 1 --out traced.ndjson   # every workload

Each workload runs in fresh interpreters with ``src`` first on
``PYTHONPATH``; inputs are generated from ``--seed``.  ``--trace 0`` prints
the end-to-end metrics of one untraced run.  ``--trace 1`` makes an untraced
and a traced run and prints the per-layer metrics.  Every metric is printed
as ``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when every
output check passed, 1 when one failed, and 2 (with no result line) when
the workload could not run -- for example outside a checkout of this
repository.  Scratch files live under ``.perf_run/`` in the checkout and are
removed at exit.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import serve_wal  # noqa: E402
from serve_wal import BenchError  # noqa: E402

#: The run length the workload sizes are calibrated for; ``--seconds``
#: scales every workload's amount of work linearly from it.
REFERENCE_SECONDS = 12.0
#: Launches per set-up measurement; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
SMOKE_SCALE = 0.01
CHILD_TIMEOUT_S = 170.0
#: ``personality(2)`` flag of ``setarch -R``.
ADDR_NO_RANDOMIZE = 0x0040000


def disable_aslr() -> bool:
    """Turn address-space layout randomisation off; True if this changed it.

    The setting is inherited across fork and exec.  With it on, the same
    input measured 7-9% apart between runs (IQR / median over six runs) on
    the reference host, 4-5.5% with it off.  Where the kernel refuses, the
    benchmark runs with randomisation on.
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    current = personality(0xFFFFFFFF)
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return False
    return personality(current | ADDR_NO_RANDOMIZE) != -1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(
    workload: str, spec: dict, run_dir: Path, env: dict[str, str], launches: int, traced: bool
) -> tuple[dict, list[float]]:
    """Launch ``child.py`` ``launches`` times; the last one runs the workload."""
    out = run_dir / "raw.json"
    spec = dict(spec, workload=workload, trace=traced, dir=str(run_dir), out=str(out))
    command = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    setup: list[float] = []
    for launch in range(launches):
        began = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            if proc.stdout.readline().strip() != "ready":
                raise BenchError(f"{workload}: the child failed to start")
            setup.append(time.perf_counter() - began)
            proc.stdin.write("go\n" if launch == launches - 1 else "quit\n")
            proc.stdin.close()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"{workload}: the child exited with status {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8")), setup


def measure(
    workload: str, seed: int, scale: float, run_dir: Path, launches: int, traced: bool
) -> tuple[dict, list[float]]:
    run_dir.mkdir(parents=True)
    env = child_env()
    if workload == "serve-wal":
        return serve_wal.run(
            seed=seed, scale=scale, run_dir=run_dir, env=env, cwd=ROOT,
            launches=launches, traced=traced,
        )
    spec = {"seed": seed, "scale": scale}
    return run_child(workload, spec, run_dir, env, launches, traced)


def run_workload(workload: str, seed: int, scale: float, trace: bool, out: str | None) -> dict:
    """Measure one workload; returns the result record."""
    scratch = ROOT / ".perf_run" / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    started = time.time()
    absent: list[str] = []
    try:
        if trace:
            raw_u, _ = measure(workload, seed, scale, scratch / "plain", 1, False)
            raw_t, _ = measure(workload, seed, scale, scratch / "traced", 1, True)
            span_files = sorted((scratch / "traced").glob("spans-*.ndjson"))
            values, absent = metrics.per_layer(workload, raw_u, raw_t, span_files)
            raws = [raw_u, raw_t]
            if out:
                with open(f"{out}.spans.ndjson", "wb") as fh:
                    for path in span_files:
                        with open(path, "rb") as src:
                            shutil.copyfileobj(src, fh)
        else:
            raw, setup = measure(workload, seed, scale, scratch / "plain", SETUP_LAUNCHES, False)
            values = metrics.end_to_end(workload, raw, setup)
            if not all(math.isfinite(v) for v in values.values()):
                raise BenchError(f"{workload}: a metric has no samples: {values}")
            raws = [raw]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    digests = {r["digest"] for r in raws}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "started": started,
        # The traced run must reproduce the untraced run's outputs exactly.
        "correct": all(r["correct"] for r in raws) and len(digests) == 1,
        "attempted": sum(int(r["attempted"]) for r in raws),
        "failed": sum(int(r["failed"]) for r in raws),
        "digest": raws[0]["digest"],
        "absent": absent,
        # Non-finite per-layer values (no samples, or refused requests past
        # the percentile) are reported as -1.
        "metrics": {
            name: {
                "value": value if math.isfinite(value) else -1.0,
                "unit": metrics.UNITS[name],
            }
            for name, value in values.items()
        },
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=REFERENCE_SECONDS, help="run length per workload"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: per-layer metrics from an untraced plus a traced run",
    )
    parser.add_argument("--out", help="append each result record to FILE as one JSON line")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if argv is None and disable_aslr():
        # Start again so this process -- the serve-wal client -- runs with
        # the fixed layout too, like every process it starts.
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    scale = SMOKE_SCALE if args.smoke else args.seconds / REFERENCE_SECONDS
    status = 0
    for workload in [args.workload] if args.workload else metrics.WORKLOADS:
        try:
            record = run_workload(workload, args.seed, scale, bool(args.trace), args.out)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        for name, metric in record["metrics"].items():
            print(f"{name} {metric['value']!r} {metric['unit']}")
        print(f"# {workload} digest {record['digest']}")
        if record["absent"]:
            print(f"# {workload} absent layers: {' '.join(record['absent'])}")
        print(
            json.dumps(
                {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
            ),
            flush=True,
        )
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
