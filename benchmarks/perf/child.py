"""One benchmark workload in a fresh interpreter.

Started by ``run.py`` as ``python child.py SPEC_JSON`` with ``src`` first on
``PYTHONPATH``.  The child imports the program, prints ``ready`` (the end of
set-up) and waits for one line on stdin: ``quit`` ends a set-up-only launch,
``go`` runs the workload.  Inputs are generated from the spec's seed after
``go``, outside every timed region; the measurements, output checks and
digest are written as JSON to ``spec["out"]``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import repro
import repro.analysis
import repro.bounds
import repro.workloads
from repro.bounds.opt_bounds import vector_ceil_lower_bound
from repro.core.batch import ArrivalBatch
from repro.core.exceptions import ReproError
from repro.obs import TelemetryRegistry

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, install  # noqa: E402

#: Rows per ``submit_many`` call in the replay passes.
BATCH_ROWS = 4096
#: ``(pass label, packer, packer kwargs, trace file)`` of ``replay-long``.
REPLAY_PASSES = (
    ("first-fit", "first-fit", {}, "d1"),
    ("classify-duration", "classify-duration", {"alpha": 2.0}, "d1"),
    ("classify-departure", "classify-departure", {"rho": 4.0}, "d1"),
    ("vector-first-fit-d3", "vector-first-fit", {}, "d3"),
)
#: The d=1 packers of the ratio experiments (Thms 1, 4 and 5).
RATIO_PACKERS = (
    ("first-fit", {}),
    ("classify-duration", {"alpha": 2.0}),
    ("classify-departure", {"rho": 4.0}),
)
SWEEP_MUS = (2.0, 5.0, 10.0)
#: Instance size and arrival window of each sweep cell.  At the generator's
#: default window (50) the mu=10 cells have a heavy branch-and-bound tail
#: (p90 0.66 s, ~7% exhaust the node budget), so a run's cost depended on
#: which seeds it drew; at 100 the exact adversary still decides every cell.
SWEEP_ITEMS = 150
SWEEP_SPAN = 100.0
RELATIVE_TOL = 1e-9
#: Each workload repeats its measurement this many times per run and
#: reports the median, so a few seconds of interference from other tenants
#: of the host move one round, not the result.
ROUNDS = 3


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child (sweep workers), MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _metric(snapshot, name: str) -> float | None:
    """A value from an exported telemetry snapshot (timer seconds or counter)."""
    for metric in snapshot.as_dict()["metrics"]:
        if metric["name"] == name:
            return metric.get("seconds", metric.get("value"))
    return None


def _replay_pass(label: str, packer: str, kwargs: dict, path: Path, round_: int) -> dict:
    """One pass: load -> ArrivalBatch -> submit_many -> result().validate()."""
    gc.collect()
    batch_s: list[float] = []
    batch_n: list[int] = []
    placements = []
    valid = True
    started = time.perf_counter()
    items = repro.workloads.load_trace(path, loader="columnar")
    rows = list(items)
    session = repro.PackingSession(packer, **kwargs)
    for lo in range(0, len(rows), BATCH_ROWS):
        t0 = time.perf_counter()
        batch = ArrivalBatch.from_items(rows[lo : lo + BATCH_ROWS])
        placements.append(session.submit_many(batch))
        batch_s.append(time.perf_counter() - t0)
        batch_n.append(len(batch))
    result = session.result()
    try:
        result.validate()
    except ReproError:
        valid = False
    ended = time.perf_counter()
    bound = repro.best_lower_bound(items) if items.dims == 1 else vector_ceil_lower_bound(items)
    return {
        "label": label,
        "round": round_,
        "items": len(rows),
        "start": started,
        "end": ended,
        "batch_s": batch_s,
        "batch_n": batch_n,
        "bins_opened": session.stats.bins_opened,
        "peak_open_bins": session.stats.peak_open_bins,
        "ok": valid and result.total_usage() >= bound * (1 - RELATIVE_TOL),
        "placements": hashlib.sha256(
            np.concatenate(placements).astype(np.int64).tobytes()
        ).hexdigest(),
    }


def replay_long(spec: dict, run_dir: Path) -> dict:
    """``ROUNDS`` rounds of the four passes, each round on its own traces."""
    scale = spec["scale"]
    n1 = max(600, round(20_480 * scale))
    n3 = max(1_200, round(40_960 * scale))
    passes = []
    digest = hashlib.sha256()
    for round_ in range(ROUNDS):
        seed = spec["seed"] * 100 + round_
        paths = {"d1": run_dir / f"d1-{round_}.jsonl", "d3": run_dir / f"d3-{round_}.jsonl"}
        repro.workloads.save_trace(
            repro.uniform_random(n1, seed=seed, arrival_span=n1 / 4), paths["d1"]
        )
        repro.workloads.save_trace(
            repro.workloads.vector_uniform(n3, dims=3, seed=seed, arrival_span=n3 / 4),
            paths["d3"],
        )
        for label, packer, kwargs, trace in REPLAY_PASSES:
            record = _replay_pass(label, packer, kwargs, paths[trace], round_)
            digest.update(f"{round_}|{label}|{record['placements']}\n".encode())
            passes.append(record)
    bad = [p for p in passes if not p["ok"]]
    return {
        "passes": passes,
        "correct": not bad,
        "attempted": sum(p["items"] for p in passes),
        "failed": sum(p["items"] for p in bad),
        "digest": digest.hexdigest(),
    }


def sweep_exact(spec: dict, run_dir: Path) -> dict:
    seeds = max(2, round(200 * spec["scale"]))
    workers = len(os.sched_getaffinity(0))
    rounds = []
    digest = hashlib.sha256()
    denominators: dict[tuple, set] = {}
    solver = repro.SolverStats()
    cell_s: list[float] = []
    failed = exact = ok = 0
    for round_ in range(ROUNDS):
        tasks = [
            repro.analysis.SweepTask(
                packer=packer,
                packer_kwargs=kwargs,
                workload="bounded-mu",
                workload_kwargs={
                    "n": SWEEP_ITEMS,
                    "mu": mu,
                    "arrival_span": SWEEP_SPAN,
                    "seed": spec["seed"] * 100_000 + round_ * 10_000 + s,
                },
                label=f"round={round_} mu={mu:g} seed={s} {packer}",
            )
            for mu in SWEEP_MUS
            for s in range(seeds)
            for packer, kwargs in RATIO_PACKERS
        ]
        started = time.perf_counter()
        outcomes = repro.analysis.run_sweep(
            tasks,
            executor="process",
            max_workers=workers,
            checkpoint=str(run_dir / f"sweep-journal-{round_}.ndjson"),
            registry=TelemetryRegistry(),
        )
        ended = time.perf_counter()
        rounds.append({"start": started, "end": ended, "cells": len(tasks)})
        for task, outcome in zip(tasks, outcomes):
            digest.update(f"{task.label}|{outcome.usage!r}|{outcome.denominator!r}\n".encode())
            if not outcome.ok or (outcome.exact and outcome.ratio < 1 - RELATIVE_TOL):
                failed += 1
                continue
            ok += 1
            exact += outcome.exact
            solver.merge(outcome.solver)
            instance = (task.workload_kwargs["mu"], task.workload_kwargs["seed"])
            denominators.setdefault(instance, set()).add(outcome.denominator)
            seconds = _metric(outcome.telemetry, "span:sweep.cell")
            if seconds is not None:
                cell_s.append(seconds)
    # Every packer must see the same adversary denominator for one instance.
    mismatched = sum(1 for values in denominators.values() if len(values) > 1)
    return {
        "rounds": rounds,
        "workers": workers,
        "cell_s": cell_s,
        "exact": exact,
        "ok": ok,
        "solver": solver.as_dict(),
        "correct": failed == 0 and mismatched == 0,
        "attempted": sum(r["cells"] for r in rounds),
        "failed": failed,
        "digest": digest.hexdigest(),
    }


def adversary_search(spec: dict, run_dir: Path) -> dict:
    iterations = max(10, round(530 * spec["scale"]))
    calls = []
    digest = hashlib.sha256()
    solver = repro.SolverStats()
    for round_ in range(ROUNDS):
        for index, (packer, kwargs) in enumerate(RATIO_PACKERS):
            registry = TelemetryRegistry()
            gc.collect()
            started = time.perf_counter()
            result = repro.bounds.find_bad_instance(
                functools.partial(repro.get_packer, packer, **kwargs),
                n_items=40,
                span=20.0,
                iterations=iterations,
                restarts=3,
                seed=spec["seed"] * 100 + round_ * 10 + index,
                registry=registry,
            )
            ended = time.perf_counter()
            mutations = int(registry.counter("search.mutations").value)
            solver.merge(result.solver_stats)
            digest.update(
                json.dumps(
                    {
                        "packer": packer,
                        "ratio": repr(result.ratio),
                        "items": result.items.to_records(),
                    },
                    sort_keys=True,
                ).encode()
            )
            calls.append(
                {
                    "packer": packer,
                    "round": round_,
                    "start": started,
                    "end": ended,
                    "evaluations": int(registry.counter("search.restarts").value) + mutations,
                    "mutations": mutations,
                    "budget_rejections": int(registry.counter("search.budget_rejections").value),
                    "ratio": result.ratio,
                }
            )
    bad = [c for c in calls if not c["ratio"] >= 1 - RELATIVE_TOL]
    return {
        "calls": calls,
        "solver": solver.as_dict(),
        "correct": not bad,
        "attempted": sum(c["evaluations"] for c in calls),
        "failed": sum(c["budget_rejections"] for c in calls)
        + sum(c["evaluations"] for c in bad),
        "digest": digest.hexdigest(),
    }


WORKLOADS = {
    "replay-long": replay_long,
    "sweep-exact": sweep_exact,
    "adversary-search": adversary_search,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if not Path(repro.__file__).resolve().is_relative_to(HERE.parents[1] / "src"):
        print(f"error: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    run_dir = Path(spec["dir"])
    tracer = None
    if spec["trace"]:
        tracer = Tracer(str(run_dir))
        install(tracer)
    raw = WORKLOADS[spec["workload"]](spec, run_dir)
    if tracer is not None:
        tracer.write()
    raw["peak_rss_mb"] = _peak_rss_mb()
    Path(spec["out"]).write_text(json.dumps(raw), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
