"""COLUMNAR — batched engine submission and zero-copy trace loading.

Engineering bench for the PR-7 columnar hot paths (not a paper exhibit).
Three paired measurements, each asserting bit-identical results between the
columnar path and its per-item reference in the same run:

* **engine batching** — ``PackingSession.submit_many`` over the
  ``vector-first-fit`` packer vs the per-item ``submit`` loop on a 1M-item trace
  (acceptance floor: >=5x; ``--quick`` smoke floor on a small trace: >=2x),
  with placements, deterministic ``EngineStats`` fields and the final
  snapshot asserted equal;
* **trace loading** — ``load_jsonl_columnar`` vs the per-line ``load_jsonl``
  on a ~100MB NDJSON dump (floor: >=3x full, >=1.5x quick), with the loaded
  item lists asserted identical field by field;
* **sweep-line** — ``opt_total(..., slice_engine="columnar")`` vs
  ``"object"`` vs the reference ``opt_total_scan``, totals and
  ``SolverStats`` counters asserted equal (timing informational: the solver,
  not the sweep, dominates this path).

Run as a script (``python benchmarks/bench_columnar.py [--quick]``) or
through pytest (``pytest benchmarks/bench_columnar.py``).
"""

from __future__ import annotations

import argparse
import gc
import time

from repro.algorithms import opt_total, opt_total_scan
from repro.algorithms.adversary import MemoCache
from repro.algorithms.optimal import SolverStats
from repro.analysis import render_table
from repro.core import ArrivalBatch, ItemList
from repro.engine import PackingSession
from repro.workloads import dump_jsonl, load_jsonl, load_jsonl_columnar, uniform_random

FULL_ENGINE_N = 1_000_000
QUICK_ENGINE_N = 20_000
FULL_LOADER_N = 1_400_000  # ~100MB of NDJSON
QUICK_LOADER_N = 20_000
BATCH = 8192


def make_trace(n: int) -> ItemList:
    """A reproducible open-ended trace with bounded concurrency."""
    return uniform_random(n, seed=42, arrival_span=n / 4.0)


def scalar_run(items: ItemList) -> tuple[PackingSession, float]:
    """Drive every item through per-item ``submit``."""
    session = PackingSession("vector-first-fit")
    t0 = time.perf_counter()
    for item in items:
        session.submit(item)
    return session, time.perf_counter() - t0


def batched_run(items: ItemList, batch_size: int = BATCH) -> tuple[PackingSession, float]:
    """Drive the same items through ``submit_many`` in fixed-size batches.

    The batch path starts from column arrays — what the columnar trace
    loader hands a streaming consumer — so no ``Item`` objects are
    rematerialised on the way in (``from_arrays`` re-validates each slice).
    """
    whole = ArrivalBatch.from_items(list(items))
    ids, arr, dep, sizes = whole.ids, whole.arrivals, whole.departures, whole.sizes
    session = PackingSession("vector-first-fit")
    t0 = time.perf_counter()
    for i in range(0, len(ids), batch_size):
        j = i + batch_size
        session.submit_many(
            ArrivalBatch.from_arrays(ids[i:j], arr[i:j], dep[i:j], sizes[i:j])
        )
    return session, time.perf_counter() - t0


def assert_engine_parity(scalar: PackingSession, batched: PackingSession) -> None:
    """Placements, deterministic stats and snapshots must be identical."""
    a, b = scalar.result(), batched.result()
    assert a.assignment == b.assignment, "submit_many assignment diverges from submit"
    assert a.total_usage() == b.total_usage(), "submit_many usage diverges"
    def deterministic(session: PackingSession) -> dict[str, object]:
        # Timers measure wall clock; every counter and gauge must match.
        return {
            k: v
            for k, v in session.stats.as_dict().items()
            if not k.endswith("_seconds")
        }

    sa, sb = deterministic(scalar), deterministic(batched)
    assert sa == sb, f"EngineStats diverge: {sa} != {sb}"
    assert scalar.snapshot() == batched.snapshot(), "engine snapshots diverge"


def engine_experiment(n: int) -> dict[str, object]:
    """Time batched vs scalar submission on one trace, parity asserted."""
    items = make_trace(n)
    scalar, scalar_seconds = scalar_run(items)
    batched, batched_seconds = batched_run(items)
    assert_engine_parity(scalar, batched)
    speedup = scalar_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    return {
        "bench": "engine submit_many",
        "items": n,
        "object (s)": scalar_seconds,
        "columnar (s)": batched_seconds,
        "speedup": speedup,
    }


def assert_items_equal(a: ItemList, b: ItemList) -> None:
    """Field-by-field equality of two loaded traces (tags included)."""
    assert len(a) == len(b) and a.dims == b.dims
    for x, y in zip(a, b):
        assert (
            x.id == y.id
            and x.sizes == y.sizes
            and x.arrival == y.arrival
            and x.departure == y.departure
            and x.tags == y.tags
        ), f"loader mismatch at item {x.id}"


def loader_experiment(n: int) -> dict[str, object]:
    """Time columnar vs object JSONL loading of the same dump.

    Each loader runs against a collected heap: generational GC scans scale
    with the *other* loader's live result, so without the ``gc.collect``
    between runs whichever loader goes second pays an unrelated penalty.
    """
    text = dump_jsonl(make_trace(n))
    data = text.encode("utf-8")
    gc.collect()
    t0 = time.perf_counter()
    object_items = load_jsonl(text)
    object_seconds = time.perf_counter() - t0
    # Promote the first result to the oldest generation so the second run's
    # young-generation collections do not rescan it.
    gc.collect()
    t0 = time.perf_counter()
    columnar_items = load_jsonl_columnar(data)
    columnar_seconds = time.perf_counter() - t0
    assert_items_equal(object_items, columnar_items)
    speedup = object_seconds / columnar_seconds if columnar_seconds > 0 else float("inf")
    return {
        "bench": "jsonl loader",
        "items": n,
        "MB": len(data) / 1e6,
        "object (s)": object_seconds,
        "columnar (s)": columnar_seconds,
        "speedup": speedup,
    }


def sweep_experiment() -> dict[str, object]:
    """Columnar vs object sweep-line under ``opt_total``, counters asserted.

    A light instance keeps the branch-and-bound work inside its node budget;
    the point here is parity (totals and every ``SolverStats`` counter), not
    throughput — slice construction is a small share of ``opt_total`` time.
    """
    items = uniform_random(120, seed=5, arrival_span=400.0)
    results: dict[str, float] = {}
    stats_dicts: dict[str, dict[str, object]] = {}
    timings: dict[str, float] = {}
    for engine in ("object", "columnar"):
        stats = SolverStats()
        t0 = time.perf_counter()
        results[engine] = opt_total(
            items, memo=MemoCache(), stats=stats, slice_engine=engine
        )
        timings[engine] = time.perf_counter() - t0
        stats_dicts[engine] = stats.as_dict()
    assert results["object"] == results["columnar"], "opt_total diverges across engines"
    assert stats_dicts["object"] == stats_dicts["columnar"], (
        f"SolverStats diverge: {stats_dicts['object']} != {stats_dicts['columnar']}"
    )
    reference = opt_total_scan(items)
    assert abs(results["columnar"] - reference) < 1e-9, (
        f"opt_total {results['columnar']} != opt_total_scan {reference}"
    )
    return {
        "bench": "opt_total sweep",
        "items": len(items),
        "object (s)": timings["object"],
        "columnar (s)": timings["columnar"],
        "opt_total": results["columnar"],
    }


def test_columnar(benchmark, report):
    """Pytest entry: all three parities + quick-size engine speedup."""
    engine_row = engine_experiment(QUICK_ENGINE_N)
    assert engine_row["speedup"] >= 2.0  # small-n floor; the 1M run shows >=5x
    loader_row = loader_experiment(QUICK_LOADER_N)
    assert loader_row["speedup"] >= 1.5
    sweep_row = sweep_experiment()
    items = make_trace(5000)
    rows = list(items)

    def one_batch():
        session = PackingSession("vector-first-fit")
        session.submit_many(ArrivalBatch.from_items(rows))
        return session.result()

    benchmark(one_batch)
    report(
        render_table(
            [engine_row, loader_row, sweep_row],
            title="[COLUMNAR] batched engine + zero-copy loader + sweep parity",
            precision=4,
        )
    )


def main() -> int:
    """Script entry: the full (or --quick) paired runs with their gates."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small run for CI smoke ({QUICK_ENGINE_N} items instead of "
        f"{FULL_ENGINE_N})",
    )
    args = parser.parse_args()
    if args.quick:
        engine_row = engine_experiment(QUICK_ENGINE_N)
        loader_row = loader_experiment(QUICK_LOADER_N)
        engine_floor, loader_floor = 2.0, 1.5
    else:
        engine_row = engine_experiment(FULL_ENGINE_N)
        loader_row = loader_experiment(FULL_LOADER_N)
        engine_floor, loader_floor = 5.0, 3.0
    sweep_row = sweep_experiment()
    print(
        render_table(
            [engine_row, loader_row, sweep_row],
            title="columnar vs object (parity asserted in-run)",
            precision=4,
        )
    )
    failed = False
    for row, floor in ((engine_row, engine_floor), (loader_row, loader_floor)):
        speedup = float(row["speedup"])  # type: ignore[arg-type]
        if speedup < floor:
            print(f"FAIL: {row['bench']} speedup {speedup:.2f}x below the {floor}x floor")
            failed = True
        else:
            print(f"OK: {row['bench']} {speedup:.1f}x >= {floor}x")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
