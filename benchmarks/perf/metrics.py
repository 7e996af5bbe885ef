"""The benchmark's metric catalogue and the arithmetic that fills it.

End-to-end metrics come from an untraced run; every workload reports all
of them, each defined on that workload's unit of work (see README.md).
Per-layer metrics come from a ``--trace 1`` run, which makes one untraced
and one traced pass: counts and latency distributions are read from the
untraced pass, layer self times from the traced pass's spans.  A layer a
workload never calls reports 0.
"""

from __future__ import annotations

import math
import statistics

from loadgen import quantile
from tracer import summarize, unattributed_frac

WORKLOADS = ("replay-long", "serve-wal", "sweep-exact", "adversary-search")
REPLAY_PASS_LABELS = (
    "first-fit",
    "classify-duration",
    "classify-departure",
    "vector-first-fit-d3",
)
#: Open-loop ladder of ``serve-wal``, lines per second.
LADDER = (500, 1000, 2000, 4000)
#: The ladder step whose ack p50 is the serving ``op_latency_ms``.
LATENCY_RATE = 1000

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("throughput_per_s", "1/s", "higher"),
    ("op_latency_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows: list[tuple[str, str, str]] = []
    for p in REPLAY_PASS_LABELS:
        rows += [
            (f"replay_items_per_s.{p}", "1/s", "higher"),
            (f"workloads.load_trace.s.{p}", "s", "lower"),
            (f"core.arrival_batch.s.{p}", "s", "lower"),
            (f"core.validate.s.{p}", "s", "lower"),
            (f"engine.submit_many.s.{p}", "s", "lower"),
            (f"engine.result.s.{p}", "s", "lower"),
            (f"algorithms.place_many.s.{p}", "s", "lower"),
            (f"engine.bins_opened_per_open.{p}", "ratio", "lower"),
            (f"engine.us_per_item_growth.{p}", "ratio", "lower"),
        ]
    rows += [
        ("engine.snapshot.s", "s", "lower"),
        ("algorithms.place_many.s", "s", "lower"),
        ("algorithms.pack.s", "s", "lower"),
        ("adversary.opt_total.s", "s", "lower"),
        ("adversary.oracle.s", "s", "lower"),
        ("optimal.bb.s", "s", "lower"),
        ("optimal.bb_nodes", "count", "lower"),
        ("adversary.slices", "count", "lower"),
        ("adversary.memo_hit_ratio", "ratio", "higher"),
        ("adversary.slices_reused_frac", "ratio", "higher"),
        ("analysis.cell_s.p50", "s", "lower"),
        ("analysis.cell_s.p99", "s", "lower"),
        ("analysis.pool_overhead_s", "s", "lower"),
        ("analysis.telemetry_merge.s", "s", "lower"),
        ("sweep.exact_frac", "ratio", "higher"),
        ("search.mutations", "count", "higher"),
        ("search.budget_rejections", "count", "lower"),
        ("resilience.journal_append.s", "s", "lower"),
        ("resilience.journal_append.calls", "count", "lower"),
        ("serving.offer_line.us_mean", "us", "lower"),
        ("serving.flush.s", "s", "lower"),
        ("serving.flush.calls", "count", "lower"),
        ("serving.batch_items_mean", "count", "higher"),
        ("serving.manager_submit_many.s", "s", "lower"),
        ("serving.drain_s", "s", "lower"),
    ]
    for r in LADDER:
        rows += [
            (f"serve.ack_p50_ms.r{r}", "ms", "lower"),
            (f"serve.ack_p99_ms.r{r}", "ms", "lower"),
            (f"serve.busy_frac.r{r}", "ratio", "lower"),
            (f"loadgen.lag_ms_max.r{r}", "ms", "lower"),
        ]
    rows += [
        ("serve.snapshot_p50_ms.r1000", "ms", "lower"),
        ("serve.max_rate_at_slo", "1/s", "higher"),
        ("serving.wal.append.s", "s", "lower"),
        ("serving.wal.checkpoint.calls", "count", "lower"),
        ("serving.wal.checkpoint.s", "s", "lower"),
        ("serving.wal.checkpoint.ms_max", "ms", "lower"),
        ("serving.wal.sync.s", "s", "lower"),
        ("serving.wal.fsyncs", "count", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(rows)


#: ``(name, unit, better)`` of every per-layer metric.
PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


# -- end to end -----------------------------------------------------------------


def _by_round(records: list[dict]) -> list[list[dict]]:
    rounds: dict[int, list[dict]] = {}
    for record in records:
        rounds.setdefault(record["round"], []).append(record)
    return [rounds[r] for r in sorted(rounds)]


def _wall(records: list[dict]) -> float:
    return sum(r["end"] - r["start"] for r in records)


def _rate(records: list[dict], work: str) -> float:
    return sum(r[work] for r in records) / _wall(records)


def end_to_end(workload: str, raw: dict, setup_s: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run (medians over its rounds)."""
    if workload == "replay-long":
        rounds = _by_round(raw["passes"])
        throughput = _median([_rate(r, "items") for r in rounds])
        latency = _median([_geomean([_median(p["batch_s"]) for p in r]) for r in rounds]) * 1e3
    elif workload == "serve-wal":
        throughput = _median([b["acked"] / b["wall_s"] for b in raw["bursts"]])
        step = next(s for s in raw["steps"] if s["rate"] == LATENCY_RATE)
        latency = quantile(step["ack_ms"], 0.5)
    elif workload == "sweep-exact":
        throughput = _median([_rate([r], "cells") for r in raw["rounds"]])
        latency = _median(raw["cell_s"]) * 1e3
    elif workload == "adversary-search":
        calls = raw["calls"]
        throughput = _median([_rate(r, "evaluations") for r in _by_round(calls)])
        latency = _median([(c["end"] - c["start"]) / c["evaluations"] for c in calls]) * 1e3
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "throughput_per_s": throughput,
        "op_latency_ms": latency,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": _median(setup_s),
    }


# -- per layer ------------------------------------------------------------------


def _solver_metrics(solver: dict) -> dict[str, float]:
    lookups = solver.get("memo_hits", 0) + solver.get("memo_misses", 0)
    slices = solver.get("slices", 0)
    return {
        "optimal.bb_nodes": solver.get("nodes", 0),
        "adversary.slices": slices,
        "adversary.memo_hit_ratio": solver.get("memo_hits", 0) / lookups if lookups else 0.0,
        "adversary.slices_reused_frac": solver.get("slices_reused", 0) / slices if slices else 0.0,
    }


def _replay_layers(raw_u: dict, raw_t: dict, span_files: list) -> tuple[dict, list[str]]:
    """Per-pass values are medians over the run's rounds."""
    windows = {str(i): [(p["start"], p["end"])] for i, p in enumerate(raw_t["passes"])}
    spans = summarize(span_files, windows)
    out: dict[str, float] = {}
    per_pass: dict[str, dict[str, list[float]]] = {}
    for i, pass_u in enumerate(raw_u["passes"]):
        values = per_pass.setdefault(pass_u["label"], {})
        layers = spans.windowed[str(i)]
        for name, layer in (
            ("workloads.load_trace.s", "workloads.load_trace"),
            ("core.arrival_batch.s", "core.arrival_batch"),
            ("core.validate.s", "core.validate"),
            ("engine.submit_many.s", "engine.submit_many"),
            ("engine.result.s", "engine.result"),
            ("algorithms.place_many.s", "algorithms.place_many"),
        ):
            values.setdefault(name, []).append(layers.get(layer, 0.0))
        values.setdefault("replay_items_per_s", []).append(_rate([pass_u], "items"))
        values.setdefault("engine.bins_opened_per_open", []).append(
            pass_u["bins_opened"] / max(1, pass_u["peak_open_bins"])
        )
        per_item = [s / n for s, n in zip(pass_u["batch_s"], pass_u["batch_n"])]
        tenth = max(1, len(per_item) // 10)
        values.setdefault("engine.us_per_item_growth", []).append(
            sum(per_item[-tenth:]) / sum(per_item[:tenth])
        )
    for label, values in per_pass.items():
        for name, samples in values.items():
            out[f"{name}.{label}"] = _median(samples)
    out["algorithms.place_many.s"] = spans.self_s.get("algorithms.place_many", 0.0)
    attributed = sum(sum(layers.values()) for layers in spans.windowed.values())
    out["trace.unattributed_frac"] = unattributed_frac(attributed, _wall(raw_t["passes"]))
    out["trace.overhead_frac"] = _wall(raw_t["passes"]) / _wall(raw_u["passes"]) - 1.0
    return out, spans.absent


def _serve_layers(raw_u: dict, raw_t: dict, span_files: list) -> tuple[dict, list[str]]:
    loaded = raw_t["steps"] + raw_t["bursts"]
    spans = summarize(
        span_files,
        {"loaded": [(s["start"], s["end"]) for s in loaded]},
        ("serving.offer_line", "serving.flush", "serving.manager_submit_many",
         "serving.wal.checkpoint"),
    )
    out: dict[str, float] = {}
    for step in raw_u["steps"]:
        r = int(step["rate"])
        out[f"serve.ack_p50_ms.r{r}"] = quantile(step["ack_ms"], 0.5)
        out[f"serve.ack_p99_ms.r{r}"] = quantile(step["ack_ms"], 0.99)
        out[f"serve.busy_frac.r{r}"] = step["cpu_s"] / step["wall_s"]
        out[f"loadgen.lag_ms_max.r{r}"] = step["lag_ms_max"]
        if r == LATENCY_RATE:
            out["serve.snapshot_p50_ms.r1000"] = quantile(step["snapshot_ms"], 0.5)
    passing = [s["rate"] for s in raw_u["steps"] if s["meets_slo"]]
    out["serve.max_rate_at_slo"] = max(passing) if passing else 0.0
    scrape = raw_u["scrape"]
    count = scrape.get("repro_serving_batch_items_count", 0.0)
    out["serving.batch_items_mean"] = (
        scrape.get("repro_serving_batch_items_sum", 0.0) / count if count else 0.0
    )
    out["serving.wal.fsyncs"] = scrape.get("repro_serving_wal_fsyncs_total", 0.0)
    out["serving.drain_s"] = raw_u["drain"]["duration_seconds"]

    layers, durations = spans.self_s, spans.durations
    offers = durations["serving.offer_line"]
    out["serving.offer_line.us_mean"] = 1e6 * sum(offers) / len(offers) if offers else 0.0
    out["serving.flush.s"] = layers.get("serving.flush", 0.0)
    out["serving.flush.calls"] = len(durations["serving.flush"])
    # Inclusive: the engine's submit_many runs inside the manager's.
    out["serving.manager_submit_many.s"] = sum(durations["serving.manager_submit_many"])
    out["engine.snapshot.s"] = layers.get("engine.snapshot", 0.0)
    out["algorithms.place_many.s"] = layers.get("algorithms.place_many", 0.0)
    out["serving.wal.append.s"] = layers.get("serving.wal.append", 0.0)
    out["serving.wal.sync.s"] = layers.get("serving.wal.sync", 0.0)
    checkpoints = durations["serving.wal.checkpoint"]
    out["serving.wal.checkpoint.calls"] = len(checkpoints)
    out["serving.wal.checkpoint.s"] = layers.get("serving.wal.checkpoint", 0.0)
    out["serving.wal.checkpoint.ms_max"] = 1e3 * max(checkpoints) if checkpoints else 0.0

    cpu_t = sum(s["cpu_s"] for s in loaded)
    cpu_u = sum(s["cpu_s"] for s in raw_u["steps"] + raw_u["bursts"])
    attributed = sum(spans.windowed["loaded"].values())
    out["trace.unattributed_frac"] = unattributed_frac(attributed, cpu_t)
    out["trace.overhead_frac"] = cpu_t / cpu_u - 1.0 if cpu_u else 0.0
    return out, spans.absent


def _sweep_layers(raw_u: dict, raw_t: dict, span_files: list) -> tuple[dict, list[str]]:
    spans = summarize(span_files, durations_of=("resilience.journal_append",))
    layers = spans.self_s
    out = _solver_metrics(raw_u["solver"])
    wall_u, wall_t = _wall(raw_u["rounds"]), _wall(raw_t["rounds"])
    cells = raw_u["cell_s"]
    out["analysis.cell_s.p50"] = quantile(cells, 0.5)
    out["analysis.cell_s.p99"] = quantile(cells, 0.99)
    out["analysis.pool_overhead_s"] = wall_u - sum(cells) / raw_u["workers"]
    out["analysis.telemetry_merge.s"] = layers.get("analysis.telemetry_merge", 0.0)
    out["sweep.exact_frac"] = raw_u["exact"] / raw_u["ok"] if raw_u["ok"] else 0.0
    out["algorithms.pack.s"] = layers.get("algorithms.pack", 0.0)
    out["adversary.opt_total.s"] = layers.get("adversary.opt_total", 0.0)
    out["optimal.bb.s"] = layers.get("optimal.bb", 0.0)
    out["resilience.journal_append.s"] = layers.get("resilience.journal_append", 0.0)
    out["resilience.journal_append.calls"] = len(spans.durations["resilience.journal_append"])
    # run_sweep's own self time is waiting on the pool, not work.
    attributed = sum(v for k, v in layers.items() if k != "analysis.run_sweep")
    out["trace.unattributed_frac"] = unattributed_frac(attributed, wall_t * raw_t["workers"])
    out["trace.overhead_frac"] = wall_t / wall_u - 1.0
    return out, spans.absent


def _search_layers(raw_u: dict, raw_t: dict, span_files: list) -> tuple[dict, list[str]]:
    spans = summarize(span_files, {"calls": [(c["start"], c["end"]) for c in raw_t["calls"]]})
    layers = spans.windowed["calls"]
    out = _solver_metrics(raw_u["solver"])
    out["algorithms.pack.s"] = layers.get("algorithms.pack", 0.0)
    out["adversary.oracle.s"] = layers.get("adversary.oracle", 0.0)
    out["optimal.bb.s"] = layers.get("optimal.bb", 0.0)
    out["search.mutations"] = sum(c["mutations"] for c in raw_u["calls"])
    out["search.budget_rejections"] = sum(c["budget_rejections"] for c in raw_u["calls"])
    wall_t = _wall(raw_t["calls"])
    out["trace.unattributed_frac"] = unattributed_frac(sum(layers.values()), wall_t)
    out["trace.overhead_frac"] = wall_t / _wall(raw_u["calls"]) - 1.0
    return out, spans.absent


_LAYER_FUNCS = {
    "replay-long": _replay_layers,
    "serve-wal": _serve_layers,
    "sweep-exact": _sweep_layers,
    "adversary-search": _search_layers,
}


def per_layer(
    workload: str, raw_u: dict, raw_t: dict, span_files: list
) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of one ``--trace 1`` run (0 where not exercised),
    and the layers whose wrap target was absent."""
    values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    measured, absent = _LAYER_FUNCS[workload](raw_u, raw_t, span_files)
    values.update(measured)
    return values, absent
