"""Compare two sets of benchmark runs: parent commit vs change.

Usage::

    python3 benchmarks/perf/compare.py --parent P1.ndjson [P2 ...] --change C1.ndjson [C2 ...]

The files hold the records ``run.py --out FILE`` appends.  Runs of the two
sides are paired by workload and seed (same inputs), and this rule is
applied to every end-to-end metric of every workload:

* at least :data:`MIN_PAIRS` pairs, run alternately (checked from the
  records' start times and reported);
* **gain** -- the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* **regression** -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* **unresolved** -- either side's spread (IQR / median) is wider than the
  bound, unless every change run beats every parent run;
* otherwise **no change**.

Per-layer records (``--trace 1``) are listed as medians with their change,
without a verdict.  Every pair must have identical output digests, and the
change may not fail a larger share of operations.  The exit status is 1
when a pair's outputs differ, more operations fail, a metric regressed or a
workload has too few pairs; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare_metric(
    parent: list[float], change: list[float], *, better: str, bound: float
) -> dict:
    """Verdict on one metric from paired samples (``parent[i]`` pairs ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    improvement = sign * (c_med - p_med) / p_med
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not dominates:
        verdict = "unresolved"
    elif improvement < -bound:
        verdict = "regression"
    elif wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        verdict = "gain"
    else:
        verdict = "no change"
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "improvement": improvement,
        "wins": wins,
        "pairs": len(parent),
        "parent_spread": spread(parent),
        "change_spread": spread(change),
        "verdict": verdict,
    }


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def _alternated(pairs: list[tuple[dict, dict]]) -> bool:
    """True when the side that ran first alternates from pair to pair."""
    order = [p.get("started", 0.0) < c.get("started", 0.0) for p, c in sorted(
        pairs, key=lambda pc: min(pc[0].get("started", 0.0), pc[1].get("started", 0.0))
    )]
    return all(a != b for a, b in zip(order, order[1:]))


def compare(parent: list[dict], change: list[dict], benchmark: dict) -> tuple[list[str], bool]:
    """Report lines and whether the change is acceptable."""
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    lines: list[str] = []
    ok = True
    for trace in (0, 1):
        keyed_p = {(r["workload"], r["seed"]): r for r in parent if r["trace"] == trace}
        keyed_c = {(r["workload"], r["seed"]): r for r in change if r["trace"] == trace}
        for workload in sorted({w for w, _ in keyed_p} | {w for w, _ in keyed_c}):
            pairs = [
                (keyed_p[key], keyed_c[key])
                for key in sorted(set(keyed_p) & set(keyed_c))
                if key[0] == workload
            ]
            lines.append(f"== {workload} ({'per-layer' if trace else 'end-to-end'}): "
                         f"{len(pairs)} pairs, alternated={_alternated(pairs)}")
            if trace == 0 and len(pairs) < MIN_PAIRS:
                lines.append(f"   too few pairs: need at least {MIN_PAIRS}")
                ok = False
            if not pairs:
                continue
            differ = [p["seed"] for p, c in pairs if p["digest"] != c["digest"]]
            if differ:
                lines.append(f"   outputs differ for seeds {differ}")
                ok = False
            failed_p = sum(p["failed"] for p, _ in pairs) / sum(p["attempted"] for p, _ in pairs)
            failed_c = sum(c["failed"] for _, c in pairs) / sum(c["attempted"] for _, c in pairs)
            if failed_c > failed_p:
                lines.append(f"   failed share rose: {failed_p:.4g} -> {failed_c:.4g}")
                ok = False
            for name in pairs[0][0]["metrics"]:
                p_vals = [p["metrics"][name]["value"] for p, _ in pairs]
                c_vals = [c["metrics"][name]["value"] for _, c in pairs]
                if trace == 1:
                    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
                    rel = (c_med - p_med) / p_med if p_med else 0.0
                    lines.append(f"   {name:44s} {p_med:14.6g} -> {c_med:14.6g}  {rel:+.1%}")
                    continue
                if len(pairs) < 2:
                    continue
                result = compare_metric(
                    p_vals, c_vals, better=specs[name]["better"], bound=specs[name]["bound"]
                )
                if result["verdict"] == "regression":
                    ok = False
                lines.append(
                    f"   {name:18s} {result['parent_median']:12.6g} -> "
                    f"{result['change_median']:12.6g}  {result['improvement']:+.1%} better  "
                    f"wins {result['wins']}/{result['pairs']}  spread "
                    f"{result['parent_spread']:.1%}/{result['change_spread']:.1%}  "
                    f"{result['verdict']}"
                )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent-commit result files")
    parser.add_argument("--change", nargs="+", required=True, help="change result files")
    parser.add_argument("--benchmark", default=str(BENCHMARK), help="BENCHMARK.json with bounds")
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    lines, ok = compare(load(args.parent), load(args.change), benchmark)
    print("\n".join(lines))
    print("ACCEPTABLE" if ok else "NOT ACCEPTABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
