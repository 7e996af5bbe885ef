"""ABL-DIMS — multi-resource extension (paper §6 future work).

Measures vector First Fit vs vector classify-by-duration on 2-dimensional
(CPU, memory) workloads: a benign random load and a vector retention trap.
Ratios are against the per-dimension demand/span lower bound (no exact
vector adversary is implemented — the bound direction is conservative).

Expected shape: mirrors the scalar story — classification wins decisively
on the retention pattern, costs a small premium on benign loads.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import render_table
from repro.algorithms import VectorClassifyByDuration, VectorFirstFit
from repro.bounds import vector_demand_lower_bound
from repro.core import Interval, Item


def random_vector_items(n: int, seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        left = float(rng.uniform(0, 40))
        length = float(rng.uniform(1, 10))
        sizes = tuple(rng.uniform(0.05, 0.45, 2))
        items.append(Item(i, sizes, Interval(left, left + length)))
    return items


def vector_retention(mu: float, phases: int) -> list[Item]:
    items = []
    nid = 0
    gap = 1.0 / (2 * phases)
    for j in range(phases):
        t = j * gap
        items.append(Item(nid, (0.02, 0.02), Interval(t, t + mu)))
        nid += 1
        items.append(Item(nid, (0.98, 0.98), Interval(t, t + 1.0)))
        nid += 1
    return items


def run_experiment():
    workloads = {
        "random 2D (n=100)": random_vector_items(100, seed=9),
        "vector retention (mu=30)": vector_retention(30.0, 20),
    }
    rows = []
    for wname, items in workloads.items():
        lb = vector_demand_lower_bound(items)
        row: dict[str, object] = {"workload": wname, "lower bound": lb}
        for packer in (VectorFirstFit(), VectorClassifyByDuration(alpha=2.0)):
            packing = packer.pack(items)
            packing.validate()
            row[packer.describe()] = packing.total_usage() / lb
        rows.append(row)
    return rows


def test_ablation_multidim(benchmark, report):
    rows = run_experiment()
    items = random_vector_items(100, seed=9)
    benchmark(lambda: VectorFirstFit().pack(items))
    report(
        render_table(
            rows,
            title="[ABL-DIMS] 2-resource DBP: usage / lower bound per policy",
        )
    )
    by_workload = {r["workload"]: r for r in rows}
    adv = by_workload["vector retention (mu=30)"]
    assert (
        adv["vector-classify-duration(alpha=2)"]
        < 0.5 * adv["vector-first-fit"]  # type: ignore[operator]
    )
    benign = by_workload["random 2D (n=100)"]
    assert benign["vector-first-fit"] < 3.0  # type: ignore[operator]
