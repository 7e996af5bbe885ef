"""repro — Clairvoyant MinUsageTime Dynamic Bin Packing.

A production-quality reproduction of Ren & Tang, *"Clairvoyant Dynamic Bin
Packing for Job Scheduling with Minimum Server Usage Time"*, SPAA 2016.

Quickstart::

    from repro import uniform_random, get_packer, opt_total

    items = uniform_random(100, seed=7)
    result = get_packer("classify-duration", alpha=2.0).pack(items)
    result.validate()
    print(result.total_usage(), opt_total(items))

Subpackages:

* :mod:`repro.core` — items, bins, intervals, step functions, packings;
* :mod:`repro.algorithms` — the paper's algorithms and all baselines;
* :mod:`repro.bounds` — OPT lower bounds, ratio formulas, adversaries;
* :mod:`repro.workloads` — synthetic workload generators and traces;
* :mod:`repro.engine` — the streaming packing engine (persistent sessions);
* :mod:`repro.simulation` — event-driven execution and billing;
* :mod:`repro.cloud` — the job/server scheduling application layer;
* :mod:`repro.analysis` — ratio sweeps, tables and the noise study;
* :mod:`repro.resilience` — retry, deadlines, fault policies, checkpoints;
* :mod:`repro.extensions` — the flexible-job extension.
"""

from .algorithms import (
    BestFitPacker,
    ClassifyByDepartureFirstFit,
    ClassifyByDurationFirstFit,
    CombinedClassifyFirstFit,
    DualColoringPacker,
    DurationDescendingFirstFit,
    FirstFitPacker,
    HybridFirstFitPacker,
    NextFitPacker,
    OfflinePacker,
    OnlinePacker,
    Packer,
    PackerInfo,
    ParamInfo,
    AdversaryOracle,
    MemoCache,
    SolverStats,
    available_packers,
    bin_packing_min_bins,
    get_packer,
    opt_total,
    opt_total_incremental,
    optimal_packing,
    packer_info,
)
from .bounds import (
    GOLDEN_RATIO,
    OptBounds,
    best_lower_bound,
    theorem3_instance,
)
from .core import (
    Bin,
    Interval,
    Item,
    ItemList,
    PackingResult,
    StepFunction,
)
from .engine import EngineSnapshot, EngineStats, PackingSession
from .resilience import CheckpointJournal, Deadline, FaultPolicy, RetryPolicy
from .simulation import SimulationResult, Simulator
from .workloads import (
    bounded_mu,
    bursty,
    gaming_sessions,
    poisson_exponential,
    recurring_jobs,
    uniform_random,
)

__version__ = "1.0.0"

__all__ = [
    "BestFitPacker",
    "ClassifyByDepartureFirstFit",
    "ClassifyByDurationFirstFit",
    "CombinedClassifyFirstFit",
    "DualColoringPacker",
    "DurationDescendingFirstFit",
    "FirstFitPacker",
    "HybridFirstFitPacker",
    "NextFitPacker",
    "OfflinePacker",
    "OnlinePacker",
    "Packer",
    "PackerInfo",
    "ParamInfo",
    "AdversaryOracle",
    "MemoCache",
    "SolverStats",
    "available_packers",
    "bin_packing_min_bins",
    "get_packer",
    "opt_total",
    "opt_total_incremental",
    "optimal_packing",
    "packer_info",
    "GOLDEN_RATIO",
    "OptBounds",
    "best_lower_bound",
    "theorem3_instance",
    "Bin",
    "Interval",
    "Item",
    "ItemList",
    "PackingResult",
    "StepFunction",
    "EngineSnapshot",
    "EngineStats",
    "PackingSession",
    "CheckpointJournal",
    "Deadline",
    "FaultPolicy",
    "RetryPolicy",
    "SimulationResult",
    "Simulator",
    "bounded_mu",
    "bursty",
    "gaming_sessions",
    "poisson_exponential",
    "recurring_jobs",
    "uniform_random",
    "__version__",
]
