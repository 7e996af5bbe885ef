"""Packing algorithms: the paper's contribution plus all baselines.

Offline (Clairvoyant MinUsageTime DBP, §4):

* :class:`DurationDescendingFirstFit` — 5-approximation (Theorem 1).
* :class:`DualColoringPacker` — 4-approximation (Theorem 2).

Online clairvoyant (§5):

* :class:`ClassifyByDepartureFirstFit` — ratio ρ/Δ + μΔ/ρ + 3 (Theorem 4).
* :class:`ClassifyByDurationFirstFit` — ratio α + ⌈log_α μ⌉ + 4 (Theorem 5).
* :class:`CombinedClassifyFirstFit` — the §5.4 future-work combination.

Non-clairvoyant baselines:

* :class:`FirstFitPacker` (μ+4 [24]), :class:`BestFitPacker` (unbounded),
  :class:`NextFitPacker` (2μ+1 [13]), :class:`WorstFitPacker`,
  :class:`LastFitPacker`, :class:`RandomFitPacker`,
  :class:`HybridFirstFitPacker` (Li et al. [17]).

Vector (``d``-dimensional, paper §6):

* :class:`VectorFirstFit`, :class:`VectorClassifyByDuration`,
  :class:`VectorClassifyByDeparture` — registered as ``vector-first-fit``,
  ``vector-classify-duration``, ``vector-classify-departure`` with
  any-dimensionality capability (``dims=None``); at ``d=1`` they are their
  scalar counterparts.

Every first-fit packer above — ``first-fit``, the ``classify-*`` strategies,
``hybrid-first-fit`` and the ``vector-*`` names — is a configuration of one
dimension-generic core, :class:`ClassifiedFirstFit`, with one list-based
placement loop.

Exact solvers: :func:`bin_packing_min_bins`, :func:`opt_total` (the repacking
adversary: sweep line + memoization + warm starts, see
:mod:`repro.algorithms.adversary`), :class:`AdversaryOracle` /
:func:`opt_total_incremental` (mutation-window re-evaluation),
:func:`optimal_packing` (tiny-instance true optimum).
"""

from .anyfit import (
    AnyFitPacker,
    BestFitPacker,
    FirstFitPacker,
    LastFitPacker,
    NextFitPacker,
    RandomFitPacker,
    WorstFitPacker,
)
from .base import (
    OfflinePacker,
    OnlinePacker,
    Packer,
    PackerInfo,
    ParamInfo,
    available_packers,
    get_packer,
    packer_info,
    register_packer,
)
from .classified import ClassifiedFirstFit
from .classify_departure import ClassifyByDepartureFirstFit
from .classify_duration import ClassifyByDurationFirstFit, duration_category
from .combined import CombinedClassifyFirstFit
from .dual_coloring import DemandChart, DualColoringPacker, Placement
from .duration_descending import DurationDescendingFirstFit
from .hybrid_first_fit import HybridFirstFitPacker
from .postopt import DualColoringMergedPacker, merge_bins
from .usage_aware import UsageAwareFitPacker
from .optimal import (
    SolverStats,
    bin_packing_min_bins,
    brute_force_min_usage,
    opt_total_scan,
    optimal_packing,
)
from .adversary import (
    AdversaryOracle,
    MemoCache,
    default_memo,
    opt_total,
    opt_total_incremental,
)
from .vector import (
    VectorClassifyByDeparture,
    VectorClassifyByDuration,
    VectorFirstFit,
)

__all__ = [
    "AnyFitPacker",
    "BestFitPacker",
    "FirstFitPacker",
    "LastFitPacker",
    "NextFitPacker",
    "RandomFitPacker",
    "WorstFitPacker",
    "OfflinePacker",
    "OnlinePacker",
    "Packer",
    "PackerInfo",
    "ParamInfo",
    "available_packers",
    "get_packer",
    "packer_info",
    "register_packer",
    "ClassifiedFirstFit",
    "ClassifyByDepartureFirstFit",
    "ClassifyByDurationFirstFit",
    "duration_category",
    "CombinedClassifyFirstFit",
    "DemandChart",
    "DualColoringPacker",
    "Placement",
    "DurationDescendingFirstFit",
    "HybridFirstFitPacker",
    "UsageAwareFitPacker",
    "DualColoringMergedPacker",
    "merge_bins",
    "SolverStats",
    "bin_packing_min_bins",
    "brute_force_min_usage",
    "opt_total",
    "opt_total_scan",
    "optimal_packing",
    "AdversaryOracle",
    "MemoCache",
    "default_memo",
    "opt_total_incremental",
    "VectorClassifyByDeparture",
    "VectorClassifyByDuration",
    "VectorFirstFit",
]
