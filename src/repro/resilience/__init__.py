"""repro.resilience — partial failure as the common case, not the exception.

The execution layers of this repository were originally fail-fast: one
crashed sweep worker lost the whole sweep, an intractable adversary slice ran
until its node budget with no wall-clock bound, and one malformed trace
record aborted a serve.  This package holds the machinery that turns those
hard failures into bounded, observable degradation:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (seeded, so reruns back off identically);
* :class:`Deadline` — a wall-clock budget threaded through
  :func:`~repro.algorithms.bin_packing_min_bins` and
  :func:`~repro.algorithms.opt_total`; expiry raises
  :class:`~repro.core.DeadlineExceeded` and the denominator policy degrades
  to the certified Proposition 1–3 bounds (``exact=False`` plus a
  ``degraded_reason``) instead of running unbounded;
* :class:`FaultPolicy` — ``strict | skip | clamp`` handling of malformed,
  out-of-order, duplicate or capacity-violating trace events, with an
  error budget that trips back to strict when exhausted;
* :class:`CheckpointJournal` — a journal of completed sweep cells so an
  interrupted :func:`~repro.analysis.run_sweep` resumes instead of
  recomputing;
* :class:`ChaosInjector` — a seeded fault-injection harness (worker
  crashes, solver stalls, record corruption) that drives the chaos test
  suite and lets any sweep be rehearsed under failure;
* :class:`LeaseBoard` / :class:`Lease` — file-based, generation-numbered
  work leases with expiry, stealing and exactly-once done markers: the
  coordination primitive behind the sharded sweeps of
  :mod:`repro.analysis.distributed` (see ``docs/DISTRIBUTED.md``);
* :mod:`~repro.resilience.log` — the one durable log under the serving WAL
  and every :class:`CheckpointJournal`: CRC-framed segment files
  (:class:`SegmentLog` / :func:`read_log`) that heal a torn tail and report
  mid-file corruption (:class:`CorruptLogError`), plus atomic framed blobs.

Every retry, timeout, degradation, drop and clamp increments a
``resilience.*`` telemetry cell in the run's
:class:`~repro.obs.TelemetryRegistry`, exported through the existing NDJSON
/ Prometheus paths.  See ``docs/RESILIENCE.md``.
"""

from .chaos import ChaosInjector, InjectedFault, corrupt_jsonl
from .checkpoint import CheckpointJournal, task_key
from .deadline import Deadline
from .faults import FAULT_MODES, FaultPolicy
from .lease import Lease, LeaseBoard
from .log import (
    CorruptLogError,
    SegmentLog,
    frame_line,
    parse_frame,
    read_framed_blob,
    read_log,
    write_framed_blob,
)
from .retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "Deadline",
    "FaultPolicy",
    "FAULT_MODES",
    "CheckpointJournal",
    "task_key",
    "ChaosInjector",
    "InjectedFault",
    "corrupt_jsonl",
    "Lease",
    "LeaseBoard",
    "SegmentLog",
    "CorruptLogError",
    "read_log",
    "frame_line",
    "parse_frame",
    "read_framed_blob",
    "write_framed_blob",
]
