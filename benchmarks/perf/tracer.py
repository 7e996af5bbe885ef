"""Span recording for traced (``--trace 1``) benchmark runs.

Spans are recorded from *outside* the program: :func:`install` replaces a
fixed set of public ``repro`` entry points (:data:`LAYERS`) with wrappers
that time each call.  Nothing inside ``src/`` knows about tracing, so a
later change can remove private helpers without breaking the benchmark; a
wrap target that no longer exists is reported as *absent* instead of
failing the run.

Each span is ``[id, layer, start, end, parent, trace, thread]``, kept in
memory and written as NDJSON when the process ends, with its *self* time:
its duration minus the durations of its children (``parent`` is the span
open on the same thread when this one started, ``-1`` for none).
``trace`` groups the spans of one request: a batch index, a sweep cell, an
adversary evaluation or a serving item id.

Worker processes forked by a sweep inherit the wrappers.  The fork hook
empties the inherited spans and registers a ``multiprocessing`` finalizer,
so every worker writes its own ``spans-<pid>.ndjson`` as it exits.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from multiprocessing import util as mp_util
from typing import Callable, Iterable

#: Layer name -> (module, target).  A target is a module-level function or
#: ``Class.method`` (a classmethod too); a method target wraps the method on
#: that class and on every subclass that overrides it.
LAYERS: dict[str, tuple[str, str]] = {
    "workloads.load_trace": ("repro.workloads.traces", "load_trace"),
    "core.arrival_batch": ("repro.core.batch", "ArrivalBatch.from_items"),
    "core.validate": ("repro.core.packing", "PackingResult.validate"),
    "engine.submit_many": ("repro.engine.session", "PackingSession.submit_many"),
    "engine.result": ("repro.engine.session", "PackingSession.result"),
    "engine.snapshot": ("repro.engine.session", "PackingSession.snapshot"),
    "algorithms.place_many": ("repro.algorithms.base", "OnlinePacker.place_many"),
    "algorithms.pack": ("repro.algorithms.base", "Packer.pack"),
    "analysis.run_sweep": ("repro.analysis.parallel", "run_sweep"),
    "analysis.cell": ("repro.analysis.ratios", "measured_ratio"),
    "analysis.telemetry_merge": ("repro.obs.registry", "TelemetryRegistry.merge"),
    "bounds.resolve_denominator": ("repro.bounds.opt_bounds", "resolve_denominator"),
    "bounds.search": ("repro.bounds.search", "find_bad_instance"),
    "adversary.opt_total": ("repro.algorithms.adversary", "opt_total"),
    "adversary.oracle": ("repro.algorithms.adversary", "AdversaryOracle.opt_total"),
    "optimal.bb": ("repro.algorithms.optimal", "bin_packing_min_bins"),
    "resilience.journal_append": ("repro.resilience.checkpoint", "CheckpointJournal.append"),
    "serving.parse_request": ("repro.serving.protocol", "parse_request"),
    "serving.reply": ("repro.serving.protocol", "reply"),
    "serving.offer_line": ("repro.serving.runtime", "ServingRuntime.offer_line"),
    "serving.flush": ("repro.serving.runtime", "ServingRuntime.flush"),
    "serving.manager_submit_many": ("repro.serving.manager", "SessionManager.submit_many"),
    "serving.wal.append": ("repro.serving.wal", "TenantWal.append_arrival"),
    "serving.wal.checkpoint": ("repro.serving.wal", "TenantWal.checkpoint"),
    "serving.wal.sync": ("repro.serving.wal", "TenantWal.sync"),
}

#: Layers whose outermost calls start a new trace id (one batch, cell,
#: adversary evaluation or flush).  Other spans inherit their parent's id,
#: or else the thread's latest one -- so an adversary evaluation's oracle
#: call joins the trace its ``pack`` call started.
NEW_TRACE = {"core.arrival_batch", "analysis.cell", "algorithms.pack", "serving.flush"}


def _item_trace(args: tuple, result: object) -> object:
    """An admitted arrival's item id (``offer_line`` returns an Admission)."""
    item = getattr(result, "item", None)
    return None if item is None else f"item/{item.id}"


#: Layers that name their trace after the call, from its arguments/result.
TRACE_OF: dict[str, Callable[[tuple, object], object]] = {
    "serving.offer_line": _item_trace,
}


class Tracer:
    """Collects spans in memory; :meth:`write` saves them as NDJSON.

    Args:
        out_dir: Directory that receives ``spans-<pid>.ndjson`` files.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._traces = itertools.count()
        self._local = threading.local()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts with an empty record and saves it on exit.
        self.spans = []
        self._local = threading.local()
        mp_util.Finalize(self, self.write, exitpriority=10)

    def wrap(self, func: Callable, layer: str) -> Callable:
        """``func`` recording one span per call under ``layer``."""
        tracer = self
        new_trace = layer in NEW_TRACE
        trace_of = TRACE_OF.get(layer)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if new_trace and not any(s[1] in NEW_TRACE for s in stack):
                trace = local.trace = f"{layer}/{next(tracer._traces)}"
            elif parent is not None and (parent[5] is not None or parent[1] in TRACE_OF):
                trace = parent[5]  # None until a TRACE_OF parent finishes
            else:
                trace = getattr(local, "trace", None)
            span = [next(tracer._ids), layer, 0.0, 0.0, -1 if parent is None else parent[0],
                    trace, threading.get_ident()]
            stack.append(span)
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                tracer.spans.append(span)
            if trace_of is not None:
                span[5] = trace_of(args, result)
            return result

        return traced

    def write(self) -> str:
        """Save this process's spans to ``spans-<pid>.ndjson``; returns the path.

        Each record carries its ``self`` time, and a span whose trace was
        still open when it started (a ``TRACE_OF`` parent names its trace
        only on return) takes its parent's final trace id.
        """
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.ndjson")
        spans = sorted(self.spans)  # by id: parents before their children
        covered: dict[int, float] = defaultdict(float)
        for _sid, _layer, start, end, parent, _trace, _thread in spans:
            if parent >= 0:
                covered[parent] += end - start
        traces: dict[int, object] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for name in self.absent:
                fh.write(json.dumps({"absent": name}) + "\n")
            for sid, layer, start, end, parent, trace, thread in spans:
                if trace is None and parent >= 0:
                    trace = traces.get(parent)
                children = covered.pop(sid, None)
                if children is not None:
                    traces[sid] = trace
                record = {
                    "id": sid,
                    "name": layer,
                    "start": start,
                    "end": end,
                    "self": end - start - (children or 0.0),
                    "parent": parent,
                    "trace": trace,
                    "pid": pid,
                    "thread": thread,
                }
                fh.write(json.dumps(record) + "\n")
        return path


def _rebind(original: object, replacement: object) -> None:
    """Point every ``repro`` module binding of ``original`` at ``replacement``.

    Covers ``from x import f`` copies and module-level registries such as
    ``repro.analysis.parallel.WORKLOAD_GENERATORS``.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def _wrap_method(tracer: Tracer, base: type, attr: str, layer: str) -> bool:
    classes = [base]
    seen: set[type] = set()
    wrapped = False
    while classes:
        cls = classes.pop()
        if cls in seen:
            continue
        seen.add(cls)
        classes.extend(cls.__subclasses__())
        raw = cls.__dict__.get(attr)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, layer)))
        elif callable(raw):
            setattr(cls, attr, tracer.wrap(raw, layer))
        else:
            continue
        wrapped = True
    return wrapped


def install(tracer: Tracer, layers: Iterable[str] = LAYERS) -> None:
    """Wrap each named layer's target; missing targets go to ``tracer.absent``."""
    for layer in layers:
        module_name, target = LAYERS[layer]
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(layer)
            continue
        owner, _, attr = target.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            if not isinstance(cls, type) or not _wrap_method(tracer, cls, attr, layer):
                tracer.absent.append(layer)
            continue
        func = getattr(module, attr, None)
        if not callable(func):
            tracer.absent.append(layer)
            continue
        _rebind(func, tracer.wrap(func, layer))


# -- analysis ------------------------------------------------------------------


@dataclass
class SpanSummary:
    """Span files reduced to what the metrics need.

    Attributes:
        self_s: Total self time per layer.
        windowed: Per window set, total self time per layer over the spans
            that start inside one of its windows.
        durations: Inclusive durations of the layers asked for.
        absent: Layers whose wrap target did not exist.
    """

    self_s: dict[str, float]
    windowed: dict[str, dict[str, float]]
    durations: dict[str, list[float]]
    absent: list[str]


def summarize(
    paths: Iterable[str],
    windows: dict[str, list[tuple[float, float]]] | None = None,
    durations_of: Iterable[str] = (),
) -> SpanSummary:
    """Stream span files into a :class:`SpanSummary`.

    A window set's windows must not overlap.  Streaming keeps memory flat:
    a traced sweep writes close to a million spans.
    """
    bounds = {key: sorted(ws) for key, ws in (windows or {}).items()}
    summary = SpanSummary(
        self_s=defaultdict(float),
        windowed={key: defaultdict(float) for key in bounds},
        durations={layer: [] for layer in durations_of},
        absent=[],
    )
    absent: set[str] = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if "absent" in record:
                    absent.add(record["absent"])
                    continue
                name, start, own = record["name"], record["start"], record["self"]
                summary.self_s[name] += own
                for key, ws in bounds.items():
                    k = bisect.bisect_right(ws, (start, math.inf)) - 1
                    if k >= 0 and start < ws[k][1]:
                        summary.windowed[key][name] += own
                if name in summary.durations:
                    summary.durations[name].append(record["end"] - start)
    summary.absent = sorted(absent)
    return summary


def unattributed_frac(attributed_s: float, capacity_s: float) -> float:
    """Share of ``capacity_s`` that no layer's self time accounts for."""
    if capacity_s <= 0:
        return 0.0
    return 1.0 - attributed_s / capacity_s
