"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-algorithms`` — every registered packer with its dimensionality
  capability and declared parameters;
* ``generate`` — synthesise a workload and write it to a trace file
  (``--kind vector --dims D`` for multi-resource traces);
* ``pack`` — pack a trace with one algorithm, report metrics, optionally
  draw the Gantt chart;
* ``compare`` — run several algorithms on one trace side by side;
* ``bounds`` — print the Proposition 1–3 lower bounds (and the exact
  repacking adversary for small traces);
* ``serve`` — two modes over the same serving runtime
  (:mod:`repro.serving`): ``--trace FILE`` replays a recorded trace through
  the packing engine event by event with live snapshots and engine
  counters (``--pace`` schedules events against a drift-free monotonic
  deadline); ``--listen tcp:HOST:PORT | http:HOST:PORT | stdin`` serves
  live multi-tenant traffic with bounded per-tenant queues
  (``--queue-limit``), explicit backpressure replies, ``submit_many``
  micro-batching (``--batch-size`` / ``--batch-deadline``), a
  ``--max-tenants`` session cap, and graceful drain on SIGTERM/SIGINT that
  flushes every queue and reports per-tenant final snapshots;
* ``sweep`` — run one algorithm over a seed grid of generated workloads in
  parallel (``run_sweep``), reporting per-seed ratios against the exact
  adversary plus the merged :class:`~repro.analysis.SolverStats` counters;
  ``--workload trace --trace FILE`` sweeps over a recorded trace instead,
  with ``--loader`` selecting the object or columnar decode path in each
  worker; ``--shards N`` switches to the sharded work-stealing runner
  (``run_sharded_sweep``) with per-shard journals and memo caches under a
  ``--coordinator`` directory (see ``docs/DISTRIBUTED.md``);
* ``sweep-worker`` — attach one shard worker to an existing (or imminent)
  sweep ``--coordinator`` directory and drain it; run any number of these
  as independent processes/hosts sharing only that directory;
* ``fig8`` — print the paper's Figure 8 as a table and ASCII chart.

Every command is pure stdlib-argparse on top of the public API, so the CLI
doubles as executable documentation of the library.  Algorithm names and
parameters (``--algorithm``, ``--rho``, ``--alpha``, ``--num-classes``) all
flow through the validated :func:`~repro.algorithms.get_packer` path: an
unknown algorithm or a bad parameter exits with status 2 and a message
listing what is accepted.  Trace-consuming commands forward the loaded
trace's dimensionality through the same validation, so pointing a
scalar-only algorithm at a multi-resource trace fails up front with the
packer's supported dims listed.

Observability: ``pack``, ``compare``, ``bounds``, ``report``, ``replay``,
``serve`` and ``sweep`` accept ``--json`` (machine-readable report on
stdout — the tables' data plus a ``telemetry`` block), ``--obs FILE``
(write the run's full :class:`~repro.obs.TelemetryRegistry` as NDJSON, one
metric per line) and ``--flame FILE`` (write the run's span tree as a
collapsed-stack flamegraph profile).  All three flags are also accepted
globally, before the subcommand name.  ``serve --metrics-port PORT``
additionally exposes the live registry as a Prometheus ``/metrics``
endpoint on localhost while the trace replays (``--pace`` slows the replay
down to scrape it mid-run).

Resilience: ``serve --fault-policy {strict,skip,clamp}`` (with an optional
``--error-budget N``) hardens the serve path against malformed trace
records and inconsistent events; ``sweep`` gains ``--retries N``
(per-cell retry with backoff), ``--checkpoint DIR`` (a CRC-framed segment
log journal — rerunning with the same directory resumes completed cells) and
``--deadline SECONDS`` (wall-clock budget of each instance's adversary
solve with graceful degradation to certified bounds).  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from .algorithms import available_packers, get_packer, opt_total, packer_info
from .analysis import render_series, render_table
from .bounds import (
    OptBounds,
    classify_departure_ratio_known,
    classify_duration_ratio_known,
    first_fit_ratio,
)
from .core import ItemList, ReproError
from .obs import TelemetryRegistry, export_dict, export_flamegraph, write_ndjson
from .resilience import FAULT_MODES, FaultPolicy, RetryPolicy
from .simulation import evaluate
from .viz import render_chart, render_gantt, render_profile
from .workloads import (
    TRACE_LOADERS,
    bounded_mu,
    bursty,
    gaming_sessions,
    load_trace,
    poisson_exponential,
    random_templates,
    recurring_jobs,
    save_trace,
    uniform_random,
    vector_uniform,
)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "uniform":
        items = uniform_random(args.n, seed=args.seed)
    elif kind == "poisson":
        items = poisson_exponential(args.n, seed=args.seed)
    elif kind == "bounded-mu":
        items = bounded_mu(args.n, seed=args.seed, mu=args.mu)
    elif kind == "bursty":
        per_burst = max(args.n // 5, 1)
        items = bursty(5, per_burst, seed=args.seed)
    elif kind == "gaming":
        items = gaming_sessions(args.n, seed=args.seed)
    elif kind == "analytics":
        templates = random_templates(max(args.n // 20, 1), seed=args.seed)
        items = recurring_jobs(templates, horizon=float(args.n), seed=args.seed)
    elif kind == "vector":
        items = vector_uniform(
            args.n, dims=args.dims, seed=args.seed, correlation=args.correlation
        )
    else:  # pragma: no cover - argparse choices guard this
        raise ReproError(f"unknown workload kind {kind}")
    save_trace(items, args.out)
    dims_note = f", dims={items.dims}" if items.dims > 1 else ""
    print(
        f"wrote {len(items)} items to {args.out} "
        f"(span={items.span():.2f}, mu={items.mu():.2f}{dims_note})"
    )
    return 0


# ---------------------------------------------------------------------------
# list-algorithms
# ---------------------------------------------------------------------------


def _cmd_list_algorithms(args: argparse.Namespace) -> int:
    registry = TelemetryRegistry()
    infos = available_packers()
    rows = [
        {
            "algorithm": name,
            "dims": info.describe_dims(),
            "params": ", ".join(p.describe() for p in info.params) or "-",
            "summary": info.summary,
        }
        for name, info in infos.items()
    ]
    payload = {
        "command": "list-algorithms",
        "algorithms": [
            {
                "name": name,
                "dims": list(info.dims) if info.dims is not None else None,
                "params": [
                    {
                        "name": p.name,
                        "required": p.required,
                        "default": p.default,
                    }
                    for p in info.params
                ],
                "summary": info.summary,
            }
            for name, info in infos.items()
        ],
    }
    return _finish(
        args, registry, payload, render_table(rows, title="registered algorithms")
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _finish(
    args: argparse.Namespace,
    registry: TelemetryRegistry,
    payload: dict[str, object],
    text: str,
) -> int:
    """Emit one command's report and telemetry.

    With ``--json`` the payload (plus a ``telemetry`` block) is printed as a
    single JSON document instead of the human-readable ``text``; with
    ``--obs FILE`` the registry is additionally written to ``FILE`` as
    NDJSON, and with ``--flame FILE`` its span tree is written as a
    collapsed-stack flamegraph profile.  Returns the command's exit code
    (always 0).
    """
    if getattr(args, "obs", ""):
        write_ndjson(registry, args.obs)
    if getattr(args, "flame", ""):
        export_flamegraph(registry, args.flame)
    if getattr(args, "json", False):
        payload = dict(payload)
        payload["telemetry"] = export_dict(registry)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# pack / compare helpers
# ---------------------------------------------------------------------------


def _packer_params(name: str, args: argparse.Namespace) -> dict[str, object]:
    """Validated constructor kwargs for ``name`` from the CLI flags.

    The candidate flags (``--rho``, ``--alpha``, ``--num-classes``) are
    filtered against the packer's declared parameters, so each algorithm
    receives exactly the flags it understands; unknown algorithm names
    surface as :class:`~repro.core.ReproError` (exit status 2).
    """
    candidates: dict[str, object] = {"rho": args.rho, "alpha": args.alpha}
    if args.num_classes:
        candidates["num_classes"] = args.num_classes
    try:
        accepted = set(packer_info(name).param_names())
    except (KeyError, ValueError) as exc:
        raise ReproError(str(exc.args[0] if exc.args else exc)) from exc
    return {k: v for k, v in candidates.items() if k in accepted}


def _make_packer(name: str, args: argparse.Namespace, *, dims: int | None = None):
    """Build a packer from CLI flags through the validated registry path.

    ``dims`` (the loaded trace's dimensionality) is forwarded to
    :func:`~repro.algorithms.get_packer`, which rejects packers that cannot
    place items of that dimensionality — so e.g. ``pack --algorithm
    first-fit`` on a 3-resource trace fails up front, with the packer's
    supported dims listed, instead of mid-pack.

    Invalid parameter values surface as :class:`~repro.core.ReproError`
    (exit status 2), same as unknown names in :func:`_packer_params`.
    """
    kwargs = _packer_params(name, args)
    if dims is not None:
        kwargs["dims"] = dims
    try:
        return get_packer(name, **kwargs)
    except (KeyError, ValueError) as exc:
        raise ReproError(str(exc.args[0] if exc.args else exc)) from exc


def _load(args: argparse.Namespace, policy: "FaultPolicy | None" = None) -> ItemList:
    return load_trace(
        args.trace, policy=policy, loader=getattr(args, "loader", "object")
    )


def _require_scalar_for_exact_opt(items: ItemList) -> None:
    """``--exact-opt`` solves the repacking adversary, which is scalar-only."""
    if items.dims > 1:
        raise ReproError(
            f"--exact-opt is scalar-only (trace is {items.dims}-dimensional); "
            "the exact repacking adversary does not support vector instances — "
            "use the `bounds` command's Proposition 1-3 lower bounds instead"
        )


def _cmd_pack(args: argparse.Namespace) -> int:
    registry = TelemetryRegistry()
    items = _load(args)
    packer = _make_packer(args.algorithm, args, dims=items.dims)
    if args.exact_opt:
        _require_scalar_for_exact_opt(items)
    with registry.span("cli.pack"):
        if args.noise_sigma > 0:
            from .analysis import noisy_estimator
            from .algorithms.base import OnlinePacker
            from .simulation import Simulator

            if not isinstance(packer, OnlinePacker):
                print(
                    "error: --noise-sigma requires an online algorithm", file=sys.stderr
                )
                return 2
            result = Simulator(packer).run(
                items, noisy_estimator(args.noise_sigma, args.noise_seed)
            ).packing
        else:
            result = packer.pack(items)
        result.validate()
        opt = opt_total(items) if args.exact_opt else None
        metrics = evaluate(result, opt=opt, registry=registry)
    text_parts = [render_table([metrics.as_dict()], title=f"pack: {packer.describe()}")]
    if args.gantt:
        text_parts.append("")
        text_parts.append(render_gantt(result, width=args.width))
    if args.profile:
        text_parts.append("")
        text_parts.append("demand profile S(t):")
        text_parts.append(render_profile(items.size_profile(), width=args.width))
    payload = {
        "command": "pack",
        "trace": args.trace,
        "algorithm": packer.describe(),
        "metrics": metrics.as_dict(),
    }
    return _finish(args, registry, payload, "\n".join(text_parts))


def _cmd_compare(args: argparse.Namespace) -> int:
    registry = TelemetryRegistry()
    items = _load(args)
    if args.algorithms:
        names = args.algorithms.split(",")
    else:
        # Default to every packer that can place this trace's dimensionality.
        names = [
            name
            for name, info in available_packers().items()
            if info.supports_dims(items.dims)
        ]
    if args.exact_opt:
        _require_scalar_for_exact_opt(items)
    opt = opt_total(items) if args.exact_opt else None
    rows = []
    with registry.span("cli.compare"):
        for name in names:
            packer = _make_packer(name.strip(), args, dims=items.dims)
            metrics = evaluate(packer.pack(items), opt=opt, registry=registry)
            rows.append(metrics.as_dict())
    rows.sort(key=lambda r: r["total_usage"])  # type: ignore[arg-type,return-value]
    payload = {"command": "compare", "trace": args.trace, "rows": rows}
    return _finish(
        args,
        registry,
        payload,
        render_table(rows, title=f"compare on {args.trace} (best first)"),
    )


def _cmd_bounds(args: argparse.Namespace) -> int:
    registry = TelemetryRegistry()
    items = _load(args)
    if args.exact_opt:
        _require_scalar_for_exact_opt(items)
    with registry.span("cli.bounds"):
        bounds = OptBounds.of(items)
        rows = [
            {"bound": "Prop 1: d(R) total demand", "value": bounds.demand},
            {"bound": "Prop 2: span(R)", "value": bounds.span},
            {"bound": "Prop 3: integral ceil(S(t))", "value": bounds.ceil_size},
        ]
        if args.exact_opt:
            rows.append(
                {"bound": "exact OPT_total (repacking adversary)", "value": opt_total(items)}
            )
        for row in rows:
            registry.gauge("bounds.value", bound=row["bound"]).set(row["value"])
    payload = {"command": "bounds", "trace": args.trace, "rows": rows}
    return _finish(
        args, registry, payload, render_table(rows, title=f"lower bounds for {args.trace}")
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import render_report, report_data
    from .analysis.report import DEFAULT_ALGORITHMS

    registry = TelemetryRegistry()
    items = _load(args)
    names = (
        [n.strip() for n in args.algorithms.split(",")]
        if args.algorithms
        else list(DEFAULT_ALGORITHMS)
    )
    kwargs = {
        "classify-departure": {"rho": args.rho},
        "classify-duration": {"alpha": args.alpha},
        "classify-combined": {"alpha": args.alpha},
    }
    with registry.span("cli.report"):
        data = report_data(
            items,
            algorithms=names,
            title=f"report: {args.trace}",
            packer_kwargs=kwargs,
            registry=registry,
        )
        text = render_report(data, width=args.width, include_gantt=not args.no_gantt)
    payload = {"command": "report", "trace": args.trace, **data.payload}
    return _finish(args, registry, payload, text)


def _cmd_replay(args: argparse.Namespace) -> int:
    from .algorithms.base import OnlinePacker
    from .simulation import first_divergence, record_decisions

    registry = TelemetryRegistry()
    items = _load(args)
    packer = _make_packer(args.algorithm, args, dims=items.dims)
    if not isinstance(packer, OnlinePacker):
        print("error: replay requires an online algorithm", file=sys.stderr)
        return 2
    if args.versus:
        other = _make_packer(args.versus, args, dims=items.dims)
        if not isinstance(other, OnlinePacker):
            print("error: --versus requires an online algorithm", file=sys.stderr)
            return 2
        with registry.span("cli.replay"):
            div = first_divergence(packer, other, items, registry=registry)
        payload: dict[str, object] = {
            "command": "replay",
            "trace": args.trace,
            "algorithm": packer.describe(),
            "versus": other.describe(),
        }
        if div is None:
            payload["divergence"] = None
            text = (
                f"{packer.describe()} and {other.describe()} induce identical "
                f"groupings on {args.trace}"
            )
            return _finish(args, registry, payload, text)
        da, db = div
        payload["divergence"] = {"a": da.as_dict(), "b": db.as_dict()}
        text = "\n".join(
            [
                f"first divergence at item {da.item_id} (t={da.time:g}):",
                f"  {packer.describe():30s} -> bin {da.chosen_bin} "
                f"(open={list(da.open_bins)}, levels={[round(l, 3) for l in da.levels]})",
                f"  {other.describe():30s} -> bin {db.chosen_bin} "
                f"(open={list(db.open_bins)}, levels={[round(l, 3) for l in db.levels]})",
            ]
        )
        return _finish(args, registry, payload, text)
    with registry.span("cli.replay"):
        log = record_decisions(packer, items, registry=registry)
    rows = [
        {
            "item": d.item_id,
            "t": d.time,
            "open bins": len(d.open_bins),
            "feasible": len(d.feasible_bins),
            "chosen": d.chosen_bin,
            "new bin": d.opened_new,
        }
        for d in log.decisions[: args.limit]
    ]
    text = "\n".join(
        [
            render_table(rows, title=f"replay: {log.algorithm} on {args.trace}"),
            f"\n{len(log.new_bin_openings())} bin openings over {len(log)} placements",
        ]
    )
    payload = {
        "command": "replay",
        "trace": args.trace,
        "algorithm": log.algorithm,
        "placements": len(log),
        "bin_openings": len(log.new_bin_openings()),
        "log": log.as_dict(),
    }
    return _finish(args, registry, payload, text)


def _start_metrics_server(args: argparse.Namespace, source):
    """Start the optional ``--metrics-port`` endpoint over ``source``.

    Returns ``(server, error_code)``: the started
    :class:`~repro.obs.MetricsServer` (or ``None`` when the flag is unset)
    and ``2`` when the bind failed (message already printed).
    """
    if args.metrics_port is None or args.metrics_port < 0:
        return None, 0
    from .obs import MetricsServer

    try:
        server = MetricsServer(source, port=args.metrics_port)
        server.start()
    except OSError as exc:
        print(
            f"error: cannot bind metrics endpoint on port {args.metrics_port}: "
            f"{exc} (is the port already in use? try --metrics-port 0 for an "
            "ephemeral port)",
            file=sys.stderr,
        )
        return None, 2
    print(f"metrics endpoint: {server.url}", file=sys.stderr)
    return server, 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.listen and args.trace:
        print(
            "error: --trace (replay) and --listen (live) are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if not args.listen and not args.trace:
        print(
            "error: serve needs --trace FILE (replay mode) or --listen SPEC "
            "(live mode: tcp:HOST:PORT, http:HOST:PORT or stdin)",
            file=sys.stderr,
        )
        return 2
    if args.listen:
        return _serve_listen(args)
    return _serve_replay(args)


def _serve_replay(args: argparse.Namespace) -> int:
    """Replay a recorded trace through a manager-owned session.

    A thin driver over the serving tier's
    :class:`~repro.serving.ReplayTransport`: the session's packer, fault
    policy and telemetry registry are exactly the legacy serve wiring, so
    placements, engine counters and snapshots are bit-identical to the
    pre-runtime replay path.
    """
    from .algorithms.base import OnlinePacker
    from .serving import ReplayTransport, SessionManager

    registry = TelemetryRegistry()
    policy = None
    if args.fault_policy != "strict" or args.error_budget is not None:
        policy = FaultPolicy(
            args.fault_policy,
            error_budget=args.error_budget,
            registry=registry,
        )
    items = _load(args, policy)
    packer = _make_packer(args.algorithm, args, dims=items.dims)
    if not isinstance(packer, OnlinePacker):
        print("error: serve requires an online algorithm", file=sys.stderr)
        return 2
    manager = SessionManager()
    session = manager.open("replay", packer=packer, policy=policy, registry=registry)
    live = args.snapshot_every and not getattr(args, "json", False)

    def _print_snapshot(snap) -> None:
        print(
            f"t={snap.time:<12g} submitted={snap.items_submitted:<6d} "
            f"active={snap.active_items:<6d} open_bins={snap.open_bins:<5d} "
            f"usage={snap.usage_time:.3f}"
        )

    transport = ReplayTransport(
        items,
        tenant="replay",
        pace=args.pace,
        snapshot_every=args.snapshot_every if live else 0,
        on_snapshot=_print_snapshot if live else None,
    )
    server, code = _start_metrics_server(args, registry)
    if code:
        return code
    try:
        with registry.span("cli.serve"):
            transport.run(manager)
            result = session.result()
            result.validate()
            metrics = evaluate(result, registry=registry)
    finally:
        if server is not None:
            server.stop()
    stats_rows = [{"counter": k, "value": v} for k, v in session.stats.as_dict().items()]
    text_parts = [
        render_table([metrics.as_dict()], title=f"serve: {packer.describe()}"),
        "",
        render_table(stats_rows, title="engine counters"),
    ]
    payload = {
        "command": "serve",
        "trace": args.trace,
        "algorithm": packer.describe(),
        "metrics": metrics.as_dict(),
        "engine": session.stats.as_dict(),
    }
    if policy is not None:
        payload["faults"] = {
            "policy": policy.mode,
            "records_dropped": policy.dropped,
            "records_clamped": policy.clamped,
            "budget_tripped": policy.tripped,
        }
        if policy.faults:
            text_parts.append("")
            text_parts.append(
                f"fault policy {policy.mode}: {policy.dropped} records dropped, "
                f"{policy.clamped} clamped"
            )
    return _finish(args, registry, payload, "\n".join(text_parts))


def _parse_listen(spec: str) -> tuple[str, str, int]:
    """Parse a ``--listen`` spec into ``(kind, host, port)``.

    Accepted: ``tcp:HOST:PORT``, ``http:HOST:PORT``, ``stdin``.
    """
    if spec == "stdin":
        return ("stdin", "", 0)
    kind, _, rest = spec.partition(":")
    if kind in ("tcp", "http"):
        host, _, port = rest.rpartition(":")
        if host and port.isdigit():
            return (kind, host, int(port))
    raise ReproError(
        f"--listen expects tcp:HOST:PORT, http:HOST:PORT or stdin, got {spec!r}"
    )


async def _serve_until_stopped(runtime, kind: str, host: str, port: int):
    """Run one live transport until SIGTERM/SIGINT (or stdin EOF), then drain.

    Returns the :class:`~repro.serving.DrainReport`.  The drain happens
    *inside* the running loop so batcher tasks flush every admitted item
    before sessions close.
    """
    import asyncio
    import signal

    from .serving import HttpTransport, StdinTransport, TcpTransport

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    handled = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            handled.append(sig)
        except (NotImplementedError, RuntimeError):  # non-unix / nested loop
            pass
    try:
        if kind == "stdin":
            transport = StdinTransport(runtime)
            reader = asyncio.ensure_future(transport.run())
            stopper = asyncio.ensure_future(stop.wait())
            await asyncio.wait(
                {reader, stopper}, return_when=asyncio.FIRST_COMPLETED
            )
            transport.stop()
            stopper.cancel()
            report = await runtime.drain()
            try:
                await asyncio.wait_for(reader, timeout=1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                reader.cancel()
        else:
            cls = TcpTransport if kind == "tcp" else HttpTransport
            transport = cls(runtime, host=host, port=port)
            await transport.start()
            print(f"serving endpoint: {transport.url}", file=sys.stderr)
            await stop.wait()
            report = await runtime.drain()
            await transport.stop()
    finally:
        for sig in handled:
            loop.remove_signal_handler(sig)
    return report


def _serve_listen(args: argparse.Namespace) -> int:
    """Live serving over the layered runtime (``serve --listen``).

    Builds the three serving tiers — :class:`~repro.serving.SessionManager`
    with a default :class:`~repro.serving.TenantConfig` from the CLI flags,
    a :class:`~repro.serving.ServingRuntime` for admission control and
    micro-batching, and the transport named by ``--listen`` — then serves
    until SIGTERM/SIGINT (or stdin EOF) triggers a graceful drain.  The
    final report accounts every admitted arrival per tenant; ``lost`` is
    asserted zero by the CI smoke.
    """
    import asyncio

    from .algorithms.base import OnlinePacker
    from .serving import ServingRuntime, SessionManager, TenantConfig

    kind, host, port = _parse_listen(args.listen)
    packer = _make_packer(args.algorithm, args)
    if not isinstance(packer, OnlinePacker):
        print("error: serve requires an online algorithm", file=sys.stderr)
        return 2
    if args.wal and args.recover and args.wal != args.recover:
        print(
            "error: --wal and --recover name different directories; use one "
            "(recovery journals new arrivals into the recovered directory)",
            file=sys.stderr,
        )
        return 2
    wal_dir = args.recover or args.wal
    registry = TelemetryRegistry()
    config = TenantConfig(
        algorithm=args.algorithm,
        packer_kwargs=_packer_params(args.algorithm, args),
        fault_mode=args.fault_policy,
        error_budget=args.error_budget,
    )
    manager = SessionManager(config, registry=registry, max_tenants=args.max_tenants)
    wal = None
    if wal_dir:
        from .serving import WalConfig, WriteAheadLog

        wal = WriteAheadLog(
            wal_dir,
            config=WalConfig(
                sync=args.wal_sync, checkpoint_records=args.checkpoint_every
            ),
            registry=registry,
        )
    rate_limiter = None
    if args.rate_limit > 0:
        from .serving import RateLimiter

        rate_limiter = RateLimiter(
            args.rate_limit, args.rate_burst, registry=registry
        )
    runtime = ServingRuntime(
        manager,
        queue_limit=args.queue_limit,
        batch_size=args.batch_size,
        batch_deadline=args.batch_deadline,
        wal=wal,
        rate_limiter=rate_limiter,
        max_resident=args.max_resident_tenants or None,
    )
    if args.recover:
        from .serving import recover

        recovery = recover(runtime)
        print(
            f"recovered {recovery.recovered_tenants} tenant(s): "
            f"{recovery.replayed} tail records replayed, "
            f"{registry.counter('serving.wal.healed_tails').value} torn tail(s) healed, "
            f"{recovery.duration_seconds:.3f}s",
            file=sys.stderr,
        )
    server, code = _start_metrics_server(args, manager.export_registry)
    if code:
        return code
    try:
        with registry.span("cli.serve"):
            report = asyncio.run(_serve_until_stopped(runtime, kind, host, port))
    finally:
        if server is not None:
            server.stop()
    rows = [
        {
            "tenant": closed.tenant,
            "submitted": closed.snapshot.items_submitted,
            "bins_opened": closed.snapshot.bins_opened,
            "usage": round(closed.snapshot.usage_time, 6),
        }
        for closed in report.closed
    ]
    text_parts = []
    if rows:
        text_parts.append(
            render_table(rows, title=f"serve: drained {len(rows)} tenant sessions")
        )
    else:
        text_parts.append("serve: drained 0 tenant sessions")
    text_parts.append(
        f"drain: admitted={report.admitted} placed={report.placed} "
        f"dropped={report.dropped_by_policy} lost={report.lost} "
        f"flushed={report.flushed_items} in {report.duration_seconds:.3f}s"
    )
    payload = {
        "command": "serve",
        "listen": args.listen,
        "algorithm": args.algorithm,
        "tenants": [
            {
                "tenant": closed.tenant,
                "snapshot": {
                    "items_submitted": closed.snapshot.items_submitted,
                    "active_items": closed.snapshot.active_items,
                    "open_bins": closed.snapshot.open_bins,
                    "bins_opened": closed.snapshot.bins_opened,
                    "usage_time": closed.snapshot.usage_time,
                },
                "engine": closed.stats,
            }
            for closed in report.closed
        ],
        "drain": {
            "admitted": report.admitted,
            "placed": report.placed,
            "dropped_by_policy": report.dropped_by_policy,
            "lost": report.lost,
            "flushed_items": report.flushed_items,
            "duration_seconds": report.duration_seconds,
        },
    }
    return _finish(args, manager.export_registry(), payload, "\n".join(text_parts))


def _sweep_gc(args: argparse.Namespace) -> int:
    """Collect a completed sharded sweep's coordinator directory."""
    from .analysis import ShardCoordinator

    if not args.coordinator:
        raise ReproError("--gc requires --coordinator DIR")
    registry = TelemetryRegistry()
    with registry.span("cli.sweep_gc"):
        report = ShardCoordinator(args.coordinator).gc(
            force=args.gc_force, keep_manifest=not args.gc_force
        )
    payload = {
        "command": "sweep",
        "gc": {
            "coordinator": report.coordinator,
            "removed_files": report.removed_files,
            "reclaimed_bytes": report.reclaimed_bytes,
            "kept_manifest": report.kept_manifest,
        },
    }
    text = (
        f"sweep gc: removed {report.removed_files} file(s), reclaimed "
        f"{report.reclaimed_bytes} bytes under {report.coordinator}"
        + ("" if report.kept_manifest else " (manifest and directory removed)")
    )
    return _finish(args, registry, payload, text)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import SolverStats, SweepTask, run_sharded_sweep, run_sweep

    if args.gc:
        return _sweep_gc(args)
    if not args.algorithm:
        raise ReproError("--algorithm is required (except with --gc)")
    if args.seeds < 1:
        raise ReproError("--seeds must be >= 1")
    packer_kwargs = _packer_params(args.algorithm, args)
    workload_kwargs: dict[str, object] = {"n": args.n}
    if args.workload == "bounded-mu":
        workload_kwargs["mu"] = args.mu
    sweep_dims = 1
    if args.workload == "vector":
        sweep_dims = args.dims
        workload_kwargs["dims"] = args.dims
    if args.workload == "trace":
        if not args.trace:
            raise ReproError("--workload trace requires --trace FILE")
        # The trace is fixed input, not generated: every cell replays the
        # whole file (no n-truncation), the seed only labels the cell, and
        # --loader picks the object/columnar decode path inside each worker.
        workload_kwargs = {"path": args.trace, "loader": args.loader}
        sweep_dims = _load(args).dims
    # Validate parameter values and dimensionality capability up front.
    _make_packer(args.algorithm, args, dims=sweep_dims)
    tasks = [
        SweepTask(
            packer=args.algorithm,
            workload=args.workload,
            packer_kwargs=packer_kwargs,
            workload_kwargs={**workload_kwargs, "seed": seed},
            label=f"seed={seed}",
        )
        for seed in range(args.seeds)
    ]
    registry = TelemetryRegistry()
    retry = RetryPolicy(max_retries=args.retries) if args.retries > 0 else None
    with registry.span("cli.sweep"):
        if args.shards > 0:
            if args.checkpoint:
                raise ReproError(
                    "--checkpoint applies to single-host sweeps; sharded "
                    "sweeps keep per-shard journals under --coordinator"
                )
            outcomes = run_sharded_sweep(
                tasks,
                shards=args.shards,
                coordinator_dir=args.coordinator or None,
                chunk_size=args.chunk_size or None,
                lease_ttl=args.lease_ttl,
                memo_path=args.memo or None,
                registry=registry,
                retry=retry,
                deadline=args.deadline or None,
            )
        else:
            outcomes = run_sweep(
                tasks,
                max_workers=args.workers or None,
                executor=args.executor,
                memo_path=args.memo or None,
                registry=registry,
                retry=retry,
                checkpoint=args.checkpoint or None,
                deadline=args.deadline or None,
            )
    rows = [
        {
            "seed": o.task.label,
            "usage": o.usage,
            "denominator": o.denominator,
            "ratio": o.ratio,
            "exact": o.exact,
            "note": o.error or o.degraded_reason
            or ("resumed" if o.from_checkpoint else ""),
        }
        for o in outcomes
    ]
    merged = SolverStats()
    for o in outcomes:
        merged.merge(o.solver)
    stats_rows = [{"counter": k, "value": v} for k, v in merged.as_dict().items()]
    text = "\n".join(
        [
            render_table(
                rows,
                title=(
                    f"sweep: {args.algorithm} on trace {args.trace} "
                    f"({args.seeds} seeds)"
                    if args.workload == "trace"
                    else f"sweep: {args.algorithm} on {args.workload} "
                    f"(n={args.n}, {args.seeds} seeds)"
                ),
            ),
            "",
            render_table(stats_rows, title="adversary solver counters (all cells)"),
        ]
    )
    payload = {
        "command": "sweep",
        "algorithm": args.algorithm,
        "workload": args.workload,
        "shards": args.shards,
        "rows": rows,
        "solver": merged.as_dict(),
        "resilience": {
            "resumed": sum(1 for o in outcomes if o.from_checkpoint),
            "retried": sum(1 for o in outcomes if o.attempts > 1),
            "failed": sum(1 for o in outcomes if o.error is not None),
            "degraded": sum(1 for o in outcomes if o.degraded_reason is not None),
        },
    }
    return _finish(args, registry, payload, text)


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    from .analysis import run_shard_worker

    worker = args.worker or f"worker-{os.getpid()}"
    registry = TelemetryRegistry()
    with registry.span("cli.sweep_worker"):
        report = run_shard_worker(
            args.coordinator,
            worker,
            poll_interval=args.poll_interval,
            registry=registry,
            wait_manifest=args.wait_manifest,
        )
    rows = [{"field": k, "value": v} for k, v in report.as_dict().items()]
    text = render_table(
        rows, title=f"sweep-worker: {worker} drained {args.coordinator}"
    )
    payload = {
        "command": "sweep-worker",
        "coordinator": args.coordinator,
        "report": report.as_dict(),
    }
    return _finish(args, registry, payload, text)


def _cmd_fig8(args: argparse.Namespace) -> int:
    mus = [float(m) for m in args.mus.split(",")]
    series = {
        "first-fit (mu+4)": [first_fit_ratio(mu) for mu in mus],
        "classify-departure (2sqrt(mu)+3)": [
            classify_departure_ratio_known(mu) for mu in mus
        ],
        "classify-duration (min_n)": [classify_duration_ratio_known(mu) for mu in mus],
    }
    print(render_series("mu", mus, series, title="Figure 8: competitive ratios vs mu"))
    print()
    print(render_chart(mus, series, width=args.width, height=18))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clairvoyant MinUsageTime Dynamic Bin Packing (Ren & Tang, SPAA'16)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON report on stdout"
    )
    parser.add_argument(
        "--obs", default="", metavar="FILE", help="write run telemetry to FILE as NDJSON"
    )
    parser.add_argument(
        "--flame",
        default="",
        metavar="FILE",
        help="write the run's span tree to FILE as a collapsed-stack flamegraph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_opts(p: argparse.ArgumentParser) -> None:
        # SUPPRESS keeps the subcommand from clobbering the global flags'
        # values with its own defaults (subparsers parse a fresh namespace).
        p.add_argument(
            "--json",
            action="store_true",
            default=argparse.SUPPRESS,
            help="machine-readable JSON report on stdout",
        )
        p.add_argument(
            "--obs",
            default=argparse.SUPPRESS,
            metavar="FILE",
            help="write run telemetry to FILE as NDJSON",
        )
        p.add_argument(
            "--flame",
            default=argparse.SUPPRESS,
            metavar="FILE",
            help="write the run's span tree to FILE as a collapsed-stack flamegraph",
        )

    def add_loader_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--loader",
            choices=list(TRACE_LOADERS),
            default="object",
            help="trace loader: object parses per record (default), columnar "
            "memory-maps the file and block-parses the regular numeric schema, "
            "falling back to the object loader on any irregular line "
            "(identical items and fault diagnostics either way)",
        )

    lst = sub.add_parser(
        "list-algorithms",
        help="list registered packers with dims capability and parameters",
    )
    add_output_opts(lst)
    lst.set_defaults(func=_cmd_list_algorithms)

    gen = sub.add_parser("generate", help="synthesise a workload trace")
    gen.add_argument(
        "--kind",
        choices=[
            "uniform",
            "poisson",
            "bounded-mu",
            "bursty",
            "gaming",
            "analytics",
            "vector",
        ],
        default="uniform",
    )
    gen.add_argument("--n", type=int, default=100, help="number of items")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mu", type=float, default=10.0, help="duration ratio (bounded-mu)")
    gen.add_argument(
        "--dims", type=int, default=3, help="resource dimensions (vector kind)"
    )
    gen.add_argument(
        "--correlation",
        type=float,
        default=0.0,
        help="cross-dimension size correlation in [0, 1] (vector kind)",
    )
    gen.add_argument("--out", required=True, help="output trace (.jsonl or .csv)")
    gen.set_defaults(func=_cmd_generate)

    def add_packer_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rho", type=float, default=2.0, help="classify-departure width")
        p.add_argument("--alpha", type=float, default=2.0, help="duration class ratio")
        p.add_argument("--num-classes", type=int, default=0, help="hybrid-first-fit K")
        p.add_argument("--exact-opt", action="store_true", help="solve OPT_total exactly")
        p.add_argument("--width", type=int, default=78, help="chart width")

    pack = sub.add_parser("pack", help="pack a trace with one algorithm")
    pack.add_argument("--trace", required=True)
    pack.add_argument(
        "--algorithm",
        required=True,
        help=f"one of: {', '.join(available_packers())}",
    )
    pack.add_argument("--gantt", action="store_true", help="draw the packing")
    pack.add_argument("--profile", action="store_true", help="draw the demand profile")
    pack.add_argument(
        "--noise-sigma",
        type=float,
        default=0.0,
        help="simulate log-normal duration-prediction noise of this sigma",
    )
    pack.add_argument("--noise-seed", type=int, default=0)
    add_packer_opts(pack)
    add_output_opts(pack)
    pack.set_defaults(func=_cmd_pack)

    cmp_ = sub.add_parser("compare", help="compare algorithms on a trace")
    cmp_.add_argument("--trace", required=True)
    cmp_.add_argument(
        "--algorithms", default="", help="comma-separated names (default: all)"
    )
    add_packer_opts(cmp_)
    add_output_opts(cmp_)
    cmp_.set_defaults(func=_cmd_compare)

    bnd = sub.add_parser("bounds", help="print OPT lower bounds for a trace")
    bnd.add_argument("--trace", required=True)
    bnd.add_argument("--exact-opt", action="store_true")
    add_output_opts(bnd)
    bnd.set_defaults(func=_cmd_bounds)

    rpt = sub.add_parser("report", help="full workload report (bounds + comparison)")
    rpt.add_argument("--trace", required=True)
    rpt.add_argument("--algorithms", default="", help="comma-separated (default: a representative set)")
    rpt.add_argument("--no-gantt", action="store_true")
    add_packer_opts(rpt)
    add_output_opts(rpt)
    rpt.set_defaults(func=_cmd_report)

    rep = sub.add_parser("replay", help="show an online packer's decisions")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--algorithm", required=True, help="online algorithm name")
    rep.add_argument(
        "--versus",
        default="",
        help="second algorithm: report the first structural divergence",
    )
    rep.add_argument("--limit", type=int, default=30, help="decisions to print")
    add_loader_opt(rep)
    add_packer_opts(rep)
    add_output_opts(rep)
    rep.set_defaults(func=_cmd_replay)

    srv = sub.add_parser(
        "serve",
        help="replay a trace through the packing engine, or serve live traffic",
    )
    srv.add_argument(
        "--trace",
        default="",
        help="replay mode: stream this recorded trace event by event "
        "(mutually exclusive with --listen)",
    )
    srv.add_argument(
        "--listen",
        default="",
        metavar="SPEC",
        help="live mode: accept arrivals over a transport — tcp:HOST:PORT "
        "(line protocol), http:HOST:PORT (POST /submit NDJSON) or stdin; "
        "serves until SIGTERM/SIGINT (or stdin EOF), then drains gracefully",
    )
    srv.add_argument("--algorithm", required=True, help="online algorithm name")
    srv.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        help="live mode: max pending arrivals per tenant before offers get "
        "an explicit busy (backpressure) reply",
    )
    srv.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="live mode: flush a tenant's pending arrivals into the engine "
        "at this batch size",
    )
    srv.add_argument(
        "--batch-deadline",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="live mode: flush no later than this long after the oldest "
        "pending arrival (bounds added latency at low rates)",
    )
    srv.add_argument(
        "--max-tenants",
        type=int,
        default=1024,
        help="live mode: cap on concurrently open tenant sessions",
    )
    srv.add_argument(
        "--wal",
        default="",
        metavar="DIR",
        help="live mode: journal every admitted arrival to a per-tenant "
        "write-ahead log under DIR before acknowledging it, making the "
        "serve crash-safe (restart with --recover DIR)",
    )
    srv.add_argument(
        "--recover",
        default="",
        metavar="DIR",
        help="live mode: rehydrate every tenant session from the "
        "write-ahead log under DIR before accepting traffic, then keep "
        "journaling there (implies --wal DIR)",
    )
    srv.add_argument(
        "--wal-sync",
        choices=["group", "always"],
        default="group",
        help="WAL durability: 'group' fsyncs at micro-batch flushes "
        "(survives SIGKILL/OOM; default), 'always' fsyncs every arrival "
        "(survives power loss, costs one fsync per record)",
    )
    srv.add_argument(
        "--checkpoint-every",
        type=int,
        default=512,
        metavar="N",
        help="checkpoint (and compact) a tenant's journal every N records "
        "(0: checkpoint only on eviction and drain)",
    )
    srv.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="R",
        help="live mode: per-tenant token-bucket rate limit, arrivals per "
        "second; throttled offers get a busy reply with a deficit-sized "
        "retry_ms hint (0: unlimited, the default)",
    )
    srv.add_argument(
        "--rate-burst",
        type=float,
        default=64.0,
        metavar="B",
        help="token-bucket capacity: a tenant's first B arrivals (and any "
        "B-deep burst after idling) are never throttled",
    )
    srv.add_argument(
        "--max-resident-tenants",
        type=int,
        default=0,
        metavar="N",
        help="live mode: keep at most N tenant sessions in memory; the "
        "least recently active is checkpointed to the WAL and evicted, "
        "rehydrating transparently on its next request (requires --wal; "
        "0: unlimited)",
    )
    srv.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="print a live snapshot every N arrivals (0: only the final report)",
    )
    srv.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose a Prometheus /metrics endpoint on localhost:PORT while "
        "replaying (0: ephemeral port, printed to stderr)",
    )
    srv.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep between replayed events (slows the run for live scraping)",
    )
    srv.add_argument(
        "--fault-policy",
        choices=list(FAULT_MODES),
        default="strict",
        help="how malformed trace records and inconsistent events are handled: "
        "strict raises (default), skip drops them, clamp repairs repairable ones",
    )
    srv.add_argument(
        "--error-budget",
        type=int,
        default=None,
        metavar="N",
        help="maximum faults absorbed before the policy trips back to strict "
        "(default: unlimited)",
    )
    add_loader_opt(srv)
    add_packer_opts(srv)
    add_output_opts(srv)
    srv.set_defaults(func=_cmd_serve)

    swp = sub.add_parser("sweep", help="parallel ratio sweep over a seed grid")
    swp.add_argument(
        "--algorithm",
        default="",
        help=f"one of: {', '.join(available_packers())} (required unless --gc)",
    )
    swp.add_argument(
        "--gc",
        action="store_true",
        help="garbage-collect a completed sharded sweep: remove the leases, "
        "done markers, shard journals and memo caches under --coordinator "
        "(the manifest stays as a record); refuses if cells are unsettled "
        "unless --gc-force",
    )
    swp.add_argument(
        "--gc-force",
        action="store_true",
        help="with --gc: collect even an incomplete sweep (abandons its "
        "unsettled cells) and remove the manifest and directory too",
    )
    swp.add_argument(
        "--workload",
        default="uniform",
        help="generator name (uniform, poisson, bounded-mu, bursty, gaming, "
        "cluster, vector, trace)",
    )
    swp.add_argument(
        "--trace",
        default="",
        help="trace file for --workload trace (each cell replays the whole "
        "file; --loader picks the decode path)",
    )
    swp.add_argument("--n", type=int, default=40, help="items per workload")
    swp.add_argument("--mu", type=float, default=10.0, help="duration ratio (bounded-mu)")
    swp.add_argument(
        "--dims", type=int, default=3, help="resource dimensions (vector workload)"
    )
    swp.add_argument("--seeds", type=int, default=5, help="number of seeds (cells)")
    swp.add_argument(
        "--workers", type=int, default=0, help="parallel workers (0: executor default)"
    )
    swp.add_argument(
        "--executor",
        choices=["process", "thread", "serial"],
        default="process",
        help="how cells run",
    )
    swp.add_argument(
        "--memo",
        default="",
        help="path of a disk-backed adversary memo cache shared by all cells",
    )
    swp.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry failed cells up to N times with exponential backoff "
        "(default: 0, crash isolation only)",
    )
    swp.add_argument(
        "--checkpoint",
        default="",
        metavar="DIR",
        help="checkpoint journal directory (CRC-framed segment log): cells are "
        "appended as they complete; rerunning with the same DIR resumes "
        "instead of recomputing",
    )
    swp.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock budget for each instance's exact adversary solve; on expiry "
        "its cells degrade to certified lower bounds (exact=false) instead of hanging",
    )
    swp.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run the sweep as N work-stealing shard workers with per-shard "
        "journals and memo caches (0: single-host run_sweep, the default); "
        "see docs/DISTRIBUTED.md",
    )
    swp.add_argument(
        "--coordinator",
        default="",
        metavar="DIR",
        help="coordinator directory for --shards: manifest, leases, per-shard "
        "journals; rerunning with the same DIR resumes completed cells "
        "(default: a private temporary directory, no resume)",
    )
    swp.add_argument(
        "--chunk-size",
        type=int,
        default=0,
        metavar="K",
        help="cells per lease in sharded mode (0: auto-size for stealing)",
    )
    swp.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="sharded mode: seconds before an unrenewed chunk lease may be "
        "stolen by another worker (crash recovery latency)",
    )
    # --loader selects the decode path for `--workload trace` cells (and for
    # the driver-side dims validation); generated workloads ignore it.
    add_loader_opt(swp)
    add_packer_opts(swp)
    add_output_opts(swp)
    swp.set_defaults(func=_cmd_sweep)

    swkr = sub.add_parser(
        "sweep-worker",
        help="attach one shard worker to a sweep coordinator directory",
    )
    swkr.add_argument(
        "--coordinator",
        required=True,
        metavar="DIR",
        help="the coordinator directory a `sweep --shards` driver owns "
        "(workers may start first; see --wait-manifest)",
    )
    swkr.add_argument(
        "--worker",
        default="",
        metavar="ID",
        help="worker identifier, the journal/memo filename stem "
        "(default: worker-<pid>)",
    )
    swkr.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="idle-scan sleep while other workers hold all remaining leases",
    )
    swkr.add_argument(
        "--wait-manifest",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long to wait for the driver to write the manifest",
    )
    add_output_opts(swkr)
    swkr.set_defaults(func=_cmd_sweep_worker)

    fig = sub.add_parser("fig8", help="print the paper's Figure 8")
    fig.add_argument(
        "--mus", default="1,2,4,8,16,32,64,100", help="comma-separated mu grid"
    )
    fig.add_argument("--width", type=int, default=70)
    fig.set_defaults(func=_cmd_fig8)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
