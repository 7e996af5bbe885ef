"""The serving line protocol: NDJSON arrivals in, JSON status replies out.

One newline-delimited protocol shared by the TCP socket and stdin-pipe
transports (the HTTP transport reuses the same record grammar in request
bodies).  Client → server lines are either **commands** (plain words) or
**arrivals** (a JSON object in the exact trace-record schema of
``docs/WORKLOADS.md`` — ``size`` or ``sizes`` spelling, optional ``tags``),
decoded through :func:`~repro.workloads.parse_arrival` so a malformed live
arrival gets the same 1-based record-position + field diagnostics a
malformed trace line does.

Commands::

    hello <tenant>      bind this connection to a tenant (default: "default")
    snapshot            one-line JSON engine snapshot for the bound tenant
    bye                 close the connection (the tenant session stays open)

Server → client replies are single-line JSON objects with a ``status`` key:

* ``{"status": "ok", "id": ..., "queue": ...}`` — arrival admitted (queued);
* ``{"status": "busy", "queue": ..., "reason": ..., "retry_ms": ...}`` —
  back off and retry after the hint.  ``reason`` is ``"backpressure"``
  (the tenant's queue is full because the engine lags) or ``"rate_limit"``
  (the tenant's token bucket is empty; ``retry_ms`` is sized to the actual
  deficit, so honouring it guarantees the next attempt finds a token);
* ``{"status": "rejected", "reason": ..., "error": ...}`` — not admitted
  (malformed record in strict mode, tripped error budget, tenant limit,
  or the runtime is draining);
* ``{"status": "dropped", "reason": ...}`` — a non-strict fault policy
  absorbed the record (it will never be placed);
* ``{"status": "snapshot", ...}`` / ``{"status": "hello", ...}`` — command
  answers.

Every request line gets exactly one reply line, in request order, so clients
can pipeline without framing state.  The server answers by the read, not by
the line: the complete lines of one socket read are admitted together (their
arrivals journaled in one write) and their replies go out in one write.  A
line longer than 64 KiB is answered with one ``protocol`` rejection and the
connection closes.  The load generator (:class:`~repro.serving.LoadGenerator`)
and the CI smoke both speak the protocol.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ..core.items import Item
from ..engine import EngineSnapshot

__all__ = ["Request", "parse_request", "reply", "snapshot_payload"]

#: Default tenant id for connections that never said ``hello``.
DEFAULT_TENANT = "default"


@dataclass(frozen=True, slots=True)
class Request:
    """One decoded client line.

    Attributes:
        op: ``"arrival" | "hello" | "snapshot" | "bye" | "error"``.
        tenant: The tenant named by a ``hello`` (``None`` otherwise).
        raw: The raw line (arrival payload for ``op == "arrival"``).
        error: Human-readable message for ``op == "error"``.
    """

    op: str
    tenant: str | None = None
    raw: str = ""
    error: str = ""


def parse_request(line: str) -> Request:
    """Classify one client line as a command or an arrival payload.

    Arrival decoding itself (JSON + schema validation) is left to the
    runtime so fault policies and per-connection record counters apply;
    this function only routes.
    """
    stripped = line.strip()
    if not stripped:
        return Request(op="error", error="empty line")
    if stripped.startswith("{"):
        return Request(op="arrival", raw=stripped)
    parts = stripped.split()
    word = parts[0].lower()
    if word == "hello":
        if len(parts) != 2 or not parts[1]:
            return Request(op="error", error="usage: hello <tenant>")
        return Request(op="hello", tenant=parts[1])
    if word == "snapshot" and len(parts) == 1:
        return Request(op="snapshot")
    if word == "bye" and len(parts) == 1:
        return Request(op="bye")
    return Request(op="error", error=f"unknown command {stripped.split()[0]!r}")


def reply(status: str, **fields: object) -> str:
    """One serialised reply line (no trailing newline).

    ``fields`` must be JSON-serialisable; key order is fixed (sorted) so
    replies are byte-stable for tests and the parity gates.
    """
    payload = {"status": status, **fields}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def snapshot_payload(snapshot: EngineSnapshot) -> dict[str, object]:
    """An :class:`~repro.engine.EngineSnapshot` as JSON-ready fields.

    The pre-first-event clock (``-inf``) maps to ``None`` so the payload
    stays strict JSON.
    """
    return {
        "time": snapshot.time if math.isfinite(snapshot.time) else None,
        "items_submitted": snapshot.items_submitted,
        "active_items": snapshot.active_items,
        "open_bins": snapshot.open_bins,
        "bins_opened": snapshot.bins_opened,
        "usage_time": snapshot.usage_time,
    }


def item_fields(item: Item) -> dict[str, object]:
    """The identifying fields echoed back in an ``ok`` reply."""
    return {"id": item.id}
