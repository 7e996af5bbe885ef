"""Pluggable ingestion transports over one :class:`ServingRuntime`.

Three live transports decode client arrivals into runtime offers:

* :class:`TcpTransport` — the newline protocol of
  :mod:`repro.serving.protocol` over an asyncio TCP socket, one tenant per
  connection (``hello <tenant>``).  Clients may pipeline: the complete
  lines of each socket read are admitted together (one journal write) and
  answered, one reply line per request in request order, with one write;
* :class:`HttpTransport` — a minimal hand-rolled HTTP/1.1 endpoint (stdlib
  only, asyncio streams): ``POST /submit`` with an NDJSON body of arrival
  records (tenant from the ``X-Tenant`` header), ``GET /snapshot?tenant=``
  and ``GET /healthz``;
* :class:`StdinTransport` — the same line protocol over a pipe (stdin in,
  stdout out), so ``repro serve --listen stdin`` composes with shell
  pipelines and process supervisors.

All three translate :class:`~repro.serving.Admission` verdicts into
protocol replies — backpressure is an explicit ``busy`` answer, never a
dropped byte — and stop accepting once the runtime drains.

:class:`ReplayTransport` is the degenerate fourth transport: the legacy
``serve --trace`` mode as a thin, *synchronous* driver over the same
:class:`~repro.serving.SessionManager`.  It feeds the recorded event stream
one event at a time (no queueing, no micro-batching), which is exactly what
keeps replayed placements, :class:`~repro.engine.EngineStats` and snapshots
bit-identical to the pre-runtime serve loop — asserted for every registered
online packer by ``tests/test_serving.py``.  Pacing schedules each event
against a **monotonic deadline** (``t0 + k·pace``) rather than sleeping
``pace`` per event, so pacing error no longer accumulates over long
replays.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, TextIO
from urllib.parse import parse_qs, urlsplit

from ..core.events import EventKind, event_stream
from ..core.items import ItemList
from ..engine import EngineSnapshot, PackingSession
from .manager import SessionManager
from .protocol import DEFAULT_TENANT, parse_request, reply, snapshot_payload
from .runtime import Admission, ServingRuntime

__all__ = ["TcpTransport", "HttpTransport", "StdinTransport", "ReplayTransport"]


#: Longest protocol line, in bytes without its newline (the asyncio
#: ``StreamReader`` default limit).  Longer input is refused, not buffered.
MAX_LINE = 1 << 16


def _admission_reply(verdict: Admission, runtime: ServingRuntime) -> str:
    """The protocol reply line for one admission verdict."""
    if verdict.status == "ok":
        item = verdict.item
        if item is not None and type(item.id) is int:
            # The common reply, formatted by hand: the same bytes as reply().
            return '{"id":%d,"queue":%d,"status":"ok"}' % (item.id, verdict.queue_depth)
        return reply(
            "ok",
            id=item.id if item is not None else None,
            queue=verdict.queue_depth,
        )
    if verdict.status == "busy":
        return reply(
            "busy",
            queue=verdict.queue_depth,
            reason=verdict.reason or "backpressure",
            retry_ms=verdict.retry_ms or runtime.retry_hint_ms,
        )
    if verdict.status == "dropped":
        return reply("dropped", reason=verdict.reason)
    return reply("rejected", reason=verdict.reason, error=verdict.error)


def _protocol_reject(error: str) -> str:
    """The reply to a line that is not a protocol request."""
    return reply("rejected", reason="protocol", error=error)


def _answer(
    runtime: ServingRuntime, tenant: str, lines: list[str | None]
) -> tuple[list[str], str, bool]:
    """Answer one read's complete lines in order; ``(replies, tenant, keep_open)``.

    One reply per line processed.  Consecutive arrival lines go to
    :meth:`ServingRuntime.offer_lines` as one run, so they are gated and
    journaled together; a command, or a line that is not utf-8 (``None``),
    ends the run, and the lines before it are admitted and answered first.
    ``hello`` rebinds the tenant for the lines after it, and nothing after
    ``bye`` is processed.
    """
    replies: list[str] = []
    run: list[str] = []
    for line in lines:
        if line is not None:
            stripped = line.strip()
            if stripped[:1] == "{":  # parse_request's arrival rule
                run.append(stripped)
                continue
        if run:
            replies += [_admission_reply(v, runtime) for v in runtime.offer_lines(tenant, run)]
            run = []
        if line is None:
            replies.append(_protocol_reject("not utf-8"))
            continue
        req = parse_request(line)
        if req.op == "hello":
            assert req.tenant is not None
            tenant = req.tenant
            replies.append(reply("hello", tenant=tenant))
        elif req.op == "snapshot":
            payload = (
                snapshot_payload(runtime.snapshot(tenant))
                if tenant in runtime.manager
                else {}
            )
            replies.append(reply("snapshot", tenant=tenant, **payload))
        elif req.op == "bye":
            replies.append(reply("bye"))
            return replies, tenant, False
        else:
            replies.append(_protocol_reject(req.error))
    if run:
        replies += [_admission_reply(v, runtime) for v in runtime.offer_lines(tenant, run)]
    return replies, tenant, True


def _decode_lines(raw: list[bytes]) -> list[str | None]:
    """Each raw line as text, or ``None`` where it is not utf-8."""
    lines: list[str | None] = []
    for line in raw:
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append(None)
    return lines


class TcpTransport:
    """The line protocol over an asyncio TCP listener.

    Args:
        runtime: The serving runtime offers are fed into.
        host: Bind address (localhost by default — front it with a real
            proxy for anything wider).
        port: TCP port; ``0`` picks an ephemeral one (read :attr:`port`
            after :meth:`start`).
    """

    def __init__(
        self, runtime: ServingRuntime, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.runtime = runtime
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (0 before :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return 0
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """The transport endpoint as a ``tcp://`` URL (after :meth:`start`)."""
        return f"tcp://{self.host}:{self.port}"

    async def start(self) -> int:
        """Bind and start accepting connections; returns the bound port."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self._requested_port
            )
        return self.port

    async def stop(self) -> None:
        """Stop accepting and close the listener (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: answer each read with one write.

        Every read's complete lines are answered together (see
        :func:`_answer`) and their replies go out in one ``write`` and one
        ``drain``, after the runtime has journaled the read's arrivals.  The
        unterminated tail waits for the next read; at end of stream it is a
        line of its own.  A line longer than :data:`MAX_LINE` bytes, ended
        or not, is answered with one ``protocol`` rejection after the lines
        before it, and the connection closes.
        """
        tenant = DEFAULT_TENANT
        partial = b""
        keep_open = True
        try:
            while keep_open:
                data = await reader.read(MAX_LINE)
                if data:
                    *raw, partial = (partial + data).split(b"\n")
                elif partial:  # end of stream: the last line lacks its newline
                    raw, partial = [partial], b""
                else:
                    break
                overlong = len(partial) > MAX_LINE
                if raw and max(map(len, raw)) > MAX_LINE:
                    raw = raw[: next(k for k, line in enumerate(raw) if len(line) > MAX_LINE)]
                    overlong = True
                replies: list[str] = []
                if raw:
                    try:
                        lines: list[str | None] = [line.decode("utf-8") for line in raw]
                    except UnicodeDecodeError:
                        lines = _decode_lines(raw)
                    replies, tenant, keep_open = _answer(self.runtime, tenant, lines)
                if overlong and keep_open:
                    replies.append(_protocol_reject(f"line exceeds {MAX_LINE} bytes"))
                    keep_open = False
                if replies:
                    writer.write(("\n".join(replies) + "\n").encode())
                    if not keep_open:
                        # FIN right after the last reply: closing with input
                        # still unread resets the socket, which would
                        # discard that reply at the client.
                        writer.write_eof()
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass


class HttpTransport:
    """A minimal HTTP/1.1 ingestion endpoint over asyncio streams.

    Stdlib-only by construction (the container bakes no HTTP framework):
    requests are parsed directly from the stream.  Three routes:

    * ``POST /submit`` — body is NDJSON arrival records; the tenant comes
      from the ``X-Tenant`` header (default ``"default"``).  The response
      body is a JSON summary: ``admitted``, ``busy``, ``dropped``,
      ``rejected`` counts plus the per-record verdict lines.  Status 200
      when everything was admitted, 429 when any record hit backpressure,
      400 when any was rejected.
    * ``GET /snapshot?tenant=ID`` — the tenant's engine snapshot as JSON.
    * ``GET /healthz`` — ``200 ok`` while serving, ``503 draining`` after
      drain starts.
    """

    #: Largest accepted request body, bytes (a million-record POST should
    #: use the TCP transport instead).
    MAX_BODY = 8 << 20

    def __init__(
        self, runtime: ServingRuntime, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.runtime = runtime
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (0 before :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return 0
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """The endpoint base URL (after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> int:
        """Bind and start accepting requests; returns the bound port."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self._requested_port
            )
        return self.port

    async def stop(self) -> None:
        """Stop accepting and close the listener (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve HTTP/1.1 requests on one connection until close."""
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line.strip() == b"":
                    break
                try:
                    method, target, _version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(writer, 400, "text/plain", b"bad request line")
                    break
                headers: dict[str, str] = {}
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or 0)
                except ValueError:
                    await self._respond(
                        writer,
                        400,
                        "text/plain",
                        self._protocol_error("malformed content-length"),
                    )
                    break
                if length < 0:
                    await self._respond(
                        writer,
                        400,
                        "text/plain",
                        self._protocol_error("negative content-length"),
                    )
                    break
                if length > self.MAX_BODY:
                    await self._respond(
                        writer,
                        413,
                        "text/plain",
                        self._protocol_error(
                            f"body of {length} bytes exceeds the "
                            f"{self.MAX_BODY}-byte limit"
                        ),
                    )
                    break
                try:
                    body = await reader.readexactly(length) if length else b""
                except asyncio.IncompleteReadError:
                    # Truncated request: answer best-effort (the client may
                    # already be gone) instead of raising in the reader task.
                    try:
                        await self._respond(
                            writer,
                            400,
                            "text/plain",
                            self._protocol_error("truncated request body"),
                        )
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                    break
                keep_open = await self._route(writer, method, target, headers, body)
                if not keep_open or headers.get("connection", "").lower() == "close":
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):  # client went away mid-request
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> bool:
        """Dispatch one parsed request; returns keep-alive."""
        import json as _json

        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        if method == "POST" and path == "/submit":
            tenant = headers.get("x-tenant", DEFAULT_TENANT)
            counts = {"admitted": 0, "busy": 0, "dropped": 0, "rejected": 0}
            verdicts: list[str] = []
            retry_ms = 0
            lines = [
                raw
                for raw in body.decode("utf-8", errors="replace").splitlines()
                if raw.strip()
            ]
            for verdict in self.runtime.offer_lines(tenant, lines):
                key = verdict.status if verdict.status != "ok" else "admitted"
                counts[key] += 1
                if verdict.status == "busy":
                    retry_ms = max(
                        retry_ms, verdict.retry_ms or self.runtime.retry_hint_ms
                    )
                verdicts.append(_admission_reply(verdict, self.runtime))
            status = 200
            if counts["rejected"]:
                status = 400
            elif counts["busy"]:
                status = 429
            payload = _json.dumps(
                {**counts, "verdicts": verdicts}, sort_keys=True
            ).encode()
            extra = {}
            if status == 429 and retry_ms:
                # RFC 9110 Retry-After is whole seconds; round up so a
                # client honouring it never retries before a token exists.
                extra["Retry-After"] = str(max(1, -(-retry_ms // 1000)))
            await self._respond(
                writer, status, "application/json", payload, extra=extra
            )
            return True
        if method == "GET" and path == "/snapshot":
            tenant = parse_qs(split.query).get("tenant", [DEFAULT_TENANT])[0]
            if tenant not in self.runtime.manager:
                await self._respond(writer, 404, "text/plain", b"unknown tenant")
                return True
            payload = _json.dumps(
                snapshot_payload(self.runtime.snapshot(tenant)), sort_keys=True
            ).encode()
            await self._respond(writer, 200, "application/json", payload)
            return True
        if method == "GET" and path == "/healthz":
            if self.runtime.draining:
                await self._respond(writer, 503, "text/plain", b"draining")
            else:
                await self._respond(writer, 200, "text/plain", b"ok")
            return True
        await self._respond(writer, 404, "text/plain", b"not found")
        return True

    @staticmethod
    def _protocol_error(error: str) -> bytes:
        """A transport-fault body: one protocol ``rejected`` line."""
        return (reply("rejected", reason="protocol", error=error) + "\n").encode()

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        ctype: str,
        body: bytes,
        *,
        extra: dict[str, str] | None = None,
    ) -> None:
        """Write one HTTP/1.1 response (``extra``: additional headers)."""
        phrase = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            413: "Payload Too Large",
            429: "Too Many Requests",
            503: "Service Unavailable",
        }.get(status, "OK")
        extras = "".join(
            f"{name}: {value}\r\n" for name, value in (extra or {}).items()
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {phrase}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extras}"
                "\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()


class StdinTransport:
    """The line protocol over a pipe: stdin in, stdout out.

    Args:
        runtime: The serving runtime offers are fed into.
        in_stream / out_stream: Text streams (defaults: the process's
            stdin/stdout), injectable for tests and for embedding.

    Reading happens on a dedicated **daemon** thread pumping lines into an
    asyncio queue: a readline blocked on an open tty cannot wedge event-loop
    shutdown after a SIGTERM drain (the thread dies with the process), and
    EOF on a pipe ends the transport naturally.  On exit :meth:`run` signals
    the reader — closing an *injected* stream to unblock a parked readline —
    and joins it, so serve-in-process tests that run many transports do not
    accumulate reader threads.  Every line already queued when the
    transport wakes is answered as one read (see :func:`_answer`), and the
    read's replies are flushed together, so a shell pipeline sees them as
    soon as they exist.
    """

    def __init__(
        self,
        runtime: ServingRuntime,
        *,
        in_stream: TextIO | None = None,
        out_stream: TextIO | None = None,
    ) -> None:
        self.runtime = runtime
        self._in = in_stream
        self._out = out_stream
        self._stopped = False
        self._lines: asyncio.Queue[str | None] | None = None
        self._thread = None

    async def run(self) -> int:
        """Consume lines until EOF, ``bye``, or :meth:`stop`; returns #lines."""
        import sys
        import threading

        stream = self._in if self._in is not None else sys.stdin
        out = self._out if self._out is not None else sys.stdout
        loop = asyncio.get_running_loop()
        self._lines = queue = asyncio.Queue()

        def _pump() -> None:
            try:
                while not self._stopped:
                    line = stream.readline()
                    if not line:
                        break
                    loop.call_soon_threadsafe(queue.put_nowait, line)
            except (ValueError, OSError):  # stream closed under the reader
                pass
            try:
                loop.call_soon_threadsafe(queue.put_nowait, None)
            except RuntimeError:  # loop already closed
                pass

        self._thread = thread = threading.Thread(
            target=_pump, daemon=True, name="repro-serving-stdin"
        )
        thread.start()
        tenant = DEFAULT_TENANT
        lines = 0
        try:
            while not self._stopped:
                # Every line already queued is one read: answered together.
                batch = [await queue.get()]
                while not queue.empty():
                    batch.append(queue.get_nowait())
                eof = None in batch
                if eof:
                    batch = batch[: batch.index(None)]
                keep_open = True
                if batch:
                    answers, tenant, keep_open = _answer(self.runtime, tenant, batch)
                    lines += len(answers)
                    print("\n".join(answers), file=out, flush=True)
                if eof or not keep_open:
                    break
        finally:
            self._stopped = True
            await loop.run_in_executor(None, self._join_reader, stream, thread)
        return lines

    def _join_reader(self, stream: TextIO, thread) -> None:
        """Signal and join the reader thread (best effort, off the loop).

        A reader parked on an injected stream's blocking ``readline`` is
        unblocked by closing that stream (``readline`` then returns or
        raises, both of which end the pump).  The process's real stdin is
        never closed — a reader parked on a tty stays a daemon thread and
        dies with the process, exactly as before.
        """
        import sys

        thread.join(timeout=0.1)
        if not thread.is_alive():
            return
        if stream is not sys.stdin:
            close = getattr(stream, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass
                thread.join(timeout=0.5)

    def stop(self) -> None:
        """Stop after the current read (the drain path sets this).

        Safe from the event-loop thread; wakes a :meth:`run` that is parked
        on an empty queue.
        """
        self._stopped = True
        if self._lines is not None:
            self._lines.put_nowait(None)


class ReplayTransport:
    """Replay a recorded trace through a manager-owned session.

    The legacy ``serve --trace`` event loop as a transport: arrivals are
    submitted and departures advanced one event at a time, in trace order,
    against the tenant's :class:`~repro.engine.PackingSession` — no queues,
    no batching — which keeps the replay bit-identical to the pre-runtime
    serve path (placements, :class:`~repro.engine.EngineStats`, snapshots).

    Args:
        items: The recorded workload.
        tenant: The session key the replay runs under.
        pace: Seconds per event.  Scheduling is **drift-free**: event ``k``
            waits for the monotonic deadline ``t0 + k·pace``, so a long
            replay ends within one pace of the ideal schedule instead of
            accumulating per-sleep error.
        snapshot_every: Call ``on_snapshot`` every N arrivals (0: never).
        on_snapshot: Callback receiving each periodic
            :class:`~repro.engine.EngineSnapshot`.
        clock / sleep: Injectable monotonic clock and sleeper (tests pin
            pacing behaviour without real waiting).
    """

    def __init__(
        self,
        items: ItemList,
        *,
        tenant: str = "replay",
        pace: float = 0.0,
        snapshot_every: int = 0,
        on_snapshot: Callable[[EngineSnapshot], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.items = items
        self.tenant = tenant
        self.pace = pace
        self.snapshot_every = snapshot_every
        self.on_snapshot = on_snapshot
        self._clock = clock
        self._sleep = sleep
        self.arrivals = 0

    def run(self, manager: SessionManager) -> PackingSession:
        """Feed every trace event through ``manager``; returns the session.

        The tenant session must already be open (:meth:`SessionManager.open`)
        or openable under the manager's default config.
        """
        session = manager.session(self.tenant)
        pace = self.pace
        t0 = self._clock() if pace > 0 else 0.0
        for k, event in enumerate(event_stream(self.items)):
            if event.kind is EventKind.ARRIVAL:
                manager.submit(self.tenant, event.item)
                self.arrivals += 1
                if (
                    self.snapshot_every
                    and self.on_snapshot is not None
                    and self.arrivals % self.snapshot_every == 0
                ):
                    self.on_snapshot(session.snapshot())
            else:
                manager.advance(self.tenant, event.time)
            if pace > 0:
                # Drift-free pacing: wait out the remaining gap to this
                # event's absolute deadline (no error accumulation).
                remaining = t0 + (k + 1) * pace - self._clock()
                if remaining > 0:
                    self._sleep(remaining)
        return session
