"""The asyncio HTTP/1.1 server: sockets, timeouts, logging, lifecycle.

Stdlib only: :func:`asyncio.start_server` plus a small, strict HTTP/1.1
reader (request line, headers, ``Content-Length`` body, size caps).  By
default one request per connection (responses carry ``Connection: close``);
a client that sends an explicit ``Connection: keep-alive`` gets a
persistent connection instead — chunked streams are self-delimiting, so a
submit-and-stream client can pump many jobs through ONE socket, which is
what makes high-rate dispatch cheap (per-job TCP setup is the dominant
wire cost for sub-millisecond solves).  Event streams are sent with chunked
transfer encoding and tolerate the client hanging up mid-stream: the writer
error just ends that consumer; the job, its guards, and the shared session
are unaffected (a broken subscriber is dropped by
:meth:`repro.api.jobs.Job.emit`).

Lifecycle: :meth:`VerificationService.serve_forever` installs a SIGTERM/
SIGINT handler (when the platform supports it), serves until the signal,
then runs the drain sequence (:mod:`repro.service.drain`) and returns — the
CLI maps that clean return to exit code 0.

Access logging is structured: one JSON object per request on the
``repro.service.access`` logger.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time

from repro import faults, sanitize
from repro.api.engine import Engine
from repro.service.admission import AdmissionController
from repro.service.drain import DrainCoordinator
from repro.service.routes import MAX_BODY_BYTES, HttpError, Request, Response, Router

__all__ = ["VerificationService"]

access_log = logging.getLogger("repro.service.access")

_STATUS_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

MAX_HEADER_BYTES = 32 * 1024


class VerificationService:
    """One server instance: engine + admission + drain + listener."""

    def __init__(
        self,
        engine: Engine | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionController | None = None,
        request_timeout: float = 10.0,
        drain_grace: float = 10.0,
        **engine_kwargs,
    ):
        self.engine = engine if engine is not None else Engine(**engine_kwargs)
        self._owns_engine = engine is None
        self.host = host
        self.port = port  # rebound to the real port once the socket exists
        self.admission = admission if admission is not None else AdmissionController()
        self.drain = DrainCoordinator()
        self.router = Router(self)
        self.request_timeout = request_timeout
        self.drain_grace = drain_grace
        self.started_at: float | None = None
        self.requests_served = 0
        self.connections_open = 0
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._watchdog: "sanitize.LoopWatchdog | None" = None
        # Bound after the engine above: an Engine(fault_plan=...) built by
        # **engine_kwargs has already armed the plan by now, so the socket
        # and loop injection points see it too.
        self._fault = faults.hook("socket")
        self._loop_fault = faults.hook("loop")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "VerificationService":
        """Bind the listener (resolving an ephemeral port request)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        # Under REPRO_SANITIZE a daemon thread heartbeats the loop and
        # counts stalls — the dynamic twin of the REPRO-ASYNC static rule.
        self._watchdog = sanitize.new_loop_watchdog(asyncio.get_running_loop())
        return self

    def request_stop(self) -> None:
        """Flip the stop flag; ``serve_forever`` takes it from there."""
        self._stop.set()

    async def serve_forever(self, *, install_signal_handlers: bool = True) -> dict:
        """Serve until SIGTERM/SIGINT (or :meth:`request_stop`), then drain.

        Returns the drain summary; a normal return means every tracked job
        reached its terminal event and the socket is closed — the clean-exit
        contract the CLI and the CI smoke test rely on.
        """
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_stop)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # e.g. non-main thread or unsupported platform
        try:
            await self._stop.wait()
            return await self.shutdown()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    async def shutdown(self) -> dict:
        """Drain jobs, then close the listener and (when owned) the engine.

        The listener stays open through the grace window: the drain gate
        503s new submissions the moment draining starts, but status polls,
        event streams and — critically — a ``DELETE`` racing the shutdown
        must still be able to reach their jobs (see ``repro.service.drain``'s
        contract: read-only routes keep working through the drain).
        """
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        summary = await self.drain.begin_drain(self.drain_grace)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._owns_engine:
            await asyncio.get_running_loop().run_in_executor(None, self.engine.close)
        access_log.info(
            json.dumps({"event": "drained", **summary}, default=str)
        )
        return summary

    async def __aenter__(self) -> "VerificationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_open += 1
        try:
            # Serve requests until the client closes, errors, or didn't ask
            # for keep-alive (the default is still one request per
            # connection, so legacy clients see the historical behaviour).
            while await self._serve_one(reader, writer):
                pass
        finally:
            self.connections_open -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: loop teardown cancelling a parked keep-alive
                # handler mid-close; the socket is closed either way, and
                # completing quietly keeps asyncio's connection callback from
                # logging a spurious traceback.
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """One request/response cycle; True = keep the connection open."""
        if self._loop_fault is not None:
            # A delay-mode ``loop.stall`` rule sleeps inside fire(), blocking
            # the event loop — the dynamic twin of what the sanitize
            # watchdog's stall counter measures.
            self._loop_fault.fire("stall")
        started = time.monotonic()
        request: Request | None = None
        response: Response | None = None
        status = 0  # 0 = nothing sent (clean EOF / client vanished)
        sent = 0
        keep = False
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), self.request_timeout
                )
            except asyncio.TimeoutError:
                status, sent = await self._send_error(writer, 408, "request timeout")
                return False
            except HttpError as error:
                status, sent = await self._send_error(
                    writer, error.status, error.message, error.headers
                )
                return False
            except (asyncio.IncompleteReadError, ConnectionError):
                return False  # client went away before completing a request
            if request is None:
                return False  # clean EOF before any request bytes
            keep = request.headers.get("connection", "").lower() == "keep-alive"
            try:
                response = await self.router.handle(request)
            except HttpError as error:
                status, sent = await self._send_error(
                    writer, error.status, error.message, error.headers
                )
                return False
            except Exception as error:  # noqa: BLE001 - the connection boundary
                logging.getLogger("repro.service").exception("handler error")
                status, sent = await self._send_error(
                    writer, 500, f"{type(error).__name__}: {error}"
                )
                return False
            status, sent = await self._send_response(
                writer, response, keep_alive=keep
            )
            return keep
        finally:
            if request is not None or status:
                self.requests_served += 1
                self._log_access(
                    request,
                    status,
                    sent,
                    time.monotonic() - started,
                    extra=response.log if response is not None else None,
                    job=response.job if response is not None else None,
                )

    async def _read_request(self, reader: asyncio.StreamReader) -> Request | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise HttpError(413, "headers too large") from exc
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # connection opened and closed without a request
            raise
        if len(head) > MAX_HEADER_BYTES:
            raise HttpError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        request_parts = lines[0].split(" ")
        if len(request_parts) != 3 or not request_parts[2].startswith("HTTP/1."):
            raise HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = request_parts
        path = target.split("?", 1)[0]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise HttpError(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError as exc:
                raise HttpError(400, "malformed Content-Length") from exc
            if length < 0:
                raise HttpError(400, "malformed Content-Length")
            if length > MAX_BODY_BYTES:
                raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            body = await reader.readexactly(length)
        elif headers.get("transfer-encoding"):
            raise HttpError(400, "chunked request bodies are not supported")
        return Request(method=method.upper(), path=path, headers=headers, body=body)

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    @staticmethod
    def _head(status: int, headers: dict[str, str], keep_alive: bool = False) -> bytes:
        reason = _STATUS_REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        lines.append("Connection: keep-alive" if keep_alive else "Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool = False,
    ) -> tuple[int, int]:
        if response.stream is not None:
            return await self._send_stream(writer, response, keep_alive=keep_alive)
        body = response.body()
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            **response.headers,
        }
        writer.write(self._head(response.status, headers, keep_alive) + body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # the client left; nothing further to deliver
        return response.status, len(body)

    async def _send_stream(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool = False,
    ) -> tuple[int, int]:
        headers = {
            "Content-Type": "application/x-ndjson",
            "Transfer-Encoding": "chunked",
            **response.headers,
        }
        sent = 0
        try:
            writer.write(self._head(response.status, headers, keep_alive))
            await writer.drain()
            async for chunk in response.stream:
                if self._fault is not None:
                    if self._fault.fire("reset") is not None:
                        # Hard RST mid-stream: the client's read fails with
                        # ConnectionResetError, exactly like a dropped NAT
                        # mapping or a crashed peer.
                        writer.transport.abort()
                        raise ConnectionResetError("injected socket reset")
                    if self._fault.fire("truncate") is not None:
                        # FIN without the final 0-length chunk: the client
                        # sees EOF mid-chunked-stream (IncompleteRead).
                        writer.write_eof()
                        raise ConnectionResetError("injected stream truncation")
                writer.write(f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n")
                await writer.drain()
                sent += len(chunk)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, OSError):
            # Disconnect mid-stream: stop feeding this consumer.  The
            # subscription dies with the queue; the job runs on.
            pass
        finally:
            stream_close = getattr(response.stream, "aclose", None)
            if stream_close is not None:
                try:
                    await stream_close()
                except Exception:  # repro: allow[REPRO-EXC] - generator teardown
                    pass
        return response.status, sent

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str,
        headers: dict | None = None,
    ) -> tuple[int, int]:
        return await self._send_response(
            writer,
            Response(status, {"error": message, "status": status}, headers or {}),
        )

    # ------------------------------------------------------------------
    def _log_access(
        self,
        request: Request | None,
        status: int,
        sent: int,
        duration: float,
        extra: dict | None = None,
        job=None,
    ) -> None:
        record = {
            "method": request.method if request else "-",
            "path": request.path if request else "-",
            "status": status,
            "api_key": request.api_key if request else "-",
            "bytes": sent,
            "duration_ms": round(duration * 1000, 3),
        }
        if job is not None:
            # The worker lane that took the job (null while it is queued),
            # so per-worker behaviour is greppable.
            record["job_id"] = job.id
            record["job_lane"] = job.lane
        if extra:
            record.update(extra)
        access_log.info(json.dumps(record, default=str))

    def server_stats(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "uptime_seconds": (
                round(time.monotonic() - self.started_at, 3)
                if self.started_at is not None
                else 0.0
            ),
            "requests_served": self.requests_served,
            "connections_open": self.connections_open,
            "draining": self.drain.draining,
        }
