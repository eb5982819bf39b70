"""A blocking stdlib client for the verification service.

Built on :mod:`http.client` (which transparently decodes chunked transfer
encoding, so the NDJSON event stream reads as a plain line iterator).  This
is the client the test suite and the ``service-mixed`` benchmark workload
(``perfbench/service.py``) drive; it is also a reasonable starting point for
real integrations that do not want an async stack::

    client = ServiceClient("127.0.0.1", 8080, api_key="team-a")
    job = client.submit({"kind": "correction", "code": "steane"})
    for event in client.events(job["id"]):
        ...
    final = client.job(job["id"])

Non-2xx responses raise :class:`ServiceError` carrying the HTTP status and
the server's JSON error payload (including ``Retry-After`` for 429s), so
callers can implement back-off without parsing anything themselves.

With ``retries > 0`` the client implements the back-off itself: capped
exponential delays with deterministic jitter (seeded per client, so test
runs are reproducible), automatic ``Retry-After`` honoring on 429/503, and
transport-error retries.  A POST is only retried when it carries an
``X-Idempotency-Key`` — :meth:`submit` generates one automatically for a
retrying client — which the server dedupes against its job registry, so a
response lost after the job was created can never double-run the task.
:meth:`events` reconnects a broken stream and resumes from the last seen
``seq`` via the server's replay, deduplicating instead of restarting.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import uuid
from typing import Iterator

__all__ = ["ServiceClient", "ServiceError"]

#: Event types that end a job's stream (mirrors ``Event.TERMINAL`` in
#: ``repro.api.events`` — hardcoded so the client stays dependency-free).
_TERMINAL_EVENTS = frozenset({"JobCompleted", "JobCancelled", "JobFailed"})

#: Transport-layer failures worth retrying: connection loss and HTTP framing
#: breaks (``IncompleteRead`` is a truncated chunked stream, ``BadStatusLine``
#: a server that closed mid-response).
_TRANSPORT_ERRORS = (ConnectionError, OSError, http.client.HTTPException)


class ServiceError(Exception):
    """A non-2xx service response."""

    def __init__(self, status: int, payload: dict, headers: dict[str, str]):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        self.headers = headers

    @property
    def retry_after(self) -> float | None:
        value = self.headers.get("retry-after")
        return float(value) if value is not None else None


class ServiceClient:
    """One service endpoint; by default a fresh connection per request (the
    server closes after each response).  With ``keep_alive=True`` the client
    asks the server for a persistent connection and ``submit_stream`` pumps
    every job through one socket — the cheap path for high-rate dispatch.
    A keep-alive client is NOT thread-safe (one live socket); use one client
    per thread, and fully consume each event stream before the next submit.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        api_key: str | None = None,
        timeout: float = 60.0,
        keep_alive: bool = False,
        retries: int = 0,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: int = 0,
    ):
        self.host = host
        self.port = port
        self.api_key = api_key
        self.timeout = timeout
        self.keep_alive = keep_alive
        #: extra attempts after the first (0 preserves the historical
        #: fail-fast behaviour: a 429 raises immediately).
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)
        # Deterministic jitter: same seed → same delay sequence, so chaos
        # tests replay identically while concurrent clients (different
        # seeds) still decorrelate their retries.
        self._retry_rng = random.Random(retry_seed)
        self._conn: http.client.HTTPConnection | None = None
        self._conn_clean = True  # previous response fully drained?

    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _persistent(self) -> http.client.HTTPConnection:
        if not self._conn_clean:
            self._drop_persistent()
        if self._conn is None:
            self._conn = self._connect()
            self._conn_clean = True
        return self._conn

    def _drop_persistent(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:  # repro: allow[REPRO-EXC] - socket teardown
                pass
            self._conn = None
        self._conn_clean = True

    def close(self) -> None:
        """Release the persistent connection (no-op without keep_alive)."""
        self._drop_persistent()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key is not None:
            headers["X-API-Key"] = self.api_key
        if self.keep_alive:
            headers["Connection"] = "keep-alive"
        return headers

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential delay with deterministic jitter in [50%, 100%]."""
        base = min(self.backoff_cap, self.backoff * (2 ** attempt))
        return base * (0.5 + 0.5 * self._retry_rng.random())

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """A request/response cycle; raises :class:`ServiceError` on non-2xx.

        With ``retries > 0`` this is a retry loop: 429/503 responses are
        retried after their ``Retry-After`` (capped at ``backoff_cap``, the
        jittered backoff when absent); transport errors are retried for
        idempotent calls — GET/DELETE always, POST only when ``headers``
        carries an ``X-Idempotency-Key`` the server can dedupe on.  Other
        errors (4xx semantics, exhausted budget) raise as before.
        """
        idempotent = method in ("GET", "DELETE") or bool(
            headers and "X-Idempotency-Key" in headers
        )
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body, headers)
            except ServiceError as error:
                if attempt >= self.retries or error.status not in (429, 503):
                    raise
                delay = error.retry_after
                if delay is None:
                    delay = self._backoff_delay(attempt)
                else:
                    delay = min(max(delay, 0.0), self.backoff_cap)
            except _TRANSPORT_ERRORS:
                if attempt >= self.retries or not idempotent:
                    raise
                delay = self._backoff_delay(attempt)
            attempt += 1
            time.sleep(delay)

    def _request_once(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        conn = self._connect()
        try:
            conn.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers={**self._headers(), **(headers or {})},
            )
            response = conn.getresponse()
            raw = response.read()
            payload = json.loads(raw) if raw else {}
            if not 200 <= response.status < 300:
                raise ServiceError(
                    response.status,
                    payload,
                    {k.lower(): v for k, v in response.getheaders()},
                )
            return payload
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def submit(
        self,
        task: dict,
        *,
        priority: int | None = None,
        lane: str | None = None,
        deadline: float | None = None,
        idempotency_key: str | None = None,
    ) -> dict:
        """``POST /jobs``; returns the job descriptor (``id``, ``events``...).

        A retrying client (``retries > 0``) attaches an ``X-Idempotency-Key``
        — the given one, or a generated UUID — so a resubmission after a
        lost response returns the original job (descriptor carries
        ``"deduplicated": true``) instead of running the task twice.
        """
        body: dict = {"task": task}
        if priority is not None:
            body["priority"] = priority
        if lane is not None:
            body["lane"] = lane
        if deadline is not None:
            body["deadline"] = deadline
        if idempotency_key is None and self.retries:
            idempotency_key = uuid.uuid4().hex
        headers = {"X-Idempotency-Key": idempotency_key} if idempotency_key else None
        return self.request("POST", "/jobs", body, headers=headers)

    def submit_stream(
        self,
        task: dict,
        *,
        priority: int | None = None,
        lane: str | None = None,
        deadline: float | None = None,
        raw: bool = False,
    ) -> tuple[str, Iterator[dict | str]]:
        """``POST /jobs`` with ``"stream": true``: submit and consume the
        job's event stream on ONE connection.

        Returns ``(job_id, events)`` where ``events`` yields one event per
        NDJSON line until the terminal event; the job id comes from the
        ``X-Job-Id`` response header.  This halves the connection count of
        the submit-then-``events()`` pattern.  With ``keep_alive=True`` the
        same socket is reused across calls (chunked streams are
        self-delimiting), dropping the per-job connection cost to zero —
        but each stream must be fully consumed before the next submit.
        """
        body: dict = {"task": task, "stream": True}
        if priority is not None:
            body["priority"] = priority
        if lane is not None:
            body["lane"] = lane
        if deadline is not None:
            body["deadline"] = deadline
        payload_bytes = json.dumps(body)
        persistent = self.keep_alive
        conn: http.client.HTTPConnection
        response = None
        # A pooled socket may have gone stale (server closed it between
        # calls); retry exactly once on a fresh connection.
        for attempt in (0, 1):
            conn = self._persistent() if persistent else self._connect()
            if persistent:
                self._conn_clean = False
            try:
                conn.request(
                    "POST", "/jobs", body=payload_bytes, headers=self._headers()
                )
                response = conn.getresponse()
                if persistent and attempt == 0 and response.status == 408:
                    # An idle pooled socket the server had already timed out:
                    # that buffered 408 answers the PREVIOUS idle period, not
                    # this request.  Resubmit on a fresh connection.
                    self._drop_persistent()
                    continue
                break
            except (
                http.client.BadStatusLine,
                http.client.CannotSendRequest,
                ConnectionError,
                OSError,
            ):
                if persistent:
                    self._drop_persistent()
                else:
                    conn.close()
                if not persistent or attempt:
                    raise
        assert response is not None
        if response.status != 201:
            raw_body = response.read()
            payload = json.loads(raw_body) if raw_body else {}
            if persistent:
                # Error bodies are Connection: close — start fresh next time.
                self._drop_persistent()
            else:
                conn.close()
            raise ServiceError(
                response.status,
                payload,
                {k.lower(): v for k, v in response.getheaders()},
            )
        job_id = response.getheader("X-Job-Id", "")

        def lines() -> Iterator[dict | str]:
            drained = False
            try:
                for line in response:
                    line = line.strip()
                    if not line:
                        continue
                    yield line.decode() if raw else json.loads(line)
                drained = True
            finally:
                if persistent:
                    if drained and not response.isclosed():
                        response.close()  # releases the conn for reuse
                        self._conn_clean = True
                    elif drained and response.isclosed():
                        self._conn_clean = True
                    else:
                        self._drop_persistent()
                else:
                    conn.close()

        return job_id, lines()

    def job(self, job_id: str) -> dict:
        return self.request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self.request("DELETE", f"/jobs/{job_id}")

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    # ------------------------------------------------------------------
    def events(
        self,
        job_id: str,
        *,
        raw: bool = False,
        reconnects: int | None = None,
    ) -> Iterator[dict | str]:
        """Stream ``GET /jobs/<id>/events``: yields one event per NDJSON
        line until the terminal event closes the stream.  ``raw=True`` yields
        the undecoded JSON lines (what ``validate-events`` consumes).

        A stream broken mid-flight (reset, truncated chunking) is
        reconnected up to ``reconnects`` times (default: the client's
        ``retries``) and *resumed*: the server replays the whole stream, and
        the client skips every event at or below the last ``seq`` it already
        delivered — the consumer sees each event exactly once, in order,
        regardless of how many reconnects happened underneath.
        """
        if reconnects is None:
            reconnects = self.retries
        last_seq = -1
        failures = 0
        while True:
            try:
                for line in self._event_lines_once(job_id):
                    text = line.decode()
                    try:
                        event = json.loads(text)
                    except ValueError:
                        if raw:
                            yield text  # pass malformed lines through verbatim
                            continue
                        raise
                    seq = event.get("seq") if isinstance(event, dict) else None
                    if isinstance(seq, int):
                        if seq <= last_seq:
                            continue  # replayed prefix after a reconnect
                        last_seq = seq
                    yield text if raw else event
                    if isinstance(event, dict) and event.get("event") in _TERMINAL_EVENTS:
                        return
                # EOF without a terminal event: every job stream ends with
                # one, so this is a break the transport failed to surface (a
                # reset can land before the first chunk and read as a clean
                # empty body).  Treat it exactly like a transport error.
                raise ConnectionError(
                    f"event stream for {job_id} ended without a terminal event"
                )
            except _TRANSPORT_ERRORS:
                if failures >= reconnects:
                    raise
                time.sleep(self._backoff_delay(failures))
                failures += 1

    def _event_lines_once(self, job_id: str) -> Iterator[bytes]:
        """One physical ``GET .../events`` connection's stripped NDJSON lines."""
        conn = self._connect()
        try:
            conn.request("GET", f"/jobs/{job_id}/events", headers=self._headers())
            response = conn.getresponse()
            if response.status != 200:
                raw_body = response.read()
                payload = json.loads(raw_body) if raw_body else {}
                raise ServiceError(
                    response.status,
                    payload,
                    {k.lower(): v for k, v in response.getheaders()},
                )
            for line in response:
                line = line.strip()
                if line:
                    yield line
        finally:
            conn.close()
