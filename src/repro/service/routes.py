"""HTTP routes: the verification job lifecycle as resources.

============================  =============================================
``POST   /jobs``              submit a task spec → 201 + job descriptor
``GET    /jobs/<id>``         job status (and result once succeeded)
``GET    /jobs/<id>/events``  chunked NDJSON event stream (replay + live)
``DELETE /jobs/<id>``         cancel: 202 accepted, 409 already terminal
``GET    /healthz``           liveness/drain probe
``GET    /stats``             server, admission, job and engine counters
============================  =============================================

The ``POST /jobs`` body is ``{"task": {...}, "priority"?: int,
"lane"?: str, "deadline"?: seconds, "stream"?: bool}`` where the task spec
is decoded by :func:`repro.api.tasks.task_from_dict` — malformed specs are
400s, never 500s.  ``lane`` names a priority lane (``batch`` < ``normal`` <
``interactive``) mapped onto the dispatcher's numeric priorities; an
explicit ``priority`` overrides the lane.  With ``"stream": true`` the 201
response body is the job's NDJSON event stream itself (the job id travels
in the ``X-Job-Id`` header) — submit-and-stream on one connection instead
of a submit round-trip followed by a ``GET .../events`` connection.

The event stream's lines are exactly
:meth:`repro.api.events.Event.to_json` — the ``schema_version 1.0``
contract that ``python -m repro validate-events`` checks — so the wire
format is the already-pinned one, not a service-specific invention.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AsyncIterator

from repro.api.jobs import Job, JobCancelledError, JobStatus
from repro.api.tasks import task_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.server import VerificationService

__all__ = ["HttpError", "Request", "Response", "Router", "PRIORITY_LANES"]

#: Named priority lanes → dispatcher priorities.  Interactive work overtakes
#: the default lane, batch work yields to it.
PRIORITY_LANES = {"batch": -10, "normal": 0, "interactive": 10}

MAX_BODY_BYTES = 1 << 20  # a task spec is small; anything bigger is abuse


class HttpError(Exception):
    """An error with a definite HTTP status; the handler maps it to JSON."""

    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


@dataclass
class Request:
    method: str
    path: str
    headers: dict[str, str]  # keys lowercased
    body: bytes = b""

    @property
    def api_key(self) -> str:
        return self.headers.get("x-api-key", "anonymous")

    def json(self) -> dict:
        if not self.body:
            raise HttpError(400, "a JSON body is required")
        try:
            payload = json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "the request body must be a JSON object")
        return payload


@dataclass
class Response:
    status: int = 200
    payload: dict | None = None
    headers: dict[str, str] = field(default_factory=dict)
    #: streaming responses yield byte chunks instead of carrying a payload
    stream: AsyncIterator[bytes] | None = None
    #: extra fields merged into the access-log record
    log: dict = field(default_factory=dict)
    #: the job the request is about; the access log records its id and the
    #: worker lane that took it (read when the record is written)
    job: Job | None = None

    def body(self) -> bytes:
        if self.payload is None:
            return b""
        return (json.dumps(self.payload, default=str) + "\n").encode()


class Router:
    """Maps parsed requests onto the service's engine, admission and drain
    state.  Pure routing/marshalling: no socket handling lives here."""

    def __init__(self, service: "VerificationService"):
        self.service = service

    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return self.healthz()
        if path == "/stats" and method == "GET":
            return self.stats()
        if path == "/jobs" and method == "POST":
            return self.submit(request)
        if len(parts) == 2 and parts[0] == "jobs":
            if method == "GET":
                return self.job_status(parts[1])
            if method == "DELETE":
                return self.cancel(parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            if method == "GET":
                return self.job_events(parts[1])
        raise HttpError(404, f"no route for {method} {request.path}")

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Response:
        service = self.service
        idempotency_key = request.headers.get("x-idempotency-key", "")
        if idempotency_key:
            job = service.drain.replay(idempotency_key)
            if job is not None:
                # Replay, before admission and before the drain gate: the
                # first attempt already paid both, and a retry racing a
                # drain must still find the job it created.
                return Response(
                    201,
                    {
                        "id": job.id,
                        "status": job.status.value,
                        "priority": job.priority,
                        "deadline": job.deadline,
                        "task_kind": getattr(type(job.task), "kind", ""),
                        "events": f"/jobs/{job.id}/events",
                        "deduplicated": True,
                    },
                    job=job,
                    log={"deduplicated": True},
                )
        if service.drain.draining:
            raise HttpError(503, "draining: not accepting new jobs")
        payload = request.json()
        spec = payload.get("task")
        try:
            task = task_from_dict(spec)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc

        lane = payload.get("lane", "normal")
        if lane not in PRIORITY_LANES:
            raise HttpError(
                400, f"unknown lane {lane!r}; expected one of {sorted(PRIORITY_LANES)}"
            )
        # bool is an int subclass, and json.loads accepts NaN and Infinity.
        priority = payload.get("priority", PRIORITY_LANES[lane])
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise HttpError(400, "priority must be an integer")
        deadline = payload.get("deadline")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or isinstance(deadline, bool)
            or not math.isfinite(deadline) or deadline <= 0
        ):
            raise HttpError(400, "deadline must be a positive number of seconds")

        stream = payload.get("stream", False)
        if not isinstance(stream, bool):
            raise HttpError(400, "stream must be a boolean")

        api_key = request.api_key
        decision = service.admission.admit(api_key)
        if not decision.allowed:
            raise HttpError(
                429,
                f"rejected by admission control ({decision.cause})",
                headers={"Retry-After": str(max(1, math.ceil(decision.retry_after)))},
            )
        try:
            job = service.engine.submit(task, priority=priority, deadline=deadline)
        except Exception:
            service.admission.release(api_key)
            raise
        service.drain.track(job, idempotency_key)
        job.add_done_callback(lambda _job: service.admission.release(api_key))
        if stream:
            # Submit-and-stream: the event stream IS the response body, so a
            # client that wants the verdict pays one connection per job
            # instead of two.
            return Response(
                201,
                stream=self._event_stream(job),
                headers={
                    "Content-Type": "application/x-ndjson",
                    "X-Job-Id": job.id,
                },
                job=job,
            )
        return Response(
            201,
            {
                "id": job.id,
                "status": job.status.value,
                "priority": job.priority,
                "deadline": job.deadline,
                "task_kind": type(task).kind,
                "events": f"/jobs/{job.id}/events",
            },
            job=job,
        )

    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> Job:
        job = self.service.drain.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    def job_status(self, job_id: str) -> Response:
        job = self._job(job_id)
        status = job.status
        descriptor: dict = {
            "id": job.id,
            "status": status.value,
            "priority": job.priority,
            "task_kind": getattr(type(job.task), "kind", ""),
            "events": f"/jobs/{job.id}/events",
        }
        if status is JobStatus.SUCCEEDED:
            descriptor["result"] = job.result(timeout=0).to_dict()
        elif status is JobStatus.CANCELLED:
            descriptor["reason"] = job.cancel_reason
        elif status is JobStatus.FAILED:
            try:
                job.result(timeout=0)
            except JobCancelledError:  # pragma: no cover - cancelled is handled above
                pass
            # repro: allow[REPRO-EXC] - error reported in the descriptor
            except Exception as error:  # noqa: BLE001 - reporting, not handling
                descriptor["error"] = f"{type(error).__name__}: {error}"
        return Response(200, descriptor)

    def cancel(self, job_id: str) -> Response:
        job = self._job(job_id)
        if not job.request_cancel():
            # Already terminal (including an earlier DELETE that landed):
            # a stable 409, never a dispatcher-internal error.
            raise HttpError(
                409, f"{job.id} already terminal ({job.status.value})"
            )
        return Response(202, {"id": job.id, "status": "cancelling"})

    @staticmethod
    def _encode_events(events) -> bytes:
        return "".join(event.to_json() + "\n" for event in events).encode()

    def _event_stream(self, job: Job) -> AsyncIterator[bytes]:
        """The job's NDJSON event feed: replay first, then live events.

        Two wire optimisations over the naive one-callback-one-chunk loop:
        a *finished* job's history is served as a single pre-joined chunk
        with no subscription (and no per-event loop hops), and a live job's
        events are greedily coalesced — everything queued by the time the
        stream task wakes goes out as one chunk — so a fast solver doesn't
        pay one writer drain per event.
        """

        async def ndjson() -> AsyncIterator[bytes]:
            events, terminal = job.snapshot()
            if terminal:
                if events:
                    yield self._encode_events(events)
                return
            loop = asyncio.get_running_loop()
            feed: asyncio.Queue = asyncio.Queue()

            def _push(event) -> None:
                loop.call_soon_threadsafe(feed.put_nowait, event)

            # Subscribing from the snapshot boundary replays (under the
            # job's lock) anything emitted since, so no event is lost
            # between snapshot() and subscribe().
            job.subscribe(_push, from_seq=len(events))
            if events:
                yield self._encode_events(events)
            while True:
                batch = [await feed.get()]
                while True:
                    try:
                        batch.append(feed.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                yield self._encode_events(batch)
                if any(event.TERMINAL for event in batch):
                    return

        return ndjson()

    def job_events(self, job_id: str) -> Response:
        job = self._job(job_id)
        return Response(
            200,
            stream=self._event_stream(job),
            headers={"Content-Type": "application/x-ndjson"},
            job=job,
        )

    # ------------------------------------------------------------------
    def healthz(self) -> Response:
        draining = self.service.drain.draining
        return Response(
            503 if draining else 200,
            {"status": "draining" if draining else "ok"},
        )

    def stats(self) -> Response:
        service = self.service
        return Response(
            200,
            {
                "server": service.server_stats(),
                "admission": service.admission.stats(),
                "jobs": service.drain.counts(),
                "engine": service.engine.cache_info(),
                "resources": service.engine.resources.stats() or {},
            },
        )
