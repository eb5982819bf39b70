"""Graceful drain: stop accepting, finish or cancel in-flight, exit clean.

On SIGTERM (or a programmatic :meth:`DrainCoordinator.begin_drain`) the
service flips from *serving* to *draining*:

* new ``POST /jobs`` are refused with 503 (read-only routes keep working, so
  health checks and event-stream consumers see the drain through);
* in-flight jobs get up to ``grace`` seconds to finish on their own;
* whatever is still live after the grace window is cancelled with reason
  ``"shutdown"`` — the same terminal :class:`~repro.api.events.JobCancelled`
  event a queued job receives when the executor shuts down, so every
  subscribed stream still ends with exactly one terminal event;
* the coordinator then waits (briefly) for those cancellations to land, so
  no job is left non-terminal when the server task returns.

The coordinator only tracks jobs the *server* created; an engine shared with
other code keeps its other jobs untouched.  It is also the service's job
registry behind ``GET /jobs/<id>`` and idempotent ``POST /jobs`` replay:
every live job stays, finished ones are forgotten oldest-finished first
beyond :data:`KEPT_FINISHED_JOBS`, each with its idempotency key.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.jobs import Job

__all__ = ["DrainCoordinator", "KEPT_FINISHED_JOBS"]

#: Finished jobs the registry keeps (most recently finished first).
KEPT_FINISHED_JOBS = 256


class DrainCoordinator:
    """Tracks server-owned jobs and orchestrates the drain sequence.

    Used from the event loop only, except for the done-callbacks that
    append to ``_finished`` (a deque, safe to append from any thread).
    """

    def __init__(self) -> None:
        self._jobs: dict[str, "Job"] = {}
        #: X-Idempotency-Key -> job id: a POST retried after a lost
        #: response returns the original job instead of running it twice.
        self._idempotency: dict[str, str] = {}
        #: (job id, idempotency key) of finished jobs, in finishing order.
        self._finished: deque[tuple[str, str]] = deque()
        self._draining = False
        self._drained = asyncio.Event()

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def track(self, job: "Job", idempotency_key: str = "") -> None:
        self._jobs[job.id] = job
        if idempotency_key:
            self._idempotency[idempotency_key] = job.id
        job.add_done_callback(
            lambda done: self._finished.append((done.id, idempotency_key))
        )
        while len(self._finished) > KEPT_FINISHED_JOBS:
            job_id, key = self._finished.popleft()
            self._jobs.pop(job_id, None)
            if key and self._idempotency.get(key) == job_id:
                del self._idempotency[key]

    def get(self, job_id: str) -> "Job | None":
        return self._jobs.get(job_id)

    def replay(self, idempotency_key: str) -> "Job | None":
        """The job an earlier POST with this idempotency key created, while
        the registry still keeps it."""
        job_id = self._idempotency.get(idempotency_key)
        return self._jobs.get(job_id) if job_id is not None else None

    def jobs(self) -> list["Job"]:
        return list(self._jobs.values())

    def live_jobs(self) -> list["Job"]:
        return [job for job in self._jobs.values() if not job.status.terminal]

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.status.value] = counts.get(job.status.value, 0) + 1
        return counts

    # ------------------------------------------------------------------
    async def begin_drain(self, grace: float = 10.0) -> dict:
        """Run the drain sequence; returns a summary for the final log line.

        Idempotent: a second call (second SIGTERM) just awaits the first
        drain's completion.
        """
        if self._draining:
            await self._drained.wait()
            return {"finished": 0, "cancelled": 0, "repeat": True}
        self._draining = True
        deadline = time.monotonic() + max(0.0, grace)

        # Phase 1: let in-flight work finish within the grace window.  Job
        # completion happens on the dispatcher thread; poll rather than
        # bridge callbacks, since the set shrinks monotonically and the
        # window is short.
        while time.monotonic() < deadline:
            live = self.live_jobs()
            if not live:
                break
            await asyncio.sleep(min(0.05, max(0.0, deadline - time.monotonic())))

        # Phase 2: cancel stragglers with the shutdown reason.  A queued job
        # flips terminal at dispatch; a running one stops within a control
        # slice.
        stragglers = self.live_jobs()
        for job in stragglers:
            job.request_cancel(reason="shutdown")

        # Phase 3: wait for the cancellations to land so every stream has
        # flushed its terminal event before the server exits.  Bounded: a
        # solver slice is sub-second, so a stuck job here is a bug we'd
        # rather surface as a slow-but-clean exit than hang on.
        flush_deadline = time.monotonic() + 30.0
        for job in stragglers:
            remaining = flush_deadline - time.monotonic()
            if remaining <= 0:
                break
            await asyncio.get_running_loop().run_in_executor(
                None, job.wait, remaining
            )

        shutdown_cancelled = sum(
            1
            for job in stragglers
            if job.status.terminal and job.cancel_reason == "shutdown"
        )
        terminal = sum(1 for job in self._jobs.values() if job.status.terminal)
        summary = {
            "finished": terminal - shutdown_cancelled,
            "cancelled": shutdown_cancelled,
            "orphaned": len(self.live_jobs()),
        }
        self._drained.set()
        return summary
