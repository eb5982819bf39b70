"""Job-oriented execution: submit → stream/await → result | cancel.

The blocking ``Engine.run(task)`` answer-or-nothing surface becomes a *job*
lifecycle:

* :meth:`Engine.submit` enqueues a task and immediately returns a
  :class:`Job` handle;
* the engine-owned :class:`ShardedJobExecutor` keeps one priority queue
  (highest :attr:`Job.priority` first, FIFO among equals) served by a fixed
  set of worker threads.  The concurrency-safety invariant is the *code
  claim*: whoever executes a task holds its code's claim for the whole
  execution, so two executions that could touch the same
  :class:`~repro.smt.interface.SolveSession` never overlap, while jobs on
  unrelated codes run concurrently.  The claims belong to the engine's
  :class:`~repro.api.resources.ResourceManager`, next to the code contexts
  they protect, and the queue shares its lock;
* every observable step is emitted as a typed event
  (:mod:`repro.api.events`): replayable, so a subscriber attached after the
  fact still sees the whole stream, ending in exactly one terminal event;
* :meth:`Job.cancel` and per-job deadlines propagate into the solver hot
  path as a :class:`~repro.smt.solver.SolveControl` — a running solve call
  stops within one budget slice, the session backtracks to level 0 and stays
  reusable, and the engine retires the cancelled task's guarded formula from
  the shared :class:`~repro.api.resources.CodeContext` instead of leaking it.

``Job.result()`` blocks (``Job.events()`` streams); the HTTP service in
:mod:`repro.service.routes` bridges the same handles onto its event loop
through :meth:`Job.snapshot` and :meth:`Job.subscribe`.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import queue
import threading
import time
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator

from repro import faults
from repro.api.events import (
    Event,
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobSubmitted,
    SolverStats,
)
from repro.smt.solver import SolveControl, SolverInterrupted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import Engine
    from repro.api.result import Result

__all__ = [
    "Job",
    "JobCancelledError",
    "JobStatus",
    "ShardedJobExecutor",
]


log = logging.getLogger("repro.jobs")

#: Deterministic precedence for racing cancel reasons: an explicit user
#: cancel outranks a deadline/budget stop, which outranks a drain.  Whatever
#: order a ``DELETE /jobs/<id>`` and a SIGTERM drain reach the same job in,
#: the terminal event carries the same reason.
_REASON_PRECEDENCE = {"shutdown": 1, "deadline": 2, "budget": 2, "cancelled": 3}


class JobStatus(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.SUCCEEDED, JobStatus.CANCELLED, JobStatus.FAILED)


class JobCancelledError(RuntimeError):
    """Raised by :meth:`Job.result` when the job was cancelled.

    ``reason`` mirrors the terminal :class:`~repro.api.events.JobCancelled`
    event: ``"cancelled"`` (explicit), ``"deadline"``, ``"budget"`` or
    ``"shutdown"``.
    """

    def __init__(self, job_id: str, reason: str):
        super().__init__(f"{job_id} cancelled ({reason})")
        self.job_id = job_id
        self.reason = reason


class Job:
    """A handle on one submitted task: await, stream, or cancel it.

    Thread-safe: the executor mutates status and emits events from its
    dispatcher thread while any number of caller threads (or the service's
    event loop) observe.  Event subscribers get the full
    replay first, then live events, and the stream always ends with exactly
    one terminal event.
    """

    def __init__(
        self,
        job_id: str,
        task,
        *,
        priority: int = 0,
        deadline: float | None = None,
        backend=None,
    ):
        self.id = job_id
        self.task = task
        self.priority = priority
        self.deadline = deadline
        self.backend = backend
        #: index of the worker thread that took the job (None while queued).
        self.lane: int | None = None
        self.status = JobStatus.PENDING
        self.submitted_at = time.monotonic()
        self._deadline_at = (
            self.submitted_at + deadline if deadline is not None else None
        )
        self._lock = threading.RLock()
        self._events: list[Event] = []
        self._subscribers: list[Callable[[Event], None]] = []
        self._done_callbacks: list[Callable[["Job"], None]] = []
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._result: "Result | None" = None
        self._error: BaseException | None = None
        self._cancel_reason = "cancelled"
        self._requested_reason = "cancelled"
        self._seq = 0

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def emit(self, event: Event) -> Event:
        """Stamp ``event`` with this job's id and next sequence number,
        record it, and fan it out to subscribers (in subscription order).

        A subscriber that raises is dropped rather than allowed to kill the
        dispatcher thread (e.g. an asyncio bridge whose event loop has
        already closed) — the stream itself, and every other subscriber,
        must survive a broken consumer.
        """
        with self._lock:
            event.job_id = self.id
            event.seq = self._seq
            self._seq += 1
            self._events.append(event)
            for subscriber in list(self._subscribers):
                try:
                    subscriber(event)
                except Exception:
                    log.warning(
                        "dropping broken subscriber on job %s", self.id, exc_info=True
                    )
                    try:
                        self._subscribers.remove(subscriber)
                    except ValueError:
                        pass
        return event

    def subscribe(self, callback: Callable[[Event], None], from_seq: int = 0) -> None:
        """Replay past events into ``callback``, then deliver live ones.

        Callbacks run on the emitting thread (the executor's dispatcher) and
        must be cheap — push to a queue, set a flag.  Subscribing to a
        finished job just replays; nothing is retained.  A callback that
        raises (during replay or live delivery) is dropped — same contract
        as :meth:`emit` — so a broken consumer can never wedge the stream.

        ``from_seq`` skips the replay of events below that sequence number —
        the resumption point for a consumer that already drained a
        :meth:`snapshot` and only needs what was emitted since.
        """
        with self._lock:
            for event in self._events[from_seq:]:
                try:
                    callback(event)
                except Exception:
                    log.warning(
                        "subscriber broke during replay on job %s",
                        self.id,
                        exc_info=True,
                    )
                    return
            if not self.status.terminal:
                self._subscribers.append(callback)

    def snapshot(self) -> tuple[list[Event], bool]:
        """Every event emitted so far plus whether the stream is complete.

        Taken atomically under the job lock: when the flag is True the list
        ends with the terminal event and no further events can follow, so a
        consumer can serve the whole stream from the copy without
        subscribing (the fast path for finished jobs); otherwise resume with
        ``subscribe(..., from_seq=len(events))`` — the replay-from-seq closes
        the gap between the snapshot and the subscription atomically.
        """
        with self._lock:
            return list(self._events), self.status.terminal

    def events(self, timeout: float | None = None) -> Iterator[Event]:
        """Iterate this job's event stream, blocking until the terminal event.

        ``timeout`` bounds the wait for each *next* event (raises
        ``queue.Empty`` on expiry); the default blocks indefinitely, which is
        safe because every job path ends in a terminal event.
        """
        feed: "queue.SimpleQueue[Event]" = queue.SimpleQueue()
        self.subscribe(feed.put)
        while True:
            event = feed.get(timeout=timeout)
            yield event
            if event.TERMINAL:
                return

    def add_done_callback(self, callback: Callable[["Job"], None]) -> None:
        """Run ``callback(job)`` once the job reaches a terminal state (or
        immediately when it already has)."""
        run_now = False
        with self._lock:
            if self.status.terminal:
                run_now = True
            else:
                self._done_callbacks.append(callback)
        if run_now:
            callback(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def cancel(self) -> "Job":
        """Request cancellation; a running solve stops within one control
        slice, a queued job never starts.  Idempotent; no-op once terminal."""
        self.request_cancel()
        return self

    def request_cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation, reporting whether the request was accepted.

        Returns ``True`` when the job was still live (it will end
        ``CANCELLED`` unless it wins the race to its own terminal state) and
        ``False`` when it had already reached a terminal state.  The check
        and the flag are under the job lock, so a ``DELETE`` racing the
        dispatcher's final transition gets a stable yes/no instead of
        surfacing dispatcher internals; repeated calls on a live job keep
        returning ``True`` (idempotent), and calls on a finished one keep
        returning ``False`` — the signal the service maps to 409.

        ``reason`` labels the eventual terminal event (``"cancelled"`` for a
        user cancel, ``"shutdown"`` for a drain); deadline and budget stops
        keep their own reasons.  When several requests race the same job,
        the highest-precedence reason wins (see ``_REASON_PRECEDENCE``)
        regardless of arrival order, so a drain racing a client cancel
        deterministically reports ``"cancelled"``.
        """
        with self._lock:
            if self.status.terminal:
                return False
            if not self._cancel.is_set() or _REASON_PRECEDENCE.get(
                reason, 2
            ) > _REASON_PRECEDENCE.get(self._requested_reason, 2):
                self._requested_reason = reason
            self._cancel.set()
            return True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    @property
    def cancel_reason(self) -> str:
        """Why the job was cancelled (meaningful once status is CANCELLED)."""
        return self._cancel_reason

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; returns False when the timeout expires."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> "Result":
        """The job's :class:`~repro.api.result.Result`.

        Blocks until the job finishes; raises :class:`TimeoutError` on
        expiry, :class:`JobCancelledError` for cancelled jobs, and re-raises
        the original exception for failed ones.
        """
        if not self._done.wait(timeout) and not self.status.terminal:
            # The terminal check closes the emit→_done.set() window: a caller
            # who just observed a terminal status (or terminal event) must be
            # able to read the result with timeout=0.
            raise TimeoutError(f"{self.id} still {self.status.value} after {timeout}s")
        if self.status is JobStatus.CANCELLED:
            raise JobCancelledError(self.id, self._cancel_reason)
        if self.status is JobStatus.FAILED:
            raise self._error
        return self._result

    # Executor-facing transitions -------------------------------------
    def _mark_running(self) -> None:
        with self._lock:
            self.status = JobStatus.RUNNING

    def _finish(self, status: JobStatus, terminal_event: Event) -> None:
        with self._lock:
            if self.status.terminal:
                return
            self.status = status
            self.emit(terminal_event)
            self._subscribers.clear()
            callbacks = list(self._done_callbacks)
            self._done_callbacks.clear()
        self._done.set()
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                # A broken consumer must not unwind the dispatcher; the
                # terminal state is already published via _done.
                log.warning("done-callback raised on job %s", self.id, exc_info=True)

    def _finish_completed(self, result: "Result") -> None:
        self._result = result
        details = result.details if isinstance(result.details, dict) else {}
        resumed_from = details.get("resumed_from")
        self._finish(
            JobStatus.SUCCEEDED,
            JobCompleted(
                verified=result.verified,
                elapsed_seconds=result.elapsed_seconds,
                resumed_from=resumed_from if isinstance(resumed_from, dict) else None,
            ),
        )

    def _finish_cancelled(self, reason: str) -> None:
        # A flag-driven stop reports the generic "cancelled"; substitute the
        # reason the cancel requester asked for (e.g. a drain's "shutdown").
        if reason == "cancelled":
            reason = self._requested_reason
        self._cancel_reason = reason
        self._finish(JobStatus.CANCELLED, JobCancelled(reason=reason))

    def _finish_failed(self, error: BaseException, reason: str = "") -> None:
        self._error = error
        self._finish(
            JobStatus.FAILED,
            JobFailed(error=f"{type(error).__name__}: {error}", reason=reason),
        )

    def control(self) -> SolveControl:
        """The solve control carrying this job's deadline and cancel flag."""
        return SolveControl(deadline=self._deadline_at, cancelled=self._cancel.is_set)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.id!r}, {self.task!r}, status={self.status.value})"


class ShardedJobExecutor:
    """One priority queue served by ``lanes`` worker threads.

    A worker takes the highest-priority queued job (FIFO among equals) whose
    code nobody has claimed, and holds that code's claim until the job is
    terminal (see :meth:`Engine.run <repro.api.engine.Engine.run>`, which
    claims the same way).  Jobs on one code therefore run one at a time in
    priority order, and jobs on different codes never wait on each other.
    The queue shares the lock of the engine's
    :class:`~repro.api.resources.ResourceManager`, which owns the claims, so
    taking a job and claiming its code are one step.  Idle workers wait on
    their own condition, so a submission, or a claim released while jobs are
    queued, wakes one worker rather than every thread waiting on a claim.

    Worker threads are named ``repro-lane-<i>`` and start on the first
    submission; ``lanes=1`` gives one serial dispatcher.
    """

    def __init__(self, engine: "Engine", lanes: int = 4, autostart: bool = True):
        self.engine = engine
        self.resources = engine.resources
        self.autostart = autostart
        self.lanes = max(1, int(lanes))
        # The lock that guards the code claims also guards the queue and the
        # shutdown flag: a submission that loses the race with shutdown
        # raises before emitting JobSubmitted, and one that wins is queued
        # before the drain sweeps.
        self._lock = engine.resources._lock
        self._work = threading.Condition(self._lock)
        self._queue: list[tuple[int, int, Job]] = []
        self._counter = itertools.count()
        self._shutdown = False
        self._threads: list[threading.Thread | None] = [None] * self.lanes
        #: the job each worker runs; the crash supervisor fails it.
        self._current: list[Job | None] = [None] * self.lanes
        self._completed = [0] * self.lanes
        self._busy = [0.0] * self.lanes
        self._fault = faults.hook("lane")
        #: worker threads the supervisor replaced after a crash (stats).
        self.lane_crashes = 0

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        with self._lock:
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            job.emit(
                JobSubmitted(
                    task_kind=getattr(type(job.task), "kind", type(job.task).__name__),
                    subject=getattr(job.task, "subject", ""),
                    priority=job.priority,
                    deadline=job.deadline,
                )
            )
            bisect.insort(self._queue, (-job.priority, next(self._counter), job))
            self._work.notify()
        if self.autostart:
            self.start()
        return job

    def start(self) -> None:
        """Start every worker thread that is not running."""
        with self._lock:
            for lane, thread in enumerate(self._threads):
                if thread is None or not thread.is_alive():
                    thread = threading.Thread(
                        target=self._lane_main,
                        args=(lane,),
                        name=f"repro-lane-{lane}",
                        daemon=True,
                    )
                    self._threads[lane] = thread
                    thread.start()

    def wake(self) -> None:
        """Wake one idle worker if jobs are queued (a claim was released)."""
        with self._lock:
            if self._queue:
                self._work.notify()

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict:
        """Per-worker counters and the queue depth, for ``/stats``."""
        rows = [
            {
                "lane": lane,
                "jobs_completed": self._completed[lane],
                "busy_seconds": round(self._busy[lane], 6),
            }
            for lane in range(self.lanes)
        ]
        return {"lanes": rows, "queue_depth": self.pending()}

    # ------------------------------------------------------------------
    def _lane_main(self, lane: int) -> None:
        """Worker thread entry point: run the dispatch loop under supervision.

        ``_loop`` only exits via a ``BaseException`` (the per-job
        ``except Exception`` guard already maps ordinary task errors to
        ``JobFailed`` without killing the thread), so anything that reaches
        here is a lane *crash* — an injected ``InjectedLaneCrash``, a broken
        transition, interpreter shutdown — and must not strand the job's
        claim or the queue.
        """
        try:
            self._loop(lane)
        # repro: allow[REPRO-EXC] - handed to the supervisor, which logs+counts
        except BaseException as error:  # noqa: BLE001 - supervised crash path
            self._supervise_crash(lane, error)

    def _supervise_crash(self, lane: int, error: BaseException) -> None:
        """Contain a dead worker thread so the queue keeps making progress.

        The in-flight job fails with a typed ``JobFailed(reason="lane_crash")``
        (the task itself may be fine — clients distinguish infrastructure
        death from task errors and may resubmit under a fresh idempotency
        key); the job's code context, which the dead thread may have
        poisoned, is quarantined rather than saved warm, and only then is
        the code's claim released.  A fresh thread replaces the dead one;
        queued jobs run without resubmission.
        """
        job = self._current[lane]
        self._current[lane] = None
        self.lane_crashes += 1
        log.error(
            "lane %d crashed (%s: %s); supervisor restarting it",
            lane,
            type(error).__name__,
            error,
        )
        if job is not None:
            if not job.status.terminal:
                job._finish_failed(
                    RuntimeError(
                        f"lane {lane} crashed mid-job: "
                        f"{type(error).__name__}: {error}"
                    ),
                    reason="lane_crash",
                )
            try:
                self.resources.quarantine_task(job.task)
            except Exception as discard_error:  # noqa: BLE001 - best effort
                log.warning("context quarantine failed: %s", discard_error)
            self.resources.release(self.resources.claim_key(job.task))
        if not self._shutdown:
            with self._lock:
                # This (dying) thread is still alive while the supervisor
                # runs, so start()'s is_alive() check would keep it; detach
                # it first.
                self._threads[lane] = None
            self.start()

    def _take(self, lane: int) -> Job | None:
        """Dequeue the highest-priority job whose code is unclaimed, claiming
        its code for ``lane``; None when every queued code is claimed."""
        with self._lock:
            for index, (_, _, job) in enumerate(self._queue):
                if self.resources.try_claim(self.resources.claim_key(job.task)):
                    del self._queue[index]
                    job.lane = lane
                    self._current[lane] = job
                    return job
            return None

    def _loop(self, lane: int) -> None:
        while True:
            with self._lock:
                job = self._take(lane)
                while job is None:
                    if self._shutdown:
                        return
                    self._work.wait()
                    job = self._take(lane)
            try:
                self._run_job(job, lane)
            # repro: allow[REPRO-EXC] - failure published via JobFailed
            except Exception as error:  # noqa: BLE001 - worker must survive
                job._finish_failed(error)
            # Deliberately not a finally: on a BaseException (lane crash)
            # ``_current`` must stay set so the supervisor can fail the
            # in-flight job and free its code; both non-crash paths get here.
            self._current[lane] = None
            self.resources.release(self.resources.claim_key(job.task))

    def _run_job(self, job: Job, lane: int) -> None:
        control = job.control()
        reason = control.interrupted()
        if reason is not None:
            job._finish_cancelled(reason)
            return
        job._mark_running()
        if self._fault is not None and self._fault.fire("crash", job.id) is not None:
            # Before engine._execute, so no session is mid-transaction; the
            # supervisor still quarantines the context and frees the claim.
            raise faults.InjectedLaneCrash(f"injected crash on lane {lane}")

        def emit(event):
            # Stamp solver-phase events with the worker that ran them; the
            # engine emits them lane-agnostically.
            if isinstance(event, SolverStats) and event.lane < 0:
                event.lane = lane
            return job.emit(event)

        started = time.perf_counter()

        def account() -> None:
            # Settle the worker counters BEFORE the terminal event publishes:
            # a client that just read JobCompleted off the wire must see a
            # /stats lane table that already includes this job.
            self._busy[lane] += time.perf_counter() - started
            self._completed[lane] += 1

        try:
            result = self.engine._execute(
                job.task,
                self.engine.coerce(job.backend),
                control=control,
                emit=emit,
            )
        except SolverInterrupted as interrupt:
            # Still under the claim, so no eviction can have dropped this
            # job's context; the lookup never creates one.
            self.engine.release_task(job.task)
            account()
            job._finish_cancelled(interrupt.reason)
        # repro: allow[REPRO-EXC] - failure published via JobFailed
        except Exception as error:  # noqa: BLE001 - job boundary
            account()
            job._finish_failed(error)
        else:
            account()
            job._finish_completed(result)

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs, cancel everything queued, optionally join.

        In-flight jobs (one per busy worker) run to completion — interrupting
        them is the caller's business via :meth:`Job.cancel` beforehand.
        """
        with self._lock:
            self._shutdown = True
            drained = [job for _, _, job in self._queue]
            self._queue.clear()
            self._work.notify_all()
        for job in drained:
            job._finish_cancelled("shutdown")
        if wait:
            me = threading.current_thread()
            for thread in list(self._threads):
                if thread is not None and thread.is_alive() and thread is not me:
                    thread.join()
