"""Job-oriented execution: submit → stream/await → result | cancel.

The blocking ``Engine.run(task)`` answer-or-nothing surface becomes a *job*
lifecycle:

* :meth:`Engine.submit` enqueues a task and immediately returns a
  :class:`Job` handle;
* the engine-owned :class:`ShardedJobExecutor` routes each job to a worker
  *lane* (one dispatcher thread + priority queue per lane, highest
  :attr:`Job.priority` first, FIFO among equals).  Lane assignment is the
  concurrency-safety invariant: every code (and every code *family*) maps
  to exactly one lane via the engine's
  :class:`~repro.api.resources.ResourceManager`, so two jobs that could
  touch the same :class:`~repro.smt.interface.SolveSession` always run on
  the same thread while jobs on unrelated codes run concurrently.
  :class:`JobExecutor` is the legacy single-lane dispatcher, equivalent to
  a one-lane sharded executor;
* every observable step is emitted as a typed event
  (:mod:`repro.api.events`): replayable, so a subscriber attached after the
  fact still sees the whole stream, ending in exactly one terminal event;
* :meth:`Job.cancel` and per-job deadlines propagate into the solver hot
  path as a :class:`~repro.smt.solver.SolveControl` — a running solve call
  stops within one budget slice, the session backtracks to level 0 and stays
  reusable, and the engine retires the cancelled task's guarded formula from
  the shared :class:`~repro.api.resources.CodeContext` instead of leaking it.

``Job.result()`` blocks (``Job.events()`` streams); the asyncio façade lives
in :mod:`repro.api.aio`.
"""

from __future__ import annotations

import heapq
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
    "JobExecutor",
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
    dispatcher thread while any number of caller threads (or event loops,
    through :mod:`repro.api.aio`) observe.  Event subscribers get the full
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
        #: worker lane the sharded executor routed this job to (None until
        #: submitted, and forever for the legacy single-lane dispatcher).
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


class JobExecutor:
    """Priority-ordered, single-dispatcher job runner owned by an engine.

    One daemon thread pops the highest-priority job and drives it through
    ``engine._execute`` with the job's :class:`SolveControl` and event
    emitter.  Serial execution is a feature: the engine's shared sessions
    and pools are not thread-safe, and multiplexing happens at the handle
    level (many pending jobs, streamed concurrently) rather than by racing
    solvers.
    """

    def __init__(self, engine: "Engine", autostart: bool = True):
        self.engine = engine
        self.autostart = autostart
        self._heap: list[tuple[int, int, Job]] = []
        self._counter = itertools.count()
        self._condition = threading.Condition()
        self._thread: threading.Thread | None = None
        self._shutdown = False
        self._current: Job | None = None

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        with self._condition:
            # The shutdown check precedes the JobSubmitted emission: a
            # submit that loses the race with shutdown() must raise without
            # having started an event stream that can never reach its
            # terminal event.
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            job.emit(
                JobSubmitted(
                    task_kind=getattr(type(job.task), "kind", type(job.task).__name__),
                    subject=getattr(
                        job.task, "code_name", getattr(job.task, "subject", "")
                    ),
                    priority=job.priority,
                    deadline=job.deadline,
                )
            )
            heapq.heappush(self._heap, (-job.priority, next(self._counter), job))
            self._condition.notify()
        if self.autostart:
            self.start()
        return job

    def start(self) -> None:
        with self._condition:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name="repro-dispatch", daemon=True
                )
                self._thread.start()

    def pending(self) -> int:
        with self._condition:
            return len(self._heap)

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._condition:
                while not self._heap and not self._shutdown:
                    self._condition.wait()
                if self._shutdown and not self._heap:
                    return
                _, _, job = heapq.heappop(self._heap)
                self._current = job
            try:
                self._run_job(job)
            # repro: allow[REPRO-EXC] - failure published via JobFailed
            except Exception as error:  # noqa: BLE001 - dispatcher must survive
                # _run_job already maps execution errors to JobFailed; this
                # guards the transition plumbing itself so one broken job
                # can never kill the dispatcher and strand the queue.
                job._finish_failed(error)
            finally:
                self._current = None

    def _run_job(self, job: Job) -> None:
        control = job.control()
        reason = control.interrupted()
        if reason is not None:
            # Cancelled (or expired) while still queued: never run it.
            job._finish_cancelled(reason)
            return
        job._mark_running()
        try:
            result = self.engine._execute(
                job.task,
                self.engine.coerce(job.backend),
                control=control,
                emit=job.emit,
            )
        except SolverInterrupted as interrupt:
            # Release the cancelled task's guarded formula so the shared
            # context does not accumulate clauses for a job that will never
            # be re-selected; the session itself stays live and reusable.
            self.engine.release_task(job.task)
            job._finish_cancelled(interrupt.reason)
        # repro: allow[REPRO-EXC] - failure published via JobFailed
        except Exception as error:  # noqa: BLE001 - job boundary
            job._finish_failed(error)
        else:
            job._finish_completed(result)

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs, cancel everything queued, optionally join.

        The in-flight job (if any) runs to completion — interrupting it is
        the caller's business via :meth:`Job.cancel` before shutting down.
        """
        with self._condition:
            self._shutdown = True
            drained = [job for _, _, job in self._heap]
            self._heap.clear()
            self._condition.notify_all()
        for job in drained:
            job._finish_cancelled("shutdown")
        if wait and self._thread is not None and self._thread.is_alive():
            if threading.current_thread() is not self._thread:
                self._thread.join()


class _Lane:
    """One worker lane: a priority heap, its condition, and its thread."""

    def __init__(self, lane_id: int):
        self.id = lane_id
        self.heap: list[tuple[int, int, Job]] = []
        self.counter = itertools.count()
        self.condition = threading.Condition()
        self.thread: threading.Thread | None = None
        self.current: Job | None = None


class ShardedJobExecutor:
    """Hash-sharded job runner: one dispatcher thread + queue per lane.

    Routing is delegated to the engine's
    :class:`~repro.api.resources.ResourceManager`: the shard key is the
    task's code *family* when it has one (family members share a thread) and
    the code itself otherwise, with code-less tasks pinned to lane 0.  Lane
    affinity is the whole concurrency story: a ``SolveSession`` is only ever
    touched from the one lane its code maps to (blocking ``Engine.run``
    calls serialize against that same lane through the engine's per-lane
    locks), so no session or context needs its own locking.

    Lane threads are named ``repro-lane-<shard>`` and started lazily on the
    first job routed to them; a one-lane executor behaves exactly like the
    legacy serial :class:`JobExecutor`.
    """

    def __init__(self, engine: "Engine", lanes: int = 4, autostart: bool = True):
        self.engine = engine
        self.autostart = autostart
        self.lanes = max(1, int(lanes))
        self._lanes = [_Lane(index) for index in range(self.lanes)]
        # Serializes submit vs shutdown across every lane: a submission that
        # loses the race must raise before emitting JobSubmitted, and one
        # that wins must have its job pushed before the drain sweeps.
        self._lock = threading.Lock()
        self._shutdown = False
        self._fault = faults.hook("lane")
        #: lane threads the supervisor replaced after a crash (stats).
        self.lane_crashes = 0

    # ------------------------------------------------------------------
    def lane_for(self, task) -> int:
        """The lane ``task`` is (or would be) routed to.

        The modulo guards a lane count differing from the resource
        manager's shard count (a standalone executor built with its own
        ``lanes``); affinity is preserved because the mapping stays a pure
        function of the shard."""
        return self.engine.resources.shard_for_task(task) % len(self._lanes)

    def submit(self, job: Job) -> Job:
        with self._lock:
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            job.emit(
                JobSubmitted(
                    task_kind=getattr(type(job.task), "kind", type(job.task).__name__),
                    subject=getattr(
                        job.task, "code_name", getattr(job.task, "subject", "")
                    ),
                    priority=job.priority,
                    deadline=job.deadline,
                )
            )
            lane = self._lanes[self.lane_for(job.task)]
            job.lane = lane.id
            with lane.condition:
                heapq.heappush(lane.heap, (-job.priority, next(lane.counter), job))
                stats = self.engine.resources.lane_stat(lane.id)
                if stats is not None:
                    stats.enqueued += 1
                lane.condition.notify()
        if self.autostart:
            self.start(lane.id)
        return job

    def start(self, lane_id: int | None = None) -> None:
        """Start one lane's thread (or every lane's) if not already running."""
        targets = self._lanes if lane_id is None else [self._lanes[lane_id]]
        for lane in targets:
            with lane.condition:
                if lane.thread is None or not lane.thread.is_alive():
                    lane.thread = threading.Thread(
                        target=self._lane_main,
                        args=(lane,),
                        name=f"repro-lane-{lane.id}",
                        daemon=True,
                    )
                    lane.thread.start()

    def pending(self) -> int:
        total = 0
        for lane in self._lanes:
            with lane.condition:
                total += len(lane.heap)
        return total

    def queue_depths(self) -> list[int]:
        """Per-lane queue depth, indexed by lane id (for /stats snapshots)."""
        depths = []
        for lane in self._lanes:
            with lane.condition:
                depths.append(len(lane.heap))
        return depths

    # ------------------------------------------------------------------
    def _lane_main(self, lane: _Lane) -> None:
        """Lane thread entry point: run the dispatch loop under supervision.

        ``_loop`` only exits via a ``BaseException`` (the per-job
        ``except Exception`` guard already maps ordinary task errors to
        ``JobFailed`` without killing the thread), so anything that reaches
        here is a lane *crash* — an injected ``InjectedLaneCrash``, a broken
        transition, interpreter shutdown — and must not silently strand the
        lane's queue.
        """
        try:
            self._loop(lane)
        # repro: allow[REPRO-EXC] - handed to the supervisor, which logs+counts
        except BaseException as error:  # noqa: BLE001 - supervised crash path
            self._supervise_crash(lane, error)

    def _supervise_crash(self, lane: _Lane, error: BaseException) -> None:
        """Contain a dead lane thread so its shard keeps making progress.

        The in-flight job fails with a typed ``JobFailed(reason="lane_crash")``
        (the task itself may be fine — clients distinguish infrastructure
        death from task errors and may resubmit under a fresh idempotency
        key); everything the dead thread may have poisoned is discarded —
        the job's code context is quarantined rather than saved warm — and a
        fresh thread is started on the untouched pending heap, so queued
        jobs rerun without resubmission.
        """
        job = lane.current
        lane.current = None
        self.lane_crashes += 1
        log.error(
            "lane %d crashed (%s: %s); supervisor restarting it",
            lane.id,
            type(error).__name__,
            error,
        )
        if job is not None:
            if not job.status.terminal:
                job._finish_failed(
                    RuntimeError(
                        f"lane {lane.id} crashed mid-job: "
                        f"{type(error).__name__}: {error}"
                    ),
                    reason="lane_crash",
                )
            try:
                self.engine.resources.quarantine_task(job.task)
            except Exception as discard_error:  # noqa: BLE001 - best effort
                log.warning("context quarantine failed: %s", discard_error)
        if not self._shutdown:
            with lane.condition:
                # This (dying) thread is still alive while the supervisor
                # runs, so start()'s is_alive() check would refuse to replace
                # it; detach it first.
                lane.thread = None
            self.start(lane.id)

    def _loop(self, lane: _Lane) -> None:
        while True:
            with lane.condition:
                while not lane.heap and not self._shutdown:
                    lane.condition.wait()
                if not lane.heap:
                    return
                _, _, job = heapq.heappop(lane.heap)
                lane.current = job
            try:
                self._run_job(job, lane)
            # repro: allow[REPRO-EXC] - failure published via JobFailed
            except Exception as error:  # noqa: BLE001 - lane must survive
                job._finish_failed(error)
            # Deliberately not a finally: on a BaseException (lane crash)
            # ``lane.current`` must stay set so the supervisor can fail the
            # in-flight job; both non-crash paths clear it here.
            lane.current = None

    def _run_job(self, job: Job, lane: _Lane) -> None:
        control = job.control()
        reason = control.interrupted()
        if reason is not None:
            job._finish_cancelled(reason)
            return
        job._mark_running()
        if self._fault is not None and self._fault.fire("crash", job.id) is not None:
            # Before engine._execute, so the dying thread holds no per-lane
            # engine lock (an RLock held by a dead thread never releases).
            raise faults.InjectedLaneCrash(f"injected crash on lane {lane.id}")

        def emit(event):
            # Stamp solver-phase events with the lane that ran them; the
            # engine emits them lane-agnostically.
            if isinstance(event, SolverStats) and event.lane < 0:
                event.lane = lane.id
            return job.emit(event)

        stats = self.engine.resources.lane_stat(lane.id)
        started = time.perf_counter()

        def account() -> None:
            # Settle the lane counters BEFORE the terminal event publishes:
            # a client that just read JobCompleted off the wire must see a
            # /stats lane table that already includes this job.
            if stats is not None:
                stats.busy_seconds += time.perf_counter() - started
                stats.jobs_completed += 1

        try:
            result = self.engine._execute(
                job.task,
                self.engine.coerce(job.backend),
                control=control,
                emit=emit,
            )
        except SolverInterrupted as interrupt:
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

        In-flight jobs (one per busy lane) run to completion — interrupting
        them is the caller's business via :meth:`Job.cancel` beforehand.
        """
        with self._lock:
            self._shutdown = True
            drained: list[Job] = []
            for lane in self._lanes:
                with lane.condition:
                    drained.extend(job for _, _, job in lane.heap)
                    lane.heap.clear()
                    lane.condition.notify_all()
        for job in drained:
            job._finish_cancelled("shutdown")
        if wait:
            me = threading.current_thread()
            for lane in self._lanes:
                thread = lane.thread
                if thread is not None and thread.is_alive() and thread is not me:
                    thread.join()
