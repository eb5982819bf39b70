"""Parallel SMT checking by enumeration-based task splitting (Appendix D.4).

The general verification task quantifies over every error configuration; its
SAT encoding can be split into subtasks by *enumerating* the values of a few
selected error indicators and handing the residual formula to the solver.
The termination heuristic for the enumeration is the paper's

    E_T = 2 * d * N(ones) + N(bits) > n

where ``N(bits)`` counts enumerated indicators and ``N(ones)`` counts the
ones among them (:func:`generate_split_assumptions`).  :func:`split_check`
decides one formula over those subtasks.  In process it solves them one
after another on one session; across a process pool, each worker holds ONE
live :class:`~repro.smt.interface.SolveSession` for the formula, every
subtask is an incremental ``solve(assumptions)`` call on it, and as in the
paper the check cancels outstanding work as soon as one subtask reports a
counterexample.

:func:`pool_results` is the one process-pool lifecycle: it builds, feeds and
tears down the split's pools and ``Engine.run_many``'s, and rebuilds a pool
once when one of its workers dies.  With a clause store, each split worker
holds one :class:`~repro.store.WarmStart`, the same round trip the engine's
code contexts use: it loads before the worker's first solve and saves after
every chunk the worker refutes.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import multiprocessing.connection
import socket
import threading
import time
import weakref
from collections import Counter

from repro import faults
from repro.classical.expr import BoolExpr
from repro.smt.interface import SMTCheck, SolveSession
from repro.smt.solver import SEARCH_COUNTERS, SolveControl, SolverInterrupted, nonzero
from repro.store import ClauseStore, WarmStart

__all__ = [
    "generate_split_assumptions",
    "pool_results",
    "split_check",
]


# Every live worker pool is tracked here until ``_terminate_pool`` takes it
# down (weakly, so a dropped pool is not pinned) and terminated at
# interpreter exit.  This is what keeps a KeyboardInterrupt mid-check from
# leaking the pool's semaphores and worker processes: the exception may
# unwind past any try/finally, but the atexit hook still runs on interpreter
# shutdown.
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def _terminate_pool(pool, timeout: float = 5.0, kill: bool = False) -> None:
    """Terminate ``pool`` without risking a caller deadlock.

    Both halves can block forever.  ``Pool.terminate`` joins the pool's task
    handler, whose final sentinel ``put`` on the result queue never gets the
    queue's write lock when a worker was killed mid-way through posting a
    result (the sat path terminates while other chunks are still reporting).
    ``Pool.join`` after ``terminate`` blocks when results were abandoned
    mid-flight (its result-handler thread waits on a queue nobody drains;
    the workers are already defunct).  Running both in a bounded watchdog
    thread converts those rare deadlocks into a short delay — the daemon
    thread and the atexit hook below still reap whatever is left at
    interpreter shutdown.

    ``kill`` is for a dead pool: once ``terminate`` stops it replacing
    workers, they are SIGKILLed and the task queue's read lock, which a
    killed worker can die holding, is released for it, so the teardown
    does not wait out the watchdog.
    """

    _LIVE_POOLS.discard(pool)

    def terminate_and_join() -> None:
        try:
            pool.terminate()
            pool.join()
        except Exception:
            pass

    watchdog = threading.Thread(target=terminate_and_join, daemon=True)
    watchdog.start()
    if kill:
        pool._worker_handler.join(timeout)
        for worker in pool._pool:
            worker.kill()
        for worker in pool._pool:  # none may take the lock once it is freed
            worker.join(timeout)
        try:
            pool._inqueue._rlock.release()
        except ValueError:  # not held
            pass
    watchdog.join(timeout)


def _terminate_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        _terminate_pool(pool, timeout=1.0)


atexit.register(_terminate_live_pools)


def pool_results(func, payloads, processes: int, *, initializer=None, initargs=(),
                 ordered: bool = False):
    """Run ``func`` on every payload across a fresh process pool; yield the
    results in completion order, or in payload order when ``ordered``.

    The pool is torn down when the generator finishes or is closed (a
    consumer that stops early, as the split does at its first
    counterexample).  The consumer blocks in one wait on a result arriving
    or on a worker of the pool's *original* set exiting; the pool counts as
    dead at that exit: ``Pool`` replaces a dead worker, but the task or
    queue lock that worker held dies with it, so the replacement can wait
    forever.  A dead pool's workers are SIGKILLed, it is rebuilt once and
    the payloads whose results have not arrived are dispatched again
    (``func`` must be deterministic); a second death raises
    :class:`RuntimeError`.  The ``pool.kill`` fault point SIGKILLs every
    worker of a new pool, firing in this process so the rebuilt pool does
    not re-trip it.
    """
    pending = dict(enumerate(payloads))
    arrived: dict = {}
    fault = faults.hook("pool")
    for _attempt in range(2):
        pool = multiprocessing.Pool(processes, initializer=initializer, initargs=initargs)
        _LIVE_POOLS.add(pool)
        sentinels = [worker.sentinel for worker in pool._pool]
        # A self-pipe: the pool's result thread writes a byte after each
        # outcome, so one wait covers results and worker exits alike.
        wake, waker = socket.socketpair()
        waker.setblocking(False)

        def deliver(index, outcome, waker=waker) -> None:
            arrived[index] = outcome
            try:
                waker.send(b"\0")
            except OSError:  # buffer full (the consumer is awake anyway) or closed
                pass

        dead = False
        try:
            if fault is not None and fault.fire("kill") is not None:
                for worker in pool._pool:
                    worker.kill()
            for index, payload in pending.items():
                if index not in arrived:
                    pool.apply_async(func, (payload,), callback=functools.partial(deliver, index),
                                     error_callback=functools.partial(deliver, "error"))
            while pending and not dead:
                fired = multiprocessing.connection.wait([wake, *sentinels])
                dead = any(handle is not wake for handle in fired)
                if wake in fired:
                    wake.recv(4096)
                if "error" in arrived:
                    raise arrived.pop("error")
                for index in list(pending):
                    if index in arrived:
                        del pending[index]
                        yield arrived.pop(index)
                    elif ordered:
                        break
        finally:
            _terminate_pool(pool, kill=dead)
            wake.close()
            waker.close()
        if not pending:
            return
    raise RuntimeError("worker pool died twice without returning results")


def split_check(
    formula: BoolExpr,
    assumption_sets: list[dict[str, bool]],
    *,
    num_workers: int = 1,
    session=None,
    warm_dir: str | None = None,
    control: SolveControl | None = None,
) -> SMTCheck:
    """Decide ``formula`` across the enumeration subtasks ``assumption_sets``.

    With ``num_workers <= 1``, or a single subtask, the subtasks run one
    after another in process on ``session`` (any session-shaped object
    holding the formula: a ``SolveSession`` or the engine's guarded context
    view) or on a throwaway :class:`SolveSession`; that path never reads or
    writes the clause store.  Otherwise a pool of ``num_workers`` processes
    decides them, each worker holding one live session for the formula;
    with ``warm_dir`` the workers absorb the clause store's learnt clauses
    for the formula's exact CNF fingerprint before solving and merge what
    they learn back after each chunk.

    ``control`` bounds the whole check: in process it is handed to every
    subtask solve; on the pool the deadline and conflict budget ship inside
    the payloads and cancellation is relayed through a shared event the
    workers poll mid-solve.  An interrupted check raises
    :class:`~repro.smt.solver.SolverInterrupted`.

    The result's counters are summed over the subtasks;
    ``metadata["session"]`` carries this check's statistics in the schema
    of :meth:`SolveSession.stats`.
    """
    start = time.perf_counter()
    if num_workers <= 1 or len(assumption_sets) <= 1:
        live = session if session is not None else SolveSession(formula)
        result = _check_in_process(live, assumption_sets, control)
        local = live.stats()
        extra = {
            key: local[key]
            for key in ("learnt_kept", "learnt_deleted", "reductions",
                        "minimized_literals", "erased_clauses")
            if key in local
        }
    else:
        result, warm_absorbed = _check_pool(
            formula, assumption_sets, num_workers, warm_dir, control
        )
        extra = {"warm_absorbed": warm_absorbed} if warm_absorbed else {}
    result.elapsed_seconds = time.perf_counter() - start
    result.metadata["num_subtasks"] = len(assumption_sets)
    result.metadata["num_workers"] = num_workers
    result.metadata["session"] = {
        "checks": 1,
        **nonzero(result.counters, always=SEARCH_COUNTERS),
        "elapsed_seconds": result.elapsed_seconds,
        **extra,
    }
    return result


def _check_in_process(session, assumption_sets, control) -> SMTCheck:
    counters: Counter = Counter()
    for assumptions in assumption_sets:
        last = session.check(assumptions, control=control)
        counters.update(last.counters)
        if last.is_sat:
            break
    return SMTCheck(
        status=last.status, model=last.model, num_variables=last.num_variables,
        num_clauses=last.num_clauses, counters=counters,
    )


def _check_pool(formula, assumption_sets, num_workers, warm_dir, control):
    """The pooled split: returns ``(check, clauses the workers absorbed)``."""
    cancel = multiprocessing.Event()
    # Chunk the subtasks so a worker takes several per round trip; it stops
    # inside its chunk at the first counterexample.  The deadline and
    # conflict budget ship inside the payloads so each worker enforces them
    # on its own live solver (the budget is per-solve-call, exactly as in
    # process).
    deadline = control.deadline if control is not None else None
    budget = control.conflict_budget if control is not None else None
    chunk_count = min(len(assumption_sets), num_workers * 4)
    payloads = [
        (assumption_sets[index::chunk_count], deadline, budget)
        for index in range(chunk_count)
    ]
    # The parent blocks on worker results, so a cancellation raised in
    # another thread is relayed to the workers by a watcher that flips the
    # shared event; the workers notice within one control slice.
    watcher_done = threading.Event()
    watcher = None
    if control is not None and control.cancelled is not None:
        def _watch() -> None:
            while not control.interrupted():
                if watcher_done.wait(0.02):
                    return
            cancel.set()

        watcher = threading.Thread(target=_watch, daemon=True)
        watcher.start()
    num_variables = num_clauses = warm_absorbed = 0
    counters: Counter = Counter()
    sat_model = None
    interrupted: str | None = None
    results = pool_results(
        _solve_chunk_in_worker, payloads, num_workers,
        initializer=_worker_init, initargs=(formula, warm_dir, cancel),
    )
    try:
        for status, model, stats in results:
            counters.update(stats["counters"])
            num_variables = max(num_variables, stats["num_variables"])
            num_clauses = max(num_clauses, stats["num_clauses"])
            warm_absorbed += stats.get("warm_absorbed", 0)
            if status == "interrupted":
                interrupted = model
            elif status == "sat":
                sat_model = model
                break
    finally:
        # Closing the generator tears the pool down, cancelling the
        # outstanding subtasks after a counterexample.
        results.close()
        watcher_done.set()
        if watcher is not None:
            watcher.join()
    if sat_model is None and interrupted is not None:
        # Some worker abandoned work, so the unsat tally is incomplete and
        # must not be reported as a verdict.  (When every subtask completed,
        # the answer stands even if the control fires a moment later.)  The
        # parent control's own verdict names the reason: a deadline expiry
        # reaches the workers through the shared cancel event, so they
        # report "cancelled" even when the true cause was the deadline.
        reason = control.interrupted() if control is not None else None
        raise SolverInterrupted(reason or interrupted)
    check = SMTCheck(
        status="sat" if sat_model is not None else "unsat", model=sat_model,
        num_variables=num_variables, num_clauses=num_clauses, counters=counters,
    )
    return check, warm_absorbed


# Per-worker session, built once by the pool initializer: encoding the shared
# formula (and constructing the solver) is the expensive part; every subtask
# afterwards is an incremental solve under assumptions on the live solver.
_WORKER_SESSION: SolveSession | None = None
_WORKER_CANCEL = None
#: the worker session's round trip through the clause store, if any.
_WORKER_WARM: WarmStart | None = None
#: clauses absorbed from the store and not yet reported to the parent.
_WORKER_WARM_ABSORBED: int = 0


def _worker_init(formula: BoolExpr, warm_dir: str | None = None, cancel_event=None) -> None:
    global _WORKER_SESSION, _WORKER_CANCEL, _WORKER_WARM, _WORKER_WARM_ABSORBED
    _WORKER_SESSION = SolveSession(formula)
    _WORKER_CANCEL = cancel_event
    _WORKER_WARM = None
    _WORKER_WARM_ABSORBED = 0
    if warm_dir is not None:
        # The init payload carries only the store directory, so each worker
        # opens its own store, and loads before its first solve.
        _WORKER_WARM = WarmStart(ClauseStore(warm_dir))
        _WORKER_WARM_ABSORBED = _WORKER_WARM.load(_WORKER_SESSION)


def _solve_chunk_in_worker(payload) -> tuple[str, dict | str | None, dict]:
    """Solve a chunk of enumeration subtasks on this worker's live session.

    The chunk stops at its first satisfiable subtask, or — when the
    shared cancel event fires or the payload deadline passes — returns an
    ``("interrupted", reason, stats)`` triple with the session intact.  A
    chunk refuted in full saves the worker's new learnt clauses to the
    clause store, so the store sees every worker's work however the pool
    schedules the chunks.
    """
    global _WORKER_WARM_ABSORBED
    assumption_sets, deadline, budget = payload
    stats = {"counters": Counter(), "num_variables": 0, "num_clauses": 0}
    if _WORKER_WARM_ABSORBED:
        # Each worker reports its absorbed count exactly once, on its first
        # chunk, so the parent can aggregate without double counting.
        stats["warm_absorbed"] = _WORKER_WARM_ABSORBED
        _WORKER_WARM_ABSORBED = 0
    control = SolveControl(
        deadline=deadline, cancelled=_WORKER_CANCEL.is_set, conflict_budget=budget
    )
    for assumptions in assumption_sets:
        try:
            check = _WORKER_SESSION.check(assumptions, control=control)
        except SolverInterrupted as exc:
            return "interrupted", exc.reason, stats
        stats["counters"].update(check.counters)
        stats["num_variables"] = max(stats["num_variables"], check.num_variables)
        stats["num_clauses"] = max(stats["num_clauses"], check.num_clauses)
        if check.is_sat:
            return "sat", check.model, stats
    if _WORKER_WARM is not None:
        _WORKER_WARM.save(_WORKER_SESSION)
    return "unsat", None, stats


def generate_split_assumptions(
    variables: list[str], heuristic_weight: int, threshold: int, max_subtasks: int = 1024
) -> list[dict[str, bool]]:
    """Enumerate prefixes of ``variables`` until the heuristic fires.

    Starting from the empty assignment, the driver repeatedly fixes the next
    variable to 0 and to 1, stopping a branch once
    ``heuristic_weight * N(ones) + N(bits) > threshold`` (the paper's E_T
    condition) or all variables are enumerated.  The union of the leaves
    covers the full assignment space exactly once.

    ``max_subtasks`` bounds the enumeration on large codes (the paper's
    ``E_T`` with threshold ``n`` explodes combinatorially past a few dozen
    qubits): a branch splits only while the leaves emitted so far, the
    branches still open and its own two halves fit in the budget; otherwise
    it is emitted as-is, one leaf covering its whole residual subspace.  So
    at most ``max(1, max_subtasks)`` leaves come back and the cover stays
    exact, only coarser.
    """
    if not variables:
        return [{}]
    leaves: list[dict[str, bool]] = []
    # Branches pushed for later expansion (each true half waiting on its
    # false sibling); every one of them will emit at least one leaf.
    open_branches = 0

    def expand(index: int, assignment: dict[str, bool], ones: int) -> None:
        nonlocal open_branches
        bits = len(assignment)
        if (
            index >= len(variables)
            or heuristic_weight * ones + bits > threshold
            or len(leaves) + open_branches + 2 > max_subtasks
        ):
            leaves.append(dict(assignment))
            return
        name = variables[index]
        assignment[name] = False
        open_branches += 1
        expand(index + 1, assignment, ones)
        open_branches -= 1
        assignment[name] = True
        expand(index + 1, assignment, ones + 1)
        del assignment[name]

    expand(0, {}, 0)
    return leaves
