"""Parallel SMT checking by enumeration-based task splitting (Appendix D.4).

The general verification task quantifies over every error configuration; its
SAT encoding can be split into subtasks by *enumerating* the values of a few
selected error indicators and handing the residual formula to the solver.
The termination heuristic for the enumeration is the paper's

    E_T = 2 * d * N(ones) + N(bits) > n

where ``N(bits)`` counts enumerated indicators and ``N(ones)`` counts the
ones among them.  Subtasks run across a process pool; as in the paper the
driver cancels outstanding work as soon as one subtask reports a
counterexample.

Each worker process holds ONE live :class:`~repro.smt.interface.SolveSession`
for the formula: every subtask is an incremental ``solve(assumptions)`` call
on that session, so learnt clauses and heuristic state accumulate across the
subtasks of the check.  :class:`IncrementalSplitSession` lives for one
check: ``ParallelBackend`` builds it, solves once, saves the workers' learnt
clauses to the clause store (when one is attached) and closes the pool.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
import weakref
from collections import Counter

from repro import faults
from repro.classical.expr import BoolExpr
from repro.smt.interface import SMTCheck, SolveSession
from repro.smt.solver import SEARCH_COUNTERS, SolveControl, SolverInterrupted, nonzero
from repro.store import load_clauses, merge_clauses

__all__ = [
    "IncrementalSplitSession",
    "generate_split_assumptions",
]


def _pool_context():
    """The multiprocessing context worker pools are created from.

    The default (fork on Linux) is fastest, but a pool-heavy process
    accumulates helper threads (result handlers, teardown watchdogs, control
    watchers) and forking a worker from such a parent can inherit a lock
    held mid-operation — the child dies or deadlocks before posting a
    result.  ``REPRO_MP_CONTEXT=forkserver`` switches to a clean forkserver
    (immune to parent thread state); it is not the library default because
    forkserver re-imports ``__main__``, which breaks interactive/stdin
    callers.  The benchmark harness — the heaviest pool cycler — opts in.
    The in-pool safety net for the default context is the bounded result
    loop in ``_check_pool_once`` plus the one-shot pool rebuild.
    """
    name = os.environ.get("REPRO_MP_CONTEXT")
    if name:
        try:
            return multiprocessing.get_context(name)
        except ValueError:
            import warnings

            warnings.warn(
                f"REPRO_MP_CONTEXT={name!r} is not a valid multiprocessing "
                "start method; falling back to the platform default",
                RuntimeWarning,
                stacklevel=2,
            )
    return multiprocessing.get_context()


# Every live worker pool is tracked here until ``_terminate_pool`` takes it
# down (weakly, so a dropped pool is not pinned) and terminated at
# interpreter exit.  This is what keeps a KeyboardInterrupt mid-check from
# leaking the pool's semaphores and worker processes: the exception may
# unwind past any try/finally, but the atexit hook still runs on interpreter
# shutdown.
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def _terminate_pool(pool, timeout: float = 5.0) -> None:
    """Terminate ``pool`` without risking a caller deadlock.

    Both halves can block forever.  ``Pool.terminate`` joins the pool's task
    handler, whose final sentinel ``put`` on the result queue never gets the
    queue's write lock when a worker was killed mid-way through posting a
    result (the sat path terminates while other chunks are still reporting).
    ``Pool.join`` after ``terminate`` blocks when an ``imap_unordered``
    iteration was abandoned mid-flight (its result-handler thread waits on a
    queue nobody drains; the workers are already defunct).  Running both in
    a bounded watchdog thread converts those rare deadlocks into a short
    delay — the daemon thread and the atexit hook below still reap whatever
    is left at interpreter shutdown.
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
    watchdog.join(timeout)


def _terminate_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        _terminate_pool(pool, timeout=1.0)


atexit.register(_terminate_live_pools)


class _PoolDiedError(Exception):
    """Every worker of a pool exited without posting results (fork hazard)."""


class IncrementalSplitSession:
    """One enumeration-split check over one formula.

    With ``num_workers <= 1`` the subtasks run sequentially on a single
    in-process :class:`SolveSession` (``session`` when given); otherwise a
    process pool is created whose workers each hold a live session for the
    formula.  With ``warm_dir`` the workers (or the owned in-process session)
    absorb the clause store's learnt clauses for the formula's exact CNF
    fingerprint before solving, and :meth:`save_warm` merges what they learnt
    back.  After a ``sat`` verdict the outstanding subtasks are cancelled and
    the pool is discarded.
    """

    def __init__(
        self,
        formula: BoolExpr,
        split_variables: list[str] | tuple[str, ...] = (),
        heuristic_weight: int = 2,
        threshold: int | None = None,
        num_workers: int = 1,
        max_subtasks: int = 1024,
        session: SolveSession | None = None,
        warm_dir: str | None = None,
    ):
        self.formula = formula
        self.num_workers = num_workers
        if threshold is None:
            threshold = max(len(split_variables), 1)
        self.assumption_sets = generate_split_assumptions(
            list(split_variables), heuristic_weight, threshold, max_subtasks=max_subtasks
        )
        self._pool = None
        self._cancel_event = None
        self._fault = faults.hook("pool")
        # Clause store: pool workers absorb its learnt clauses in their init
        # payload; the sequential path warm-starts its own session the same
        # way the per-code contexts do.
        self.warm_dir = warm_dir
        self.warm_absorbed = 0
        self._local: SolveSession | None = None
        self._local_base_vars = 0
        self._local_fingerprint = ""
        if num_workers <= 1 or len(self.assumption_sets) <= 1:
            owns_local = session is None
            self._local = session if session is not None else SolveSession(formula)
            if warm_dir is not None and owns_local:
                self._local_base_vars = self._local.encoder.cnf.num_vars
                self._local_fingerprint = self._local.fingerprint()
                learnt = load_clauses(warm_dir, self._local_fingerprint)
                if learnt:
                    self.warm_absorbed = self._local.absorb_learnt(learnt)
        # Cumulative solver counters summed across every subtask and worker.
        self.counters: Counter = Counter()
        self.num_checks = 0
        self.elapsed_seconds = 0.0

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            context = _pool_context()
            if self._cancel_event is None:
                self._cancel_event = context.Event()
            self._pool = context.Pool(
                processes=self.num_workers,
                initializer=_worker_init,
                initargs=(self.formula, self.warm_dir, self._cancel_event),
            )
            _LIVE_POOLS.add(self._pool)
        return self._pool

    def check(self, control: SolveControl | None = None) -> SMTCheck:
        """Decide the formula across all enumeration subtasks.

        ``control`` bounds the whole check: on the sequential path it is
        handed to every subtask solve; on the pool path the deadline ships
        inside the worker payloads and cancellation is broadcast through a
        shared event the workers poll mid-solve, so a cancel lands within one
        solve-budget slice on every worker.  An interrupted check raises
        :class:`~repro.smt.solver.SolverInterrupted`; the pool and its live
        worker sessions survive until :meth:`close`.
        """
        start = time.perf_counter()
        self.num_checks += 1
        try:
            if self._local is not None:
                result = self._check_sequential(control)
            else:
                result = self._check_pool(control)
        finally:
            self.elapsed_seconds += time.perf_counter() - start
        result.elapsed_seconds = time.perf_counter() - start
        result.metadata["session"] = self.stats()
        return result

    def _finish(
        self, check: SMTCheck, num_variables: int, num_clauses: int, counters: Counter
    ) -> SMTCheck:
        """Record a check's counters summed over its subtasks (deltas, like
        :class:`SMTCheck` everywhere else; cumulative totals are in
        :meth:`stats` and the ``"session"`` metadata entry)."""
        self.counters.update(counters)
        check.num_variables = num_variables
        check.num_clauses = num_clauses
        check.counters = counters
        check.metadata["num_subtasks"] = len(self.assumption_sets)
        check.metadata["num_workers"] = self.num_workers
        return check

    def _check_sequential(self, control=None) -> SMTCheck:
        session = self._local
        counters: Counter = Counter()
        last: SMTCheck | None = None
        for assumptions in self.assumption_sets:
            last = session.check(assumptions, control=control)
            counters.update(last.counters)
            if last.is_sat:
                break
        result = SMTCheck(status=last.status, model=last.model)
        return self._finish(result, last.num_variables, last.num_clauses, counters)

    def _check_pool(self, control=None) -> SMTCheck:
        warm_absorbed = self.warm_absorbed
        try:
            return self._check_pool_once(control)
        except _PoolDiedError:
            self.warm_absorbed = warm_absorbed
            # Rare fork hazard: every worker exited without posting results
            # (observed as instantly-defunct children when a pool is forked
            # from a process whose earlier pools left helper threads mid
            # teardown).  The work is deterministic and nothing was
            # consumed, so rebuild the pool once and re-dispatch.
            self.close()
            try:
                return self._check_pool_once(control)
            except _PoolDiedError:
                self.close()
                raise RuntimeError(
                    "worker pool died twice without returning results"
                ) from None

    def _check_pool_once(self, control=None) -> SMTCheck:
        pool = self._ensure_pool()
        if self._fault is not None and self._fault.fire("kill") is not None:
            # Parent-side injection: SIGKILL every live worker so the pool
            # dies exactly as an OOM-killed one would (detected below as
            # _PoolDiedError → rebuilt and retried once by _check_pool).
            # Firing counters live in this process, so the rebuilt pool
            # cannot re-trip the same rule the way a worker-side counter —
            # reset by the fork — would.
            for worker in getattr(pool, "_pool", None) or ():
                if worker.is_alive():
                    os.kill(worker.pid, signal.SIGKILL)
        self._cancel_event.clear()
        # Chunk the subtasks so a worker takes several per round trip; it
        # stops inside its chunk at the first counterexample.
        # The deadline and conflict budget ship inside the payloads so each
        # worker enforces them on its own live solver (the budget is
        # per-solve-call, exactly as on the serial path).
        deadline = control.deadline if control is not None else None
        budget = control.conflict_budget if control is not None else None
        chunk_count = max(1, min(len(self.assumption_sets), self.num_workers * 4))
        payloads = [
            (self.assumption_sets[index::chunk_count], deadline, budget)
            for index in range(chunk_count)
        ]
        # The parent blocks on worker results, so a cancellation raised in
        # another thread is relayed to the workers by a watcher that flips
        # the shared event; the workers notice within one control slice.
        watcher_done = threading.Event()
        watcher = None
        if control is not None and control.cancelled is not None:
            def _watch() -> None:
                while not watcher_done.wait(0.02):
                    if control.interrupted():
                        self._cancel_event.set()
                        return

            watcher = threading.Thread(target=_watch, daemon=True)
            watcher.start()
        num_variables = num_clauses = 0
        counters: Counter = Counter()
        sat_model = None
        interrupted: str | None = None
        try:
            # Bounded result consumption: ``IMapIterator.next(timeout)``
            # instead of blind iteration, so a pool whose workers all died
            # without posting results (see _check_pool) surfaces as a
            # detectable error rather than an indefinite hang.
            iterator = pool.imap_unordered(_solve_chunk_in_worker, payloads)
            remaining = len(payloads)
            while remaining:
                try:
                    status, model, stats = iterator.next(5.0)
                except multiprocessing.TimeoutError:
                    workers = getattr(pool, "_pool", None)
                    if workers is not None and not any(
                        worker.is_alive() for worker in workers
                    ):
                        raise _PoolDiedError()
                    continue
                remaining -= 1
                counters.update(stats["counters"])
                num_variables = max(num_variables, stats["num_variables"])
                num_clauses = max(num_clauses, stats["num_clauses"])
                self.warm_absorbed += stats.get("warm_absorbed", 0)
                if status == "interrupted":
                    interrupted = model if isinstance(model, str) else "cancelled"
                    continue
                if status == "sat":
                    sat_model = model
                    # Cancel outstanding subtasks; the worker sessions die with
                    # the pool.
                    _terminate_pool(pool)
                    self._pool = None
                    break
        finally:
            watcher_done.set()
            if watcher is not None:
                watcher.join()
        if sat_model is None and interrupted is not None:
            # Some worker genuinely abandoned work, so the unsat tally is
            # incomplete and must not be reported as a verdict.  (When every
            # subtask completed, the answer stands even if the control fires
            # a moment later — completed work is never discarded.)  Prefer
            # the parent control's own verdict for the reason: a deadline
            # expiry is relayed to the workers through the shared cancel
            # event, so the worker-reported reason says "cancelled" even
            # when the true cause was the deadline.
            reason = control.interrupted() if control is not None else None
            if reason is None:
                reason = interrupted
            if reason is not None:
                # Outstanding chunks have drained (workers return promptly
                # once the event is set), so the pool and its live sessions
                # are intact for save_warm().
                self._cancel_event.clear()
                self._finish(SMTCheck(status="unsat"), num_variables, num_clauses, counters)
                raise SolverInterrupted(reason)
        result = SMTCheck(status="sat" if sat_model is not None else "unsat", model=sat_model)
        return self._finish(result, num_variables, num_clauses, counters)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cumulative statistics; same schema as :meth:`SolveSession.stats`.

        Clause-database state (learnt clauses kept and deleted, reductions,
        minimized literals, erased clauses) is only observable on the
        sequential path (pool workers hold their solvers in other
        processes); it is merged in when a local session exists.
        """
        stats = {
            "checks": self.num_checks,
            **nonzero(self.counters, always=SEARCH_COUNTERS),
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self._local is not None:
            local = self._local.stats()
            for key in ("learnt_kept", "learnt_deleted", "reductions",
                        "minimized_literals", "erased_clauses"):
                if key in local:
                    stats[key] = local[key]
        if self.warm_absorbed:
            stats["warm_absorbed"] = self.warm_absorbed
        return stats

    def save_warm(self) -> int:
        """Merge learnt clauses into the clause store at ``warm_dir``;
        returns clauses stored.

        On the pool path the save tasks fan out across the pool and each
        worker that picks one up merges its learnt clauses into the shared
        store entry (all workers share one CNF fingerprint, so the entries
        union safely).  Pool scheduling gives no per-worker
        affinity, so this is best-effort: a busy worker's clauses may be
        skipped this round — acceptable for a cache that only ever
        accelerates.  The sequential path stores from the session it owns
        (a provided ``session`` persists itself).  A no-op without a store
        directory, and after a sat-terminated pool (the worker sessions died
        with it).
        """
        if self.warm_dir is None:
            return 0
        if self._local is not None:
            if not self._local_base_vars:
                return 0
            learnt = self._local.learnt_clauses(max_var=self._local_base_vars)
            merge_clauses(self.warm_dir, self._local_fingerprint, learnt)
            return len(learnt)
        if self._pool is None:
            return 0
        # Over-subscribe the save tasks to raise coverage, then count each
        # responding worker once (a worker may execute several tasks).
        stored = self._pool.map(
            _save_warm_in_worker, range(self.num_workers * 2), chunksize=1
        )
        return sum(dict(stored).values())

    def close(self) -> None:
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None

    def __enter__(self) -> "IncrementalSplitSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# Per-worker session, built once by the pool initializer: encoding the shared
# formula (and constructing the solver) is the expensive part; every subtask
# afterwards is an incremental solve under assumptions on the live solver.
_WORKER_SESSION: SolveSession | None = None
_WORKER_CANCEL = None
_WORKER_WARM_DIR: str | None = None
_WORKER_FINGERPRINT: str = ""
_WORKER_BASE_VARS: int = 0
_WORKER_WARM_ABSORBED: int = 0
_WORKER_WARM_REPORTED: bool = False


def _worker_init(formula: BoolExpr, warm_dir: str | None = None, cancel_event=None) -> None:
    global _WORKER_SESSION, _WORKER_CANCEL, _WORKER_WARM_DIR
    global _WORKER_FINGERPRINT, _WORKER_BASE_VARS, _WORKER_WARM_ABSORBED
    global _WORKER_WARM_REPORTED
    _WORKER_SESSION = SolveSession(formula)
    _WORKER_CANCEL = cancel_event
    _WORKER_WARM_DIR = warm_dir
    _WORKER_FINGERPRINT = ""
    _WORKER_BASE_VARS = 0
    _WORKER_WARM_ABSORBED = 0
    _WORKER_WARM_REPORTED = False
    if warm_dir is not None:
        # The fingerprint/variable watermark are taken before the first
        # solve, mirroring CodeContext's "first check" snapshot — the point
        # identical runs can agree on.
        _WORKER_BASE_VARS = _WORKER_SESSION.encoder.cnf.num_vars
        _WORKER_FINGERPRINT = _WORKER_SESSION.fingerprint()
        learnt = load_clauses(warm_dir, _WORKER_FINGERPRINT)
        if learnt:
            _WORKER_WARM_ABSORBED = _WORKER_SESSION.absorb_learnt(learnt)


def _save_warm_in_worker(_index: int) -> tuple[int, int]:
    """Merge this worker's learnt clauses into the clause store.

    Returns ``(pid, count)`` so the parent can de-duplicate when pool
    scheduling hands several save tasks to the same worker.
    """
    if _WORKER_WARM_DIR is None or not _WORKER_FINGERPRINT:
        return os.getpid(), 0
    learnt = _WORKER_SESSION.learnt_clauses(max_var=_WORKER_BASE_VARS)
    if learnt:
        merge_clauses(_WORKER_WARM_DIR, _WORKER_FINGERPRINT, learnt)
    return os.getpid(), len(learnt)


def _solve_chunk_in_worker(payload) -> tuple[str, dict | str | None, dict]:
    """Solve a chunk of enumeration subtasks on this worker's live session.

    The chunk stops at its first satisfiable subtask, or — when the
    shared cancel event fires or the payload deadline passes — returns an
    ``("interrupted", reason, stats)`` triple with the session intact.
    """
    global _WORKER_WARM_REPORTED
    assumption_sets, deadline, budget = payload
    stats = {"counters": Counter(), "num_variables": 0, "num_clauses": 0}
    if not _WORKER_WARM_REPORTED and _WORKER_WARM_ABSORBED:
        # Each worker reports its absorbed count exactly once, on its first
        # chunk, so the parent can aggregate without double counting.
        stats["warm_absorbed"] = _WORKER_WARM_ABSORBED
        _WORKER_WARM_REPORTED = True
    control = None
    if deadline is not None or budget is not None or _WORKER_CANCEL is not None:
        control = SolveControl(
            deadline=deadline,
            cancelled=_WORKER_CANCEL.is_set if _WORKER_CANCEL is not None else None,
            conflict_budget=budget,
        )
    status, model = "unsat", None
    for assumptions in assumption_sets:
        try:
            check = _WORKER_SESSION.check(assumptions, control=control)
        except SolverInterrupted as exc:
            return "interrupted", exc.reason, stats
        stats["counters"].update(check.counters)
        stats["num_variables"] = max(stats["num_variables"], check.num_variables)
        stats["num_clauses"] = max(stats["num_clauses"], check.num_clauses)
        if check.is_sat:
            status, model = "sat", check.model
            break
    return status, model, stats


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
    qubits): once the budget is reached, remaining branches are emitted as-is,
    each leaf covering its whole residual subspace — the cover stays exact,
    only coarser.
    """
    if not variables:
        return [{}]
    leaves: list[dict[str, bool]] = []

    def expand(index: int, assignment: dict[str, bool], ones: int) -> None:
        bits = len(assignment)
        if (
            index >= len(variables)
            or heuristic_weight * ones + bits > threshold
            or len(leaves) >= max_subtasks
        ):
            leaves.append(dict(assignment))
            return
        name = variables[index]
        assignment[name] = False
        expand(index + 1, assignment, ones)
        assignment[name] = True
        expand(index + 1, assignment, ones + 1)
        del assignment[name]

    expand(0, {}, 0)
    return leaves
