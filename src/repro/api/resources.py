"""Engine-owned solver resources: shared per-code sessions, persistent pools.

Before this layer existed, session ownership was scattered: each task kind
built its own solver, the parallel backend spun up (and tore down) a worker
pool per task, and the engine's session cache was keyed per-task, so
correction and detection on the same code re-learnt everything from scratch.
This module centralizes those resources *per code*:

* :class:`CodeContext` — ONE live :class:`~repro.smt.interface.SolveSession`
  per code.  Every task's refutation formula is asserted under a
  task-selector guard literal, so correction, detection, constrained and
  distance queries all solve against one clause database and share learnt
  clauses across task kinds.  The shared error/syndrome sub-encoding is
  emitted once: the encoder's expression cache maps the identical error
  variables, syndrome parities and weight counters of later task formulas
  onto the literals the first task allocated.
* :class:`ContextView` — a task's window onto its context: ``check`` solves
  the shared session under the task's selector, which is the session surface
  the backends already expect.
* :class:`PoolManager` — persistent worker pools keyed by base formula, kept
  alive across ``Engine.run`` / ``run_many`` calls (registry sweeps stop
  paying pool startup and re-encoding per task) and torn down when the
  owning engine is garbage-collected, on eviction, or at interpreter exit.
* :class:`ResourceManager` — the engine-facing facade tying the above
  together, with hit/miss counters surfaced in ``Result.session_stats()``.
  Its optional ``clause_store`` (:class:`~repro.store.ClauseStore`, the
  CLI's ``--clause-store``) is the one warm-start cache: contexts and pools
  restore and persist learnt clauses keyed by a fingerprint of the exact
  CNF, so stale state can never be absorbed.
"""

from __future__ import annotations

import threading
import weakref
import zlib
from collections import Counter, OrderedDict

from repro import sanitize
from repro.classical.expr import free_variables
from repro.codes.registry import family_of
from repro.smt.interface import SMTCheck, SolveSession
from repro.smt.parallel import IncrementalSplitSession
from repro.smt.solver import SEARCH_COUNTERS, nonzero
from repro.store import ClauseStore

__all__ = [
    "CodeContext",
    "ContextView",
    "LaneStats",
    "PoolManager",
    "ResourceManager",
]


class ContextView:
    """One task's session-shaped window onto a shared :class:`CodeContext`.

    The view carries the task's selector literals; ``check`` merges them into
    every solve, so backends built against the plain
    :class:`~repro.smt.interface.SolveSession` surface (``check``,
    ``add_guard``, ``add_weight_guard``, ``stats``) drive the shared session
    without knowing it is shared.  Extracted models are restricted to the
    task formula's own variables: the shared session also names the
    variables of every *other* guarded task formula, which are unconstrained
    during this task's check and must not leak into its counterexamples.
    """

    def __init__(
        self,
        context: "CodeContext",
        selectors: tuple[str, ...],
        variables: frozenset[str] | None = None,
    ):
        self.context = context
        self.selectors = tuple(selectors)
        self.variables = variables

    def check(
        self,
        assumptions: dict[str, bool] | None = None,
        select: tuple[str, ...] | list[str] = (),
        control=None,
    ) -> SMTCheck:
        self.context.maybe_warm_load()
        check = self.context.session.check(
            assumptions, select=self.selectors + tuple(select), control=control
        )
        if check.model is not None and self.variables is not None:
            check.model = {
                name: value for name, value in check.model.items()
                if name in self.variables
            }
        return check

    # Guard forwarding keeps the view usable wherever a SolveSession is
    # expected (e.g. the sequential path of IncrementalSplitSession).
    def add_guard(self, name: str, formula) -> str:
        return self.context.session.add_guard(name, formula)

    def add_weight_guard(self, name: str, weight, bound: int) -> str:
        return self.context.session.add_weight_guard(name, weight, bound)

    def add_weight_lower_guard(self, name: str, weight, bound: int) -> str:
        return self.context.session.add_weight_lower_guard(name, weight, bound)

    def stats(self) -> dict:
        return self.context.session.stats()


class CodeContext:
    """Shared solver resources for one code: one session, many task guards.

    Task formulas are asserted exactly once each, guarded by a fresh selector
    keyed on the task value; re-running a task re-selects its guard on the
    live solver (a context *hit*), and different task kinds on the same code
    share every learnt clause the session has accumulated.
    """

    def __init__(
        self,
        key,
        clause_store: ClauseStore | None = None,
        max_task_guards: int = 64,
    ):
        self.key = key
        # Armed only under REPRO_SANITIZE: CodeContext entry points are
        # lane-affine exactly like the session they drive.
        self._entry_guard = sanitize.new_entry_guard(f"CodeContext({key!r})")
        self.session = SolveSession()
        self.clause_store = clause_store
        self.max_task_guards = max_task_guards
        self.hits = 0
        self.misses = 0
        self.retired = 0
        self._guard_counter = 0
        self._task_guards: OrderedDict[object, tuple[str, frozenset[str]]] = OrderedDict()
        self._detection_bases: dict[str, tuple[object, str, frozenset[str]]] = {}
        self._weight_guards: set[str] = set()
        self._warm_attempted = False
        self._warm_fingerprint: str | None = None
        self._warm_vars = 0
        #: Cumulative exact-fingerprint warm-start counters: warm_hits /
        #: warm_misses / warm_absorbed.
        self.counters: Counter = Counter()

    # ------------------------------------------------------------------
    @sanitize.entry_guarded
    def task_view(self, task, formula) -> ContextView:
        """The guarded view for ``task``, asserting ``formula`` on first use."""
        entry = self._task_guards.get(task)
        if entry is None:
            self.misses += 1
            # A monotonic counter, not len(): retired guards free their slot
            # in the dict but their selector names must never be reused (a
            # retired selector is root-false forever).
            guard = f"task:{self._guard_counter}"
            self._guard_counter += 1
            self.session.add_guard(guard, formula)
            entry = (guard, free_variables(formula))
            self._task_guards[task] = entry
            while len(self._task_guards) > self.max_task_guards:
                _, (stale_guard, _) = self._task_guards.popitem(last=False)
                self.session.retire_guard(stale_guard)
                self.retired += 1
        else:
            self.hits += 1
            self._task_guards.move_to_end(task)
        guard, variables = entry
        return ContextView(self, (guard,), variables=variables)

    @sanitize.entry_guarded
    def retire_task(self, task) -> bool:
        """Release ``task``'s guarded formula from the shared session.

        Called for cancelled (and LRU-evicted) tasks: the task's selector is
        negated at the root and the solver erases the now-satisfied clauses,
        so a long-lived context does not accumulate the encodings of tasks
        that will never be re-selected.  Re-running the task later simply
        re-asserts its formula under a fresh selector (a context miss).
        Returns whether the task actually held a guard.
        """
        entry = self._task_guards.pop(task, None)
        if entry is None:
            return False
        guard, _ = entry
        self.session.retire_guard(guard)
        self.retired += 1
        return True

    @sanitize.entry_guarded
    def detection_base(self, model_kind: str, factory) -> tuple[object, str, frozenset[str]]:
        """The guarded trial-independent detection base for ``model_kind``.

        ``factory`` builds ``(base_formula, weight_expr)``; it runs once per
        context and error model, which is the "encode the base once" property
        the distance walk (and any DetectionTask sharing the context) relies
        on.  Returns ``(weight_expr, base_selector, base_variables)`` —
        witnesses extracted during a walk must be restricted to
        ``base_variables`` for the same reason :class:`ContextView` filters
        its models.
        """
        entry = self._detection_bases.get(model_kind)
        if entry is None:
            self.misses += 1
            base, weight = factory()
            guard = f"detection-base:{model_kind}"
            self.session.add_guard(guard, base)
            entry = (weight, guard, free_variables(base))
            self._detection_bases[model_kind] = entry
        else:
            self.hits += 1
        return entry

    def weight_upper_guard(self, model_kind: str, weight, bound: int) -> str:
        """Memoised selector for ``weight <= bound`` (shared unary counter)."""
        name = f"w:{model_kind}:le:{bound}"
        if name not in self._weight_guards:
            self.session.add_weight_guard(name, weight, bound)
            self._weight_guards.add(name)
        return name

    def weight_lower_guard(self, model_kind: str, weight, bound: int) -> str:
        """Memoised selector for ``weight >= bound``."""
        name = f"w:{model_kind}:ge:{bound}"
        if name not in self._weight_guards:
            self.session.add_weight_lower_guard(name, weight, bound)
            self._weight_guards.add(name)
        return name

    # ------------------------------------------------------------------
    # Warm start: learnt clauses round-trip through the clause store, keyed
    # on the CNF fingerprint at the moment of the first check (the point
    # identical CLI invocations reach with an identical encoding).
    @sanitize.entry_guarded
    def maybe_warm_load(self) -> None:
        if self.clause_store is None or self._warm_attempted:
            return
        self._warm_attempted = True
        self._warm_fingerprint = self.session.fingerprint()
        self._warm_vars = self.session.encoder.cnf.num_vars
        learnt = self.clause_store.load(self._warm_fingerprint)
        if learnt:
            self.counters.update(warm_hits=1, warm_absorbed=self.session.absorb_learnt(learnt))
        else:
            self.counters["warm_misses"] += 1

    @sanitize.entry_guarded
    def save_warm(self) -> None:
        if self.clause_store is None or not self._warm_attempted:
            return
        # Persist LBDs for eviction ranking.
        self.clause_store.store_meta(
            self._warm_fingerprint,
            self.session.learnt_clauses_meta(max_var=self._warm_vars),
        )


def _close_split_sessions(sessions: "OrderedDict") -> None:
    for session in list(sessions.values()):
        try:
            session.close()
        except Exception:  # repro: allow[REPRO-EXC] - finalizer teardown
            pass
    sessions.clear()


class PoolManager:
    """Persistent :class:`IncrementalSplitSession` pools keyed by base formula.

    A split session (and therefore its worker pool, each worker holding a
    live solver for the base encoding) survives across ``Engine.run`` calls:
    re-running a task with the same formula and split configuration is a pool
    *hit* that skips pool startup and per-worker re-encoding entirely.  The
    manager is LRU-bounded (evicted sessions are closed), closes everything
    when the owning engine is garbage-collected (``weakref.finalize``), and
    the pools themselves are additionally registered for atexit termination
    by :mod:`repro.smt.parallel` — so a KeyboardInterrupt mid-check cannot
    leak semaphores or worker processes.
    """

    def __init__(self, max_pools: int = 4, clause_store: ClauseStore | None = None):
        self.max_pools = max_pools
        self.clause_store = clause_store
        self.hits = 0
        self.misses = 0
        self._sessions: OrderedDict[tuple, IncrementalSplitSession] = OrderedDict()
        self._lock = threading.RLock()
        # Sessions currently driving a walk on some lane: never evict these
        # (closing a pool under a live walk would strand its workers).
        self._busy: dict[int, int] = {}
        # The finalizer must not reference self (that would keep the manager
        # alive forever); closing over the sessions dict alone is enough.
        self._finalizer = weakref.finalize(self, _close_split_sessions, self._sessions)

    def split_session(
        self,
        formula,
        split_variables: tuple[str, ...] = (),
        heuristic_weight: int = 2,
        threshold: int | None = None,
        num_workers: int = 2,
        max_subtasks: int = 1024,
    ) -> IncrementalSplitSession:
        key = (formula, tuple(split_variables), heuristic_weight, threshold,
               num_workers, max_subtasks)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self.hits += 1
                self._sessions.move_to_end(key)
                return session
            self.misses += 1
        session = IncrementalSplitSession(
            formula,
            split_variables=list(split_variables),
            heuristic_weight=heuristic_weight,
            threshold=threshold,
            num_workers=num_workers,
            max_subtasks=max_subtasks,
            warm_dir=self.clause_store.directory if self.clause_store is not None else None,
        )
        evicted_sessions: list[IncrementalSplitSession] = []
        with self._lock:
            self._sessions[key] = session
            spare = [
                k for k in self._sessions
                if id(self._sessions[k]) not in self._busy
            ]
            while len(self._sessions) > self.max_pools and spare:
                stale = spare.pop(0)
                evicted_sessions.append(self._sessions.pop(stale))
        for evicted in evicted_sessions:
            evicted.save_warm()
            evicted.close()
        return session

    def mark_busy(self, session: IncrementalSplitSession) -> None:
        """Pin ``session`` against eviction while a walk drives it."""
        with self._lock:
            self._busy[id(session)] = self._busy.get(id(session), 0) + 1

    def mark_idle(self, session: IncrementalSplitSession) -> None:
        with self._lock:
            left = self._busy.get(id(session), 0) - 1
            if left > 0:
                self._busy[id(session)] = left
            else:
                self._busy.pop(id(session), None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def warm_absorbed(self) -> int:
        return sum(session.warm_absorbed for session in self._sessions.values())

    def save_warm(self) -> int:
        """Serialize every live split session's learnt clauses; returns count."""
        return sum(session.save_warm() for session in self._sessions.values())

    def close_all(self) -> None:
        _close_split_sessions(self._sessions)


class LaneStats:
    """Counters for one dispatcher lane (mutated by the sharded executor;
    read by ``ResourceManager.stats``)."""

    __slots__ = ("lane", "enqueued", "jobs_completed", "busy_seconds")

    def __init__(self, lane: int):
        self.lane = lane
        self.enqueued = 0
        self.jobs_completed = 0
        self.busy_seconds = 0.0


class ResourceManager:
    """The engine's solver-resource facade: contexts, pools, clause store.

    With the sharded dispatcher the manager is also the *routing authority*:
    :meth:`shard_for_task` maps every task to the one worker lane allowed to
    touch its code's session.  The shard key is the code's registry *family*
    when it has one (family members share a lane) and the code itself
    otherwise; assignment is sticky — a key, once mapped, keeps its lane for
    the manager's lifetime — with crc32 hashing onto free lanes and
    least-recently-used lane reuse once every lane carries keys.

    The internal lock only guards the manager's own dict bookkeeping
    (context/session registries, shard assignments).  Sessions themselves
    are deliberately unlocked: lane affinity guarantees each one is only
    ever driven from its lane's thread (blocking ``Engine.run`` calls
    serialize against that lane through the engine's per-lane locks).
    """

    def __init__(
        self,
        max_contexts: int = 32,
        max_pools: int = 4,
    ):
        self.max_contexts = max_contexts
        self.pools = PoolManager(max_pools=max_pools)
        #: the persistent warm-start cache, attached by :meth:`enable_clause_store`
        self.clause_store: ClauseStore | None = None
        self._contexts: OrderedDict[object, CodeContext] = OrderedDict()
        # Deterministic tasks WITHOUT a code to key a context on (the
        # program-logic route) still get a persistent per-task session, so
        # repeated runs reuse learnt clauses as they did before the
        # per-code contexts existed.
        self._task_sessions: OrderedDict[object, SolveSession] = OrderedDict()
        self._lock = threading.RLock()
        self._executor = None
        #: contexts discarded unsaved after a lane crash (see
        #: :meth:`quarantine_task`); surfaced in stats when nonzero.
        self.quarantined = 0
        self.num_shards = 1
        self.configure_shards(1)

    # ------------------------------------------------------------------
    # Sharding: code/family → lane
    # ------------------------------------------------------------------
    def configure_shards(self, num_shards: int) -> None:
        """(Re)size the lane table; called by the engine before any job runs."""
        with self._lock:
            self.num_shards = max(1, int(num_shards))
            self._shard_assignments: dict[str, int] = {}
            self._keys_per_lane = [0] * self.num_shards
            # Least-recently-assigned first; reused when every lane is taken.
            self._lane_lru = list(range(self.num_shards))
            self._lane_stats = [LaneStats(index) for index in range(self.num_shards)]
            self._retired: list[list[CodeContext]] = [
                [] for _ in range(self.num_shards)
            ]

    def attach_executor(self, executor) -> None:
        """Register the sharded executor so stats can report queue depths."""
        self._executor = executor

    def lane_stat(self, lane: int) -> LaneStats | None:
        if 0 <= lane < len(self._lane_stats):
            return self._lane_stats[lane]
        return None

    def shard_key(self, code) -> str:
        """The affinity key for a code: its registry family, else itself."""
        if isinstance(code, str):
            return family_of(code) or code
        name = getattr(code, "name", "")
        return name if name else type(code).__name__

    def shard_for(self, key: str | None) -> int:
        """The lane for a shard key (sticky; hash-then-LRU on collision)."""
        if key is None or self.num_shards <= 1:
            return 0
        with self._lock:
            lane = self._shard_assignments.get(key)
            if lane is None:
                preferred = zlib.crc32(str(key).encode()) % self.num_shards
                if self._keys_per_lane[preferred] == 0:
                    lane = preferred
                else:
                    # Hash collision: reuse the emptiest lane, breaking ties
                    # toward the least recently assigned one.
                    lane = min(
                        self._lane_lru, key=lambda lane: self._keys_per_lane[lane]
                    )
                self._shard_assignments[key] = lane
                self._keys_per_lane[lane] += 1
            self._lane_lru.remove(lane)
            self._lane_lru.append(lane)
            return lane

    def shard_for_task(self, task) -> int:
        """The lane ``task`` must run on (code-less tasks pin to lane 0)."""
        code = getattr(task, "code", None)
        if code is None:
            return 0
        return self.shard_for(self.shard_key(code))

    # ------------------------------------------------------------------
    def context_for(self, key) -> CodeContext | None:
        """The live context for a code key (LRU, created on first use)."""
        with self._lock:
            try:
                context = self._contexts.get(key)
            except TypeError:  # unhashable key
                return None
            if context is None:
                context = CodeContext(key, clause_store=self.clause_store)
                self._contexts[key] = context
                while len(self._contexts) > self.max_contexts:
                    evicted_key, evicted = self._contexts.popitem(last=False)
                    if evicted.clause_store is not None:
                        # save_warm touches the evicted session, which only
                        # its own lane may do: park it on that lane's retire
                        # list, flushed at the lane's next job boundary.
                        shard = self.shard_for(self.shard_key(evicted_key))
                        self._retired[shard].append(evicted)
            else:
                self._contexts.move_to_end(key)
            return context

    def flush_retired(self, shard: int) -> None:
        """Persist evicted contexts parked on ``shard``'s retire list.

        Called from the shard's own lane (with the engine's lane lock held),
        which makes the ``save_warm`` session access single-threaded."""
        with self._lock:
            if not 0 <= shard < len(self._retired) or not self._retired[shard]:
                return
            retired, self._retired[shard] = self._retired[shard], []
        for context in retired:
            context.save_warm()

    # ------------------------------------------------------------------
    # Inert names kept for ``perfbench/tracer.py``, which wraps them by name
    # and is their only reader; nothing in ``src/`` calls them.  ROADMAP
    # item 1 (phase spans) deletes them together with the name-wrapping.
    # ------------------------------------------------------------------
    def absorb_from_family(self, code_key, context, selectors) -> int:
        return 0

    def absorb_from_store(self, code_key, context, selectors) -> int:
        return 0

    def session_for(self, task, compiled) -> ContextView | SolveSession | None:
        """A persistent session for ``task``: a guarded shared-context view
        for code tasks, a dedicated per-task session for code-less tasks
        (the program-logic route), or None when the task cannot safely share
        (nondeterministic compile, unhashable payload)."""
        if not getattr(task, "deterministic", False):
            return None
        code_key = getattr(task, "code", None)
        if code_key is None:
            return self._task_session_for(task, compiled)
        context = self.context_for(code_key)
        if context is None:
            return None
        try:
            return context.task_view(task, compiled.formula)
        except TypeError:  # unhashable task payload
            return None

    def _task_session_for(self, task, compiled) -> SolveSession | None:
        with self._lock:
            try:
                session = self._task_sessions.get(task)
            except TypeError:  # unhashable payload
                return None
            if session is None:
                session = SolveSession(compiled.formula)
                self._task_sessions[task] = session
                while len(self._task_sessions) > self.max_contexts:
                    self._task_sessions.popitem(last=False)
            else:
                self._task_sessions.move_to_end(task)
            return session

    def retire_task(self, task) -> bool:
        """Release a (cancelled) task's solver state without touching the
        shared infrastructure other tasks rely on.

        Code tasks drop their guarded formula from the per-code context
        (root-negated selector + clause erasure); code-less tasks drop their
        dedicated session.  Detection bases and weight guards are left in
        place — they are complete, sound, and exactly what makes the next
        run on the same context cheap.
        """
        code_key = getattr(task, "code", None)
        with self._lock:
            if code_key is None:
                try:
                    return self._task_sessions.pop(task, None) is not None
                except TypeError:
                    return False
            try:
                context = self._contexts.get(code_key)
            except TypeError:
                return False
        if context is None:
            return False
        return context.retire_task(task)

    def quarantine_task(self, task) -> bool:
        """Discard a (possibly poisoned) task's solver state *unsaved*.

        The lane supervisor calls this after a lane thread died mid-job: the
        context's session may hold a half-applied transaction, so unlike LRU
        eviction it is dropped without ``save_warm`` — persisting it could
        poison the warm store too.  A fresh context is rebuilt lazily on the
        shard's next job for the same code.  Returns whether anything was
        dropped.
        """
        code_key = getattr(task, "code", None)
        with self._lock:
            if code_key is None:
                try:
                    dropped = self._task_sessions.pop(task, None) is not None
                except TypeError:
                    return False
            else:
                try:
                    dropped = self._contexts.pop(code_key, None) is not None
                except TypeError:
                    return False
            if dropped:
                self.quarantined += 1
            return dropped

    # ------------------------------------------------------------------
    def enable_clause_store(self, directory: "str | ClauseStore") -> ClauseStore:
        """Attach the persistent sqlite clause store: exact-fingerprint warm
        starts with LBD-ranked eviction and distance checkpoints."""
        store = directory if isinstance(directory, ClauseStore) else ClauseStore(str(directory))
        with self._lock:
            self.clause_store = store
            self.pools.clause_store = store
            for context in self._contexts.values():
                if context.clause_store is None:
                    context.clause_store = store
            return store

    def save_warm(self) -> None:
        with self._lock:
            contexts = list(self._contexts.values())
        for context in contexts:
            context.save_warm()
        if self.clause_store is not None:
            self.pools.save_warm()

    # ------------------------------------------------------------------
    def num_contexts(self) -> int:
        with self._lock:
            return len(self._contexts) + len(self._task_sessions)

    def clear_contexts(self) -> None:
        with self._lock:
            self._contexts.clear()
            self._task_sessions.clear()

    def close(self) -> None:
        self.save_warm()
        with self._lock:
            self._contexts.clear()
            self._task_sessions.clear()
        self.pools.close_all()

    def stats(self) -> dict:
        """Resource counters surfaced through ``Result.session_stats()``."""
        learnt_kept = 0
        learnt_deleted = 0
        context_hits = 0
        context_misses = 0
        retired_guards = 0
        solver: Counter = Counter()
        transfer: Counter = Counter()
        store = self.clause_store
        # Per-lane warm hit/miss/absorption attribution: each context maps to
        # exactly one lane (its shard key's sticky assignment).
        lane_store: dict[int, Counter] = {}
        with self._lock:
            contexts = list(self._contexts.values())
            num_contexts = len(self._contexts)
            assignments = dict(self._shard_assignments)
        for context in contexts:
            session_stats = context.session.stats()
            learnt_kept += session_stats["learnt_kept"]
            learnt_deleted += session_stats["learnt_deleted"]
            solver.update(context.session.counters())
            transfer.update(context.counters)
            context_hits += context.hits
            context_misses += context.misses
            retired_guards += context.retired
            if store is not None:
                lane = assignments.get(self.shard_key(context.key))
                if lane is not None:
                    lane_store.setdefault(lane, Counter()).update(context.counters)
        stats = {
            "contexts": num_contexts,
            "context_hits": context_hits,
            "context_misses": context_misses,
            "pools": len(self.pools),
            "pool_hits": self.pools.hits,
            "pool_misses": self.pools.misses,
            "learnt_kept": learnt_kept,
            "learnt_deleted": learnt_deleted,
        }
        # Guard-GC counters appear once retirement has happened, so the
        # result schema of guard-free runs (e.g. a plain registry sweep)
        # stays as it was.  The other solver counters beyond the search
        # counters (which every Result carries itself) follow the
        # only-when-nonzero rule.
        erased_clauses = solver.pop("erased_clauses", 0)
        if retired_guards:
            stats["retired_guards"] = retired_guards
            stats["erased_clauses"] = erased_clauses
        for name in SEARCH_COUNTERS:
            del solver[name]
        stats.update(nonzero(solver))
        if self.quarantined:
            stats["quarantined_contexts"] = self.quarantined
        if store is not None:
            stats["warm_hits"] = store.hits
            stats["warm_misses"] = store.misses
            stats["warm_absorbed"] = transfer["warm_absorbed"] + self.pools.warm_absorbed()
            if store.evictions:
                stats["store_evictions"] = store.evictions
            stats["store"] = store.stats()
        # The lane table appears once jobs have been dispatched through the
        # sharded executor (same only-when-active rule as the counters
        # above), so blocking-only runs keep their historical schema.
        if self._executor is not None:
            depths = self._executor.queue_depths()
            rows = []
            for lane in self._lane_stats:
                row = {
                    "lane": lane.lane,
                    "queue_depth": depths[lane.lane] if lane.lane < len(depths) else 0,
                    "enqueued": lane.enqueued,
                    "jobs_completed": lane.jobs_completed,
                    "busy_seconds": round(lane.busy_seconds, 6),
                    "shard_keys": sorted(
                        key for key, assigned in assignments.items()
                        if assigned == lane.lane
                    ),
                }
                if store is not None:
                    # Store hit-rate per lane: where exact-fingerprint
                    # reuse lands under the dispatcher's routing.
                    counts = lane_store.get(lane.lane, Counter())
                    hits, misses = counts["warm_hits"], counts["warm_misses"]
                    looked_up = hits + misses
                    row["store_hits"] = hits
                    row["store_misses"] = misses
                    row["warm_absorbed"] = counts["warm_absorbed"]
                    row["store_hit_rate"] = (
                        round(hits / looked_up, 4) if looked_up else 0.0
                    )
                rows.append(row)
            stats["lanes"] = rows
        return stats
