"""Engine-owned solver resources: one shared session per code, the clause store.

Before this layer existed, session ownership was scattered: each task kind
built its own solver and the engine's session cache was keyed per-task, so
correction and detection on the same code re-learnt everything from scratch.
This module centralizes those resources *per code*:

* :class:`CodeContext` — ONE live :class:`~repro.smt.interface.SolveSession`
  per code (code-less program tasks share the one keyed ``None``).  Every
  task is compiled and its refutation formula asserted once, under a
  task-selector guard literal (the engine's only compile cache), so
  correction, detection, constrained and distance queries all solve against
  one clause database and share learnt clauses across task kinds.  The
  shared error/syndrome sub-encoding is emitted once: the encoder's
  expression cache maps the identical error variables, syndrome parities
  and weight counters of later task formulas onto the literals the first
  task allocated.
* :class:`ContextView` — a task's window onto its context: ``check`` solves
  the shared session under the task's selector, which is the session surface
  the backends already expect.
* :class:`ResourceManager` — the engine-facing facade tying the above
  together, with hit/miss counters surfaced in ``Result.session_stats()``.
  It is the one owner of per-code state: under one lock it holds the code
  claims (an execution holds its code's claim for its whole run, so a
  session is driven by one thread at a time) and the context registry,
  whose LRU bound evicts only unclaimed contexts.  Its ``clause_store``
  (:class:`~repro.store.ClauseStore`, the CLI's ``--clause-store``) is fixed
  when the manager is built and is the one warm-start cache: each context
  holds a :class:`~repro.store.WarmStart` (as does each of the parallel
  backend's pool workers), which restores and persists learnt clauses keyed
  by a fingerprint of the exact CNF taken before the session's first check,
  so stale state can never be absorbed.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import replace

from repro import sanitize
from repro.classical.expr import free_variables
from repro.smt.interface import SMTCheck, SolveSession
from repro.smt.solver import SEARCH_COUNTERS, nonzero
from repro.store import ClauseStore, WarmStart

__all__ = [
    "CodeContext",
    "ContextView",
    "ResourceManager",
]


class ContextView:
    """One task's session-shaped window onto a shared :class:`CodeContext`.

    The view carries the task's selector literals; ``check`` selects them on
    every solve, so backends built against the plain
    :class:`~repro.smt.interface.SolveSession` surface (``check``, ``stats``)
    drive the shared session without knowing it is shared.  Extracted models
    are restricted to the task formula's own variables: the shared session
    also names the variables of every *other* guarded task formula, which
    are unconstrained during this task's check and must not leak into its
    counterexamples.
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

    def check(self, assumptions: dict[str, bool] | None = None, control=None) -> SMTCheck:
        self.context.maybe_warm_load()
        check = self.context.session.check(assumptions, select=self.selectors, control=control)
        if check.model is not None and self.variables is not None:
            check.model = {
                name: value for name, value in check.model.items()
                if name in self.variables
            }
        return check

    def stats(self) -> dict:
        return self.context.session.stats()


class CodeContext:
    """Shared solver resources for one code: one session, many task guards.

    Tasks are compiled and their formulas asserted exactly once each,
    guarded by a fresh selector keyed on the task value; re-running a task
    re-selects its guard on the live solver (a context *hit*), and different
    task kinds on the same code share every learnt clause the session has
    accumulated.
    """

    def __init__(
        self,
        key,
        clause_store: ClauseStore | None = None,
        max_task_guards: int = 64,
    ):
        self.key = key
        # Armed only under REPRO_SANITIZE: CodeContext entry points are
        # entered under the code's claim, exactly like the session they drive.
        self._entry_guard = sanitize.new_entry_guard(f"CodeContext({key!r})")
        self.session = SolveSession()
        #: the session's round trip through the clause store, if any
        self.warm = WarmStart(clause_store) if clause_store is not None else None
        self.max_task_guards = max_task_guards
        self.hits = 0
        self.misses = 0
        self.retired = 0
        self._guard_counter = 0
        #: task -> (guard, formula variables, compiled task without formula)
        self._task_guards: OrderedDict[object, tuple[str, frozenset[str], object]] = OrderedDict()
        self._detection_bases: dict[str, tuple[object, str, frozenset[str]]] = {}
        self._weight_guards: set[str] = set()

    # ------------------------------------------------------------------
    @sanitize.entry_guarded
    def task_view(self, task, compile) -> tuple[ContextView, object, bool]:
        """``(view, compiled, hit)``: ``task``'s guarded view, its compiled
        task and whether its guard was live.  On a miss ``compile(task)``
        runs and its formula is asserted under a fresh guard; the entry keeps
        the compiled task with ``formula=None`` (the session holds it)."""
        entry = self._task_guards.get(task)
        hit = entry is not None
        if hit:
            self.hits += 1
            self._task_guards.move_to_end(task)
        else:
            self.misses += 1
            compiled = compile(task)
            # A monotonic counter, not len(): retired guards free their slot
            # in the dict but their selector names must never be reused (a
            # retired selector is root-false forever).
            guard = f"task:{self._guard_counter}"
            self._guard_counter += 1
            self.session.add_guard(guard, compiled.formula)
            entry = (guard, free_variables(compiled.formula), replace(compiled, formula=None))
            self._task_guards[task] = entry
            while len(self._task_guards) > self.max_task_guards:
                _, (stale_guard, _, _) = self._task_guards.popitem(last=False)
                self.session.retire_guard(stale_guard)
                self.retired += 1
        guard, variables, compiled = entry
        return ContextView(self, (guard,), variables=variables), compiled, hit

    @sanitize.entry_guarded
    def retire_task(self, task) -> bool:
        """Release ``task``'s guarded formula from the shared session.

        Called for cancelled (and LRU-evicted) tasks: the task's selector is
        negated at the root, which satisfies every clause the task added
        beyond the shared encodings of its conjuncts (each holds the
        selector, see
        :meth:`~repro.smt.encoder.FormulaEncoder.assert_formula_if`).  The
        solver erases them in batches, once the guards retired since its
        last sweep are half the live ones (see
        :meth:`~repro.smt.interface.SolveSession.retire_guard`), so a
        long-lived context neither accumulates the encodings of tasks that
        will never be re-selected nor rescans its clauses per retirement.
        Re-running the task later simply re-asserts its formula under a
        fresh selector (a context miss).  Returns whether the task actually
        held a guard.
        """
        entry = self._task_guards.pop(task, None)
        if entry is None:
            return False
        self.session.retire_guard(entry[0])
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
    # on the CNF fingerprint at the first check (see WarmStart).
    @sanitize.entry_guarded
    def maybe_warm_load(self) -> None:
        """Absorb the stored clauses for this session; called before every
        check, it acts only before the first."""
        if self.warm is not None:
            self.warm.load(self.session)

    @sanitize.entry_guarded
    def save_warm(self) -> None:
        """Write the learnt clauses this context has not written yet."""
        if self.warm is not None:
            self.warm.save(self.session)


class ResourceManager:
    """The engine's solver-resource facade: code claims, contexts and the
    clause store.

    One lock, ``_lock``, guards all of the manager's bookkeeping: the code
    claims, the context registry and the counters.  Sessions themselves are
    deliberately unlocked: every execution holds its code's claim (see
    :meth:`claim`) for its whole run, so each session is driven by one
    thread at a time.  The registry's LRU bound runs over *idle* contexts
    only: a claimed context is never evicted, so an unmapped context is
    unreachable and its evicting thread saves it without a claim.
    """

    def __init__(self, max_contexts: int = 32, clause_store: ClauseStore | None = None):
        self.max_contexts = max_contexts
        #: the persistent warm-start cache every context shares, if any
        self.clause_store = clause_store
        self._contexts: OrderedDict[object, CodeContext] = OrderedDict()
        #: task compiles served from a context's live guard (hits) or run
        #: for one (misses), see :meth:`session_for`.
        self.task_compiles = {"hits": 0, "misses": 0}
        # The job executor's queue shares this lock, so taking a job and
        # claiming its code are one step.
        self._lock = threading.RLock()
        #: ``claim_key`` of every execution in flight (see :meth:`claim`).
        self._claimed: set = set()
        self._released = threading.Condition(self._lock)
        self._executor = None
        #: contexts discarded unsaved after a lane crash (see
        #: :meth:`quarantine_task`); surfaced in stats when nonzero.
        self.quarantined = 0
        #: learnt clauses the parallel backend's split workers absorbed from
        #: the clause store (see :meth:`record_split_warm`).
        self._split_warm_absorbed = 0

    def attach_executor(self, executor) -> None:
        """Register the job executor: stats report its worker table and a
        released claim wakes one of its workers."""
        self._executor = executor

    # ------------------------------------------------------------------
    # Code claims: whoever executes a task (a blocking ``Engine.run`` caller
    # or an executor worker) holds its ``claim_key`` for the whole execution.
    # ------------------------------------------------------------------
    @staticmethod
    def claim_key(task):
        """The key an execution of ``task`` claims: its code, which is also
        the key of the code's :class:`CodeContext`.  Every code-less task
        shares the key ``None``."""
        return getattr(task, "code", None)

    def try_claim(self, key) -> bool:
        """Claim ``key`` unless someone holds it; never blocks."""
        with self._lock:
            if key in self._claimed:
                return False
            self._claimed.add(key)
            return True

    def claim(self, key) -> None:
        """Claim ``key``, waiting while another execution holds it."""
        with self._lock:
            while key in self._claimed:
                self._released.wait()
            self._claimed.add(key)

    def release(self, key) -> None:
        """Release ``key``'s claim, waking the callers waiting in
        :meth:`claim` and one idle executor worker if jobs are queued."""
        with self._lock:
            self._claimed.discard(key)
            self._released.notify_all()
            if self._executor is not None:
                self._executor.wake()

    # ------------------------------------------------------------------
    def context_for(self, key) -> CodeContext:
        """The live context for a code key (LRU, created on first use).

        ``key`` is a task's code: a registry key, a built
        :class:`~repro.codes.base.StabilizerCode`, which hashes by identity,
        or ``None`` for the code-less program tasks.  Creating a context
        past ``max_contexts`` evicts the least recently used *unclaimed*
        ones; with every other context claimed the registry holds the extras
        until a later creation finds them idle.  This thread saves the
        evicted contexts once it has left the lock: unmapped and unclaimed,
        no other thread can reach them."""
        evicted: list[CodeContext] = []
        with self._lock:
            context = self._contexts.get(key)
            if context is None:
                context = CodeContext(key, clause_store=self.clause_store)
                self._contexts[key] = context
                for stale in list(self._contexts)[:-1]:
                    if len(self._contexts) <= self.max_contexts:
                        break
                    if stale not in self._claimed:
                        evicted.append(self._contexts.pop(stale))
            else:
                self._contexts.move_to_end(key)
        for stale_context in evicted:
            stale_context.save_warm()
        return context

    # ------------------------------------------------------------------
    # Inert names kept for ``perfbench/tracer.py``, which wraps them by name
    # and is their only reader; nothing in ``src/`` calls them.  They go
    # together with the name-wrapping once jobs carry their own phase spans.
    # ------------------------------------------------------------------
    def absorb_from_family(self, code_key, context, selectors) -> int:
        return 0

    def absorb_from_store(self, code_key, context, selectors) -> int:
        return 0

    def session_for(self, task, compile) -> tuple[ContextView, object, bool] | None:
        """``(view, compiled, hit)`` for ``task`` from its code's context
        (see :meth:`CodeContext.task_view`), or None when the task cannot
        safely share (nondeterministic compile, unhashable payload).

        Code-less program tasks share the context keyed ``None``, which is
        also their claim key."""
        if not getattr(task, "deterministic", False):
            return None
        try:
            hash(task)
        except TypeError:  # unhashable payload (e.g. an ad-hoc triple)
            return None
        found = self.context_for(self.claim_key(task)).task_view(task, compile)
        with self._lock:
            self.task_compiles["hits" if found[2] else "misses"] += 1
        return found

    def retire_task(self, task) -> bool:
        """Release a (cancelled) task's solver state without touching the
        shared infrastructure other tasks rely on.

        The task's guarded formula is dropped from its code's context
        (root-negated selector, batched clause erasure).  Detection bases
        and weight guards are left in place — they are complete, sound, and
        exactly what makes the next run on the same context cheap.
        """
        try:
            hash(task)
        except TypeError:  # an unhashable task never held a guard
            return False
        with self._lock:
            context = self._contexts.get(self.claim_key(task))
        if context is None:
            return False
        return context.retire_task(task)

    def quarantine_task(self, task) -> bool:
        """Discard a (possibly poisoned) task's solver state *unsaved*.

        The crash supervisor calls this after a worker thread died mid-job: the
        context's session may hold a half-applied transaction, so unlike LRU
        eviction it is dropped without ``save_warm`` — persisting it could
        poison the warm store too.  A fresh context is rebuilt lazily on the
        next execution on the same code.  Returns whether anything was
        dropped.
        """
        with self._lock:
            try:
                dropped = self._contexts.pop(self.claim_key(task), None) is not None
            except TypeError:
                return False
            if dropped:
                self.quarantined += 1
            return dropped

    # ------------------------------------------------------------------
    def record_split_warm(self, absorbed: int) -> None:
        """Count clauses a split check's pool workers absorbed from the
        store (the workers do not outlive their check)."""
        with self._lock:
            self._split_warm_absorbed += absorbed

    def save_warm(self) -> None:
        with self._lock:
            contexts = list(self._contexts.values())
        for context in contexts:
            context.save_warm()

    # ------------------------------------------------------------------
    def num_contexts(self) -> int:
        with self._lock:
            return len(self._contexts)

    def clear_contexts(self) -> None:
        with self._lock:
            self._contexts.clear()

    def close(self) -> None:
        self.save_warm()
        self.clear_contexts()

    def stats(self) -> dict:
        """Resource counters surfaced through ``Result.session_stats()``."""
        learnt_kept = 0
        learnt_deleted = 0
        context_hits = 0
        context_misses = 0
        retired_guards = 0
        guard_sweeps = 0
        warm_absorbed = 0
        solver: Counter = Counter()
        store = self.clause_store
        with self._lock:
            contexts = list(self._contexts.values())
            num_contexts = len(self._contexts)
            split_warm_absorbed = self._split_warm_absorbed
        for context in contexts:
            session_stats = context.session.stats()
            learnt_kept += session_stats["learnt_kept"]
            learnt_deleted += session_stats["learnt_deleted"]
            solver.update(context.session.counters())
            if context.warm is not None:
                warm_absorbed += context.warm.absorbed
            context_hits += context.hits
            context_misses += context.misses
            retired_guards += context.retired
            guard_sweeps += context.session.guard_sweeps
        stats = {
            "contexts": num_contexts,
            "context_hits": context_hits,
            "context_misses": context_misses,
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
            stats["guard_sweeps"] = guard_sweeps
            stats["erased_clauses"] = erased_clauses
        for name in SEARCH_COUNTERS:
            del solver[name]
        stats.update(nonzero(solver))
        if self.quarantined:
            stats["quarantined_contexts"] = self.quarantined
        if store is not None:
            stats["warm_hits"] = store.hits
            stats["warm_misses"] = store.misses
            stats["warm_absorbed"] = warm_absorbed + split_warm_absorbed
            if store.evictions:
                stats["store_evictions"] = store.evictions
            stats["store"] = store.stats()
        # The worker table appears once jobs have been submitted to the
        # executor (same only-when-active rule as the counters above), so
        # blocking-only runs keep their historical schema.
        if self._executor is not None:
            stats.update(self._executor.stats())
        return stats
