"""A CDCL SAT solver with incremental solving support.

The solver implements the standard conflict-driven clause-learning loop:
two-watched-literal unit propagation, first-UIP conflict analysis with
clause learning and non-chronological backjumping, VSIDS-style activity
ordering with decay, Luby restarts and learnt-clause deletion.  It is written
for clarity first, but is fast enough for the QEC verification conditions in
the benchmarks (thousands of variables, tens of thousands of clauses).

Assumption literals are supported so the parallel verifier can split a task
into subtasks by fixing selected error indicators, mirroring the enumeration
strategy of Appendix D.4.

The solver is *incremental* in the MiniSat sense: :meth:`SATSolver.solve` may
be called repeatedly (with different assumption sets), and between calls new
clauses and variables may be added with :meth:`SATSolver.add_clause` and
:meth:`SATSolver.grow_variables`.  Learnt clauses, VSIDS activities, saved
phases and the root-level trail all survive across calls, which is what makes
closely related queries (enumeration subtasks, trial-distance walks, registry
sweeps) dramatically cheaper than re-solving from scratch.  Learnt clauses
are sound across calls because first-UIP learning only resolves over reason
clauses — assumption literals enter learnt clauses negatively instead of
being resolved away, so every learnt clause is a consequence of the clause
database alone.

Long-lived shared sessions need the learnt database managed, not merely
retained: learnt clauses are scored by their literal-block distance (LBD, the
number of distinct decision levels among their literals) and minimized with
the recursive (MiniSat-style) redundant-literal elimination before being
attached; when the learnt population outgrows its budget, the worst half
(highest LBD, breaking ties on length) is deleted, keeping "glue" clauses
(LBD <= 2) and clauses currently locked as reasons.  Clauses restored from a
warm cache enter through :meth:`SATSolver.absorb_learnt`, so they stay
deletable like any other learnt clause.

Hot-path engineering (MiniSat / glucose playbook):

* **Decisions** come from an indexed binary max-heap over variable
  activities (ties broken toward the smaller variable index, which makes the
  heap pick *identical* to a linear maximum scan).  Deletion is lazy and is
  the heap's only upkeep: assigned variables stay queued until they surface
  at the top and are discarded (counted in ``heap_discards``), and every
  backtrack — including the one that ends a solve call — reinserts each
  variable it unassigns, so every unassigned variable is always in the
  heap.  A decision costs O(log n) instead of an O(n) scan.
* **Propagation** uses per-literal watcher arrays of (clause index, blocker
  literal) pairs stored interleaved in flat lists indexed by a literal→slot
  map, with truth values stored literal-indexed so a value check is one
  list lookup.  A watcher whose cached blocker is already true is skipped
  without touching the clause at all (counted in ``blocker_hits``);
  watcher lists are swap-compacted in place — only once a watcher has
  actually migrated — instead of being rebuilt per propagation, and
  binary clauses live in dedicated watcher arrays that resolve from the
  cached pair alone.
* **Conflict analysis** allocates nothing proportional to the variable
  count: the ``seen`` mark states, the minimization stack and the level
  scratch are reusable instance buffers cleared through a to-clear list,
  so a conflict costs O(size of the resolved clauses), not O(num_vars).
  Minimization is a path-DFS over the reason graph with post-order
  removable/failed memoization and an abstract-level bitmask filter.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

__all__ = [
    "SEARCH_COUNTERS",
    "SATSolver",
    "SearchCounters",
    "SolveControl",
    "SolverInterrupted",
    "SolverResult",
    "nonzero",
]

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

# Mark states for the shared conflict-analysis ``_seen`` buffer.
_SEEN_SOURCE = 1  # marked during first-UIP resolution (or a learnt literal)
_SEEN_REMOVABLE = 2  # minimization memo: proven to ground out in the clause
_SEEN_FAILED = 3  # minimization memo: proven NOT to ground out

#: The counters every stats layer reports even when zero (``Result``, the
#: ``SolverStats`` event and benchmark tracers read them unconditionally).
SEARCH_COUNTERS = ("conflicts", "decisions", "propagations")


def nonzero(counters: Mapping[str, int], always: Iterable[str] = ()) -> dict[str, int]:
    """The counters a stats layer reports: the ``always`` keys (0 when
    absent), then every other key whose value is nonzero, in mapping order.

    This is the only-when-nonzero rule, written once: a counter appears in
    stats dicts and events once the behaviour it counts has happened, so
    runs that never trigger it keep their schema.
    """
    report = {key: counters.get(key, 0) for key in always}
    for key, value in counters.items():
        if value and key not in report:
            report[key] = value
    return report


class SearchCounters:
    """Attribute access to the search counters of a ``counters`` mapping."""

    @property
    def conflicts(self) -> int:
        return self.counters["conflicts"]

    @property
    def decisions(self) -> int:
        return self.counters["decisions"]

    @property
    def propagations(self) -> int:
        return self.counters["propagations"]


@dataclass
class SolverResult(SearchCounters):
    """Outcome of one solve call.

    ``counters`` holds the per-call deltas of :meth:`SATSolver.counters`;
    counters the call did not move are absent (and read as 0).
    """

    satisfiable: bool
    model: dict[int, bool] | None = None
    counters: Counter = field(default_factory=Counter)

    def __bool__(self) -> bool:
        return self.satisfiable


class SolverInterrupted(Exception):
    """A solve call was interrupted by its :class:`SolveControl`.

    The solver backtracks to decision level 0 before raising, so the instance
    stays fully consistent — learnt clauses, activities and the root trail are
    retained, and the next :meth:`SATSolver.solve` call behaves as if the
    interrupted call never happened.  ``reason`` is one of ``"cancelled"``,
    ``"deadline"`` or ``"budget"``.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class SolveControl:
    """Cooperative interruption policy for one (or many) solve calls.

    The solver polls the control every ``check_interval`` search events (a
    conflict counts more than a decision, so the latency bound is roughly one
    "solve-budget slice" of ``check_interval / 8`` conflicts or
    ``check_interval`` decisions, whichever comes first):

    * ``cancelled`` — a zero-argument callable (e.g. ``threading.Event.is_set``)
      flipped by another thread; truthy means stop with reason ``"cancelled"``;
    * ``deadline``  — a :func:`time.monotonic` timestamp; reaching it stops
      with reason ``"deadline"``;
    * ``conflict_budget`` — a per-call conflict allowance; exceeding it stops
      with reason ``"budget"``.

    One control may be shared by every solve call of a job, which is how a
    per-job deadline bounds a whole distance walk rather than one probe.
    """

    deadline: float | None = None
    cancelled: Callable[[], bool] | None = None
    conflict_budget: int | None = None
    check_interval: int = 128

    def interrupted(self, conflicts: int = 0) -> str | None:
        """The stop reason, or None to keep searching."""
        if self.cancelled is not None and self.cancelled():
            return "cancelled"
        if self.conflict_budget is not None and conflicts > self.conflict_budget:
            return "budget"
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return "deadline"
        return None


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (``index`` is 1-based)."""
    while True:
        k = index.bit_length()
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        index = index - (1 << (k - 1)) + 1


class SATSolver:
    """Conflict-driven clause-learning solver over a :class:`~repro.smt.cnf.CNF`."""

    def __init__(
        self,
        cnf,
        max_learnt: int | None = None,
    ):
        self.clauses: list[list[int]] = []
        # Learnt-clause budget: None sets it per solve call to
        # max(1000, len(self.clauses) // 3), where self.clauses holds the
        # problem *and* the learnt clauses; an explicit value (used by tests
        # and by callers that keep sessions alive for very long) fixes the
        # reduction trigger.
        self.max_learnt = max_learnt
        self.clause_is_learnt: list[bool] = []
        self.clause_lbd: list[int] = []
        # Problem clauses and learnt clauses interleave once add_clause is
        # used, so each population is tracked as a count (kept by
        # _attach_clause), not as a boundary index into self.clauses.
        self.num_problem_clauses = 0
        self.num_learnt = 0
        self.learnt_deleted = 0
        self.reductions = 0
        self.minimized_literals = 0
        self.binary_subsumed = 0
        self.erased_clauses = 0

        # Per-variable state (index 0 unused); every array here is extended
        # in one place, grow_variables, so the solver cannot grow one array
        # and forget another.
        self.num_vars = 0
        # Literal truth values, indexed by the *literal itself*: _lit_values
        # has length 2*num_vars + 1 so a negative literal indexes from the
        # end (Python's negative indexing).  One list lookup answers "what is
        # the value of literal l" with no sign test and no abs() — the
        # single most frequent operation in the solver.
        self._lit_values: list[int] = [_UNASSIGNED]
        self.level: list[int] = [0]
        self.reason: list[int | None] = [None]
        self.activity: list[float] = [0.0]
        self.polarity: list[bool] = [False]

        # Watcher arrays: _watchers[slot] is a flat interleaved list of
        # (clause_index, blocker_literal) pairs for one literal.  The slot of
        # literal l is 2*l for l > 0 and 1 - 2*l for l < 0, so a literal's
        # watchers are one list lookup away (no dict hashing on the hot
        # path).  Binary clauses live in the parallel _binary_watchers
        # arrays, scanned first and without any compaction bookkeeping (a
        # binary watcher can never migrate).  Slots 0 and 1 belong to the
        # unused variable 0.
        self._watchers: list[list[int]] = [[], []]
        self._binary_watchers: list[list[int]] = [[], []]

        # Decision heap: an indexed binary max-heap of variables ordered by
        # (activity, -var).  _heap_index[var] is the variable's position in
        # _heap, or -1 when absent.  Every unassigned variable is present;
        # assigned ones are discarded lazily when they surface.
        self._heap: list[int] = []
        self._heap_index: list[int] = [-1]

        # Conflict-analysis scratch, reused across conflicts and cleared via
        # _seen_to_clear so per-conflict cost scales with the clause sizes
        # involved, never with num_vars.  _seen holds per-variable mark
        # states: 0 = unseen, _SEEN_SOURCE = marked by first-UIP resolution,
        # _SEEN_REMOVABLE / _SEEN_FAILED = minimization memo verdicts.
        self._seen: list[int] = [0]
        self._seen_to_clear: list[int] = []
        self._min_stack: list[int] = []
        self._levels_scratch: set[int] = set()
        self._bin_subsume_scratch: set[int] = set()

        self.trail: list[int] = []
        self.trail_limits: list[int] = []
        self.queue_head = 0

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.blocker_hits = 0
        self.heap_discards = 0
        self.num_solves = 0
        self._restart_count = 0
        self._activity_increment = 1.0
        self._activity_decay = 0.95
        self._contradiction = False

        self.grow_variables(cnf.num_vars)
        # The input clauses are attached as given: add_clause's root-level
        # simplification would change the clause database.
        for clause in cnf.clauses:
            self._attach_clause(list(clause), learnt=False)

    # ------------------------------------------------------------------
    # Incremental interface
    # ------------------------------------------------------------------
    def grow_variables(self, num_vars: int) -> None:
        """Extend every per-variable array (and the watcher slots and the
        decision heap) to cover variables up to ``num_vars``; a no-op when
        not larger.  The single place variable storage is allocated."""
        extra = num_vars - self.num_vars
        if extra <= 0:
            return
        # The literal-indexed value array cannot be extended in place — a
        # negative literal's position depends on the total length — so it is
        # rebuilt from the (root-level) trail.  Growth only ever happens
        # between solve calls at decision level 0, where the trail lists
        # every assigned literal.
        values = [_UNASSIGNED] * (2 * num_vars + 1)
        for trail_lit in self.trail:
            values[trail_lit] = _TRUE
            values[-trail_lit] = _FALSE
        self._lit_values = values
        self.level.extend([0] * extra)
        self.reason.extend([None] * extra)
        self.activity.extend([0.0] * extra)
        self.polarity.extend([False] * extra)
        self._seen.extend([0] * extra)
        self._heap_index.extend([-1] * extra)
        for _ in range(extra):
            self._watchers.append([])
            self._watchers.append([])
            self._binary_watchers.append([])
            self._binary_watchers.append([])
        first_new = self.num_vars + 1
        self.num_vars = num_vars
        for var in range(first_new, num_vars + 1):
            self._heap_insert(var)

    def add_clause(self, clause) -> None:
        """Attach a clause after construction (between :meth:`solve` calls).

        The clause is simplified against the permanent root-level assignment:
        literals false at level 0 are dropped and clauses satisfied at level 0
        are skipped entirely, so the two chosen watches are never false and
        the watched-literal invariant is preserved without repair passes.
        Units are enqueued on the root trail; the next :meth:`solve` call
        propagates them before doing any search.
        """
        simplified = self._simplify_against_root(clause)
        if simplified is None:
            return
        self._attach_clause(simplified, learnt=False)

    def absorb_learnt(self, clause) -> bool:
        """Attach a clause known to be a consequence of the formula.

        This is the clause-store warm-start entry point: learnt clauses that
        the ``ClauseStore`` kept from an earlier session over the *same*
        formula may be re-attached here.  They enter the database as learnt
        clauses (scored by their length, since the original LBD is
        meaningless against a fresh trail), so the periodic reduction can
        still delete them.  Returns whether the clause survived root-level
        simplification and was stored.
        """
        simplified = self._simplify_against_root(clause)
        if simplified is None:
            return False
        index = self._attach_clause(simplified, learnt=True, lbd=len(simplified))
        return index is not None

    def learnt_clauses_meta(self, max_var: int | None = None) -> list[tuple[list[int], int]]:
        """The current learnt clauses paired with their LBDs, optionally
        restricted to ``var <= max_var``.

        The restriction is what makes serialization safe for sessions whose
        encoding keeps growing: clauses over variables that a fresh session
        will allocate identically (the base encoding) round-trip; clauses over
        later auxiliary variables are filtered out.  The clause store
        persists the LBD alongside the literals so its size-bounded eviction
        can drop the least valuable clauses (worst LBD, then oldest) instead
        of evicting blindly.
        """
        result = []
        for index, clause in enumerate(self.clauses):
            if not self.clause_is_learnt[index]:
                continue
            if max_var is not None and any(abs(lit) > max_var for lit in clause):
                continue
            result.append((list(clause), self.clause_lbd[index]))
        return result

    def _simplify_against_root(self, clause) -> list[int] | None:
        """Root-level simplification shared by the clause entry points.

        Returns the simplified literal list, or None when the clause is a
        tautology or permanently satisfied and need not be stored.
        """
        if self.trail_limits:
            raise RuntimeError("clauses may only be added at decision level 0")
        values = self._lit_values
        num_vars = self.num_vars
        seen: set[int] = set()
        simplified: list[int] = []
        for lit in clause:
            lit = int(lit)
            if lit == 0 or lit > num_vars or lit < -num_vars:
                raise ValueError(f"literal {lit} out of range")
            if lit in seen:
                continue
            if -lit in seen:
                return None  # tautology
            seen.add(lit)
            value = values[lit]
            if value == _TRUE:
                return None  # permanently satisfied at level 0
            if value == _FALSE:
                continue  # permanently falsified literal
            simplified.append(lit)
        return simplified

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------
    def _attach_clause(self, clause: list[int], learnt: bool, lbd: int = 0) -> int | None:
        """Store ``clause`` and watch its first two literals; returns its
        index.  Every clause enters the database here.

        An empty clause latches the contradiction and a unit is enqueued
        instead of stored (both return None).  A watch is registered on the
        slot scanned when the watched literal becomes false, i.e. the slot
        of its negation, with the other watch cached as the blocker so
        propagation can skip the clause when the blocker is already true.
        Binary clauses live in their own per-literal arrays: their blocker
        IS the whole remaining clause, so propagation resolves them from the
        watcher pair alone — never touching the clause list, never
        migrating, and never paying the long-watcher compaction bookkeeping.
        """
        if not clause:
            self._contradiction = True
            return None
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._contradiction = True
            return None
        index = len(self.clauses)
        self.clauses.append(clause)
        self.clause_is_learnt.append(learnt)
        if learnt:
            self.clause_lbd.append(lbd)
            self.num_learnt += 1
        else:
            self.clause_lbd.append(0)
            self.num_problem_clauses += 1
        first, second = clause[0], clause[1]
        watchers = self._binary_watchers if len(clause) == 2 else self._watchers
        watcher_list = watchers[(first << 1) + 1 if first > 0 else -(first << 1)]
        watcher_list.append(index)
        watcher_list.append(second)
        watcher_list = watchers[(second << 1) + 1 if second > 0 else -(second << 1)]
        watcher_list.append(index)
        watcher_list.append(first)
        return index

    def _install_clauses(self, kept: list[tuple[int, list[int]]]) -> dict[int, int]:
        """Make ``kept`` the whole clause database and return the old→new
        index map.

        ``kept`` lists ``(old index, literals)`` rows in database order, each
        with at least two literals; each row keeps its learnt flag and LBD.
        This is the one compaction behind the bulk clause surgery
        (:meth:`_reduce_learnt`, :meth:`erase_satisfied`): the database,
        its counts and every watcher list are rebuilt by re-attaching the
        rows.
        """
        rows = [
            (clause, self.clause_is_learnt[index], self.clause_lbd[index])
            for index, clause in kept
        ]
        self.clauses = []
        self.clause_is_learnt = []
        self.clause_lbd = []
        self.num_problem_clauses = self.num_learnt = 0
        for watcher_list in self._watchers:
            watcher_list.clear()
        for watcher_list in self._binary_watchers:
            watcher_list.clear()
        for clause, learnt, lbd in rows:
            self._attach_clause(clause, learnt, lbd)
        return {old: new for new, (old, _) in enumerate(kept)}

    def _reduce_learnt(self) -> None:
        """Delete the worst half of the deletable learnt clauses.

        Deletable means: learnt, not currently the reason of an assigned
        literal (locked), and not glue (LBD > 2).  Worst is highest LBD,
        breaking ties on clause length.  The clause list is compacted and the
        watcher lists and reason indices remapped, so the method is safe at
        any decision level (the solve loop calls it between propagation and
        the next decision).
        """
        locked = {index for index in self.reason if index is not None}
        candidates = [
            index
            for index in range(len(self.clauses))
            if self.clause_is_learnt[index]
            and self.clause_lbd[index] > 2
            and index not in locked
        ]
        if len(candidates) < 2:
            return
        candidates.sort(key=lambda index: (self.clause_lbd[index], len(self.clauses[index])))
        drop = set(candidates[len(candidates) // 2 :])
        mapping = self._install_clauses(
            [(index, clause) for index, clause in enumerate(self.clauses) if index not in drop]
        )
        for var in range(1, self.num_vars + 1):
            reason_index = self.reason[var]
            if reason_index is not None:
                self.reason[var] = mapping[reason_index]
        self.learnt_deleted += len(drop)
        self.reductions += 1

    def erase_satisfied(self) -> int:
        """Erase clauses permanently satisfied at level 0; strip false literals.

        This is the solver half of guard garbage collection: once a selector
        is negated at the root, every clause it guarded is permanently
        satisfied and can be physically removed, so retiring stale guards
        actually shrinks the clause database instead of leaving dead weight
        in the watcher lists.  Root-falsified literals are stripped from the
        surviving clauses at the same time (sound: they can never help
        satisfy the clause again).  Returns the number of erased clauses.
        """
        if self._decision_level() != 0:
            raise RuntimeError("erase_satisfied requires decision level 0")
        if self._contradiction:
            return 0
        if self._propagate() is not None:
            self._contradiction = True
            return 0
        values = self._lit_values
        erased = 0
        kept: list[tuple[int, list[int]]] = []
        for index, clause in enumerate(self.clauses):
            if not any(values[lit] == _TRUE for lit in clause):
                stripped = [lit for lit in clause if values[lit] != _FALSE]
                if len(stripped) >= 2:
                    kept.append((index, stripped))
                    continue
                # With the root trail fully propagated, an unsatisfied clause
                # keeps >= 2 unassigned literals; handle the impossible shapes
                # defensively anyway so a caller bug cannot corrupt the
                # watchers.
                if not stripped:
                    self._contradiction = True
                    continue
                self._enqueue(stripped[0], None)
            erased += 1
        self._install_clauses(kept)
        # Every assigned variable is at level 0 here, and level-0 assignments
        # never need their reasons again (conflict analysis skips them), so
        # dropping all reason indices is both safe and required — they may
        # point at erased clauses.  (Remapping them instead would keep their
        # learnt clauses locked against later reductions.)
        self.reason = [None] * (self.num_vars + 1)
        self.erased_clauses += erased
        return erased

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        return self._lit_values[lit]

    def _enqueue(self, lit: int, reason_index: int | None) -> bool:
        values = self._lit_values
        current = values[lit]
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        values[lit] = _TRUE
        values[-lit] = _FALSE
        var = abs(lit)
        self.level[var] = len(self.trail_limits)
        self.reason[var] = reason_index
        self.trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_limits)

    # ------------------------------------------------------------------
    # Unit propagation: two watched literals with cached blockers
    # ------------------------------------------------------------------
    def _propagate(self) -> int | None:
        """Propagate pending assignments; return a conflicting clause index or None.

        The inner loop walks one literal's watcher slot — a flat interleaved
        (clause_index, blocker) list — compacting it in place: watchers that
        stay put are copied down over the ones that migrated to another
        literal, and the tail is truncated once, instead of materialising a
        new list per propagated literal.  A watcher whose cached blocker is
        already true is kept without touching its clause (``blocker_hits``).
        Binary clauses live in dedicated watcher arrays scanned first for
        each literal: true blocker → satisfied, false blocker → conflict,
        unassigned blocker → implied, with their clause never fetched.
        Implied literals are assigned inline (the :meth:`_enqueue` checks
        are statically known to pass here), which matters because
        propagation assigns far more literals than decisions and conflicts
        combined.
        """
        trail = self.trail
        trail_append = trail.append
        watchers = self._watchers
        binary_watchers = self._binary_watchers
        clauses = self.clauses
        values = self._lit_values
        level = self.level
        reason = self.reason
        current_level = len(self.trail_limits)
        blocker_hits = 0
        propagations = 0
        conflict: int | None = None
        head = self.queue_head
        while head < len(trail):
            lit = trail[head]
            head += 1
            propagations += 1
            slot = lit << 1 if lit > 0 else 1 - (lit << 1)
            # Binary watchers first: each resolves from its (index, blocker)
            # pair alone — no clause fetch, no migration, no compaction.
            # zip(it, it) walks the flat list pairwise at C speed.
            binary_list = binary_watchers[slot]
            if binary_list:
                pairs = iter(binary_list)
                for clause_index, blocker in zip(pairs, pairs):
                    value = values[blocker]
                    if value == _TRUE:
                        blocker_hits += 1
                        continue
                    if value == _FALSE:
                        conflict = clause_index
                        break
                    values[blocker] = _TRUE
                    values[-blocker] = _FALSE
                    var = blocker if blocker > 0 else -blocker
                    level[var] = current_level
                    reason[var] = clause_index
                    trail_append(blocker)
                if conflict is not None:
                    break
            watcher_list = watchers[slot]
            if not watcher_list:
                continue
            false_lit = -lit
            read = write = 0
            end = len(watcher_list)
            # ``write`` trails ``read`` only once a watcher has migrated
            # away; until then every entry keeps its place and the loop
            # writes nothing at all (the overwhelmingly common case).
            dirty = False
            while read < end:
                clause_index = watcher_list[read]
                blocker = watcher_list[read + 1]
                read += 2
                value = values[blocker]
                if value == _TRUE:
                    blocker_hits += 1
                    if dirty:
                        watcher_list[write] = clause_index
                        watcher_list[write + 1] = blocker
                    write += 2
                    continue
                clause = clauses[clause_index]
                # Ensure the falsified literal is in position 1.
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                if first != blocker:
                    value = values[first]
                    if value == _TRUE:
                        watcher_list[write] = clause_index
                        watcher_list[write + 1] = first
                        write += 2
                        continue
                # Look for a new literal to watch.
                found = False
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if values[candidate] != _FALSE:
                        clause[1] = candidate
                        clause[position] = false_lit
                        migrated = watchers[
                            (candidate << 1) + 1 if candidate > 0
                            else -(candidate << 1)
                        ]
                        migrated.append(clause_index)
                        migrated.append(first)
                        found = True
                        dirty = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                watcher_list[write] = clause_index
                watcher_list[write + 1] = first
                write += 2
                value = values[first]
                if value == _FALSE:
                    conflict = clause_index
                    break
                values[first] = _TRUE
                values[-first] = _FALSE
                var = first if first > 0 else -first
                level[var] = current_level
                reason[var] = clause_index
                trail_append(first)
            if conflict is not None:
                # Keep the remaining watchers and report the conflict.
                if dirty:
                    while read < end:
                        watcher_list[write] = watcher_list[read]
                        watcher_list[write + 1] = watcher_list[read + 1]
                        read += 2
                        write += 2
                    del watcher_list[write:]
                break
            if dirty:
                del watcher_list[write:]
        self.queue_head = head
        self.blocker_hits += blocker_hits
        self.propagations += propagations
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP), allocation-free
    # ------------------------------------------------------------------
    def _analyze(self, conflict_index: int) -> tuple[list[int], int, int]:
        """First-UIP analysis: returns ``(learnt_clause, backjump_level, lbd)``.

        Uses the instance-level ``_seen`` buffer; every variable marked here
        (or by the minimization below) is recorded in ``_seen_to_clear`` and
        unmarked before returning, so the buffer is all-False between
        conflicts without ever being rebuilt.
        """
        learnt: list[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        to_clear = self._seen_to_clear
        level = self.level
        trail = self.trail
        activity = self.activity
        heap_index = self._heap_index
        increment = self._activity_increment
        counter = 0
        lit = 0  # 0 is never a literal: first iteration resolves nothing
        clause_index: int | None = conflict_index
        trail_position = len(trail) - 1
        current_level = self._decision_level()

        while True:
            clause = self.clauses[clause_index]
            for clause_lit in clause:
                if clause_lit == lit:
                    continue
                var = clause_lit if clause_lit > 0 else -clause_lit
                if not seen[var] and level[var] > 0:
                    seen[var] = _SEEN_SOURCE
                    to_clear.append(var)
                    # Inlined _bump_activity: this runs once per resolved
                    # variable per conflict, the single hottest non-propagate
                    # site in the solver.
                    bumped = activity[var] + increment
                    activity[var] = bumped
                    if bumped > 1e100:
                        self._rescale_activities()
                        increment = self._activity_increment
                    elif heap_index[var] >= 0:
                        self._heap_sift_up(heap_index[var])
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(clause_lit)
            # Select the next literal on the trail to resolve.
            while True:
                lit = trail[trail_position]
                trail_position -= 1
                var = lit if lit > 0 else -lit
                if seen[var]:
                    break
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            clause_index = self.reason[var]
        learnt[0] = -lit

        if len(learnt) > 2:
            learnt = self._minimize_learnt(learnt)
            if len(learnt) > 2:
                learnt = self._subsume_binary(learnt)

        if len(learnt) == 1:
            backjump_level = 0
            lbd = 1
        else:
            # Move the literal with the highest level (other than the UIP) to slot 1.
            best = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
            learnt[1], learnt[best] = learnt[best], learnt[1]
            backjump_level = level[abs(learnt[1])]
            levels = self._levels_scratch
            levels.clear()
            for learnt_lit in learnt:
                levels.add(level[abs(learnt_lit)])
            lbd = len(levels)
        for var in to_clear:
            seen[var] = 0
        to_clear.clear()
        return learnt, backjump_level, lbd

    def _minimize_learnt(self, learnt: list[int]) -> list[int]:
        """Recursive clause minimization (MiniSat's redundant-literal test).

        A non-UIP literal is redundant when its reason clause — and,
        recursively, the reasons of that clause's literals — grounds out
        entirely in literals already in the learnt clause (``_seen``) or
        fixed at level 0.  ``_seen`` doubles as the memo: literals proven
        reachable stay marked (their variables are already queued on
        ``_seen_to_clear``, which :meth:`_analyze` clears), failed probes
        unwind their own marks only.

        Bookkeeping invariant (audited — the var/literal split is easy to
        misread): the DFS stack holds (clause position, *literal*) frames
        while ``_seen``/``_seen_to_clear`` record *variables*; a frame's own
        variable never re-expands because the scan skips it explicitly.
        Marks are written post-order — ``_SEEN_REMOVABLE`` only once a
        variable's entire reason subtree verified — so they are sound
        memoized verdicts even when the enclosing probe later fails, and
        nothing is ever unwound.  A failure marks the active chain
        ``_SEEN_FAILED`` (each ancestor needed the failing literal to
        ground), which later probes reject in O(1).  Dropping a literal from
        the learnt clause leaves its ``_SEEN_SOURCE`` mark in place: a
        literal proven to ground out in the clause remains a valid ground
        for others.  ``tests/smt/test_hotpath.py`` pins all of this with
        crafted and randomized entailment checks.
        """
        level = self.level
        reason = self.reason
        clauses = self.clauses
        seen = self._seen
        to_clear = self._seen_to_clear
        stack = self._min_stack
        # MiniSat's abstract level set: a 64-bit signature of the decision
        # levels present in the learnt clause.  The membership test below is
        # a sound early-abort filter — a hash collision merely lets a walk
        # continue, and redundancy is only ever concluded from actual
        # grounding in marked/level-0 literals.
        abstract_levels = 0
        for lit in learnt[1:]:
            abstract_levels |= 1 << (level[abs(lit)] & 63)
        kept = [learnt[0]]
        for lit in learnt[1:]:
            root_var = lit if lit > 0 else -lit
            if reason[root_var] is None:
                kept.append(lit)
                continue
            # Iterative path-DFS over the reason graph (acyclic: a reason's
            # literals were all assigned before the literal it implies).  A
            # variable is marked _SEEN_REMOVABLE only *after* its whole
            # subtree verified (post-order), so marks are sound even when
            # the probe as a whole later fails and nothing is ever unwound;
            # a failure marks the current chain _SEEN_FAILED so later probes
            # reject it in O(1) instead of re-walking it.
            stack.clear()
            current = lit
            current_var = root_var
            clause = clauses[reason[root_var]]
            position = 0
            redundant = True
            while True:
                if position < len(clause):
                    other = clause[position]
                    position += 1
                    var = other if other > 0 else -other
                    if var == current_var or level[var] == 0:
                        continue
                    state = seen[var]
                    if state == _SEEN_SOURCE or state == _SEEN_REMOVABLE:
                        continue
                    if (
                        state == _SEEN_FAILED
                        or reason[var] is None
                        or not (abstract_levels >> (level[var] & 63)) & 1
                    ):
                        # Grounds in a decision/assumption, leaves the
                        # clause's levels, or is already known to fail.
                        redundant = False
                        break
                    # Descend into the unverified literal.
                    stack.append(position)
                    stack.append(current)
                    current = other
                    current_var = var
                    clause = clauses[reason[var]]
                    position = 0
                else:
                    # Every literal of current's reason grounds out.
                    if not seen[current_var]:
                        seen[current_var] = _SEEN_REMOVABLE
                        to_clear.append(current_var)
                    if not stack:
                        break
                    current = stack.pop()
                    position = stack.pop()
                    current_var = current if current > 0 else -current
                    clause = clauses[reason[current_var]]
            if redundant:
                continue
            # The whole chain from the probe root down to the failure point
            # is non-redundant: each ancestor needed the failing literal to
            # ground.  Memoize that verdict (source marks stay source).
            if not seen[current_var]:
                seen[current_var] = _SEEN_FAILED
                to_clear.append(current_var)
            while stack:
                current = stack.pop()
                stack.pop()
                current_var = current if current > 0 else -current
                if not seen[current_var]:
                    seen[current_var] = _SEEN_FAILED
                    to_clear.append(current_var)
            kept.append(lit)
        self.minimized_literals += len(learnt) - len(kept)
        return kept

    #: LBD bound above which binary self-subsumption is skipped (glucose's
    #: ``lbLBDMinimizingClause``): high-LBD clauses are poor keepers and
    #: their UIP literals tend to carry the longest binary watcher lists.
    BINARY_SUBSUME_MAX_LBD = 6

    def _subsume_binary(self, learnt: list[int]) -> list[int]:
        """Glucose-style binary self-subsumption of a fresh learnt clause.

        The minimized clause is ``(a | rest)`` with ``a`` the asserting
        literal.  Every *binary* clause containing ``a`` sits in ``a``'s
        dedicated binary watcher slot as an ``(index, other)`` pair, so the
        scan below resolves against the whole binary occurrence list without
        fetching a single clause: a database clause ``(a | b)`` self-subsumes
        ``-b`` out of ``(a | -b | rest)``, leaving the strictly stronger
        ``(a | rest)``.  Removed literals are counted in ``binary_subsumed``.
        Like glucose, the pass is gated on the clause's LBD — junk clauses
        are not worth the watcher-list walk.
        """
        level = self.level
        levels = self._levels_scratch
        levels.clear()
        for lit in learnt:
            levels.add(level[lit if lit > 0 else -lit])
        if len(levels) > self.BINARY_SUBSUME_MAX_LBD:
            return learnt
        asserting = learnt[0]
        binary_list = self._binary_watchers[
            (asserting << 1) + 1 if asserting > 0 else -(asserting << 1)
        ]
        if not binary_list:
            return learnt
        # The scratch holds, for each candidate literal ``-b`` of the learnt
        # clause, the resolving literal ``b`` to look for among the binary
        # watchers; a hit deletes it, so what survives marks the keepers.
        scratch = self._bin_subsume_scratch
        scratch.clear()
        for lit in learnt[1:]:
            scratch.add(-lit)
        removed = 0
        pairs = iter(binary_list)
        for _, other in zip(pairs, pairs):
            if other in scratch:
                scratch.discard(other)
                removed += 1
        if not removed:
            scratch.clear()
            return learnt
        self.binary_subsumed += removed
        kept = [asserting]
        for lit in learnt[1:]:
            if -lit in scratch:
                kept.append(lit)
        scratch.clear()
        return kept

    # ------------------------------------------------------------------
    # Activity ordering (EVSIDS) and the decision heap
    # ------------------------------------------------------------------
    def _bump_activity(self, var: int) -> None:
        activity = self.activity
        activity[var] += self._activity_increment
        if activity[var] > 1e100:
            self._rescale_activities()
        elif self._heap_index[var] >= 0:
            self._heap_sift_up(self._heap_index[var])

    def _rescale_activities(self) -> None:
        """Scale every activity (and the increment) down by 1e-100.

        A uniform rescale preserves ordering, but the heap is rebuilt in
        place anyway: it is rare, cheap, and immune to float rounding
        collapsing distinct activities into ties.
        """
        activity = self.activity
        for index in range(1, self.num_vars + 1):
            activity[index] *= 1e-100
        self._activity_increment *= 1e-100
        self._heap_rebuild()

    def _decay_activities(self) -> None:
        self._activity_increment /= self._activity_decay

    def _heap_insert(self, var: int) -> None:
        if self._heap_index[var] >= 0:
            return
        heap = self._heap
        heap.append(var)
        position = len(heap) - 1
        self._heap_index[var] = position
        self._heap_sift_up(position)

    def _heap_sift_up(self, position: int) -> None:
        heap = self._heap
        index = self._heap_index
        activity = self.activity
        var = heap[position]
        var_activity = activity[var]
        while position > 0:
            parent_position = (position - 1) >> 1
            parent = heap[parent_position]
            parent_activity = activity[parent]
            if parent_activity > var_activity or (
                parent_activity == var_activity and parent < var
            ):
                break
            heap[position] = parent
            index[parent] = position
            position = parent_position
        heap[position] = var
        index[var] = position

    def _heap_sift_down(self, position: int) -> None:
        heap = self._heap
        index = self._heap_index
        activity = self.activity
        size = len(heap)
        var = heap[position]
        var_activity = activity[var]
        while True:
            child_position = (position << 1) + 1
            if child_position >= size:
                break
            child = heap[child_position]
            child_activity = activity[child]
            right_position = child_position + 1
            if right_position < size:
                right = heap[right_position]
                right_activity = activity[right]
                if right_activity > child_activity or (
                    right_activity == child_activity and right < child
                ):
                    child_position = right_position
                    child = right
                    child_activity = right_activity
            if var_activity > child_activity or (
                var_activity == child_activity and var < child
            ):
                break
            heap[position] = child
            index[child] = position
            position = child_position
        heap[position] = var
        index[var] = position

    def _heap_rebuild(self) -> None:
        """Restore the heap invariant in place after a bulk activity change."""
        for position in range((len(self._heap) >> 1) - 1, -1, -1):
            self._heap_sift_down(position)

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _cancel_until(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        limit = self.trail_limits[target_level]
        values = self._lit_values
        reason = self.reason
        trail = self.trail
        heap_index = self._heap_index
        polarity = self.polarity
        # Oldest assignment first: a variable appears on the trail once, so
        # the order is free, and earlier decisions tend to carry higher
        # activities, so reinserting them first lets most later ones stop
        # near the leaves of the heap.
        for lit in trail[limit:]:
            values[lit] = _UNASSIGNED
            values[-lit] = _UNASSIGNED
            var = lit if lit > 0 else -lit
            # Phase saving happens at UNASSIGN time (MiniSat-style): a
            # variable's phase is only ever consulted while it is
            # unassigned, so saving the last sign here is observably
            # identical to saving on every propagation-time assignment —
            # and propagation assigns far more often than backtracking
            # unassigns at level 0.
            polarity[var] = lit > 0
            reason[var] = None
            # Reinsert into the decision heap: every unassigned variable must
            # be present (lazy deletion only ever removes assigned ones).
            if heap_index[var] < 0:
                self._heap_insert(var)
        del trail[limit:]
        del self.trail_limits[target_level:]
        self.queue_head = len(trail)

    # ------------------------------------------------------------------
    # Decision heuristic
    # ------------------------------------------------------------------
    def _pick_branch_variable(self) -> int | None:
        """The unassigned variable with maximum (activity, -index), or None.

        Pops until an unassigned variable surfaces, lazily discarding
        variables that were assigned while queued.  The tie-break toward
        smaller variable indices makes the pick deterministic: it equals a
        scan for the first variable of maximum activity.
        """
        heap = self._heap
        index = self._heap_index
        values = self._lit_values
        while heap:
            var = heap[0]
            index[var] = -1
            last = heap.pop()
            if heap:
                heap[0] = last
                index[last] = 0
                self._heap_sift_down(0)
            if values[var] == _UNASSIGNED:
                return var
            self.heap_discards += 1
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def counters(self) -> Counter:
        """Cumulative work counters under the names every stats layer uses.

        The hot loop bumps plain int attributes; this is the one place they
        become a mapping.  ``learnt_evicted`` is ``learnt_deleted`` under
        its reported name.
        """
        return Counter({
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "erased_clauses": self.erased_clauses,
            "blocker_hits": self.blocker_hits,
            "heap_discards": self.heap_discards,
            "binary_subsumed": self.binary_subsumed,
            "learnt_evicted": self.learnt_deleted,
        })

    def solve(self, assumptions=(), control: SolveControl | None = None) -> SolverResult:
        """Decide satisfiability under the given assumption literals.

        May be called repeatedly; learnt clauses and heuristic state persist
        between calls.  The result's ``counters`` are per-call deltas — the
        cumulative ones are :meth:`counters`.

        ``control`` bounds the call: the solver polls it on a conflict- and
        decision-count cadence (see :class:`SolveControl`) and raises
        :class:`SolverInterrupted` when it fires, after backtracking to level
        0 so the instance stays reusable.
        """
        self.num_solves += 1
        start = self.counters()
        start_conflicts = self.conflicts
        if control is not None:
            reason = control.interrupted(0)
            if reason is not None:
                raise SolverInterrupted(reason)

        def _result(satisfiable: bool, model=None) -> SolverResult:
            return SolverResult(satisfiable, model, self.counters() - start)

        if self._contradiction:
            return _result(False)

        conflict = self._propagate()
        if conflict is not None:
            # A conflict while propagating the root trail is independent of
            # any assumptions: the formula itself is unsatisfiable.  Latch it,
            # because propagation cannot rediscover a consumed conflict.
            self._contradiction = True
            return _result(False)

        for lit in assumptions:
            if self._value(lit) == _FALSE:
                self._cancel_until(0)
                return _result(False)
            if self._value(lit) == _UNASSIGNED:
                self.trail_limits.append(len(self.trail))
                self._enqueue(lit, None)
                conflict = self._propagate()
                if conflict is not None:
                    self._cancel_until(0)
                    return _result(False)
        root_level = self._decision_level()

        conflicts_until_restart = 100 * _luby(self._restart_count + 1)
        conflicts_since_restart = 0
        max_learnt = self.max_learnt
        if max_learnt is None:
            max_learnt = max(1000, len(self.clauses) // 3)
        # Control polling is amortised: conflicts weigh 8 search events,
        # decisions 1, and the control is consulted every check_interval
        # events — cheap enough for the hot loop, tight enough that a cancel
        # or deadline lands within one slice.
        events_since_check = 0
        check_interval = control.check_interval if control is not None else 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if control is not None:
                    events_since_check += 8
                    if events_since_check >= check_interval:
                        events_since_check = 0
                        reason = control.interrupted(self.conflicts - start_conflicts)
                        if reason is not None:
                            self._cancel_until(0)
                            raise SolverInterrupted(reason)
                if self._decision_level() <= root_level:
                    if root_level == 0:
                        # Conflict below any assumption: permanently UNSAT.
                        self._contradiction = True
                    self._cancel_until(0)
                    return _result(False)
                learnt, backjump_level, lbd = self._analyze(conflict)
                self._cancel_until(max(backjump_level, root_level))
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    index = self._attach_clause(learnt, learnt=True, lbd=lbd)
                    self._enqueue(learnt[0], index)
                self._decay_activities()
            else:
                if conflicts_since_restart >= conflicts_until_restart:
                    conflicts_since_restart = 0
                    self._restart_count += 1
                    conflicts_until_restart = 100 * _luby(self._restart_count + 1)
                    self._cancel_until(root_level)
                    continue
                if self.num_learnt > max_learnt:
                    self._reduce_learnt()
                    max_learnt = int(max_learnt * 1.1)
                if control is not None:
                    events_since_check += 1
                    if events_since_check >= check_interval:
                        events_since_check = 0
                        reason = control.interrupted(self.conflicts - start_conflicts)
                        if reason is not None:
                            self._cancel_until(0)
                            raise SolverInterrupted(reason)
                variable = self._pick_branch_variable()
                if variable is None:
                    values = self._lit_values
                    model = {
                        var: values[var] == _TRUE
                        for var in range(1, self.num_vars + 1)
                    }
                    self._cancel_until(0)
                    return _result(True, model)
                self.decisions += 1
                self.trail_limits.append(len(self.trail))
                preferred = variable if self.polarity[variable] else -variable
                self._enqueue(preferred, None)
