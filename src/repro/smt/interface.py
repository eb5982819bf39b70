"""High-level check-sat / check-valid interface over the encoder and solver.

This mirrors the role Z3's Python API plays in the original Veri-QEC: the
verifier builds a classical formula, asks whether it is satisfiable (bug
hunting) or valid (verification), and reads back a model (counterexample)
when one exists.

:class:`SolveSession` is the persistent, incremental variant: one encoder and
one live CDCL solver shared across many closely related queries.  Clauses
added between checks are attached to the running solver (never re-encoded or
re-propagated from scratch), learnt clauses and heuristic state survive, and
selector-guarded constraints allow one base encoding to serve many
weight/distance thresholds.  Every layer above — the parallel enumeration
driver, the engine's trial-distance walk, the batch sweeps — routes its
queries through a session.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field

from repro import sanitize
from repro.classical.expr import BoolExpr, IntConst, IntExpr, Not
from repro.smt.encoder import FormulaEncoder
from repro.smt.solver import SEARCH_COUNTERS, SATSolver, SearchCounters, SolveControl, nonzero

__all__ = ["SMTCheck", "SolveControl", "SolveSession", "check_formula", "check_valid"]


@dataclass
class SMTCheck(SearchCounters):
    """Result of a satisfiability or validity check.

    ``counters`` maps each solver counter (see
    :meth:`~repro.smt.solver.SATSolver.counters`) to the work this check
    did; ``conflicts``, ``decisions`` and ``propagations`` read from it.  A
    session's running totals live in :meth:`SolveSession.stats` and are
    mirrored into ``metadata`` under ``"session"`` by
    :meth:`SolveSession.check`.
    """

    status: str  # "sat" or "unsat"
    model: dict[str, bool] | None = None
    elapsed_seconds: float = 0.0
    num_variables: int = 0
    num_clauses: int = 0
    counters: Counter = field(default_factory=Counter)
    metadata: dict = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


def _extract_model(encoder: FormulaEncoder, raw_model: dict[int, bool]) -> dict[str, bool]:
    named = {}
    for name, var in encoder.named_literals().items():
        named[name] = bool(raw_model.get(var, False))
    return named


class SolveSession:
    """A persistent incremental solving session over one growing encoding.

    The session owns a :class:`FormulaEncoder` and lazily constructs one
    :class:`SATSolver` at the first :meth:`check`.  Formulas asserted (or
    guard constraints added) after that point are synchronised into the live
    solver clause-by-clause, so the solver keeps its learnt clauses, variable
    activities and saved phases across the whole lifetime of the session.

    Assumptions come in two named forms: ``assumptions`` fixes program
    variables (the enumeration subtasks of Appendix D.4), ``select``
    activates selector guards added with :meth:`add_guard` /
    :meth:`add_weight_guard` (the trial-distance mechanism).
    """

    def __init__(self, formula: BoolExpr | None = None, encoder: FormulaEncoder | None = None,
                 max_conflicts: int | None = None):
        self.encoder = encoder or FormulaEncoder()
        self.max_conflicts = max_conflicts
        # Armed only under REPRO_SANITIZE: detects two threads driving this
        # session at once (the race lane affinity must rule out).
        self._entry_guard = sanitize.new_entry_guard("SolveSession")
        self._solver: SATSolver | None = None
        self._synced_clauses = 0
        self._synced_vars = 0
        self.num_checks = 0
        self.elapsed_seconds = 0.0
        if formula is not None:
            self.assert_formula(formula)

    # ------------------------------------------------------------------
    # Building up the encoding
    # ------------------------------------------------------------------
    def assert_formula(self, formula: BoolExpr) -> None:
        """Unconditionally constrain the session's formula."""
        self.encoder.assert_formula(formula)

    def add_guard(self, name: str, formula: BoolExpr) -> str:
        """Add ``formula`` guarded by selector ``name``; activate via ``select``."""
        self.encoder.assert_formula_if(name, formula)
        return name

    def add_weight_guard(self, name: str, weight: IntExpr, bound: int) -> str:
        """Add the cardinality constraint ``weight <= bound`` under selector ``name``.

        Repeated guards over the same ``weight`` expression share one unary
        counter, which is what lets a single base encoding serve every trial
        distance of a distance walk.
        """
        self.encoder.assert_le_if(name, weight, IntConst(bound))
        return name

    def add_weight_lower_guard(self, name: str, weight: IntExpr, bound: int) -> str:
        """Add ``weight >= bound`` under selector ``name`` (binary-search distance).

        Shares the same unary counter as the upper-bound guards over the same
        ``weight`` expression, so narrowing a query to ``lo <= weight <= mid``
        costs two selector clauses, not a re-encoding.
        """
        self.encoder.assert_ge_if(name, weight, IntConst(bound))
        return name

    def retire_guard(self, name: str) -> int:
        """Permanently deactivate selector ``name`` and erase its clauses.

        The selector's negation is asserted at the root, so every constraint
        guarded by it is permanently satisfied; the live solver then erases
        those clauses (and strips other root-falsified literals), which is
        what keeps long-lived shared sessions from accumulating stale guards.
        A retired selector must never be selected again — callers allocate a
        fresh name if the same constraint is re-asserted later.  Returns the
        number of clauses the solver erased (0 when no solver is live yet).
        """
        literal = self.encoder.selector(name)
        self.encoder.cnf.add_clause([-literal])
        if self._solver is None:
            return 0
        self._sync_solver()
        return self._solver.erase_satisfied()

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _sync_solver(self) -> SATSolver:
        cnf = self.encoder.cnf
        if self._solver is None:
            self._solver = SATSolver(cnf, max_conflicts=self.max_conflicts)
            self._synced_vars = cnf.num_vars
            self._synced_clauses = cnf.num_clauses
            return self._solver
        if cnf.num_vars > self._synced_vars:
            self._solver.grow_variables(cnf.num_vars)
            self._synced_vars = cnf.num_vars
        while self._synced_clauses < cnf.num_clauses:
            self._solver.add_clause(cnf.clauses[self._synced_clauses])
            self._synced_clauses += 1
        return self._solver

    @sanitize.entry_guarded
    def check(
        self,
        assumptions: dict[str, bool] | None = None,
        select: tuple[str, ...] | list[str] = (),
        control: SolveControl | None = None,
    ) -> SMTCheck:
        """Decide satisfiability under the given assumptions and selectors.

        ``control`` bounds the underlying solve call (deadline / cancellation
        / conflict budget); an interrupted call raises
        :class:`~repro.smt.solver.SolverInterrupted` and leaves the session
        fully reusable.
        """
        start = time.perf_counter()
        literals = []
        for name, value in (assumptions or {}).items():
            literal = self.encoder.variable(name)
            literals.append(literal if value else -literal)
        for name in select:
            literals.append(self.encoder.selector(name))
        solver = self._sync_solver()
        result = solver.solve(assumptions=literals, control=control)
        elapsed = time.perf_counter() - start
        self.num_checks += 1
        self.elapsed_seconds += elapsed
        return SMTCheck(
            status="sat" if result.satisfiable else "unsat",
            model=_extract_model(self.encoder, result.model) if result.satisfiable else None,
            elapsed_seconds=elapsed,
            num_variables=self.encoder.cnf.num_vars,
            num_clauses=self.encoder.cnf.num_clauses,
            counters=result.counters,
            metadata={"session": self.stats()},
        )

    # ------------------------------------------------------------------
    # Warm-cache support: fingerprinting + learnt-clause round-tripping
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the session's current CNF (variables + clauses).

        Two sessions whose encodings were built identically (same formulas,
        same order) share a fingerprint, which is the safety condition for
        re-absorbing serialized learnt clauses: a learnt clause is only a
        consequence of *this exact* clause database.
        """
        cnf = self.encoder.cnf
        digest = hashlib.sha256()
        digest.update(f"v{cnf.num_vars}".encode())
        for clause in cnf.clauses:
            digest.update(",".join(map(str, clause)).encode())
            digest.update(b";")
        return digest.hexdigest()

    def learnt_clauses(self, max_var: int | None = None) -> list[list[int]]:
        """Learnt clauses of the live solver (empty before the first check)."""
        if self._solver is None:
            return []
        return self._solver.learnt_clauses(max_var)

    def learnt_clauses_meta(self, max_var: int | None = None) -> list[tuple[list[int], int]]:
        """Learnt clauses paired with their LBD (empty before the first check).

        The ``ClauseStore`` keeps the LBD so eviction can rank entries by
        usefulness; :meth:`learnt_clauses` serves callers that need only the
        literals (split-session store merges).
        """
        if self._solver is None:
            return []
        return self._solver.learnt_clauses_meta(max_var)

    @sanitize.entry_guarded
    def absorb_learnt(self, clauses) -> int:
        """Re-attach serialized learnt clauses; returns how many were kept.

        Only sound when the session's CNF matches the one the clauses were
        learnt against — callers gate this on :meth:`fingerprint`.
        """
        solver = self._sync_solver()
        absorbed = 0
        for clause in clauses:
            if solver.absorb_learnt(clause):
                absorbed += 1
        return absorbed

    # ------------------------------------------------------------------
    def counters(self) -> Counter:
        """Cumulative solver counters (empty before the first check)."""
        return self._solver.counters() if self._solver is not None else Counter()

    def stats(self) -> dict:
        """Cumulative statistics over every check run through this session.

        The search counters are always present; the other solver counters
        follow :func:`~repro.smt.solver.nonzero`.
        """
        solver = self._solver
        return {
            "checks": self.num_checks,
            **nonzero(self.counters(), always=SEARCH_COUNTERS),
            "learnt_kept": solver.num_learnt if solver else 0,
            "learnt_deleted": solver.learnt_deleted if solver else 0,
            "reductions": solver.reductions if solver else 0,
            "minimized_literals": solver.minimized_literals if solver else 0,
            "elapsed_seconds": self.elapsed_seconds,
        }


def check_formula(
    formula: BoolExpr,
    assumptions: dict[str, bool] | None = None,
    encoder: FormulaEncoder | None = None,
) -> SMTCheck:
    """Decide satisfiability of ``formula``; a model names program variables.

    ``assumptions`` fixes the value of named boolean variables, which is how
    the parallel driver and the "fixed error pattern" functionality pin down
    selected error indicators.  One-shot convenience over a throwaway
    :class:`SolveSession`.
    """
    session = SolveSession(formula, encoder=encoder)
    return session.check(assumptions)


def check_valid(formula: BoolExpr, assumptions: dict[str, bool] | None = None) -> SMTCheck:
    """Decide validity of ``formula`` by refuting its negation.

    ``status == "unsat"`` means the formula is valid (the property verifies);
    a ``sat`` result carries a counterexample model.
    """
    return check_formula(Not(formula), assumptions=assumptions)
