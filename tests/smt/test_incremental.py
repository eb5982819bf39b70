"""Incremental-vs-fresh equivalence: a reused solver must decide like a new one.

The incremental session machinery (persistent solvers, learnt-clause
retention, selector-guarded bounds) is only sound if a session reused across
many queries returns exactly the verdicts a fresh solver would.  These tests
check that property over randomized CNFs, over clause addition between solve
calls, over the selector-guarded distance machinery, and over every registry
code — including the assumption-leak case (solve under assumptions, then
without: nothing assumed must stick).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classical.expr import And, BoolVar, IntConst, Not, Or
from repro.codes.registry import CODE_REGISTRY
from repro.smt.cnf import CNF
from repro.smt.interface import SolveSession, check_formula
from repro.smt.solver import SATSolver
from repro.verifier.encodings import (
    ErrorModel,
    precise_detection_base,
    precise_detection_formula,
)


def build_cnf(num_vars, clauses):
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def fresh_verdict(num_vars, clauses, assumptions):
    return SATSolver(build_cnf(num_vars, clauses)).solve(assumptions).satisfiable


clause_lists = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=25,
        ),
    )
)


class TestRandomizedEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(clause_lists, st.data())
    def test_reused_session_matches_fresh_under_assumption_sequences(self, instance, data):
        num_vars, clauses = instance
        solver = SATSolver(build_cnf(num_vars, clauses))
        assumption_sets = data.draw(
            st.lists(
                st.lists(
                    st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v])),
                    min_size=0,
                    max_size=3,
                ),
                min_size=1,
                max_size=4,
            )
        )
        # The leak case: always end with an unassumed solve after the
        # assumed ones — nothing from earlier assumptions may persist.
        assumption_sets.append([])
        for assumptions in assumption_sets:
            reused = solver.solve(assumptions).satisfiable
            assert reused == fresh_verdict(num_vars, clauses, assumptions)

    @settings(max_examples=60, deadline=None)
    @given(clause_lists, clause_lists)
    def test_clause_addition_matches_fresh_solver(self, first, second):
        num_vars = max(first[0], second[0])
        solver = SATSolver(build_cnf(num_vars, first[1]))
        solver.solve()
        for clause in second[1]:
            solver.add_clause(clause)
        combined = first[1] + second[1]
        assert solver.solve().satisfiable == fresh_verdict(num_vars, combined, [])
        # And once more under an assumption, after the unassumed solve.
        assert solver.solve([1]).satisfiable == fresh_verdict(num_vars, combined, [1])


class TestIncrementalSolverBasics:
    def test_grow_variables_extends_range(self):
        cnf = build_cnf(2, [[1, 2]])
        solver = SATSolver(cnf)
        assert solver.solve().satisfiable
        solver.grow_variables(4)
        solver.add_clause([3, 4])
        solver.add_clause([-3])
        result = solver.solve()
        assert result.satisfiable and result.model[4]

    def test_permanent_conflict_is_latched(self):
        solver = SATSolver(build_cnf(2, [[1, 2]]))
        assert solver.solve().satisfiable
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert not solver.solve().satisfiable
        # The root-level contradiction must persist across further calls
        # (a consumed conflict cannot be rediscovered by propagation).
        assert not solver.solve().satisfiable
        assert not solver.solve([1]).satisfiable

    def test_statistics_are_per_call_deltas(self):
        solver = SATSolver(build_cnf(3, [[1, 2], [-1, 3], [-2, -3]]))
        first = solver.solve()
        second = solver.solve()
        assert first.satisfiable and second.satisfiable
        # The second call re-solves an already-satisfied formula; its
        # per-call counters must not include the first call's work.
        assert second.decisions <= first.decisions + solver.num_vars
        assert solver.conflicts == first.conflicts + second.conflicts
        assert solver.num_solves == 2

    def test_add_clause_rejected_mid_search(self):
        solver = SATSolver(build_cnf(2, [[1, 2]]))
        solver.trail_limits.append(0)  # simulate an open decision level
        with pytest.raises(RuntimeError):
            solver.add_clause([1])


class TestLearntClauseManagement:
    @settings(max_examples=60, deadline=None)
    @given(clause_lists, st.data())
    def test_reduction_preserves_verdicts(self, instance, data):
        """A solver forced to delete learnt clauses aggressively (budget 1)
        must still agree with an unmanaged fresh solver on every query."""
        num_vars, clauses = instance
        managed = SATSolver(build_cnf(num_vars, clauses), max_learnt=1)
        assumption_sets = data.draw(
            st.lists(
                st.lists(
                    st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v])),
                    min_size=0,
                    max_size=3,
                ),
                min_size=1,
                max_size=4,
            )
        )
        assumption_sets.append([])
        for assumptions in assumption_sets:
            assert managed.solve(assumptions).satisfiable == fresh_verdict(
                num_vars, clauses, assumptions
            )

    def test_reduction_counters_and_locked_clauses(self):
        # A formula hard enough to learn on: pigeonhole-ish parity chains.
        from repro.codes import steane_code
        from repro.smt.encoder import FormulaEncoder
        from repro.verifier.encodings import accurate_correction_formula

        encoder = FormulaEncoder()
        encoder.assert_formula(accurate_correction_formula(steane_code(), max_errors=2))
        solver = SATSolver(encoder.cnf, max_learnt=5)
        solver.solve()
        assert solver.reductions > 0
        assert solver.learnt_deleted > 0
        assert solver.num_learnt == sum(solver.clause_is_learnt)
        # Deletion never touches problem clauses.
        assert sum(not learnt for learnt in solver.clause_is_learnt) == solver.num_problem_clauses

    def test_minimization_shrinks_learnt_clauses(self):
        from repro.codes import steane_code
        from repro.smt.encoder import FormulaEncoder
        from repro.verifier.encodings import accurate_correction_formula

        encoder = FormulaEncoder()
        encoder.assert_formula(accurate_correction_formula(steane_code(), max_errors=1))
        solver = SATSolver(encoder.cnf)
        solver.solve()
        assert solver.minimized_literals > 0

    def test_absorb_learnt_round_trip(self):
        cnf_clauses = [[1, 2], [-1, 3], [-2, 3], [-3, 4]]
        first = SATSolver(build_cnf(4, cnf_clauses))
        first.solve([-4])
        exported = [clause for clause, _lbd in first.learnt_clauses_meta()]
        second = SATSolver(build_cnf(4, cnf_clauses))
        for clause in exported:
            assert all(abs(lit) <= 4 for lit in clause)
            second.absorb_learnt(clause)
        # Absorbed clauses are consequences: verdicts are unchanged.
        for assumptions in ([], [-4], [1], [-3]):
            assert (
                second.solve(assumptions).satisfiable
                == fresh_verdict(4, cnf_clauses, assumptions)
            )

    def test_learnt_clauses_filters_by_max_var(self):
        solver = SATSolver(build_cnf(3, [[1, 2], [-1, 3], [-2, -3], [1, -3], [-1, -2, 3]]))
        solver.solve([3])
        solver.solve([-3])
        for clause, _lbd in solver.learnt_clauses_meta(max_var=2):
            assert all(abs(lit) <= 2 for lit in clause)


class TestCrossTaskGuardSharing:
    def test_correction_and_detection_share_one_session(self):
        """The resource-layer pattern at the smt level: both task formulas
        guarded on ONE session must agree with dedicated fresh checks, in
        both directions, with traffic interleaved (guard-leak check)."""
        from repro.api.engine import Engine
        from repro.api.tasks import CorrectionTask, DetectionTask

        engine = Engine()
        correction = engine.compile_task(CorrectionTask(code="steane")).formula
        detection = engine.compile_task(DetectionTask(code="steane", trial_distance=3)).formula
        session = SolveSession()
        correction_guard = session.add_guard("task:correction", correction)
        detection_guard = session.add_guard("task:detection", detection)
        for _ in range(2):  # interleave twice: learnt clauses flow both ways
            assert session.check(select=(correction_guard,)).status == check_formula(
                correction
            ).status
            assert session.check(select=(detection_guard,)).status == check_formula(
                detection
            ).status
        # An unguarded check on the same session is unconstrained by either
        # task formula (both selectors may go false): no guard leaks.
        assert session.check().is_sat

    def test_lower_weight_guards_match_monolithic_window(self):
        """`lo <= weight <= hi` through guards equals the conjunction checked
        monolithically, for every window over the steane detection base."""
        from repro.classical.expr import IntLe
        from repro.codes import steane_code

        code = steane_code()
        base, weight = precise_detection_base(code, ErrorModel("any"))
        session = SolveSession(base)
        for lo in range(1, 5):
            for hi in range(lo, 5):
                lower = session.add_weight_lower_guard(f"ge{lo}", weight, lo)
                upper = session.add_weight_guard(f"le{hi}", weight, hi)
                windowed = session.check(select=(lower, upper))
                from repro.classical.expr import And

                monolithic = check_formula(
                    And((base, IntLe(IntConst(lo), weight), IntLe(weight, IntConst(hi))))
                )
                assert windowed.status == monolithic.status, (lo, hi)


class TestSessionEquivalence:
    def test_session_assumption_leak(self):
        # steane correction formula: sat under a forced error of weight > 1,
        # unsat without assumptions; the session must recover.
        from repro.api.engine import Engine
        from repro.api.tasks import CorrectionTask

        compiled = Engine().compile_task(CorrectionTask(code="steane", error_model="Y"))
        session = SolveSession(compiled.formula)
        free = session.check()
        assert free.is_unsat
        pinned = session.check({"e_0": True, "e_1": True, "e_2": True})
        assert pinned.status == check_formula(
            compiled.formula, {"e_0": True, "e_1": True, "e_2": True}
        ).status
        again = session.check()
        assert again.is_unsat

    def test_selector_guards_match_monolithic_formulas(self):
        # The guarded base encoding must agree with the per-trial monolithic
        # formula for every trial distance — this is the distance machinery.
        from repro.codes import steane_code

        code = steane_code()
        base, weight = precise_detection_base(code, ErrorModel("any"))
        session = SolveSession(base)
        for trial in range(2, 6):
            name = session.add_weight_guard(f"t{trial}", weight, trial - 1)
            incremental = session.check(select=(name,))
            fresh = check_formula(
                precise_detection_formula(code, trial, ErrorModel("any"))
            )
            assert incremental.status == fresh.status, f"trial {trial}"
        # Selectors must not leak into extracted models.
        witness = session.check(select=("t5",))
        assert witness.is_sat
        assert not any(name in {f"t{t}" for t in range(2, 6)} for name in witness.model)

    @pytest.mark.parametrize("key", sorted(CODE_REGISTRY))
    def test_registry_code_session_matches_fresh(self, key):
        """For every registry code: a session reused across assumption sets
        (and after them, unassumed) returns the verdicts of fresh solvers."""
        from repro.api.engine import Engine, registry_sweep_tasks

        engine = Engine()
        compiled = engine.compile_task(registry_sweep_tasks([key])[0])
        indicator = compiled.split_variables[0]
        session = SolveSession(compiled.formula)
        assumption_sets = [{}, {indicator: True}, {indicator: False}, {}]
        for assumptions in assumption_sets:
            reused = session.check(assumptions)
            fresh = check_formula(compiled.formula, assumptions)
            assert reused.status == fresh.status, (key, assumptions)


class TestSolveControl:
    """Budget/deadline/cancel interruption: the solver stops within a slice
    and the instance stays reusable with verdicts identical to fresh runs."""

    def _steane_session(self):
        from repro.codes.registry import build_code

        code = build_code("steane")
        base, weight = precise_detection_base(code, ErrorModel("any"))
        return SolveSession(base), weight

    def test_pre_expired_deadline_interrupts_immediately(self):
        import time

        from repro.smt.solver import SolveControl, SolverInterrupted

        session, _ = self._steane_session()
        control = SolveControl(deadline=time.monotonic() - 1.0)
        with pytest.raises(SolverInterrupted) as excinfo:
            session.check(control=control)
        assert excinfo.value.reason == "deadline"

    def test_cancel_flag_interrupts_and_session_stays_equivalent(self):
        from repro.smt.solver import SolveControl, SolverInterrupted

        session, weight = self._steane_session()
        # A tiny check interval with a flag that flips after the first poll:
        # the solve is abandoned mid-search, then re-run to completion.
        polls = []

        def cancelled():
            polls.append(True)
            return len(polls) > 1

        control = SolveControl(cancelled=cancelled, check_interval=1)
        selector = session.add_weight_guard("w2", weight, 2)
        with pytest.raises(SolverInterrupted) as excinfo:
            session.check(select=(selector,), control=control)
        assert excinfo.value.reason == "cancelled"
        resumed = session.check(select=(selector,))
        fresh_session, fresh_weight = self._steane_session()
        fresh_selector = fresh_session.add_weight_guard("w2", fresh_weight, 2)
        fresh = fresh_session.check(select=(fresh_selector,))
        assert resumed.status == fresh.status

    def test_conflict_budget_interrupts(self):
        from repro.smt.solver import SolveControl, SolverInterrupted

        session, weight = self._steane_session()
        selector = session.add_weight_guard("w2", weight, 2)
        control = SolveControl(conflict_budget=1, check_interval=1)
        with pytest.raises(SolverInterrupted) as excinfo:
            session.check(select=(selector,), control=control)
        assert excinfo.value.reason == "budget"
        # The interrupted query still decides correctly afterwards.
        assert session.check(select=(selector,)).is_unsat

    @settings(deadline=None, max_examples=25)
    @given(clause_lists, st.data())
    def test_interrupt_then_resume_matches_fresh(self, instance, data):
        """Randomized: interrupting a solve at an arbitrary poll leaves the
        solver deciding exactly like a fresh one on the next call."""
        from repro.smt.solver import SATSolver, SolveControl, SolverInterrupted

        num_vars, clauses = instance
        cutoff = data.draw(st.integers(1, 5), label="cutoff")
        polls = []

        def cancelled():
            polls.append(True)
            return len(polls) >= cutoff

        solver = SATSolver(build_cnf(num_vars, clauses))
        try:
            first = solver.solve(control=SolveControl(cancelled=cancelled, check_interval=1))
            interrupted = False
        except SolverInterrupted:
            interrupted = True
        resumed = solver.solve()
        assert resumed.satisfiable == fresh_verdict(num_vars, clauses, ())
        if not interrupted:
            assert first.satisfiable == resumed.satisfiable


class TestGuardRetirement:
    """Root-negated selectors + satisfied-clause erasure (guard GC)."""

    def test_retired_guard_clauses_are_erased(self):
        from repro.codes.registry import build_code

        code = build_code("steane")
        base, weight = precise_detection_base(code, ErrorModel("any"))
        session = SolveSession()
        keep = session.add_guard("keep", base)
        session.check(select=(keep,))
        formula = precise_detection_formula(code, 3, error_model=ErrorModel("any"))
        stale = session.add_guard("stale", formula)
        session.check(select=(stale,))
        clauses_before = len(session._solver.clauses)
        erased = session.retire_guards([stale])
        assert erased >= 1
        assert len(session._solver.clauses) < clauses_before
        assert session.stats()["erased_clauses"] == erased

    def test_verdicts_unchanged_after_retirement(self):
        from repro.codes.registry import build_code

        code = build_code("five-qubit")
        base, weight = precise_detection_base(code, ErrorModel("any"))
        session = SolveSession(base)
        selectors = {}
        for bound in (1, 2, 3):
            selectors[bound] = session.add_weight_guard(f"w{bound}", weight, bound)
        before = {bound: session.check(select=(sel,)).status
                  for bound, sel in selectors.items()}
        session.retire_guards([selectors.pop(2)])
        for bound, sel in selectors.items():
            assert session.check(select=(sel,)).status == before[bound], bound
        # A freshly added guard over the same weight still works (the unary
        # counter survives erasure because its defining clauses are not
        # guard-satisfied).
        new_selector = session.add_weight_guard("w2b", weight, 2)
        assert session.check(select=(new_selector,)).status == before[2]

    @settings(deadline=None, max_examples=25)
    @given(clause_lists, st.data())
    def test_erase_satisfied_preserves_verdicts(self, instance, data):
        """Randomized: root-asserting some literal and erasing satisfied
        clauses never changes any later verdict under assumptions."""
        num_vars, clauses = instance
        unit = data.draw(st.integers(1, num_vars), label="unit")
        sign = data.draw(st.sampled_from([1, -1]), label="sign")
        assumption = data.draw(
            st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v])),
            label="assumption",
        )
        solver = SATSolver(build_cnf(num_vars, clauses))
        solver.solve()
        solver.add_clause([sign * unit])
        solver.erase_satisfied()
        got = solver.solve([assumption]).satisfiable
        want = fresh_verdict(num_vars, clauses + [[sign * unit]], [assumption])
        assert got == want


class TestEncoderHandOff:
    def test_fingerprint_is_only_defined_before_the_first_check(self):
        a, b = BoolVar("a"), BoolVar("b")
        session = SolveSession(Or((a, b)))
        before = session.fingerprint()
        assert before == SolveSession(Or((a, b))).fingerprint()
        assert session.check().is_sat
        with pytest.raises(RuntimeError):
            session.fingerprint()

    def test_clauses_added_after_the_first_check_reach_the_solver(self):
        a, b = BoolVar("a"), BoolVar("b")
        session = SolveSession(Or((a, b)))
        assert session.check().is_sat
        session.assert_formula(Not(a))
        session.assert_formula(Not(b))
        assert session.encoder.cnf.clauses
        assert session.check().is_unsat
        assert session.encoder.cnf.clauses == []


class TestBatchedGuardRetirement:
    def test_one_scan_retires_the_whole_batch(self, monkeypatch):
        scans = []
        erase_satisfied = SATSolver.erase_satisfied

        def counted(solver):
            scans.append(solver)
            return erase_satisfied(solver)

        monkeypatch.setattr(SATSolver, "erase_satisfied", counted)
        names = [f"g{i}" for i in range(8)]
        session = SolveSession(Or(tuple(BoolVar(name) for name in names)))
        for name in names:
            session.add_guard(name, And((BoolVar(name), Not(BoolVar(f"x{name}")))))
        assert session.check(select=("g0",)).is_sat
        selectors = [session.encoder.selector(name) for name in names[:4]]
        # Each guard added two clauses holding its selector; one scan
        # erases all eight.
        assert session.retire_guards(names[:4]) >= 8
        assert len(scans) == 1
        assert not any(
            -selector in clause for clause in session._solver.clauses for selector in selectors
        )
        # A retired selector is false at the root, so selecting it again is
        # contradictory; the survivors keep their meaning.
        assert session.check(select=("g3",)).is_unsat
        assert session.check(select=("g5", "g6")).is_sat

    def test_retirement_before_the_first_check_only_asserts(self):
        a = BoolVar("a")
        session = SolveSession(Or((a, BoolVar("b"))))
        session.add_guard("g", a)
        assert session.retire_guards(["g"]) == 0
        assert session._solver is None
        assert session.check(select=("g",)).is_unsat
        assert session.check().is_sat
