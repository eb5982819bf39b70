"""Formula-to-CNF encoder tests: semantics preserved under the SAT back end."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classical.expr import (
    And,
    BoolConst,
    BoolVar,
    Iff,
    Implies,
    IntConst,
    IntEq,
    IntLe,
    IntVar,
    Not,
    Or,
    UFBool,
    Xor,
    evaluate,
    sum_of,
)
from repro.smt.encoder import FormulaEncoder
from repro.smt.interface import SolveSession, check_formula, check_valid


class TestCardinality:
    def test_at_most_k(self):
        e = [BoolVar(f"e{i}") for i in range(6)]
        result = check_formula(
            And((IntLe(sum_of(e), IntConst(2)), Not(IntLe(sum_of(e), IntConst(1)))))
        )
        assert result.is_sat
        assert sum(result.model[f"e{i}"] for i in range(6)) == 2

    def test_unsatisfiable_bounds(self):
        e = [BoolVar(f"e{i}") for i in range(4)]
        result = check_formula(
            And((IntLe(sum_of(e), IntConst(1)), Not(IntLe(sum_of(e), IntConst(3)))))
        )
        assert result.is_unsat

    def test_sum_against_sum(self):
        e = [BoolVar(f"e{i}") for i in range(4)]
        c = [BoolVar(f"c{i}") for i in range(4)]
        formula = And(
            (IntLe(sum_of(c), sum_of(e)), IntLe(sum_of(e), IntConst(1)), c[0], c[1])
        )
        assert check_formula(formula).is_unsat

    def test_constant_on_left(self):
        e = [BoolVar(f"e{i}") for i in range(3)]
        assert check_formula(And((IntLe(IntConst(2), sum_of(e)), Not(e[0]), Not(e[1])))).is_unsat
        assert check_formula(And((IntLe(IntConst(2), sum_of(e)),))).is_sat

    def test_equality(self):
        e = [BoolVar(f"e{i}") for i in range(3)]
        result = check_formula(IntEq(sum_of(e), IntConst(3)))
        assert result.is_sat and all(result.model[f"e{i}"] for i in range(3))

    def test_free_integer_variable_rejected(self):
        with pytest.raises(TypeError):
            check_formula(IntLe(IntVar("n"), IntConst(2)))


class TestStructure:
    def test_uninterpreted_functions_are_congruent(self):
        a = UFBool("f", (BoolVar("s"),))
        b = UFBool("f", (BoolVar("s"),))
        assert check_formula(And((a, Not(b)))).is_unsat

    def test_distinct_uf_applications_independent(self):
        a = UFBool("f", (BoolVar("s"),))
        b = UFBool("f", (BoolVar("t"),))
        assert check_formula(And((a, Not(b)))).is_sat

    def test_validity_of_excluded_middle(self):
        x = BoolVar("x")
        assert check_valid(Or((x, Not(x)))).is_unsat

    def test_named_literals_exposed(self):
        encoder = FormulaEncoder()
        encoder.assert_formula(And((BoolVar("a"), BoolVar("b"))))
        assert set(encoder.named_literals()) == {"a", "b"}

    def test_assumptions_force_values(self):
        result = check_formula(Or((BoolVar("a"), BoolVar("b"))), assumptions={"a": False})
        assert result.is_sat and result.model["b"]


class TestSemanticEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_formulas_match_brute_force(self, data):
        variables = [BoolVar(f"x{i}") for i in range(4)]

        def build(depth):
            if depth == 0:
                return data.draw(
                    st.sampled_from(variables + [BoolConst(True), BoolConst(False)])
                )
            kind = data.draw(
                st.sampled_from(["and", "or", "not", "xor", "imp", "iff", "le", "eq"])
            )
            if kind == "not":
                return Not(build(depth - 1))
            if kind == "imp":
                return Implies(build(depth - 1), build(depth - 1))
            if kind == "iff":
                return Iff(build(depth - 1), build(depth - 1))
            if kind == "le":
                return IntLe(
                    sum_of([data.draw(st.sampled_from(variables)) for _ in range(2)]),
                    sum_of(
                        [data.draw(st.sampled_from(variables))]
                        + [IntConst(data.draw(st.integers(-1, 2)))]
                    ),
                )
            if kind == "eq":
                return IntEq(
                    sum_of([data.draw(st.sampled_from(variables)) for _ in range(2)]),
                    IntConst(data.draw(st.integers(0, 2))),
                )
            children = (build(depth - 1), build(depth - 1))
            return {"and": And, "or": Or, "xor": Xor}[kind](children)

        formula = build(3)
        expected = any(
            evaluate(formula, {f"x{i}": bit for i, bit in enumerate(bits)})
            for bits in itertools.product([False, True], repeat=4)
        )
        result = check_formula(formula)
        assert result.is_sat == expected
        if result.is_sat:
            memory = {f"x{i}": result.model.get(f"x{i}", False) for i in range(4)}
            assert evaluate(formula, memory)


class TestWidthBoundedCounters:
    """Truncated, widen-on-demand counters against brute force."""

    @staticmethod
    def _side(name, size, constant):
        variables = [BoolVar(f"{name}{i}") for i in range(size)]
        return variables, sum_of(variables + [IntConst(constant)])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 6), st.integers(0, 6),
        st.integers(-3, 7), st.integers(-3, 7),
        st.integers(-3, 7), st.integers(-3, 7),
    )
    def test_comparison_matches_brute_force(self, nl, nr, cl, cr, warm_cl, warm_cr):
        left, left_sum = self._side("l", nl, cl)
        right, right_sum = self._side("r", nr, cr)
        comparison = IntLe(left_sum, right_sum)
        # An inactive comparison over the same sums first builds the counters
        # at some other width, so the target comparison may have to widen them.
        warm_up = IntLe(self._side("l", nl, warm_cl)[1], self._side("r", nr, warm_cr)[1])
        sessions = {}
        for form in ("asserted", "negated", "guarded"):
            session = SolveSession()
            session.add_guard("warm-up", warm_up)
            if form == "asserted":
                session.assert_formula(comparison)
            elif form == "negated":
                session.assert_formula(Not(comparison))
            else:
                session.add_guard("target", comparison)
            sessions[form] = session
        names = [v.name for v in left + right]
        for bits in itertools.product([False, True], repeat=len(names)):
            assignment = dict(zip(names, bits))
            expected = sum(bits[:nl]) + cl <= sum(bits[nl:]) + cr
            assert evaluate(comparison, assignment) == expected
            assert sessions["asserted"].check(assignment).is_sat == expected
            assert sessions["negated"].check(assignment).is_sat == (not expected)
            assert sessions["guarded"].check(assignment, select=("target",)).is_sat == expected
            assert sessions["guarded"].check(assignment).is_sat

    def test_distance_walk_widens_one_live_session(self):
        # The guard order of a binary-search distance walk.  Every guard after
        # the first is added after checks, so the counter widens under a live
        # solver.
        n = 6
        indicators = [BoolVar(f"e{i}") for i in range(n)]
        weight = sum_of(indicators)
        session = SolveSession()
        session.assert_formula(IntLe(IntConst(1), weight))
        assignments = list(itertools.product([False, True], repeat=n))

        def count(select):
            total = 0
            for bits in assignments:
                assumptions = {f"e{i}": bit for i, bit in enumerate(bits)}
                total += session.check(assumptions, select=select).is_sat
            return total

        def brute(low, high):
            return sum(1 for bits in assignments if low <= sum(bits) <= high)

        guards = [("le1", "le", 1), ("le4", "le", 4), ("ge3", "ge", 3), ("le2", "le", 2)]
        for name, direction, bound in guards:
            before = session.encoder.cnf.num_clauses
            if direction == "le":
                session.add_weight_guard(name, weight, bound)
            else:
                session.add_weight_lower_guard(name, weight, bound)
            added = session.encoder.cnf.num_clauses - before
            if name in ("ge3", "le2"):
                # Already within the width "le4" built: one guard clause.
                assert added == 1
            low, high = (bound, n) if direction == "ge" else (1, bound)
            assert count((name,)) == brute(low, high)
        assert count(("ge3", "le4")) == brute(3, 4)
        assert count(("ge3", "le2")) == 0
        assert count(()) == brute(1, n)

    def test_counter_width_follows_the_comparison(self):
        indicators = [BoolVar(f"e{i}") for i in range(20)]
        narrow = FormulaEncoder()
        narrow.assert_formula(IntLe(sum_of(indicators), IntConst(1)))
        wide = FormulaEncoder()
        wide.assert_formula(IntLe(sum_of(indicators), IntConst(10)))
        # O(n * width): the weight-1 bound costs a fraction of the weight-10 one.
        assert 4 * narrow.cnf.num_clauses < wide.cnf.num_clauses


class TestGuardedConjunctions:
    """``assert_formula_if`` guards each top-level conjunct on its own."""

    def test_guarded_conjunction_allocates_only_its_selector(self):
        a, b, c = BoolVar("a"), BoolVar("b"), BoolVar("c")
        encoder = FormulaEncoder()
        literals = [encoder.encode(var) for var in (a, b, c)]
        inner = And((Not(b), c))
        formula = And((a, inner))
        before = encoder.cnf.num_vars
        selector = encoder.assert_formula_if("g", formula)
        assert encoder.cnf.num_vars == before + 1
        assert encoder.cnf.clauses[-3:] == [
            [-selector, literals[0]], [-selector, -literals[1]], [-selector, literals[2]],
        ]
        assert formula not in encoder._cache and inner not in encoder._cache

    def test_guarded_conjunction_keeps_its_meaning(self):
        a, b, c = BoolVar("a"), BoolVar("b"), BoolVar("c")
        session = SolveSession(Or((a, b)))
        session.add_guard("g", And((Not(a), Implies(b, c), Xor((a, c)))))
        check = session.check(select=("g",))
        assert check.is_sat
        assert check.model == {"a": False, "b": True, "c": True}
        session.add_guard("h", And((Not(a), Not(b))))
        assert session.check(select=("h",)).is_unsat
        assert session.check(select=("g",)).is_sat

    def test_retired_conjunction_leaves_no_clause_with_its_selector(self):
        a, b, c = BoolVar("a"), BoolVar("b"), BoolVar("c")
        session = SolveSession(Or((a, b, c)))
        session.add_guard("g", And((a, Not(b), Implies(b, c), Xor((a, c)))))
        assert session.check(select=("g",)).model == {"a": True, "b": False, "c": False}
        selector = session.encoder.selector("g")
        # The session's only guard: retiring it sweeps at once.
        assert session.retire_guard("g") >= 4
        assert session.guard_sweeps == 1
        assert not any(-selector in clause for clause in session._solver.clauses)
        assert session.check().is_sat

