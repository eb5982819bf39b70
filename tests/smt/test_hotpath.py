"""Hot-path structure tests: decision heap, blocker watchers, minimization.

These pin the invariants the solver overhaul depends on:

* the indexed decision heap stays a max-heap (tie-broken toward smaller
  variable indices) under bump / decay / rescale / backtrack-reinsert, and
  every pick equals a reference scan of ``solver.activity`` (defined here);
* every stored clause keeps exactly two registered watchers (its first two
  literals), with valid blockers, through solve / erase_satisfied /
  absorb_learnt / add_clause / learnt reduction;
* recursive clause minimization never drops a required literal — every
  learnt clause is entailed by the original formula — and the shared
  ``_seen`` scratch is clean between conflicts.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.cnf import CNF
from repro.smt.solver import SATSolver


def build_cnf(num_vars, clauses):
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def brute_force_satisfiable(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any((bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1]) for l in clause)
            for clause in clauses
        ):
            return True
    return False


def random_clauses(rng, num_vars, num_clauses, max_len=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, max_len)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([var if rng.random() < 0.5 else -var for var in variables])
    return clauses


# ----------------------------------------------------------------------
# Invariant checkers
# ----------------------------------------------------------------------
def reference_pick(solver: SATSolver) -> int | None:
    """The decision reference: the first unassigned variable of maximum
    activity, by a plain scan over ``solver.activity``."""
    best_var = None
    best_activity = -1.0
    for var in range(1, solver.num_vars + 1):
        if solver._value(var) == 0 and solver.activity[var] > best_activity:
            best_var = var
            best_activity = solver.activity[var]
    return best_var


def check_every_pick(solver: SATSolver) -> list[int]:
    """Wrap ``solver``'s branch picker so every heap pick made during its
    solves is asserted equal to :func:`reference_pick`; returns the list the
    picked decision variables are recorded in."""
    picks: list[int] = []
    pick = solver._pick_branch_variable

    def checked_pick():
        expected = reference_pick(solver)
        picked = pick()
        assert picked == expected, f"heap picked {picked}, scan picked {expected}"
        if picked is not None:  # None ends the search: a model, not a decision
            picks.append(picked)
        return picked

    solver._pick_branch_variable = checked_pick
    return picks


def assert_heap_valid(solver: SATSolver) -> None:
    """Max-heap order (activity, then smaller var), index map consistency,
    and presence of every unassigned variable."""
    heap = solver._heap
    index = solver._heap_index
    activity = solver.activity
    assert len(set(heap)) == len(heap), "duplicate heap entries"
    for position, var in enumerate(heap):
        assert index[var] == position, f"index map stale for var {var}"
        if position > 0:
            parent = heap[(position - 1) >> 1]
            assert (activity[parent], -parent) >= (activity[var], -var), (
                f"heap order violated: parent {parent} < child {var}"
            )
    for var in range(1, solver.num_vars + 1):
        position = index[var]
        if position >= 0:
            assert heap[position] == var
        elif solver._lit_values[var] == 0:
            raise AssertionError(f"unassigned var {var} missing from heap")


def _slot_literal(slot: int) -> int:
    """The literal whose watcher list lives at ``slot`` (inverse slot map)."""
    return slot >> 1 if slot % 2 == 0 else -(slot >> 1)


def assert_watchers_valid(solver: SATSolver) -> None:
    """Every stored clause is watched exactly by its first two literals,
    with a blocker drawn from the clause; binary clauses live in the
    dedicated binary watcher arrays and longer clauses in the long arrays."""
    expected: dict[int, set[int]] = {
        index: {clause[0], clause[1]} for index, clause in enumerate(solver.clauses)
    }
    seen_watches: dict[int, list[int]] = {index: [] for index in expected}
    arrays = [(solver._watchers, False), (solver._binary_watchers, True)]
    for watcher_slots, is_binary_array in arrays:
        for slot, watcher_list in enumerate(watcher_slots):
            assert len(watcher_list) % 2 == 0, "odd watcher list length"
            propagated = _slot_literal(slot)
            for position in range(0, len(watcher_list), 2):
                clause_index = watcher_list[position]
                blocker = watcher_list[position + 1]
                assert 0 <= clause_index < len(solver.clauses), "dangling watcher"
                clause = solver.clauses[clause_index]
                assert (len(clause) == 2) == is_binary_array, (
                    f"clause {clause_index} is in the wrong watcher array"
                )
                watched = -propagated
                assert watched in expected[clause_index], (
                    f"clause {clause_index} watched on a non-watch literal {watched}"
                )
                assert blocker in clause, "blocker not a literal of its clause"
                assert blocker != watched, "blocker equals the watched literal"
                seen_watches[clause_index].append(watched)
    for index, watches in seen_watches.items():
        assert sorted(watches) == sorted(expected[index]), (
            f"clause {index} does not have exactly its two watches registered"
        )


def assert_seen_clean(solver: SATSolver) -> None:
    assert not solver._seen_to_clear, "to-clear list not drained"
    assert not any(solver._seen), "stale marks in the seen buffer"


# ----------------------------------------------------------------------
# Decision heap
# ----------------------------------------------------------------------
class TestDecisionHeap:
    def test_initial_heap_covers_all_variables(self):
        solver = SATSolver(build_cnf(9, [[1, 2]]))
        assert_heap_valid(solver)
        assert sorted(solver._heap) == list(range(1, 10))

    def test_pick_matches_linear_scan_under_distinct_activities(self):
        solver = SATSolver(build_cnf(8, [[1, 2]]))
        rng = random.Random(7)
        for var in range(1, 9):
            solver.activity[var] = rng.random()
        solver._heap_rebuild()
        assert_heap_valid(solver)
        expected = reference_pick(solver)
        assert solver._pick_branch_variable() == expected

    def test_pick_breaks_ties_toward_smaller_index_like_the_scan(self):
        solver = SATSolver(build_cnf(6, [[1, 2]]))
        for var in (2, 4, 5):
            solver.activity[var] = 1.0
        solver._heap_rebuild()
        assert reference_pick(solver) == 2
        assert solver._pick_branch_variable() == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_heap_invariant_under_random_operations(self, data):
        num_vars = data.draw(st.integers(3, 12))
        solver = SATSolver(build_cnf(num_vars, [[1, 2], [-1, 3]]))
        operations = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["bump", "decay", "rescale", "solve", "grow"]),
                    st.integers(1, num_vars),
                ),
                max_size=24,
            )
        )
        for name, var in operations:
            if name == "bump":
                solver._bump_activity(var)
            elif name == "decay":
                solver._decay_activities()
            elif name == "rescale":
                # Force the overflow branch: the rescale must rebuild the
                # heap in place and keep the index map coherent.
                solver.activity[var] = 2e100
                solver._bump_activity(var)
            elif name == "solve":
                solver.solve(assumptions=[var if var % 2 else -var])
            elif name == "grow":
                solver.grow_variables(solver.num_vars + 1)
            assert_heap_valid(solver)
            expected = reference_pick(solver)
            picked = solver._pick_branch_variable()
            assert picked == expected
            if picked is not None:
                solver._heap_insert(picked)  # _pick pops; restore for the next op

    def test_backtrack_reinserts_unassigned_variables(self):
        cnf = build_cnf(6, [[1, 2], [3, 4], [5, 6]])
        solver = SATSolver(cnf)
        assert solver.solve(assumptions=[1, 3]).satisfiable
        # The end-of-solve backtrack reinserts what it unassigns: right after
        # solve returns, every variable is available for decisions again.
        assert sorted(solver._heap) == list(range(1, 7))
        assert_heap_valid(solver)
        # And a second solve must behave as if the heap had never thinned.
        assert solver.solve(assumptions=[2, 4]).satisfiable


    def test_picks_match_reference_scan_in_random_solves(self):
        rng = random.Random(23)
        decisions = conflicts = 0
        for _ in range(20):
            # Random 3-SAT near the satisfiability threshold: enough
            # conflicts that activity bumps reorder the heap mid-search.
            num_vars = rng.randint(12, 30)
            clauses = [
                [var if rng.random() < 0.5 else -var
                 for var in rng.sample(range(1, num_vars + 1), 3)]
                for _ in range(int(4.2 * num_vars))
            ]
            solver = SATSolver(build_cnf(num_vars, clauses))
            picks = check_every_pick(solver)
            result = solver.solve()
            assert len(picks) == result.decisions
            decisions += result.decisions
            conflicts += result.conflicts
        assert decisions > 0 and conflicts > 0

    def test_picks_match_reference_scan_in_incremental_solves(self):
        rng = random.Random(5)
        num_vars = 8
        clauses = random_clauses(rng, num_vars, 16)
        solver = SATSolver(build_cnf(num_vars, clauses))
        picks = check_every_pick(solver)
        for _ in range(6):
            assumptions = [
                var if rng.random() < 0.5 else -var
                for var in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
            ]
            solver.solve(assumptions=assumptions)
            for clause in random_clauses(rng, num_vars, 2):
                solver.add_clause(clause)
        assert len(picks) == solver.decisions


# ----------------------------------------------------------------------
# Watcher integrity
# ----------------------------------------------------------------------
class TestWatcherIntegrity:
    def test_watchers_after_construction(self):
        rng = random.Random(3)
        clauses = random_clauses(rng, 8, 25)
        solver = SATSolver(build_cnf(8, clauses))
        assert_watchers_valid(solver)

    def test_watchers_after_solve(self):
        rng = random.Random(11)
        for trial in range(15):
            num_vars = rng.randint(4, 10)
            clauses = random_clauses(rng, num_vars, rng.randint(5, 40))
            solver = SATSolver(build_cnf(num_vars, clauses))
            result = solver.solve()
            assert result.satisfiable == brute_force_satisfiable(num_vars, clauses)
            assert_watchers_valid(solver)

    def test_watchers_after_erase_satisfied(self):
        rng = random.Random(13)
        for trial in range(10):
            num_vars = rng.randint(4, 9)
            clauses = random_clauses(rng, num_vars, rng.randint(5, 30))
            solver = SATSolver(build_cnf(num_vars, clauses))
            solver.solve()
            unit = rng.randint(1, num_vars)
            solver.add_clause([unit])
            solver.erase_satisfied()
            assert_watchers_valid(solver)
            # The erased database still decides the strengthened formula.
            assert solver.solve().satisfiable == brute_force_satisfiable(
                num_vars, clauses + [[unit]]
            )

    def test_watchers_after_absorb_learnt(self):
        rng = random.Random(17)
        num_vars = 8
        clauses = random_clauses(rng, num_vars, 30)
        donor = SATSolver(build_cnf(num_vars, clauses))
        donor.solve()
        receiver = SATSolver(build_cnf(num_vars, clauses))
        for clause, _lbd in donor.learnt_clauses_meta():
            receiver.absorb_learnt(clause)
        assert_watchers_valid(receiver)
        assert receiver.solve().satisfiable == donor.solve().satisfiable

    def test_watchers_after_learnt_reduction(self):
        rng = random.Random(19)
        num_vars = 10
        clauses = random_clauses(rng, num_vars, 45)
        solver = SATSolver(build_cnf(num_vars, clauses), max_learnt=4)
        for _ in range(4):
            assumptions = [
                var if rng.random() < 0.5 else -var
                for var in rng.sample(range(1, num_vars + 1), 2)
            ]
            solver.solve(assumptions=assumptions)
        assert_watchers_valid(solver)

    def test_binary_clauses_in_dedicated_arrays_and_propagate(self):
        solver = SATSolver(build_cnf(3, [[1, 2], [-2, 3]]))
        assert_watchers_valid(solver)
        result = solver.solve(assumptions=[-1])
        assert result.satisfiable and result.model[2] and result.model[3]
        assert solver.blocker_hits >= 0  # counter exists and never goes negative


# ----------------------------------------------------------------------
# Conflict analysis: scratch hygiene and minimization soundness
# ----------------------------------------------------------------------
class TestAnalyzeScratch:
    def test_seen_buffer_clean_after_solves(self):
        rng = random.Random(29)
        for _ in range(10):
            num_vars = rng.randint(4, 10)
            clauses = random_clauses(rng, num_vars, rng.randint(10, 40))
            solver = SATSolver(build_cnf(num_vars, clauses))
            solver.solve()
            assert_seen_clean(solver)
            solver.solve(assumptions=[1])
            assert_seen_clean(solver)

    def test_statistics_deltas_include_hotpath_counters(self):
        rng = random.Random(31)
        clauses = random_clauses(rng, 9, 38)
        solver = SATSolver(build_cnf(9, clauses))
        result = solver.solve()
        assert result.counters["blocker_hits"] == solver.blocker_hits
        assert result.counters["heap_discards"] == solver.heap_discards
        again = solver.solve(assumptions=[2])
        assert again.counters["blocker_hits"] == (
            solver.blocker_hits - result.counters["blocker_hits"]
        )
        assert again.counters["heap_discards"] == (
            solver.heap_discards - result.counters["heap_discards"]
        )


class TestMinimizationSoundness:
    def assert_learnt_entailed(self, num_vars, clauses, solver):
        """Every learnt clause must be a consequence of the original formula:
        asserting its negation against a fresh solver over the original CNF
        must be unsatisfiable.  This is the regression net for the
        minimization bookkeeping (a dropped-but-required literal would leave
        a learnt clause that is NOT entailed)."""
        for learnt, _lbd in solver.learnt_clauses_meta():
            fresh = SATSolver(build_cnf(num_vars, clauses))
            negated = [-lit for lit in learnt]
            assert not fresh.solve(assumptions=negated).satisfiable, (
                f"learnt clause {learnt} is not entailed by the formula"
            )

    def test_learnt_clauses_entailed_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(25):
            num_vars = rng.randint(4, 9)
            clauses = random_clauses(rng, num_vars, rng.randint(10, 40))
            solver = SATSolver(build_cnf(num_vars, clauses))
            result = solver.solve()
            assert result.satisfiable == brute_force_satisfiable(num_vars, clauses)
            self.assert_learnt_entailed(num_vars, clauses, solver)

    def test_learnt_clauses_entailed_under_assumptions(self):
        rng = random.Random(41)
        for _ in range(15):
            num_vars = rng.randint(5, 9)
            clauses = random_clauses(rng, num_vars, rng.randint(12, 36))
            solver = SATSolver(build_cnf(num_vars, clauses))
            for _ in range(3):
                assumptions = [
                    var if rng.random() < 0.5 else -var
                    for var in rng.sample(range(1, num_vars + 1), 2)
                ]
                solver.solve(assumptions=assumptions)
            self.assert_learnt_entailed(num_vars, clauses, solver)

    def test_crafted_chain_keeps_required_literal(self):
        """A hand-built implication ladder whose learnt clause admits real
        minimization: the solver must keep a literal whose reason chain
        grounds in a decision, and the final verdicts must match brute
        force whatever was dropped."""
        # x1..x4 decisions feed chains: x5 <- x1&x2, x6 <- x5&x3, and the
        # conflict clause requires (x6 & x4) -> x7 with x7 forced false.
        clauses = [
            [-1, -2, 5],
            [-5, -3, 6],
            [-6, -4, 7],
            [-7],
            # Force enough structure that the chain actually fires.
            [1], [2], [3],
        ]
        num_vars = 7
        solver = SATSolver(build_cnf(num_vars, clauses))
        result = solver.solve()
        expected = brute_force_satisfiable(num_vars, clauses)
        assert result.satisfiable == expected
        if result.satisfiable:
            assert result.model[4] is False  # x4 must be false: x6&x4 -> x7 -> bottom
        self.assert_learnt_entailed(num_vars, clauses, solver)
        assert_seen_clean(solver)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_randomized_verdicts_match_brute_force(self, data):
        num_vars = data.draw(st.integers(3, 7))
        num_clauses = data.draw(st.integers(3, 24))
        clauses = [
            data.draw(
                st.lists(
                    st.integers(1, num_vars).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=3,
                )
            )
            for _ in range(num_clauses)
        ]
        solver = SATSolver(build_cnf(num_vars, clauses))
        result = solver.solve()
        assert result.satisfiable == brute_force_satisfiable(num_vars, clauses)
        assert_watchers_valid(solver)
        assert_seen_clean(solver)


# ----------------------------------------------------------------------
# Glucose-style binary self-subsumption
# ----------------------------------------------------------------------
class TestBinarySubsumption:
    def test_unit_drops_literal_resolved_by_binary_clause(self):
        """Learnt (1 ∨ ¬2 ∨ 3) resolved with the binary clause (1 ∨ 2)
        strengthens to (1 ∨ 3)."""
        solver = SATSolver(build_cnf(3, [[1, 2], [2, 3]]))
        assert solver._subsume_binary([1, -2, 3]) == [1, 3]
        assert solver.binary_subsumed == 1

    def test_unit_keeps_unresolvable_literals(self):
        solver = SATSolver(build_cnf(3, [[1, 2], [2, 3]]))
        assert solver._subsume_binary([1, 2, 3]) == [1, 2, 3]
        assert solver._subsume_binary([-1, -2, 3]) == [-1, -2, 3]
        assert solver.binary_subsumed == 0

    def test_lbd_gate_skips_wide_clauses(self):
        solver = SATSolver(build_cnf(8, [[1, 2], [2, 3]]))
        for var in range(1, 9):
            solver.level[var] = var  # 8 distinct levels > the LBD cap of 6
        learnt = [1, -2, -3, -4, -5, -6, -7, -8]
        assert solver._subsume_binary(list(learnt)) == learnt
        assert solver.binary_subsumed == 0

    def test_counter_deltas_flow_into_results(self):
        rng = random.Random(43)
        clauses = random_clauses(rng, 9, 40, max_len=2) + random_clauses(
            rng, 9, 12, max_len=3
        )
        solver = SATSolver(build_cnf(9, clauses))
        result = solver.solve()
        assert result.counters["binary_subsumed"] == solver.binary_subsumed
        again = solver.solve(assumptions=[3])
        assert again.counters["binary_subsumed"] == (
            solver.binary_subsumed - result.counters["binary_subsumed"]
        )

    @staticmethod
    def pigeonhole(holes):
        """PHP(holes+1, holes): deep conflict analysis plus binary at-most-one
        clauses — the shape binary self-subsumption exists for."""
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1  # noqa: E731 - tiny local helper
        clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return pigeons * holes, clauses

    def test_pigeonhole_fires_subsumption_and_stays_entailed(self):
        soundness = TestMinimizationSoundness()
        fired = 0
        for holes in (4, 5):
            num_vars, clauses = self.pigeonhole(holes)
            solver = SATSolver(build_cnf(num_vars, clauses))
            result = solver.solve()
            assert not result.satisfiable  # one pigeon too many
            soundness.assert_learnt_entailed(num_vars, clauses, solver)
            assert_seen_clean(solver)
            assert_watchers_valid(solver)
            fired += solver.binary_subsumed
            assert result.counters["binary_subsumed"] == solver.binary_subsumed
        assert fired > 0, "subsumption never fired on pigeonhole instances"

    def test_random_verdicts_unchanged_by_subsumption(self):
        """Random mixed CNFs still decide exactly as brute force does."""
        rng = random.Random(47)
        for _ in range(25):
            num_vars = rng.randint(5, 9)
            clauses = random_clauses(rng, num_vars, rng.randint(14, 30), max_len=2)
            clauses += random_clauses(rng, num_vars, rng.randint(4, 10), max_len=3)
            solver = SATSolver(build_cnf(num_vars, clauses))
            result = solver.solve()
            assert result.satisfiable == brute_force_satisfiable(num_vars, clauses)
            assert_seen_clean(solver)
            assert_watchers_valid(solver)
