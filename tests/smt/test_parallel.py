"""Parallel task-splitting driver tests."""

import multiprocessing
import threading

from repro.classical.expr import And, BoolVar, IntConst, IntLe, Not, Or, sum_of
from repro.smt.interface import SolveSession
from repro.smt.parallel import _terminate_pool, generate_split_assumptions, split_check


def check_once(formula, split_variables=(), threshold=None, num_workers=1, session=None):
    """One split check, its subtasks enumerated as ParallelBackend does
    (weight 2, threshold defaulting to the number of split variables)."""
    if threshold is None:
        threshold = max(len(split_variables), 1)
    assumption_sets = generate_split_assumptions(
        list(split_variables), 2, threshold, max_subtasks=256
    )
    return split_check(formula, assumption_sets, num_workers=num_workers, session=session)


class TestSplitting:
    def test_leaves_partition_the_space(self):
        variables = ["a", "b", "c"]
        leaves = generate_split_assumptions(variables, heuristic_weight=2, threshold=10)
        # The heuristic never fires, so the leaves are the 8 full assignments.
        assert len(leaves) == 8
        assert len({tuple(sorted(leaf.items())) for leaf in leaves}) == 8

    def test_heuristic_truncates_enumeration(self):
        variables = [f"e{i}" for i in range(6)]
        leaves = generate_split_assumptions(variables, heuristic_weight=6, threshold=6)
        assert 1 < len(leaves) < 64
        # Every full assignment extends exactly one leaf.
        for bits in range(64):
            assignment = {f"e{i}": bool((bits >> i) & 1) for i in range(6)}
            matches = [
                leaf
                for leaf in leaves
                if all(assignment[name] == value for name, value in leaf.items())
            ]
            assert len(matches) == 1

    def test_empty_variable_list(self):
        assert generate_split_assumptions([], 2, 5) == [{}]

    @staticmethod
    def assert_exact_cover(variables, leaves):
        """Every full assignment of ``variables`` extends exactly one leaf."""
        for bits in range(2 ** len(variables)):
            assignment = {name: bool((bits >> i) & 1) for i, name in enumerate(variables)}
            matches = sum(
                all(assignment[name] == value for name, value in leaf.items())
                for leaf in leaves
            )
            assert matches == 1, (assignment, leaves)

    def test_budget_caps_leaves_and_keeps_an_exact_cover(self):
        for size in range(1, 7):
            variables = [f"e{i}" for i in range(size)]
            for weight, threshold in ((2, size), (1, 2 * size), (3, 4)):
                unbounded = generate_split_assumptions(variables, weight, threshold, 2 ** size)
                for max_subtasks in range(1, 2 ** size + 2):
                    leaves = generate_split_assumptions(
                        variables, weight, threshold, max_subtasks=max_subtasks
                    )
                    assert len(leaves) <= max_subtasks
                    self.assert_exact_cover(variables, leaves)
                    if max_subtasks >= len(unbounded):
                        # A budget the full tree fits in leaves it untouched.
                        assert leaves == unbounded

    def test_large_code_split_stays_within_the_parallel_cap(self):
        from repro.api.backends import ParallelBackend
        from repro.api.engine import Engine
        from repro.api.tasks import DetectionTask

        compiled = Engine().compile_task(DetectionTask(code="hgp-hamming"))
        cap = ParallelBackend().max_subtasks
        leaves = generate_split_assumptions(
            list(compiled.split_variables), compiled.split_weight,
            compiled.split_threshold, max_subtasks=cap,
        )
        assert len(leaves) <= cap


class TestChecker:
    def test_sequential_unsat(self):
        e = [BoolVar(f"e{i}") for i in range(4)]
        formula = And((IntLe(sum_of(e), IntConst(1)), e[0], e[1]))
        result = check_once(formula, split_variables=[f"e{i}" for i in range(4)], threshold=4)
        assert result.is_unsat
        assert result.metadata["num_subtasks"] >= 1

    def test_sequential_sat_returns_model(self):
        e = [BoolVar(f"e{i}") for i in range(4)]
        formula = And((Or((e[0], e[1])), Not(e[2])))
        result = check_once(formula, split_variables=["e0", "e1"], threshold=2)
        assert result.is_sat
        assert result.model["e0"] or result.model["e1"]

    def test_parallel_two_workers(self):
        e = [BoolVar(f"e{i}") for i in range(5)]
        formula = And((IntLe(sum_of(e), IntConst(1)), e[0], e[1]))
        result = check_once(
            formula,
            split_variables=[f"e{i}" for i in range(5)],
            threshold=3,
            num_workers=2,
        )
        assert result.is_unsat
        assert result.metadata["num_workers"] == 2


class TestStatisticsAggregation:
    def formula(self):
        e = [BoolVar(f"e{i}") for i in range(6)]
        return And((IntLe(sum_of(e), IntConst(2)), e[0], e[1], e[2]))

    def test_sequential_totals_cover_all_subtasks(self):
        result = check_once(
            self.formula(), split_variables=[f"e{i}" for i in range(6)], threshold=6
        )
        assert result.is_unsat
        assert result.metadata["num_subtasks"] > 1
        # Every subtask's work is aggregated, not just the last one's.
        assert result.propagations > 0
        assert result.num_variables > 0 and result.num_clauses > 0
        session = result.metadata["session"]
        assert session["conflicts"] == result.conflicts
        assert session["propagations"] == result.propagations

    def test_pool_totals_cover_all_subtasks(self):
        result = check_once(
            self.formula(),
            split_variables=[f"e{i}" for i in range(6)],
            threshold=6,
            num_workers=2,
        )
        assert result.is_unsat
        assert result.propagations > 0
        assert result.num_variables > 0 and result.num_clauses > 0
        assert result.metadata["num_workers"] == 2


class TestOneShotSplit:
    def test_one_shot_splits_match_guarded_session(self):
        """Each weight bound, decided by a one-shot split of ``base AND
        weight <= bound`` (in process and pooled), agrees with the
        selector-guarded answer of one SolveSession over the base."""
        e = [BoolVar(f"e{i}") for i in range(5)]
        base = And((e[0], e[1]))
        weight = sum_of(e)
        guarded = SolveSession(base)
        expected = {}
        for bound in (1, 2, 3):
            selector = guarded.add_weight_guard(f"le{bound}", weight, bound)
            expected[bound] = guarded.check(select=(selector,)).status
            formula = And((base, IntLe(weight, IntConst(bound))))
            for workers in (1, 2):
                result = check_once(
                    formula, split_variables=["e2", "e3", "e4"], num_workers=workers
                )
                assert result.status == expected[bound], (bound, workers)
        assert expected == {1: "unsat", 2: "sat", 3: "sat"}
        assert guarded.stats()["checks"] == 3

    def test_in_process_split_solves_on_the_given_session(self):
        e = [BoolVar(f"e{i}") for i in range(4)]
        formula = And((IntLe(sum_of(e), IntConst(1)), e[0], e[1]))
        session = SolveSession(formula)
        result = check_once(formula, split_variables=["e2", "e3"], session=session)
        assert result.is_unsat
        # Every subtask ran on the handed session, and the check's own
        # statistics describe that one check.
        assert session.stats()["checks"] == result.metadata["num_subtasks"] > 1
        assert result.metadata["session"]["checks"] == 1
        assert result.metadata["session"]["learnt_kept"] == session.stats()["learnt_kept"]


class TestPoolTeardown:
    def test_terminate_returns_when_a_dead_worker_holds_the_result_lock(self):
        pool = multiprocessing.Pool(processes=1)
        # What a worker killed mid-way through posting a result leaves
        # behind: the result queue's write lock, held forever.
        lock = pool._outqueue._wlock
        lock.acquire()
        try:
            caller = threading.Thread(
                target=_terminate_pool, args=(pool,), kwargs={"timeout": 0.5}, daemon=True
            )
            caller.start()
            caller.join(10)
            assert not caller.is_alive(), "pool teardown blocked its caller"
        finally:
            lock.release()
