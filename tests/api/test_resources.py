"""The engine-owned resource layer: shared per-code contexts, one-shot split
pools, clause-store warm starts, and binary-search distance discovery.

The load-bearing property is cross-task equivalence: a task decided on a
shared per-code session (its formula guarded behind a task selector, learnt
clauses flowing in from *other* task kinds) must return exactly the verdict a
fresh dedicated solver returns — for every registry code, in both task
orders, and after guard-heavy traffic (the guard-leak case).
"""

import pytest

from repro.api import (
    CorrectionTask,
    DetectionTask,
    DistanceTask,
    Engine,
    ParallelBackend,
    SerialBackend,
)
from repro.api.resources import ResourceManager
from repro.codes.registry import CODE_REGISTRY, build_code
from repro.smt.interface import SolveSession, check_formula
from repro.store import ClauseStore


def _task_pair(key):
    """A correction and a detection task that are both well-defined for ``key``."""
    code = build_code(key)
    max_errors = None if code.distance is not None else 1
    return (
        CorrectionTask(code=key, max_errors=max_errors),
        DetectionTask(code=key),
    )


class TestCrossTaskSharing:
    @pytest.mark.parametrize("key", sorted(CODE_REGISTRY))
    def test_shared_context_matches_fresh_per_task(self, key):
        correction, detection = _task_pair(key)
        shared = Engine()
        # Both task kinds run on ONE context (one live solver) per code...
        first = shared.run(correction)
        second = shared.run(detection)
        assert shared.cache_info()["sessions"] == 1
        assert second.details["resources"]["contexts"] == 1
        # ... and must agree with engines that never share anything.
        assert first.verified == Engine().run(correction).verified, key
        assert second.verified == Engine().run(detection).verified, key

    @pytest.mark.parametrize("key", ["steane", "five-qubit", "surface-3"])
    def test_guard_leak_between_task_kinds(self, key):
        """Interleaved task kinds must not contaminate one another: re-running
        a task after the *other* kind ran (and learnt clauses) keeps its
        verdict, and an over-claimed correction still finds its
        counterexample on the shared session."""
        correction, detection = _task_pair(key)
        engine = Engine()
        baseline_correction = engine.run(correction).verified
        baseline_detection = engine.run(detection).verified
        assert engine.run(correction).verified == baseline_correction
        assert engine.run(detection).verified == baseline_detection
        overclaim = CorrectionTask(code=key, max_errors=4)
        bug = engine.run(overclaim)
        fresh_bug = Engine().run(overclaim)
        assert bug.verified == fresh_bug.verified
        if not bug.verified:
            assert bug.counterexample_qubits()
            # Selector guards never leak into extracted counterexamples.
            assert not any(name.startswith(("task:", "w:", "detection-base"))
                           for name in bug.counterexample)
        # The original tasks still decide correctly after the buggy traffic.
        assert engine.run(correction).verified == baseline_correction
        assert engine.run(detection).verified == baseline_detection

    def test_correction_and_detection_share_learnt_clauses(self):
        engine = Engine()
        correction, detection = _task_pair("steane")
        first = engine.run(correction)
        second = engine.run(detection)
        stats = second.session_stats()
        # Two checks on one session: the detection run sees the cumulative
        # counters of the shared solver, not a fresh one.
        assert stats["checks"] == 2
        assert stats["conflicts"] >= first.conflicts
        assert stats["context_misses"] == 2  # two formulas guarded once each
        third = engine.run(detection)
        assert third.session_stats()["context_hits"] == 1

    def test_program_tasks_keep_a_persistent_session(self):
        """Code-less tasks (the program-logic route) still reuse one live
        solver across runs, as they did before per-code contexts."""
        from repro.api import ProgramTask
        from repro.codes import steane_code
        from repro.verifier.programs import correction_triple

        scenario = correction_triple(steane_code(), error="Y", max_errors=1)
        task = ProgramTask(triple=scenario.triple,
                           decoder_condition=scenario.decoder_condition)
        engine = Engine()
        first = engine.run(task)
        second = engine.run(task)
        assert first.verified and second.verified
        assert second.session_stats()["checks"] == 2
        assert second.conflicts == 0

    def test_program_tasks_share_the_codeless_context(self):
        """Program tasks are guarded on the one context keyed ``None`` (their
        claim key): a repeat hits it, and a counterexample found there is a
        real model of the task's own formula."""
        from repro.api import ProgramTask
        from repro.classical.expr import free_variables
        from repro.codes import steane_code
        from repro.verifier.programs import correction_triple

        engine = Engine()
        results = {}
        for max_errors in (1, 2, 1, 2):
            scenario = correction_triple(steane_code(), error="Y", max_errors=max_errors)
            task = ProgramTask(triple=scenario.triple,
                               decoder_condition=scenario.decoder_condition)
            result = engine.run(task)
            assert result.cached is (max_errors in results)
            assert result.verified == (max_errors == 1)
            results[max_errors] = (task, result)
        assert list(engine.resources._contexts) == [None]
        assert engine.cache_info() == {"hits": 2, "misses": 2, "sessions": 1}
        task, refuted = results[2]
        formula = engine.compile_task(task).formula
        # The witness names exactly the formula's own variables, and extends
        # to a model of that formula alone (the decoder is uninterpreted, so
        # a fresh solve under the witness stands in for ``evaluate``).
        assert set(refuted.counterexample) == free_variables(formula)
        assert check_formula(formula, refuted.counterexample).is_sat
        assert Engine().run(task).verified == refuted.verified

    def test_session_stats_prefers_per_session_learnt_counters(self):
        engine = Engine()
        engine.run(CorrectionTask(code="five-qubit"))
        result = engine.run(CorrectionTask(code="steane"))
        stats = result.session_stats()
        # Two contexts are live engine-wide, but the merged stats report the
        # learnt counters of THIS task's session, not the engine-wide sum.
        assert stats["contexts"] == 2
        assert stats["learnt_kept"] == result.details["session"]["learnt_kept"]
        assert result.details["resources"]["learnt_kept"] >= stats["learnt_kept"]

    def test_nondeterministic_tasks_bypass_the_context(self):
        from repro.api import ConstrainedTask

        engine = Engine()
        task = ConstrainedTask(code="surface-3", locality=True, error_model="Y")
        engine.run(task)
        assert engine.cache_info()["sessions"] == 0

    def test_context_lru_bound(self):
        engine = Engine()
        engine.resources.max_contexts = 1
        engine.run(CorrectionTask(code="steane"))
        engine.run(CorrectionTask(code="five-qubit"))
        assert engine.cache_info()["sessions"] == 1


class TestBinarySearchDistance:
    @pytest.mark.parametrize("key,expected", [
        ("steane", 3), ("five-qubit", 3), ("surface-3", 3), ("shor", 3),
    ])
    def test_distance_matches_linear_probe_walk(self, key, expected):
        result = Engine().run(DistanceTask(code=key, max_trial=6))
        assert result.details["distance"] == expected

    def test_surface5_issues_fewer_checks_than_linear(self):
        result = Engine().run(DistanceTask(code="surface-5", max_trial=6))
        assert result.details["distance"] == 5
        # The linear walk needed 5 detection queries (trials 2..6); the
        # bracketing walk needs 4 (bounds 1, 2, 4, 5).
        assert len(result.details["trials"]) < 5
        assert result.details["witness"]

    def test_witness_is_minimum_weight(self):
        from repro.verifier.encodings import model_error_weight

        result = Engine().run(DistanceTask(code="steane", max_trial=6))
        assert model_error_weight(result.details["witness"]) == result.details["distance"]

    def test_distance_after_single_pauli_traffic_on_shared_session(self):
        """Regression: a prior single-Pauli task names e_i variables on the
        shared session; during a distance probe those are unconstrained and
        must neither inflate the witness weight (which sent the binary
        search into an infinite loop) nor appear in the witness."""
        engine = Engine()
        engine.run(CorrectionTask(code="steane", error_model="X", max_errors=3))
        result = engine.run(DistanceTask(code="steane", max_trial=5))
        assert result.details["distance"] == 3
        assert not any(name.startswith("e_") for name in result.details["witness"])

    def test_counterexamples_exclude_other_tasks_variables(self):
        """A counterexample on the shared session names only the failing
        task's own variables, not indicators of other guarded formulas."""
        engine = Engine()
        engine.run(DetectionTask(code="steane", trial_distance=3))
        bug = engine.run(CorrectionTask(code="steane", error_model="X", max_errors=3))
        assert not bug.verified
        # The "any"-model detection formula named ex_/ez_ variables; the
        # single-Pauli correction counterexample must not carry them.
        assert not any(name.startswith(("ex_", "ez_")) for name in bug.counterexample)
        assert any(name.startswith("e_") for name in bug.counterexample)

    def test_parallel_distance_walks_the_shared_context(self):
        engine = Engine()
        first = engine.run(DistanceTask(code="steane", max_trial=5),
                           backend=ParallelBackend(num_workers=2))
        assert first.details["distance"] == 3
        assert first.backend == "parallel"
        assert first.details["resources"]["contexts"] == 1
        assert "num_workers" not in first.details
        second = engine.run(DistanceTask(code="steane", max_trial=5),
                            backend=ParallelBackend(num_workers=2))
        assert second.details["distance"] == 3
        assert second.details["resources"]["context_hits"] >= 1
        engine.close()

    @pytest.mark.parametrize("key", sorted(CODE_REGISTRY))
    def test_parallel_walk_equals_serial_walk(self, key):
        """Whatever the backend, the walk runs on the code's context: the
        distance and the probe schedule are the serial ones."""
        serial = Engine().run(DistanceTask(code=key), backend=SerialBackend())
        parallel = Engine().run(DistanceTask(code=key), backend=ParallelBackend(num_workers=2))
        for result in (serial, parallel):
            result.details["probes"] = [
                (trial["bound"], trial["window"], trial["verified"])
                for trial in result.details["trials"]
            ]
        for field in ("distance", "probes"):
            assert parallel.details[field] == serial.details[field], (key, field)


class TestOneShotSplitPools:
    def test_parallel_check_leaves_no_live_pool(self):
        from repro.smt.parallel import _LIVE_POOLS

        before = list(_LIVE_POOLS)
        engine = Engine(backend=ParallelBackend(num_workers=2))
        task = CorrectionTask(code="steane", error_model="Y")
        for run in (task, task, CorrectionTask(code="steane", max_errors=2)):
            result = engine.run(run)
            assert result.details["num_workers"] == 2
            assert [pool for pool in _LIVE_POOLS if pool not in before] == []
        assert not result.verified
        engine.close()

    def test_resource_stats_carry_no_pool_keys(self):
        engine = Engine(backend=ParallelBackend(num_workers=2))
        stats = engine.run(CorrectionTask(code="steane", error_model="Y")).session_stats()
        assert not [key for key in stats if key.startswith("pool")]
        engine.close()


class TestWarmCache:
    def test_round_trip_skips_relearning(self, tmp_path):
        cache = str(tmp_path / "warm")
        cold_engine = Engine(clause_store=cache)
        task = CorrectionTask(code="steane")
        cold = cold_engine.run(task)
        cold_engine.resources.save_warm()
        assert cold.conflicts > 0

        warm_engine = Engine(clause_store=cache)
        warm = warm_engine.run(task)
        stats = warm.session_stats()
        assert stats["warm_hits"] == 1
        assert stats["warm_absorbed"] > 0
        # Everything the cold run learnt is back: deciding again is free.
        assert warm.conflicts == 0
        assert warm.verified == cold.verified

    def test_mismatched_fingerprint_misses(self, tmp_path):
        cache = str(tmp_path / "warm")
        engine = Engine(clause_store=cache)
        engine.run(CorrectionTask(code="steane"))
        engine.resources.save_warm()

        other = Engine(clause_store=cache)
        result = other.run(CorrectionTask(code="five-qubit"))
        stats = result.session_stats()
        assert stats["warm_hits"] == 0
        assert stats["warm_misses"] == 1

    def test_distance_warm_start(self, tmp_path):
        cache = str(tmp_path / "warm")
        task = DistanceTask(code="surface-3", max_trial=5)
        cold_engine = Engine(clause_store=cache)
        cold = cold_engine.run(task)
        cold_engine.resources.save_warm()

        warm_engine = Engine(clause_store=cache)
        warm = warm_engine.run(task)
        assert warm.details["distance"] == cold.details["distance"]
        assert warm.conflicts <= cold.conflicts


class TestSharedSessionAgainstFreshFormulas:
    @pytest.mark.parametrize("key", sorted(CODE_REGISTRY))
    def test_context_verdicts_equal_monolithic_check(self, key):
        """The guarded shared encoding must agree with a plain one-shot
        check of the compiled formula, after both task kinds trafficked
        the session (the engine-level analogue of the smt-layer
        incremental-vs-fresh equivalence tests)."""
        correction, detection = _task_pair(key)
        engine = Engine()
        compiled_correction = engine.compile_task(correction)
        compiled_detection = engine.compile_task(detection)
        shared_correction = engine.run(correction)
        shared_detection = engine.run(detection)
        assert shared_correction.verified == check_formula(compiled_correction.formula).is_unsat
        assert shared_detection.verified == check_formula(compiled_detection.formula).is_unsat


class TestSharedEngineAcrossCodes:
    def test_surface_sequence_matches_fresh_engines(self):
        """Shared session vs fresh: one engine decides surface-3, then
        surface-5 (one over-claimed correction among them), then both
        distance walks, carrying every context along.
        Each answer must equal a fresh engine's, and the answers are pinned
        so they stay fixed across changes to cross-task state."""
        tasks = [
            CorrectionTask(code="surface-3"),
            DetectionTask(code="surface-3"),
            CorrectionTask(code="surface-5"),
            CorrectionTask(code="surface-5", max_errors=1),
            # over-claimed: weight-3 correction on a d=5 code must fail
            CorrectionTask(code="surface-5", max_errors=3),
            DetectionTask(code="surface-5"),
            DistanceTask(code="surface-3"),
            DistanceTask(code="surface-5"),
        ]

        def answer(result):
            return (result.subject, result.verified, result.details.get("distance"))

        shared = Engine(backend="serial")
        shared_answers = [answer(shared.run(task)) for task in tasks]
        fresh_answers = [answer(Engine(backend="serial").run(task)) for task in tasks]
        assert shared_answers == fresh_answers
        assert [(verified, distance) for _, verified, distance in shared_answers] == [
            (True, None), (True, None), (True, None), (True, None), (False, None),
            (True, None), (True, 3), (True, 5),
        ]


class TestFamilyWarmStartRemoved:
    def test_family_warm_start_option_is_gone(self):
        with pytest.raises(TypeError):
            Engine(family_warm_start=False)
        with pytest.raises(TypeError):
            ResourceManager(family_warm_start=False)

    def test_tracer_names_exist_and_are_inert(self):
        # The layered benchmark's tracer wraps these by name and raises if
        # they are missing; they must do nothing.
        manager = ResourceManager()
        for name in ("absorb_from_family", "absorb_from_store"):
            assert name in ResourceManager.__dict__
            assert getattr(manager, name)("surface-5", None, ()) == 0
        assert manager.stats()["contexts"] == 0

    def test_nothing_in_src_calls_the_tracer_names(self):
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        callers = [
            f"{path.relative_to(root)}: {line.strip()}"
            for path in sorted(root.rglob("*.py"))
            for line in path.read_text().splitlines()
            for name in ("absorb_from_family", "absorb_from_store", "family_candidates")
            if f"{name}(" in line and not line.lstrip().startswith("def ")
        ]
        assert callers == []


def view_of(context, task, formula):
    """``context``'s guarded view for ``task``, asserting ``formula`` on a miss."""
    from repro.api.engine import CompiledTask

    view, _compiled, _hit = context.task_view(
        task, lambda task: CompiledTask(task=task, kind="test", subject="", formula=formula)
    )
    return view


class TestGuardGarbageCollection:
    def test_task_guard_lru_retires_stale_guards(self):
        from repro.api.resources import CodeContext
        from repro.codes.registry import build_code
        from repro.verifier.encodings import ErrorModel, precise_detection_formula

        code = build_code("five-qubit")
        context = CodeContext("five-qubit", max_task_guards=2)
        verdicts = {}
        for trial in (2, 3, 4):
            formula = precise_detection_formula(code, trial, error_model=ErrorModel("any"))
            view = view_of(context, ("trial", trial), formula)
            verdicts[trial] = view.check().status
        # The third guard overflowed the cap of 2: the two older ones were
        # retired in one sweep, down to max(1, 2 // 2) = 1 live guard.
        assert len(context._task_guards) == 1
        assert (context.retired, context.sweeps) == (2, 1)
        assert context.session.stats().get("erased_clauses", 0) >= 1
        # The evicted task re-enters under a fresh selector with the same
        # verdict; survivors keep theirs.
        for trial in (2, 3, 4):
            formula = precise_detection_formula(code, trial, error_model=ErrorModel("any"))
            view = view_of(context, ("trial", trial), formula)
            assert view.check().status == verdicts[trial], trial

    def test_overflow_retires_the_older_half_in_one_scan(self, monkeypatch):
        from repro.api.resources import CodeContext
        from repro.codes.registry import build_code
        from repro.smt.solver import SATSolver
        from repro.verifier.encodings import ErrorModel, precise_detection_formula

        scans = []
        erase_satisfied = SATSolver.erase_satisfied

        def counted(solver):
            scans.append(solver)
            return erase_satisfied(solver)

        monkeypatch.setattr(SATSolver, "erase_satisfied", counted)
        code = build_code("five-qubit")
        context = CodeContext("five-qubit", max_task_guards=4)
        # Task k asks for the trial distance k + 1.
        formula = {
            task: precise_detection_formula(code, task + 1, error_model=ErrorModel("any"))
            for task in (1, 2, 3, 4, 5)
        }
        views = {task: view_of(context, task, formula[task]) for task in (1, 2, 3, 4)}
        verdicts = {task: view.check().status for task, view in views.items()}
        view_of(context, 1, formula[1])  # a hit: task 1 is now the newest
        assert scans == [] and context.retired == 0
        # The fifth guard overflows the cap: the three least recently used
        # (tasks 2, 3, 4) go in one scan, down to 4 // 2 = 2 live guards.
        views[5] = view_of(context, 5, formula[5])
        assert len(scans) == 1
        assert list(context._task_guards) == [1, 5]
        assert (context.retired, context.sweeps) == (3, 1)
        # The survivors still hit, under their old selectors.
        hits = context.hits
        assert view_of(context, 1, formula[1]).selectors == views[1].selectors
        assert view_of(context, 5, formula[5]).selectors == views[5].selectors
        assert context.hits == hits + 2 and len(scans) == 1
        assert view_of(context, 1, formula[1]).check().status == verdicts[1]
        # A retired task re-enters as a miss under a fresh selector: a
        # retired selector is root-false forever, so names are never reused.
        again = view_of(context, 2, formula[2])
        assert again.selectors != views[2].selectors
        assert again.check().status == verdicts[2]

    def test_a_cap_of_one_never_retires_the_new_guard(self):
        engine = Engine()
        try:
            engine.resources.context_for("steane").max_task_guards = 1
            runs = [
                engine.run(CorrectionTask(code="steane", max_errors=weight))
                for weight in (1, 2, 1)
            ]
            repeat = engine.run(CorrectionTask(code="steane", max_errors=1))
            stats = engine.resources.stats()
        finally:
            engine.close()
        # Steane corrects one error, not two: a run whose guard was retired
        # by its own overflow would solve the empty selection and verify.
        assert [result.verified for result in runs] == [True, False, True]
        assert [result.cached for result in runs] == [False, False, False]
        assert repeat.cached is True and repeat.verified is True
        assert (stats["retired_guards"], stats["guard_sweeps"]) == (2, 2)


class TestGuardRetirementCost:
    """Retiring task guards frees what the tasks added, half the cap per
    sweep, without changing a verdict."""

    @staticmethod
    def _locality_task(seed, max_errors=None):
        from repro.api import ConstrainedTask

        return ConstrainedTask(code="steane", locality=True, seed=seed, max_errors=max_errors)

    def test_verdicts_match_one_shot_checks_under_guard_churn(self):
        from repro.api.resources import CodeContext
        from repro.classical.expr import evaluate

        engine = Engine()
        context = CodeContext("steane", max_task_guards=4)
        statuses = set()
        for seed in range(20):
            # Two errors on three allowed qubits defeat steane; one never does.
            task = self._locality_task(seed, max_errors=1 + seed % 2)
            formula = engine.compile_task(task).formula
            check = view_of(context, task, formula).check()
            assert check.status == check_formula(formula).status, seed
            if check.is_sat:
                assert evaluate(formula, check.model) is True, seed
            statuses.add(check.status)
        assert statuses == {"sat", "unsat"}
        # Tasks 5, 8, ..., 20 overflow the cap of 4 and retire 3 guards each.
        assert (context.retired, context.sweeps) == (18, 6)

    def test_fresh_tasks_leave_the_context_bounded(self, monkeypatch):
        from repro.api.resources import CodeContext
        from repro.smt.solver import SATSolver

        sweeps = []
        erase_satisfied = SATSolver.erase_satisfied

        def counted(solver):
            sweeps.append(solver)
            return erase_satisfied(solver)

        monkeypatch.setattr(SATSolver, "erase_satisfied", counted)
        limit = 4
        engine = Engine()
        context = CodeContext("steane", max_task_guards=limit)
        encoder = context.session.encoder

        def run(seed):
            task = self._locality_task(seed)
            before = encoder.cnf.num_clauses
            assert view_of(context, task, engine.compile_task(task).formula).check().is_unsat
            return encoder.cnf.num_clauses - before

        run(0)  # encodes the shared base
        added = max(run(seed) for seed in range(1, limit))
        solver = context.session._solver
        clauses_at_fill = solver.num_problem_clauses
        cache_at_fill = len(encoder._cache)
        peak_clauses = clauses_at_fill
        for seed in range(limit, 4 * limit):
            added = max(added, run(seed))
            peak_clauses = max(peak_clauses, solver.num_problem_clauses)
        assert context.retired == 3 * limit
        # A sweep runs when a guard overflows the cap and erases every clause
        # the retired tasks added, so the database stays within one task's
        # clauses of what it held with the cap full.
        assert peak_clauses <= clauses_at_fill + added
        # Only a locality constraint's per-qubit literals can be new subterms.
        assert len(encoder._cache) <= cache_at_fill + build_code("steane").num_qubits
        # Each sweep retires limit - limit // 2 + 1 = 3 guards.
        assert len(sweeps) == context.sweeps == context.retired // 3

    def test_the_solver_holds_the_only_copy_of_the_clauses(self):
        from repro.api.resources import CodeContext

        class Emitted(list):
            """The encoder's pending clauses, counting every one appended."""

            count = 0

            def append(self, clause):
                Emitted.count += 1
                super().append(clause)

        engine = Engine()
        context = CodeContext("steane", max_task_guards=4)
        cnf = context.session.encoder.cnf
        cnf.clauses = Emitted()
        for seed in range(16):
            task = self._locality_task(seed)
            assert view_of(context, task, engine.compile_task(task).formula).check().is_unsat
            assert len(cnf.clauses) == 0, seed
            assert cnf.num_clauses == Emitted.count, seed
        assert Emitted.count > 0

    def test_stats_count_one_guard_sweep_per_batch(self):
        engine = Engine()
        try:
            engine.resources.context_for("steane").max_task_guards = 4
            first = engine.run(self._locality_task(0))
            assert "guard_sweeps" not in first.details["resources"]
            for seed in range(1, 8):
                engine.run(self._locality_task(seed))
            stats = engine.resources.stats()
        finally:
            engine.close()
        # Tasks 5 and 8 overflow the cap; each retires 3 guards in one sweep.
        assert (stats["retired_guards"], stats["guard_sweeps"]) == (6, 2)
        assert stats["erased_clauses"] >= 1


class TestPoolWorkerWarmCache:
    def test_pool_workers_absorb_and_contribute_learnt_clauses(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = ParallelBackend(num_workers=2)
        # A verified correction task: every pool check is unsat, so the pool
        # (and its workers' learnt clauses) is still alive when the backend
        # saves to the store before closing it.
        task = CorrectionTask(code="surface-3")

        first_engine = Engine(backend=backend, clause_store=directory)
        first = first_engine.run(task)
        base = SolveSession(first_engine.compile_task(task).formula).fingerprint()
        first_engine.close()
        assert first.verified
        assert first.details["num_workers"] == 2 and first.details["num_subtasks"] > 1
        assert ClauseStore(directory).load(base), "pool workers stored no clauses"

        second_engine = Engine(backend=backend, clause_store=directory)
        second = second_engine.run(task)
        stats = second_engine.resources.stats()
        second_engine.close()
        assert second.verified == first.verified
        assert second.details["session"]["warm_absorbed"] > 0
        assert stats["warm_absorbed"] > 0

    def test_pool_workers_store_their_clauses_lbds(self, tmp_path):
        import sqlite3

        directory = str(tmp_path / "store")
        engine = Engine(backend=ParallelBackend(num_workers=2), clause_store=directory)
        result = engine.run(CorrectionTask(code="surface-3"))
        engine.close()
        assert result.verified and result.details["num_subtasks"] > 1
        with sqlite3.connect(ClauseStore(directory).path) as conn:
            rows = conn.execute("SELECT lbd, size FROM clauses").fetchall()
        # Rows carry the LBD each clause was learnt with, not its length:
        # a surface-3 solve learns clauses with LBD below their size.
        assert rows and all(lbd <= size for lbd, size in rows)
        assert any(lbd < size for lbd, size in rows)
