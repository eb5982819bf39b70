"""The engine-owned resource layer: shared per-code contexts, persistent
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
    registry_sweep_tasks,
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
        engine = Engine(session_cache_size=1)
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
        assert result.details["strategy"] == "binary-search"

    def test_surface5_issues_fewer_checks_than_linear(self):
        result = Engine().run(DistanceTask(code="surface-5", max_trial=6))
        assert result.details["distance"] == 5
        # The linear walk needed 5 detection queries (trials 2..6); the
        # binary search needs 3 (bounds 3, 4, 5).
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

    def test_parallel_distance_uses_persistent_pool(self):
        engine = Engine()
        first = engine.run(DistanceTask(code="steane", max_trial=5),
                           backend=ParallelBackend(num_workers=2))
        assert first.details["distance"] == 3
        assert first.details["resources"]["pool_misses"] == 1
        second = engine.run(DistanceTask(code="steane", max_trial=5),
                            backend=ParallelBackend(num_workers=2))
        assert second.details["distance"] == 3
        assert second.details["resources"]["pool_misses"] == 1
        assert second.details["resources"]["pool_hits"] >= 1
        engine.close()


class TestPoolReuse:
    def test_repeated_parallel_task_hits_the_pool(self):
        engine = Engine(backend=ParallelBackend(num_workers=2))
        task = CorrectionTask(code="steane", error_model="Y")
        first = engine.run(task)
        second = engine.run(task)
        assert first.verified and second.verified
        stats = second.session_stats()
        assert stats["pools"] == 1
        assert stats["pool_misses"] == 1
        assert stats["pool_hits"] == 1
        engine.close()

    def test_sweep_creates_one_pool_per_distinct_formula(self):
        keys = ["steane", "five-qubit", "detection-422"]
        engine = Engine(backend=ParallelBackend(num_workers=2))
        results = engine.run_many(registry_sweep_tasks(keys))
        assert all(result.verified for result in results)
        stats = results[-1].session_stats()
        assert stats["pool_misses"] == len(keys)
        assert stats["pool_hits"] == 0
        # A second sweep over the same codes is all pool hits.
        again = engine.run_many(registry_sweep_tasks(keys))
        stats = again[-1].session_stats()
        assert stats["pool_misses"] == len(keys)
        assert stats["pool_hits"] == len(keys)
        engine.close()

    def test_pool_manager_lru_closes_evicted_sessions(self):
        manager = ResourceManager(max_pools=1)
        from repro.verifier.encodings import ErrorModel, precise_detection_formula

        first = manager.pools.split_session(
            precise_detection_formula(build_code("steane"), 3, ErrorModel("any")),
            num_workers=1,
        )
        second = manager.pools.split_session(
            precise_detection_formula(build_code("five-qubit"), 3, ErrorModel("any")),
            num_workers=1,
        )
        assert len(manager.pools) == 1
        assert first is not second
        manager.close()

    def test_engine_close_shuts_pools_down(self):
        engine = Engine(backend=ParallelBackend(num_workers=2))
        engine.run(CorrectionTask(code="steane", error_model="Y"))
        assert engine.resources.stats()["pools"] == 1
        engine.close()
        assert engine.resources.stats()["pools"] == 0


class TestWarmCache:
    def test_round_trip_skips_relearning(self, tmp_path):
        cache = str(tmp_path / "warm")
        cold_engine = Engine()
        cold_engine.resources.enable_clause_store(cache)
        task = CorrectionTask(code="steane")
        cold = cold_engine.run(task)
        cold_engine.resources.save_warm()
        assert cold.conflicts > 0

        warm_engine = Engine()
        warm_engine.resources.enable_clause_store(cache)
        warm = warm_engine.run(task)
        stats = warm.session_stats()
        assert stats["warm_hits"] == 1
        assert stats["warm_absorbed"] > 0
        # Everything the cold run learnt is back: deciding again is free.
        assert warm.conflicts == 0
        assert warm.verified == cold.verified

    def test_mismatched_fingerprint_misses(self, tmp_path):
        cache = str(tmp_path / "warm")
        engine = Engine()
        engine.resources.enable_clause_store(cache)
        engine.run(CorrectionTask(code="steane"))
        engine.resources.save_warm()

        other = Engine()
        other.resources.enable_clause_store(cache)
        result = other.run(CorrectionTask(code="five-qubit"))
        stats = result.session_stats()
        assert stats["warm_hits"] == 0
        assert stats["warm_misses"] == 1

    def test_distance_warm_start(self, tmp_path):
        cache = str(tmp_path / "warm")
        task = DistanceTask(code="surface-3", max_trial=5)
        cold_engine = Engine()
        cold_engine.resources.enable_clause_store(cache)
        cold = cold_engine.run(task)
        cold_engine.resources.save_warm()

        warm_engine = Engine()
        warm_engine.resources.enable_clause_store(cache)
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
            view = context.task_view(("trial", trial), formula)
            verdicts[trial] = view.check().status
        assert len(context._task_guards) == 2
        assert context.retired == 1
        assert context.session.stats().get("erased_clauses", 0) >= 1
        # The evicted task re-enters under a fresh selector with the same
        # verdict; survivors keep theirs.
        for trial in (2, 3, 4):
            formula = precise_detection_formula(code, trial, error_model=ErrorModel("any"))
            view = context.task_view(("trial", trial), formula)
            assert view.check().status == verdicts[trial], trial

    def test_selector_names_never_reused_after_retirement(self):
        from repro.api.resources import CodeContext
        from repro.codes.registry import build_code
        from repro.verifier.encodings import ErrorModel, precise_detection_formula

        code = build_code("five-qubit")
        context = CodeContext("five-qubit")
        formula = precise_detection_formula(code, 2, error_model=ErrorModel("any"))
        first = context.task_view("t", formula)
        context.retire_task("t")
        second = context.task_view("t", formula)
        assert first.selectors != second.selectors
        assert second.check().status in ("sat", "unsat")

    def test_retire_unknown_task_is_a_noop(self):
        engine = Engine()
        assert engine.release_task(CorrectionTask(code="steane")) is False
        engine.run(CorrectionTask(code="steane"))
        assert engine.release_task(CorrectionTask(code="steane")) is True
        assert engine.release_task(CorrectionTask(code="steane")) is False


class TestPoolWorkerWarmCache:
    def test_pool_workers_absorb_and_contribute_learnt_clauses(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = ParallelBackend(num_workers=2)
        # A verified correction task: every pool check is unsat, so the pool
        # (and its workers' learnt clauses) is still alive at save_warm.
        task = CorrectionTask(code="surface-3")

        first_engine = Engine(backend=backend, clause_store=directory)
        first = first_engine.run(task)
        first_engine.resources.save_warm()
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
