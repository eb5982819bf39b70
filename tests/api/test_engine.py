"""The engine: compile reuse through code contexts, batch execution, backend agreement."""

import copy

import pytest

from repro.api import (
    ConstrainedTask,
    CorrectionTask,
    DetectionTask,
    DistanceTask,
    Engine,
    FixedErrorTask,
    ParallelBackend,
    ProgramTask,
    SerialBackend,
    registry_sweep_tasks,
)
from repro.codes import steane_code
from repro.codes.registry import CODE_REGISTRY, build_code
from repro.smt.interface import SolveSession
from repro.smt.solver import SolveControl
from repro.verifier.programs import correction_triple


def count_compiles(monkeypatch, engine) -> list:
    """Record every task ``engine`` compiles (the context's misses included)."""
    compiled = []
    compile_ = engine._compile

    def counting(task):
        compiled.append(task)
        return compile_(task)

    monkeypatch.setattr(engine, "_compile", counting)
    return compiled


class TestCompileCache:
    """The code context is the only cache of compiled tasks: a run reuses a
    task's compile while the task's guard is live on its context."""

    def test_identical_tasks_hit_the_cache(self, monkeypatch):
        engine = Engine()
        compiled = count_compiles(monkeypatch, engine)
        engine.run(CorrectionTask(code="steane"))
        engine.run(CorrectionTask(code="steane"))
        assert len(compiled) == 1
        assert engine.cache_info() == {"hits": 1, "misses": 1, "sessions": 1}

    def test_compile_task_is_uncached(self):
        engine = Engine()
        task = CorrectionTask(code="steane")
        assert engine.compile_task(task) is not engine.compile_task(task)
        assert engine.cache_info() == {"hits": 0, "misses": 0, "sessions": 0}

    def test_run_marks_cache_hits(self):
        engine = Engine()
        assert engine.run(CorrectionTask(code="steane")).cached is False
        assert engine.run(CorrectionTask(code="steane")).cached is True

    def test_different_tasks_miss(self):
        engine = Engine()
        engine.run(CorrectionTask(code="steane"))
        engine.run(CorrectionTask(code="steane", max_errors=2))
        assert engine.cache_info()["misses"] == 2

    def test_clear_cache(self):
        engine = Engine()
        engine.run(CorrectionTask(code="steane"))
        engine.clear_cache()
        assert engine.cache_info()["sessions"] == 0
        assert engine.run(CorrectionTask(code="steane")).cached is False

    def test_distance_task_has_no_single_formula(self):
        with pytest.raises(TypeError):
            Engine().compile_task(DistanceTask(code="steane"))

    def test_unseeded_locality_is_never_cached(self, monkeypatch):
        # An unseeded locality constraint samples a fresh random subset per
        # compile; serving a cached formula would silently reuse one sample.
        engine = Engine()
        compiled = count_compiles(monkeypatch, engine)
        task = ConstrainedTask(code="surface-3", locality=True, error_model="Y")
        assert task.deterministic is False
        assert engine.run(task).cached is False
        assert engine.run(task).cached is False
        assert compiled == [task, task]
        assert engine.cache_info() == {"hits": 0, "misses": 0, "sessions": 0}

    def test_pooled_split_recompiles_every_run(self, monkeypatch):
        # Pool workers hold their own sessions, so there is no context to
        # keep the compile in.
        engine = Engine(backend=ParallelBackend(num_workers=2))
        compiled = count_compiles(monkeypatch, engine)
        task = CorrectionTask(code="steane", error_model="Y")
        try:
            verdicts = [engine.run(task) for _ in range(2)]
        finally:
            engine.close()
        assert [result.cached for result in verdicts] == [False, False]
        assert [result.verified for result in verdicts] == [True, True]
        assert compiled == [task, task]
        assert engine.cache_info()["hits"] == 0

    def test_repeat_is_cached_only_while_its_guard_is_live(self):
        engine = Engine()
        task = ConstrainedTask(code="steane", locality=True, seed=3, max_errors=2)
        first = engine.run(task)
        assert first.cached is False
        assert engine.run(task).cached is True
        # A released guard: the next run compiles and asserts afresh.
        assert engine.release_task(task) is True
        again = engine.run(task)
        assert again.cached is False and again.verified == first.verified
        # A guard that fell out of the context's guard LRU: likewise.
        engine.resources.context_for("steane").max_task_guards = 2
        for seed in (4, 5):
            engine.run(ConstrainedTask(code="steane", locality=True, seed=seed))
        evicted = engine.run(task)
        assert evicted.cached is False and evicted.verified == first.verified
        assert engine.run(task).cached is True

    def test_finished_runs_keep_no_formula_alive(self, monkeypatch):
        import gc
        import weakref

        engine = Engine()
        formulas = []
        compile_ = engine._compile

        def tracking(task):
            compiled = compile_(task)
            formulas.append(weakref.ref(compiled.formula))
            return compiled

        monkeypatch.setattr(engine, "_compile", tracking)
        for seed in range(5):
            engine.run(ConstrainedTask(code="steane", locality=True, seed=seed))
        gc.collect()
        assert len(formulas) == 5
        assert [ref for ref in formulas if ref() is not None] == []

    def test_seeded_locality_is_cached(self):
        engine = Engine()
        task = ConstrainedTask(code="surface-3", locality=True, error_model="Y", seed=7)
        engine.run(task)
        assert engine.run(task).cached is True


class TestRun:
    def test_correction_and_detection(self):
        engine = Engine()
        correction = engine.run(CorrectionTask(code="steane"))
        assert correction.verified and correction.details["max_errors"] == 1
        detection = engine.run(DetectionTask(code="steane", trial_distance=3))
        assert detection.verified and detection.details["trial_distance"] == 3

    def test_counterexample_on_overclaim(self):
        result = Engine().run(CorrectionTask(code="steane", max_errors=2))
        assert not result.verified
        assert 1 <= len(result.counterexample_qubits()) <= 4

    def test_distance_task(self):
        result = Engine().run(DistanceTask(code="steane", max_trial=5))
        assert result.details["distance"] == 3
        assert result.details["trials"][-1]["verified"] is False
        # The minimum-weight undetectable error is reported as a witness;
        # `counterexample` stays reserved for unverified results.
        assert result.counterexample is None
        assert result.details["witness"]

    def test_distance_walk_encodes_the_base_exactly_once(self, monkeypatch):
        import repro.api.engine as engine_module

        calls = []
        original = engine_module.precise_detection_base

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_module, "precise_detection_base", counting)
        engine = Engine()
        result = engine.run(DistanceTask(code="steane", max_trial=5))
        assert result.details["distance"] == 3
        # Over weight bounds 1..4 the walk gallops 1, 2 (unsat) and then
        # probes 4 (sat, witness weight 3), which closes the window.
        assert [trial["bound"] for trial in result.details["trials"]] == [1, 2, 4]
        assert len(calls) == 1
        assert result.details["base_encodings"] == 1
        # All three probes ran through one session on one encoding.
        assert result.details["session"]["checks"] == 3
        # A second walk reuses the context's guarded base: no re-encoding.
        again = engine.run(DistanceTask(code="steane", max_trial=5))
        assert again.details["distance"] == 3
        assert len(calls) == 1

    def test_distance_task_parallel_backend(self):
        result = Engine().run(
            DistanceTask(code="steane", max_trial=5), backend=ParallelBackend(num_workers=2)
        )
        assert result.details["distance"] == 3
        assert result.backend == "parallel"
        # The walk runs on the code's shared context: nothing is split.
        assert "num_workers" not in result.details
        assert result.details["witness"]

    def test_constrained_task_records_labels(self):
        result = Engine().run(
            ConstrainedTask(code="surface-3", locality=True, discreteness=True,
                            error_model="Y", seed=1)
        )
        assert result.verified
        assert result.details["constraints"] == ["locality", "discreteness"]

    def test_fixed_error_task(self):
        result = Engine().run(FixedErrorTask(code="steane", error_qubits=((3, "Y"),)))
        assert result.verified
        assert result.task == "fixed-error"
        assert result.details["error_qubits"] == {3: "Y"}

    @pytest.mark.parametrize(
        "task",
        [
            CorrectionTask(code="surface-3"),
            ConstrainedTask(code="surface-3", locality=True, discreteness=True, seed=1),
            FixedErrorTask(code="steane", error_qubits=((3, "Y"),)),
        ],
        ids=["correction", "constrained", "fixed-error"],
    )
    def test_compile_builds_the_code_once(self, monkeypatch, task):
        import repro.api.tasks as tasks_module

        calls = []
        original = tasks_module.build_code

        def counting(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(tasks_module, "build_code", counting)
        Engine().compile_task(task)
        assert calls == [task.code]

    def test_program_task(self):
        scenario = correction_triple(steane_code(), error="Y", max_errors=1)
        task = ProgramTask(triple=scenario.triple, decoder_condition=scenario.decoder_condition)
        result = Engine().run(task)
        assert result.verified
        assert result.task.startswith("program-logic:")
        assert result.details["num_atoms"] >= 1


class TestSessionReuse:
    def test_repeated_runs_share_one_live_solver(self):
        engine = Engine()
        task = CorrectionTask(code="steane")
        first = engine.run(task)
        second = engine.run(task)
        assert first.verified and second.verified
        assert engine.cache_info()["sessions"] == 1
        stats = second.session_stats()
        assert stats is not None and stats["checks"] == 2
        # The reused solver retained everything it learnt: deciding the same
        # already-refuted query again takes no new conflicts.
        assert second.conflicts == 0
        assert second.conflicts + first.conflicts == stats["conflicts"]

    def test_nondeterministic_tasks_get_no_session(self):
        engine = Engine()
        task = ConstrainedTask(code="surface-3", locality=True, error_model="Y")
        engine.run(task)
        engine.run(task)
        assert engine.cache_info()["sessions"] == 0

    def test_session_cache_is_bounded(self):
        engine = Engine()
        engine.resources.max_contexts = 1
        engine.run(CorrectionTask(code="steane"))
        engine.run(CorrectionTask(code="five-qubit"))
        assert engine.cache_info()["sessions"] == 1

    def test_clear_cache_drops_sessions(self):
        engine = Engine()
        engine.run(CorrectionTask(code="steane"))
        engine.clear_cache()
        assert engine.cache_info()["sessions"] == 0

    def test_result_carries_full_solver_statistics(self):
        result = Engine().run(CorrectionTask(code="steane"))
        assert result.conflicts > 0
        assert result.decisions > 0
        assert result.propagations > 0
        assert "decisions" in result.summary() and "propagations" in result.summary()


class TestBackends:
    def test_parallel_backend_matches_serial(self):
        engine = Engine()
        task = CorrectionTask(code="steane", error_model="Y")
        serial = engine.run(task, backend=SerialBackend())
        parallel = engine.run(task, backend=ParallelBackend(num_workers=2))
        assert serial.verified and parallel.verified
        assert parallel.details["num_subtasks"] >= 1
        assert parallel.backend == "parallel"

    def test_parallel_backend_finds_counterexample(self):
        result = Engine().run(
            CorrectionTask(code="steane", max_errors=2, error_model="Y"),
            backend=ParallelBackend(num_workers=2),
        )
        assert not result.verified

    def test_sweep_verdicts_agree_across_backends(self):
        # The 15 Table 3 sweep tasks: one query, the split in process, and
        # the split across a two-worker pool decide them identically.
        tasks = registry_sweep_tasks()
        assert len(tasks) == 15
        verdicts = {}
        for backend in (SerialBackend(), ParallelBackend(num_workers=1),
                        ParallelBackend(num_workers=2)):
            engine = Engine(backend=backend)
            verdicts[backend] = [engine.run(task).verified for task in tasks]
            engine.close()
        [serial, *split] = verdicts.values()
        assert all(verdict is not None for verdict in serial)
        assert all(other == serial for other in split), verdicts

    def test_only_in_tree_backends_are_accepted(self):
        class CustomBackend:
            name = "custom"
            wants_session = True

            def check(self, compiled, *, session=None, resources=None, control=None):
                raise AssertionError("a custom backend must never be called")

        for backend in (CustomBackend(), object()):
            with pytest.raises(TypeError):
                Engine(backend=backend)
            engine = Engine()
            with pytest.raises(TypeError):
                engine.run(DistanceTask(code="steane", max_trial=5), backend=backend)
            with pytest.raises(TypeError):
                engine.run(CorrectionTask(code="steane"), backend=backend)
            with pytest.raises(TypeError):
                engine.submit(CorrectionTask(code="steane"), backend=backend).result(timeout=60)
            engine.close()

    @pytest.mark.parametrize(
        "backend", [SerialBackend(), ParallelBackend(num_workers=1)], ids=["serial", "parallel"]
    )
    def test_backends_take_one_check_call(self, backend):
        # Both in-tree backends are called the same way: a live session
        # holding the formula, the engine's resources and a solve control.
        engine = Engine()
        for task, status in (
            (CorrectionTask(code="steane"), "unsat"),
            (CorrectionTask(code="steane", max_errors=2, error_model="Y"), "sat"),
        ):
            compiled = engine.compile_task(task)
            session = SolveSession(compiled.formula)
            assert backend.wants_session
            check = backend.check(
                compiled, session=session, resources=engine.resources, control=SolveControl()
            )
            assert check.status == status
            # The formula stays on the session: a second call reuses it.
            again = backend.check(compiled, session=session, resources=engine.resources)
            assert again.status == status
        engine.close()

    def test_backend_names_coerce(self):
        assert Engine(backend="parallel").backend.name == "parallel"
        assert Engine(backend="serial").backend.name == "serial"
        with pytest.raises(ValueError):
            Engine(backend="quantum")


class TestRunMany:
    KEYS = ["steane", "five-qubit", "detection-422"]

    def test_batch_in_process(self):
        engine = Engine()
        results = engine.run_many(registry_sweep_tasks(self.KEYS))
        assert [result.subject for result in results] == ["steane", "five-qubit", "detection-422"]
        assert all(result.verified for result in results)
        assert all(result.elapsed_seconds >= 0 for result in results)

    def test_batch_across_process_pool(self):
        engine = Engine()
        results = engine.run_many(registry_sweep_tasks(self.KEYS), processes=2)
        assert len(results) == 3 and all(result.verified for result in results)

    def test_batch_preserves_order_and_matches_serial(self):
        tasks = registry_sweep_tasks(self.KEYS)
        serial = Engine().run_many(tasks)
        pooled = Engine().run_many(tasks, processes=2)
        assert [r.verified for r in serial] == [r.verified for r in pooled]
        assert [r.subject for r in serial] == [r.subject for r in pooled]

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(KeyError):
            registry_sweep_tasks(["steane", "not-a-code"])


class TestFullRegistryAcceptance:
    def test_full_sweep_backends_agree(self):
        """Acceptance: the full registry sweep produces identical verdicts
        through the serial and the parallel backend."""
        tasks = registry_sweep_tasks()
        engine = Engine()
        serial = engine.run_many(tasks, backend=SerialBackend())
        parallel = engine.run_many(tasks, backend=ParallelBackend(num_workers=2))
        assert [r.verified for r in serial] == [r.verified for r in parallel]
        assert all(r.verified for r in serial)


class TestDistanceSchedule:
    def test_probes_double_until_sat_then_bisect(self):
        result = Engine().run(DistanceTask(code="steane", max_trial=16))
        assert result.details["distance"] == 3
        # Doubling lower-bound phase 1, 2, 4; the sat probe at 4 (witness
        # weight 3) leaves the window [3, 2] empty.
        assert [trial["bound"] for trial in result.details["trials"]] == [1, 2, 4]

    def test_bisects_the_window_left_by_the_first_sat_probe(self):
        result = Engine().run(DistanceTask(code="surface-5"))
        assert result.details["distance"] == 5
        # Gallop 1, 2, 4 (unsat) and 8 (sat): from there on the bound is the
        # midpoint of the window the witness left, never a doubling.
        trials = result.details["trials"]
        assert [trial["bound"] for trial in trials] == [1, 2, 4, 8, 5]
        lo, hi = trials[-1]["window"]
        assert lo == 5 and hi < 8 and trials[-1]["bound"] == (lo + hi) // 2

    def test_tight_span_clamps_the_gallop_to_the_window(self):
        result = Engine().run(DistanceTask(code="surface-5", max_trial=6))
        assert result.details["distance"] == 5
        assert [trial["bound"] for trial in result.details["trials"]] == [1, 2, 4, 5]

    def test_strategy_is_no_longer_a_field(self):
        with pytest.raises(TypeError):
            DistanceTask(code="steane", strategy="galloping")
        result = Engine().run(DistanceTask(code="steane", max_trial=16))
        assert "strategy" not in result.details

    def test_schedule_works_on_parallel_backend(self):
        result = Engine(backend=ParallelBackend(num_workers=2)).run(
            DistanceTask(code="steane", max_trial=16)
        )
        assert result.details["distance"] == 3
        assert [trial["bound"] for trial in result.details["trials"]] == [1, 2, 4]

    @pytest.mark.parametrize("key", sorted(CODE_REGISTRY))
    def test_schedule_ignores_the_recorded_distance(self, key):
        """The walk finds the distance; it must not read the code's recorded
        one.  A copy of the code with no recorded distance, or a wrong one,
        walks exactly the same bounds to the same answer."""
        original = build_code(key)
        reference = Engine().run(DistanceTask(code=original))
        expected = [trial["bound"] for trial in reference.details["trials"]]
        for recorded in (None, 1, 20):
            code = copy.copy(original)
            code.distance = recorded
            result = Engine().run(DistanceTask(code=code))
            assert [trial["bound"] for trial in result.details["trials"]] == expected, (
                key, recorded,
            )
            assert result.details["distance"] == reference.details["distance"], (key, recorded)
