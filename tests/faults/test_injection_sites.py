"""Injection sites and the resilience machinery they exercise.

Each test arms a targeted plan and checks the *recovery* path, not just
the failure: the store's circuit breaker opens and re-closes, a crashed
lane is supervised back to life with its in-flight job failed loudly, an
interrupted sweep resumes its finished tasks instead of re-running them, and a
process pool whose workers die is rebuilt without losing a verdict.
"""

import os
import sqlite3
import threading
import time

import pytest

from repro import faults
from repro.api import CorrectionTask, DistanceTask, Engine, ParallelBackend
from repro.api.engine import _task_checkpoint_key, registry_sweep_tasks
from repro.store import STORE_FILENAME, ClauseStore


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestStoreBreaker:
    def _store(self, tmp_path, clock, threshold=2):
        return ClauseStore(
            str(tmp_path),
            breaker_threshold=threshold,
            breaker_cooldown=10.0,
            clock=clock,
        )

    def test_injected_read_degrades_like_a_miss(self, tmp_path):
        faults.install({"faults": [{"point": "store.read", "times": 1}]})
        store = self._store(tmp_path, FakeClock())
        assert store.load("fp") is None
        assert store.storage_errors == 1
        assert store.misses == 1
        assert store.load("fp") is None  # fault exhausted: a normal miss
        assert store.storage_errors == 1

    def test_breaker_opens_short_circuits_and_recloses(self, tmp_path):
        faults.install({"faults": [{"point": "store.write", "times": 3}]})
        clock = FakeClock()
        store = self._store(tmp_path, clock, threshold=2)

        store.checkpoint_save("walk", {"probe": 1})  # injected failure 1
        assert store._breaker_state == "closed"
        store.checkpoint_save("walk", {"probe": 2})  # failure 2 → opens
        assert store._breaker_state == "open"
        assert store.breaker_opened == 1

        # Open + cooldown running: sqlite is not even attempted, the op
        # degrades like a broken store (and the fault is not consumed).
        store.checkpoint_save("walk", {"probe": 3})
        assert store.breaker_short_circuited == 1
        assert store.storage_errors == 2

        # Cooldown elapsed: the next op is a half-open probe; it hits the
        # third injected fault and re-opens immediately.
        clock.advance(11.0)
        store.checkpoint_save("walk", {"probe": 4})
        assert store._breaker_state == "open"
        assert store.breaker_opened == 2

        # Faults exhausted: the next probe succeeds and closes the breaker.
        clock.advance(11.0)
        store.checkpoint_save("walk", {"probe": 5})
        assert store._breaker_state == "closed"
        assert store.checkpoint_load("walk") == {"probe": 5}
        assert store.checkpoints_saved == 1

        stats = store.stats()
        assert stats["breaker_opened"] == 2
        assert stats["breaker_short_circuited"] == 1
        assert stats["breaker_state"] == "closed"

    def test_success_resets_the_consecutive_failure_streak(self, tmp_path):
        # Failures interleaved with successes never reach the threshold.
        faults.install(
            {"faults": [{"point": "store.write", "times": 2, "after": 0}]}
        )
        clock = FakeClock()
        store = self._store(tmp_path, clock, threshold=2)
        store.checkpoint_save("a", {"n": 1})  # injected failure (streak 1)
        store.checkpoint_load("a")  # successful read resets the streak
        store.checkpoint_save("a", {"n": 2})  # injected failure (streak 1)
        assert store._breaker_state == "closed"
        assert store.breaker_opened == 0
        assert store.storage_errors == 2

    def test_disarmed_store_has_no_hook(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        assert store._fault is None


class TestLaneSupervisor:
    def test_crashed_lane_fails_job_restarts_and_quarantines(self):
        # ``after: 1`` lets the first job build the shared context, so the
        # crash on the second job has live solver state to quarantine.
        faults.install({"faults": [{"point": "lane.crash", "times": 1, "after": 1}]})
        engine = Engine(lanes=1)
        warm = engine.submit(CorrectionTask(code="steane"))
        assert warm.result(timeout=60).verified is True
        job = engine.submit(CorrectionTask(code="steane"))
        with pytest.raises(RuntimeError, match="crashed mid-job"):
            job.result(timeout=60)

        terminal = list(job.events())[-1]
        assert type(terminal).__name__ == "JobFailed"
        assert terminal.reason == "lane_crash"
        assert engine._executor.lane_crashes == 1
        assert engine.resources.quarantined == 1

        # The supervisor restarted the lane thread: the same code verifies
        # cleanly on the next submission (in a fresh, quarantine-safe
        # context).
        retry = engine.submit(CorrectionTask(code="steane"))
        assert retry.result(timeout=60).verified is True
        engine.close()

    def test_failed_reason_is_absent_for_ordinary_errors(self):
        engine = Engine(lanes=1)
        job = engine.submit(CorrectionTask(code="no-such-code"))
        with pytest.raises(Exception):
            job.result(timeout=60)
        terminal = list(job.events())[-1]
        assert type(terminal).__name__ == "JobFailed"
        assert terminal.reason == ""
        assert "reason" not in terminal.to_dict()  # wire format unchanged
        engine.close()


def _checkpoint_rows(directory) -> int:
    with sqlite3.connect(os.path.join(str(directory), STORE_FILENAME)) as conn:
        (rows,) = conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()
    return rows


class TestSweepResume:
    """Every task of a store sweep has one checkpoint row: its walk's
    bracket while the walk runs, then its result."""

    BATCH = [CorrectionTask(code="steane"), CorrectionTask(code="five-qubit"),
             CorrectionTask(code="shor")]

    def _kill_third_task(self, directory, monkeypatch, processes=None):
        """Run ``BATCH`` on a store at ``directory`` with its third task
        raising once the first two tasks' results are in their rows (a pool
        worker waits for them, so the failure cannot overtake them)."""
        original = Engine.run
        failing = self.BATCH[2]

        def run(engine, task, backend=None):
            if task != failing:
                return original(engine, task, backend=backend)
            deadline = time.monotonic() + 60
            while _checkpoint_rows(directory) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("killed mid-sweep")

        monkeypatch.setattr(Engine, "run", run)
        engine = Engine(clause_store=str(directory))
        try:
            with pytest.raises(RuntimeError, match="killed mid-sweep"):
                run_bounded(lambda: engine.run_many(self.BATCH, schedule="fifo",
                                                    processes=processes))
        finally:
            engine.close()
            monkeypatch.setattr(Engine, "run", original)
        assert _checkpoint_rows(directory) == 2

    @pytest.mark.parametrize("processes", [None, 2])
    def test_killed_sweep_resumes_its_finished_tasks(self, tmp_path, monkeypatch, processes):
        cold = Engine().run_many(self.BATCH)
        self._kill_third_task(tmp_path, monkeypatch, processes)

        engine = Engine(clause_store=str(tmp_path))
        try:
            results = engine.run_many(self.BATCH, schedule="fifo", processes=processes)
        finally:
            engine.close()
        assert [(r.task, r.subject, r.verified) for r in results] == [
            (r.task, r.subject, r.verified) for r in cold
        ]
        assert [r.details.get("sweep_resumed", False) for r in results] == [True, True, False]
        assert _checkpoint_rows(tmp_path) == 0

    def test_finished_tasks_resume_inside_another_sweep(self, tmp_path, monkeypatch):
        """Resume goes by task, not by sweep shape."""
        self._kill_third_task(tmp_path, monkeypatch)
        other = [CorrectionTask(code="surface-3"), self.BATCH[1], self.BATCH[0]]
        engine = Engine(clause_store=str(tmp_path))
        try:
            results = engine.run_many(other)
        finally:
            engine.close()
        assert all(result.verified for result in results)
        assert [r.details.get("sweep_resumed", False) for r in results] == [False, True, True]
        assert [r.subject for r in results[1:]] == ["five-qubit", "steane"]
        assert _checkpoint_rows(tmp_path) == 0

    def test_walk_inside_a_resumed_sweep_resumes_from_its_bracket(self, tmp_path, monkeypatch):
        first, walk = CorrectionTask(code="steane"), DistanceTask(code="surface-5")
        cold = Engine().run_many([first, walk])
        brackets = []
        original_save = ClauseStore.checkpoint_save

        def record(store, key, payload):
            brackets.append(dict(payload))
            return original_save(store, key, payload)

        monkeypatch.setattr(ClauseStore, "checkpoint_save", record)
        engine = Engine(clause_store=str(tmp_path / "walk"))
        engine.run(walk)
        engine.close()
        monkeypatch.setattr(ClauseStore, "checkpoint_save", original_save)

        # What a sweep killed in the walk's second probe leaves behind.
        directory = tmp_path / "killed"
        store = ClauseStore(str(directory))
        store.checkpoint_save(_task_checkpoint_key(first), {"version": 1, "result": cold[0].to_dict()})
        store.checkpoint_save(_task_checkpoint_key(walk), brackets[0])
        store.close()

        engine = Engine(clause_store=str(directory))
        try:
            results = engine.run_many([first, walk], schedule="fifo")
        finally:
            engine.close()
        assert results[0].details["sweep_resumed"] is True
        assert results[0].verified == cold[0].verified
        resumed = results[1]
        assert "sweep_resumed" not in resumed.details
        assert resumed.details["resumed_from"]["probes"] == 1
        assert resumed.details["trials"][0]["window"] == [brackets[0]["lo"], brackets[0]["hi"]]
        assert resumed.details["distance"] == cold[1].details["distance"]
        assert _checkpoint_rows(directory) == 0

    def test_a_bracket_where_a_result_is_expected_runs_cold(self, tmp_path):
        task = CorrectionTask(code="steane")
        store = ClauseStore(str(tmp_path))
        store.checkpoint_save(
            _task_checkpoint_key(task),
            {"version": 1, "limit": 8, "lo": 1, "hi": 7, "distance": 8, "probes": 1},
        )
        store.close()
        engine = Engine(clause_store=str(tmp_path))
        try:
            results = engine.run_many([task, CorrectionTask(code="five-qubit")])
        finally:
            engine.close()
        assert all(result.verified for result in results)
        assert all("sweep_resumed" not in result.details for result in results)
        assert _checkpoint_rows(tmp_path) == 0

    def test_a_result_where_a_bracket_is_expected_runs_cold(self, tmp_path):
        walk = DistanceTask(code="surface-3")
        cold = Engine().run(walk)
        store = ClauseStore(str(tmp_path))
        store.checkpoint_save(_task_checkpoint_key(walk), {"version": 1, "result": cold.to_dict()})
        store.close()
        engine = Engine(clause_store=str(tmp_path))
        try:
            result = engine.run(walk)
        finally:
            engine.close()
        assert "resumed_from" not in result.details
        assert "sweep_resumed" not in result.details
        assert result.details["distance"] == cold.details["distance"]
        assert _checkpoint_rows(tmp_path) == 0

    @pytest.mark.parametrize("payload", [
        {"version": 1, "result": {"task": "accurate-correction"}},
        {"version": 1, "result": {"task": "t", "subject": "s", "verified": "yes"}},
        {"version": 1, "result": [True]},
        {"version": 2, "result": {"task": "t", "subject": "s", "verified": True}},
        {"version": 1, "limit": "x"},
    ])
    def test_malformed_rows_run_cold(self, tmp_path, payload):
        tasks = [CorrectionTask(code="steane"), DistanceTask(code="surface-3")]
        cold = Engine().run_many(tasks)
        store = ClauseStore(str(tmp_path))
        for task in tasks:
            store.checkpoint_save(_task_checkpoint_key(task), payload)
        store.close()
        engine = Engine(clause_store=str(tmp_path))
        try:
            results = engine.run_many(tasks)
        finally:
            engine.close()
        assert [result.verified for result in results] == [result.verified for result in cold]
        assert results[1].details["distance"] == cold[1].details["distance"]
        assert all("sweep_resumed" not in result.details for result in results)
        assert "resumed_from" not in results[1].details
        assert _checkpoint_rows(tmp_path) == 0

    def test_single_task_runs_are_not_checkpointed(self, tmp_path):
        engine = Engine(clause_store=str(tmp_path))
        results = engine.run_many([CorrectionTask(code="steane")])
        assert results[0].verified is True
        assert engine.resources.clause_store.checkpoints_saved == 0
        engine.close()

    @pytest.mark.parametrize("processes", [None, 2])
    def test_each_finished_task_writes_its_own_row_once(self, tmp_path, monkeypatch, processes):
        """One save per task, holding that task's result alone, with or
        without a pool, so a killed pool sweep resumes like a killed serial
        one; the completed sweep leaves no row."""
        saved = []
        original = ClauseStore.checkpoint_save

        def recording(store, key, payload):
            saved.append((key, sorted(payload), payload["result"]["subject"]))
            return original(store, key, payload)

        # Pool workers record into their own (forked) copy of ``saved``;
        # only the parent's result saves land here.
        monkeypatch.setattr(ClauseStore, "checkpoint_save", recording)
        engine = Engine(clause_store=str(tmp_path))
        results = engine.run_many(self.BATCH, schedule="fifo", processes=processes)
        engine.close()
        assert all(result.verified for result in results)
        assert saved == [
            (_task_checkpoint_key(task), ["result", "version"], task.code) for task in self.BATCH
        ]
        assert _checkpoint_rows(tmp_path) == 0

    def test_exotic_details_do_not_abort_the_sweep(self, tmp_path, monkeypatch):
        """A details value JSON cannot hold is stored as its ``str``; a
        result with no JSON form at all is not stored, and the sweep goes on."""
        original_run = Engine.run
        exotic = {"steane": {"set": {1, 2}}, "five-qubit": {"mixed": {1: "a", "b": 2}}}

        def run(engine, task, backend=None):
            result = original_run(engine, task, backend=backend)
            result.details.update(exotic.get(task.code, {}))
            return result

        stored = []
        original_save = ClauseStore.checkpoint_save

        def recording(store, key, payload):
            original_save(store, key, payload)
            row = store.checkpoint_load(key)
            stored.append(row and row["result"]["details"].get("set"))

        monkeypatch.setattr(Engine, "run", run)
        monkeypatch.setattr(ClauseStore, "checkpoint_save", recording)
        engine = Engine(clause_store=str(tmp_path))
        try:
            results = engine.run_many(self.BATCH[:2], schedule="fifo")
        finally:
            engine.close()
        assert all(result.verified for result in results)
        assert stored == ["{1, 2}", None]
        assert _checkpoint_rows(tmp_path) == 0


def run_bounded(work, timeout: float = 120.0):
    """Run ``work`` in a thread joined with a generous bound, so a pool that
    never returns fails the test instead of hanging the suite."""
    outcome = {}

    def target() -> None:
        try:
            outcome["value"] = work()
        except BaseException as exc:  # re-raised in the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"pooled work did not return within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestDeadPoolWorkers:
    """``pool.kill`` SIGKILLs every worker of a new pool: the pool is
    rebuilt once and the unfinished payloads re-dispatched, so the run
    returns the clean verdicts."""

    KILL_ONCE = {"faults": [{"point": "pool.kill", "times": 1}]}
    #: A dead pool is seen when its worker exits, and torn down without the
    #: watchdog wait: recovery takes well under a second, so any 5-s timer
    #: on the path would overrun this bound.
    RECOVERY_S = 4.0

    def test_split_check_survives_killed_workers(self):
        from repro.smt.parallel import _LIVE_POOLS

        task = CorrectionTask(code="steane", error_model="Y")
        clean = Engine().run(task)
        before = set(_LIVE_POOLS)
        plan = faults.install(self.KILL_ONCE)
        engine = Engine(backend=ParallelBackend(num_workers=2))
        try:
            result = run_bounded(lambda: engine.run(task), timeout=self.RECOVERY_S)
        finally:
            engine.close()
        assert result.details["num_workers"] == 2 and result.details["num_subtasks"] > 1
        assert result.verified == clean.verified
        assert [rule.fired for rule in plan.rules] == [1]
        assert set(_LIVE_POOLS) == before

    def test_pooled_sweep_survives_killed_workers(self):
        from repro.smt.parallel import _LIVE_POOLS

        tasks = registry_sweep_tasks(["steane", "five-qubit", "shor"])
        clean = [result.verified for result in Engine().run_many(tasks)]
        before = set(_LIVE_POOLS)
        plan = faults.install(self.KILL_ONCE)
        engine = Engine()
        try:
            results = run_bounded(lambda: engine.run_many(tasks, processes=2), timeout=self.RECOVERY_S)
        finally:
            engine.close()
        assert [result.verified for result in results] == clean
        assert [rule.fired for rule in plan.rules] == [1]
        assert set(_LIVE_POOLS) == before
