"""Injection sites and the resilience machinery they exercise.

Each test arms a targeted plan and checks the *recovery* path, not just
the failure: the store's circuit breaker opens and re-closes, a crashed
lane is supervised back to life with its in-flight job failed loudly, an
interrupted sweep resumes from its manifest instead of re-running, and a
process pool whose workers die is rebuilt without losing a verdict.
"""

import threading

import pytest

from repro import faults
from repro.api import CorrectionTask, Engine, ParallelBackend
from repro.api.engine import (
    _sweep_manifest_key,
    _sweep_manifest_payload,
    registry_sweep_tasks,
)
from repro.api.result import Result
from repro.store import ClauseStore


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


class TestSweepResume:
    def _seeded(self):
        return Result(
            task="correction",
            subject="steane",
            verified=True,
            details={"seeded": True},
        )

    def test_sweep_resumes_from_manifest(self, tmp_path):
        engine = Engine(clause_store=str(tmp_path))
        batch = [CorrectionTask(code="steane"), CorrectionTask(code="five-qubit")]
        key = _sweep_manifest_key(batch, [0, 1])
        store = engine.resources.clause_store
        store.checkpoint_save(key, _sweep_manifest_payload(2, {0: self._seeded()}))

        results = engine.run_many(batch, schedule="fifo")
        assert results[0].details.get("seeded") is True  # not re-run
        assert results[0].details.get("sweep_resumed") is True
        assert results[1].verified is True
        assert "sweep_resumed" not in results[1].details
        # The manifest is consumed: the sweep is complete, nothing resumes.
        assert store.checkpoint_load(key) is None
        engine.close()

    def test_mismatched_manifest_is_discarded(self, tmp_path):
        engine = Engine(clause_store=str(tmp_path))
        batch = [CorrectionTask(code="steane"), CorrectionTask(code="five-qubit")]
        key = _sweep_manifest_key(batch, [0, 1])
        store = engine.resources.clause_store
        # A manifest for a different sweep shape must not leak results in.
        store.checkpoint_save(key, _sweep_manifest_payload(3, {0: self._seeded()}))

        results = engine.run_many(batch, schedule="fifo")
        assert all(result.verified for result in results)
        assert all("sweep_resumed" not in result.details for result in results)
        engine.close()

    def test_single_task_runs_are_not_checkpointed(self, tmp_path):
        engine = Engine(clause_store=str(tmp_path))
        results = engine.run_many([CorrectionTask(code="steane")])
        assert results[0].verified is True
        assert engine.resources.clause_store.checkpoints_saved == 0
        engine.close()

    @pytest.mark.parametrize("processes", [None, 2])
    def test_every_finished_task_is_checkpointed(self, tmp_path, monkeypatch, processes):
        """One ``sweep:`` manifest save per task, with or without a pool, so
        a killed pool sweep resumes like a killed serial one."""
        saved = []
        original = ClauseStore.checkpoint_save

        def recording(store, key, payload):
            if key.startswith("sweep:"):
                saved.append(sorted(payload["results"]))
            return original(store, key, payload)

        # Pool workers record into their own (forked) copy of ``saved``;
        # only the parent's manifest saves land here.
        monkeypatch.setattr(ClauseStore, "checkpoint_save", recording)
        engine = Engine(clause_store=str(tmp_path))
        batch = [CorrectionTask(code="steane"), CorrectionTask(code="five-qubit"),
                 CorrectionTask(code="shor")]
        results = engine.run_many(batch, schedule="fifo", processes=processes)
        assert all(result.verified for result in results)
        assert saved == [["0"], ["0", "1"], ["0", "1", "2"]]
        engine.close()

    def test_each_result_is_serialized_once(self, tmp_path, monkeypatch):
        """A manifest save dumps the entries it already holds: a 3-task sweep
        serializes 3 results, not one more per save."""
        saved = []
        serialized = []
        original_save = ClauseStore.checkpoint_save
        original_to_dict = Result.to_dict

        def recording(store, key, payload):
            if key.startswith("sweep:"):
                saved.append(sorted(payload["results"]))
            return original_save(store, key, payload)

        def counting(result):
            serialized.append(result.subject)
            return original_to_dict(result)

        monkeypatch.setattr(ClauseStore, "checkpoint_save", recording)
        monkeypatch.setattr(Result, "to_dict", counting)
        engine = Engine(clause_store=str(tmp_path))
        batch = [CorrectionTask(code="steane"), CorrectionTask(code="five-qubit"),
                 CorrectionTask(code="shor")]
        results = engine.run_many(batch, schedule="fifo")
        assert all(result.verified for result in results)
        assert saved == [["0"], ["0", "1"], ["0", "1", "2"]]
        assert len(serialized) == 3
        engine.close()


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
