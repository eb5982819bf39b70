"""The job executor's code claims, and the registry's family tags.

The per-code claim is the concurrency-safety invariant under test: jobs on
one code never overlap, and jobs on different codes never wait on each
other.
"""

import sys
import threading

import pytest

from repro import faults
from repro.api import CorrectionTask, DetectionTask, DistanceTask, Engine
from repro.api.jobs import JobStatus, ShardedJobExecutor
from repro.api.resources import ResourceManager
from repro.codes.registry import CODE_REGISTRY, family_of

from tests.service.test_sharded_dispatch import _ReentrancyGuard

claim_key = ResourceManager.claim_key


class TestFamilyRegistry:
    def test_family_members_are_tagged(self):
        assert family_of("surface-3") == "surface"
        assert family_of("surface-5") == "surface"
        assert family_of("steane") is None
        assert family_of("not-a-code") is None

    def test_ranks_order_every_family(self):
        families: dict[str, list[int]] = {}
        for entry in CODE_REGISTRY.values():
            if entry.family:
                families.setdefault(entry.family, []).append(entry.family_rank)
        for family, ranks in families.items():
            assert len(set(ranks)) == len(ranks), f"duplicate rank in {family}"


class TestClaimKeys:
    def test_claim_key_is_the_code_not_its_family(self):
        surface_5 = claim_key(CorrectionTask(code="surface-5"))
        assert surface_5 == "surface-5"
        # Every task kind on one code claims that code ...
        assert claim_key(DistanceTask(code="surface-5")) == surface_5
        assert claim_key(DetectionTask(code="surface-5")) == surface_5
        # ... while family members claim independently.
        assert claim_key(DistanceTask(code="surface-3")) != surface_5

    def test_codeless_tasks_share_one_claim(self):
        assert claim_key(object()) is None
        assert claim_key(object()) == claim_key(object())


class TestNoCrossCodeState:
    """No learnt clause and no counter crosses from one code's context to
    another's, so a code's search is the same whether or not its family
    sibling ran first."""

    def _after_surface_3(self):
        engine = Engine(backend="serial")
        engine.run(CorrectionTask(code="surface-3", max_errors=1))
        engine.run(DetectionTask(code="surface-3"))
        return engine

    def test_sibling_search_matches_a_fresh_engine(self):
        task = CorrectionTask(code="surface-5", max_errors=1)
        fresh = Engine(backend="serial").run(task)
        shared = self._after_surface_3().run(task)
        assert shared.verified is fresh.verified is True
        assert (shared.conflicts, shared.decisions) == (fresh.conflicts, fresh.decisions)

    def test_shared_engine_preserves_verdicts(self):
        """A family member run after its sibling returns exactly the verdict
        a fresh engine returns, for verified and falsified queries alike."""
        shared = self._after_surface_3()
        for task in (
            CorrectionTask(code="surface-5", max_errors=1),
            CorrectionTask(code="surface-5", max_errors=2),
            # over-claimed: weight-3 correction on a d=5 code must fail
            CorrectionTask(code="surface-5", max_errors=3),
            DetectionTask(code="surface-5"),
        ):
            fresh_verdict = Engine(backend="serial").run(task).verified
            assert shared.run(task).verified == fresh_verdict, task

    def test_distance_walk_after_sibling_matches_a_fresh_walk(self):
        task = DistanceTask(code="surface-5")
        fresh = Engine(backend="serial").run(task)
        shared = self._after_surface_3().run(task)
        assert shared.details["distance"] == fresh.details["distance"] == 5
        assert shared.conflicts == fresh.conflicts

    def test_no_cross_code_counters_are_reported(self):
        engine = self._after_surface_3()
        result = engine.run(CorrectionTask(code="surface-5", max_errors=1))
        removed = {"family_absorbed", "family_probes", "store_probes", "store_absorbed"}
        assert not removed & set(result.details)
        assert not removed & set(engine.resources.stats())


class _Hold:
    """Wraps ``engine._execute`` so executions of one code park on an event.

    ``entered`` is set once a held execution is inside (its code claimed);
    it stays parked until ``release`` is set.  Every other execution runs
    straight through.
    """

    def __init__(self, engine, code):
        self.code = code
        self.entered = threading.Event()
        self.release = threading.Event()
        original = engine._execute

        def held(task, *args, **kwargs):
            if getattr(task, "code", None) == self.code:
                self.entered.set()
                assert self.release.wait(120), "held execution never released"
            return original(task, *args, **kwargs)

        engine._execute = held


class TestShardedExecutor:
    def _engine(self, lanes=4):
        return Engine(backend="serial", lanes=lanes)

    def test_job_lane_is_the_worker_that_ran_it(self):
        engine = self._engine()
        ran_on = {}
        original = engine._execute

        def recording(task, *args, **kwargs):
            ran_on[task.code] = threading.current_thread().name
            return original(task, *args, **kwargs)

        engine._execute = recording
        try:
            jobs = [
                engine.submit(CorrectionTask(code=key))
                for key in ("steane", "shor", "five-qubit", "surface-3")
            ]
            for job in jobs:
                assert job.result(timeout=120).verified is True
                assert ran_on[job.task.code] == f"repro-lane-{job.lane}"
        finally:
            engine.close()

    def test_lane_threads_are_named(self):
        engine = self._engine()
        try:
            job = engine.submit(CorrectionTask(code="steane"))
            job.result(timeout=120)
            lane = job.lane
            names = {thread.name for thread in threading.enumerate()}
            assert f"repro-lane-{lane}" in names
        finally:
            engine.close()

    def test_solver_stats_events_carry_the_lane(self):
        engine = self._engine()
        try:
            job = engine.submit(CorrectionTask(code="steane"))
            job.result(timeout=120)
            stats = [e for e in job.events(timeout=10) if type(e).__name__ == "SolverStats"]
            assert stats and all(event.lane == job.lane for event in stats)
        finally:
            engine.close()

    def test_lane_stats_flow_through_resource_stats(self):
        engine = self._engine()
        try:
            for key in ("steane", "shor", "surface-3", "five-qubit"):
                engine.submit(CorrectionTask(code=key)).result(timeout=120)
            stats = engine.resources.stats()
            lanes = stats["lanes"]
            assert [entry["lane"] for entry in lanes] == list(range(4))
            assert all(
                set(entry) == {"lane", "jobs_completed", "busy_seconds"}
                for entry in lanes
            )
            assert sum(entry["jobs_completed"] for entry in lanes) == 4
            assert sum(entry["busy_seconds"] for entry in lanes) > 0
            assert stats["queue_depth"] == 0
        finally:
            engine.close()

    def test_store_counters_report_exact_fingerprint_warm_starts(self, tmp_path):
        for _ in range(2):
            engine = Engine(backend="serial", lanes=4, clause_store=str(tmp_path))
            try:
                job = engine.submit(CorrectionTask(code="steane"))
                assert job.result(timeout=120).verified is True
                stats = engine.resources.stats()
                engine.resources.save_warm()
            finally:
                engine.close()
        assert stats["warm_hits"] == 1
        assert stats["warm_absorbed"] > 0
        assert "store_absorbed" not in stats and "absorbed_clauses" not in stats

    def test_shutdown_cancels_queued_jobs(self):
        engine = self._engine()
        executor = ShardedJobExecutor(engine, lanes=2, autostart=False)
        from repro.api.jobs import Job

        jobs = [
            Job(f"job-q{i}", CorrectionTask(code="steane")) for i in range(3)
        ]
        for job in jobs:
            executor.submit(job)
        assert executor.pending() == 3
        executor.shutdown(wait=True)
        for job in jobs:
            assert job.status is JobStatus.CANCELLED
            assert job.cancel_reason == "shutdown"
        with pytest.raises(RuntimeError):
            executor.submit(Job("job-late", CorrectionTask(code="steane")))

    def test_concurrent_jobs_on_distinct_codes_all_succeed(self):
        engine = self._engine()
        try:
            keys = ["steane", "shor", "five-qubit", "surface-3",
                    "gottesman-8", "repetition-5"]
            jobs = [engine.submit(CorrectionTask(code=key)) for key in keys]
            for key, job in zip(keys, jobs):
                result = job.result(timeout=300)
                fresh = Engine(backend="serial").run(CorrectionTask(code=key))
                assert result.verified == fresh.verified, key
        finally:
            engine.close()

    def test_blocking_run_serializes_against_a_job_on_the_same_code(self):
        """Engine.run and a background job on the SAME code must not race:
        both claim the code before executing."""
        engine = self._engine()
        try:
            job = engine.submit(DistanceTask(code="surface-3"))
            # While that runs (or queues), a blocking call on the same code
            # still returns the right answer.
            blocking = engine.run(CorrectionTask(code="surface-3", max_errors=1))
            assert blocking.verified is True
            assert job.result(timeout=300).details["distance"] == 3
        finally:
            engine.close()


class TestCodeClaims:
    """One claim per code: jobs on one code run one at a time, jobs on
    different codes never wait on each other.  Every wait here is on an
    event with a generous timeout, never on the wall clock."""

    #: the service-mixed codes in their warm-up order; a sticky code->lane
    #: table with 4 lanes puts hgp-hamming on shor's lane after these.
    SERVICE_CODES = ("steane", "five-qubit", "shor", "color-832", "gottesman-8", "iceberg-6")

    def test_a_job_never_waits_behind_another_codes_job(self):
        engine = Engine(backend="serial", lanes=4)
        try:
            for key in self.SERVICE_CODES:
                engine.run(DetectionTask(code=key))
            hold = _Hold(engine, "hgp-hamming")
            held = engine.submit(DetectionTask(code="hgp-hamming", trial_distance=2))
            assert hold.entered.wait(60)
            try:
                shor = engine.submit(DetectionTask(code="shor"))
                assert shor.wait(60), "shor waited behind the held hgp-hamming job"
                assert shor.result(timeout=0).verified is True
                assert not held.status.terminal
            finally:
                hold.release.set()
            assert held.result(timeout=120).verified is True
        finally:
            engine.close()

    def test_two_jobs_on_one_code_never_overlap(self, monkeypatch):
        guard = _ReentrancyGuard().install(monkeypatch)
        engine = Engine(backend="serial", lanes=4)
        try:
            hold = _Hold(engine, "steane")
            first = engine.submit(CorrectionTask(code="steane"))
            assert hold.entered.wait(60)
            try:
                second = engine.submit(DetectionTask(code="steane"))
                # A free worker runs another code's job to completion while
                # the second steane job stays queued behind the first.
                other = engine.submit(DetectionTask(code="five-qubit"))
                assert other.result(timeout=60).verified is True
                assert second.status is JobStatus.PENDING
                assert engine._executor.pending() == 1
            finally:
                hold.release.set()
            assert first.result(timeout=120).verified is True
            assert second.result(timeout=120).verified is True
            # Flood one code: with four workers free, the claim alone keeps
            # its session single-entry.
            flood = [
                engine.submit(task)
                for task in (CorrectionTask(code="steane", max_errors=k) for k in (1, 2))
                for _ in range(3)
            ]
            for job in flood:
                job.result(timeout=120)
        finally:
            engine.close()
        assert guard.violations == []

    def test_job_queued_behind_a_blocking_run_starts_when_it_returns(self):
        engine = Engine(backend="serial", lanes=2)
        try:
            hold = _Hold(engine, "steane")
            outcome = []
            caller = threading.Thread(
                target=lambda: outcome.append(engine.run(CorrectionTask(code="steane")))
            )
            caller.start()
            try:
                assert hold.entered.wait(60)
                queued = engine.submit(DetectionTask(code="steane"))
                other = engine.submit(DetectionTask(code="five-qubit"))
                assert other.result(timeout=60).verified is True
                assert queued.status is JobStatus.PENDING
            finally:
                hold.release.set()
                caller.join(120)
            assert outcome and outcome[0].verified is True
            # No further submit: releasing the run's claim wakes a worker.
            assert queued.result(timeout=120).verified is True
            assert engine.resources._claimed == set()
        finally:
            engine.close()

    def test_claims_hold_under_thread_switch_stress(self):
        """More workers than cores, frequent thread switches, blocking
        callers racing the workers: no code ever has two executions in
        flight, and every claim is released at the end."""
        engine = Engine(backend="serial", lanes=6)
        lock = threading.Lock()
        in_flight: dict = {}
        overlaps = []
        original = engine._execute

        def counting(task, *args, **kwargs):
            key = claim_key(task)
            with lock:
                in_flight[key] = in_flight.get(key, 0) + 1
                if in_flight[key] > 1:
                    overlaps.append(key)
            try:
                return original(task, *args, **kwargs)
            finally:
                with lock:
                    in_flight[key] -= 1

        engine._execute = counting
        codes = ("steane", "five-qubit", "iceberg-6")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [engine.submit(DetectionTask(code=code)) for code in codes * 8]
            blocking = []
            callers = [
                threading.Thread(target=lambda code=code: blocking.extend(
                    engine.run(CorrectionTask(code=code)).verified for _ in range(3)
                ))
                for code in codes[:2]
            ]
            for caller in callers:
                caller.start()
            for job in jobs:
                assert job.result(timeout=120).verified is True
            for caller in callers:
                caller.join(120)
                assert not caller.is_alive()
            assert blocking == [True] * 6
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert overlaps == []
        assert engine.resources._claimed == set()

    def test_busy_context_is_kept_and_saved_once_evicted_idle(self, tmp_path, monkeypatch):
        """A job on five-qubit under ``max_contexts = 1`` leaves the context
        a held steane job drives mapped and unsaved.  Once steane's claim is
        free, the next eviction saves steane exactly once, while no thread
        can be inside it: its code is unclaimed and it is no longer mapped."""
        from repro.api.resources import CodeContext

        engine = Engine(backend="serial", lanes=2, clause_store=str(tmp_path))
        resources = engine.resources
        resources.max_contexts = 1
        saved = []
        original_save = CodeContext.save_warm

        def recording(context):
            saved.append((
                context.key,
                context.key in resources._claimed,
                resources._contexts.get(context.key) is context,
            ))
            return original_save(context)

        def steane_saves():
            return [entry for entry in saved if entry[0] == "steane"]

        monkeypatch.setattr(CodeContext, "save_warm", recording)
        entered, release = threading.Event(), threading.Event()
        original_session_for = ResourceManager.session_for

        def held(resources, task, compile):
            found = original_session_for(resources, task, compile)
            if task.code == "steane":  # hold with the context resolved
                entered.set()
                assert release.wait(120)
            return found

        monkeypatch.setattr(ResourceManager, "session_for", held)
        try:
            first = engine.submit(CorrectionTask(code="steane"))
            assert entered.wait(60)
            try:
                evicting = engine.submit(CorrectionTask(code="five-qubit"))
                assert evicting.result(timeout=60).verified is True
                assert engine.cache_info()["sessions"] == 2  # steane kept
                assert steane_saves() == []
            finally:
                release.set()
            assert first.result(timeout=120).verified is True
            # Wait until both workers have released their codes.
            for key in ("steane", "five-qubit"):
                resources.claim(key)
                resources.release(key)
            assert steane_saves() == []  # a release saves nothing
            assert engine.run(CorrectionTask(code="shor")).verified is True
            assert engine.cache_info()["sessions"] == 1
        finally:
            engine.close()
        assert steane_saves() == [("steane", False, False)]

    def test_evicting_a_busy_code_never_blocks_the_worker(self, tmp_path, monkeypatch):
        """The worker whose five-qubit job runs past ``max_contexts`` while
        a steane job is held leaves steane's context alone and takes the
        next queued job: shor completes while steane is still held."""
        from repro.api.resources import ResourceManager

        engine = Engine(backend="serial", lanes=2, clause_store=str(tmp_path))
        engine.resources.max_contexts = 1
        entered, release = threading.Event(), threading.Event()
        original_session_for = ResourceManager.session_for

        def held(resources, task, compile):
            found = original_session_for(resources, task, compile)
            if task.code == "steane":  # hold with the context resolved
                entered.set()
                assert release.wait(120)
            return found

        monkeypatch.setattr(ResourceManager, "session_for", held)
        try:
            first = engine.submit(CorrectionTask(code="steane"))
            assert entered.wait(60)
            try:
                evicting = engine.submit(CorrectionTask(code="five-qubit"))
                assert evicting.result(timeout=60).verified is True
                shor = engine.submit(CorrectionTask(code="shor"))
                assert shor.result(timeout=60).verified is True
                assert not first.status.terminal
            finally:
                release.set()
            assert first.result(timeout=120).verified is True
        finally:
            engine.close()

    def test_lane_crash_fails_the_job_and_frees_its_code(self):
        # The executor binds its fault hook when the first job is submitted.
        faults.install({"faults": [{"point": "lane.crash", "times": 1}]})
        engine = Engine(backend="serial", lanes=2)
        try:
            crashed = engine.submit(CorrectionTask(code="steane"))
            with pytest.raises(RuntimeError, match="crashed mid-job"):
                crashed.result(timeout=60)
            terminal = list(crashed.events())[-1]
            assert type(terminal).__name__ == "JobFailed"
            assert terminal.reason == "lane_crash"
            # The crashed job's claim is gone: the next steane job runs.
            retry = engine.submit(CorrectionTask(code="steane"))
            assert retry.result(timeout=60).verified is True
            assert engine._executor.lane_crashes == 1
            assert engine.resources._claimed == set()
        finally:
            engine.close()
            faults.disarm()
