"""The sharded dispatcher: lane routing, and the registry's family tags.

Lane affinity is the concurrency-safety invariant under test: every task on
one code routes to the same lane, forever.
"""

import threading

import pytest

from repro.api import CorrectionTask, DetectionTask, DistanceTask, Engine
from repro.api.jobs import JobStatus, ShardedJobExecutor
from repro.api.resources import ResourceManager
from repro.codes.registry import CODE_REGISTRY, family_of


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


class TestShardRouting:
    def test_same_code_always_routes_to_same_lane(self):
        manager = ResourceManager()
        manager.configure_shards(4)
        lanes = {manager.shard_for_task(CorrectionTask(code="steane")) for _ in range(10)}
        assert len(lanes) == 1

    def test_shard_key_is_the_code_not_its_family(self):
        manager = ResourceManager()
        manager.configure_shards(4)
        assert manager.shard_key("surface-3") == "surface-3"
        assert manager.shard_key("five-qubit") == "five-qubit"
        # Every task kind on one code shares that code's lane ...
        surface_5 = manager.shard_for_task(CorrectionTask(code="surface-5"))
        assert manager.shard_for_task(DistanceTask(code="surface-5")) == surface_5
        assert manager.shard_for_task(DetectionTask(code="surface-5")) == surface_5
        # ... while family members are routed independently: with free
        # lanes left, a second code never lands on an occupied one.
        assert manager.shard_for_task(DistanceTask(code="surface-3")) != surface_5

    def test_codeless_tasks_pin_to_lane_zero(self):
        manager = ResourceManager()
        manager.configure_shards(4)
        assert manager.shard_for_task(object()) == 0

    def test_distinct_codes_spread_over_lanes(self):
        manager = ResourceManager()
        manager.configure_shards(4)
        keys = ["steane", "shor", "surface-3", "gottesman-8", "repetition-5",
                "reed-muller-4", "xzzx-3", "color-832"]
        lanes = {key: manager.shard_for(manager.shard_key(key)) for key in keys}
        # Sticky least-loaded assignment: 8 keys over 4 lanes never piles
        # more than a fair share plus one onto any single lane.
        per_lane = [list(lanes.values()).count(lane) for lane in range(4)]
        assert max(per_lane) <= 3
        assert sum(per_lane) == len(keys)
        # ... and the assignment is sticky across repeat lookups.
        assert lanes == {key: manager.shard_for(manager.shard_key(key)) for key in keys}

    def test_one_lane_collapses_to_serial(self):
        manager = ResourceManager()
        manager.configure_shards(1)
        assert manager.shard_for_task(CorrectionTask(code="steane")) == 0
        assert manager.shard_for_task(CorrectionTask(code="shor")) == 0


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


class TestShardedExecutor:
    def _engine(self, lanes=4):
        return Engine(backend="serial", lanes=lanes)

    def test_jobs_route_to_their_code_lane(self):
        engine = self._engine()
        try:
            jobs = [
                engine.submit(CorrectionTask(code=key))
                for key in ("steane", "shor", "five-qubit", "surface-3")
            ]
            for job in jobs:
                assert job.result(timeout=120).verified is True
            expected = {
                job: engine.resources.shard_for_task(job.task) for job in jobs
            }
            for job, lane in expected.items():
                assert job.lane == lane
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
            assert sum(entry["jobs_completed"] for entry in lanes) == 4
            assert sum(entry["busy_seconds"] for entry in lanes) > 0
            assert all(entry["queue_depth"] == 0 for entry in lanes)
            claimed = [key for entry in lanes for key in entry["shard_keys"]]
            assert sorted(claimed) == sorted(
                {"steane", "shor", "surface-3", "five-qubit"}
            )
        finally:
            engine.close()

    def test_lane_rows_report_exact_fingerprint_warm_starts(self, tmp_path):
        for _ in range(2):
            engine = Engine(backend="serial", lanes=4, clause_store=str(tmp_path))
            try:
                job = engine.submit(CorrectionTask(code="steane"))
                assert job.result(timeout=120).verified is True
                stats = engine.resources.stats()
                engine.resources.save_warm()
            finally:
                engine.close()
        row = next(entry for entry in stats["lanes"] if "steane" in entry["shard_keys"])
        assert row["store_hits"] == 1
        assert row["warm_absorbed"] > 0
        assert "store_absorbed" not in row and "absorbed_clauses" not in row

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

    def test_blocking_run_serializes_against_the_same_lane(self):
        """Engine.run and a background job on the SAME code must not race:
        both go through the code's lane lock."""
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
