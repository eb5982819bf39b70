"""The job lifecycle: submit → stream/await → result | cancel.

The acceptance-critical properties live here: a ``DistanceTask`` job can be
cancelled mid-probe and the shared per-code session stays reusable (the next
run returns the correct distance, equal to a fresh engine's), every stream
ends in exactly one terminal event, and event streams are deterministic
across fresh engines once wall-clock fields are stripped.
"""

import time

import pytest

from repro.api import (
    CorrectionTask,
    DetectionTask,
    DistanceProbe,
    DistanceTask,
    Engine,
    Job,
    JobCancelledError,
    JobStatus,
    ParallelBackend,
)
from repro.api.events import EVENT_TYPES, deterministic_view
from repro.api.jobs import ShardedJobExecutor
from repro.smt.solver import SolveControl, SolverInterrupted


def _event_names(job):
    return [type(event).__name__ for event in job.events()]


class TestLifecycle:
    def test_submit_runs_and_completes(self):
        engine = Engine()
        job = engine.submit(CorrectionTask(code="steane"))
        result = job.result(timeout=60)
        assert result.verified
        assert job.status is JobStatus.SUCCEEDED
        engine.close()

    def test_result_matches_blocking_run(self):
        task = DetectionTask(code="five-qubit")
        submitted = Engine().submit(task).result(timeout=60)
        blocking = Engine().run(task)
        assert submitted.verified == blocking.verified
        assert submitted.conflicts == blocking.conflicts
        assert submitted.to_dict().keys() == blocking.to_dict().keys()

    def test_stream_shape_and_single_terminal(self):
        engine = Engine()
        job = engine.submit(DistanceTask(code="steane", max_trial=5))
        names = _event_names(job)
        assert names[0] == "JobSubmitted"
        assert names[1] == "TaskCompiled"
        assert "DistanceProbe" in names
        assert names[-1] == "JobCompleted"
        terminals = [n for n in names if EVENT_TYPES[n].TERMINAL]
        assert terminals == ["JobCompleted"]
        # Sequence numbers are stamped contiguously from 0.
        seqs = [event.seq for event in job.events()]
        assert seqs == list(range(len(seqs)))
        engine.close()

    def test_replay_after_completion(self):
        engine = Engine()
        job = engine.submit(CorrectionTask(code="five-qubit"))
        job.wait(60)
        # Two late subscribers both get the identical full stream.
        assert _event_names(job) == _event_names(job)
        engine.close()

    def test_broken_subscriber_does_not_kill_the_dispatcher(self):
        engine = Engine()
        job = engine.submit(CorrectionTask(code="steane"))
        seen = []

        def broken(event):
            raise RuntimeError("consumer gone")

        job.subscribe(broken)
        job.subscribe(seen.append)
        assert job.result(timeout=60).verified
        assert type(seen[-1]).__name__ == "JobCompleted"
        # The dispatcher survived and runs the next job.
        assert engine.submit(DetectionTask(code="five-qubit")).result(timeout=60).verified
        engine.close()

    def test_concurrent_submits_get_unique_ids(self):
        import threading

        engine = Engine()
        jobs = []
        lock = threading.Lock()

        def submit_some():
            for _ in range(5):
                job = engine.submit(CorrectionTask(code="five-qubit"))
                with lock:
                    jobs.append(job)

        threads = [threading.Thread(target=submit_some) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({job.id for job in jobs}) == len(jobs) == 20
        for job in jobs:
            assert job.result(timeout=120).verified
        engine.close()

    def test_failed_job(self):
        engine = Engine()
        job = engine.submit(CorrectionTask(code="steane", max_errors=None))
        job.result(timeout=60)
        bad = engine.submit(DetectionTask(code="steane", trial_distance=None),
                            backend="no-such-backend")
        with pytest.raises(ValueError):
            bad.result(timeout=60)
        assert bad.status is JobStatus.FAILED
        assert _event_names(bad)[-1] == "JobFailed"
        engine.close()

    def test_backend_override_by_name(self):
        engine = Engine()
        job = engine.submit(CorrectionTask(code="five-qubit"), backend="serial")
        assert job.result(timeout=60).backend == "serial"
        engine.close()


class TestPriorities:
    def test_higher_priority_runs_first(self):
        engine = Engine()
        executor = ShardedJobExecutor(engine, lanes=1, autostart=False)
        order = []
        jobs = []
        for name, priority in [("low", 0), ("high", 5), ("mid", 1)]:
            job = Job(f"job-{name}", CorrectionTask(code="five-qubit"), priority=priority)
            job.add_done_callback(lambda finished: order.append(finished.id))
            jobs.append(executor.submit(job))
        executor.start()
        for job in jobs:
            assert job.wait(60)
        assert order == ["job-high", "job-mid", "job-low"]
        executor.shutdown()
        engine.close()

    def test_equal_priority_is_fifo(self):
        engine = Engine()
        executor = ShardedJobExecutor(engine, lanes=1, autostart=False)
        order = []
        jobs = []
        for index in range(3):
            job = Job(f"job-{index}", CorrectionTask(code="five-qubit"))
            job.add_done_callback(lambda finished: order.append(finished.id))
            jobs.append(executor.submit(job))
        executor.start()
        for job in jobs:
            assert job.wait(60)
        assert order == ["job-0", "job-1", "job-2"]
        executor.shutdown()
        engine.close()


class TestCancellation:
    def test_cancel_before_run_never_executes(self):
        engine = Engine()
        executor = ShardedJobExecutor(engine, lanes=1, autostart=False)
        job = executor.submit(Job("job-x", CorrectionTask(code="steane")))
        job.cancel()
        executor.start()
        with pytest.raises(JobCancelledError) as excinfo:
            job.result(timeout=60)
        assert excinfo.value.reason == "cancelled"
        assert _event_names(job) == ["JobSubmitted", "JobCancelled"]
        executor.shutdown()
        engine.close()

    def test_cancel_mid_probe_leaves_shared_session_reusable(self):
        """The acceptance scenario: cancel a surface-5 DistanceTask mid-walk;
        the same engine then discovers the correct distance on the same
        CodeContext, equal to a fresh engine's run."""
        task = DistanceTask(code="surface-5", max_trial=6)
        engine = Engine()
        job = engine.submit(task)

        def cancel_on_first_probe(event):
            if isinstance(event, DistanceProbe):
                job.cancel()

        job.subscribe(cancel_on_first_probe)
        with pytest.raises(JobCancelledError):
            job.result(timeout=300)
        assert job.status is JobStatus.CANCELLED
        names = _event_names(job)
        assert [n for n in names if EVENT_TYPES[n].TERMINAL] == ["JobCancelled"]
        # The walk was genuinely interrupted: it never reached the full
        # probe schedule a completed job emits.
        resumed = engine.run(task)
        fresh = Engine().run(task)
        assert resumed.details["distance"] == fresh.details["distance"] == 5
        assert resumed.verified and fresh.verified
        engine.close()

    def test_expired_deadline_cancels_before_running(self):
        engine = Engine()
        job = engine.submit(CorrectionTask(code="steane"), deadline=0.0)
        with pytest.raises(JobCancelledError) as excinfo:
            job.result(timeout=60)
        assert excinfo.value.reason == "deadline"
        assert _event_names(job) == ["JobSubmitted", "JobCancelled"]
        engine.close()

    def test_deadline_cancelled_task_keeps_its_guard(self):
        from repro.api.events import SubtaskStarted

        task = CorrectionTask(code="steane")
        engine = Engine()
        executor = ShardedJobExecutor(engine, lanes=1, autostart=False)
        job = executor.submit(Job("job-deadline", task, deadline=2.0))

        def stall_past_the_deadline(event):
            # Runs on the lane after the task's guard was asserted on the
            # shared context; the solve then polls its control on entry and
            # stops with the deadline.
            if isinstance(event, SubtaskStarted):
                time.sleep(max(0.0, job._deadline_at - time.monotonic()) + 0.01)

        job.subscribe(stall_past_the_deadline)
        executor.start()
        with pytest.raises(JobCancelledError) as excinfo:
            job.result(timeout=60)
        assert excinfo.value.reason == "deadline"
        context = engine.resources.context_for("steane")
        assert list(context._task_guards) == [task] and context.retired == 0
        # The resubmission is a context hit with the uncancelled verdict.
        again = executor.submit(Job("job-again", task)).result(timeout=60)
        fresh = Engine().run(task)
        assert again.cached is True and fresh.cached is False
        assert again.verified == fresh.verified is True
        assert "retired_guards" not in again.details["resources"]
        executor.shutdown()
        engine.close()

    def test_deadline_mid_solve_cancels_and_session_survives(self):
        engine = Engine()
        # Tight but non-zero deadline: the job starts, the control fires
        # inside the solver, and the walk stops within one slice.
        job = engine.submit(DistanceTask(code="surface-5"), deadline=0.01)
        with pytest.raises(JobCancelledError) as excinfo:
            job.result(timeout=300)
        assert excinfo.value.reason == "deadline"
        result = engine.run(DistanceTask(code="surface-5", max_trial=6))
        assert result.details["distance"] == 5
        engine.close()

    def test_shutdown_cancels_queued_jobs(self):
        engine = Engine()
        executor = ShardedJobExecutor(engine, lanes=1, autostart=False)
        jobs = [executor.submit(Job(f"job-{i}", CorrectionTask(code="steane")))
                for i in range(2)]
        executor.shutdown()
        for job in jobs:
            assert job.status is JobStatus.CANCELLED
            assert job.cancel_reason == "shutdown"
        engine.close()

    def test_submit_after_shutdown_raises_without_starting_a_stream(self):
        engine = Engine()
        executor = ShardedJobExecutor(engine, lanes=1, autostart=False)
        executor.shutdown()
        job = Job("job-late", CorrectionTask(code="steane"))
        with pytest.raises(RuntimeError):
            executor.submit(job)
        # No JobSubmitted was emitted, so no consumer can be left waiting
        # on a stream that will never terminate.
        assert job._events == []
        engine.close()


class TestPoolInterruption:
    def test_interrupted_pool_check_raises_its_reason_and_leaves_no_pool(self):
        from repro.smt.parallel import _LIVE_POOLS, generate_split_assumptions, split_check

        engine = Engine()
        compiled = engine.compile_task(CorrectionTask(code="steane"))
        assumption_sets = generate_split_assumptions(
            list(compiled.split_variables), compiled.split_weight,
            compiled.split_threshold, max_subtasks=256,
        )
        assert len(assumption_sets) > 1
        before = set(_LIVE_POOLS)

        def check(control=None):
            return split_check(
                compiled.formula, assumption_sets, num_workers=2, control=control
            )

        try:
            # The conflict budget is enforced inside the workers, each of
            # which starts cold: every check builds its own pool.
            for control, reason in (
                (SolveControl(conflict_budget=0, check_interval=1), "budget"),
                # The parent control's verdict wins over the worker-relayed
                # cancel event, so the reason names the true cause.
                (SolveControl(deadline=time.monotonic() - 1.0), "deadline"),
                (SolveControl(cancelled=lambda: True), "cancelled"),
            ):
                with pytest.raises(SolverInterrupted) as excinfo:
                    check(control)
                assert excinfo.value.reason == reason
                assert set(_LIVE_POOLS) == before, reason
            # Interruptions leave nothing behind: the next check decides the
            # formula correctly, and its pool is gone too.
            assert check().is_unsat
            assert set(_LIVE_POOLS) == before
        finally:
            engine.close()


class TestDeterminism:
    @pytest.mark.parametrize("task", [
        DetectionTask(code="steane"),
        DistanceTask(code="steane", max_trial=5),
        DistanceTask(code="steane", max_trial=16),
    ])
    def test_event_streams_identical_across_fresh_engines(self, task):
        def stream(engine):
            job = engine.submit(task)
            job.wait(120)
            return [deterministic_view(event.to_dict()) for event in job.events()]

        first = stream(Engine())
        second = stream(Engine())
        assert first == second


class TestSubjects:
    @pytest.mark.parametrize("task", [
        DistanceTask(code="surface-5", max_trial=3),
        CorrectionTask(code="surface-3"),
    ])
    def test_one_subject_across_submit_and_compile(self, task):
        """A job's events name its code one way: the registry key the task
        was submitted with, not the built code's display name."""
        from repro.api.events import JobSubmitted, TaskCompiled

        engine = Engine()
        job = engine.submit(task)
        result = job.result(timeout=120)
        subjects = [event.subject for event in job.events()
                    if isinstance(event, (JobSubmitted, TaskCompiled))]
        assert subjects == [task.code] * 2
        # The result keeps the compiled code's name.
        assert result.subject == task.build().name
        engine.close()


class TestConsumers:
    """Job-level behaviour every stream consumer relies on (the service's
    event-loop bridge included): live streams and results agree, and a
    consumer that hangs up early wedges nothing."""

    def test_live_stream_and_result_share_one_job(self):
        import threading

        engine = Engine()
        job = engine.submit(CorrectionTask(code="five-qubit"))
        seen = []
        reader = threading.Thread(target=lambda: seen.extend(job.events()))
        reader.start()
        result = job.result(timeout=60)
        reader.join(60)
        assert not reader.is_alive()
        assert [event.seq for event in seen] == list(range(len(seen)))
        assert type(seen[-1]).__name__ == "JobCompleted"
        assert result.verified
        engine.close()

    def test_concurrent_jobs_multiplex_one_engine(self):
        engine = Engine()
        jobs = [
            engine.submit(DetectionTask(code="five-qubit")),
            engine.submit(CorrectionTask(code="steane")),
        ]
        for job in jobs:
            names = _event_names(job)
            assert names[0] == "JobSubmitted"
            assert names[-1] == "JobCompleted"
            assert names.count("JobCompleted") == 1
        results = [job.result(timeout=60) for job in jobs]
        assert [result.task for result in results] == [
            "precise-detection", "accurate-correction",
        ]
        assert all(result.verified for result in results)
        engine.close()

    def test_abandoned_stream_does_not_wedge_the_job(self):
        engine = Engine()
        job = engine.submit(DistanceTask(code="surface-3"))
        stream = job.events()
        assert type(next(stream)).__name__ == "JobSubmitted"
        stream.close()  # hang up after one event
        assert job.result(timeout=300).verified
        # A late subscriber still gets the full, terminal-capped replay.
        names = _event_names(job)
        assert names[0] == "JobSubmitted"
        assert names[-1] == "JobCompleted"
        engine.close()


class TestRequestCancel:
    """The DELETE-semantics primitive: request_cancel's stable yes/no."""

    def test_live_job_accepts_and_is_idempotent(self):
        job = Job("job-rc1", CorrectionTask(code="steane"))
        assert job.request_cancel() is True
        assert job.request_cancel() is True  # repeat while live: still yes
        assert job.cancel_requested

    def test_terminal_job_refuses(self):
        engine = Engine()
        job = engine.submit(CorrectionTask(code="steane"))
        job.result(timeout=60)
        assert job.request_cancel() is False
        assert job.request_cancel() is False  # double-cancel stays a no-op
        assert job.status is JobStatus.SUCCEEDED  # and never flips the state
        engine.close()

    def test_cancelled_job_refuses_further_requests(self):
        job = Job("job-rc2", CorrectionTask(code="steane"))
        assert job.request_cancel() is True
        job._finish_cancelled("cancelled")
        assert job.request_cancel() is False
        assert job.status is JobStatus.CANCELLED
        assert job.cancel_reason == "cancelled"

    def test_shutdown_reason_propagates_to_terminal_event(self):
        engine = Engine()
        executor = ShardedJobExecutor(engine, lanes=1, autostart=False)
        job = executor.submit(Job("job-rc3", CorrectionTask(code="steane")))
        assert job.request_cancel(reason="shutdown") is True
        executor.start()
        with pytest.raises(JobCancelledError) as excinfo:
            job.result(timeout=60)
        assert excinfo.value.reason == "shutdown"
        terminal = list(job.events())[-1]
        assert type(terminal).__name__ == "JobCancelled"
        assert terminal.reason == "shutdown"
        executor.shutdown()
        engine.close()


class TestDeadlineExpiryReuse:
    def test_mid_walk_deadline_keeps_session_reusable(self):
        """Deadline expiry inside a distance walk must retire the job's
        guards and leave the shared per-code session able to finish the
        same task correctly on the next run."""
        task = DistanceTask(code="surface-5", max_trial=6)
        engine = Engine()
        job = engine.submit(task, deadline=0.01)
        with pytest.raises(JobCancelledError) as excinfo:
            job.result(timeout=300)
        assert excinfo.value.reason == "deadline"
        names = _event_names(job)
        assert [n for n in names if EVENT_TYPES[n].TERMINAL] == ["JobCancelled"]
        resumed = engine.run(task)
        assert resumed.verified
        assert resumed.details["distance"] == 5
        engine.close()
