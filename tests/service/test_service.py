"""End-to-end service tests over real sockets.

The harness runs one :class:`VerificationService` on an ephemeral port in a
background thread (its own event loop); tests drive it with the blocking
:class:`ServiceClient` — the same stack the ``service-mixed`` benchmark
workload and the CI smoke job use.  Streams are asserted against the
``schema_version 1.0`` contract via :func:`repro.api.events.validate_stream`,
i.e. the wire format is held to the already-pinned NDJSON schema.
"""

import socket
import threading
import time

import pytest

from repro.api.events import validate_stream
from repro.api.jobs import JobStatus
from repro.service import (
    AdmissionController,
    ServiceClient,
    ServiceError,
    VerificationService,
)


class ServiceHarness:
    """A live service on 127.0.0.1:<ephemeral>, stopped (drained) on exit."""

    def __init__(self, **service_kwargs):
        service_kwargs.setdefault("drain_grace", 5.0)
        self.service = VerificationService(port=0, **service_kwargs)
        self._ready = threading.Event()
        self._loop = None
        self.summary = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        import asyncio

        async def main():
            await self.service.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            self.summary = await self.service.serve_forever(
                install_signal_handlers=False
            )

        asyncio.run(main())

    def __enter__(self) -> "ServiceHarness":
        self._thread.start()
        assert self._ready.wait(10), "service failed to start"
        return self

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_stop)
            self._thread.join(60)
        assert not self._thread.is_alive(), "service failed to drain"

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        return self.service.port

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, **kwargs)


@pytest.fixture(scope="module")
def harness():
    with ServiceHarness() as running:
        yield running


class TestLifecycle:
    def test_submit_stream_result(self, harness):
        client = harness.client(api_key="lifecycle")
        job = client.submit({"kind": "correction", "code": "steane"})
        assert job["status"] == "pending"
        assert job["events"] == f"/jobs/{job['id']}/events"

        lines = list(client.events(job["id"], raw=True))
        num_events, counts, errors = validate_stream(lines)
        assert errors == []
        assert counts["JobSubmitted"] == 1
        assert counts["JobCompleted"] == 1

        final = client.job(job["id"])
        assert final["status"] == "succeeded"
        assert final["result"]["verified"] is True

    def test_lanes_map_to_priorities(self, harness):
        client = harness.client()
        job = client.submit({"kind": "correction", "code": "steane"}, lane="interactive")
        assert job["priority"] == 10
        job = client.submit({"kind": "correction", "code": "steane"}, lane="batch")
        assert job["priority"] == -10
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "correction", "code": "steane"}, lane="warp")
        assert excinfo.value.status == 400

    def test_deadline_expiry_cancels_and_session_stays_reusable(self, hold_jobs):
        # Held past its deadline, so the job cannot finish first.
        hold_jobs(delay=0.2)
        with ServiceHarness() as harness:
            client = harness.client(api_key="deadline")
            job = client.submit(
                {"kind": "distance", "code": "surface-5"}, deadline=0.01
            )
            for _ in range(200):
                final = client.job(job["id"])
                if final["status"] != "pending" and final["status"] != "running":
                    break
                time.sleep(0.05)
            assert final["status"] == "cancelled"
            assert final["reason"] == "deadline"
            # The shared per-code session survived the expiry: the same code
            # verifies cleanly on a fresh job.
            job = client.submit(
                {"kind": "detection", "code": "surface-5", "trial_distance": 3}
            )
            events = list(client.events(job["id"]))
            assert events[-1]["event"] == "JobCompleted"

    def test_cancel_running_job_is_202_then_409(self, hold_jobs):
        hold_jobs()
        with ServiceHarness() as harness:
            client = harness.client(api_key="cancel")
            job = client.submit({"kind": "distance", "code": "surface-5"})
            accepted = client.cancel(job["id"])
            assert accepted["status"] == "cancelling"
            # await the terminal event, then a second DELETE is a stable 409
            events = list(client.events(job["id"]))
            assert events[-1]["event"] == "JobCancelled"
            with pytest.raises(ServiceError) as excinfo:
                client.cancel(job["id"])
            assert excinfo.value.status == 409

    def test_delete_terminal_job_is_409(self, harness):
        client = harness.client()
        job = client.submit({"kind": "correction", "code": "five-qubit"})
        list(client.events(job["id"]))  # run to completion
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job["id"])
        assert excinfo.value.status == 409
        assert "terminal" in excinfo.value.payload["error"]

    def test_client_disconnect_mid_stream_leaves_job_and_session_intact(
        self, harness
    ):
        client = harness.client(api_key="rude")
        job = client.submit({"kind": "distance", "code": "surface-3"})
        # Hand-rolled request so we can hang up mid-stream.
        raw = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
        raw.sendall(
            f"GET /jobs/{job['id']}/events HTTP/1.1\r\n"
            f"Host: localhost\r\n\r\n".encode()
        )
        assert raw.recv(64)  # at least the status line arrived
        raw.close()  # ... and the client vanishes
        # The job is unaffected: it still reaches its terminal state, the
        # stream is still fully replayable, and the engine keeps serving.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            final = client.job(job["id"])
            if final["status"] not in ("pending", "running"):
                break
            time.sleep(0.05)
        assert final["status"] == "succeeded"
        _, _, errors = validate_stream(client.events(job["id"], raw=True))
        assert errors == []
        follow_up = client.submit({"kind": "correction", "code": "steane"})
        assert list(client.events(follow_up["id"]))[-1]["event"] == "JobCompleted"


class TestValidation:
    def test_unknown_job_is_404(self, harness):
        client = harness.client()
        for call in (
            lambda: client.job("job-unknown"),
            lambda: client.cancel("job-unknown"),
            lambda: list(client.events("job-unknown")),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client().request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_task_specs_are_400(self, harness):
        client = harness.client()
        for body in (
            {},  # no task at all
            {"task": {"kind": "nope"}},
            {"task": {"kind": "correction", "code": "steane", "bogus": 1}},
            {"task": {"kind": "correction"}},  # no code
            {"task": {"kind": "correction", "code": "steane"}, "deadline": -1},
            {"task": {"kind": "correction", "code": "steane"}, "priority": "high"},
            {"task": {"kind": "correction", "code": "steane"}, "priority": True},
            {"task": {"kind": "correction", "code": "steane"}, "deadline": True},
            {"task": {"kind": "correction", "code": "steane"}, "deadline": float("nan")},
            {"task": {"kind": "correction", "code": "steane"}, "deadline": float("inf")},
            {"task": {"kind": "distance", "code": "steane", "max_trial": -3}},
            {"task": {"kind": "distance", "code": "steane", "max_trial": 0}},
            {"task": {"kind": "distance", "code": "steane", "max_trial": 1}},
            {"task": {"kind": "distance", "code": "steane", "max_trial": "5"}},
            # The distance walk has one schedule; ``strategy`` is no field.
            {"task": {"kind": "distance", "code": "steane", "strategy": "galloping"}},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/jobs", body)
            assert excinfo.value.status == 400, body

    def test_malformed_json_is_400(self, harness):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", harness.port, timeout=10)
        try:
            conn.request("POST", "/jobs", body=b"{not json", headers={})
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_healthz_and_stats(self, harness):
        client = harness.client()
        assert client.healthz() == {"status": "ok"}
        stats = client.stats()
        assert set(stats) == {"server", "admission", "jobs", "engine", "resources"}
        assert stats["server"]["port"] == harness.port
        assert stats["server"]["draining"] is False
        assert stats["admission"]["admitted"] >= 1


class TestAdmissionOverHttp:
    def test_quota_exceeded_is_429_with_retry_after(self, hold_jobs):
        hold_jobs()  # the first job stays in flight while the second arrives
        admission = AdmissionController(max_pending=64, max_inflight_per_key=1)
        with ServiceHarness(admission=admission) as harness:
            client = harness.client(api_key="tenant-a")
            job = client.submit({"kind": "distance", "code": "surface-5"})
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "correction", "code": "steane"})
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            assert "quota" in excinfo.value.payload["error"]
            # another tenant is unaffected
            other = harness.client(api_key="tenant-b")
            ok = other.submit({"kind": "correction", "code": "steane"})
            assert ok["status"] == "pending"
            client.cancel(job["id"])

    def test_rate_limited_is_429(self):
        admission = AdmissionController(rate=0.001, burst=1.0)
        with ServiceHarness(admission=admission) as harness:
            client = harness.client(api_key="chatty")
            client.submit({"kind": "correction", "code": "steane"})
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "correction", "code": "steane"})
            assert excinfo.value.status == 429
            assert "rate" in excinfo.value.payload["error"]

    def test_capacity_backpressure_is_429(self, hold_jobs):
        hold_jobs()  # the first job stays in flight while the second arrives
        admission = AdmissionController(max_pending=1)
        with ServiceHarness(admission=admission) as harness:
            slow = harness.client(api_key="a")
            job = slow.submit({"kind": "distance", "code": "surface-5"})
            with pytest.raises(ServiceError) as excinfo:
                harness.client(api_key="b").submit(
                    {"kind": "correction", "code": "steane"}
                )
            assert excinfo.value.status == 429
            assert "capacity" in excinfo.value.payload["error"]
            slow.cancel(job["id"])


class TestConcurrentClients:
    def test_eight_clients_mixed_tasks_all_streams_validate(self, harness):
        specs = [
            ({"kind": "correction", "code": "steane"}, "interactive"),
            ({"kind": "correction", "code": "five-qubit"}, "normal"),
            ({"kind": "detection", "code": "steane"}, "normal"),
            ({"kind": "detection", "code": "five-qubit"}, "batch"),
            ({"kind": "distance", "code": "surface-3"}, "interactive"),
            ({"kind": "distance", "code": "steane", "max_trial": 5}, "batch"),
            ({"kind": "correction", "code": "steane", "max_errors": 1}, "normal"),
            ({"kind": "fixed-error", "code": "steane", "error_qubits": {"0": "X"}}, "normal"),
        ]
        outcomes: list = [None] * len(specs)

        def run_client(index: int, task: dict, lane: str) -> None:
            try:
                client = harness.client(api_key=f"client-{index}")
                job = client.submit(task, lane=lane)
                lines = list(client.events(job["id"], raw=True))
                final = client.job(job["id"])
                outcomes[index] = (lines, final)
            except BaseException as error:  # noqa: BLE001 - relayed to the test
                outcomes[index] = error

        threads = [
            threading.Thread(target=run_client, args=(i, task, lane))
            for i, (task, lane) in enumerate(specs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        for outcome in outcomes:
            assert not isinstance(outcome, BaseException), outcome
            assert outcome is not None, "a client never finished"

        all_lines = [line for lines, _ in outcomes for line in lines]
        num_events, counts, errors = validate_stream(all_lines)
        assert errors == []
        assert num_events >= 3 * len(specs)
        assert counts["JobSubmitted"] == len(specs)
        assert counts.get("JobCompleted", 0) == len(specs)
        for _, final in outcomes:
            assert final["status"] == "succeeded"


class TestDrain:
    def test_drain_cancels_inflight_with_shutdown_reason(self, hold_jobs):
        # The second job is held past the 0.2 s grace window.
        hold_jobs(after=1)
        with ServiceHarness(drain_grace=0.2) as harness:
            client = harness.client()
            quick = client.submit({"kind": "correction", "code": "steane"})
            list(client.events(quick["id"]))  # finished before the drain
            slow = client.submit({"kind": "distance", "code": "surface-5"})
            harness.stop()
        summary = harness.summary
        assert summary is not None
        assert summary["orphaned"] == 0
        job = harness.service.drain.get(slow["id"])
        assert job.status is JobStatus.CANCELLED
        assert job.cancel_reason == "shutdown"
        done = harness.service.drain.get(quick["id"])
        assert done.status is JobStatus.SUCCEEDED

    def test_draining_rejects_new_jobs_with_503(self):
        with ServiceHarness() as harness:
            client = harness.client()
            # flip the drain flag from the server loop, keep the socket open
            harness._loop.call_soon_threadsafe(
                setattr, harness.service.drain, "_draining", True
            )
            time.sleep(0.1)
            health = None
            try:
                client.healthz()
            except ServiceError as error:
                health = error
            assert health is not None and health.status == 503
            assert health.payload["status"] == "draining"
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "correction", "code": "steane"})
            assert excinfo.value.status == 503
            # un-flip the flag so the context-exit drain runs normally
            # (begin_drain treats an already-set flag as "drain in progress")
            harness._loop.call_soon_threadsafe(
                setattr, harness.service.drain, "_draining", False
            )
            time.sleep(0.1)


class TestClauseStore:
    def test_stats_carry_store_hits_and_a_worker_table(self, tmp_path):
        store_dir = str(tmp_path / "store")
        with ServiceHarness(clause_store=store_dir) as harness:
            client = harness.client()
            job = client.submit({"kind": "correction", "code": "steane"})
            list(client.events(job["id"]))
            stats = client.stats()["resources"]
            assert "store" in stats
            assert stats["store"]["misses"] >= 1  # first contact is cold
            assert stats["warm_misses"] >= 1
            # One row per worker, plus one queue depth for the shared queue.
            assert [row["lane"] for row in stats["lanes"]] == list(range(4))
            assert all(
                set(row) == {"lane", "jobs_completed", "busy_seconds"}
                for row in stats["lanes"]
            )
            assert sum(row["jobs_completed"] for row in stats["lanes"]) == 1
            assert stats["queue_depth"] == 0
            harness.stop()

        # A restarted replica over the same directory warm-starts: the
        # drain flushed the learnt clauses into the shared sqlite file.
        with ServiceHarness(clause_store=store_dir) as harness:
            client = harness.client()
            job = client.submit({"kind": "correction", "code": "steane"})
            lines = list(client.events(job["id"], raw=True))
            _, counts, errors = validate_stream(lines)
            assert errors == [] and counts["JobCompleted"] == 1
            stats = client.stats()["resources"]
            assert stats["store"]["hits"] >= 1
            assert stats["warm_hits"] >= 1
            assert stats["warm_absorbed"] > 0


class TestJobRegistryBound:
    """The service forgets finished jobs beyond ``KEPT_FINISHED_JOBS``,
    oldest-finished first, together with their idempotency keys."""

    def test_registry_keeps_live_jobs_and_the_newest_finished(self):
        from repro.api import CorrectionTask
        from repro.api.jobs import Job
        from repro.service.drain import KEPT_FINISHED_JOBS, DrainCoordinator

        registry = DrainCoordinator()
        live = Job("job-live", CorrectionTask(code="steane"))
        registry.track(live, "key-live")
        total = KEPT_FINISHED_JOBS + 44
        for index in range(total):
            job = Job(f"job-{index}", CorrectionTask(code="steane"))
            registry.track(job, f"key-{index}")
            job._finish_cancelled("cancelled")
        # Pruning happens on the next submission.
        registry.track(Job("job-next", CorrectionTask(code="steane")))
        assert len(registry.jobs()) == KEPT_FINISHED_JOBS + 2
        assert registry.get("job-live") is live
        assert registry.replay("key-live") is live
        oldest_kept = total - KEPT_FINISHED_JOBS
        assert registry.get(f"job-{oldest_kept - 1}") is None
        assert registry.replay(f"key-{oldest_kept - 1}") is None
        assert registry.get(f"job-{oldest_kept}") is not None
        assert registry.replay(f"key-{total - 1}") is registry.get(f"job-{total - 1}")
        assert len(registry._idempotency) == KEPT_FINISHED_JOBS + 1

    def test_evicted_job_is_404_and_its_key_makes_a_fresh_job(self, monkeypatch):
        from repro.service import drain

        monkeypatch.setattr(drain, "KEPT_FINISHED_JOBS", 2)
        with ServiceHarness() as harness:
            client = harness.client(api_key="registry")
            spec = {"kind": "detection", "code": "steane"}
            first = client.submit(spec, idempotency_key="key-0")
            list(client.events(first["id"]))
            for index in (1, 2):
                job = client.submit(spec, idempotency_key=f"key-{index}")
                list(client.events(job["id"]))
            # Three finished jobs; this submission forgets the oldest.
            newest = client.submit(spec)
            list(client.events(newest["id"]))
            with pytest.raises(ServiceError) as excinfo:
                client.job(first["id"])
            assert excinfo.value.status == 404
            fresh = client.submit(spec, idempotency_key="key-0")
            assert fresh["id"] != first["id"]
            assert "deduplicated" not in fresh
            list(client.events(fresh["id"]))
            # A key whose job is still kept replays it.
            replayed = client.submit(spec, idempotency_key="key-2")
            assert replayed.get("deduplicated") is True
