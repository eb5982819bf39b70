"""Concurrent mixed-code traffic through the real-socket service.

The sharded dispatcher's contract, asserted end to end: N clients hammering
distinct codes get exactly the verdicts a serial engine produces, every
``SolveSession`` is only ever touched by one thread (a reentrancy guard
wraps ``SolveSession.check`` for the duration of the test), and the new
wire surface — submit-and-stream, per-lane stats, per-key admission
counters, lane ids in access logs — behaves as documented.
"""

import json
import logging
import threading
import time

import pytest

from repro.api import CorrectionTask, DetectionTask, Engine
from repro.api.events import validate_stream
from repro.smt.interface import SolveSession

from tests.service.test_service import ServiceHarness

#: distinct-code task specs for the concurrent sweep, plus the blocking
#: serial verdicts they must reproduce
MIXED_SPECS = [
    {"kind": "correction", "code": "steane"},
    {"kind": "correction", "code": "five-qubit"},
    {"kind": "correction", "code": "shor"},
    {"kind": "correction", "code": "surface-3"},
    {"kind": "correction", "code": "surface-5", "max_errors": 1},
    {"kind": "detection", "code": "color-832"},
    {"kind": "correction", "code": "gottesman-8"},
    {"kind": "detection", "code": "iceberg-6"},
]


def _serial_verdicts() -> dict[str, bool]:
    engine = Engine(backend="serial", lanes=1)
    verdicts = {}
    for spec in MIXED_SPECS:
        if spec["kind"] == "correction":
            task = CorrectionTask(
                code=spec["code"], max_errors=spec.get("max_errors")
            )
        else:
            task = DetectionTask(code=spec["code"])
        verdicts[spec["code"]] = engine.run(task).verified
    engine.close()
    return verdicts


class _ReentrancyGuard:
    """Monkeypatch wrapper asserting no SolveSession is entered twice at
    once, and recording which threads drove each session."""

    def __init__(self):
        self.lock = threading.Lock()
        self.active: set[int] = set()
        self.threads_by_session: dict[int, set[str]] = {}
        self.violations: list[str] = []

    def install(self, monkeypatch):
        original = SolveSession.check
        guard = self

        def checked(session, *args, **kwargs):
            key = id(session)
            with guard.lock:
                if key in guard.active:
                    guard.violations.append(
                        f"session {key:#x} entered concurrently"
                    )
                guard.active.add(key)
                guard.threads_by_session.setdefault(key, set()).add(
                    threading.current_thread().name
                )
            try:
                return original(session, *args, **kwargs)
            finally:
                with guard.lock:
                    guard.active.discard(key)

        monkeypatch.setattr(SolveSession, "check", checked)
        return self


class TestConcurrentMixedCodes:
    def test_verdicts_match_serial_and_sessions_stay_single_threaded(
        self, monkeypatch
    ):
        expected = _serial_verdicts()
        guard = _ReentrancyGuard().install(monkeypatch)
        outcomes: list = [None] * len(MIXED_SPECS)
        with ServiceHarness(lanes=4) as harness:
            # Solve surface-3 to completion first, so the concurrent sweep
            # also re-selects a task guard on a context already live on its
            # lane.
            warm = harness.client(api_key="warmup")
            _, warm_events = warm.submit_stream(
                {"kind": "correction", "code": "surface-3"}
            )
            assert list(warm_events)[-1]["event"] == "JobCompleted"

            def run_client(index: int, spec: dict) -> None:
                try:
                    client = harness.client(api_key=f"mixed-{index}")
                    job_id, events = client.submit_stream(spec, raw=True)
                    outcomes[index] = (job_id, list(events))
                except BaseException as error:  # noqa: BLE001 - relayed
                    outcomes[index] = error

            threads = [
                threading.Thread(target=run_client, args=(i, spec))
                for i, spec in enumerate(MIXED_SPECS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)

            for outcome in outcomes:
                assert not isinstance(outcome, BaseException), outcome
                assert outcome is not None, "a client never finished"

            # Verdicts: byte-identical to the serial baseline.
            for spec, (job_id, lines) in zip(MIXED_SPECS, outcomes):
                final = harness.client().job(job_id)
                assert final["status"] == "succeeded", (spec, final)
                assert final["result"]["verified"] == expected[spec["code"]], spec

            # Streams: valid against the pinned schema, one submit +
            # one terminal event per job.
            all_lines = [line for _, lines in outcomes for line in lines]
            _, counts, errors = validate_stream(all_lines)
            assert errors == []
            assert counts["JobSubmitted"] == len(MIXED_SPECS)
            assert counts["JobCompleted"] == len(MIXED_SPECS)

            # The lane table saw real concurrency: jobs completed on more
            # than one lane (8 distinct shard keys over 4 lanes cannot
            # collapse onto one).
            stats = harness.client().stats()
            lanes = stats["resources"]["lanes"]
            busy = [entry for entry in lanes if entry["jobs_completed"]]
            assert len(busy) > 1
            assert sum(entry["jobs_completed"] for entry in lanes) >= len(MIXED_SPECS)

            # Per-key admission counters survive the drained load.  A job's
            # admission slot is released by a done-callback that runs just
            # after its terminal event is streamed, so wait for the last
            # release before reading the counters.
            deadline = time.monotonic() + 30
            while stats["admission"]["inflight_by_key"] and time.monotonic() < deadline:
                time.sleep(0.01)
                stats = harness.client().stats()
            admission = stats["admission"]
            for index in range(len(MIXED_SPECS)):
                assert admission["admitted_by_key"][f"mixed-{index}"] == 1
                assert admission["completed_by_key"][f"mixed-{index}"] == 1
            assert admission["inflight_by_key"] == {}

        # The invariant the whole design hangs on.
        assert guard.violations == []
        multi = {
            key: names
            for key, names in guard.threads_by_session.items()
            if len(names) > 1
        }
        assert multi == {}, f"sessions touched by multiple threads: {multi}"
        # ... and the solving threads really were named lane threads.
        lane_threads = {
            name
            for names in guard.threads_by_session.values()
            for name in names
        }
        assert lane_threads
        assert all(name.startswith("repro-lane-") for name in lane_threads)


class TestSubmitStream:
    def test_one_connection_submit_and_verdict(self):
        with ServiceHarness(lanes=2) as harness:
            client = harness.client(api_key="stream")
            job_id, events = client.submit_stream(
                {"kind": "correction", "code": "steane"}
            )
            lines = list(events)
            assert job_id.startswith("job-")
            assert lines[0]["event"] == "JobSubmitted"
            assert lines[-1]["event"] == "JobCompleted"
            assert lines[-1]["verified"] is True
            # the job is also addressable afterwards, as usual
            assert harness.client().job(job_id)["status"] == "succeeded"

    def test_finished_job_replay_uses_the_snapshot_path(self):
        with ServiceHarness(lanes=2) as harness:
            client = harness.client()
            job = client.submit({"kind": "correction", "code": "five-qubit"})
            first = list(client.events(job["id"], raw=True))
            # Replay of a terminal job: identical bytes, still schema-valid.
            second = list(client.events(job["id"], raw=True))
            assert second == first
            _, _, errors = validate_stream(second)
            assert errors == []

    def test_keep_alive_reuses_one_socket_across_jobs(self):
        with ServiceHarness(lanes=2) as harness:
            client = harness.client(api_key="pump", keep_alive=True)
            connects = 0
            original = client._connect

            def counting_connect():
                nonlocal connects
                connects += 1
                return original()

            client._connect = counting_connect
            try:
                for code in ("steane", "five-qubit", "steane"):
                    _, events = client.submit_stream(
                        {"kind": "correction", "code": code}
                    )
                    lines = list(events)
                    assert lines[-1]["event"] == "JobCompleted"
            finally:
                client.close()
            assert connects == 1

    def test_keep_alive_recovers_from_a_stale_socket(self):
        with ServiceHarness(lanes=2) as harness:
            client = harness.client(keep_alive=True)
            _, events = client.submit_stream({"kind": "correction", "code": "steane"})
            assert list(events)[-1]["event"] == "JobCompleted"
            # Sabotage the pooled socket as a closed-by-server stand-in: the
            # next submit must transparently retry on a fresh connection.
            assert client._conn is not None
            client._conn.sock.close()
            _, events = client.submit_stream({"kind": "correction", "code": "steane"})
            assert list(events)[-1]["event"] == "JobCompleted"
            client.close()

    def test_bad_stream_flag_is_400(self):
        with ServiceHarness(lanes=2) as harness:
            from repro.service import ServiceError

            with pytest.raises(ServiceError) as excinfo:
                harness.client().request(
                    "POST",
                    "/jobs",
                    {"task": {"kind": "correction", "code": "steane"}, "stream": 1},
                )
            assert excinfo.value.status == 400


class TestLaneObservability:
    def test_access_log_records_carry_the_job_lane(self):
        records: list[dict] = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(json.loads(record.getMessage()))

        access = logging.getLogger("repro.service.access")
        handler = Capture()
        access.addHandler(handler)
        access.setLevel(logging.INFO)
        try:
            with ServiceHarness(lanes=4) as harness:
                client = harness.client(api_key="observer")
                job = client.submit({"kind": "correction", "code": "steane"})
                list(client.events(job["id"]))
        finally:
            access.removeHandler(handler)
        submits = [r for r in records if r.get("method") == "POST" and r["status"] == 201]
        assert submits
        assert submits[0]["job_id"] == job["id"]
        assert isinstance(submits[0]["job_lane"], int)
        streams = [r for r in records if r.get("path", "").endswith("/events")]
        assert streams and streams[0]["job_lane"] == submits[0]["job_lane"]

    def test_solver_stats_events_carry_the_lane_over_the_wire(self):
        with ServiceHarness(lanes=4) as harness:
            client = harness.client()
            _, events = client.submit_stream({"kind": "correction", "code": "shor"})
            solver = [e for e in events if e["event"] == "SolverStats"]
            assert solver
            assert all(isinstance(e["lane"], int) and e["lane"] >= 0 for e in solver)
