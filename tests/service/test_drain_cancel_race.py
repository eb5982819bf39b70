"""Drain vs. client cancel: the race has a deterministic answer.

A SIGTERM drain and a client ``DELETE`` can hit the same job in either
order.  The reason precedence in ``Job.request_cancel`` makes the outcome
order-independent: the stream ends with exactly one terminal event and it
reports ``"cancelled"`` (the client's intent), never an arrival-order
dependent ``"shutdown"``.
"""

import threading

import pytest

from repro.api import CorrectionTask, Job
from repro.service import VerificationService

TERMINALS = ("JobCompleted", "JobCancelled", "JobFailed")


class TestReasonPrecedence:
    def _job(self) -> Job:
        return Job("job-race", CorrectionTask(code="steane"))

    def test_first_request_always_sets_the_reason(self):
        job = self._job()
        assert job.request_cancel(reason="shutdown") is True
        assert job._requested_reason == "shutdown"

    def test_client_cancel_overrides_a_prior_drain(self):
        job = self._job()
        job.request_cancel(reason="shutdown")
        job.request_cancel(reason="cancelled")
        assert job._requested_reason == "cancelled"

    def test_drain_does_not_demote_a_client_cancel(self):
        job = self._job()
        job.request_cancel(reason="cancelled")
        job.request_cancel(reason="shutdown")
        assert job._requested_reason == "cancelled"

    def test_deadline_outranks_shutdown_but_not_cancelled(self):
        job = self._job()
        job.request_cancel(reason="deadline")
        job.request_cancel(reason="shutdown")
        assert job._requested_reason == "deadline"
        job.request_cancel(reason="cancelled")
        assert job._requested_reason == "cancelled"

    def test_equal_precedence_keeps_the_first_reason(self):
        job = self._job()
        job.request_cancel(reason="deadline")
        job.request_cancel(reason="budget")
        assert job._requested_reason == "deadline"

    def test_terminal_event_reports_the_winning_reason(self):
        job = self._job()
        job.request_cancel(reason="shutdown")
        job.request_cancel(reason="cancelled")
        job._finish_cancelled("cancelled")
        terminal = list(job.events())[-1]
        assert type(terminal).__name__ == "JobCancelled"
        assert terminal.reason == "cancelled"


class RaceHarness:
    """A live service whose stop can be requested without joining yet."""

    def __init__(self):
        self.service = VerificationService(port=0, drain_grace=5.0)
        self.summary = None
        self._ready = threading.Event()
        self._loop = None
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

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "service failed to start"
        return self

    def request_stop(self):
        try:
            self._loop.call_soon_threadsafe(self.service.request_stop)
        except RuntimeError:
            pass  # loop already closed: the server has fully drained

    def join(self):
        self._thread.join(60)
        assert not self._thread.is_alive(), "service failed to drain"

    def __exit__(self, *exc_info):
        self.request_stop()
        self.join()

    def client(self, **kwargs):
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.service.port, **kwargs)


@pytest.mark.parametrize("order", ["cancel-then-drain", "drain-then-cancel"])
def test_drain_and_delete_race_reports_cancelled(order, hold_jobs):
    # The job is held on its lane until both the DELETE and the drain have
    # arrived, so neither can find it already finished.
    hold_jobs()
    with RaceHarness() as harness:
        client = harness.client(api_key="race", retries=3, backoff=0.01)
        job = client.submit({"kind": "distance", "code": "surface-5"})

        # Open the stream before the race so it survives the server's exit
        # (streams opened pre-drain are served through to their terminal
        # event).
        stream = client.events(job["id"])
        events = [next(stream)]
        assert events[0]["event"] == "JobSubmitted"

        if order == "cancel-then-drain":
            client.cancel(job["id"])
            harness.request_stop()
        else:
            harness.request_stop()
            client.cancel(job["id"])

        events.extend(stream)
        terminals = [e for e in events if e["event"] in TERMINALS]
        assert len(terminals) == 1, events
        assert terminals[0]["event"] == "JobCancelled"
        assert terminals[0]["reason"] == "cancelled"

        harness.join()
        # The drain saw the job already terminal (the client's cancel), so
        # nothing was shutdown-cancelled and nothing was orphaned.
        assert harness.summary["orphaned"] == 0
        assert harness.summary["cancelled"] == 0
