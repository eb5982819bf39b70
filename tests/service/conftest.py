"""Shared service-test fixtures."""

import pytest

from repro import faults


@pytest.fixture
def hold_jobs():
    """Hold one job on its lane so a test can race it deterministically.

    Arming returns the plan: a delay-mode rule on the ``lane.crash`` point
    sleeps ``delay`` seconds in the lane thread right after the job is
    marked running and before it compiles, so the job is still in flight
    when the test's cancel, quota check or drain arrives; a cancel lands as
    soon as the hold ends.  ``after`` skips that many jobs first.  Fault
    hooks bind when the engine is built, so arm before constructing the
    service.  The plan is disarmed on teardown.
    """

    def arm(delay: float = 1.0, after: int = 0) -> faults.FaultPlan:
        return faults.install({"faults": [
            {"point": "lane.crash", "mode": "delay", "delay": delay, "after": after},
        ]})

    yield arm
    faults.disarm()
