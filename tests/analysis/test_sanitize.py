"""The dynamic sanitizer: entry guards, claim-held asserts, loop watchdog.

These tests arm the sanitizer explicitly (monkeypatching ``ENABLED``), so
they pass both in the plain suite and in the REPRO_SANITIZE=1 CI job.
"""

import asyncio
import threading
import time

import pytest

from repro import sanitize
from repro.classical.expr import BoolVar
from repro.smt.interface import SolveSession


def test_entry_guard_reentrant_for_owner():
    guard = sanitize.EntryGuard("test")
    with guard:
        with guard:
            pass
    with guard:  # fully released after nested exit
        pass


def test_entry_guard_detects_concurrent_entry():
    guard = sanitize.EntryGuard("test")
    entered = threading.Event()
    release = threading.Event()

    def occupant():
        with guard:
            entered.set()
            release.wait(5)

    thread = threading.Thread(target=occupant)
    thread.start()
    try:
        assert entered.wait(5)
        with pytest.raises(sanitize.SanitizerError, match="concurrent entry"):
            guard.__enter__()
    finally:
        release.set()
        thread.join()
    with guard:  # usable again once the occupant left
        pass


def test_session_guard_armed_only_when_enabled(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", False)
    assert SolveSession()._entry_guard is None
    monkeypatch.setattr(sanitize, "ENABLED", True)
    assert SolveSession()._entry_guard is not None


def test_session_check_raises_on_concurrent_entry(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", True)
    session = SolveSession(BoolVar("x"))
    entered = threading.Event()
    release = threading.Event()

    def occupant():
        with session._entry_guard:
            entered.set()
            release.wait(5)

    thread = threading.Thread(target=occupant)
    thread.start()
    try:
        assert entered.wait(5)
        with pytest.raises(sanitize.SanitizerError):
            session.check()
    finally:
        release.set()
        thread.join()
    assert session.check().status == "sat"  # session stays usable


def test_assert_claimed(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", True)
    claimed = set()
    with pytest.raises(sanitize.SanitizerError, match="claim"):
        sanitize.assert_claimed(claimed, "steane", "session access")
    claimed.add("steane")
    sanitize.assert_claimed(claimed, "steane", "session access")


def test_assert_claimed_noop_when_disabled(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", False)
    sanitize.assert_claimed(set(), "steane", "never checked")


def test_engine_claim_assert_fires(monkeypatch):
    from repro.api import CorrectionTask
    from repro.api.engine import Engine

    monkeypatch.setattr(sanitize, "ENABLED", True)
    engine = Engine()
    task = CorrectionTask(code="steane")
    try:
        with pytest.raises(sanitize.SanitizerError, match="claim"):
            # Calling _execute directly skips the code claim — exactly the
            # misuse the dynamic check exists to catch.
            engine._execute(task, engine.backend)
        assert engine.run(task).verified is True  # run() claims first
    finally:
        engine.close()


def _loop_in_thread():
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    return loop, thread


def test_watchdog_counts_a_blocked_loop():
    loop, thread = _loop_in_thread()
    watchdog = sanitize.LoopWatchdog(loop, threshold=0.2, interval=0.05).start()
    try:
        loop.call_soon_threadsafe(time.sleep, 0.8)  # deliberately block it
        deadline = time.monotonic() + 5.0
        while watchdog.stalls == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert watchdog.stalls >= 1
    finally:
        watchdog.stop()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


def test_watchdog_quiet_on_healthy_loop():
    loop, thread = _loop_in_thread()
    watchdog = sanitize.LoopWatchdog(loop, threshold=1.0, interval=0.05).start()
    try:
        time.sleep(0.4)
        assert watchdog.beats > 0
        assert watchdog.stalls == 0
    finally:
        watchdog.stop()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


def test_service_arms_watchdog_under_sanitize(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", True)

    async def scenario():
        from repro.service.server import VerificationService

        service = VerificationService(port=0)
        await service.start()
        try:
            assert service._watchdog is not None
            assert service._watchdog.loop is asyncio.get_running_loop()
        finally:
            await service.shutdown()
        assert service._watchdog is None

    asyncio.run(scenario())
