"""Opt-in runtime sanitizers for the project's concurrency contracts.

``REPRO_SANITIZE=1`` arms cheap dynamic assertions that complement the
static rules in :mod:`repro.analysis`:

* **single-entry guards** on claim-protected objects (``SolveSession.check``,
  ``CodeContext`` entry points): the per-code claim promises each session
  is driven by one thread *at a time* (sessions legally migrate between
  caller and worker threads across jobs — the invariant is no concurrent
  entry, not a fixed owner);
* a **claim-held check** where the claim requirement crosses a function
  boundary and the static rule cannot see it (``Engine._execute`` must run
  under its task's code claim);
* an **event-loop watchdog** in the service: a daemon thread heartbeats
  the loop and counts stalls longer than the threshold — a blocked loop
  is exactly the bug class REPRO-ASYNC guards against statically.

When the environment variable is unset every hook collapses to a
``None`` check (guard factories return ``None``), so the production hot
path pays one attribute load and nothing else.
"""

from __future__ import annotations

import functools
import logging
import os
import threading

__all__ = [
    "ENABLED",
    "EntryGuard",
    "LoopWatchdog",
    "SanitizerError",
    "assert_claimed",
    "enabled",
    "entry_guarded",
    "new_entry_guard",
    "new_loop_watchdog",
]

log = logging.getLogger("repro.sanitize")

ENABLED = os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
    "", "0", "false", "no", "off",
)


def enabled() -> bool:
    """The live switch — module attribute so tests can monkeypatch it."""
    return ENABLED


class SanitizerError(AssertionError):
    """A concurrency contract was violated at runtime."""


class EntryGuard:
    """Detects concurrent entry into a claim-protected object.

    Reentrant for the owning thread (a context's entry point may call the
    session's); raises :class:`SanitizerError` when a second thread enters
    while the first is still inside — the race the code claim must prevent.
    """

    __slots__ = ("label", "_lock", "_owner", "_depth")

    def __init__(self, label: str):
        self.label = label
        self._lock = threading.Lock()
        self._owner: int | None = None
        self._depth = 0

    def __enter__(self) -> "EntryGuard":
        me = threading.get_ident()
        with self._lock:
            if self._owner is None or self._owner == me:
                self._owner = me
                self._depth += 1
                return self
            other = self._owner
        raise SanitizerError(
            f"sanitizer: concurrent entry into {self.label}: thread {me} "
            f"entered while thread {other} is still inside — code claim "
            "violated (two threads driving one session?)"
        )

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth <= 0:
                self._owner = None
                self._depth = 0


def new_entry_guard(label: str) -> EntryGuard | None:
    """An :class:`EntryGuard` when sanitizing, else None (zero-cost hook)."""
    return EntryGuard(label) if enabled() else None


def entry_guarded(method):
    """Wrap an instance method in the object's ``_entry_guard`` (when armed).

    The decorated class creates ``self._entry_guard`` via
    :func:`new_entry_guard` in ``__init__``; with sanitizing off the guard
    is None and the wrapper is a single extra call.
    """
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        guard = self._entry_guard
        if guard is None:
            return method(self, *args, **kwargs)
        with guard:
            return method(self, *args, **kwargs)
    return wrapper


def assert_claimed(claimed, key, what: str) -> None:
    """Raise unless ``key`` is in the ``claimed`` set (held by some thread).

    No-op when sanitizing is off, so call sites can invoke it
    unconditionally.
    """
    if enabled() and key not in claimed:
        raise SanitizerError(f"sanitizer: {what} requires the claim on {key!r}")


class LoopWatchdog:
    """Counts event-loop stalls: heartbeats posted from a daemon thread.

    Each beat schedules a callback with ``call_soon_threadsafe`` and waits
    ``threshold`` seconds for the loop to run it; a miss increments
    ``stalls`` and logs the offence.  Detection only — an exception cannot
    usefully be raised *into* a blocked loop from outside.
    """

    def __init__(self, loop, threshold: float = 1.0, interval: float = 0.25):
        self.loop = loop
        self.threshold = threshold
        self.interval = interval
        self.stalls = 0
        self.beats = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "LoopWatchdog":
        self._thread = threading.Thread(
            target=self._run, name="repro-sanitize-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.threshold + 1.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            beat = threading.Event()
            try:
                self.loop.call_soon_threadsafe(beat.set)
            except RuntimeError:  # loop closed under us: we're done
                return
            self.beats += 1
            if not beat.wait(self.threshold):
                self.stalls += 1
                log.warning(
                    "sanitizer: event loop blocked > %.2fs (stall #%d) — "
                    "some coroutine is doing synchronous work on the loop",
                    self.threshold, self.stalls,
                )


def new_loop_watchdog(loop, threshold: float = 1.0) -> LoopWatchdog | None:
    """A started :class:`LoopWatchdog` when sanitizing, else None."""
    if not enabled():
        return None
    return LoopWatchdog(loop, threshold=threshold).start()
