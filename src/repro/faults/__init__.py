"""Deterministic fault injection: failure as a first-class, testable input.

``REPRO_FAULT_PLAN`` (inline JSON, or a path to a JSON file) arms a seeded
:class:`FaultPlan` of scoped injection points; :class:`~repro.api.engine.Engine`
accepts the same spec through ``fault_plan=``.  Each *fault point* names a
place in the stack where the plan can deterministically misbehave:

==================  ========================================================
``store.read``      a clause-store read raises ``sqlite3.OperationalError``
``store.write``     a clause-store write raises ``sqlite3.OperationalError``
``lane.crash``      a dispatcher lane thread dies mid-job (BaseException
                    that escapes the per-job guard, exercising the lane
                    supervisor)
``pool.kill``       every worker of a live process pool (split check or
                    ``run_many``) is SIGKILLed (exercising the pool
                    rebuild-and-retry path)
``socket.reset``    the server aborts a chunked NDJSON stream mid-flight
``socket.truncate`` the server closes a chunked stream without the final
                    ``0\\r\\n\\r\\n`` chunk
``loop.stall``      the server's event loop blocks for ``delay`` seconds
                    (the bug class the sanitize watchdog counts)
==================  ========================================================

The plan spec is ``{"seed": int?, "log": path?, "faults": [rule, ...]}``
where each rule is::

    {"point": "store.write",   # which fault point
     "times": 3,               # fire on this many matching hits (default 1)
     "after": 0,               # skip this many matching hits first
     "delay": 0.0,             # seconds to sleep when firing
     "mode": "error",          # "error" (default) or "delay" (sleep only;
                               # inferred when only "delay" is given)
     "match": "",              # substring the hit detail must contain
     "probability": 1.0}       # per-hit firing odds, decided by the seeded
                               # RNG (deterministic for a fixed seed + hit
                               # sequence)

Zero cost when disarmed, mirroring :mod:`repro.sanitize`: every call site
holds ``self._fault = faults.hook("<scope>")`` which is ``None`` without an
armed plan targeting that scope, so the production hot path pays one
attribute load and a ``None`` check.  Firing decisions are counter-based
(``after``/``times`` over the per-rule hit sequence), so a fixed plan against
a deterministic workload injects the same faults at the same places on every
run — the property the chaos tests and the CI ``chaos-smoke`` job rely on.

Every firing is recorded on :attr:`FaultPlan.fired` and appended (one JSON
object per line) to the plan's ``log`` file when configured, so a chaos run
leaves an auditable trail of exactly which faults struck where.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

__all__ = [
    "ENV_PLAN",
    "FaultHook",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InjectedLaneCrash",
    "active",
    "disarm",
    "enabled",
    "hook",
    "install",
]

ENV_PLAN = "REPRO_FAULT_PLAN"


class InjectedFault(Exception):
    """A failure injected by the armed :class:`FaultPlan`."""


class InjectedLaneCrash(BaseException):
    """An injected lane-thread death.

    Deliberately a ``BaseException``: it must escape the dispatcher's
    per-job ``except Exception`` guard (which maps execution errors to
    ``JobFailed`` and keeps the lane alive) so the *lane supervisor* path —
    crashed thread, stranded heap — is what gets exercised.
    """


class FaultRule:
    """One injection rule: a fault point plus its firing schedule."""

    __slots__ = (
        "point", "times", "after", "delay", "mode", "match", "probability",
        "hits", "fired",
    )

    def __init__(
        self,
        point: str,
        *,
        times: int = 1,
        after: int = 0,
        delay: float = 0.0,
        mode: str | None = None,
        match: str = "",
        probability: float = 1.0,
    ):
        if not point or "." not in point:
            raise ValueError(f"fault point must look like 'scope.op', got {point!r}")
        if mode is None:
            mode = "delay" if delay else "error"
        if mode not in ("error", "delay"):
            raise ValueError(f"fault mode must be 'error' or 'delay', got {mode!r}")
        self.point = point
        self.times = int(times)
        self.after = int(after)
        self.delay = float(delay)
        self.mode = mode
        self.match = str(match)
        self.probability = float(probability)
        self.hits = 0
        self.fired = 0

    def to_dict(self) -> dict:
        return {
            "point": self.point, "times": self.times, "after": self.after,
            "delay": self.delay, "mode": self.mode, "match": self.match,
            "probability": self.probability, "hits": self.hits,
            "fired": self.fired,
        }


class FaultPlan:
    """A seeded, counter-scheduled set of :class:`FaultRule` injections.

    Thread-safe: hit counters and the firing log are guarded by one lock
    (rules fire from lane threads, the event loop and client threads alike);
    the optional ``delay`` sleep happens outside it.
    """

    def __init__(
        self,
        faults,
        *,
        seed: int = 0,
        log_path: str | None = None,
    ):
        self.rules: list[FaultRule] = []
        for rule in faults:
            self.rules.append(rule if isinstance(rule, FaultRule) else FaultRule(
                rule["point"],
                times=rule.get("times", 1),
                after=rule.get("after", 0),
                delay=rule.get("delay", 0.0),
                mode=rule.get("mode"),
                match=rule.get("match", ""),
                probability=rule.get("probability", 1.0),
            ))
        self.seed = int(seed)
        self.log_path = log_path
        #: every firing, in order: {"seq", "point", "detail", "hit", "mode"}
        self.fired: list[dict] = []
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec) -> "FaultPlan":
        """Build a plan from a dict, inline JSON text, or a JSON file path."""
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            if not text.startswith("{"):
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("a fault plan spec must be a JSON object")
        return cls(
            spec.get("faults", ()),
            seed=spec.get("seed", 0),
            log_path=spec.get("log"),
        )

    # ------------------------------------------------------------------
    def targets(self, scope: str) -> bool:
        """Whether any rule targets a point under ``scope`` (e.g. "store")."""
        prefix = scope + "."
        return any(rule.point.startswith(prefix) for rule in self.rules)

    def fire(self, point: str, detail: str = "") -> FaultRule | None:
        """Count a hit on ``point``; return the rule to enact, if one fires.

        Delay-mode rules sleep here and keep evaluating (latency composes
        with errors); the first error-mode rule that fires is returned for
        the call site to enact.  ``None`` means proceed normally.
        """
        error_rule: FaultRule | None = None
        sleep_for = 0.0
        with self._lock:
            for rule in self.rules:
                if rule.point != point:
                    continue
                if rule.match and rule.match not in detail:
                    continue
                hit = rule.hits
                rule.hits += 1
                if hit < rule.after or rule.fired >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                self._record(rule, detail, hit)
                sleep_for += rule.delay
                if rule.mode == "error" and error_rule is None:
                    error_rule = rule
        if sleep_for > 0.0:
            time.sleep(sleep_for)
        return error_rule

    def _record(self, rule: FaultRule, detail: str, hit: int) -> None:
        record = {
            "seq": len(self.fired), "point": rule.point, "detail": detail,
            "hit": hit, "mode": rule.mode, "delay": rule.delay,
        }
        self.fired.append(record)
        if self.log_path:
            try:
                with open(self.log_path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            except OSError:
                # The log is an audit trail, not a dependency: a chaos run on
                # a read-only filesystem still injects, it just logs less.
                self.log_path = None

    def stats(self) -> dict:
        """Plan counters: per-rule hit/fired totals plus the firing count."""
        with self._lock:
            return {
                "seed": self.seed,
                "fired": len(self.fired),
                "rules": [rule.to_dict() for rule in self.rules],
            }


class FaultHook:
    """A call site's handle on the armed plan, scoped to one point prefix."""

    __slots__ = ("scope", "plan")

    def __init__(self, scope: str, plan: FaultPlan):
        self.scope = scope
        self.plan = plan

    def fire(self, op: str, detail: str = "") -> FaultRule | None:
        return self.plan.fire(f"{self.scope}.{op}", detail)


def _plan_from_env() -> FaultPlan | None:
    spec = os.environ.get(ENV_PLAN, "").strip()
    if not spec:
        return None
    return FaultPlan.parse(spec)


_PLAN: FaultPlan | None = _plan_from_env()


def enabled() -> bool:
    """Whether a fault plan is armed (module function, monkeypatchable)."""
    return _PLAN is not None


def active() -> FaultPlan | None:
    """The armed plan, or None."""
    return _PLAN


def install(plan) -> FaultPlan:
    """Arm ``plan`` (a :class:`FaultPlan`, dict spec, JSON text or path)
    process-wide; returns the installed plan.  Objects built *after* the
    install pick up their hooks; existing objects keep their (None) hooks —
    the same construct-after-arming discipline as ``repro.sanitize``."""
    global _PLAN
    _PLAN = FaultPlan.parse(plan)
    return _PLAN


def disarm() -> None:
    """Disarm fault injection (hooks created afterwards are None again)."""
    global _PLAN
    _PLAN = None


def hook(scope: str) -> FaultHook | None:
    """A :class:`FaultHook` when an armed plan targets ``scope``, else None.

    The None case is the entire disarmed cost: call sites keep the result
    on an attribute and guard with ``if self._fault is not None``.
    """
    plan = _PLAN
    if plan is None or not plan.targets(scope):
        return None
    return FaultHook(scope, plan)
