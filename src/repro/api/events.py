"""Typed, versioned execution events — the job API's streaming vocabulary.

Every observable step of a job's life is reified as an event dataclass that
serializes to one JSON object (one NDJSON line) carrying:

* ``event``          — the event type name (the class name);
* ``schema_version`` — the declared :data:`SCHEMA_VERSION`;
* ``job_id`` / ``seq`` — stamped by the owning :class:`~repro.api.jobs.Job`
  when the event is emitted; ``seq`` is contiguous per job, starting at 0.

Exactly one *terminal* event (:class:`JobCompleted`, :class:`JobCancelled`
or :class:`JobFailed`) ends every job's stream.

Stability policy: within one ``schema_version`` the emitted fields of every
event type only ever *gain* optional members; renaming or removing a field,
changing a type, or changing terminal-event semantics bumps the major
version.  One exception: an optional-when-zero counter whose producer is
gone may be dropped without a bump, since consumers already handle its
absence (``SolverStats.family_absorbed``/``store_absorbed`` went this way;
the validator below now flags an old stream that still carries them).
Consumers should ignore unknown event types and unknown fields.

The module doubles as the stream validator used in CI::

    python -m repro sweep --stream | python -m repro.api.events

reads NDJSON from stdin and checks every line against the declared schemas
(field presence, types, per-job ``seq`` contiguity, exactly one terminal
event per completed job), exiting non-zero on the first violation class.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import ClassVar, Mapping

from repro.smt.solver import nonzero

__all__ = [
    "SCHEMA_VERSION",
    "TIMING_FIELDS",
    "Event",
    "JobSubmitted",
    "TaskCompiled",
    "SubtaskStarted",
    "DistanceProbe",
    "SolverStats",
    "JobCompleted",
    "JobCancelled",
    "JobFailed",
    "EVENT_TYPES",
    "EVENT_SCHEMAS",
    "event_from_dict",
    "deterministic_view",
    "validate_event",
    "validate_stream",
    "main",
]

SCHEMA_VERSION = "1.0"

#: Fields whose values depend on wall-clock measurement; strip them (via
#: :func:`deterministic_view`) when comparing event streams for determinism.
TIMING_FIELDS = frozenset({"elapsed_seconds", "compile_seconds"})


@dataclass
class Event:
    """Base event: ``job_id``/``seq`` are stamped at emission time."""

    job_id: str = ""
    seq: int = -1

    TYPE: ClassVar[str] = "Event"
    TERMINAL: ClassVar[bool] = False

    def to_dict(self) -> dict:
        payload = {"event": self.TYPE, "schema_version": SCHEMA_VERSION}
        payload.update(asdict(self))
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False, default=str)


@dataclass
class JobSubmitted(Event):
    """The job entered the queue (always ``seq`` 0)."""

    task_kind: str = ""
    subject: str = ""
    priority: int = 0
    deadline: float | None = None

    TYPE: ClassVar[str] = "JobSubmitted"


@dataclass
class TaskCompiled(Event):
    """The task was lowered to its refutation formula (or compile-cache hit)."""

    task_kind: str = ""
    subject: str = ""
    cached: bool = False
    compile_seconds: float = 0.0

    TYPE: ClassVar[str] = "TaskCompiled"


@dataclass
class SubtaskStarted(Event):
    """One solver-facing unit of work is about to run (a probe, a solve)."""

    index: int = 0
    description: str = ""

    TYPE: ClassVar[str] = "SubtaskStarted"


@dataclass
class DistanceProbe(Event):
    """One window of a distance walk was decided.

    ``window`` is the ``[lo, hi]`` weight bracket still open when the probe
    was issued, ``bound`` the upper bound actually activated; on sat the
    witness's weight (``witness_weight``) clamps the next bracket.

    ``resumed_from`` is an *optional* member added by the clause store:
    when a walk picks up a checkpointed bracket instead of starting cold,
    the first probe carries ``{"lo", "hi", "probes"}`` describing the
    restored state; serialized only in that case, so streams from
    non-resumed walks keep the historical payload.
    """

    bound: int = 0
    window: list[int] | None = None
    sat: bool = False
    witness_weight: int | None = None
    conflicts: int = 0
    decisions: int = 0
    elapsed_seconds: float = 0.0
    resumed_from: dict | None = None

    TYPE: ClassVar[str] = "DistanceProbe"

    def to_dict(self) -> dict:
        payload = super().to_dict()
        if payload.get("resumed_from") is None:
            payload.pop("resumed_from", None)
        return payload


@dataclass
class SolverStats(Event):
    """Aggregate solver statistics for the job's solving phase.

    The search counters and the encoding size are always present.  The
    other counters are *optional* members, serialized only when nonzero
    (:func:`~repro.smt.solver.nonzero`): ``blocker_hits`` (watcher visits
    resolved by the cached blocker literal), ``heap_discards`` (lazily
    deleted decision-heap entries), ``binary_subsumed`` (learnt-clause
    literals removed by binary self-subsumption) and ``learnt_evicted``
    (learnt clauses deleted by clause-database reduction).  ``lane`` (the
    worker lane that ran the job) is serialized only for jobs dispatched
    through the sharded executor, never for blocking runs.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    num_variables: int = 0
    num_clauses: int = 0
    blocker_hits: int = 0
    heap_discards: int = 0
    binary_subsumed: int = 0
    learnt_evicted: int = 0
    lane: int = -1

    TYPE: ClassVar[str] = "SolverStats"

    _OPTIONAL_WHEN_ZERO: ClassVar[tuple[str, ...]] = (
        "blocker_hits", "heap_discards", "binary_subsumed", "learnt_evicted",
    )

    def to_dict(self) -> dict:
        payload = super().to_dict()
        lane = payload.pop("lane")
        payload.update(nonzero({name: payload.pop(name) for name in self._OPTIONAL_WHEN_ZERO}))
        if lane >= 0:
            payload["lane"] = lane
        return payload

    @classmethod
    def from_counters(cls, counters: Mapping[str, int], **extra) -> "SolverStats":
        """The event for a job's ``counters`` mapping plus ``extra`` fields;
        counters that are not event fields stay off the wire."""
        names = {f.name for f in fields(cls)}
        picked = {key: value for key, value in counters.items() if key in names}
        return cls(**{**picked, **extra})


@dataclass
class JobCompleted(Event):
    """Terminal: the task was decided; the full Result is on the job handle.

    ``resumed_from`` is an *optional* member mirroring the first
    :class:`DistanceProbe`'s resume marker (the checkpointed ``lo``/``hi``
    bracket and prior probe count a killed walk restarted from); serialized
    only for jobs that actually resumed.
    """

    verified: bool = False
    elapsed_seconds: float = 0.0
    resumed_from: dict | None = None

    TYPE: ClassVar[str] = "JobCompleted"
    TERMINAL: ClassVar[bool] = True

    def to_dict(self) -> dict:
        payload = super().to_dict()
        if payload.get("resumed_from") is None:
            payload.pop("resumed_from", None)
        return payload


@dataclass
class JobCancelled(Event):
    """Terminal: the job was cancelled (``reason``: cancelled / deadline /
    budget / shutdown) before producing a result."""

    reason: str = "cancelled"

    TYPE: ClassVar[str] = "JobCancelled"
    TERMINAL: ClassVar[bool] = True


@dataclass
class JobFailed(Event):
    """Terminal: the job raised; ``error`` is the stringified exception.

    ``reason`` classifies infrastructure failures — ``"lane_crash"`` when
    the lane supervisor failed the job because its dispatcher thread died
    (the task itself may be fine; clients may retry it under a fresh
    idempotency key).  Empty for ordinary execution errors, and omitted
    from the serialized form so pre-existing streams are byte-identical.
    """

    error: str = ""
    reason: str = ""

    TYPE: ClassVar[str] = "JobFailed"
    TERMINAL: ClassVar[bool] = True

    def to_dict(self) -> dict:
        payload = super().to_dict()
        if not payload.get("reason"):
            payload.pop("reason", None)
        return payload


EVENT_TYPES: dict[str, type[Event]] = {
    cls.TYPE: cls
    for cls in (
        JobSubmitted,
        TaskCompiled,
        SubtaskStarted,
        DistanceProbe,
        SolverStats,
        JobCompleted,
        JobCancelled,
        JobFailed,
    )
}

_NUMBER = (int, float)

#: Declarative per-type field schemas: name -> (allowed types, required).
#: The base fields (event, schema_version, job_id, seq) apply to every type.
EVENT_SCHEMAS: dict[str, dict[str, tuple[tuple[type, ...], bool]]] = {
    "JobSubmitted": {
        "task_kind": ((str,), True),
        "subject": ((str,), True),
        "priority": ((int,), True),
        "deadline": (_NUMBER + (type(None),), True),
    },
    "TaskCompiled": {
        "task_kind": ((str,), True),
        "subject": ((str,), True),
        "cached": ((bool,), True),
        "compile_seconds": (_NUMBER, True),
    },
    "SubtaskStarted": {
        "index": ((int,), True),
        "description": ((str,), True),
    },
    "DistanceProbe": {
        "bound": ((int,), True),
        "window": ((list, type(None)), True),
        "sat": ((bool,), True),
        "witness_weight": ((int, type(None)), True),
        "conflicts": ((int,), True),
        "decisions": ((int,), True),
        "elapsed_seconds": (_NUMBER, True),
        "resumed_from": ((dict,), False),
    },
    "SolverStats": {
        "conflicts": ((int,), True),
        "decisions": ((int,), True),
        "propagations": ((int,), True),
        "num_variables": ((int,), True),
        "num_clauses": ((int,), True),
        "blocker_hits": ((int,), False),
        "heap_discards": ((int,), False),
        "binary_subsumed": ((int,), False),
        "learnt_evicted": ((int,), False),
        "lane": ((int,), False),
    },
    "JobCompleted": {
        "verified": ((bool,), True),
        "elapsed_seconds": (_NUMBER, True),
        "resumed_from": ((dict,), False),
    },
    "JobCancelled": {
        "reason": ((str,), True),
    },
    "JobFailed": {
        "error": ((str,), True),
        "reason": ((str,), False),
    },
}


def event_from_dict(payload: dict) -> Event:
    """Reconstruct a typed event from its serialized form."""
    name = payload.get("event")
    cls = EVENT_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown event type {name!r}")
    known = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in payload.items() if key in known})


def deterministic_view(payload: dict) -> dict:
    """The event dict minus wall-clock fields, for stream-equality checks."""
    return {key: value for key, value in payload.items() if key not in TIMING_FIELDS}


def validate_event(payload) -> list[str]:
    """Schema-validate one deserialized event; returns a list of errors."""
    if not isinstance(payload, dict):
        return [f"event is not an object: {type(payload).__name__}"]
    errors: list[str] = []
    name = payload.get("event")
    schema = EVENT_SCHEMAS.get(name)
    if schema is None:
        return [f"unknown event type {name!r}"]
    if payload.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"{name}: schema_version {payload.get('schema_version')!r} != {SCHEMA_VERSION!r}"
        )
    if not isinstance(payload.get("job_id"), str) or not payload.get("job_id"):
        errors.append(f"{name}: job_id must be a non-empty string")
    if not isinstance(payload.get("seq"), int) or isinstance(payload.get("seq"), bool) \
            or payload.get("seq", -1) < 0:
        errors.append(f"{name}: seq must be a non-negative integer")
    base = {"event", "schema_version", "job_id", "seq"}
    for field_name, (types, required) in schema.items():
        if field_name not in payload:
            if required:
                errors.append(f"{name}: missing field {field_name!r}")
            continue
        value = payload[field_name]
        if bool not in types and isinstance(value, bool):
            errors.append(f"{name}: field {field_name!r} has bool value {value!r}")
        elif not isinstance(value, tuple(types)):
            errors.append(
                f"{name}: field {field_name!r} has type {type(value).__name__}"
            )
    for key in payload:
        if key not in base and key not in schema:
            errors.append(f"{name}: unexpected field {key!r}")
    return errors


def validate_stream(lines) -> tuple[int, dict[str, int], list[str]]:
    """Validate an iterable of NDJSON lines.

    Returns ``(num_events, per_type_counts, errors)``.  Beyond per-event
    schema checks this enforces the stream-level contract: per-job ``seq``
    values are contiguous from 0, nothing follows a job's terminal event,
    and every job that emitted any event ends with exactly one terminal.
    """
    counts: dict[str, int] = {}
    errors: list[str] = []
    next_seq: dict[str, int] = {}
    terminated: set[str] = set()
    num_events = 0
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError as exc:
            errors.append(f"line {line_number}: not valid JSON ({exc})")
            continue
        num_events += 1
        event_errors = validate_event(payload)
        errors.extend(f"line {line_number}: {error}" for error in event_errors)
        if event_errors:
            continue
        name = payload["event"]
        counts[name] = counts.get(name, 0) + 1
        job_id = payload["job_id"]
        if job_id in terminated:
            errors.append(f"line {line_number}: {job_id} emitted {name} after its terminal event")
        expected = next_seq.get(job_id, 0)
        if payload["seq"] != expected:
            errors.append(
                f"line {line_number}: {job_id} seq {payload['seq']} != expected {expected}"
            )
        next_seq[job_id] = payload["seq"] + 1
        if EVENT_TYPES[name].TERMINAL:
            terminated.add(job_id)
    for job_id in next_seq:
        if job_id not in terminated:
            errors.append(f"{job_id}: stream ended without a terminal event")
    return num_events, counts, errors


def main(argv=None) -> int:
    """Validate NDJSON events from stdin (or the files given as arguments)."""
    paths = list(argv if argv is not None else sys.argv[1:])
    if paths:
        lines: list[str] = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                lines.extend(handle.readlines())
        source = lines
    else:
        source = sys.stdin
    num_events, counts, errors = validate_stream(source)
    for error in errors:
        print(f"invalid: {error}", file=sys.stderr)
    if num_events == 0:
        print("invalid: no events on input", file=sys.stderr)
        return 1
    summary = ", ".join(f"{name}={count}" for name, count in sorted(counts.items()))
    print(f"validated {num_events} events ({summary})")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
