"""The typed event schema: serialization, validation, stream contracts."""

import json

import pytest

from repro.api.events import (
    EVENT_SCHEMAS,
    EVENT_TYPES,
    SCHEMA_VERSION,
    DistanceProbe,
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobSubmitted,
    SolverStats,
    SubtaskStarted,
    TaskCompiled,
    deterministic_view,
    event_from_dict,
    validate_event,
    validate_stream,
)


def _sample(cls):
    event = cls()
    event.job_id = "job-1"
    event.seq = 0
    return event


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(EVENT_TYPES))
    def test_every_type_serializes_with_version_and_identity(self, name):
        payload = _sample(EVENT_TYPES[name]).to_dict()
        assert payload["event"] == name
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["job_id"] == "job-1"
        assert payload["seq"] == 0
        # One NDJSON line, parseable back to the same dict.
        assert json.loads(_sample(EVENT_TYPES[name]).to_json()) == payload

    @pytest.mark.parametrize("name", sorted(EVENT_TYPES))
    def test_round_trip_through_dict(self, name):
        original = _sample(EVENT_TYPES[name])
        clone = event_from_dict(original.to_dict())
        assert type(clone) is type(original)
        assert clone.to_dict() == original.to_dict()

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"event": "Nope"})

    def test_terminal_flags(self):
        terminal = {name for name, cls in EVENT_TYPES.items() if cls.TERMINAL}
        assert terminal == {"JobCompleted", "JobCancelled", "JobFailed"}

    def test_schemas_cover_every_type_and_field(self):
        assert set(EVENT_SCHEMAS) == set(EVENT_TYPES)
        base = {"event", "schema_version", "job_id", "seq"}
        for name, cls in EVENT_TYPES.items():
            payload = _sample(cls).to_dict()
            declared = set(EVENT_SCHEMAS[name]) | base
            # Optional members (e.g. SolverStats' only-when-nonzero hot-path
            # counters) may be absent from a default payload, but nothing
            # undeclared may ever appear, and every required field must.
            assert set(payload) <= declared, name
            required = {
                field for field, (_, is_required) in EVENT_SCHEMAS[name].items()
                if is_required
            } | base
            assert required <= set(payload), name

    def test_solver_stats_hotpath_counters_only_when_nonzero(self):
        quiet = _sample(SolverStats)
        assert "blocker_hits" not in quiet.to_dict()
        assert "heap_discards" not in quiet.to_dict()
        busy = _sample(SolverStats)
        busy.blocker_hits = 7
        busy.heap_discards = 3
        payload = busy.to_dict()
        assert payload["blocker_hits"] == 7
        assert payload["heap_discards"] == 3
        assert validate_event(payload) == []
        clone = event_from_dict(payload)
        assert clone.blocker_hits == 7 and clone.heap_discards == 3


class TestValidation:
    @pytest.mark.parametrize("name", sorted(EVENT_TYPES))
    def test_emitted_events_validate(self, name):
        assert validate_event(_sample(EVENT_TYPES[name]).to_dict()) == []

    def test_rejects_wrong_version(self):
        payload = _sample(JobCompleted).to_dict()
        payload["schema_version"] = "0.1"
        assert any("schema_version" in error for error in validate_event(payload))

    def test_rejects_missing_field(self):
        payload = _sample(JobCancelled).to_dict()
        del payload["reason"]
        assert any("missing field 'reason'" in error for error in validate_event(payload))

    def test_rejects_wrong_type(self):
        payload = _sample(SolverStats).to_dict()
        payload["conflicts"] = "many"
        assert any("conflicts" in error for error in validate_event(payload))

    def test_rejects_bool_masquerading_as_int(self):
        payload = _sample(SubtaskStarted).to_dict()
        payload["index"] = True
        assert any("index" in error for error in validate_event(payload))

    def test_rejects_unexpected_field(self):
        payload = _sample(TaskCompiled).to_dict()
        payload["surprise"] = 1
        assert any("unexpected field" in error for error in validate_event(payload))

    @pytest.mark.parametrize("name", ["family_absorbed", "store_absorbed"])
    def test_removed_absorption_counters_are_flagged(self, name):
        # Dropped without a version bump (optional-when-zero, producer gone):
        # the dataclass no longer takes them and the validator flags an old
        # stream that still carries one.
        with pytest.raises(TypeError):
            SolverStats(job_id="job-1", **{name: 1})
        payload = _sample(SolverStats).to_dict()
        assert validate_event(payload) == []
        payload[name] = 3
        assert any("unexpected field" in error for error in validate_event(payload))

    def test_rejects_missing_identity(self):
        payload = _sample(JobSubmitted).to_dict()
        payload["job_id"] = ""
        payload["seq"] = -1
        errors = validate_event(payload)
        assert any("job_id" in error for error in errors)
        assert any("seq" in error for error in errors)


def _lines(events):
    return [event.to_json() for event in events]


def _job_stream(job_id="job-1"):
    events = [
        JobSubmitted(task_kind="find-distance", subject="steane"),
        TaskCompiled(task_kind="find-distance", subject="steane"),
        SubtaskStarted(index=0, description="probe"),
        DistanceProbe(bound=1, window=[1, 3], sat=False),
        JobCompleted(verified=True),
    ]
    for seq, event in enumerate(events):
        event.job_id = job_id
        event.seq = seq
    return events


class TestStreamValidation:
    def test_valid_stream(self):
        count, by_type, errors = validate_stream(_lines(_job_stream()))
        assert errors == []
        assert count == 5
        assert by_type["JobCompleted"] == 1

    def test_interleaved_jobs_validate_independently(self):
        first = _job_stream("job-1")
        second = _job_stream("job-2")
        interleaved = [x for pair in zip(first, second) for x in pair]
        _, _, errors = validate_stream(_lines(interleaved))
        assert errors == []

    def test_seq_gap_detected(self):
        events = _job_stream()
        events[2].seq = 7
        _, _, errors = validate_stream(_lines(events))
        assert any("seq" in error for error in errors)

    def test_missing_terminal_detected(self):
        _, _, errors = validate_stream(_lines(_job_stream()[:-1]))
        assert any("without a terminal event" in error for error in errors)

    def test_event_after_terminal_detected(self):
        events = _job_stream()
        extra = SolverStats()
        extra.job_id, extra.seq = "job-1", 5
        events.append(extra)
        _, _, errors = validate_stream(_lines(events))
        assert any("after its terminal event" in error for error in errors)

    def test_garbage_line_detected(self):
        _, _, errors = validate_stream(["not json"])
        assert any("not valid JSON" in error for error in errors)

    def test_failed_job_stream_is_valid(self):
        events = [JobSubmitted(), JobFailed(error="ValueError: boom")]
        for seq, event in enumerate(events):
            event.job_id, event.seq = "job-9", seq
        _, _, errors = validate_stream(_lines(events))
        assert errors == []


class TestDeterministicView:
    def test_strips_only_timing_fields(self):
        event = TaskCompiled(task_kind="k", subject="s", cached=True, compile_seconds=1.5)
        event.job_id, event.seq = "job-1", 1
        view = deterministic_view(event.to_dict())
        assert "compile_seconds" not in view
        assert view["cached"] is True and view["seq"] == 1
