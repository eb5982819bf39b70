"""CLI smoke tests: every subcommand, text and JSON output, module entry."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestListCodes:
    def test_text_output(self, capsys):
        assert main(["list-codes"]) == 0
        out = capsys.readouterr().out
        assert "steane" in out and "[[7,1,3]]" in out and "correction" in out

    def test_json_output(self, capsys):
        assert main(["list-codes", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        keys = {row["key"] for row in rows}
        assert {"steane", "five-qubit", "surface-3"} <= keys
        steane = next(row for row in rows if row["key"] == "steane")
        assert steane["parameters"] == [7, 1, 3]


class TestVerify:
    def test_verify_steane_json(self, capsys):
        assert main(["verify", "--code", "steane", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["task"] == "accurate-correction"
        assert payload["subject"] == "steane"

    def test_verify_counterexample_exit_code(self, capsys):
        assert main(["verify", "--code", "steane", "--max-errors", "2"]) == 1
        out = capsys.readouterr().out
        assert "COUNTEREXAMPLE" in out and "counterexample qubits" in out

    def test_verify_detection_target_default(self, capsys):
        # detection-422's registry target is detection, so --task may be omitted.
        assert main(["verify", "--code", "detection-422", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task"] == "precise-detection"

    def test_verify_constrained(self, capsys):
        assert main(
            ["verify", "--code", "surface-3", "--locality", "--discreteness",
             "--error-model", "Y", "--seed", "1", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task"] == "constrained-correction"
        assert payload["details"]["constraints"] == ["locality", "discreteness"]

    def test_verify_parallel_workers(self, capsys):
        assert main(
            ["verify", "--code", "steane", "--error-model", "Y", "--workers", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "parallel"

    def test_unknown_code_errors(self):
        with pytest.raises(SystemExit):
            main(["verify", "--code", "no-such-code"])

    def test_inapplicable_flags_rejected(self):
        # Correction-only flags on a detection task, and vice versa.
        with pytest.raises(SystemExit, match="--locality"):
            main(["verify", "--code", "detection-422", "--locality"])
        with pytest.raises(SystemExit, match="--max-errors"):
            main(["verify", "--code", "steane", "--task", "detection", "--max-errors", "1"])
        with pytest.raises(SystemExit, match="--trial-distance"):
            main(["verify", "--code", "steane", "--trial-distance", "3"])

    def test_invalid_trial_distance_clean_error(self, capsys):
        assert main(["verify", "--code", "steane", "--task", "detection",
                     "--trial-distance", "1"]) == 2
        assert "trial_distance must be at least 2" in capsys.readouterr().err


class TestDistance:
    def test_distance_text(self, capsys):
        assert main(["distance", "--code", "steane", "--max-trial", "5"]) == 0
        out = capsys.readouterr().out
        assert "distance 3" in out
        assert "conflicts" in out and "decisions" in out and "propagations" in out

    def test_distance_json(self, capsys):
        assert main(["distance", "--code", "steane", "--max-trial", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["details"]["distance"] == 3
        assert payload["details"]["base_encodings"] == 1
        assert payload["decisions"] >= 0 and payload["propagations"] > 0

    def test_distance_workers_flag_is_gone(self):
        # The walk always runs on the code's shared context, so a worker
        # count has nothing to split.
        with pytest.raises(SystemExit) as excinfo:
            main(["distance", "--code", "steane", "--max-trial", "5", "--workers", "2"])
        assert excinfo.value.code == 2

    def test_distance_text_names_backend(self, capsys):
        assert main(["distance", "--code", "steane", "--max-trial", "5"]) == 0
        assert "backend=serial" in capsys.readouterr().out

    def test_max_trial_below_two_is_a_usage_error(self):
        assert main(["distance", "--code", "steane", "--max-trial", "1"]) == 2


class TestSweep:
    def test_sweep_json(self, capsys):
        assert main(["sweep", "--codes", "steane,five-qubit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_tasks"] == 2 and payload["num_verified"] == 2
        assert [row["subject"] for row in payload["results"]] == ["steane", "five-qubit"]

    def test_sweep_text(self, capsys):
        assert main(["sweep", "--codes", "steane,detection-422"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2/2 verified" in out

    def test_sweep_with_jobs_and_parallel_backend(self, capsys):
        assert main(
            ["sweep", "--codes", "steane,five-qubit,six-qubit", "--jobs", "2",
             "--backend", "parallel", "--workers", "2"]
        ) == 0
        assert "backend=parallel, jobs=2" in capsys.readouterr().out


def test_module_entry_point():
    """`python -m repro list-codes` works as a subprocess (the shipped UX)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list-codes"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "steane" in proc.stdout


class TestStreaming:
    def _stream_lines(self, capsys):
        return [line for line in capsys.readouterr().out.splitlines() if line.strip()]

    def test_verify_stream_is_schema_valid_ndjson(self, capsys):
        from repro.api.events import validate_stream

        assert main(["verify", "--code", "steane", "--stream"]) == 0
        lines = self._stream_lines(capsys)
        count, by_type, errors = validate_stream(lines)
        assert errors == []
        assert by_type["JobCompleted"] == 1
        assert json.loads(lines[0])["event"] == "JobSubmitted"

    def test_distance_stream_carries_probes(self, capsys):
        from repro.api.events import validate_stream

        assert main(["distance", "--code", "steane", "--max-trial", "5", "--stream"]) == 0
        lines = self._stream_lines(capsys)
        _, by_type, errors = validate_stream(lines)
        assert errors == []
        assert by_type["DistanceProbe"] >= 1

    def test_sweep_stream_multiplexes_jobs(self, capsys):
        from repro.api.events import validate_stream

        assert main(["sweep", "--codes", "steane,five-qubit", "--stream"]) == 0
        lines = self._stream_lines(capsys)
        _, by_type, errors = validate_stream(lines)
        assert errors == []
        assert by_type["JobSubmitted"] == 2
        assert by_type["JobCompleted"] == 2

    def test_stream_counterexample_exit_code(self, capsys):
        assert main([
            "verify", "--code", "steane", "--max-errors", "3", "--stream",
        ]) == 1
        payloads = [json.loads(line) for line in self._stream_lines(capsys)]
        completed = [p for p in payloads if p["event"] == "JobCompleted"]
        assert completed and completed[0]["verified"] is False

    def test_expired_deadline_exits_3(self, capsys):
        assert main([
            "verify", "--code", "steane", "--deadline", "0.0",
        ]) == 3
        assert "cancelled" in capsys.readouterr().err

    def test_stream_deadline_emits_cancelled_event(self, capsys):
        assert main([
            "distance", "--code", "surface-5", "--deadline", "0.0", "--stream",
        ]) == 3
        payloads = [json.loads(line) for line in self._stream_lines(capsys)]
        assert payloads[-1]["event"] == "JobCancelled"
        assert payloads[-1]["reason"] == "deadline"

    def test_distance_json_reports_the_probe_bounds(self, capsys):
        assert main([
            "distance", "--code", "steane", "--max-trial", "16", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["details"]["distance"] == 3
        assert [trial["bound"] for trial in payload["details"]["trials"]][:2] == [1, 2]
        assert "strategy" not in payload["details"]

    def test_distance_has_no_strategy_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["distance", "--code", "steane", "--strategy", "galloping"])
        assert excinfo.value.code == 2


class TestValidateEventsCommand:
    def test_validates_file(self, tmp_path, capsys):
        stream = tmp_path / "events.ndjson"
        assert main(["verify", "--code", "five-qubit", "--stream"]) == 0
        stream.write_text(capsys.readouterr().out)
        assert main(["validate-events", str(stream)]) == 0
        assert "validated" in capsys.readouterr().out

    def test_rejects_garbage(self, tmp_path, capsys):
        stream = tmp_path / "bad.ndjson"
        stream.write_text('{"event": "JobCompleted", "schema_version": "99"}\n')
        assert main(["validate-events", str(stream)]) == 1
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [["JobCompleted"], {"type": "JobCompleted"}])
    def test_unhashable_event_name_is_an_unknown_type(self, tmp_path, name):
        stream = tmp_path / "odd.ndjson"
        line = {"event": name, "schema_version": "1.0", "job_id": "j", "seq": 0}
        stream.write_text(json.dumps(line) + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "validate-events", str(stream)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "unknown event type" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_rejects_empty_input(self, tmp_path, capsys):
        stream = tmp_path / "empty.ndjson"
        stream.write_text("")
        assert main(["validate-events", str(stream)]) == 1
