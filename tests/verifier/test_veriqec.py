"""The verification tasks of Section 7, decided through the engine."""

import pytest

from repro.api import (
    CorrectionTask,
    DetectionTask,
    DistanceTask,
    Engine,
    FixedErrorTask,
    ParallelBackend,
)
from repro.codes import build_code, rotated_surface_code, steane_code


@pytest.fixture(scope="module")
def engine():
    return Engine()


class TestAccurateCorrection:
    @pytest.mark.parametrize(
        "key", ["steane", "five-qubit", "six-qubit", "shor", "surface-3", "xzzx-3", "gottesman-8"]
    )
    def test_distance_three_codes_correct_one_error(self, engine, key):
        result = engine.run(CorrectionTask(code=build_code(key)))
        assert result.verified
        assert result.details["max_errors"] == 1

    def test_overclaiming_two_errors_fails_with_counterexample(self, engine):
        result = engine.run(CorrectionTask(code=steane_code(), max_errors=2))
        assert not result.verified
        assert 1 <= len(result.counterexample_qubits()) <= 4

    def test_surface_d5_with_restricted_error_model(self, engine):
        result = engine.run(CorrectionTask(code=rotated_surface_code(5), error_model="Y"))
        assert result.verified
        assert result.details["error_model"] == "Y"

    def test_repetition_code_corrects_x_but_not_z(self, engine):
        code = build_code("repetition-5")
        assert engine.run(CorrectionTask(code=code, max_errors=2, error_model="X")).verified
        assert not engine.run(CorrectionTask(code=code, max_errors=1, error_model="Z")).verified

    def test_fixed_error_functionality(self, engine):
        result = engine.run(FixedErrorTask(code=steane_code(), error_qubits=((3, "Y"),)))
        assert result.verified
        assert result.task == "fixed-error"

    def test_report_summary_format(self, engine):
        result = engine.run(CorrectionTask(code=steane_code()))
        assert "VERIFIED" in result.summary()
        assert "steane" in result.summary()


class TestPreciseDetection:
    @pytest.mark.parametrize("key, distance", [("steane", 3), ("surface-3", 3), ("five-qubit", 3)])
    def test_detection_at_true_distance(self, engine, key, distance):
        task = DetectionTask(code=build_code(key), trial_distance=distance)
        assert engine.run(task).verified

    @pytest.mark.parametrize("key, distance", [("steane", 4), ("surface-3", 4)])
    def test_detection_beyond_distance_finds_logical_error(self, engine, key, distance):
        result = engine.run(DetectionTask(code=build_code(key), trial_distance=distance))
        assert not result.verified
        assert len(result.counterexample_qubits()) == distance - 1

    @pytest.mark.parametrize("key", ["color-832", "detection-422", "iceberg-6"])
    def test_detection_codes_detect_single_errors(self, engine, key):
        assert engine.run(DetectionTask(code=build_code(key), trial_distance=2)).verified

    def test_distance_walk(self, engine):
        for code, max_trial, distance in [
            (steane_code(), 5, 3),
            (build_code("detection-422"), 4, 2),
        ]:
            result = engine.run(DistanceTask(code=code, max_trial=max_trial))
            assert result.details["distance"] == distance

    def test_trial_distance_validation(self):
        with pytest.raises(ValueError):
            DetectionTask(code=steane_code(), trial_distance=1)


class TestParallel:
    def test_parallel_matches_sequential(self):
        task = CorrectionTask(code=steane_code(), error_model="Y")
        sequential = Engine().run(task)
        parallel = Engine().run(task, backend=ParallelBackend(num_workers=2))
        assert sequential.verified and parallel.verified
        assert parallel.details.get("num_subtasks", 1) >= 1

    def test_parallel_finds_counterexample(self):
        result = Engine().run(
            CorrectionTask(code=steane_code(), max_errors=2, error_model="Y"),
            backend=ParallelBackend(num_workers=2),
        )
        assert not result.verified
