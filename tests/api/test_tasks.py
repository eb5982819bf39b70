"""Task objects: coercion, hashing, validation."""

import pytest

from repro.api import (
    ConstrainedTask,
    CorrectionTask,
    DetectionTask,
    DistanceTask,
    FixedErrorTask,
    ProgramTask,
    resolve_code,
)
from repro.codes import steane_code
from repro.verifier.encodings import ErrorModel


class TestCoercion:
    def test_error_model_strings_are_coerced(self):
        assert CorrectionTask(code="steane", error_model="Y").error_model == ErrorModel("Y")
        assert DetectionTask(code="steane", error_model=ErrorModel("X")).error_model.kind == "X"

    def test_error_model_coerce_helper(self):
        assert ErrorModel.coerce("Z") == ErrorModel("Z")
        assert ErrorModel.coerce(ErrorModel("any")) is not None
        with pytest.raises(TypeError):
            ErrorModel.coerce(42)
        with pytest.raises(ValueError):
            ErrorModel.coerce("W")

    def test_sequences_become_tuples(self):
        task = ConstrainedTask(code="steane", locality=True, allowed_qubits=[0, 1, 2])
        assert task.allowed_qubits == (0, 1, 2)
        fixed = FixedErrorTask(code="steane", error_qubits=((3, "Y"), (1, "X")))
        assert fixed.error_qubits == ((1, "X"), (3, "Y"))  # sorted
        assert fixed.error_map == {1: "X", 3: "Y"}


class TestHashing:
    def test_registry_key_tasks_are_hashable_and_equal_by_value(self):
        a = CorrectionTask(code="steane", max_errors=1, error_model="Y")
        b = CorrectionTask(code="steane", max_errors=1, error_model=ErrorModel("Y"))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_options_are_different_tasks(self):
        assert CorrectionTask(code="steane") != CorrectionTask(code="steane", max_errors=2)
        assert DetectionTask(code="steane", trial_distance=3) != DetectionTask(
            code="steane", trial_distance=4
        )


class TestValidation:
    def test_empty_code_key_rejected(self):
        with pytest.raises(ValueError):
            CorrectionTask(code="")

    def test_negative_max_errors_rejected(self):
        with pytest.raises(ValueError):
            CorrectionTask(code="steane", max_errors=-1)

    def test_trial_distance_below_two_rejected(self):
        with pytest.raises(ValueError):
            DetectionTask(code="steane", trial_distance=1)

    @pytest.mark.parametrize("max_trial", [-3, 0, 1, True, 2.5, "5"])
    def test_max_trial_below_two_or_not_an_int_rejected(self, max_trial):
        with pytest.raises(ValueError, match="max_trial"):
            DistanceTask(code="steane", max_trial=max_trial)

    def test_max_trial_two_and_default_accepted(self):
        assert DistanceTask(code="steane", max_trial=2).max_trial == 2
        assert DistanceTask(code="steane").max_trial is None

    def test_program_task_requires_triple(self):
        with pytest.raises(ValueError):
            ProgramTask()

    def test_describe_names_the_task(self):
        text = DistanceTask(code="steane", max_trial=5).describe()
        assert "DistanceTask" in text and "steane" in text


class TestResolveCode:
    def test_resolves_registry_key(self):
        assert resolve_code("steane").name == "steane"

    def test_passes_through_instances(self):
        code = steane_code()
        assert resolve_code(code) is code

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_code(7)
        with pytest.raises(KeyError):
            resolve_code("no-such-code")

    def test_code_name_without_building(self):
        assert CorrectionTask(code="steane").code_name == "steane"
        assert CorrectionTask(code=steane_code()).code_name == "steane"
