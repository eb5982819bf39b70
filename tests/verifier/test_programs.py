"""Program/correctness-formula generators and fault-tolerant scenarios."""

import pytest

from repro.api import Engine, ProgramTask
from repro.codes import shor_code, steane_code
from repro.lang.ast import AssignDecoder, ConditionalPauli, Measure, Seq, Unitary
from repro.verifier.programs import (
    correction_program,
    correction_triple,
    ghz_preparation,
    logical_cnot_with_propagation,
    min_weight_decoder_condition,
)


def run_scenario(scenario):
    return Engine().run(
        ProgramTask(triple=scenario.triple, decoder_condition=scenario.decoder_condition)
    )


def statement_types(program):
    assert isinstance(program, Seq)
    return [type(s).__name__ for s in program.statements]


class TestProgramGenerator:
    def test_correction_program_structure(self):
        code = steane_code()
        program = correction_program(code, error="Y", logical_gate="H", propagation=True)
        kinds = statement_types(program)
        assert kinds.count("ConditionalPauli") == 7 + 7 + 14  # errors + corrections
        assert kinds.count("Unitary") == 7
        assert kinds.count("Measure") == 6
        assert kinds.count("AssignDecoder") == 2

    def test_correction_program_without_options(self):
        program = correction_program(steane_code(), error="X")
        kinds = statement_types(program)
        assert "Unitary" not in kinds
        assert kinds.count("Measure") == 6

    def test_decoder_condition_mentions_all_syndromes(self):
        from repro.classical.expr import free_variables

        condition = min_weight_decoder_condition(steane_code())
        names = free_variables(condition)
        assert {f"s_{i}" for i in range(1, 7)} <= names


class TestScenarios:
    @pytest.mark.parametrize("error", ["X", "Z", "Y"])
    def test_steane_single_error_correction(self, error):
        scenario = correction_triple(steane_code(), error=error, max_errors=1)
        assert run_scenario(scenario).verified

    def test_steane_with_logical_h_and_propagation(self):
        scenario = correction_triple(
            steane_code(), error="Y", logical_gate="H", propagation=True, max_errors=1
        )
        assert run_scenario(scenario).verified
        assert "propagated" in scenario.description

    def test_shor_code_single_error_correction(self):
        scenario = correction_triple(shor_code(), error="X", max_errors=1)
        assert run_scenario(scenario).verified

    def test_ghz_preparation_scenario(self):
        scenario = ghz_preparation(steane_code(), blocks=3)
        assert run_scenario(scenario).verified

    def test_ghz_two_blocks_is_bell_preparation(self):
        scenario = ghz_preparation(steane_code(), blocks=2)
        assert run_scenario(scenario).verified

    def test_logical_cnot_with_propagated_errors(self):
        scenario = logical_cnot_with_propagation(steane_code(), error="X", max_errors=1)
        result = run_scenario(scenario)
        assert result.verified
        assert result.details["num_atoms"] == 12 + 2 + 12

    def test_logical_cnot_overclaimed_errors_fails(self):
        scenario = logical_cnot_with_propagation(steane_code(), error="X", max_errors=3)
        assert not run_scenario(scenario).verified
