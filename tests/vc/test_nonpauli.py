"""Non-Pauli (T and H) error verification: the heuristic of Section 5.1 case 3."""

import pytest

from repro.api import Engine, ProgramTask
from repro.classical.parity import ParityExpr
from repro.codes import steane_code
from repro.hoare.triple import HoareTriple
from repro.lang.ast import Unitary, sequence
from repro.logic.assertion import conjunction, pauli_atom
from repro.verifier.programs import (
    decoder_call_and_correction,
    min_weight_decoder_condition,
    syndrome_measurement,
    transversal_gate,
)


def fixed_error_scenario(error_gate: str, qubit: int, flip_postcondition: bool = False):
    """Logical H on the Steane code followed by one fixed non-Pauli error and EC."""
    code = steane_code()
    phase = ParityExpr.of_variable("b")
    program = sequence(
        transversal_gate(code, "H"),
        Unitary(error_gate, (qubit,)),
        syndrome_measurement(code),
        decoder_call_and_correction(code),
    )
    post_phase = phase.flipped() if flip_postcondition else phase
    precondition = conjunction(
        [pauli_atom(g) for g in code.stabilizers] + [pauli_atom(code.logical_xs[0], phase)]
    )
    postcondition = conjunction(
        [pauli_atom(g) for g in code.stabilizers] + [pauli_atom(code.logical_zs[0], post_phase)]
    )
    triple = HoareTriple(precondition, program, postcondition, name=f"steane-{error_gate}")
    decoder = min_weight_decoder_condition(code, max_corrections=1)
    return triple, decoder


def run_triple(triple, decoder):
    return Engine().run(ProgramTask(triple=triple, decoder_condition=decoder))


@pytest.mark.parametrize("qubit", [0, 4, 6])
def test_single_t_error_is_corrected(qubit):
    triple, decoder = fixed_error_scenario("T", qubit)
    assert run_triple(triple, decoder).verified


@pytest.mark.parametrize("qubit", [0, 3, 6])
def test_single_h_error_is_corrected(qubit):
    triple, decoder = fixed_error_scenario("H", qubit)
    assert run_triple(triple, decoder).verified


def test_wrong_phase_with_t_error_fails():
    triple, decoder = fixed_error_scenario("T", 4, flip_postcondition=True)
    assert not run_triple(triple, decoder).verified


def test_wrong_phase_with_h_error_fails():
    triple, decoder = fixed_error_scenario("H", 6, flip_postcondition=True)
    assert not run_triple(triple, decoder).verified


def test_heuristic_reports_atom_count():
    triple, decoder = fixed_error_scenario("T", 4)
    result = run_triple(triple, decoder)
    assert result.verified
    # 7 postcondition atoms + 6 measurement atoms enter the reduction.
    assert result.details["num_atoms"] == 13
