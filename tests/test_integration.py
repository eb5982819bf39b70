"""End-to-end integration tests: the two verification routes agree.

The direct code-level encoding (Section 7's general verification) and the
program-logic route (wp + VC reduction) must give the same verdicts; and both
must agree with brute-force simulation of small codes using the lookup
decoder on the stabilizer tableau.
"""

from itertools import combinations

import pytest

from repro.api import CorrectionTask, DetectionTask, Engine, ProgramTask
from repro.codes import build_code, steane_code
from repro.decoders import LookupDecoder
from repro.pauli.pauli import PauliOperator
from repro.verifier.programs import correction_triple


@pytest.mark.parametrize("key", ["steane", "five-qubit", "surface-3"])
def test_direct_verification_agrees_with_brute_force(key):
    code = build_code(key)
    result = Engine().run(CorrectionTask(code=code))
    decoder = LookupDecoder(code)
    all_single_corrected = all(
        decoder.corrects(PauliOperator.from_sparse(code.num_qubits, {q: p}))
        for q in range(code.num_qubits)
        for p in "XYZ"
    )
    assert result.verified == all_single_corrected == True


def test_both_routes_agree_on_steane():
    code = steane_code()
    engine = Engine()
    direct = engine.run(CorrectionTask(code=code, error_model="Y"))
    scenario = correction_triple(code, error="Y", max_errors=1)
    logic_route = engine.run(
        ProgramTask(triple=scenario.triple, decoder_condition=scenario.decoder_condition)
    )
    assert direct.verified == logic_route.verified == True

    direct_bad = engine.run(CorrectionTask(code=code, max_errors=2, error_model="Y"))
    scenario_bad = correction_triple(code, error="Y", max_errors=2)
    logic_bad = engine.run(
        ProgramTask(triple=scenario_bad.triple, decoder_condition=scenario_bad.decoder_condition)
    )
    assert direct_bad.verified == logic_bad.verified == False


def test_program_route_counterexample_names_real_qubits():
    """The program route names its error bits e_1..e_n; the reported qubits
    are still 0-based, and the error they carry defeats the decoder."""
    code = steane_code()
    scenario = correction_triple(code, error="Y", max_errors=2)
    result = Engine().run(
        ProgramTask(triple=scenario.triple, decoder_condition=scenario.decoder_condition)
    )
    assert not result.verified
    qubits = result.counterexample_qubits()
    assert 1 <= len(qubits) <= 2
    assert set(qubits) <= set(range(code.num_qubits))
    error = PauliOperator.from_sparse(code.num_qubits, {qubit: "Y" for qubit in qubits})
    assert not LookupDecoder(code).corrects(error)


def test_detection_counterexample_is_a_real_logical_error():
    code = build_code("surface-3")
    result = Engine().run(DetectionTask(code=code, trial_distance=4))
    assert not result.verified
    qubits = result.counterexample_qubits()
    assert len(qubits) == 3
    # Reconstruct the reported error and confirm it is an undetectable logical error.
    terms = {}
    for qubit in qubits:
        pauli = ""
        if result.counterexample.get(f"ex_{qubit}"):
            pauli += "X"
        if result.counterexample.get(f"ez_{qubit}"):
            pauli = "Y" if pauli else "Z"
        terms[qubit] = pauli
    error = PauliOperator.from_sparse(code.num_qubits, terms)
    assert not any(code.syndrome(error))
    assert code.is_logical_error(error)


def test_stim_style_sampling_cannot_exceed_verification():
    """Sampling covers single configurations; verification covers all of them.

    This mirrors the Stim comparison of Section 7.2: the verifier's verdict
    quantifies over every weight-<=1 error, which we confirm here by checking
    a handful of sampled configurations plus the exhaustive claim.
    """
    code = steane_code()
    decoder = LookupDecoder(code)
    assert Engine().run(CorrectionTask(code=code)).verified
    for first, second in combinations(range(7), 2):
        error = PauliOperator.from_sparse(7, {first: "X", second: "Z"})
        # Weight-2 errors are outside the verified envelope; some of them fail.
        if not decoder.corrects(error):
            break
    else:
        pytest.fail("expected at least one uncorrectable weight-2 error")
