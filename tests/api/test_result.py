"""The unified Result: JSON round-trip and counterexample decoding."""

import json

from repro.api import CorrectionTask, Engine, Result


def test_json_round_trip_verified():
    result = Engine().run(CorrectionTask(code="steane"))
    restored = Result.from_json(result.to_json())
    assert restored.verified is True
    assert restored.task == result.task == "accurate-correction"
    assert restored.subject == "steane"
    assert restored.details["max_errors"] == 1
    assert restored.num_variables == result.num_variables
    assert restored.backend == "serial"
    # The full solver statistics survive the round trip.
    assert restored.conflicts == result.conflicts
    assert restored.decisions == result.decisions > 0
    assert restored.propagations == result.propagations > 0
    assert restored.session_stats() == result.session_stats()


def test_json_round_trip_counterexample():
    result = Engine().run(CorrectionTask(code="steane", max_errors=2))
    assert not result.verified
    restored = Result.from_json(result.to_json(indent=2))
    assert restored.counterexample == result.counterexample
    assert restored.counterexample_qubits() == result.counterexample_qubits()


def test_to_json_is_plain_json():
    payload = json.loads(Engine().run(CorrectionTask(code="five-qubit")).to_json())
    assert isinstance(payload, dict)
    assert set(payload) >= {"task", "subject", "verified", "elapsed_seconds", "details"}


def test_from_dict_ignores_unknown_keys():
    restored = Result.from_dict(
        {"task": "t", "subject": "s", "verified": True, "extra_field": 1}
    )
    assert restored.verified and restored.subject == "s"


def test_counterexample_qubits_are_zero_based_on_both_routes():
    direct = Result(
        task="accurate-correction", subject="five-qubit", verified=False,
        counterexample={"ex_0": True, "ez_4": True, "e_2": False, "s_1": True},
    )
    assert direct.counterexample_qubits() == [0, 4]
    # The program route follows the paper's e_1..e_n naming.
    program = Result(
        task="program-logic:five-qubit-Z-correction", subject="five-qubit-Z-correction",
        verified=False, counterexample={"e_5": True, "e_1": False, "s_2": True},
    )
    assert program.counterexample_qubits() == [4]
