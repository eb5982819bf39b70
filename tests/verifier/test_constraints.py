"""User-provided error constraints (Section 7.2)."""

import pytest

from repro.api import ConstrainedTask, CorrectionTask, Engine
from repro.classical.expr import evaluate
from repro.codes import rotated_surface_code, steane_code
from repro.verifier.constraints import discreteness_constraint, locality_constraint
from repro.verifier.encodings import ErrorModel


def test_locality_constraint_fixes_other_qubits():
    code = steane_code()
    constraint = locality_constraint(code, ErrorModel("Y"), allowed_qubits=[0, 1, 2])
    memory = {f"e_{q}": False for q in range(7)}
    assert evaluate(constraint, memory)
    memory["e_5"] = True
    assert not evaluate(constraint, memory)
    memory["e_5"] = False
    memory["e_1"] = True
    assert evaluate(constraint, memory)


def test_locality_random_selection_is_reproducible():
    code = rotated_surface_code(3)
    first = locality_constraint(code, ErrorModel("Y"), seed=7)
    second = locality_constraint(code, ErrorModel("Y"), seed=7)
    assert first == second


def test_discreteness_constraint_limits_each_segment():
    code = rotated_surface_code(3)
    constraint = discreteness_constraint(code, ErrorModel("Y"), num_segments=3)
    memory = {f"e_{q}": False for q in range(9)}
    memory["e_0"] = True
    memory["e_4"] = True
    assert evaluate(constraint, memory)
    memory["e_1"] = True  # two errors in the first segment of three qubits
    assert not evaluate(constraint, memory)


def test_constrained_verification_still_verifies():
    code = rotated_surface_code(3)
    result = Engine().run(
        ConstrainedTask(code=code, locality=True, discreteness=True, error_model="Y", seed=3)
    )
    assert result.verified
    assert set(result.details["constraints"]) == {"locality", "discreteness"}


def test_constraints_enlarge_verifiable_error_weight():
    """With locality restricting errors to a known-good subset, a weight bound
    beyond (d-1)/2 can still be verified — the point of partial verification."""
    engine = Engine()
    code = rotated_surface_code(3)
    unconstrained = engine.run(CorrectionTask(code=code, max_errors=2, error_model="Z"))
    assert not unconstrained.verified
    constrained = engine.run(
        ConstrainedTask(
            code=code,
            locality=True,
            allowed_qubits=(0,),
            max_errors=2,
            error_model="Z",
        )
    )
    assert constrained.verified
