"""The correction query's narrowed decoder condition, and CNF-size pins."""

import pytest

from repro.classical.expr import (
    IntConst,
    IntLe,
    Not,
    Xor,
    bool_and,
    bool_or,
    evaluate,
)
from repro.codes.registry import CODE_REGISTRY, build_code
from repro.pauli.pauli import PauliOperator
from repro.smt.encoder import FormulaEncoder
from repro.smt.interface import check_formula
from repro.verifier.constraints import locality_constraint
from repro.verifier.encodings import (
    ErrorModel,
    accurate_correction_formula,
    anticommutation_parity,
    error_component_variables,
    error_weight_indicators,
    precise_detection_base,
    syndrome_definitions,
)


def reference_correction_formula(code, max_errors, error_model, extra_constraints=None):
    """Eqn. 14 with the decoder condition P_f stated as the full ``wt(c) <= wt(e)``."""
    error_x, error_z, error_indicators = error_component_variables(
        code.num_qubits, error_model
    )
    corr_x, corr_z, corr_indicators = error_component_variables(
        code.num_qubits, error_model, prefix="c"
    )
    syndrome_vars, syndrome_constraints = syndrome_definitions(code, error_x, error_z)
    conjuncts = [IntLe(error_weight_indicators(error_indicators), IntConst(max_errors))]
    conjuncts.extend(extra_constraints or [])
    conjuncts.extend(syndrome_constraints)
    for generator, syndrome_var in zip(code.stabilizers, syndrome_vars):
        corr_parity = anticommutation_parity(generator, corr_x, corr_z)
        conjuncts.append(Not(Xor((syndrome_var, corr_parity))))
    conjuncts.append(
        IntLe(error_weight_indicators(corr_indicators), error_weight_indicators(error_indicators))
    )
    residual_x = [Xor((ex, cx)) for ex, cx in zip(error_x, corr_x)]
    residual_z = [Xor((ez, cz)) for ez, cz in zip(error_z, corr_z)]
    conjuncts.append(
        bool_or(
            [
                anticommutation_parity(logical, residual_x, residual_z)
                for logical in list(code.logical_xs) + list(code.logical_zs)
            ]
        )
    )
    return bool_and(conjuncts)


def witness_operator(model, num_qubits, error_model, prefix=""):
    """The Pauli operator a satisfying assignment injects (or corrects with)."""
    x_bits, z_bits = [], []
    for qubit in range(num_qubits):
        if error_model.kind == "any":
            x = model.get(f"{prefix}ex_{qubit}", False)
            z = model.get(f"{prefix}ez_{qubit}", False)
        else:
            hit = model.get(f"{prefix}e_{qubit}", False)
            x = hit and error_model.kind in ("X", "Y")
            z = hit and error_model.kind in ("Z", "Y")
        x_bits.append(int(x))
        z_bits.append(int(z))
    return PauliOperator(tuple(x_bits), tuple(z_bits))


SMALL_CODES = [key for key in CODE_REGISTRY if build_code(key).num_qubits <= 9]


def _cases():
    for key in SMALL_CODES:
        distance = build_code(key).distance
        for max_errors in range((distance - 1) // 2 + 2):
            for kind in ("any", "X", "Z"):
                for local in (False, True):
                    yield pytest.param(
                        key, max_errors, kind, local,
                        id=f"{key}-k{max_errors}-{kind}{'-local' if local else ''}",
                    )


class TestNarrowedDecoderCondition:
    @pytest.mark.parametrize("key,max_errors,kind,local", list(_cases()))
    def test_same_verdict_as_full_comparison(self, key, max_errors, kind, local):
        code = build_code(key)
        error_model = ErrorModel(kind)
        constraints = [locality_constraint(code, error_model, seed=7)] if local else None
        narrowed = check_formula(
            accurate_correction_formula(code, max_errors, error_model, constraints)
        )
        reference = check_formula(
            reference_correction_formula(code, max_errors, error_model, constraints)
        )
        assert narrowed.status == reference.status
        if not narrowed.is_sat:
            return
        # Replay the counterexample against the code itself.
        error = witness_operator(narrowed.model, code.num_qubits, error_model)
        correction = witness_operator(narrowed.model, code.num_qubits, error_model, prefix="c")
        assert error.weight <= max_errors
        assert correction.weight <= error.weight
        for generator in code.stabilizers:
            assert error.commutes_with(generator) == correction.commutes_with(generator)
        residual = error * correction
        logicals = list(code.logical_xs) + list(code.logical_zs)
        assert any(not residual.commutes_with(logical) for logical in logicals)
        if local:
            assert evaluate(constraints[0], narrowed.model)


class TestCnfSize:
    """Truncated counters keep the paper's workloads O(n * k), not O(n^2)."""

    @staticmethod
    def _clauses(formula):
        encoder = FormulaEncoder()
        encoder.assert_formula(formula)
        return encoder.cnf.num_clauses

    def test_surface_5_correction(self):
        assert self._clauses(accurate_correction_formula(build_code("surface-5"))) <= 2000

    def test_hgp_hamming_detection_base(self):
        base, _ = precise_detection_base(build_code("hgp-hamming"))
        assert self._clauses(base) <= 2500

    def test_hgp_hamming_correction(self):
        assert self._clauses(accurate_correction_formula(build_code("hgp-hamming"))) <= 5000

