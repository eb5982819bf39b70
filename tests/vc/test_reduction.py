"""VC reduction tests, cross-checked against the semantic (dense) entailment."""

import pytest

from repro.api import Engine, ProgramTask
from repro.classical.expr import BoolConst, BoolVar, IntConst, IntLe, sum_of
from repro.classical.parity import ParityExpr
from repro.codes import steane_code
from repro.hoare.triple import HoareTriple
from repro.lang.ast import ConditionalPauli, Measure, Unitary, sequence
from repro.logic.assertion import conjunction, pauli_atom
from repro.pauli.pauli import PauliOperator
from repro.smt.interface import check_valid
from repro.vc.pipeline import spec_atoms_from_assertion
from repro.vc.reduction import ReductionError, SpecAtom, reduce_to_classical
from repro.vc.semantic import semantic_entailment
from repro.vc.symbolic import symbolic_wp
from repro.verifier.programs import correction_triple, min_weight_decoder_condition


def three_qubit_repetition_spec():
    z12 = PauliOperator.from_label("ZZI")
    z23 = PauliOperator.from_label("IZZ")
    z1 = PauliOperator.from_label("ZII")
    b = ParityExpr.of_variable("b")
    return [SpecAtom(z12), SpecAtom(z23), SpecAtom(z1, b)]


class TestCommutingCase:
    def test_repetition_code_correction_vc(self):
        """Example 4.2 turned into a classical VC: corrections cancel errors."""
        spec = three_qubit_repetition_spec()
        program = sequence(
            ConditionalPauli(BoolVar("e1"), 0, "X"),
            Measure("s1", PauliOperator.from_label("ZZI")),
            Measure("s2", PauliOperator.from_label("IZZ")),
            ConditionalPauli(BoolVar("c1"), 0, "X"),
        )
        post_atoms = [pauli_atom(a.operator, a.phase).expr for a in spec]
        precondition = symbolic_wp(program, post_atoms, 3)
        # Decoder: correct qubit 1 exactly when the first syndrome fires alone.
        decoder = BoolConst(True)
        formula = reduce_to_classical(
            spec,
            precondition,
            classical_constraint=IntLe(sum_of([BoolVar("e1")]), IntConst(1)),
            decoder_condition=decoder,
        )
        # Not valid without linking c1 to the syndromes.
        assert check_valid(formula).is_sat

    def test_phase_only_case_reduces_to_true(self):
        spec = three_qubit_repetition_spec()
        program = sequence()
        post_atoms = [pauli_atom(a.operator, a.phase).expr for a in spec]
        precondition = symbolic_wp(program, post_atoms, 3)
        formula = reduce_to_classical(spec, precondition, BoolConst(True))
        assert check_valid(formula).is_unsat

    def test_unrelated_body_rejected(self):
        spec = [SpecAtom(PauliOperator.from_label("ZZ"))]
        program = sequence()
        precondition = symbolic_wp(program, [pauli_atom(PauliOperator.from_label("XX")).expr], 2)
        with pytest.raises(ReductionError):
            reduce_to_classical(spec, precondition, BoolConst(True))


class TestAgainstSemanticOracle:
    def test_small_correction_agrees_with_dense_entailment(self):
        """Syntactic reduction and dense quantum-logic semantics agree on a 2-qubit example."""
        zz = PauliOperator.from_label("ZZ")
        xx = PauliOperator.from_label("XX")
        spec = [SpecAtom(zz), SpecAtom(xx)]
        program = sequence(
            ConditionalPauli(BoolVar("e"), 0, "X"),
            Measure("s", zz),
            ConditionalPauli(BoolVar("s"), 0, "X"),
        )
        post_atoms = [pauli_atom(zz).expr, pauli_atom(xx).expr]
        precondition = symbolic_wp(program, post_atoms, 2)
        formula = reduce_to_classical(spec, precondition, BoolConst(True))
        syntactic = check_valid(formula).is_unsat

        from repro.hoare.wp import weakest_precondition
        from repro.logic.assertion import conjunction as conj

        wp = weakest_precondition(program, conj([pauli_atom(zz), pauli_atom(xx)]))
        semantic = semantic_entailment(
            conj([pauli_atom(zz), pauli_atom(xx)]), wp, 2, ["e", "s"]
        )
        assert syntactic == semantic is True


def run_triple(triple, decoder_condition):
    return Engine().run(ProgramTask(triple=triple, decoder_condition=decoder_condition))


class TestTripleLevel:
    def test_steane_correction_valid(self):
        scenario = correction_triple(steane_code(), error="X", max_errors=1)
        result = run_triple(scenario.triple, scenario.decoder_condition)
        assert result.verified

    def test_steane_overclaimed_bound_fails(self):
        scenario = correction_triple(steane_code(), error="Y", max_errors=2)
        result = run_triple(scenario.triple, scenario.decoder_condition)
        assert not result.verified
        assert result.counterexample is not None

    def test_wrong_postcondition_phase_fails(self):
        code = steane_code()
        scenario = correction_triple(code, error="X", max_errors=1)
        wrong_post = conjunction(
            [pauli_atom(g) for g in code.stabilizers]
            + [pauli_atom(code.logical_zs[0], ParityExpr.of_variable("b").flipped())]
        )
        triple = HoareTriple(
            scenario.triple.precondition,
            scenario.triple.program,
            wrong_post,
            classical_constraint=scenario.triple.classical_constraint,
            name="wrong-phase",
        )
        result = run_triple(triple, scenario.decoder_condition)
        assert not result.verified

    def test_spec_extraction_rejects_disjunctions(self):
        from repro.logic.assertion import OrAssertion

        atom = pauli_atom(PauliOperator.from_label("Z"))
        with pytest.raises(ValueError):
            spec_atoms_from_assertion(OrAssertion((atom, atom)))

    def test_decoder_condition_required_for_correction(self):
        scenario = correction_triple(steane_code(), error="X", max_errors=1)
        result = run_triple(scenario.triple, None)
        assert not result.verified
