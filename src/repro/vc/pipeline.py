"""Compile a Hoare triple to a classical validity formula (the program-logic route).

``compile_triple`` mirrors the first two of the three components of the tool
described in Section 6: the correctness-formula (here: the triple built by
:mod:`repro.verifier.programs`) and the VC generator (the compact symbolic wp
of :mod:`repro.vc.symbolic` plus the reduction of :mod:`repro.vc.reduction`).
The third component — the SMT checker — lives behind the engine's backends:
run a triple with ``Engine().run(ProgramTask(triple=..., decoder_condition=...))``.
"""

from __future__ import annotations

from repro.classical.expr import BoolExpr
from repro.hoare.triple import HoareTriple
from repro.logic.assertion import AndAssertion, Assertion, PauliAssertion
from repro.vc.reduction import SpecAtom, reduce_to_classical
from repro.vc.symbolic import symbolic_wp

__all__ = ["compile_triple", "spec_atoms_from_assertion"]


def spec_atoms_from_assertion(assertion: Assertion) -> list[SpecAtom]:
    """Extract the Pauli atoms of a conjunction-of-atoms assertion."""
    atoms: list[SpecAtom] = []

    def collect(node: Assertion) -> None:
        if isinstance(node, AndAssertion):
            for part in node.parts:
                collect(part)
            return
        if isinstance(node, PauliAssertion):
            if len(node.expr.terms) != 1:
                raise ValueError("specification atoms must be single Pauli terms")
            term = node.expr.terms[0]
            atoms.append(SpecAtom(term.operator, term.phase, f"spec[{len(atoms)}]"))
            return
        raise ValueError(
            "pre/postconditions of QEC correctness formulas must be conjunctions of "
            f"Pauli atoms; found {type(node).__name__}"
        )

    collect(assertion)
    return atoms


def compile_triple(
    triple: HoareTriple,
    decoder_condition: BoolExpr | None = None,
) -> tuple[BoolExpr, dict]:
    """Reduce ``{A ∧ P_c} S {B}`` to a classical validity formula.

    The postcondition atoms are pushed backwards through the program with the
    compact symbolic wp and the entailment against the precondition atoms is
    reduced to a classical formula.  Returns ``(formula, details)`` where the
    formula is valid iff the triple holds and ``details`` records the wp
    statistics (bound outcomes, atom count) that land in ``Result.details``.
    """
    spec = spec_atoms_from_assertion(triple.precondition)
    postcondition_atoms = [
        assertion.expr for assertion in _pauli_parts(triple.postcondition)
    ]
    num_qubits = spec[0].operator.num_qubits
    precondition = symbolic_wp(triple.program, postcondition_atoms, num_qubits)
    formula = reduce_to_classical(
        spec,
        precondition,
        triple.classical_constraint,
        decoder_condition=decoder_condition,
    )
    details = {
        "bound_outcomes": list(precondition.bound_outcomes),
        "num_atoms": len(precondition.atoms),
    }
    return formula, details


def _pauli_parts(assertion: Assertion) -> list[PauliAssertion]:
    parts: list[PauliAssertion] = []

    def collect(node: Assertion) -> None:
        if isinstance(node, AndAssertion):
            for part in node.parts:
                collect(part)
        elif isinstance(node, PauliAssertion):
            parts.append(node)
        else:
            raise ValueError(
                "postconditions must be conjunctions of Pauli atoms for the compact route"
            )

    collect(assertion)
    return parts
