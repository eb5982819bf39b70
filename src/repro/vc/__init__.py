"""Verification-condition generation and reduction (Section 5)."""

from repro.vc.reduction import ReductionError, reduce_to_classical
from repro.vc.semantic import semantic_entailment
from repro.vc.symbolic import DerivedAtom, SymbolicPrecondition, symbolic_wp

__all__ = [
    "SymbolicPrecondition",
    "DerivedAtom",
    "symbolic_wp",
    "reduce_to_classical",
    "ReductionError",
    "semantic_entailment",
]
