"""Parity expressions: sums modulo 2 of boolean atoms.

The phase of every Pauli term occurring in a QEC weakest precondition is of
the form ``(-1)^(b + e_3 + x_3 + ...)`` — a parity of boolean program
variables and decoder outputs (Table 2 of the paper).  Representing these
phases canonically as a set of atoms plus a constant makes the phase
bookkeeping of the VC reduction (``r_i(s) + h_i(e)``) exact and cheap: XOR is
a symmetric difference and two phases are equal iff their representations
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.classical.expr import (
    BoolConst,
    BoolExpr,
    BoolVar,
    UFBool,
    Xor,
    evaluate,
)

__all__ = ["ParityExpr"]

Atom = object  # atoms are hashable: variable names (str) or UFBool terms


@dataclass(frozen=True)
class ParityExpr:
    """A parity ``constant + sum of atoms (mod 2)`` over boolean atoms."""

    atoms: frozenset = field(default_factory=frozenset)
    constant: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "constant", int(self.constant) % 2)
        object.__setattr__(self, "atoms", frozenset(self.atoms))

    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "ParityExpr":
        return ParityExpr(frozenset(), 0)

    @staticmethod
    def one() -> "ParityExpr":
        return ParityExpr(frozenset(), 1)

    @staticmethod
    def of_variable(name: str) -> "ParityExpr":
        return ParityExpr(frozenset({name}), 0)

    @staticmethod
    def of_atoms(atoms, constant: int = 0) -> "ParityExpr":
        result = ParityExpr(frozenset(), constant)
        for atom in atoms:
            result = result ^ ParityExpr(frozenset({atom}), 0)
        return result

    @staticmethod
    def from_bool_expr(expr: BoolExpr) -> "ParityExpr":
        """Convert an XOR-shaped boolean expression into a parity.

        Only constants, variables, uninterpreted applications and XOR nodes
        are accepted; anything else is kept as a single opaque atom.
        """
        if isinstance(expr, BoolConst):
            return ParityExpr(frozenset(), int(expr.value))
        if isinstance(expr, BoolVar):
            return ParityExpr.of_variable(expr.name)
        if isinstance(expr, UFBool):
            return ParityExpr(frozenset({expr}), 0)
        if isinstance(expr, Xor):
            result = ParityExpr.zero()
            for operand in expr.operands:
                result = result ^ ParityExpr.from_bool_expr(operand)
            return result
        return ParityExpr(frozenset({expr}), 0)

    # ------------------------------------------------------------------
    def __xor__(self, other: "ParityExpr") -> "ParityExpr":
        return ParityExpr(
            self.atoms.symmetric_difference(other.atoms),
            self.constant ^ other.constant,
        )

    def __add__(self, other: "ParityExpr") -> "ParityExpr":
        return self ^ other

    def flipped(self) -> "ParityExpr":
        """The parity plus one (a sign flip of the Pauli term it decorates)."""
        return ParityExpr(self.atoms, self.constant ^ 1)

    def is_zero(self) -> bool:
        return not self.atoms and self.constant == 0

    # ------------------------------------------------------------------
    def substitute(self, mapping: dict) -> "ParityExpr":
        """Replace atoms by parities (used by the classical assignment rule).

        ``mapping`` maps an atom (usually a variable name) to a
        :class:`ParityExpr`, a :class:`BoolExpr` or a constant.
        """
        result = ParityExpr(frozenset(), self.constant)
        for atom in self.atoms:
            if atom in mapping:
                replacement = mapping[atom]
                if isinstance(replacement, ParityExpr):
                    result = result ^ replacement
                elif isinstance(replacement, BoolExpr):
                    result = result ^ ParityExpr.from_bool_expr(replacement)
                else:
                    result = result ^ ParityExpr(frozenset(), int(replacement))
            else:
                result = result ^ ParityExpr(frozenset({atom}), 0)
        return result

    def evaluate(self, memory) -> int:
        """Evaluate the parity under a classical memory mapping."""
        total = self.constant
        for atom in self.atoms:
            if isinstance(atom, str):
                total ^= int(bool(memory[atom]))
            elif isinstance(atom, BoolExpr):
                total ^= int(bool(evaluate(atom, memory)))
            else:
                total ^= int(bool(atom))
        return total

    def to_bool_expr(self) -> BoolExpr:
        """Lower the parity to a boolean expression (an XOR node)."""
        operands: list[BoolExpr] = []
        for atom in sorted(self.atoms, key=repr):
            if isinstance(atom, str):
                operands.append(BoolVar(atom))
            elif isinstance(atom, BoolExpr):
                operands.append(atom)
            else:
                raise TypeError(f"cannot lower atom {atom!r} to a boolean expression")
        if self.constant:
            operands.append(BoolConst(True))
        if not operands:
            return BoolConst(False)
        if len(operands) == 1:
            return operands[0]
        return Xor(tuple(operands))

    def variables(self) -> frozenset:
        return frozenset(a for a in self.atoms if isinstance(a, str))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = [repr(a) if not isinstance(a, str) else a for a in sorted(self.atoms, key=repr)]
        if self.constant:
            parts.append("1")
        return " + ".join(parts)
