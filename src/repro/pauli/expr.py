"""Symbolic Pauli expressions (PExp of the paper).

An atomic proposition of the assertion logic is a Pauli expression of the
form ``(-1)^phi * P`` where ``phi`` is a classical parity over program
variables and ``P`` an n-qubit Pauli.  Closure under the Clifford+T gate set
(Theorem 3.1) additionally requires sums of such terms with coefficients in
Z[1/sqrt(2)], e.g. the image ``(X - Y)/sqrt(2)`` of ``X`` under a T gate.

This module implements the expressions as flat sums of :class:`PauliTerm`
values together with the operations the weakest-precondition calculus needs:
multiplication, addition, backward/forward conjugation by every gate of the
language, conditional Pauli-error substitution, classical substitution in the
phases, and exact evaluation to a dense operator for ground-truth tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.classical.expr import Expr
from repro.classical.parity import ParityExpr
from repro.pauli.clifford import CLIFFORD_1Q, CLIFFORD_2Q, backward_images, forward_images
from repro.pauli.pauli import PauliOperator
from repro.pauli.scalar import SqrtTwoRational

__all__ = ["PhaseExpr", "PauliTerm", "PauliExpr"]

# A symbolic phase is a parity of boolean atoms; re-export under the paper's name.
PhaseExpr = ParityExpr


@dataclass(frozen=True)
class PauliTerm:
    """One summand ``coefficient * (-1)^phase * operator``."""

    operator: PauliOperator
    phase: ParityExpr = ParityExpr.zero()
    coefficient: SqrtTwoRational = SqrtTwoRational.one()

    def canonical(self) -> "PauliTerm":
        """Fold a concrete -1 sign of the operator into the symbolic phase.

        After canonicalisation the operator's residual sign is +1 or +i, so
        terms that differ only by a factor of -1 share the same operator and
        can be merged (or cancelled) by :meth:`PauliExpr.collect`.
        """
        y_count = sum(1 for xb, zb in zip(self.operator.x, self.operator.z) if xb and zb)
        sign_exponent = (self.operator.phase - y_count) % 4
        if sign_exponent in (2, 3):
            positive = PauliOperator(self.operator.x, self.operator.z, self.operator.phase + 2)
            return PauliTerm(positive, self.phase.flipped(), self.coefficient)
        return self

    def evaluate(self, memory) -> np.ndarray:
        """Dense matrix of the term under a classical memory."""
        sign = (-1) ** self.phase.evaluate(memory)
        return float(self.coefficient) * sign * self.operator.to_matrix()

    def __repr__(self) -> str:
        phase = "" if self.phase.is_zero() else f"(-1)^({self.phase!r})·"
        coeff = "" if self.coefficient.is_one() else f"{self.coefficient!r}·"
        return f"{coeff}{phase}{self.operator.label()}"


class PauliExpr:
    """A sum of :class:`PauliTerm` values on a fixed number of qubits."""

    def __init__(self, num_qubits: int, terms: list[PauliTerm] | None = None):
        self.num_qubits = num_qubits
        self.terms: tuple[PauliTerm, ...] = tuple(
            term.canonical() for term in (terms or []) if not term.coefficient.is_zero()
        )
        for term in self.terms:
            if term.operator.num_qubits != num_qubits:
                raise ValueError("all terms must act on the same number of qubits")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def atom(
        operator: PauliOperator,
        phase: ParityExpr | None = None,
        coefficient: SqrtTwoRational | int = 1,
    ) -> "PauliExpr":
        """A single Pauli atom ``coefficient * (-1)^phase * operator``."""
        if isinstance(coefficient, int):
            coefficient = SqrtTwoRational.from_int(coefficient)
        return PauliExpr(
            operator.num_qubits,
            [PauliTerm(operator, phase or ParityExpr.zero(), coefficient)],
        )

    @staticmethod
    def from_label(label: str, num_qubits: int | None = None) -> "PauliExpr":
        operator = PauliOperator.from_label(label)
        if num_qubits is not None and operator.num_qubits != num_qubits:
            raise ValueError("label length does not match num_qubits")
        return PauliExpr.atom(operator)

    @staticmethod
    def identity(num_qubits: int) -> "PauliExpr":
        return PauliExpr.atom(PauliOperator.identity(num_qubits))

    @staticmethod
    def zero(num_qubits: int) -> "PauliExpr":
        return PauliExpr(num_qubits, [])

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "PauliExpr") -> "PauliExpr":
        self._check_compatible(other)
        return PauliExpr(self.num_qubits, list(self.terms) + list(other.terms)).collect()

    def __sub__(self, other: "PauliExpr") -> "PauliExpr":
        return self + (-other)

    def __neg__(self) -> "PauliExpr":
        return PauliExpr(
            self.num_qubits,
            [PauliTerm(t.operator, t.phase.flipped(), t.coefficient) for t in self.terms],
        )

    def __mul__(self, other: "PauliExpr") -> "PauliExpr":
        self._check_compatible(other)
        products: list[PauliTerm] = []
        for left in self.terms:
            for right in other.terms:
                products.append(
                    PauliTerm(
                        left.operator * right.operator,
                        left.phase ^ right.phase,
                        left.coefficient * right.coefficient,
                    )
                )
        return PauliExpr(self.num_qubits, products).collect()

    def scaled(self, coefficient: SqrtTwoRational | int) -> "PauliExpr":
        if isinstance(coefficient, int):
            coefficient = SqrtTwoRational.from_int(coefficient)
        return PauliExpr(
            self.num_qubits,
            [PauliTerm(t.operator, t.phase, t.coefficient * coefficient) for t in self.terms],
        )

    def collect(self) -> "PauliExpr":
        """Merge terms with identical operator and symbolic phase.

        Terms whose phases differ only by the constant bit (i.e. by an overall
        factor of -1) are merged with opposite coefficient signs, so exact
        cancellations such as ``Z Y + Y Z = 0`` are recognised.
        """
        merged: dict[tuple, SqrtTwoRational] = {}
        order: list[tuple] = []
        for term in self.terms:
            canonical = term.canonical()
            key = (canonical.operator, canonical.phase.atoms)
            if key not in merged:
                merged[key] = SqrtTwoRational.zero()
                order.append(key)
            signed = canonical.coefficient
            if canonical.phase.constant:
                signed = -signed
            merged[key] = merged[key] + signed
        terms = [
            PauliTerm(op, ParityExpr(atoms, 0), coeff)
            for (op, atoms) in order
            if not (coeff := merged[(op, atoms)]).is_zero()
        ]
        return PauliExpr(self.num_qubits, terms)

    # ------------------------------------------------------------------
    # Gate conjugation (wp substitution and Heisenberg evolution)
    # ------------------------------------------------------------------
    def apply_gate(
        self, gate: str, qubits: tuple[int, ...], direction: str = "backward"
    ) -> "PauliExpr":
        """Conjugate the expression by a gate of the language.

        ``direction="backward"`` yields ``U^dagger expr U`` (the substitution
        used by the proof rules of Fig. 3); ``"forward"`` yields
        ``U expr U^dagger``.
        """
        name = gate.upper()
        if name in ("T", "TDG"):
            return self._apply_t_gate(qubits[0], name, direction)
        if name not in CLIFFORD_1Q and name not in CLIFFORD_2Q:
            raise ValueError(f"unsupported gate {gate!r}")
        images = backward_images(name) if direction == "backward" else forward_images(name)
        result_terms: list[PauliExpr] = []
        for term in self.terms:
            conjugated = self._conjugate_term(term, name, qubits, images)
            result_terms.append(conjugated)
        return _sum_exprs(self.num_qubits, result_terms)

    def _conjugate_term(
        self,
        term: PauliTerm,
        gate: str,
        qubits: tuple[int, ...],
        images: dict,
    ) -> "PauliExpr":
        arity = 1 if gate in CLIFFORD_1Q else 2
        if len(qubits) != arity:
            raise ValueError(f"gate {gate} expects {arity} qubit(s)")
        result = PauliExpr.atom(
            PauliOperator((0,) * self.num_qubits, (0,) * self.num_qubits, term.operator.phase),
            term.phase,
            term.coefficient,
        )
        for qubit in range(self.num_qubits):
            for char, bit in (("X", term.operator.x[qubit]), ("Z", term.operator.z[qubit])):
                if not bit:
                    continue
                if qubit not in qubits:
                    factor = PauliExpr.atom(
                        PauliOperator.from_sparse(self.num_qubits, {qubit: char})
                    )
                else:
                    role = qubits.index(qubit)
                    key = char if arity == 1 else (char, role)
                    sign, chars = images[key]
                    sparse = {qubits[r]: c for r, c in enumerate(chars) if c != "I"}
                    operator = PauliOperator.from_sparse(self.num_qubits, sparse)
                    if sign < 0:
                        operator = -operator
                    factor = PauliExpr.atom(operator)
                result = result * factor
        return result

    def _apply_t_gate(self, qubit: int, name: str, direction: str) -> "PauliExpr":
        """Conjugation by T (or T^dagger): X -> (X -/+ Y)/sqrt(2), Z -> Z."""
        # Backward T: X -> (X - Y)/sqrt2.  Forward T: X -> (X + Y)/sqrt2.
        # For TDG the two directions swap.
        minus = (direction == "backward") == (name == "T")
        inv_sqrt2 = SqrtTwoRational.inv_sqrt2()
        x_image = PauliExpr(
            self.num_qubits,
            [
                PauliTerm(
                    PauliOperator.from_sparse(self.num_qubits, {qubit: "X"}),
                    ParityExpr.zero(),
                    inv_sqrt2,
                ),
                PauliTerm(
                    PauliOperator.from_sparse(self.num_qubits, {qubit: "Y"}),
                    ParityExpr.one() if minus else ParityExpr.zero(),
                    inv_sqrt2,
                ),
            ],
        )
        results: list[PauliExpr] = []
        for term in self.terms:
            expr = PauliExpr.atom(
                PauliOperator(
                    (0,) * self.num_qubits, (0,) * self.num_qubits, term.operator.phase
                ),
                term.phase,
                term.coefficient,
            )
            for index in range(self.num_qubits):
                for char, bit in (("X", term.operator.x[index]), ("Z", term.operator.z[index])):
                    if not bit:
                        continue
                    if index == qubit and char == "X":
                        factor = x_image
                    else:
                        factor = PauliExpr.atom(
                            PauliOperator.from_sparse(self.num_qubits, {index: char})
                        )
                    expr = expr * factor
            results.append(expr)
        return _sum_exprs(self.num_qubits, results)

    def apply_conditional_pauli(
        self, qubit: int, pauli: str, condition: ParityExpr
    ) -> "PauliExpr":
        """The derived rules for ``[b] q_i *= U`` with ``U`` a Pauli error.

        Conjugation by ``U^b`` multiplies a term by ``(-1)^(b)`` exactly when
        the term anti-commutes with the error, which reproduces the
        substitutions ``A[(-1)^b Y_i / Y_i, (-1)^b Z_i / Z_i]`` etc.
        """
        error = PauliOperator.from_sparse(self.num_qubits, {qubit: pauli})
        new_terms = []
        for term in self.terms:
            if term.operator.commutes_with(error):
                new_terms.append(term)
            else:
                new_terms.append(
                    PauliTerm(term.operator, term.phase ^ condition, term.coefficient)
                )
        return PauliExpr(self.num_qubits, new_terms)

    # ------------------------------------------------------------------
    # Classical substitution and evaluation
    # ------------------------------------------------------------------
    def substitute_classical(self, mapping: dict[str, Expr | ParityExpr | int]) -> "PauliExpr":
        """Substitute classical variables inside the symbolic phases."""
        return PauliExpr(
            self.num_qubits,
            [
                PauliTerm(t.operator, t.phase.substitute(mapping), t.coefficient)
                for t in self.terms
            ],
        )

    def evaluate_operator(self, memory) -> np.ndarray:
        """Dense matrix of the expression under a classical memory (tests only)."""
        dim = 2 ** self.num_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            total += term.evaluate(memory)
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_single_pauli(self) -> bool:
        """Whether the expression is a single term with coefficient one."""
        return len(self.terms) == 1 and self.terms[0].coefficient.is_one()

    def single_term(self) -> PauliTerm:
        if len(self.terms) != 1:
            raise ValueError("expression is not a single Pauli term")
        return self.terms[0]

    def free_variables(self) -> frozenset[str]:
        names: set[str] = set()
        for term in self.terms:
            names.update(term.phase.variables())
        return frozenset(names)

    def phase_atoms(self) -> frozenset:
        atoms: set = set()
        for term in self.terms:
            atoms.update(term.phase.atoms)
        return frozenset(atoms)

    def _check_compatible(self, other: "PauliExpr") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli expressions act on different numbers of qubits")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliExpr):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and sorted(map(repr, self.collect().terms)) == sorted(map(repr, other.collect().terms))
        )

    def __hash__(self) -> int:
        return hash((self.num_qubits, tuple(sorted(map(repr, self.collect().terms)))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(repr(term) for term in self.terms)


def _sum_exprs(num_qubits: int, exprs: list[PauliExpr]) -> PauliExpr:
    terms: list[PauliTerm] = []
    for expr in exprs:
        terms.extend(expr.terms)
    return PauliExpr(num_qubits, terms).collect()
