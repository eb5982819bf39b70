"""Encoding classical expressions into CNF.

The verification conditions produced by the VC generator are boolean
combinations of

* boolean program variables (error indicators, syndromes, corrections),
* parities (XOR chains) coming from phase bookkeeping,
* cardinality constraints ``sum of indicators <= bound`` and comparisons
  between two sums (the decoder condition P_f), and
* uninterpreted decoder outputs ``f_z,i(s)``.

Everything is reduced to CNF with a Tseitin transformation.  A sum is encoded
as a bidirectional sequential counter whose unary "at least j" bits keep
comparisons correct in any boolean context (negated, nested under
implications, selector-guarded, ...).  Counters are truncated (Sinz, CP 2005):
a comparison builds only the thresholds it reads -- ``sum <= t`` needs
``t + 1`` of them, ``sum >= 1`` one -- so a weight bound over ``n`` indicators
costs ``O(n * t)`` clauses rather than ``O(n^2)``.  A counter is cached per
literal tuple and widened in place when a later comparison (a distance walk's
next weight guard, say) reads a higher threshold; widening only defines
fresh variables, so it is sound on a live incremental session.
"""

from __future__ import annotations

from repro.classical.expr import (
    Add,
    And,
    BoolConst,
    BoolExpr,
    BoolToInt,
    BoolVar,
    Expr,
    Iff,
    Implies,
    IntConst,
    IntEq,
    IntExpr,
    IntLe,
    IntVar,
    Not,
    Or,
    UFBool,
    Xor,
)
from repro.smt.cnf import CNF

__all__ = ["FormulaEncoder"]


class FormulaEncoder:
    """Stateful encoder mapping :class:`BoolExpr` trees onto a CNF."""

    def __init__(self) -> None:
        self.cnf = CNF()
        self._cache: dict[Expr, int] = {}
        self._counter_cache: dict[tuple[int, ...], list[list[int]]] = {}
        self._constant_true: int | None = None

    # ------------------------------------------------------------------
    # Variables and constants
    # ------------------------------------------------------------------
    def variable(self, name: str) -> int:
        """The CNF literal of a named boolean program variable."""
        return self.cnf.var_for(("var", name))

    def named_literals(self) -> dict[str, int]:
        """Mapping from program variable names to CNF variables."""
        result = {}
        for key, var in self.cnf.named_variables().items():
            if isinstance(key, tuple) and key and key[0] == "var":
                result[key[1]] = var
        return result

    def selector(self, name: str) -> int:
        """The CNF literal of a named selector (assumption guard).

        Selectors live in their own namespace so they never show up in
        :meth:`named_literals` (and therefore never pollute extracted models).
        Asserting a selector literal as an assumption activates every
        constraint guarded by it; leaving it free deactivates them, because
        the solver may simply set the selector false.
        """
        return self.cnf.var_for(("sel", name))

    def assert_formula_if(self, name: str, expr: BoolExpr) -> int:
        """Constrain ``selector(name) -> expr`` and return the selector literal.

        Conjunctions at the top of ``expr`` are flattened, Plaisted–Greenbaum
        style: ``sel -> (c1 and c2 ...)`` is ``(-sel or c1) and (-sel or c2)
        ...``, so each leaf conjunct gets its own guarded clause and the
        top-level ``And`` nodes get no gate variable and no cache entry.  Every
        clause the guard adds beyond the (shared, cached) encodings of its
        conjuncts therefore holds ``-sel``: retiring the selector lets the
        solver erase all of them, and the encoder cache does not keep the
        guarded formula alive.
        """
        guard = self.selector(name)
        pending = [expr]
        while pending:
            node = pending.pop()
            if isinstance(node, And):
                pending.extend(reversed(node.operands))
            else:
                self.cnf.add_clause([-guard, self.encode(node)])
        return guard

    def assert_le_if(self, name: str, left: IntExpr, right: IntExpr) -> int:
        """Constrain ``selector(name) -> (left <= right)``; return the selector.

        The comparison reuses the shared unary counter, so emitting guards
        for many thresholds over the same sum (one per trial distance, say)
        costs one counter, widened to the largest bound, plus the guard
        clauses.
        """
        guard = self.selector(name)
        self.cnf.add_clause([-guard, self.encode(IntLe(left, right))])
        return guard

    def assert_ge_if(self, name: str, left: IntExpr, right: IntExpr) -> int:
        """Constrain ``selector(name) -> (left >= right)``; return the selector.

        The guarded *lower* bound is what lets distance discovery binary-search
        the trial distance: once every weight up to ``lo - 1`` is refuted, a
        query may be narrowed to ``lo <= weight <= mid`` without giving up the
        shared counter encoding (``left >= right`` is ``right <= left``, so
        the same unary counter bits serve both directions).
        """
        guard = self.selector(name)
        self.cnf.add_clause([-guard, self.encode(IntLe(right, left))])
        return guard

    def true_literal(self) -> int:
        if self._constant_true is None:
            self._constant_true = self.cnf.new_var(("const", True))
            self.cnf.add_clause([self._constant_true])
        return self._constant_true

    def false_literal(self) -> int:
        return -self.true_literal()

    # ------------------------------------------------------------------
    # Gate helpers (all bidirectional)
    # ------------------------------------------------------------------
    def _mk_and(self, literals: list[int]) -> int:
        literals = [lit for lit in literals if lit != self.true_literal()]
        if any(lit == self.false_literal() for lit in literals):
            return self.false_literal()
        if not literals:
            return self.true_literal()
        if len(literals) == 1:
            return literals[0]
        output = self.cnf.new_var()
        for lit in literals:
            self.cnf.add_clause([-output, lit])
        self.cnf.add_clause([output] + [-lit for lit in literals])
        return output

    def _mk_or(self, literals: list[int]) -> int:
        literals = [lit for lit in literals if lit != self.false_literal()]
        if any(lit == self.true_literal() for lit in literals):
            return self.true_literal()
        if not literals:
            return self.false_literal()
        if len(literals) == 1:
            return literals[0]
        output = self.cnf.new_var()
        for lit in literals:
            self.cnf.add_clause([-lit, output])
        self.cnf.add_clause([-output] + list(literals))
        return output

    def _mk_xor2(self, a: int, b: int) -> int:
        output = self.cnf.new_var()
        self.cnf.add_clause([-output, a, b])
        self.cnf.add_clause([-output, -a, -b])
        self.cnf.add_clause([output, -a, b])
        self.cnf.add_clause([output, a, -b])
        return output

    def _mk_xor(self, literals: list[int]) -> int:
        if not literals:
            return self.false_literal()
        accumulator = literals[0]
        for lit in literals[1:]:
            accumulator = self._mk_xor2(accumulator, lit)
        return accumulator

    # ------------------------------------------------------------------
    # Boolean expression encoding
    # ------------------------------------------------------------------
    def encode(self, expr: BoolExpr) -> int:
        """Return a CNF literal equivalent to ``expr``."""
        if expr in self._cache:
            return self._cache[expr]
        literal = self._encode_uncached(expr)
        self._cache[expr] = literal
        return literal

    def _encode_uncached(self, expr: BoolExpr) -> int:
        if isinstance(expr, BoolConst):
            return self.true_literal() if expr.value else self.false_literal()
        if isinstance(expr, BoolVar):
            return self.variable(expr.name)
        if isinstance(expr, UFBool):
            arg_literals = tuple(self.encode(arg) for arg in expr.args)
            return self.cnf.var_for(("uf", expr.name, arg_literals))
        if isinstance(expr, Not):
            return -self.encode(expr.operand)
        if isinstance(expr, And):
            return self._mk_and([self.encode(op) for op in expr.operands])
        if isinstance(expr, Or):
            return self._mk_or([self.encode(op) for op in expr.operands])
        if isinstance(expr, Xor):
            return self._mk_xor([self.encode(op) for op in expr.operands])
        if isinstance(expr, Implies):
            return self._mk_or([-self.encode(expr.antecedent), self.encode(expr.consequent)])
        if isinstance(expr, Iff):
            return -self._mk_xor2(self.encode(expr.left), self.encode(expr.right))
        if isinstance(expr, IntLe):
            return self._encode_le(expr.left, expr.right)
        if isinstance(expr, IntEq):
            first = self._encode_le(expr.left, expr.right)
            second = self._encode_le(expr.right, expr.left)
            return self._mk_and([first, second])
        raise TypeError(f"cannot encode expression of type {type(expr).__name__}")

    def assert_formula(self, expr: BoolExpr) -> None:
        """Constrain the CNF so that ``expr`` must hold."""
        self.cnf.add_clause([self.encode(expr)])

    # ------------------------------------------------------------------
    # Integer sums and comparisons
    # ------------------------------------------------------------------
    def _flatten_sum(self, expr: IntExpr) -> tuple[list[int], int]:
        """Flatten an integer expression into (boolean literals, constant offset)."""
        if isinstance(expr, IntConst):
            return [], expr.value
        if isinstance(expr, BoolToInt):
            return [self.encode(expr.operand)], 0
        if isinstance(expr, Add):
            literals: list[int] = []
            constant = 0
            for term in expr.terms:
                term_literals, term_constant = self._flatten_sum(term)
                literals.extend(term_literals)
                constant += term_constant
            return literals, constant
        if isinstance(expr, IntVar):
            raise TypeError(
                f"free integer variable {expr.name!r} cannot be encoded; "
                "QEC verification conditions only contain sums of 0/1 indicators"
            )
        raise TypeError(f"cannot flatten integer expression of type {type(expr).__name__}")

    def _counter_at_least(self, literals: list[int], width: int) -> list[int]:
        """Unary counter bits ``ge[j]`` for ``1 <= j <= width``, with ``ge[j] <-> sum >= j``.

        Row ``i`` holds the bits of the prefix sum over ``literals[:i + 1]``.
        Column ``j`` of a row reads only columns ``j - 1`` and ``j`` of the
        row above, so a counter ``width`` columns wide costs ``O(n * width)``
        gates.  The rows are cached per literal tuple, and a wider request
        appends the missing columns to every row in place.  The gates are the
        bidirectional ones above, so the bits hold under any polarity and
        widening a counter on a live session only defines fresh variables.
        """
        width = min(width, len(literals))
        if width <= 0:
            return []
        rows = self._counter_cache.setdefault(tuple(literals), [[] for _ in literals])
        if len(rows[-1]) < width:
            for index, lit in enumerate(literals):
                row = rows[index]
                previous = rows[index - 1] if index else []
                for j in range(len(row), min(index + 1, width)):
                    # Column j is "prefix sum >= j + 1".
                    with_this = lit if j == 0 else self._mk_and([lit, previous[j - 1]])
                    if j < len(previous):
                        with_this = self._mk_or([previous[j], with_this])
                    row.append(with_this)
        return rows[-1][:width]

    def _at_least(self, literals: list[int], threshold: int) -> int:
        """Literal for ``sum(literals) >= threshold``, widening the counter if needed."""
        if threshold <= 0:
            return self.true_literal()
        if threshold > len(literals):
            return self.false_literal()
        return self._counter_at_least(literals, threshold)[threshold - 1]

    def _encode_le(self, left: IntExpr, right: IntExpr) -> int:
        left_literals, left_constant = self._flatten_sum(left)
        right_literals, right_constant = self._flatten_sum(right)
        delta = right_constant - left_constant
        # sum(L) <= sum(R) + delta  <=>  for all j >= 0: sum(L) >= j -> sum(R) >= j - delta.
        # Thresholds j <= delta hold trivially.  At j = |R| + delta + 1 the
        # consequent is false, so the conjunct forbids sum(L) >= j outright,
        # which implies every larger j.  The conjunct for j = 0 (only read
        # when delta < 0) carries the purely-constant part of the comparison.
        first = max(0, delta + 1)
        last = max(0, min(len(left_literals), len(right_literals) + delta + 1))
        if first > last:
            return self.true_literal()
        self._counter_at_least(left_literals, last)
        self._counter_at_least(right_literals, last - delta)
        conjuncts: list[int] = []
        for j in range(first, last + 1):
            antecedent = self._at_least(left_literals, j)
            consequent = self._at_least(right_literals, j - delta)
            conjuncts.append(self._mk_or([-antecedent, consequent]))
        return self._mk_and(conjuncts)
