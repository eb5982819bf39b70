"""Conjunctive normal form containers.

Literals follow the DIMACS convention: variable ``v >= 1`` appears positively
as ``v`` and negatively as ``-v``.  The CNF object owns the variable counter
so encoders can allocate auxiliary (Tseitin) variables without clashing.

``clauses`` holds the clauses added and not yet handed to a solver: a
:class:`~repro.smt.interface.SolveSession` empties it each time it syncs its
solver, while ``num_clauses`` counts every clause ever added.
"""

from __future__ import annotations

__all__ = ["CNF"]


class CNF:
    """A growable CNF formula with named input variables."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.num_clauses = 0
        self.clauses: list[list[int]] = []
        self._names: dict[object, int] = {}

    # ------------------------------------------------------------------
    def new_var(self, name: object | None = None) -> int:
        """Allocate a fresh variable, optionally associated with a name."""
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            if name in self._names:
                raise ValueError(f"variable name {name!r} already allocated")
            self._names[name] = var
        return var

    def var_for(self, name: object) -> int:
        """Variable for ``name``, allocating it on first use."""
        if name not in self._names:
            return self.new_var(name)
        return self._names[name]

    def named_variables(self) -> dict[object, int]:
        return dict(self._names)

    # ------------------------------------------------------------------
    def add_clause(self, literals) -> None:
        """Add a clause; tautologies are dropped and duplicates removed."""
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            lit = int(lit)
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        self.clauses.append(clause)
        self.num_clauses += 1

    # ------------------------------------------------------------------
    def to_dimacs(self) -> str:
        """Serialise in DIMACS format (useful for debugging and external
        cross-checks); complete only while no session has drained ``clauses``,
        i.e. before its first check."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(map(str, clause)) + " 0")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"CNF(vars={self.num_vars}, clauses={self.num_clauses})"
