"""Stabilizer groups and their structural operations.

A stabilizer group is specified by a list of independent, mutually commuting
Hermitian Pauli generators not containing ``-I``.  The verification-condition
reduction of Section 5.1 needs three structural operations on such groups:

* membership: express a Pauli operator that commutes with the whole group as
  a product of generators, recovering the phase ``alpha`` of Proposition 5.2;
* logical-operator construction: complete a generating set of an ``[[n, k]]``
  code with ``k`` anti-commuting logical X/Z pairs (symplectic Gram-Schmidt);
* syndrome maps: which generators anti-commute with a given error.

The generators are an immutable tuple, so the group row-reduces their
symplectic matrix once (lazily) and every membership query reuses that
reduction, packed into ints, instead of eliminating the same matrix again.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.pauli.pauli import PauliOperator
from repro.utils.bitmatrix import (
    as_gf2,
    gf2_gaussian_elimination,
    gf2_nullspace,
    gf2_pack,
)

__all__ = ["StabilizerGroup", "symplectic_product_matrix"]

# Packed pivot rows of the generator matrix's rref, the matching rows of the
# transform, and the pivot columns (see ``StabilizerGroup._reduced``).
_Reduction = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def symplectic_product_matrix(num_qubits: int) -> np.ndarray:
    """The 2n x 2n block matrix ``[[0, I], [I, 0]]`` defining the symplectic form."""
    identity = np.eye(num_qubits, dtype=np.uint8)
    zero = np.zeros((num_qubits, num_qubits), dtype=np.uint8)
    return np.block([[zero, identity], [identity, zero]]).astype(np.uint8)


class StabilizerGroup:
    """An abelian subgroup of the Pauli group given by independent generators."""

    def __init__(self, generators: Sequence[PauliOperator], validate: bool = True):
        if not generators:
            raise ValueError("a stabilizer group needs at least one generator")
        num_qubits = generators[0].num_qubits
        for gen in generators:
            if gen.num_qubits != num_qubits:
                raise ValueError("all generators must act on the same number of qubits")
        self.generators: tuple[PauliOperator, ...] = tuple(generators)
        self.num_qubits = num_qubits
        self._reduction: _Reduction | None = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for gen in self.generators:
            if not gen.is_hermitian():
                raise ValueError(f"generator {gen.label()} is not Hermitian")
        for i, gi in enumerate(self.generators):
            for gj in self.generators[i + 1:]:
                if not gi.commutes_with(gj):
                    raise ValueError(
                        f"generators {gi.label()} and {gj.label()} do not commute"
                    )
        if len(self._reduced()[2]) != len(self.generators):
            raise ValueError("generators are not independent")

    def _reduced(self) -> _Reduction:
        """The generator matrix's GF(2) elimination as packed ``(rref, transform, pivots)``.

        Only the pivot rows are kept: ``rref[i]`` is the reduced ``[x | z]``
        row with its pivot at column ``pivots[i]`` (bit ``c`` = column ``c``)
        and ``transform[i]`` marks the generators summed to produce it.
        Computed on first use and then shared by every query; two threads
        racing here only duplicate the (identical) work.
        """
        if self._reduction is None:
            rref, transform, pivots = gf2_gaussian_elimination(self.symplectic_matrix())
            rank = len(pivots)
            self._reduction = (
                tuple(gf2_pack(row) for row in rref[:rank].tolist()),
                tuple(gf2_pack(row) for row in transform[:rank].tolist()),
                tuple(pivots),
            )
        return self._reduction

    # ------------------------------------------------------------------
    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def num_logical_qubits(self) -> int:
        return self.num_qubits - self.num_generators

    def symplectic_matrix(self) -> np.ndarray:
        """Matrix whose rows are the ``[x | z]`` vectors of the generators."""
        return np.array(
            [gen.symplectic_vector() for gen in self.generators], dtype=np.uint8
        )

    # ------------------------------------------------------------------
    def commutes_with(self, operator: PauliOperator) -> bool:
        """Whether ``operator`` commutes with every generator."""
        return all(gen.commutes_with(operator) for gen in self.generators)

    def syndrome(self, error: PauliOperator) -> tuple[int, ...]:
        """Syndrome bits: 1 where the error anti-commutes with a generator."""
        return tuple(
            0 if gen.commutes_with(error) else 1 for gen in self.generators
        )

    def syndrome_of_vector(self, symplectic_error: np.ndarray) -> np.ndarray:
        """Syndrome of an error given as a length-2n ``[x | z]`` vector."""
        gens = self.symplectic_matrix().astype(np.int64)
        lam = symplectic_product_matrix(self.num_qubits).astype(np.int64)
        err = np.asarray(symplectic_error, dtype=np.int64).reshape(-1) % 2
        return ((gens @ lam @ err) % 2).astype(np.uint8)

    # ------------------------------------------------------------------
    def decompose(self, operator: PauliOperator) -> tuple[tuple[int, ...], int] | None:
        """Express ``operator`` as ``(-1)^alpha * prod_i g_i^{c_i}``.

        Returns ``(c, alpha)`` or ``None`` when the operator (ignoring phase)
        is not in the group generated by the generators.  This realises the
        decomposition used by Proposition 5.2.
        """
        if operator.num_qubits != self.num_qubits:
            raise ValueError("operator acts on a different number of qubits")
        # Solve c^T * gens = target over GF(2) against the cached reduction.
        residue = operator.symplectic_mask
        coeffs = 0
        for row, transform, col in zip(*self._reduced()):
            if residue >> col & 1:
                residue ^= row
                coeffs ^= transform
        if residue:
            return None
        product = PauliOperator.identity(self.num_qubits)
        for index, gen in enumerate(self.generators):
            if coeffs >> index & 1:
                product = product * gen
        # product = (+/-1) * operator-without-its-phase; recover alpha.
        ratio = product * operator.adjoint()
        if ratio.weight != 0:
            return None
        if ratio.phase == 0:
            alpha = 0
        elif ratio.phase == 2:
            alpha = 1
        else:
            # An imaginary ratio cannot happen for Hermitian inputs.
            return None
        return tuple(coeffs >> index & 1 for index in range(self.num_generators)), alpha

    def contains(self, operator: PauliOperator) -> bool:
        """Group membership including the phase."""
        decomposition = self.decompose(operator)
        return decomposition is not None and decomposition[1] == 0

    def contains_up_to_phase(self, operator: PauliOperator) -> bool:
        return self.decompose(operator) is not None

    # ------------------------------------------------------------------
    def is_logical_operator(self, operator: PauliOperator) -> bool:
        """Non-trivial logical: commutes with the group but is not in it (up to phase)."""
        return self.commutes_with(operator) and not self.contains_up_to_phase(operator)

    def centralizer_basis(self) -> list[PauliOperator]:
        """Basis (up to phase) of all Paulis commuting with every generator."""
        gens = self.symplectic_matrix().astype(np.int64)
        lam = symplectic_product_matrix(self.num_qubits).astype(np.int64)
        # v is in the centralizer iff gens . lam . v = 0.
        constraint = as_gf2((gens @ lam) % 2)
        basis = gf2_nullspace(constraint)
        return [PauliOperator.from_symplectic(row) for row in basis]

    def logical_operators(self) -> tuple[list[PauliOperator], list[PauliOperator]]:
        """Construct ``k`` anti-commuting logical X/Z pairs via symplectic Gram-Schmidt.

        Returns ``(logical_xs, logical_zs)`` with ``logical_xs[i]`` commuting
        with every generator and every other logical, and anti-commuting with
        ``logical_zs[i]`` only.
        """
        k = self.num_logical_qubits
        if k == 0:
            return [], []
        candidates = [
            op for op in self.centralizer_basis() if not self.contains_up_to_phase(op)
        ]
        logical_xs: list[PauliOperator] = []
        logical_zs: list[PauliOperator] = []
        remaining = list(candidates)
        while len(logical_xs) < k and remaining:
            x_candidate = remaining.pop(0)
            if self.contains_up_to_phase(x_candidate):
                continue
            partner_index = None
            for index, other in enumerate(remaining):
                if not x_candidate.commutes_with(other):
                    partner_index = index
                    break
            if partner_index is None:
                continue
            z_candidate = remaining.pop(partner_index)
            # Make every remaining candidate commute with the chosen pair.
            adjusted = []
            for other in remaining:
                fixed = other
                if not fixed.commutes_with(x_candidate):
                    fixed = fixed * z_candidate
                if not fixed.commutes_with(z_candidate):
                    fixed = fixed * x_candidate
                adjusted.append(fixed)
            remaining = adjusted
            logical_xs.append(PauliOperator(x_candidate.x, x_candidate.z, 0))
            logical_zs.append(PauliOperator(z_candidate.x, z_candidate.z, 0))
        if len(logical_xs) != k:
            raise RuntimeError("failed to construct a full set of logical operators")
        return logical_xs, logical_zs

    # ------------------------------------------------------------------
    def minimum_distance(self, max_weight: int | None = None) -> int | None:
        """Exact minimum weight of a logical operator, by brute force.

        Only intended for small codes used in tests.  Returns ``None`` when no
        logical operator of weight up to ``max_weight`` exists.
        """
        from itertools import combinations, product

        limit = max_weight if max_weight is not None else self.num_qubits
        for weight in range(1, limit + 1):
            for qubits in combinations(range(self.num_qubits), weight):
                for paulis in product("XYZ", repeat=weight):
                    op = PauliOperator.from_sparse(
                        self.num_qubits, dict(zip(qubits, paulis))
                    )
                    if self.is_logical_operator(op):
                        return weight
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        labels = ", ".join(gen.label() for gen in self.generators)
        return f"StabilizerGroup([{labels}])"
