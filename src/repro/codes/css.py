"""CSS codes and the hypergraph-product construction.

A CSS code is specified by two binary parity-check matrices ``Hx`` and ``Hz``
with ``Hx @ Hz.T = 0``: each row of ``Hx`` becomes an X-type stabilizer and
each row of ``Hz`` a Z-type stabilizer.  The hypergraph product of two
classical codes (Tillich-Zemor) yields the quantum LDPC entries of Table 3.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import StabilizerCode
from repro.pauli.pauli import PauliOperator
from repro.utils.bitmatrix import as_gf2, gf2_matmul

__all__ = ["CSSCode", "hypergraph_product_code", "hamming_parity_check"]


class CSSCode(StabilizerCode):
    """A stabilizer code built from two classical parity-check matrices."""

    def __init__(
        self,
        name: str,
        x_check_matrix,
        z_check_matrix,
        distance: int | None = None,
        logical_xs: list[PauliOperator] | None = None,
        logical_zs: list[PauliOperator] | None = None,
        metadata: dict | None = None,
    ):
        hx = as_gf2(x_check_matrix)
        hz = as_gf2(z_check_matrix)
        if hx.shape[1] != hz.shape[1]:
            raise ValueError("Hx and Hz must have the same number of columns")
        if gf2_matmul(hx, hz.T).any():
            raise ValueError("CSS condition violated: Hx @ Hz^T != 0")
        num_qubits = hx.shape[1]
        stabilizers = []
        for row in hx:
            stabilizers.append(
                PauliOperator(tuple(int(b) for b in row), (0,) * num_qubits)
            )
        for row in hz:
            stabilizers.append(
                PauliOperator((0,) * num_qubits, tuple(int(b) for b in row))
            )
        # Drop dependent rows so the generating set is minimal.
        stabilizers = _independent_subset(stabilizers)
        super().__init__(
            name,
            stabilizers,
            logical_xs=logical_xs,
            logical_zs=logical_zs,
            distance=distance,
            metadata=metadata,
        )


def _independent_subset(operators: list[PauliOperator]) -> list[PauliOperator]:
    """Greedily keep a maximal independent subset of the symplectic rows.

    One running reduction over packed ``[x | z]`` rows: ``basis`` maps each
    kept row's leading bit to that row (already reduced against the earlier
    ones), so a candidate is independent of the kept rows exactly when
    reducing it leaves something over.
    """
    kept: list[PauliOperator] = []
    basis: dict[int, int] = {}
    for op in operators:
        row = op.symplectic_mask
        while row and row.bit_length() - 1 in basis:
            row ^= basis[row.bit_length() - 1]
        if row:
            basis[row.bit_length() - 1] = row
            kept.append(op)
    return kept


def hamming_parity_check(r: int) -> np.ndarray:
    """Parity-check matrix of the ``[2^r - 1, 2^r - 1 - r, 3]`` Hamming code."""
    if r < 2:
        raise ValueError("Hamming codes need r >= 2")
    columns = []
    for value in range(1, 2 ** r):
        columns.append([(value >> bit) & 1 for bit in range(r)])
    return np.array(columns, dtype=np.uint8).T


def hypergraph_product_code(
    h1, h2, name: str | None = None, distance: int | None = None
) -> CSSCode:
    """The hypergraph product of two classical parity-check matrices.

    For classical codes with parameters ``[n_i, k_i, d_i]`` and check matrices
    of shape ``m_i x n_i``, the quantum code has
    ``n = n1*n2 + m1*m2`` physical qubits and
    ``k = k1*k2 + k1^T*k2^T`` logical qubits, with distance
    ``min(d1, d2)`` when both transpose codes are trivial.
    """
    h1 = as_gf2(h1)
    h2 = as_gf2(h2)
    m1, n1 = h1.shape
    m2, n2 = h2.shape

    identity_n1 = np.eye(n1, dtype=np.uint8)
    identity_n2 = np.eye(n2, dtype=np.uint8)
    identity_m1 = np.eye(m1, dtype=np.uint8)
    identity_m2 = np.eye(m2, dtype=np.uint8)

    # Qubits: block A of size n1*n2, block B of size m1*m2.
    hx = np.concatenate([np.kron(h1, identity_n2), np.kron(identity_m1, h2.T)], axis=1)
    hz = np.concatenate([np.kron(identity_n1, h2), np.kron(h1.T, identity_m2)], axis=1)
    label = name or f"hypergraph-product({n1}x{n2})"
    return CSSCode(label, hx, hz, distance=distance, metadata={"construction": "hypergraph product"})
