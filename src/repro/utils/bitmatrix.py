"""Linear algebra over GF(2).

Parity-check matrices, stabilizer generator matrices, logical-operator
construction and the commuting-case reduction of verification conditions
(Proposition 5.2 in the paper) all reduce to row operations over the
two-element field.  This module provides the handful of primitives the rest
of the package relies on, implemented on top of ``numpy`` ``uint8`` arrays
whose entries are always 0 or 1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_gf2",
    "gf2_row_reduce",
    "gf2_gaussian_elimination",
    "gf2_rank",
    "gf2_solve",
    "gf2_nullspace",
    "gf2_span_contains",
    "gf2_matmul",
    "gf2_pack",
    "gf2_unpack",
]

# Translation tables between one-byte-per-bit data and the digits "0"/"1".
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def as_gf2(matrix) -> np.ndarray:
    """Return ``matrix`` as a 2-D ``uint8`` array reduced modulo 2.

    Accepts nested lists or numpy arrays.  A 1-D input is promoted to a
    single-row matrix so callers can pass vectors uniformly.
    """
    arr = np.array(matrix, dtype=np.int64) % 2
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got shape {arr.shape}")
    return arr.astype(np.uint8)


def gf2_pack(bits) -> int:
    """Pack a sequence of 0/1 ints (or ``bytes``) into an int whose bit ``j`` is ``bits[j]``.

    Packed rows turn GF(2) row operations into ``^`` and inner products into
    ``(a & b).bit_count() & 1``, at any width.  An entry other than 0 or 1
    raises ``ValueError``.
    """
    return int(bytes(bits)[::-1].translate(_BITS_TO_DIGITS) or b"0", 2)


def gf2_unpack(mask: int, length: int) -> bytes:
    """Inverse of :func:`gf2_pack`: ``length`` bytes, byte ``j`` = bit ``j`` of ``mask``."""
    # A sentinel bit at ``length`` fixes the digit count; reversing drops it.
    return format(mask | (1 << length), "b")[:0:-1].encode().translate(_DIGITS_TO_BITS)


def gf2_row_reduce(matrix) -> tuple[np.ndarray, list[int]]:
    """Row-reduce ``matrix`` over GF(2) to reduced row echelon form.

    Returns ``(rref, pivot_columns)``.  Zero rows are kept at the bottom so
    the output has the same shape as the input.
    """
    mat = as_gf2(matrix).copy()
    rows, cols = mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_rows = np.nonzero(mat[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pivot = r + int(pivot_rows[0])
        if pivot != r:
            mat[[r, pivot]] = mat[[pivot, r]]
        # Eliminate this column from every other row.
        other = np.nonzero(mat[:, c])[0]
        for row in other:
            if row != r:
                mat[row] ^= mat[r]
        pivots.append(c)
        r += 1
    return mat, pivots


def gf2_gaussian_elimination(matrix) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Row-reduce ``matrix`` while tracking the transformation.

    Returns ``(rref, transform, pivot_columns)`` with
    ``transform @ matrix == rref`` over GF(2).  ``transform`` records which
    input rows were combined to produce each output row; the stabilizer-group
    membership routines use it to express an operator as a product of
    generators.
    """
    mat = as_gf2(matrix).copy()
    rows, cols = mat.shape
    transform = np.eye(rows, dtype=np.uint8)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_rows = np.nonzero(mat[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pivot = r + int(pivot_rows[0])
        if pivot != r:
            mat[[r, pivot]] = mat[[pivot, r]]
            transform[[r, pivot]] = transform[[pivot, r]]
        for row in np.nonzero(mat[:, c])[0]:
            if row != r:
                mat[row] ^= mat[r]
                transform[row] ^= transform[r]
        pivots.append(c)
        r += 1
    return mat, transform, pivots


def gf2_rank(matrix) -> int:
    """Rank of ``matrix`` over GF(2)."""
    _, pivots = gf2_row_reduce(matrix)
    return len(pivots)


def gf2_matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2)."""
    left = as_gf2(a).astype(np.int64)
    right = as_gf2(b).astype(np.int64)
    return ((left @ right) % 2).astype(np.uint8)


def gf2_solve(matrix, rhs) -> np.ndarray | None:
    """Solve ``matrix @ x = rhs`` over GF(2).

    Returns one solution as a 1-D ``uint8`` vector, or ``None`` when the
    system is inconsistent.
    """
    mat = as_gf2(matrix)
    vec = np.array(rhs, dtype=np.int64).reshape(-1) % 2
    rows, cols = mat.shape
    if vec.shape[0] != rows:
        raise ValueError(f"rhs has length {vec.shape[0]}, expected {rows}")
    augmented = np.concatenate([mat, vec.reshape(-1, 1).astype(np.uint8)], axis=1)
    rref, pivots = gf2_row_reduce(augmented)
    solution = np.zeros(cols, dtype=np.uint8)
    for row_index, col in enumerate(pivots):
        if col == cols:
            # Pivot landed in the augmented column: 0 = 1, inconsistent.
            return None
        solution[col] = rref[row_index, cols]
    # Rows below the last pivot must have a zero augmented entry.
    for row_index in range(len(pivots), rows):
        if rref[row_index, cols] != 0:
            return None
    return solution


def gf2_nullspace(matrix) -> np.ndarray:
    """Basis of the null space of ``matrix`` over GF(2).

    Returns a matrix whose *rows* form a basis of ``{x : matrix @ x = 0}``.
    The result has zero rows when the map is injective.
    """
    mat = as_gf2(matrix)
    _, cols = mat.shape
    rref, pivots = gf2_row_reduce(mat)
    free_cols = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free_cols), cols), dtype=np.uint8)
    for index, free in enumerate(free_cols):
        basis[index, free] = 1
        for row_index, pivot_col in enumerate(pivots):
            basis[index, pivot_col] = rref[row_index, free]
    return basis


def gf2_span_contains(matrix, vector) -> bool:
    """Whether ``vector`` lies in the row span of ``matrix`` over GF(2)."""
    mat = as_gf2(matrix)
    vec = as_gf2(vector)
    if mat.shape[0] == 0:
        return not vec.any()
    stacked = np.vstack([mat, vec])
    return gf2_rank(stacked) == gf2_rank(mat)
