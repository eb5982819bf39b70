"""GF(2) linear algebra tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitmatrix import (
    as_gf2,
    gf2_gaussian_elimination,
    gf2_matmul,
    gf2_nullspace,
    gf2_pack,
    gf2_rank,
    gf2_row_reduce,
    gf2_solve,
    gf2_span_contains,
    gf2_unpack,
)


def random_matrix_strategy(max_rows=6, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


class TestBasics:
    def test_as_gf2_reduces_mod_two(self):
        assert as_gf2([[2, 3], [4, 5]]).tolist() == [[0, 1], [0, 1]]

    def test_as_gf2_promotes_vectors(self):
        assert as_gf2([1, 0, 1]).shape == (1, 3)

    def test_as_gf2_rejects_3d(self):
        with pytest.raises(ValueError):
            as_gf2(np.zeros((2, 2, 2)))

    def test_rank_identity(self):
        assert gf2_rank(np.eye(4)) == 4

    def test_rank_dependent_rows(self):
        assert gf2_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2

    def test_row_reduce_pivots(self):
        rref, pivots = gf2_row_reduce([[1, 1, 0], [0, 1, 1]])
        assert pivots == [0, 1]
        assert rref.tolist() == [[1, 0, 1], [0, 1, 1]]

    def test_matmul(self):
        a = [[1, 1], [0, 1]]
        b = [[1, 0], [1, 1]]
        assert gf2_matmul(a, b).tolist() == [[0, 1], [1, 1]]


class TestSolve:
    def test_solve_consistent(self):
        matrix = [[1, 1, 0], [0, 1, 1]]
        rhs = [1, 0]
        solution = gf2_solve(matrix, rhs)
        assert solution is not None
        assert (gf2_matmul(matrix, solution.reshape(-1, 1)).reshape(-1) == np.array(rhs)).all()

    def test_solve_inconsistent(self):
        matrix = [[1, 1], [1, 1]]
        assert gf2_solve(matrix, [1, 0]) is None

    def test_solve_wrong_rhs_length(self):
        with pytest.raises(ValueError):
            gf2_solve([[1, 0]], [1, 0])


class TestNullspaceAndSpan:
    def test_nullspace_orthogonal(self):
        matrix = [[1, 1, 0, 0], [0, 0, 1, 1]]
        basis = gf2_nullspace(matrix)
        assert basis.shape[0] == 2
        assert not gf2_matmul(matrix, basis.T).any()

    def test_nullspace_full_rank(self):
        assert gf2_nullspace(np.eye(3)).shape[0] == 0

    def test_span_contains(self):
        matrix = [[1, 1, 0], [0, 1, 1]]
        assert gf2_span_contains(matrix, [1, 0, 1])
        assert not gf2_span_contains(matrix, [1, 0, 0])

    def test_span_contains_zero_vector(self):
        assert gf2_span_contains([[1, 0]], [0, 0])


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_matrix_strategy())
    def test_gaussian_elimination_transform(self, rows):
        matrix = as_gf2(rows)
        rref, transform, pivots = gf2_gaussian_elimination(matrix)
        assert (gf2_matmul(transform, matrix) == rref).all()
        assert len(pivots) == gf2_rank(matrix)

    @settings(max_examples=60, deadline=None)
    @given(random_matrix_strategy())
    def test_nullspace_dimension(self, rows):
        matrix = as_gf2(rows)
        basis = gf2_nullspace(matrix)
        assert basis.shape[0] == matrix.shape[1] - gf2_rank(matrix)
        if basis.shape[0]:
            assert not gf2_matmul(matrix, basis.T).any()

    @settings(max_examples=60, deadline=None)
    @given(random_matrix_strategy(), st.data())
    def test_solve_roundtrip(self, rows, data):
        matrix = as_gf2(rows)
        x = data.draw(
            st.lists(st.integers(0, 1), min_size=matrix.shape[1], max_size=matrix.shape[1])
        )
        rhs = gf2_matmul(matrix, np.array(x).reshape(-1, 1)).reshape(-1)
        solution = gf2_solve(matrix, rhs)
        assert solution is not None
        assert (gf2_matmul(matrix, solution.reshape(-1, 1)).reshape(-1) == rhs).all()


class TestPacking:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_pack_unpack_roundtrip(self, bits):
        mask = gf2_pack(bits)
        assert mask == sum(bit << j for j, bit in enumerate(bits))
        assert gf2_pack(bytes(bits)) == mask
        assert gf2_unpack(mask, len(bits)) == bytes(bits)

    def test_pack_rejects_non_bits(self):
        with pytest.raises(ValueError):
            gf2_pack([0, 2, 1])
