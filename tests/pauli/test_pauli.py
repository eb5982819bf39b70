"""Tests for concrete Pauli operators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli.pauli import PauliOperator, pauli_from_label, single_qubit_pauli

labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)


class TestConstruction:
    def test_from_label(self):
        op = PauliOperator.from_label("XIZ")
        assert op.x == (1, 0, 0)
        assert op.z == (0, 0, 1)

    def test_from_sparse(self):
        op = PauliOperator.from_sparse(4, {1: "Y", 3: "Z"})
        assert op.label() == "IYIZ"

    def test_from_sparse_out_of_range(self):
        with pytest.raises(ValueError):
            PauliOperator.from_sparse(2, {5: "X"})

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            PauliOperator.from_label("XQ")

    @pytest.mark.parametrize(
        "bits",
        [
            (3, -1, 2.0, np.int64(5)),
            [1, 0, 1, 1],
            np.array([1, 0, 3, 2]),
            (True, False, True, True),
            ("1", "0", "3", "2"),
            (257, 1, 0, 0),
            b"\x01\x00\x01\x01",
        ],
    )
    def test_entries_reduce_modulo_two(self, bits):
        op = PauliOperator(bits, (0,) * 4)
        expected = tuple(int(b) % 2 for b in bits)
        assert op.x == expected and all(type(b) is int for b in op.x)
        assert op.x_mask == sum(b << j for j, b in enumerate(expected))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PauliOperator((1,), (0, 0))

    def test_pauli_from_label_signs(self):
        assert pauli_from_label("-X").phase == 2
        assert pauli_from_label("iY").label() == "iY"
        assert pauli_from_label("+Z") == PauliOperator.from_label("Z")

    def test_single_qubit_pauli(self):
        assert single_qubit_pauli(3, 1, "X").label() == "IXI"


class TestAlgebra:
    def test_xz_is_minus_iy(self):
        X = PauliOperator.from_label("X")
        Z = PauliOperator.from_label("Z")
        assert (X * Z).label() == "-iY"
        assert (Z * X).label() == "iY"

    def test_self_inverse(self):
        for label in ["X", "Y", "Z", "XYZ", "ZZXY"]:
            op = PauliOperator.from_label(label)
            assert (op * op).label() == "I" * op.num_qubits

    def test_weight(self):
        assert PauliOperator.from_label("IXYI").weight == 2

    def test_commutation(self):
        assert not PauliOperator.from_label("X").commutes_with(PauliOperator.from_label("Z"))
        assert PauliOperator.from_label("XX").commutes_with(PauliOperator.from_label("ZZ"))

    def test_adjoint_of_hermitian(self):
        op = PauliOperator.from_label("XYZ")
        assert op.adjoint() == op

    def test_negation(self):
        op = PauliOperator.from_label("Z")
        assert (-op).label() == "-Z"
        assert (-(-op)) == op

    def test_symplectic_roundtrip(self):
        op = PauliOperator.from_label("XZYI")
        assert PauliOperator.from_symplectic(op.symplectic_vector(), op.phase) == op


class TestDenseMatrix:
    def test_y_matrix(self):
        assert np.allclose(
            PauliOperator.from_label("Y").to_matrix(), np.array([[0, -1j], [1j, 0]])
        )

    def test_product_matches_matrix_product(self):
        a = PauliOperator.from_label("XZ")
        b = PauliOperator.from_label("YY")
        assert np.allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix())

    def test_hermiticity(self):
        op = PauliOperator.from_label("XYZY")
        matrix = op.to_matrix()
        assert op.is_hermitian()
        assert np.allclose(matrix, matrix.conj().T)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(labels, labels)
    def test_product_matrix_homomorphism(self, left, right):
        size = max(len(left), len(right))
        a = PauliOperator.from_label(left.ljust(size, "I"))
        b = PauliOperator.from_label(right.ljust(size, "I"))
        assert np.allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix())

    @settings(max_examples=80, deadline=None)
    @given(labels, labels)
    def test_commutation_matches_matrices(self, left, right):
        size = max(len(left), len(right))
        a = PauliOperator.from_label(left.ljust(size, "I"))
        b = PauliOperator.from_label(right.ljust(size, "I"))
        commutator = a.to_matrix() @ b.to_matrix() - b.to_matrix() @ a.to_matrix()
        assert a.commutes_with(b) == np.allclose(commutator, 0)

    @settings(max_examples=50, deadline=None)
    @given(labels)
    def test_weight_counts_non_identity(self, label):
        op = PauliOperator.from_label(label)
        assert op.weight == sum(1 for ch in label if ch != "I")


def reference_commutes(a, b):
    """Per-qubit symplectic inner product, independent of the packed masks."""
    inner = 0
    for xa, za, xb, zb in zip(a.x, a.z, b.x, b.z):
        inner ^= (xa & zb) ^ (za & xb)
    return inner == 0


def reference_product(a, b):
    """``(x, z, phase)`` of ``a * b`` computed bit by bit."""
    anticommutations = sum(za & xb for za, xb in zip(a.z, b.x))
    x = tuple(p ^ q for p, q in zip(a.x, b.x))
    z = tuple(p ^ q for p, q in zip(a.z, b.z))
    return x, z, (a.phase + b.phase + 2 * anticommutations) % 4


def bit_tuples(n):
    # Drawn as one integer: it shrinks far faster than a list of n bits.
    return st.integers(0, (1 << n) - 1).map(lambda v: tuple(v >> j & 1 for j in range(n)))


def operators(n):
    return st.builds(PauliOperator, bit_tuples(n), bit_tuples(n), st.integers(0, 3))


# Widths up to 130 cross the 64-bit word boundary of the packed masks twice.
operator_pairs = st.integers(1, 130).flatmap(lambda n: st.tuples(operators(n), operators(n)))


class TestPackedKernel:
    @settings(max_examples=200, deadline=None)
    @given(operator_pairs)
    def test_commutes_with_matches_per_bit_reference(self, pair):
        a, b = pair
        assert a.commutes_with(b) == reference_commutes(a, b)
        assert b.commutes_with(a) == reference_commutes(a, b)

    @settings(max_examples=200, deadline=None)
    @given(operator_pairs)
    def test_product_matches_per_bit_reference(self, pair):
        a, b = pair
        product = a * b
        assert (product.x, product.z, product.phase) == reference_product(a, b)
        assert product.x_mask == sum(bit << j for j, bit in enumerate(product.x))
        assert product.z_mask == sum(bit << j for j, bit in enumerate(product.z))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 130).flatmap(operators))
    def test_weight_and_hermiticity_match_per_bit_reference(self, op):
        y_count = sum(xb & zb for xb, zb in zip(op.x, op.z))
        assert op.weight == sum(xb | zb for xb, zb in zip(op.x, op.z))
        assert op.is_hermitian() == ((op.phase - y_count) % 2 == 0)
        assert op.adjoint().phase == (-op.phase + 2 * y_count) % 4

    def test_masks_survive_pickling_and_stay_out_of_equality(self):
        a = PauliOperator.from_label("XYZI" * 40)
        b = PauliOperator.from_symplectic(a.symplectic_vector(), a.phase)
        assert a == b and hash(a) == hash(b)
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and (clone.x_mask, clone.z_mask) == (a.x_mask, a.z_mask)
