"""Stabilizer group structure tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import build_code, five_qubit_code, steane_code
from repro.pauli.group import StabilizerGroup, symplectic_product_matrix
from repro.pauli.pauli import PauliOperator

STEANE = [
    "XIXIXIX",
    "IXXIIXX",
    "IIIXXXX",
    "ZIZIZIZ",
    "IZZIIZZ",
    "IIIZZZZ",
]


def steane_group():
    return StabilizerGroup([PauliOperator.from_label(label) for label in STEANE])


class TestValidation:
    def test_rejects_anticommuting_generators(self):
        with pytest.raises(ValueError):
            StabilizerGroup([PauliOperator.from_label("X"), PauliOperator.from_label("Z")])

    def test_rejects_dependent_generators(self):
        with pytest.raises(ValueError):
            StabilizerGroup(
                [
                    PauliOperator.from_label("XX"),
                    PauliOperator.from_label("ZZ"),
                    PauliOperator.from_label("-YY"),
                ]
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            StabilizerGroup([PauliOperator.from_label("iX")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StabilizerGroup([])


class TestStructure:
    def test_counts(self):
        group = steane_group()
        assert group.num_qubits == 7
        assert group.num_generators == 6
        assert group.num_logical_qubits == 1

    def test_symplectic_product_matrix(self):
        lam = symplectic_product_matrix(2)
        assert lam.shape == (4, 4)
        assert lam[0, 2] == 1 and lam[2, 0] == 1 and lam[0, 0] == 0

    def test_syndrome_of_single_error(self):
        group = steane_group()
        error = PauliOperator.from_sparse(7, {2: "X"})
        syndrome = group.syndrome(error)
        # An X error triggers only Z-type generators.
        assert any(syndrome[3:]) and not any(syndrome[:3])

    def test_syndrome_vector_agrees(self):
        group = steane_group()
        error = PauliOperator.from_sparse(7, {4: "Y"})
        assert tuple(group.syndrome_of_vector(error.symplectic_vector())) == group.syndrome(error)


class TestMembership:
    def test_decompose_product_of_generators(self):
        group = steane_group()
        product = group.generators[0] * group.generators[3] * group.generators[5]
        coeffs, alpha = group.decompose(product)
        assert alpha == 0
        assert list(coeffs) == [1, 0, 0, 1, 0, 1]

    def test_decompose_negative_element(self):
        group = steane_group()
        coeffs, alpha = group.decompose(-group.generators[1])
        assert alpha == 1 and coeffs[1] == 1

    def test_decompose_non_member(self):
        group = steane_group()
        assert group.decompose(PauliOperator.from_sparse(7, {0: "X"})) is None

    def test_contains_respects_phase(self):
        group = steane_group()
        assert group.contains(group.generators[0])
        assert not group.contains(-group.generators[0])
        assert group.contains_up_to_phase(-group.generators[0])


class TestLogicals:
    def test_steane_logicals(self):
        group = steane_group()
        logical_x, logical_z = group.logical_operators()
        assert len(logical_x) == len(logical_z) == 1
        assert not logical_x[0].commutes_with(logical_z[0])
        assert group.commutes_with(logical_x[0])
        assert group.is_logical_operator(PauliOperator.from_label("ZZZZZZZ"))

    def test_five_qubit_logicals_from_code(self):
        code = five_qubit_code()
        assert code.group.is_logical_operator(code.logical_xs[0])

    def test_minimum_distance_steane(self):
        assert steane_group().minimum_distance(3) == 3

    def test_minimum_distance_none_below_bound(self):
        assert steane_group().minimum_distance(2) is None

    def test_centralizer_contains_logicals(self):
        code = steane_code()
        basis = code.group.centralizer_basis()
        assert len(basis) == 2 * 7 - 6


HGP = build_code("hgp-hamming")
# One group answers every example below, so its cached reduction is reused
# across all of them; each answer is compared with a freshly built group's.
SHARED_HGP_GROUP = StabilizerGroup(HGP.stabilizers)
HGP_OUTSIDERS = (
    [PauliOperator.from_sparse(HGP.num_qubits, {q: p}) for q in (0, 17, 57) for p in "XYZ"]
    + HGP.logical_xs
    + HGP.logical_zs
)


class TestCachedReduction:
    def test_generators_are_immutable(self):
        group = steane_group()
        assert isinstance(group.generators, tuple)
        with pytest.raises((TypeError, AttributeError)):
            group.generators.append(PauliOperator.from_label("XXXXXXX"))
        code = steane_code()
        assert code.stabilizers is code.group.generators

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=HGP.num_stabilizers, max_size=HGP.num_stabilizers),
        st.booleans(),
        st.one_of(st.none(), st.sampled_from(HGP_OUTSIDERS)),
    )
    def test_repeated_decompose_matches_fresh_group(self, subset, negate, outsider):
        operator = PauliOperator.identity(HGP.num_qubits)
        for chosen, gen in zip(subset, HGP.stabilizers):
            if chosen:
                operator = operator * gen
        if negate:
            operator = -operator
        if outsider is not None:
            operator = operator * outsider
        answer = SHARED_HGP_GROUP.decompose(operator)
        assert answer == StabilizerGroup(HGP.stabilizers).decompose(operator)
        if outsider is None:
            assert answer == (tuple(int(c) for c in subset), int(negate))
        else:
            assert answer is None
