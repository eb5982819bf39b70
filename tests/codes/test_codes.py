"""Structural tests for the code suite of Table 3."""

import hashlib

import pytest

from repro.codes import (
    CODE_REGISTRY,
    build_code,
    five_qubit_code,
    gottesman_eight_qubit_code,
    list_codes,
    quantum_reed_muller_code,
    repetition_code,
    shor_code,
    steane_code,
)
from repro.pauli.pauli import PauliOperator


@pytest.mark.parametrize("key", list_codes())
def test_registry_codes_are_well_formed(key):
    code = build_code(key)
    n, k, d = code.parameters
    assert code.num_stabilizers == n - k
    for i, gi in enumerate(code.stabilizers):
        for gj in code.stabilizers[i + 1:]:
            assert gi.commutes_with(gj)
    for lx, lz in zip(code.logical_xs, code.logical_zs):
        assert not lx.commutes_with(lz)
        assert code.group.commutes_with(lx) and code.group.commutes_with(lz)


@pytest.mark.parametrize(
    "key, expected",
    [
        ("steane", (7, 1, 3)),
        ("five-qubit", (5, 1, 3)),
        ("six-qubit", (6, 1, 3)),
        ("shor", (9, 1, 3)),
        ("surface-3", (9, 1, 3)),
        ("surface-5", (25, 1, 5)),
        ("xzzx-3", (9, 1, 3)),
        ("reed-muller-4", (15, 1, 3)),
        ("gottesman-8", (8, 3, 3)),
        ("color-832", (8, 3, 2)),
        ("detection-422", (4, 2, 2)),
        ("iceberg-6", (6, 4, 2)),
    ],
)
def test_registry_parameters(key, expected):
    assert build_code(key).parameters == expected


@pytest.mark.parametrize(
    "builder, distance",
    [
        (steane_code, 3),
        (five_qubit_code, 3),
        (shor_code, 3),
        (gottesman_eight_qubit_code, 3),
    ],
)
def test_exact_distance_matches_declared(builder, distance):
    code = builder()
    assert code.exact_distance(max_weight=distance) == distance


def test_steane_generators_match_paper():
    code = steane_code()
    labels = {gen.label() for gen in code.stabilizers}
    assert "XIXIXIX" in labels  # g1 = X1 X3 X5 X7
    assert "IIIZZZZ" in labels  # g6 = Z4 Z5 Z6 Z7
    assert code.logical_zs[0] == PauliOperator.from_label("ZZZZZZZ")
    assert code.is_css()


def test_steane_syndrome_distinguishes_single_errors():
    code = steane_code()
    syndromes = set()
    for qubit in range(7):
        for pauli in "XZ":
            error = PauliOperator.from_sparse(7, {qubit: pauli})
            syndromes.add(code.syndrome(error))
    assert len(syndromes) == 14


def test_reed_muller_r3_is_steane():
    rm = quantum_reed_muller_code(3)
    steane = steane_code()
    assert rm.parameters == (7, 1, 3)
    assert {g.label() for g in rm.stabilizers} == {g.label() for g in steane.stabilizers}


def test_reed_muller_r4_parameters():
    assert quantum_reed_muller_code(4).parameters == (15, 1, 3)


def test_repetition_code_detects_x_only():
    code = repetition_code(3)
    x_error = PauliOperator.from_sparse(3, {1: "X"})
    z_error = PauliOperator.from_sparse(3, {1: "Z"})
    assert any(code.syndrome(x_error))
    assert not any(code.syndrome(z_error))


def test_logical_state_stabilizers():
    code = steane_code()
    stabs = code.logical_state_stabilizers((1,))
    assert len(stabs) == 7
    assert stabs[-1] == -code.logical_zs[0]
    with pytest.raises(ValueError):
        code.logical_state_stabilizers((0, 1))


def test_is_logical_error():
    code = steane_code()
    assert code.is_logical_error(PauliOperator.from_label("XXXXXXX"))
    assert not code.is_logical_error(code.stabilizers[0])
    assert not code.is_logical_error(PauliOperator.from_sparse(7, {0: "X"}))


def test_unknown_registry_key():
    with pytest.raises(KeyError):
        build_code("does-not-exist")


def test_registry_has_fourteen_entries():
    assert len(CODE_REGISTRY) >= 14


# sha256 over each registry code's stabilizer, logical-X and logical-Z labels
# (see ``_operator_digest``).  The logical-operator choice feeds the CNF and so
# the solver's work counts; a construction change that alters any label, sign
# included, must update these pins deliberately.
REGISTRY_OPERATOR_DIGESTS = {
    "color-832": "f82851bf97eed1e55e508e568b5ff853b2890cb40f12f7a69368a89dc06d5c36",
    "detection-422": "e2d2f47dc97a5229a7a3dcf27222f498a08a6e97d711b3011235906347d77f3e",
    "five-qubit": "e6f7b18a3289adbfb4e267317592e9d071c3bbe8e34a761276e9695ccee6caee",
    "gottesman-8": "a06de936f107105c9a3e1255e4533a1f0c9f7d3c7ed8f7084b286d1d52243a7e",
    "hgp-hamming": "55a595979cdbc412983452cc74ba1d37a1e3c5be250109114816fdfef48ad043",
    "hgp-repetition": "76a0b8d9bddfc4d94fd2a2b64241a764263d1151b23ba28dc84a92e8463763a6",
    "iceberg-6": "188174a8a5e91bc73b1eb6c0344181a34ee43af540464812934030f03ac0e215",
    "reed-muller-4": "ec511ed0e832858dee71fd13b4b7a5033b81e4730a66d1086577bf38e638dacb",
    "repetition-5": "f32860ac9076c767ee317260880bf21ae82259769dba8134ecef00dad4677852",
    "shor": "4ceba1f5fd553730ecca545860bfdeb3c015fcd4c37c508465310661129518b9",
    "six-qubit": "b9e05cfade0da4414110a7f45e5000f016c8395e8f6ea9c5d4dd316a148d7148",
    "steane": "df0fa5af6306b346e5fdfc2b79ab0c41eae3a4823f1a89ea0387be1cb5a3ec6b",
    "surface-3": "3757c420c4b08e4ab9025aa75b92b18c88a4d4cbdc704a74c45fbc45c91a0fd6",
    "surface-5": "84ba1fc64fbf2cfb2d1b13e9fc3ad511b8c639066efa64f72eb23651270e525f",
    "xzzx-3": "cbf579549668307eaaf7dccdd24600d872c3af53ee2c73467d1692306c244a37",
}


def _operator_digest(code):
    lines = (
        ["S:" + g.label() for g in code.stabilizers]
        + ["X:" + g.label() for g in code.logical_xs]
        + ["Z:" + g.label() for g in code.logical_zs]
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_registry_operator_digests_cover_every_code():
    assert set(REGISTRY_OPERATOR_DIGESTS) == set(list_codes())


@pytest.mark.parametrize("key", sorted(REGISTRY_OPERATOR_DIGESTS))
def test_registry_operators_match_golden_digest(key):
    assert _operator_digest(build_code(key)) == REGISTRY_OPERATOR_DIGESTS[key]
