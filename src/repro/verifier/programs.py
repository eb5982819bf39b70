"""Program and correctness-formula generators for QEC scenarios.

This module plays the role of the paper's "correctness formula generator"
(Appendix D.1): given a stabilizer code it emits the error-correction program
of Table 1 (propagation errors, optional transversal logical gate, error
injection, syndrome measurement, decoder call, correction), the Hoare triple
of Eqn. (2)/(7), and the minimum-weight decoder condition ``P_f`` of
Section 5.2.  The fault-tolerant scenarios of Section 7.3 (logical GHZ
preparation, logical CNOT with propagated errors) are built on top of it by
placing several code blocks side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classical.expr import (
    BoolExpr,
    BoolVar,
    IntConst,
    IntLe,
    Not,
    Xor,
    bool_and,
    sum_of,
)
from repro.classical.parity import ParityExpr
from repro.codes.base import StabilizerCode
from repro.hoare.triple import HoareTriple
from repro.hoare.wp import decoder_output_expr
from repro.lang.ast import (
    AssignDecoder,
    ConditionalGate,
    ConditionalPauli,
    Measure,
    Statement,
    Unitary,
    sequence,
)
from repro.logic.assertion import Assertion, conjunction, pauli_atom
from repro.pauli.pauli import PauliOperator

__all__ = [
    "QECScenario",
    "error_injection",
    "syndrome_measurement",
    "decoder_call_and_correction",
    "correction_program",
    "min_weight_decoder_condition",
    "correction_triple",
    "transversal_gate",
    "logical_cnot_with_propagation",
    "ghz_preparation",
]


@dataclass
class QECScenario:
    """A program together with its correctness formula and decoder condition."""

    triple: HoareTriple
    decoder_condition: BoolExpr | None
    code: StabilizerCode
    description: str = ""


# ----------------------------------------------------------------------
# Program fragments (the rows of Table 1)
# ----------------------------------------------------------------------
def error_injection(
    code: StabilizerCode, pauli: str, variable_prefix: str = "e", offset: int = 0
) -> Statement:
    """``for i do [e_i] q_i *= E end`` — conditional single-qubit errors."""
    statements = []
    for qubit in range(code.num_qubits):
        condition = BoolVar(f"{variable_prefix}_{qubit + 1}")
        if pauli.upper() in ("X", "Y", "Z"):
            statements.append(ConditionalPauli(condition, qubit + offset, pauli.upper()))
        else:
            statements.append(ConditionalGate(condition, pauli.upper(), (qubit + offset,)))
    return sequence(*statements)


def syndrome_measurement(
    code: StabilizerCode,
    variable_prefix: str = "s",
    offset: int = 0,
    block: str = "",
    num_qubits: int | None = None,
) -> Statement:
    """``for i do s_i := meas[g_i] end`` over the code's generators.

    The block's generators act on qubits ``offset ..`` of a register of
    ``num_qubits`` qubits (default: the code's own size).
    """
    total = code.num_qubits if num_qubits is None else num_qubits
    statements = []
    for index, generator in enumerate(code.stabilizers):
        observable = _shift(generator, offset, total)
        statements.append(Measure(f"{block}{variable_prefix}_{index + 1}", observable))
    return sequence(*statements)


def _syndrome_split(
    code: StabilizerCode, syndrome_prefix: str, block: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The decoder inputs ``(z_args, x_args)`` of the Z and X corrections.

    X-type syndromes drive the Z corrections and Z-type syndromes the X
    corrections; a generator of mixed type feeds both, and a decoder with no
    syndromes of its own type takes the other type's.
    """
    x_syndromes = []
    z_syndromes = []
    for index, generator in enumerate(code.stabilizers):
        name = f"{block}{syndrome_prefix}_{index + 1}"
        if any(generator.x) and not any(generator.z):
            x_syndromes.append(name)
        elif any(generator.z) and not any(generator.x):
            z_syndromes.append(name)
        else:
            x_syndromes.append(name)
            z_syndromes.append(name)
    return tuple(x_syndromes) or tuple(z_syndromes), tuple(z_syndromes) or tuple(x_syndromes)


def decoder_call_and_correction(
    code: StabilizerCode,
    syndrome_prefix: str = "s",
    offset: int = 0,
    block: str = "",
) -> Statement:
    """Decoder calls followed by conditional X and Z corrections.

    For CSS codes the X-type syndromes drive the Z corrections and the Z-type
    syndromes the X corrections, as in Table 1; for non-CSS codes a single
    decoder consumes the full syndrome and outputs both components.
    """
    z_args, x_args = _syndrome_split(code, syndrome_prefix, block)
    n = code.num_qubits
    z_targets = tuple(f"{block}z_{i + 1}" for i in range(n))
    x_targets = tuple(f"{block}x_{i + 1}" for i in range(n))
    statements: list[Statement] = [
        AssignDecoder(z_targets, f"{block}f_z", z_args),
        AssignDecoder(x_targets, f"{block}f_x", x_args),
    ]
    for qubit in range(n):
        statements.append(ConditionalPauli(BoolVar(x_targets[qubit]), qubit + offset, "X"))
    for qubit in range(n):
        statements.append(ConditionalPauli(BoolVar(z_targets[qubit]), qubit + offset, "Z"))
    return sequence(*statements)


def transversal_gate(code: StabilizerCode, gate: str, offset: int = 0) -> Statement:
    """A transversal single-qubit logical gate (H, S, ...) on one code block."""
    return sequence(
        *(Unitary(gate, (qubit + offset,)) for qubit in range(code.num_qubits))
    )


def correction_program(
    code: StabilizerCode,
    error: str = "Y",
    logical_gate: str | None = None,
    propagation: bool = False,
) -> Statement:
    """The ``Steane(E, U)`` program of Table 1, generalised to any CSS code."""
    parts: list[Statement] = []
    if propagation:
        parts.append(error_injection(code, error, variable_prefix="ep"))
    if logical_gate is not None:
        parts.append(transversal_gate(code, logical_gate))
    parts.append(error_injection(code, error, variable_prefix="e"))
    parts.append(syndrome_measurement(code))
    parts.append(decoder_call_and_correction(code))
    return sequence(*parts)


# ----------------------------------------------------------------------
# Decoder condition P_f (Eqn. 27/28)
# ----------------------------------------------------------------------
def min_weight_decoder_condition(
    code: StabilizerCode,
    error_prefixes: tuple[str, ...] = ("e",),
    syndrome_prefix: str = "s",
    block: str = "",
    max_corrections: int | None = None,
) -> BoolExpr:
    """The necessary condition of a minimum-weight decoder.

    The corrections must (i) reproduce every measured syndrome and (ii) have
    weight no larger than the number of injected errors (or the explicit
    ``max_corrections`` bound, used for fixed non-Pauli error locations where
    no error indicator variables exist), for both the X and the Z component.
    """
    n = code.num_qubits
    z_args, x_args = _syndrome_split(code, syndrome_prefix, block)
    z_outputs = [decoder_output_expr(f"{block}f_z", i + 1, z_args) for i in range(n)]
    x_outputs = [decoder_output_expr(f"{block}f_x", i + 1, x_args) for i in range(n)]

    conjuncts: list[BoolExpr] = []
    # (i) corrections reproduce the syndromes: for every generator, the parity
    # of the corrections that anti-commute with it equals its syndrome bit.
    for index, generator in enumerate(code.stabilizers):
        syndrome = BoolVar(f"{block}{syndrome_prefix}_{index + 1}")
        contributions: list[BoolExpr] = []
        for qubit in range(n):
            if generator.x[qubit]:
                contributions.append(z_outputs[qubit])
            if generator.z[qubit]:
                contributions.append(x_outputs[qubit])
        parity = contributions[0] if len(contributions) == 1 else Xor(tuple(contributions))
        conjuncts.append(Not(Xor((syndrome, parity))))
    # (ii) minimum weight: the number of corrections of either kind is bounded
    # by the total number of injected errors (or an explicit bound).
    if max_corrections is not None:
        error_count = IntConst(max_corrections)
    else:
        error_count = sum_of(
            BoolVar(f"{prefix}_{qubit + 1}")
            for prefix in error_prefixes
            for qubit in range(n)
        )
    conjuncts.append(IntLe(sum_of(x_outputs), error_count))
    conjuncts.append(IntLe(sum_of(z_outputs), error_count))
    return bool_and(conjuncts)


# ----------------------------------------------------------------------
# Correctness formulas
# ----------------------------------------------------------------------
def _logical_image(
    code: StabilizerCode, logical_gate: str | None, logical_index: int = 0
) -> PauliOperator:
    """The image ``U L U^dagger`` of the logical Z under the transversal gate."""
    logical = code.logical_zs[logical_index]
    if logical_gate is None:
        return logical
    operator = logical
    from repro.pauli.clifford import conjugate_pauli

    for qubit in range(code.num_qubits):
        operator = conjugate_pauli(operator, logical_gate, (qubit,), "forward")
    return operator


def correction_triple(
    code: StabilizerCode,
    error: str = "Y",
    logical_gate: str | None = None,
    propagation: bool = False,
    max_errors: int | None = None,
    phase_variable: str = "b",
) -> QECScenario:
    """The correctness formula of Eqn. (2)/(7) for one error-correction round.

    The initial state is the logical state stabilized by the generators
    together with ``(-1)^b U^dagger Z_L U`` (so that the error-free program
    would end in ``(-1)^b Z_L``); the postcondition asserts the generators
    and ``(-1)^b Z_L``.  The classical constraint bounds the number of
    injected (and propagated) errors.
    """
    if max_errors is None:
        max_errors = (code.distance - 1) // 2 if code.distance else 1
    phase = ParityExpr.of_variable(phase_variable)

    post_logical = code.logical_zs[0]
    pre_logical = _logical_image(code, logical_gate)

    precondition: Assertion = conjunction(
        [pauli_atom(gen) for gen in code.stabilizers] + [pauli_atom(pre_logical, phase)]
    )
    postcondition: Assertion = conjunction(
        [pauli_atom(gen) for gen in code.stabilizers] + [pauli_atom(post_logical, phase)]
    )

    error_prefixes = ("e", "ep") if propagation else ("e",)
    error_count = sum_of(
        BoolVar(f"{prefix}_{qubit + 1}")
        for prefix in error_prefixes
        for qubit in range(code.num_qubits)
    )
    classical_constraint = IntLe(error_count, IntConst(max_errors))

    program = correction_program(
        code, error=error, logical_gate=logical_gate, propagation=propagation
    )
    triple = HoareTriple(
        precondition,
        program,
        postcondition,
        classical_constraint=classical_constraint,
        name=f"{code.name}-{error}-correction" + (f"-{logical_gate}" if logical_gate else ""),
    )
    decoder_condition = min_weight_decoder_condition(code, error_prefixes=error_prefixes)
    return QECScenario(
        triple,
        decoder_condition,
        code,
        description=(
            f"one round of error correction on {code.describe()} with {error} errors"
            + (f" after a transversal {logical_gate}" if logical_gate else "")
            + (" including propagated errors" if propagation else "")
        ),
    )


# ----------------------------------------------------------------------
# Fault-tolerant scenarios (Section 7.3)
# ----------------------------------------------------------------------
def _shift(operator: PauliOperator, offset: int, total: int) -> PauliOperator:
    """Embed an operator on one block into a multi-block register."""
    x_bits = [0] * total
    z_bits = [0] * total
    for index, (xb, zb) in enumerate(zip(operator.x, operator.z)):
        x_bits[index + offset] = xb
        z_bits[index + offset] = zb
    return PauliOperator(tuple(x_bits), tuple(z_bits), operator.phase)


def _block_operator(code: StabilizerCode, operator: PauliOperator, block: int, blocks: int) -> PauliOperator:
    return _shift(operator, block * code.num_qubits, blocks * code.num_qubits)


def logical_cnot_with_propagation(
    code: StabilizerCode, error: str = "X", max_errors: int = 1
) -> QECScenario:
    """Fig. 10: a propagated error, a transversal logical CNOT, then EC on both blocks."""
    blocks = 2
    total = blocks * code.num_qubits
    n = code.num_qubits

    parts: list[Statement] = []
    # Propagated errors on the control block.
    for qubit in range(n):
        parts.append(ConditionalPauli(BoolVar(f"ep_{qubit + 1}"), qubit, error))
    # Transversal CNOT: control block 0, target block 1.
    for qubit in range(n):
        parts.append(Unitary("CNOT", (qubit, qubit + n)))
    # One round of error correction on each block.
    for block in range(blocks):
        prefix = f"b{block}_"
        parts.append(syndrome_measurement(code, offset=block * n, block=prefix, num_qubits=total))
        parts.append(decoder_call_and_correction(code, offset=block * n, block=prefix))
    program = sequence(*parts)

    # Specification: input |0>_L |0>_L; the logical CNOT keeps Z_L Z_L ...
    gens = [
        _block_operator(code, gen, block, blocks)
        for block in range(blocks)
        for gen in code.stabilizers
    ]
    z0 = _block_operator(code, code.logical_zs[0], 0, blocks)
    z1 = _block_operator(code, code.logical_zs[0], 1, blocks)
    phase0 = ParityExpr.of_variable("b0")
    phase1 = ParityExpr.of_variable("b1")
    precondition = conjunction(
        [pauli_atom(g) for g in gens] + [pauli_atom(z0, phase0), pauli_atom(z1, phase1)]
    )
    # The transversal CNOT maps the input stabilizers (-1)^{b0} Z_L^{(0)} and
    # (-1)^{b1} Z_L^{(1)} to (-1)^{b0} Z_L^{(0)} and (-1)^{b1} Z_L^{(0)} Z_L^{(1)}.
    postcondition = conjunction(
        [pauli_atom(g) for g in gens]
        + [pauli_atom(z0, phase0), pauli_atom(z0 * z1, phase1)]
    )
    classical_constraint = IntLe(
        sum_of(BoolVar(f"ep_{qubit + 1}") for qubit in range(n)), IntConst(max_errors)
    )
    decoder_condition = bool_and(
        min_weight_decoder_condition(code, error_prefixes=("ep",), block=f"b{block}_")
        for block in range(blocks)
    )
    triple = HoareTriple(
        precondition,
        program,
        postcondition,
        classical_constraint=classical_constraint,
        name=f"{code.name}-logical-CNOT-propagation",
    )
    return QECScenario(
        triple,
        decoder_condition,
        code,
        description="logical CNOT with errors propagated from the previous cycle (Fig. 10)",
    )


def ghz_preparation(code: StabilizerCode, blocks: int = 3) -> QECScenario:
    """Fig. 9: fault-tolerant logical GHZ state preparation (error-free scenario).

    The program applies a transversal logical H on the first block followed by
    a ladder of transversal logical CNOTs; the correctness formula states that
    the logical |0...0> input ends in the GHZ stabilizer state.
    """
    n = code.num_qubits
    total = blocks * n
    parts: list[Statement] = []
    for qubit in range(n):
        parts.append(Unitary("H", (qubit,)))
    for block in range(blocks - 1):
        for qubit in range(n):
            parts.append(Unitary("CNOT", (qubit + block * n, qubit + (block + 1) * n)))
    program = sequence(*parts)

    gens = [
        _block_operator(code, gen, block, blocks)
        for block in range(blocks)
        for gen in code.stabilizers
    ]
    logical_zs = [
        _block_operator(code, code.logical_zs[0], block, blocks) for block in range(blocks)
    ]
    logical_xs = [
        _block_operator(code, code.logical_xs[0], block, blocks) for block in range(blocks)
    ]
    precondition = conjunction([pauli_atom(g) for g in gens] + [pauli_atom(z) for z in logical_zs])
    ghz_stabilizers = [_product(logical_xs)]
    for block in range(blocks - 1):
        ghz_stabilizers.append(logical_zs[block] * logical_zs[block + 1])
    postcondition = conjunction(
        [pauli_atom(g) for g in gens] + [pauli_atom(op) for op in ghz_stabilizers]
    )
    triple = HoareTriple(
        precondition,
        program,
        postcondition,
        name=f"{code.name}-ghz-{blocks}",
    )
    return QECScenario(
        triple, None, code, description=f"logical GHZ preparation over {blocks} blocks (Fig. 9)"
    )


def _product(operators: list[PauliOperator]) -> PauliOperator:
    result = operators[0]
    for op in operators[1:]:
        result = result * op
    return result
