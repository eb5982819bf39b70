"""Classical encodings of the verification tasks of Section 7.

Every task is phrased as a *refutation* query: the formula describes an error
scenario that would falsify the property, so an unsatisfiable query verifies
the property for **all** error configurations at once (which is exactly what
distinguishes verification from Stim-style sampling) and a satisfying
assignment is a concrete counterexample.

Variable naming convention (read by :meth:`repro.api.Result.counterexample_qubits`):

* ``ex_i`` / ``ez_i`` — X / Z component of the injected error on qubit ``i``
  (a Y error sets both),
* ``e_i``             — single indicator when the error model fixes the Pauli,
* ``cx_i`` / ``cz_i`` — X / Z component of the decoder's correction,
* ``s_j``             — syndrome bit of stabilizer generator ``j``.

The syndrome bits are Skolemized as the (deterministic) parities the
measurement of each generator would produce on the errored code state, which
is what lets the ``forall e . exists s`` shape of Eqn. (14) be discharged by
a plain SAT query.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classical.expr import (
    And,
    BoolConst,
    BoolExpr,
    BoolVar,
    Implies,
    IntConst,
    IntLe,
    Not,
    Or,
    Xor,
    bool_and,
    bool_or,
    sum_of,
)
from repro.codes.base import StabilizerCode
from repro.pauli.pauli import PauliOperator

__all__ = [
    "ErrorModel",
    "error_component_variables",
    "error_weight_indicators",
    "anticommutation_parity",
    "syndrome_definitions",
    "accurate_correction_formula",
    "model_error_weight",
    "precise_detection_base",
    "precise_detection_formula",
]


@dataclass(frozen=True)
class ErrorModel:
    """Which Pauli errors may hit each qubit.

    ``kind`` is one of ``"any"`` (arbitrary Pauli per qubit, as in the general
    verification task), or ``"X"``, ``"Y"``, ``"Z"`` (the single-Pauli models
    used for the Steane case study).
    """

    kind: str = "any"

    def __post_init__(self) -> None:
        if self.kind not in ("any", "X", "Y", "Z"):
            raise ValueError(f"unknown error model {self.kind!r}")

    @classmethod
    def coerce(cls, value: "ErrorModel | str") -> "ErrorModel":
        """Normalise a user-facing ``str | ErrorModel`` argument to an ``ErrorModel``."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        raise TypeError(f"expected an ErrorModel or a model-kind string, got {value!r}")


def error_component_variables(
    num_qubits: int, model: ErrorModel, prefix: str = ""
) -> tuple[list[BoolExpr], list[BoolExpr], list[BoolExpr]]:
    """Per-qubit X/Z error components plus the weight indicator of each qubit.

    Returns ``(x_components, z_components, weight_indicators)``.  For the
    single-Pauli models one variable ``e_i`` drives both components.
    """
    x_components: list[BoolExpr] = []
    z_components: list[BoolExpr] = []
    indicators: list[BoolExpr] = []
    for qubit in range(num_qubits):
        if model.kind == "any":
            ex = BoolVar(f"{prefix}ex_{qubit}")
            ez = BoolVar(f"{prefix}ez_{qubit}")
            x_components.append(ex)
            z_components.append(ez)
            indicators.append(Or((ex, ez)))
        else:
            indicator = BoolVar(f"{prefix}e_{qubit}")
            indicators.append(indicator)
            has_x = model.kind in ("X", "Y")
            has_z = model.kind in ("Z", "Y")
            x_components.append(indicator if has_x else BoolConst(False))
            z_components.append(indicator if has_z else BoolConst(False))
    return x_components, z_components, indicators


def error_weight_indicators(indicators: list[BoolExpr]):
    """Integer expression for the number of qubits hit by an error."""
    return sum_of(indicators)


def model_error_weight(model: dict[str, bool], error_model: "ErrorModel | None" = None) -> int:
    """Weight of the error a satisfying assignment describes.

    Counts the distinct qubits whose injected-error indicators are set:
    ``ex_i`` / ``ez_i`` under the general model, ``e_i`` under the
    single-Pauli models, either namespace when ``error_model`` is None.
    Binary-search distance discovery uses this to clamp its upper end to the
    *actual* weight of a witness rather than the probed bound — passing the
    active error model matters there, because on a shared per-code session
    the model may also assign indicator variables of *other* guarded task
    formulas, which are unconstrained during this probe and must not count.
    """
    if error_model is None:
        prefixes: tuple[str, ...] = ("ex_", "ez_", "e_")
    elif error_model.kind == "any":
        prefixes = ("ex_", "ez_")
    else:
        prefixes = ("e_",)
    qubits: set[int] = set()
    for name, value in model.items():
        if value and name.startswith(prefixes):
            qubits.add(int(name.rsplit("_", 1)[1]))
    return len(qubits)


def anticommutation_parity(
    operator: PauliOperator, x_components: list[BoolExpr], z_components: list[BoolExpr]
) -> BoolExpr:
    """Parity that is 1 exactly when the symbolic error anti-commutes with ``operator``.

    Uses the symplectic product: the error's X part sees the operator's Z
    support and vice versa.
    """
    contributions: list[BoolExpr] = []
    for qubit in range(operator.num_qubits):
        if operator.z[qubit]:
            contributions.append(x_components[qubit])
        if operator.x[qubit]:
            contributions.append(z_components[qubit])
    contributions = [c for c in contributions if not isinstance(c, BoolConst) or c.value]
    if not contributions:
        return BoolConst(False)
    if len(contributions) == 1:
        return contributions[0]
    return Xor(tuple(contributions))


def syndrome_definitions(
    code: StabilizerCode,
    x_components: list[BoolExpr],
    z_components: list[BoolExpr],
    prefix: str = "",
) -> tuple[list[BoolExpr], list[BoolExpr]]:
    """Syndrome variables together with their defining constraints.

    Returns ``(syndrome_variables, constraints)`` where constraint ``j`` fixes
    ``s_j`` to the anti-commutation parity of the error with generator ``j``.
    """
    syndrome_vars: list[BoolExpr] = []
    constraints: list[BoolExpr] = []
    for index, generator in enumerate(code.stabilizers):
        variable = BoolVar(f"{prefix}s_{index}")
        parity = anticommutation_parity(generator, x_components, z_components)
        syndrome_vars.append(variable)
        constraints.append(Not(Xor((variable, parity))))
    return syndrome_vars, constraints


def _logical_flip(code: StabilizerCode, x_components, z_components) -> BoolExpr:
    """True when the symbolic Pauli acts non-trivially on the codespace.

    A zero-syndrome operator is a logical error iff it anti-commutes with at
    least one logical representative.
    """
    flips = []
    for operator in list(code.logical_xs) + list(code.logical_zs):
        flips.append(anticommutation_parity(operator, x_components, z_components))
    return bool_or(flips)


def accurate_correction_formula(
    code: StabilizerCode,
    max_errors: int | None = None,
    error_model: ErrorModel = ErrorModel("any"),
    extra_constraints: list[BoolExpr] | None = None,
) -> BoolExpr:
    """Refutation formula for the accurate decoding-and-correction task (Eqn. 14).

    The formula is satisfiable iff there exist an error ``e`` (within the
    weight bound and the optional user constraints) and a correction ``c``
    that a minimum-weight decoder could output — same syndrome as ``e`` and
    weight at most the weight of ``e`` (the decoder condition ``P_f``) — such
    that the residual ``e + c`` flips a logical operator.  Unsatisfiability
    therefore proves that every decoder satisfying ``P_f`` corrects every
    error configuration in scope.
    """
    if max_errors is None:
        if code.distance is None:
            raise ValueError("max_errors must be given when the code distance is unknown")
        max_errors = (code.distance - 1) // 2
    error_x, error_z, error_indicators = error_component_variables(
        code.num_qubits, error_model, prefix=""
    )
    corr_x, corr_z, corr_indicators = error_component_variables(
        code.num_qubits, error_model, prefix="c"
    )
    syndrome_vars, syndrome_constraints = syndrome_definitions(code, error_x, error_z)

    error_weight = error_weight_indicators(error_indicators)
    correction_weight = error_weight_indicators(corr_indicators)
    conjuncts: list[BoolExpr] = []
    # Error scope: weight bound plus any user constraints (Fig. 7).
    conjuncts.append(IntLe(error_weight, IntConst(max_errors)))
    conjuncts.extend(extra_constraints or [])
    # Deterministic syndrome extraction.
    conjuncts.extend(syndrome_constraints)
    # Decoder condition P_f: the correction reproduces the syndrome ...
    for generator, syndrome_var in zip(code.stabilizers, syndrome_vars):
        corr_parity = anticommutation_parity(generator, corr_x, corr_z)
        conjuncts.append(Not(Xor((syndrome_var, corr_parity))))
    # ... and has weight no larger than the error (minimum-weight decoder),
    # stated threshold by threshold: wt(c) >= j -> wt(e) >= j for j <= k + 1.
    # Given wt(e) <= k this is wt(c) <= wt(e), and both unary counters stop
    # at width k + 1 instead of n.
    for j in range(1, max_errors + 2):
        conjuncts.append(
            Implies(IntLe(IntConst(j), correction_weight), IntLe(IntConst(j), error_weight))
        )
    # Residual error e + c acts non-trivially on the codespace.
    residual_x = [Xor((ex, cx)) for ex, cx in zip(error_x, corr_x)]
    residual_z = [Xor((ez, cz)) for ez, cz in zip(error_z, corr_z)]
    conjuncts.append(_logical_flip(code, residual_x, residual_z))
    return bool_and(conjuncts)


def precise_detection_base(
    code: StabilizerCode,
    error_model: ErrorModel = ErrorModel("any"),
):
    """Trial-independent part of the precise-detection query (Eqn. 15).

    Returns ``(formula, weight)``: the formula constrains the error to be
    non-trivial (weight at least one), syndrome-free, and logically acting —
    everything except the per-trial upper weight bound — and ``weight`` is
    the integer expression for the error weight.  A distance walk asserts
    this base once and activates ``weight <= t - 1`` per trial ``t`` through
    selector-guarded cardinality constraints, sharing one encoding (and one
    incremental solver) across every trial distance.
    """
    error_x, error_z, indicators = error_component_variables(
        code.num_qubits, error_model, prefix=""
    )
    conjuncts: list[BoolExpr] = []
    weight = error_weight_indicators(indicators)
    conjuncts.append(IntLe(IntConst(1), weight))
    # All syndromes are zero: the error commutes with every generator.
    for generator in code.stabilizers:
        conjuncts.append(Not(anticommutation_parity(generator, error_x, error_z)))
    # Yet the error acts non-trivially on the codespace.
    conjuncts.append(_logical_flip(code, error_x, error_z))
    return bool_and(conjuncts), weight


def precise_detection_formula(
    code: StabilizerCode,
    trial_distance: int,
    error_model: ErrorModel = ErrorModel("any"),
) -> BoolExpr:
    """Refutation formula for the precise-detection task (Eqn. 15).

    Satisfiable iff some error of weight between 1 and ``trial_distance - 1``
    has zero syndrome yet flips a logical operator, i.e. an undetectable
    logical error below the trial distance exists.  For ``trial_distance``
    equal to the true code distance the query is unsatisfiable; for
    ``trial_distance = d + 1`` the model returned is a minimum-weight
    undetectable error.
    """
    if trial_distance < 2:
        raise ValueError("trial_distance must be at least 2")
    base, weight = precise_detection_base(code, error_model)
    return bool_and([base, IntLe(weight, IntConst(trial_distance - 1))])
