"""Verification tasks: frozen, hashable value objects describing one request.

Every verification functionality of the tool (Section 7) is reified as a
task dataclass so that requests can be cached, batched, pickled across a
process pool, and rendered from the CLI:

* :class:`CorrectionTask`   — accurate decoding and correction (Eqn. 14);
* :class:`DetectionTask`    — precise detection below a trial distance (Eqn. 15);
* :class:`DistanceTask`     — code-distance discovery via repeated detection;
* :class:`ConstrainedTask`  — partial verification under user constraints (Fig. 7);
* :class:`FixedErrorTask`   — a single fixed error pattern (the Stim functionality);
* :class:`ProgramTask`      — the program-logic route over a Hoare triple.

Code-carrying tasks reference their code either by registry key (resolved
through :mod:`repro.codes.registry`, the picklable/cacheable form) or by an
in-memory :class:`~repro.codes.base.StabilizerCode` instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.classical.expr import BoolExpr
from repro.codes.base import StabilizerCode
from repro.codes.registry import build_code
from repro.hoare.triple import HoareTriple
from repro.verifier.encodings import ErrorModel

__all__ = [
    "Task",
    "CodeTask",
    "CorrectionTask",
    "DetectionTask",
    "DistanceTask",
    "ConstrainedTask",
    "FixedErrorTask",
    "ProgramTask",
    "TASK_KINDS",
    "resolve_code",
    "task_from_dict",
]


def resolve_code(code: str | StabilizerCode) -> StabilizerCode:
    """Resolve a task's code reference to a concrete :class:`StabilizerCode`."""
    if isinstance(code, StabilizerCode):
        return code
    if isinstance(code, str):
        return build_code(code)
    raise TypeError(f"expected a registry key or a StabilizerCode, got {code!r}")


@dataclass(frozen=True)
class Task:
    """Base class of all verification tasks."""

    kind: ClassVar[str] = "task"

    @property
    def deterministic(self) -> bool:
        """Whether compiling this task twice yields the same formula.

        Nondeterministic tasks (e.g. locality constraints with an unseeded
        random qubit subset) get no guard on their code's context, so every
        run compiles them afresh.
        """
        return True

    @property
    def subject(self) -> str:
        """What a job's events call this task's subject.

        Known without building or compiling anything, so the job's first
        event (``JobSubmitted``) and its ``TaskCompiled`` name it alike.
        """
        return ""

    def describe(self) -> str:
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{type(self).__name__}({parts})"


@dataclass(frozen=True)
class CodeTask(Task):
    """A task about one stabilizer code (by registry key or instance)."""

    code: str | StabilizerCode = ""

    def __post_init__(self) -> None:
        if isinstance(self.code, str) and not self.code:
            raise ValueError("a code registry key or StabilizerCode is required")

    @property
    def code_name(self) -> str:
        return self.code if isinstance(self.code, str) else self.code.name

    @property
    def subject(self) -> str:
        return self.code_name

    def build(self) -> StabilizerCode:
        return resolve_code(self.code)


@dataclass(frozen=True)
class CorrectionTask(CodeTask):
    """Verify accurate decoding and correction for all errors in scope."""

    kind: ClassVar[str] = "accurate-correction"

    max_errors: int | None = None
    error_model: ErrorModel | str = ErrorModel("any")
    extra_constraints: tuple[BoolExpr, ...] = ()

    def __post_init__(self) -> None:
        CodeTask.__post_init__(self)
        object.__setattr__(self, "error_model", ErrorModel.coerce(self.error_model))
        object.__setattr__(self, "extra_constraints", tuple(self.extra_constraints))
        if self.max_errors is not None and self.max_errors < 0:
            raise ValueError("max_errors must be non-negative")


@dataclass(frozen=True)
class DetectionTask(CodeTask):
    """Verify that every error of weight below the trial distance is detectable."""

    kind: ClassVar[str] = "precise-detection"

    trial_distance: int | None = None
    error_model: ErrorModel | str = ErrorModel("any")

    def __post_init__(self) -> None:
        CodeTask.__post_init__(self)
        object.__setattr__(self, "error_model", ErrorModel.coerce(self.error_model))
        if self.trial_distance is not None and self.trial_distance < 2:
            raise ValueError("trial_distance must be at least 2")


@dataclass(frozen=True)
class DistanceTask(CodeTask):
    """Discover the code distance by pushing the trial distance until a
    minimum-weight undetectable error appears.

    A meta-task: the engine runs a sequence of :class:`DetectionTask` queries
    rather than compiling a single formula.  ``max_trial`` is the largest
    trial distance probed (an integer of at least 2; ``None`` means one past
    the qubit count).  There is one probe schedule, and it reads only the
    search bracket, never the code's recorded distance: bounds 1, 2, 4, ...
    until the first satisfiable probe, then bisection of the remaining
    window.  Bisecting from the start was cheaper on a cold registry sweep
    but dearer on a warm one, whose walks re-encode the mid-span counters.
    """

    kind: ClassVar[str] = "find-distance"

    max_trial: int | None = None

    def __post_init__(self) -> None:
        CodeTask.__post_init__(self)
        if self.max_trial is not None and (
            not isinstance(self.max_trial, int)
            or isinstance(self.max_trial, bool)
            or self.max_trial < 2
        ):
            raise ValueError(f"max_trial must be an integer of at least 2, got {self.max_trial!r}")


@dataclass(frozen=True)
class ConstrainedTask(CodeTask):
    """Partial verification of correction under user-provided constraints (Fig. 7)."""

    kind: ClassVar[str] = "constrained-correction"

    locality: bool = False
    discreteness: bool = False
    allowed_qubits: tuple[int, ...] | None = None
    max_errors: int | None = None
    error_model: ErrorModel | str = ErrorModel("any")
    seed: int | None = None

    def __post_init__(self) -> None:
        CodeTask.__post_init__(self)
        object.__setattr__(self, "error_model", ErrorModel.coerce(self.error_model))
        if self.allowed_qubits is not None:
            object.__setattr__(self, "allowed_qubits", tuple(self.allowed_qubits))

    @property
    def deterministic(self) -> bool:
        # An unseeded locality constraint samples a fresh random qubit subset
        # per compilation; caching would silently reuse one sample.
        return not (self.locality and self.seed is None and self.allowed_qubits is None)

    @property
    def constraint_labels(self) -> list[str]:
        labels = []
        if self.locality:
            labels.append("locality")
        if self.discreteness:
            labels.append("discreteness")
        return labels


@dataclass(frozen=True)
class FixedErrorTask(CodeTask):
    """Check one concrete error pattern (the functionality Stim covers).

    ``error_qubits`` maps qubit indices to the injected Pauli (``"X"``,
    ``"Y"`` or ``"Z"``); it is stored as a sorted tuple of pairs so the task
    stays hashable.
    """

    kind: ClassVar[str] = "fixed-error"

    error_qubits: tuple[tuple[int, str], ...] = ()
    max_errors: int | None = None

    def __post_init__(self) -> None:
        CodeTask.__post_init__(self)
        pairs = self.error_qubits
        if isinstance(pairs, dict):
            pairs = pairs.items()
        object.__setattr__(self, "error_qubits", tuple(sorted(pairs)))

    @property
    def error_map(self) -> dict[int, str]:
        return dict(self.error_qubits)


#: JSON-constructible task classes by kind, with short aliases — the wire
#: vocabulary of the service's ``POST /jobs`` body.  :class:`ProgramTask` is
#: deliberately absent: it carries an in-memory Hoare triple and cannot be
#: built from a JSON payload.
TASK_KINDS: dict[str, type["CodeTask"]] = {}


def _register_kinds() -> None:
    aliases = {
        CorrectionTask: ("correction",),
        DetectionTask: ("detection",),
        DistanceTask: ("distance",),
        ConstrainedTask: ("constrained",),
        FixedErrorTask: (),
    }
    for cls, extra in aliases.items():
        TASK_KINDS[cls.kind] = cls
        for alias in extra:
            TASK_KINDS[alias] = cls


_register_kinds()


def task_from_dict(payload: dict) -> Task:
    """Build a task from a JSON-shaped dict: ``{"kind": ..., <task fields>}``.

    The inverse of the wire contract the service accepts on ``POST /jobs``.
    ``kind`` selects the task class (canonical kind or short alias, see
    :data:`TASK_KINDS`); every other key must name a field of that class.
    Unknown kinds, unknown fields, and fields that cannot be expressed in
    JSON (``extra_constraints``) raise :class:`ValueError` so callers can map
    them to a 400 instead of a 500.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"task must be an object, got {type(payload).__name__}")
    spec = dict(payload)
    kind = spec.pop("kind", None)
    if not isinstance(kind, str) or kind not in TASK_KINDS:
        raise ValueError(
            f"unknown task kind {kind!r}; expected one of {sorted(TASK_KINDS)}"
        )
    cls = TASK_KINDS[kind]
    allowed = {f.name for f in fields(cls) if f.init}
    allowed.discard("extra_constraints")  # BoolExpr trees have no JSON form
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(
            f"unknown field(s) {unknown} for task kind {kind!r}; "
            f"allowed: {sorted(allowed)}"
        )
    code = spec.get("code")
    if "code" in allowed and not isinstance(code, str):
        raise ValueError("task field 'code' must be a registry key string")
    if cls is FixedErrorTask and "error_qubits" in spec:
        raw = spec["error_qubits"]
        if isinstance(raw, dict):
            pairs = [(int(qubit), pauli) for qubit, pauli in raw.items()]
        elif isinstance(raw, (list, tuple)):
            pairs = [(int(qubit), pauli) for qubit, pauli in raw]
        else:
            raise ValueError("error_qubits must be a mapping or a list of pairs")
        spec["error_qubits"] = tuple(pairs)
    if "allowed_qubits" in spec and spec["allowed_qubits"] is not None:
        spec["allowed_qubits"] = tuple(int(q) for q in spec["allowed_qubits"])
    try:
        return cls(**spec)
    except TypeError as exc:
        raise ValueError(f"invalid task spec for kind {kind!r}: {exc}") from exc


@dataclass(frozen=True)
class ProgramTask(Task):
    """Verify a Hoare triple about a QEC program (the program-logic route)."""

    kind: ClassVar[str] = "program-logic"

    triple: HoareTriple = field(default=None)  # type: ignore[assignment]
    decoder_condition: BoolExpr | None = None

    def __post_init__(self) -> None:
        if self.triple is None:
            raise ValueError("a HoareTriple is required")

    @property
    def subject(self) -> str:
        return self.triple.name
