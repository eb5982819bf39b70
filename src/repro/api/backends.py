"""The two solver backends of the verification engine.

A backend decides one compiled task (a refutation formula): ``unsat`` means
the property is verified.  The paper decides a VC in one of two ways, and
so does the engine:

* :class:`SerialBackend`   — one SAT query on a :class:`~repro.smt.interface.SolveSession`;
* :class:`ParallelBackend` — enumeration-based task splitting (Appendix D.4)
  through one :func:`repro.smt.parallel.split_check` call: across a worker
  pool built for that check, each worker holding one incremental session
  across its subtasks and warm-started from the engine's clause store, or
  in process on the engine's session.

:data:`Backend` is their union; nothing else plugs in.  Both take the same
``check(compiled, *, session, resources, control)`` call: ``session`` is a
live session already holding the compiled formula (the engine builds one,
shared per code, when the backend's ``wants_session`` is true), so learnt
clauses carry over to the next run of the same task, and ``compiled``
then carries no formula of its own; ``resources`` is the
engine's :class:`~repro.api.resources.ResourceManager` (the clause store);
``control`` bounds the solve (deadline, cancellation).  Backends are plain
frozen dataclasses so they can be pickled into the batch executor's worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.smt.interface import SMTCheck, SolveSession
from repro.smt.parallel import generate_split_assumptions, split_check
from repro.smt.solver import SolveControl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.engine import CompiledTask
    from repro.api.resources import ResourceManager

__all__ = ["Backend", "SerialBackend", "ParallelBackend", "coerce_backend"]


@dataclass(frozen=True)
class SerialBackend:
    """Single-query backend over the in-tree incremental CDCL solver."""

    name: ClassVar[str] = "serial"
    #: :meth:`check` solves on the engine's persistent session.
    wants_session: ClassVar[bool] = True

    def check(
        self,
        compiled: "CompiledTask",
        *,
        session: SolveSession | None = None,
        resources: "ResourceManager | None" = None,
        control: SolveControl | None = None,
    ) -> SMTCheck:
        live = session if session is not None else SolveSession(compiled.formula)
        return live.check(control=control)


@dataclass(frozen=True)
class ParallelBackend:
    """Task-splitting backend (the paper's parallel strategy).

    The backend enumerates the compiled task's split variables into subtasks
    and decides them in one :func:`~repro.smt.parallel.split_check`; its
    fields are the only split defaults.  ``threshold`` overrides the split
    threshold the compiler attaches to each task (its qubit count); leave it
    ``None`` to use that hint.  The split weight is always the task's own
    hint (``2 * d``).
    ``max_subtasks`` bounds the enumeration so large codes cannot explode
    the split tree.  With ``num_workers >= 2`` and more than one subtask the
    subtasks run on a process pool built for the check, whose workers
    warm-start from and save to the clause store.  With ``num_workers <= 1``
    they run in process on the engine's session for the task (its code's
    shared context, which loads and saves the store itself), which is also
    what happens inside batch worker processes (daemonic workers cannot
    spawn a nested pool).  A task without split variables (the program
    route) on more workers runs in process on a throwaway session.
    """

    num_workers: int = 2
    threshold: int | None = None
    max_subtasks: int = 256

    name: ClassVar[str] = "parallel"

    @property
    def wants_session(self) -> bool:
        # Worker processes hold their own sessions; an in-process one is only
        # consumed on the sequential (num_workers <= 1) path.
        return self.num_workers <= 1

    def check(
        self,
        compiled: "CompiledTask",
        *,
        session: SolveSession | None = None,
        resources: "ResourceManager | None" = None,
        control: SolveControl | None = None,
    ) -> SMTCheck:
        assumption_sets = generate_split_assumptions(
            list(compiled.split_variables),
            compiled.split_weight,
            self.threshold if self.threshold is not None else compiled.split_threshold,
            max_subtasks=self.max_subtasks,
        )
        store = resources.clause_store if resources is not None else None
        check = split_check(
            compiled.formula,
            assumption_sets,
            num_workers=self.num_workers,
            session=session,
            warm_dir=store.directory if store is not None else None,
            control=control,
        )
        if resources is not None:
            resources.record_split_warm(check.metadata["session"].get("warm_absorbed", 0))
        return check


#: Every backend the engine accepts.
Backend = SerialBackend | ParallelBackend


def coerce_backend(backend: Backend | str | None) -> Backend:
    """Resolve a backend argument: an instance, a name, or ``None`` (serial).
    ``"parallel"`` is ``ParallelBackend()``, with its default two workers."""
    if backend is None:
        return SerialBackend()
    if isinstance(backend, str):
        if backend == "serial":
            return SerialBackend()
        if backend == "parallel":
            return ParallelBackend()
        raise ValueError(f"unknown backend {backend!r}; expected 'serial' or 'parallel'")
    if not isinstance(backend, Backend):
        raise TypeError(
            f"expected SerialBackend, ParallelBackend, 'serial' or 'parallel', "
            f"got {type(backend).__name__}"
        )
    return backend
