"""Pluggable solver backends for the verification engine.

A backend decides one compiled task (a refutation formula): ``unsat`` means
the property is verified.  Two implementations ship with the engine:

* :class:`SerialBackend`   — one SAT query on a :class:`~repro.smt.interface.SolveSession`;
* :class:`ParallelBackend` — enumeration-based task splitting across a worker
  pool through :class:`repro.smt.parallel.IncrementalSplitSession`
  (Appendix D.4): one pool per check, each worker holding one incremental
  session across its subtasks, warm-started from the engine's clause store.

Both accept an optional ``session`` — a live :class:`SolveSession` that
already holds the compiled formula — so the engine can reuse one solver (and
its learnt clauses) across repeated runs of the same task; see
:meth:`repro.api.engine.Engine.run`.  Backends are plain frozen dataclasses
so they can be pickled into the batch executor's worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Protocol, runtime_checkable

from repro.smt.interface import SMTCheck, SolveSession
from repro.smt.parallel import IncrementalSplitSession
from repro.smt.solver import SolveControl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.engine import CompiledTask

__all__ = ["Backend", "SerialBackend", "ParallelBackend", "coerce_backend", "make_session"]


def make_session(compiled: "CompiledTask") -> SolveSession:
    """A fresh incremental session holding ``compiled``'s formula."""
    return SolveSession(compiled.formula)


@runtime_checkable
class Backend(Protocol):
    """Anything that can decide a compiled verification task.

    Backends may additionally expose a ``wants_session`` attribute/property;
    when truthy the engine builds a persistent session view for the task
    (shared per code through the engine's resource layer) and passes it to
    :meth:`check`.  A ``wants_resources`` attribute/property additionally
    opts the backend into the engine's
    :class:`~repro.api.resources.ResourceManager` (passed as a ``resources``
    keyword), which is how the parallel backend reaches the clause store.
    The engine treats missing attributes as ``False``, so custom
    backends that ignore sessions and resources need not declare them.
    """

    name: str

    def check(self, compiled: "CompiledTask", session: SolveSession | None = None) -> SMTCheck:
        """Decide satisfiability of ``compiled.formula`` (unsat = verified).

        ``session``, when given, is a live session already holding the
        compiled formula (possibly guarded behind a task selector); the
        backend should solve on it so learnt clauses carry over to the next
        run of the same task — and, when the session is a shared per-code
        view, to every other task kind on the same code.
        """
        ...


@dataclass(frozen=True)
class SerialBackend:
    """Single-query backend over the in-tree incremental CDCL solver."""

    name: ClassVar[str] = "serial"
    # The engine only forwards a job's SolveControl (deadline / cancellation)
    # to backends that declare they honor it; third-party backends without
    # the attribute fall back to engine-level between-probe checks.
    supports_control: ClassVar[bool] = True

    @property
    def wants_session(self) -> bool:
        """Whether :meth:`check` will solve on a provided persistent session
        (the engine only builds/caches sessions for backends that will)."""
        return True

    def check(
        self,
        compiled: "CompiledTask",
        session: SolveSession | None = None,
        control: SolveControl | None = None,
    ) -> SMTCheck:
        live = session if session is not None else make_session(compiled)
        return live.check(control=control)


@dataclass(frozen=True)
class ParallelBackend:
    """Task-splitting backend (the paper's parallel strategy).

    ``heuristic_weight`` and ``threshold`` override the per-task hints the
    compiler attaches (``2 * d`` and the qubit count); leave them ``None`` to
    use the hints.  ``max_subtasks`` bounds the enumeration so large codes
    cannot explode the split tree.  With ``num_workers <= 1`` the subtasks
    still split but run sequentially on one in-process session, which is also
    what happens inside batch worker processes (daemonic workers cannot spawn
    a nested pool); a provided ``session`` is reused on that sequential path.
    """

    num_workers: int = 2
    heuristic_weight: int | None = None
    threshold: int | None = None
    max_subtasks: int = 256

    name: ClassVar[str] = "parallel"
    supports_control: ClassVar[bool] = True

    @property
    def wants_session(self) -> bool:
        # Worker processes hold their own sessions; an in-process one is only
        # consumed on the sequential (num_workers <= 1) path.
        return self.num_workers <= 1

    @property
    def wants_resources(self) -> bool:
        """Whether :meth:`check` uses the engine's resource layer (the clause
        store that warm-starts the split workers) when one is provided."""
        return True

    def check(
        self,
        compiled: "CompiledTask",
        session: SolveSession | None = None,
        resources=None,
        control: SolveControl | None = None,
    ) -> SMTCheck:
        heuristic_weight = self.heuristic_weight or compiled.split_weight
        threshold = self.threshold if self.threshold is not None else compiled.split_threshold
        store = resources.clause_store if resources is not None else None
        with IncrementalSplitSession(
            compiled.formula,
            split_variables=list(compiled.split_variables),
            heuristic_weight=heuristic_weight,
            threshold=threshold,
            num_workers=self.num_workers,
            max_subtasks=self.max_subtasks,
            session=session if self.num_workers <= 1 else None,
            warm_dir=store.directory if store is not None else None,
        ) as split:
            check = split.check(control=control)
            if check.conflicts:
                # Persist before the pool closes: the next process (a fresh
                # CLI engine) starts its split workers warm from these
                # clauses.  A conflict-free check learnt nothing to add.
                split.save_warm()
        if resources is not None:
            resources.record_split_warm(split.warm_absorbed)
        return check


def coerce_backend(backend: "Backend | str | None", num_workers: int = 2) -> "Backend":
    """Resolve a backend argument: an instance, a name, or ``None`` (serial)."""
    if backend is None:
        return SerialBackend()
    if isinstance(backend, str):
        if backend == "serial":
            return SerialBackend()
        if backend == "parallel":
            return ParallelBackend(num_workers=num_workers)
        raise ValueError(f"unknown backend {backend!r}; expected 'serial' or 'parallel'")
    return backend
