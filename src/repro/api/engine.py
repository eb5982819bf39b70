"""The verification engine: compile tasks once, decide them on either backend.

``Engine`` is the single entry point for every verification task; the
``python -m repro`` CLI, the job executor and the service all drive it:

* :meth:`Engine.compile_task` lowers a task to its refutation formula (one
  place for every encoding decision); a run compiles a task once per live
  guard on its code's :class:`~repro.api.resources.CodeContext`, the only
  cache of compiled tasks;
* :meth:`Engine.run` decides one task on a :class:`~repro.api.backends.SerialBackend`
  or :class:`~repro.api.backends.ParallelBackend` and returns the unified
  :class:`~repro.api.result.Result`;
* :meth:`Engine.run_many` executes a batch of tasks — optionally across a
  process pool — with per-task timing, which is how whole registry sweeps
  (Table 3 / Table 4 style) are driven.

Every execution, blocking ``run`` or job, holds its code's claim for its
whole run; the engine's :class:`~repro.api.resources.ResourceManager` owns
the claims together with the code contexts they protect.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Sequence

from repro import sanitize
from repro.api.backends import Backend, ParallelBackend, coerce_backend
from repro.api.events import DistanceProbe, SolverStats, SubtaskStarted, TaskCompiled
from repro.api.jobs import Job, ShardedJobExecutor
from repro.api.resources import ResourceManager
from repro.api.result import Result
from repro.api.tasks import (
    ConstrainedTask,
    CorrectionTask,
    DetectionTask,
    DistanceTask,
    FixedErrorTask,
    ProgramTask,
    Task,
)
from repro.classical.expr import BoolExpr, BoolVar, Not
from repro.codes.base import StabilizerCode
from repro.codes.registry import CODE_REGISTRY, family_of
from repro.smt.parallel import pool_results
from repro.smt.solver import SolveControl, SolverInterrupted
from repro.store import ClauseStore
from repro.verifier.constraints import discreteness_constraint, locality_constraint
from repro.verifier.encodings import (
    ErrorModel,
    accurate_correction_formula,
    model_error_weight,
    precise_detection_base,
    precise_detection_formula,
)

__all__ = ["CompiledTask", "Engine", "registry_sweep_tasks"]

# An event sink: called with each typed event as execution progresses.
Emit = Callable[[object], object]


@dataclass
class CompiledTask:
    """A task lowered to its refutation formula plus backend hints.

    The copy a code context keeps has ``formula=None``: its session already
    holds the formula's clauses."""

    task: Task
    kind: str
    subject: str
    formula: BoolExpr | None
    split_variables: tuple[str, ...] = ()
    split_weight: int = 2
    split_threshold: int | None = None
    details: dict = field(default_factory=dict)
    compile_seconds: float = 0.0


def _split_hints(code, error_model) -> tuple[tuple[str, ...], int, int]:
    """Enumeration hints for the parallel strategy: the error-indicator
    variables, the paper's heuristic weight ``2 * d`` and the threshold ``n``."""
    if error_model.kind == "any":
        names = tuple(
            name for qubit in range(code.num_qubits) for name in (f"ex_{qubit}", f"ez_{qubit}")
        )
    else:
        names = tuple(f"e_{qubit}" for qubit in range(code.num_qubits))
    return names, 2 * (code.distance or 3), code.num_qubits


def _validate_checkpoint(state: dict | None, limit: int, error_model: ErrorModel) -> dict | None:
    """Sanitize a distance-walk checkpoint blob loaded from the store.

    The store already checksums payloads against torn writes; this guards
    the *semantics* — every field must be a well-typed value inside the
    walk's own bounds, and the bracket must be one the walk could have
    written: ``hi`` sits just below the recorded distance, ``lo`` does not
    pass it, and a witness of exactly that weight is present iff the
    distance is below ``limit``.  Anything else is ignored and the walk
    runs cold.  A bracket that is consistent but false (a ``lo`` whose
    lower weights were never refuted, a witness that is no logical error)
    is still trusted: the check cannot tell it from a true one without
    re-running the probes it exists to skip.  Keys of older payloads
    (``strategy``, ``galloping``, ``gallop_bound``) are ignored.
    """
    if not isinstance(state, dict) or state.get("version") != 1:
        return None
    if state.get("limit") != limit:
        return None
    lo, hi = state.get("lo"), state.get("hi")
    distance = state.get("distance")
    probes = state.get("probes")
    if not all(isinstance(value, int) and not isinstance(value, bool)
               for value in (lo, hi, distance, probes)):
        return None
    if not (1 <= lo <= distance <= limit and hi == distance - 1 and probes >= 1):
        return None
    witness = state.get("witness")
    if distance == limit:
        return state if witness is None else None
    if not isinstance(witness, dict) or not all(
        isinstance(name, str) and isinstance(value, bool)
        for name, value in witness.items()
    ):
        return None
    try:
        weight = model_error_weight(witness, error_model)
    except ValueError:
        # An indicator name without a qubit index.
        return None
    return state if weight == distance else None


def _task_checkpoint_key(task: Task) -> str:
    """The key of ``task``'s one checkpoint row: a distance walk's bracket
    while the walk runs, then, in a multi-task sweep, the task's result.

    Hashes what the row is a fact *about*: the code (registry key, or
    name/size/stabilizers for an ad-hoc code) and the task's own fields, so
    a row can never be loaded by a task whose answer could differ, while a
    restarted process, another sweep or another service replica on the same
    store maps the identical task to the same key.
    """
    digest = hashlib.sha256()
    digest.update(task.kind.encode())
    for spec in fields(task):
        value = getattr(task, spec.name)
        if isinstance(value, StabilizerCode):
            value = "/".join(
                [value.name, str(value.num_qubits)] + [str(s) for s in value.stabilizers]
            )
        digest.update(b"\x1f")
        digest.update(f"{spec.name}={value!r}".encode())
    return digest.hexdigest()


def _restore_result(state: dict | None) -> Result | None:
    """The result a finished sweep task left in its checkpoint row, or None.

    Same discipline as a walk's bracket: the store checksums the row, this
    checks its shape.  A bracket, another version or a malformed entry is
    ignored, and the task runs cold.
    """
    if not isinstance(state, dict) or state.get("version") != 1:
        return None
    payload = state.get("result")
    if not isinstance(payload, dict):
        return None
    try:
        result = Result.from_dict(payload)
    except TypeError:
        return None
    if not isinstance(result.verified, bool):
        return None
    if not isinstance(result.details, dict):
        result.details = {}
    result.details["sweep_resumed"] = True
    return result


class Engine:
    """Compiles verification tasks and dispatches them to a backend."""

    def __init__(
        self,
        backend: Backend | str | None = None,
        lanes: int = 4,
        clause_store: str | ClauseStore | None = None,
    ):
        self.backend: Backend = coerce_backend(backend)
        self.lanes = max(1, int(lanes))
        # Engine-owned solver resources: one shared live session per *code*
        # (correction, detection and distance queries on a code share learnt
        # clauses through task-selector guards), which is also the cache of
        # compiled tasks, and the code claims that keep each session
        # single-threaded.
        # The persistent clause store (``repro.store``): durable learnt
        # clauses and distance-walk checkpoints shared across every worker,
        # split worker and process using the directory.  It is fixed here,
        # before any context exists: a context takes its CNF fingerprint
        # before its first check and cannot take it later.
        if clause_store is not None and not isinstance(clause_store, ClauseStore):
            clause_store = ClauseStore(str(clause_store))
        self.resources = ResourceManager(clause_store=clause_store)
        # The job layer: created lazily on the first submit().
        self._executor: ShardedJobExecutor | None = None
        self._job_counter = 0
        # Guards submit-time state only (job ids, lazy executor creation);
        # never held across a solve, so submitting stays non-blocking.
        self._submit_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile_task(self, task: Task) -> CompiledTask:
        """Lower ``task`` to its formula (uncached: runs hit the task's code
        context instead)."""
        return self._compile(task)

    def cache_info(self) -> dict:
        """Task compiles served from a code context's live guard (``hits``)
        or run for one (``misses``), and the live contexts (``sessions``)."""
        return {**self.resources.task_compiles, "sessions": self.resources.num_contexts()}

    def clear_cache(self) -> None:
        self.resources.clear_contexts()

    def close(self) -> None:
        """Release live solver resources (learnt clauses are saved to the
        ``ClauseStore``), cancelling any still-queued jobs first."""
        with self._submit_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self.resources.close()

    def coerce(self, backend: Backend | str | None) -> Backend:
        """Resolve a backend argument against this engine's default."""
        return coerce_backend(backend) if backend is not None else self.backend

    def _compile(self, task: Task) -> CompiledTask:
        start = time.perf_counter()
        if isinstance(task, ConstrainedTask):
            compiled = self._compile_constrained(task)
        elif isinstance(task, FixedErrorTask):
            compiled = self._compile_fixed_error(task)
        elif isinstance(task, CorrectionTask):
            compiled = self._compile_correction(task)
        elif isinstance(task, DetectionTask):
            compiled = self._compile_detection(task)
        elif isinstance(task, ProgramTask):
            compiled = self._compile_program(task)
        elif isinstance(task, DistanceTask):
            raise TypeError(
                "DistanceTask is a meta-task driven by Engine.run(); it has no single formula"
            )
        else:
            raise TypeError(f"don't know how to compile {type(task).__name__}")
        compiled.compile_seconds = time.perf_counter() - start
        return compiled

    def _compile_correction(
        self,
        task: CorrectionTask,
        *,
        code: StabilizerCode | None = None,
        kind: str | None = None,
        extra_constraints: Sequence[BoolExpr] = (),
        extra_details: dict | None = None,
    ) -> CompiledTask:
        if code is None:
            code = task.build()
        max_errors = task.max_errors
        if max_errors is None:
            if code.distance is None:
                raise ValueError("max_errors must be given when the code distance is unknown")
            max_errors = (code.distance - 1) // 2
        constraints = list(task.extra_constraints) + list(extra_constraints)
        formula = accurate_correction_formula(
            code,
            max_errors=max_errors,
            error_model=task.error_model,
            extra_constraints=constraints or None,
        )
        split_variables, weight, threshold = _split_hints(code, task.error_model)
        details = {"max_errors": max_errors, "error_model": task.error_model.kind}
        details.update(extra_details or {})
        return CompiledTask(
            task=task,
            kind=kind or task.kind,
            subject=code.name,
            formula=formula,
            split_variables=split_variables,
            split_weight=weight,
            split_threshold=threshold,
            details=details,
        )

    def _compile_detection(self, task: DetectionTask) -> CompiledTask:
        code = task.build()
        trial_distance = task.trial_distance
        if trial_distance is None:
            # Mirror the registry sweep default: fall back to weight-2
            # detection when the true distance is unknown or below two.
            trial_distance = code.distance if code.distance and code.distance >= 2 else 2
        formula = precise_detection_formula(code, trial_distance, error_model=task.error_model)
        split_variables, weight, threshold = _split_hints(code, task.error_model)
        return CompiledTask(
            task=task,
            kind=task.kind,
            subject=code.name,
            formula=formula,
            split_variables=split_variables,
            split_weight=weight,
            split_threshold=threshold,
            details={"trial_distance": trial_distance, "error_model": task.error_model.kind},
        )

    def _compile_constrained(self, task: ConstrainedTask) -> CompiledTask:
        code = task.build()
        constraints: list[BoolExpr] = []
        if task.locality:
            allowed = list(task.allowed_qubits) if task.allowed_qubits is not None else None
            constraints.append(
                locality_constraint(
                    code, task.error_model, allowed_qubits=allowed, seed=task.seed
                )
            )
        if task.discreteness:
            constraints.append(discreteness_constraint(code, task.error_model))
        base = CorrectionTask(
            code=task.code, max_errors=task.max_errors, error_model=task.error_model
        )
        compiled = self._compile_correction(
            base,
            code=code,
            kind=task.kind,
            extra_constraints=constraints,
            extra_details={"constraints": task.constraint_labels or ["none"]},
        )
        compiled.task = task
        return compiled

    def _compile_fixed_error(self, task: FixedErrorTask) -> CompiledTask:
        code = task.build()
        error_map = task.error_map
        constraints: list[BoolExpr] = []
        for qubit in range(code.num_qubits):
            pauli = error_map.get(qubit)
            for component, prefix in (("X", "ex"), ("Z", "ez")):
                variable = BoolVar(f"{prefix}_{qubit}")
                present = pauli in (component, "Y") if pauli else False
                constraints.append(variable if present else Not(variable))
        max_errors = task.max_errors if task.max_errors is not None else len(error_map)
        base = CorrectionTask(code=task.code, max_errors=max_errors, error_model="any")
        compiled = self._compile_correction(
            base,
            code=code,
            kind=task.kind,
            extra_constraints=constraints,
            extra_details={"error_qubits": error_map},
        )
        compiled.task = task
        return compiled

    def _compile_program(self, task: ProgramTask) -> CompiledTask:
        from repro.vc.pipeline import compile_triple

        formula, details = compile_triple(task.triple, decoder_condition=task.decoder_condition)
        # The pipeline produces a validity formula; the backends decide
        # satisfiability, so refute the negation (unsat = valid = verified).
        return CompiledTask(
            task=task,
            kind=f"{task.kind}:{task.triple.name}",
            subject=task.triple.name,
            formula=Not(formula),
            details=details,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, task: Task, backend: Backend | str | None = None) -> Result:
        """Decide one task, blocking, and return the unified result.

        The caller claims the task's code for the whole execution, waiting
        while a job or another caller holds it."""
        key = self.resources.claim_key(task)
        self.resources.claim(key)
        try:
            return self._execute(task, self.coerce(backend))
        finally:
            self.resources.release(key)

    def submit(
        self,
        task: Task,
        *,
        priority: int = 0,
        deadline: float | None = None,
        backend: Backend | str | None = None,
    ) -> Job:
        """Enqueue ``task`` and immediately return its :class:`Job` handle.

        Jobs run on the executor's worker threads, highest ``priority``
        first (FIFO among equals), one at a time per code; ``deadline``
        bounds wall-clock seconds from submission, enforced inside the
        solver hot path.  The handle streams typed events
        (``job.events()``), blocks for the result (``job.result()``) and
        cancels (``job.cancel()``) — a cancelled solve stops within one
        control slice and the shared session stays reusable.
        ``Engine.run`` remains the blocking one-task wrapper.
        """
        with self._submit_lock:
            self._job_counter += 1
            job_id = f"job-{self._job_counter}"
            if self._executor is None:
                self._executor = ShardedJobExecutor(self, lanes=self.lanes)
                self.resources.attach_executor(self._executor)
            executor = self._executor
        job = Job(
            job_id,
            task,
            priority=priority,
            deadline=deadline,
            backend=backend,
        )
        return executor.submit(job)

    @staticmethod
    def _check_control(control: SolveControl | None) -> None:
        """Between-step interruption point (probe boundaries, pre-solve)."""
        if control is None:
            return
        reason = control.interrupted()
        if reason is not None:
            raise SolverInterrupted(reason)

    def _execute(
        self,
        task: Task,
        chosen: Backend,
        control: SolveControl | None = None,
        emit: Emit | None = None,
    ) -> Result:
        """The engine core behind both ``run`` and the job executor; the
        caller holds the task's code claim.

        ``control``/``emit`` are optional instrumentation: with both None
        this is exactly the historical blocking path, byte-for-byte.
        """
        # The claim requirement crosses the caller/_execute boundary, which
        # the static REPRO-LOCK rule cannot see: check it dynamically.
        sanitize.assert_claimed(
            self.resources._claimed, self.resources.claim_key(task), "Engine._execute"
        )
        if isinstance(task, DistanceTask):
            return self._run_distance(task, chosen, control=control, emit=emit)
        start = time.perf_counter()
        # The code context compiles and asserts the task once per live guard;
        # without a session (nondeterministic task, unhashable payload, a
        # pooled split) the task compiles afresh.
        found = self.resources.session_for(task, self._compile) if chosen.wants_session else None
        if found is None:
            session, compiled, cached = None, self._compile(task), False
        else:
            session, compiled, cached = found
        if emit is not None:
            emit(TaskCompiled(
                task_kind=compiled.kind, subject=task.subject,
                cached=cached, compile_seconds=compiled.compile_seconds,
            ))
        if emit is not None:
            emit(SubtaskStarted(index=0, description=f"solve:{compiled.kind}"))
        check = chosen.check(
            compiled, session=session, resources=self.resources, control=control
        )
        elapsed = time.perf_counter() - start
        if emit is not None:
            emit(SolverStats.from_counters(
                check.counters,
                num_variables=check.num_variables, num_clauses=check.num_clauses,
            ))
        details = dict(compiled.details)
        details.update(check.metadata)
        if session is not None or isinstance(chosen, ParallelBackend):
            details["resources"] = self.resources.stats()
        return Result(
            task=compiled.kind,
            subject=compiled.subject,
            verified=check.is_unsat,
            counterexample=check.model if check.is_sat else None,
            elapsed_seconds=elapsed,
            compile_seconds=compiled.compile_seconds,
            backend=chosen.name,
            cached=cached,
            num_variables=check.num_variables,
            num_clauses=check.num_clauses,
            conflicts=check.conflicts,
            decisions=check.decisions,
            propagations=check.propagations,
            details=details,
        )

    def _run_distance(
        self,
        task: DistanceTask,
        backend: Backend,
        control: SolveControl | None = None,
        emit: Emit | None = None,
    ) -> Result:
        """Distance discovery: a bracketing search on ONE shared solving session.

        The trial-independent detection base (non-trivial, syndrome-free,
        logically acting error) is encoded exactly once, on the code's shared
        :class:`~repro.api.resources.CodeContext`, whichever backend is
        chosen: the walk's probes are small incremental solves,
        so splitting them across worker processes would cost more in pool
        startup and re-encoding than it saves.  Instead of walking the trial
        distance linearly, the walk brackets the minimum undetectable-error
        weight: each probe activates selector-guarded bounds
        ``lo <= weight <= mid`` (the lower bound is sound because every
        weight below ``lo`` has already been refuted), a SAT probe clamps the
        upper end to the witness's actual weight, an UNSAT probe raises the
        lower end past ``mid``.  That issues O(log d) solver calls where the
        linear walk issued O(d), while learnt clauses flow between probes on
        the same live solver.  The schedule is one rule on the bracket
        alone, never on the code's recorded distance: until the first
        satisfiable probe (``hi == limit - 1``) the bound gallops 1, 2, 4, ...
        (the next one is ``2 * (lo - 1)``), then bisection finishes the
        window.  Low bounds are the cheap probes: a weight bound's counter
        grows with the bound.  Bisecting from the start opens with a mid-span
        bound instead, whose larger counter a warm sweep re-encodes on every
        walk; that made the warm sweep slower, although the cold one was
        cheaper.

        With a clause store attached, the walk keeps its bracket in the
        task's one checkpoint row (:func:`_task_checkpoint_key`), written
        after every probe and deleted when the walk ends; a multi-task
        sweep then writes the walk's result to the same row.
        """
        code = task.build()
        limit = task.max_trial if task.max_trial is not None else code.num_qubits + 1
        start = time.perf_counter()
        compile_start = time.perf_counter()
        error_model = ErrorModel("any")
        context = self.resources.context_for(task.code)
        weight, base_guard, base_variables = context.detection_base(
            error_model.kind,
            lambda: precise_detection_base(code, error_model),
        )
        context.maybe_warm_load()
        session = context.session

        compile_seconds = time.perf_counter() - compile_start
        if emit is not None:
            emit(TaskCompiled(
                task_kind=task.kind, subject=task.subject,
                cached=False, compile_seconds=compile_seconds,
            ))

        trials: list[dict] = []
        distance = limit
        witness = None
        counters: Counter = Counter()
        last = None
        lo, hi = 1, limit - 1
        # Checkpoint/resume: with a clause store attached, the walk persists
        # its bracket after every probe in the task's checkpoint row, so a
        # cancelled or deadline-killed job picks the search up from where it
        # stopped instead of re-refuting bounds it already settled.  Learnt
        # clauses are flushed once, when the walk ends or is interrupted
        # (cancel, deadline, drain): a bracket write is cheaper than almost
        # any probe, a clause flush is not.  A hard kill therefore keeps the
        # bracket but loses the clauses learnt since the last flush.
        store = self.resources.clause_store
        checkpoint_key = None
        resumed_from = None
        prior_probes = 0
        if store is not None:
            checkpoint_key = _task_checkpoint_key(task)
            state = _validate_checkpoint(
                store.checkpoint_load(checkpoint_key), limit, error_model
            )
            if state is not None:
                lo, hi = state["lo"], state["hi"]
                distance = state["distance"]
                witness = state.get("witness")
                prior_probes = state["probes"]
                resumed_from = {"lo": lo, "hi": hi, "probes": prior_probes}

        def save_bracket() -> None:
            payload = {
                "version": 1,
                "limit": limit,
                "lo": lo,
                "hi": hi,
                "distance": distance,
                "probes": prior_probes + len(trials),
            }
            if witness:
                payload["witness"] = witness
            store.checkpoint_save(checkpoint_key, payload)

        try:
            while lo <= hi:
                self._check_control(control)
                if hi == limit - 1:
                    mid = min(max(1, 2 * (lo - 1)), hi)
                else:
                    mid = (lo + hi) // 2
                selectors = [base_guard]
                if lo > 1:
                    selectors.append(context.weight_lower_guard(error_model.kind, weight, lo))
                selectors.append(context.weight_upper_guard(error_model.kind, weight, mid))
                if emit is not None:
                    emit(SubtaskStarted(
                        index=len(trials),
                        description=f"probe {lo} <= weight <= {mid}",
                    ))
                trial_start = time.perf_counter()
                last = session.check(select=tuple(selectors), control=control)
                counters.update(last.counters)
                trial_elapsed = time.perf_counter() - trial_start
                trials.append(
                    {"trial_distance": mid + 1, "bound": mid, "window": [lo, hi],
                     "verified": last.is_unsat,
                     "elapsed_seconds": trial_elapsed,
                     "conflicts": last.conflicts, "decisions": last.decisions}
                )
                found = None
                if last.is_sat:
                    # The witness pins the distance to its own weight; everything
                    # strictly below stays open for the next probe.  It also ends
                    # the galloping phase: ``hi`` drops below ``limit - 1``.
                    model = {name: value for name, value in (last.model or {}).items()
                             if name in base_variables}
                    found = max(1, model_error_weight(model, error_model))
                    distance = found
                    witness = model
                    hi = found - 1
                else:
                    lo = mid + 1
                if checkpoint_key is not None:
                    save_bracket()
                if emit is not None:
                    emit(DistanceProbe(
                        bound=mid, window=[trials[-1]["window"][0], trials[-1]["window"][1]],
                        sat=last.is_sat, witness_weight=found,
                        conflicts=last.conflicts, decisions=last.decisions,
                        elapsed_seconds=trial_elapsed,
                        resumed_from=resumed_from if len(trials) == 1 else None,
                    ))
        except SolverInterrupted:
            # Re-write the bracket in case its last per-probe write failed
            # (none to write before this run's first probe), then flush.
            if checkpoint_key is not None and trials:
                save_bracket()
            context.save_warm()
            raise
        context.save_warm()
        if checkpoint_key is not None:
            # A finished walk leaves no checkpoint: resume is a benefit
            # reserved for interrupted walks, and a rerun of a completed
            # task must report the same structure as a cold run.
            store.checkpoint_delete(checkpoint_key)
        elapsed = time.perf_counter() - start
        stats = session.stats()
        if emit is not None:
            emit(SolverStats.from_counters(
                counters,
                num_variables=last.num_variables if last is not None else 0,
                num_clauses=last.num_clauses if last is not None else 0,
            ))
        details = {
            "distance": distance,
            "trials": trials,
            "base_encodings": 1,
            "session": stats,
        }
        if resumed_from is not None:
            details["resumed_from"] = resumed_from
        details["resources"] = self.resources.stats()
        if witness:
            # The witness is informative (a minimum-weight undetectable
            # error), but `counterexample` is reserved for unverified results.
            details["witness"] = witness
        return Result(
            task=task.kind,
            subject=code.name,
            verified=True,
            elapsed_seconds=elapsed,
            compile_seconds=compile_seconds,
            backend=backend.name,
            num_variables=last.num_variables if last is not None else 0,
            num_clauses=last.num_clauses if last is not None else 0,
            conflicts=counters["conflicts"],
            decisions=counters["decisions"],
            propagations=counters["propagations"],
            details=details,
        )

    # ------------------------------------------------------------------
    def run_many(
        self,
        tasks: Iterable[Task],
        backend: Backend | str | None = None,
        processes: int | None = None,
        schedule: str | None = None,
    ) -> list[Result]:
        """Decide a batch of tasks, preserving order, with per-task timing.

        With ``processes > 1`` the tasks are distributed across a process
        pool; each worker runs its task serially end-to-end (a nested
        :class:`ParallelBackend` pool is forced sequential because pool
        workers are daemonic).  Tasks must be picklable for the pool path,
        which every registry-key task is.  The pool comes from
        :func:`~repro.smt.parallel.pool_results`: when a worker dies, the
        pool is rebuilt once and the unfinished tasks run again; a second
        death raises :class:`RuntimeError`.

        ``schedule`` controls *execution* order — results always come back
        in input order.  ``"fifo"`` runs tasks as given; ``"reuse"`` orders
        the sweep by (family, family rank, task kind, weight window), so
        smaller family members run before larger ones and consecutive tasks
        maximally hit the shared contexts and the clause store.  The default
        is ``"reuse"`` whenever a clause store is attached (the reordering
        exists to feed it) and ``"fifo"`` otherwise, preserving historical
        behaviour for store-less engines.

        With a clause store attached, multi-task sweeps are additionally
        *checkpointed*, with or without a pool: each finished task's result
        is written once, alone, to the task's checkpoint row
        (:func:`_task_checkpoint_key`, the row its distance walk keeps its
        bracket in), and each task first looks for its own row.  A task
        whose sweep was killed or drained, in this call's shape or another,
        resumes from that row instead of re-running (resumed results carry
        ``details["sweep_resumed"] = True``).  A completed sweep deletes its
        tasks' rows.
        """
        batch = list(tasks)
        chosen = self.coerce(backend)
        store = self.resources.clause_store
        if schedule is None:
            schedule = "reuse" if store is not None else "fifo"
        order = list(range(len(batch)))
        if schedule == "reuse" and len(batch) > 1:
            order.sort(key=lambda index: _reuse_sort_key(batch[index]))
        results: list[Result | None] = [None] * len(batch)
        keys: list[str] = []
        if store is not None and len(batch) > 1:
            keys = [_task_checkpoint_key(task) for task in batch]
            results = [_restore_result(store.checkpoint_load(key)) for key in keys]
        remaining = [index for index in order if results[index] is None]
        if processes and processes > 1 and len(batch) > 1 and remaining:
            store_dir = store.directory if store is not None else None
            payloads = [(batch[index], _worker_backend(chosen), store_dir) for index in remaining]
            outcomes = pool_results(_run_payload, payloads, processes, ordered=True)
        else:
            outcomes = (self.run(batch[index], backend=chosen) for index in remaining)
        try:
            for index, result in zip(remaining, outcomes):
                results[index] = result
                if keys:
                    store.checkpoint_save(keys[index], {"version": 1, "result": result.to_dict()})
        finally:
            outcomes.close()  # tears a pool down, however the loop ended
        for key in keys:
            store.checkpoint_delete(key)
        return results  # type: ignore[return-value]


def _worker_backend(chosen: Backend) -> Backend:
    if isinstance(chosen, ParallelBackend):
        return replace(chosen, num_workers=1)
    return chosen


# Execution-order key for the reuse-aware sweep schedule: group by family
# (smaller family_rank first), then by code, so consecutive tasks reuse one
# code's context, then by task kind cheapest-first, then by how wide the
# weight window is.
_KIND_ORDER = {
    "precise-detection": 0,
    "accurate-correction": 1,
    "constrained-correction": 2,
    "fixed-error": 3,
    "find-distance": 4,
}


def _reuse_sort_key(task: Task) -> tuple:
    code = getattr(task, "code", None)
    if isinstance(code, str):
        entry = CODE_REGISTRY.get(code)
        family = family_of(code) or f"~{code}"
        rank = entry.family_rank if entry is not None else 0
        code_name = code
    else:
        code_name = getattr(code, "name", type(code).__name__ if code is not None else "")
        family = f"~{code_name}"
        rank = getattr(code, "num_qubits", 0)
    kind = _KIND_ORDER.get(getattr(task, "kind", ""), len(_KIND_ORDER))
    window = (
        getattr(task, "max_errors", None)
        or getattr(task, "trial_distance", None)
        or getattr(task, "max_trial", None)
        or 0
    )
    return (family, rank, code_name, kind, window)


def _run_payload(payload: tuple) -> Result:
    task, backend, store_dir = payload
    engine = Engine(backend=backend, clause_store=store_dir)
    try:
        return engine.run(task)
    finally:
        if store_dir is not None:
            # Pool workers are throwaway engines: without an explicit flush
            # their learnt clauses would die with the process instead of
            # landing in the shared store.
            engine.resources.save_warm()


def registry_sweep_tasks(keys: Sequence[str] | None = None) -> list[Task]:
    """One task per registry code, against its target property (Table 3).

    Correction-target codes get a :class:`CorrectionTask` at their default
    correctable weight; detection-target codes get a :class:`DetectionTask`
    at their recorded distance (or weight-2 detection when unknown).
    """
    selected = list(keys) if keys is not None else sorted(CODE_REGISTRY)
    tasks: list[Task] = []
    for key in selected:
        if key not in CODE_REGISTRY:
            raise KeyError(f"unknown code {key!r}; known codes: {sorted(CODE_REGISTRY)}")
        entry = CODE_REGISTRY[key]
        if entry.target == "correction":
            tasks.append(CorrectionTask(code=key))
        else:
            tasks.append(DetectionTask(code=key))
    return tasks
