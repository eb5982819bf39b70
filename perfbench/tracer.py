"""Span tracing for the benchmark, installed at run time from outside ``src/``.

``Tracer.install()`` replaces the public function of each layer with a
wrapper that records a span (layer, start, end, self time) on a per-thread
stack.  A span's self time is its duration minus the part covered by its
child spans.  Spans stay in memory; ``take`` hands them to the caller and
``dump`` writes them out once the run ends.  ``layer_totals`` and
``task_rows`` fold them into per-layer and per-task figures.

Layers and the functions that open them:

* ``codes``        ``build_code`` (every module binding of it)
* ``compile``      ``accurate_correction_formula``, ``precise_detection_formula``,
                   ``precise_detection_base`` (every module binding)
* ``encode``       ``FormulaEncoder.assert_formula``/``_if``/``assert_le_if``/``assert_ge_if``
* ``absorb``       ``ResourceManager.absorb_from_family``/``absorb_from_store``
* ``absorb.probe`` ``SolveSession.check`` while an ``absorb`` span is open
* ``solve``        ``SolveSession.check`` everywhere else
* ``store.read``   ``ClauseStore.load``/``family_candidates``/``checkpoint_load``
* ``store.write``  ``ClauseStore.store_meta``/``checkpoint_save``/``checkpoint_delete``
* ``warm``         ``CodeContext.maybe_warm_load``/``save_warm`` (fingerprinting,
                   learnt-clause projection and re-attachment around the store calls)
* ``emit``         ``Job.emit``
* ``service.handle``/``service.admit``  ``Router.handle``, ``AdmissionController.admit``

Root spans group the layers by unit of work: ``Engine.run`` (one sweep
task) and ``ShardedJobExecutor._run_job`` (one service job, which also
yields the job's queue wait: lane start minus ``Job.submitted_at``).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import threading
import time

ROOT = "root"
# Solver counters a check span records (deltas of SolveSession.stats()).
_SOLVE_COUNTERS = ("conflicts", "decisions", "propagations")


class Tracer:
    """Per-thread span stacks over wrapped layer functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        #: finished spans: (layer, start, end, self_s, root_id, counts)
        self.spans: list[tuple] = []
        #: root descriptors, indexed by root_id
        self.roots: list[dict] = []

    # ------------------------------------------------------------------
    # Span stack
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _root_id(self) -> int | None:
        return getattr(self._local, "root", None)

    def _open(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _close(self, frame: list, counts: dict | None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        record = (frame[0], frame[1], end, duration - frame[2], self._root_id(), counts)
        with self._lock:
            self.spans.append(record)

    def _inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack())

    def take(self) -> tuple[list, list]:
        """Hand over every span and root recorded so far and start afresh."""
        with self._lock:
            spans, self.spans = self.spans, []
            roots, self.roots = self.roots, []
        return spans, roots

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _span(self, layer: str, func, measure=None):
        """A wrapper opening a ``layer`` span around ``func``; ``measure``
        (optional) maps (args, before-state, result) to the span's counts."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = self._open(layer)
            before = measure(args, None, None) if measure else None
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._close(frame, None)
                raise
            self._close(frame, measure(args, before, result) if measure else None)
            return result

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Point every ``repro`` module global bound to ``original`` at
        ``wrapper`` (covers ``from x import f`` copies such as the names
        ``repro.api.engine`` imports)."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        # Import the whole stack first so _rebind sees every binding.
        import repro.api.cli  # noqa: F401
        import repro.service  # noqa: F401
        from repro.api.engine import Engine
        from repro.api.jobs import Job, ShardedJobExecutor
        from repro.api.resources import CodeContext, ResourceManager
        from repro.codes import registry
        from repro.service.admission import AdmissionController
        from repro.service.routes import Router
        from repro.smt.encoder import FormulaEncoder
        from repro.smt.interface import SolveSession
        from repro.store import ClauseStore
        from repro.verifier import encodings

        self._rebind(registry.build_code, self._span("codes", registry.build_code))
        for name in (
            "accurate_correction_formula", "precise_detection_formula", "precise_detection_base",
        ):
            original = getattr(encodings, name)
            self._rebind(original, self._span("compile", original))

        def cnf_growth(args, before, _result):
            cnf = args[0].cnf
            now = (cnf.num_clauses, cnf.num_vars)
            if before is None:
                return now
            if self._outer_encode():
                return {"clauses": now[0] - before[0], "vars": now[1] - before[1]}
            return None

        for name in ("assert_formula", "assert_formula_if", "assert_le_if", "assert_ge_if"):
            self._patch(FormulaEncoder, name,
                        self._span("encode", FormulaEncoder.__dict__[name], cnf_growth))

        def absorbed(_args, before, result):
            return {"absorbed": result} if before is not None else {}

        for name in ("absorb_from_family", "absorb_from_store"):
            self._patch(ResourceManager, name,
                        self._span("absorb", ResourceManager.__dict__[name], absorbed))

        self._patch(SolveSession, "check", self._check_wrapper(SolveSession.__dict__["check"]))

        for name in ("load", "family_candidates", "checkpoint_load"):
            self._patch(ClauseStore, name, self._span("store.read", ClauseStore.__dict__[name]))
        for name in ("store_meta", "checkpoint_save", "checkpoint_delete"):
            self._patch(ClauseStore, name, self._span("store.write", ClauseStore.__dict__[name]))

        for name in ("maybe_warm_load", "save_warm"):
            self._patch(CodeContext, name, self._span("warm", CodeContext.__dict__[name]))

        self._patch(Job, "emit", self._span("emit", Job.__dict__["emit"]))
        self._patch(AdmissionController, "admit",
                    self._span("service.admit", AdmissionController.__dict__["admit"]))
        self._patch(Router, "handle", self._async_span("service.handle", Router.__dict__["handle"]))

        self._patch(Engine, "run", self._task_root(Engine.__dict__["run"]))
        self._patch(ShardedJobExecutor, "_run_job",
                    self._job_root(ShardedJobExecutor.__dict__["_run_job"]))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _outer_encode(self) -> bool:
        # Called while the closing encode frame is still on the stack.
        return sum(1 for frame in self._stack() if frame[0] == "encode") == 1

    def _check_wrapper(self, func):
        @functools.wraps(func)
        def wrapper(session, *args, **kwargs):
            layer = "absorb.probe" if self._inside("absorb") else "solve"
            frame = self._open(layer)
            before = session.stats()
            try:
                return func(session, *args, **kwargs)
            finally:
                after = session.stats()
                self._close(frame, {key: after[key] - before[key] for key in _SOLVE_COUNTERS})

        return wrapper

    def _async_span(self, layer: str, func):
        if not inspect.iscoroutinefunction(func):
            raise TypeError(f"{func!r} is not a coroutine function")

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            # Router.handle never awaits, so the frame cannot interleave with
            # another coroutine's frames on the loop thread.
            frame = self._open(layer)
            try:
                return await func(*args, **kwargs)
            finally:
                self._close(frame, None)

        return wrapper

    def _begin_root(self, descriptor: dict):
        if self._root_id() is not None:
            return None
        with self._lock:
            self.roots.append(descriptor)
            root_id = len(self.roots) - 1
        self._local.root = root_id
        return self._open(ROOT)

    def _end_root(self, frame) -> None:
        if frame is None:
            return
        try:
            self._close(frame, None)
        finally:
            self._local.root = None

    def _task_root(self, func):
        @functools.wraps(func)
        def wrapper(engine, task, *args, **kwargs):
            frame = self._begin_root(_describe(task))
            try:
                return func(engine, task, *args, **kwargs)
            finally:
                self._end_root(frame)

        return wrapper

    def _job_root(self, func):
        @functools.wraps(func)
        def wrapper(executor, job, *args, **kwargs):
            descriptor = _describe(job.task)
            descriptor["queue_wait_s"] = max(0.0, time.monotonic() - job.submitted_at)
            frame = self._begin_root(descriptor)
            try:
                return func(executor, job, *args, **kwargs)
            finally:
                self._end_root(frame)

        return wrapper

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        spans, roots = self.take()
        with open(path, "w") as handle:
            json.dump({"spans": spans, "roots": roots}, handle)


def _describe(task) -> dict:
    code = getattr(task, "code", None)
    subject = code if isinstance(code, str) else getattr(code, "name", "")
    return {"kind": getattr(type(task), "kind", type(task).__name__), "subject": subject}


def load(path: str) -> tuple[list, list]:
    with open(path) as handle:
        payload = json.load(handle)
    return payload["spans"], payload["roots"]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def layer_totals(spans) -> dict:
    """Self seconds, span count and summed counters per layer."""
    totals: dict[str, dict] = {}
    for layer, _start, _end, self_s, _root, counts in spans:
        row = totals.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += self_s
        row["calls"] += 1
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    return totals


def layer_metrics(spans, per: float, wall: float) -> dict:
    """The span-derived per-layer metrics: each total divided by ``per``
    (the passes it covers), plus the share of ``wall`` the layers cover."""
    totals = layer_totals(spans)

    def get(layer: str, key: str = "self_s") -> float:
        return totals.get(layer, {}).get(key, 0) / per

    probes = get("absorb.probe", "calls")
    solve_s = get("solve")
    covered = sum(row["self_s"] for layer, row in totals.items() if layer != ROOT)
    return {
        "codes.build_s": get("codes"),
        "codes.builds": get("codes", "calls"),
        "compile.self_s": get("compile"),
        "compile.calls": get("compile", "calls"),
        "encode.self_s": get("encode"),
        "encode.clauses": get("encode", "clauses"),
        "encode.vars": get("encode", "vars"),
        "absorb.self_s": get("absorb"),
        "absorb.probe_s": get("absorb.probe"),
        "absorb.probes": probes,
        "absorb.probe_conflicts": get("absorb.probe", "conflicts"),
        "absorb.absorbed": get("absorb", "absorbed"),
        "absorb.useful_ratio": get("absorb", "absorbed") / probes if probes else 0.0,
        "solve.self_s": solve_s,
        "solve.checks": get("solve", "calls"),
        "solve.conflicts": get("solve", "conflicts"),
        "solve.decisions": get("solve", "decisions"),
        "solve.propagations": get("solve", "propagations"),
        "solve.propagations_per_s": get("solve", "propagations") / solve_s if solve_s else 0.0,
        "store.read_s": get("store.read"),
        "store.reads": get("store.read", "calls"),
        "store.write_s": get("store.write"),
        "store.writes": get("store.write", "calls"),
        "warm.self_s": get("warm"),
        "emit.self_s": get("emit"),
        "emit.events": get("emit", "calls"),
        "trace.coverage": covered / wall,
    }


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_durations(spans, layer: str) -> list[float]:
    return [end - start for name, start, end, _self, _root, _counts in spans if name == layer]


def task_rows(spans, roots) -> dict:
    """Per (task kind, code): wall seconds and each layer's self seconds."""
    rows: dict[tuple, dict] = {}
    for layer, start, end, self_s, root_id, _counts in spans:
        if root_id is None:
            continue
        root = roots[root_id]
        row = rows.setdefault((root["kind"], root["subject"]), {"wall": 0.0})
        if layer == ROOT:
            row["wall"] += end - start
            row["other"] = row.get("other", 0.0) + self_s
        else:
            row[layer] = row.get(layer, 0.0) + self_s
    return rows


def format_task_rows(rows: dict, passes: int, title: str) -> str:
    columns = ("codes", "compile", "encode", "absorb", "absorb.probe", "solve",
               "store.read", "store.write", "warm", "emit", "other")
    header = f"{'task':<40}{'wall':>9}" + "".join(f"{name:>13}" for name in columns)
    lines = [f"# {title}: ms per pass, self time per layer", header]
    order = sorted(rows.items(), key=lambda item: -item[1]["wall"])
    for (kind, subject), row in order:
        cells = "".join(f"{1e3 * row.get(name, 0.0) / passes:>13.2f}" for name in columns)
        lines.append(f"{kind + ' ' + subject:<40}{1e3 * row['wall'] / passes:>9.2f}{cells}")
    return "\n".join(lines)


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``; 0 if empty."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_mean(values, share: float = 0.05) -> float:
    """The mean of the slowest ``share`` of ``values`` (at least one)."""
    values = sorted(values)
    return statistics.fmean(values[-max(1, round(share * len(values))):])
