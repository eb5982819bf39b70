"""The counters mapping from ``SATSolver.solve`` to the ``SolverStats`` event.

Every layer between the solver and the wire merges one ``Counter`` instead
of naming fields, so the event must report exactly the solver work its job
did: the sum of the deltas every ``solve`` call returned, on the serial
path, on the sequential split-session path and on a worker pool.
"""

from collections import Counter
from dataclasses import fields

import pytest

from repro.api import CorrectionTask, DistanceTask, Engine
from repro.api.backends import ParallelBackend, SerialBackend
from repro.api.events import SolverStats
from repro.codes import steane_code
from repro.smt import parallel
from repro.smt.interface import SolveSession
from repro.smt.parallel import split_check
from repro.smt.solver import SEARCH_COUNTERS, SATSolver
from repro.verifier.encodings import accurate_correction_formula

#: SolverStats fields that are not solver counters.
NOT_SOLVER = {"job_id", "seq", "num_variables", "num_clauses", "lane"}
SOLVER_FIELDS = {f.name for f in fields(SolverStats)} - NOT_SOLVER


def event_counters(job) -> dict:
    """The solver counters of the job's one ``SolverStats`` event, as sent."""
    [event] = [e for e in job.events() if isinstance(e, SolverStats)]
    return {key: value for key, value in event.to_dict().items() if key in SOLVER_FIELDS}


def reported(summed: Counter) -> dict:
    """What the wire should carry for ``summed``: the search counters
    always, every other counter only when nonzero."""
    report = {key: summed[key] for key in SEARCH_COUNTERS}
    report.update((key, value) for key, value in summed.items() if value)
    return report


@pytest.mark.parametrize(
    "backend",
    [SerialBackend(), ParallelBackend(num_workers=1)],
    ids=["serial", "split-sequential"],
)
def test_solver_stats_event_equals_the_summed_solve_deltas(backend, monkeypatch):
    summed: Counter = Counter()
    original = SATSolver.solve

    def counting_solve(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        summed.update(result.counters)
        return result

    monkeypatch.setattr(SATSolver, "solve", counting_solve)
    engine = Engine()
    try:
        for task in (CorrectionTask(code="steane"), DistanceTask(code="steane")):
            summed.clear()
            counters = event_counters(engine.submit(task, backend=backend))
            assert summed["propagations"] > 0
            assert counters == reported(summed), task
    finally:
        engine.close()


def test_pool_solver_stats_carry_every_worker_counter(monkeypatch):
    chunks = []
    original = parallel.pool_results

    def recording(*args, **kwargs):
        # Every chunk result the split consumes, as it reaches the parent.
        results = original(*args, **kwargs)
        try:
            for item in results:
                chunks.append(item)
                yield item
        finally:
            results.close()

    monkeypatch.setattr(parallel, "pool_results", recording)
    engine = Engine()
    try:
        job = engine.submit(CorrectionTask(code="steane"), backend=ParallelBackend(num_workers=2))
        counters = event_counters(job)
    finally:
        engine.close()
    summed: Counter = Counter()
    for _status, _model, stats in chunks:
        summed.update(stats["counters"])
    assert len(chunks) > 1 and summed["propagations"] > 0
    assert counters == reported(summed)


class TestSplitSessionClauseDatabaseCounters:
    """A one-shot in-process split on a shared session carries eviction and
    erasure like every other counter (they used to stop at the session
    below it)."""

    def test_sequential_split_reports_eviction(self):
        formula = accurate_correction_formula(steane_code(), max_errors=2)
        session = SolveSession(formula)
        split_check(formula, [{}], session=session)
        session._solver.max_learnt = 5  # the next solve must reduce
        check = split_check(formula, [{}], session=session)
        evicted = check.counters["learnt_evicted"]
        assert evicted > 0
        assert check.metadata["session"]["learnt_evicted"] == evicted

    def test_sequential_split_reports_erased_clauses(self):
        code = steane_code()
        formula = accurate_correction_formula(code, max_errors=2)
        session = SolveSession(formula)
        session.add_guard("stale", accurate_correction_formula(code, max_errors=1))
        session.check(select=("stale",))
        erased = session.retire_guards(["stale"])
        assert erased >= 1
        check = split_check(formula, [{}], session=session)
        assert check.metadata["session"]["erased_clauses"] == erased
