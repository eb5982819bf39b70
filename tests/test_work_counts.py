"""Exact solver work counts on three fixed workloads.

Conflicts, decisions and propagations are a deterministic function of the
clause database and the search heuristics, so a change that claims not to
alter a search step (a refactor of heap upkeep, clause attachment or
database compaction) must leave these numbers exactly as they are.  Each
workload exercises a different part of the solver's life cycle:

* a cold registry sweep: construction, root propagation and search on
  every registry code, plus the incremental distance walks;
* guard churn on one shared context: guard retirement and the batched
  ``erase_satisfied`` sweeps;
* an in-process split of surface-5 correction: many consecutive
  assumption solves on one session, including a learnt-clause reduction.

CI also runs this file under a second ``PYTHONHASHSEED`` so the counts are
checked, not assumed, to be independent of hash order.  When a change is
*meant* to alter the search, re-measure and update the numbers in the same
change, saying why.
"""

from repro.api import (
    ConstrainedTask,
    CorrectionTask,
    DistanceTask,
    Engine,
    registry_sweep_tasks,
)
from repro.api.backends import ParallelBackend
from repro.codes import CODE_REGISTRY


def search_counts(results) -> tuple[int, int, int]:
    return (
        sum(result.conflicts for result in results),
        sum(result.decisions for result in results),
        sum(result.propagations for result in results),
    )


def test_cold_registry_sweep():
    engine = Engine()
    try:
        tasks = registry_sweep_tasks() + [DistanceTask(code=key) for key in sorted(CODE_REGISTRY)]
        results = [engine.run(task) for task in tasks]
    finally:
        engine.close()
    assert search_counts(results) == (3067, 5348, 299324)


def test_guard_churn_on_one_context():
    engine = Engine()
    try:
        engine.resources.context_for("steane").max_task_guards = 4
        results = [
            engine.run(
                ConstrainedTask(code="steane", locality=True, seed=seed, max_errors=1 + seed % 2)
            )
            for seed in range(40)
        ]
        stats = engine.resources.stats()
    finally:
        engine.close()
    assert search_counts(results) == (130, 314, 10195)
    assert (stats["retired_guards"], stats["guard_sweeps"], stats["erased_clauses"]) == (36, 18, 738)


def test_in_process_split_with_a_reduction():
    engine = Engine()
    try:
        result = engine.run(CorrectionTask(code="surface-5"), backend=ParallelBackend(num_workers=1))
        solver = engine.resources.context_for("surface-5").session._solver
        num_solves = solver.num_solves
    finally:
        engine.close()
    assert result.verified
    assert result.conflicts == 1328
    assert result.details["num_subtasks"] == num_solves == 167
    session = result.details["session"]
    assert session["reductions"] == 1
    assert session["learnt_evicted"] == 480
