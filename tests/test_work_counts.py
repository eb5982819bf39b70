"""Exact solver work counts on five fixed workloads.

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
  assumption solves on one session, including a learnt-clause reduction;
* a pooled split of surface-5 Y correction on two workers: fixed stripes
  of subtasks, each on a session of its own;
* a warm sweep over a clause store a cold sweep filled: absorption of the
  stored clauses, the warm searches and the sweep's checkpoint rows.

CI also runs this file under a second ``PYTHONHASHSEED`` so the counts are
checked, not assumed, to be independent of hash order.  When a change is
*meant* to alter the search, re-measure and update the numbers in the same
change, saying why.
"""

import os
import sqlite3

from repro.api import (
    ConstrainedTask,
    CorrectionTask,
    DistanceTask,
    Engine,
    registry_sweep_tasks,
)
from repro.api.backends import ParallelBackend
from repro.api.engine import _task_checkpoint_key
from repro.codes import CODE_REGISTRY
from repro.store import STORE_FILENAME, ClauseStore


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


def test_pooled_split_repeats_its_counts():
    """Each of the two workers' stripes runs on a session of its own, so
    the split's counts do not depend on which worker took which stripe."""
    counts = []
    for _ in range(3):
        engine = Engine(backend=ParallelBackend(num_workers=2))
        try:
            result = engine.run(CorrectionTask(code="surface-5", error_model="Y"))
        finally:
            engine.close()
        assert result.verified
        assert result.details["num_workers"] == 2
        counts.append(search_counts([result]))
    assert counts == [(252, 176, 52276)] * 3


def test_warm_store_sweep(tmp_path, monkeypatch):
    codes = ("steane", "five-qubit", "surface-3", "hgp-hamming")
    tasks = registry_sweep_tasks(codes) + [DistanceTask(code=key) for key in codes]
    engine = Engine(clause_store=str(tmp_path))
    try:
        engine.run_many(tasks)
    finally:
        engine.close()

    result_rows = []
    original_save = ClauseStore.checkpoint_save

    def record(store, key, payload):
        if "result" in payload:
            result_rows.append(key)
        return original_save(store, key, payload)

    monkeypatch.setattr(ClauseStore, "checkpoint_save", record)
    engine = Engine(clause_store=str(tmp_path))
    try:
        results = engine.run_many(tasks)
        stats = engine.resources.stats()
    finally:
        engine.close()
    with sqlite3.connect(os.path.join(str(tmp_path), STORE_FILENAME)) as conn:
        (rows,) = conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()
    assert all(result.verified for result in results)
    assert search_counts(results) == (98, 351, 8605)
    assert stats["warm_absorbed"] == 462
    assert sorted(result_rows) == sorted(_task_checkpoint_key(task) for task in tasks)
    assert rows == 0
