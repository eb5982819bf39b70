"""The clause store wired into the engine: warm starts, resumable distance
walks and the reuse-aware sweep schedule.

The load-bearing property is the same one the warm cache pinned, extended
to durable state: nothing the store holds — fresh, stale, foreign or
actively corrupted — may ever change a verdict, a model or a reported
distance.  The store buys speed (fewer conflicts, fewer probes) and only
speed.
"""

import json
import sqlite3

import pytest

from repro.api import (
    CorrectionTask,
    DistanceTask,
    Engine,
    registry_sweep_tasks,
)
from repro.api.engine import _reuse_sort_key, _validate_checkpoint
from repro.api.events import DistanceProbe, JobCompleted, SolverStats, validate_stream
from repro.codes.registry import CODE_REGISTRY
from repro.store import ClauseStore
from repro.store.clause_store import _row_checksum


def _store_engine(directory):
    engine = Engine()
    engine.resources.enable_clause_store(str(directory))
    return engine


def _verdict(result):
    """The observable outcome of a task, excluding run-dependent counters."""
    details = result.details or {}
    return (result.subject, result.verified, details.get("distance"))


def _db_path(directory):
    return str(directory / "clauses.sqlite")


#: The family-index table and its index as earlier store versions created
#: them, next to the tables the current store shares with them.
OLD_NAMED_CLAUSES_SCHEMA = """
CREATE TABLE clauses (
    fingerprint TEXT    NOT NULL,
    clause      TEXT    NOT NULL,
    checksum    TEXT    NOT NULL,
    lbd         INTEGER NOT NULL,
    size        INTEGER NOT NULL,
    created     REAL    NOT NULL,
    last_used   REAL    NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (fingerprint, clause)
);
CREATE INDEX clauses_eviction ON clauses (lbd DESC, last_used ASC);
CREATE TABLE named_clauses (
    family      TEXT    NOT NULL,
    fingerprint TEXT    NOT NULL,
    clause      TEXT    NOT NULL,
    checksum    TEXT    NOT NULL,
    lbd         INTEGER NOT NULL,
    updated     REAL    NOT NULL,
    PRIMARY KEY (family, fingerprint, clause)
);
CREATE INDEX named_by_family ON named_clauses (family, lbd ASC);
CREATE TABLE checkpoints (
    key      TEXT PRIMARY KEY,
    payload  TEXT NOT NULL,
    checksum TEXT NOT NULL,
    updated  REAL NOT NULL
);
"""


class TestStoreWarmStart:
    def test_round_trip_skips_relearning(self, tmp_path):
        task = CorrectionTask(code="steane")
        cold_engine = _store_engine(tmp_path)
        cold = cold_engine.run(task)
        cold_engine.resources.save_warm()
        assert cold.conflicts > 0

        warm_engine = _store_engine(tmp_path)
        warm = warm_engine.run(task)
        assert warm.conflicts == 0
        assert warm.verified == cold.verified
        store = warm_engine.resources.clause_store
        assert store.hits == 1

    def test_sibling_entries_are_a_cold_start(self, tmp_path):
        # surface-5's fingerprint differs from surface-3's, so the donor's
        # rows are never offered to it: the run misses the store and
        # searches exactly as a store-less engine does.
        donor = _store_engine(tmp_path)
        donor.run(CorrectionTask(code="surface-3"))
        donor.resources.save_warm()
        assert ClauseStore(str(tmp_path)).clause_count() > 0

        task = CorrectionTask(code="surface-5")
        fresh = Engine().run(task)
        sibling = _store_engine(tmp_path)
        result = sibling.run(task)
        store = sibling.resources.clause_store
        assert result.verified is fresh.verified is True
        assert result.conflicts == fresh.conflicts
        assert store.hits == 0 and store.misses >= 1
        stats = sibling.resources.stats()
        assert stats["warm_absorbed"] == 0
        assert "store_probes" not in stats and "store_absorbed" not in stats

    def test_save_warm_writes_checksummed_exact_fingerprint_rows(self, tmp_path):
        engine = _store_engine(tmp_path)
        for code in ("steane", "surface-3"):
            engine.run(CorrectionTask(code=code))
        engine.resources.save_warm()
        with sqlite3.connect(_db_path(tmp_path)) as conn:
            tables = {
                row[0]
                for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
            }
            rows = conn.execute("SELECT fingerprint, clause, checksum FROM clauses").fetchall()
        assert tables == {"clauses", "checkpoints"}
        assert rows
        assert all(checksum == _row_checksum(fp, text) for fp, text, checksum in rows)
        # One fingerprint per verified code, nothing shared between them.
        assert len({fp for fp, _, _ in rows}) == 2

    def test_store_and_json_cache_layouts_coexist(self, tmp_path):
        # The store directory holds the sqlite database only, never
        # per-fingerprint JSON files.
        engine = _store_engine(tmp_path)
        engine.run(CorrectionTask(code="steane"))
        engine.resources.save_warm()
        assert (tmp_path / "clauses.sqlite").exists()
        assert not list(tmp_path.glob("*.json"))

    def test_store_with_old_named_clauses_table_still_warm_starts(self, tmp_path):
        # Stores written before the family index was removed carry a
        # populated ``named_clauses`` table.  Opening one must not error,
        # exact-fingerprint entries must still warm-start, and the old
        # table is left alone rather than dropped.
        with sqlite3.connect(_db_path(tmp_path)) as conn:
            conn.executescript(OLD_NAMED_CLAUSES_SCHEMA)
            text = json.dumps([["ex_0", True], ["ez_1", False]], separators=(",", ":"))
            for family in ("surface", "perfect"):
                conn.execute(
                    "INSERT INTO named_clauses VALUES (?, ?, ?, ?, ?, ?)",
                    (family, "old-fp", text, _row_checksum(family, "old-fp", text), 2, 0.0),
                )

        task = CorrectionTask(code="surface-3")
        cold_engine = _store_engine(tmp_path)
        cold = cold_engine.run(task)
        cold_engine.resources.save_warm()
        assert cold.conflicts > 0

        warm_engine = _store_engine(tmp_path)
        warm = warm_engine.run(task)
        assert warm.conflicts == 0
        assert warm.verified is cold.verified is True
        store = warm_engine.resources.clause_store
        assert store.hits == 1
        assert "storage_errors" not in store.stats()
        assert not (tmp_path / "clauses.sqlite.corrupt").exists()
        with sqlite3.connect(_db_path(tmp_path)) as conn:
            (named,) = conn.execute("SELECT COUNT(*) FROM named_clauses").fetchone()
        assert named == 2


class TestStoreNeverChangesVerdicts:
    """The registry-wide mutation property test: corrupt the store every
    way we can think of, then re-run the whole sweep and demand verdict
    equality with a cold engine."""

    def test_corrupted_store_sweep_equals_cold(self, tmp_path):
        tasks = registry_sweep_tasks()
        cold = [_verdict(result) for result in Engine().run_many(tasks)]

        populate = _store_engine(tmp_path)
        populate.run_many(tasks)
        populate.resources.save_warm()

        # Mutation 1: flip the leading literal of every stored clause
        # behind the checksums' back (bit-rot / torn writes).
        with sqlite3.connect(_db_path(tmp_path)) as conn:
            rows = conn.execute("SELECT fingerprint, clause FROM clauses").fetchall()
            assert rows, "populate pass stored nothing"
            half = rows[: max(1, len(rows) // 2)]
            for fingerprint, text in half:
                literals = json.loads(text)
                literals[0] = -literals[0]
                conn.execute(
                    "UPDATE clauses SET clause = ? WHERE fingerprint = ? AND clause = ?",
                    (json.dumps(literals, separators=(",", ":")), fingerprint, text),
                )
            # Mutation 2: re-key surviving rows under a foreign fingerprint
            # (a clause learnt against a different CNF must never load).
            (donor_fp,) = conn.execute(
                "SELECT fingerprint FROM clauses LIMIT 1"
            ).fetchone()
            conn.execute(
                "INSERT OR IGNORE INTO clauses "
                "SELECT 'foreign-fp', clause, checksum, lbd, size, created, last_used, hits "
                "FROM clauses WHERE fingerprint = ?",
                (donor_fp,),
            )

        poisoned = _store_engine(tmp_path)
        replay = [_verdict(result) for result in poisoned.run_many(tasks)]
        assert replay == cold


class TestDistanceResume:
    def _probe_count(self, result):
        return len(result.details["trials"])

    def _interrupted_store(self, tmp_path, task, cancel_after=2, attempts=8):
        """A store directory holding exactly one mid-walk checkpoint.

        Cancellation is cooperative, so a fast walk can finish (and delete
        its checkpoint) before the cancel lands; retry on a fresh store —
        cancelling ever earlier — until the checkpoint survives.
        """
        for attempt in range(attempts):
            directory = tmp_path / f"attempt-{attempt}"
            engine = _store_engine(directory)
            job = engine.submit(task)
            seen = 0
            cut = max(1, cancel_after - attempt)
            for event in job.events():
                if isinstance(event, DistanceProbe):
                    seen += 1
                    if seen == cut:
                        job.cancel()
            engine.close()
            with sqlite3.connect(_db_path(directory)) as conn:
                (rows,) = conn.execute(
                    "SELECT COUNT(*) FROM checkpoints"
                ).fetchone()
            if rows == 1:
                return directory
        pytest.fail("walk finished before any cancel landed")

    def test_cancelled_walk_resumes_with_fewer_probes(self, tmp_path):
        task = DistanceTask(code="surface-5")
        cold = Engine().run(task)
        cold_probes = self._probe_count(cold)
        assert cold_probes >= 3  # the walk must be long enough to interrupt

        directory = self._interrupted_store(tmp_path, task)

        resumed_engine = _store_engine(directory)
        resumed = resumed_engine.run(task)
        assert resumed.details["distance"] == cold.details["distance"]
        assert self._probe_count(resumed) < cold_probes
        assert resumed.details["resumed_from"]["probes"] >= 1
        assert resumed.details["resumed_from"]["lo"] >= 1

        # A finished walk deletes its checkpoint: the next run is cold.
        with sqlite3.connect(_db_path(directory)) as conn:
            (checkpoints,) = conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()
        assert checkpoints == 0
        again = resumed_engine.run(task)
        assert "resumed_from" not in (again.details or {})

    def test_resumed_stream_spells_out_the_resume(self, tmp_path):
        task = DistanceTask(code="surface-5")
        directory = self._interrupted_store(tmp_path, task, cancel_after=1)

        resumed_engine = _store_engine(directory)
        job = resumed_engine.submit(task)
        lines = [event.to_json() for event in job.events()]
        probes = [json.loads(line) for line in lines if '"DistanceProbe"' in line]
        completed = [json.loads(line) for line in lines if '"JobCompleted"' in line]
        assert probes and probes[0].get("resumed_from")
        assert all("resumed_from" not in probe for probe in probes[1:])
        assert completed and completed[0].get("resumed_from")
        count, _, errors = validate_stream(lines)
        assert count == len(lines) and not errors

    def test_tampered_checkpoint_runs_cold(self, tmp_path):
        task = DistanceTask(code="surface-3")
        reference = Engine().run(task)

        directory = self._interrupted_store(tmp_path, task, cancel_after=1)
        with sqlite3.connect(_db_path(directory)) as conn:
            conn.execute("UPDATE checkpoints SET payload = '{\"lo\": 999}'")

        resumed = _store_engine(directory).run(task)
        assert "resumed_from" not in (resumed.details or {})
        assert resumed.details["distance"] == reference.details["distance"]

    def test_out_of_bounds_checkpoint_is_rejected(self, tmp_path):
        task = DistanceTask(code="surface-3")
        reference = Engine().run(task)

        directory = self._interrupted_store(tmp_path, task, cancel_after=1)
        with sqlite3.connect(_db_path(directory)) as conn:
            (key,) = conn.execute("SELECT key FROM checkpoints").fetchone()
        # A checksum-valid payload whose bracket lies outside the walk's
        # bounds: _validate_checkpoint must throw it away wholesale.
        store = ClauseStore(str(directory))
        store.checkpoint_save(
            key,
            {
                "version": 1,
                "strategy": "galloping",
                "limit": 10**6,
                "lo": 999,
                "hi": 999,
                "distance": 999,
                "probes": 1,
                "galloping": True,
                "gallop_bound": 1,
            },
        )
        store.close()

        resumed = _store_engine(directory).run(task)
        assert "resumed_from" not in (resumed.details or {})
        assert resumed.details["distance"] == reference.details["distance"]

    def test_validate_checkpoint_rejects_malformed_payloads(self):
        good = {
            "version": 1,
            "limit": 9,
            "lo": 3,
            "hi": 7,
            "distance": 9,
            "probes": 2,
            "galloping": False,
            "gallop_bound": 1,
            "witness": None,
        }
        assert _validate_checkpoint(dict(good), 9) == good
        assert _validate_checkpoint(None, 9) is None
        assert _validate_checkpoint({**good, "version": 2}, 9) is None
        assert _validate_checkpoint({**good, "limit": 8}, 9) is None
        assert _validate_checkpoint({**good, "lo": 0}, 9) is None
        assert _validate_checkpoint({**good, "hi": 9}, 9) is None
        assert _validate_checkpoint({**good, "probes": True}, 9) is None
        assert _validate_checkpoint({**good, "witness": [1]}, 9) is None
        assert _validate_checkpoint({**good, "witness": {"e0": 1}}, 9) is None


class TestReuseSchedule:
    def test_results_come_back_in_input_order(self, tmp_path):
        keys = ["surface-5", "five-qubit", "hgp-hamming", "surface-3", "hgp-repetition"]
        keys = [key for key in keys if key in CODE_REGISTRY]
        tasks = [CorrectionTask(code=key) for key in keys]

        fifo = Engine().run_many(tasks, schedule="fifo")
        engine = _store_engine(tmp_path)
        reuse = engine.run_many(tasks)  # store attached => defaults to reuse
        assert [_verdict(r) for r in reuse] == [_verdict(r) for r in fifo]

    def test_store_less_engine_defaults_to_fifo(self):
        # The default execution order without a store is the input order —
        # pinned so attaching the scheduler never surprises old callers.
        engine = Engine()
        tasks = [CorrectionTask(code="surface-5"), CorrectionTask(code="surface-3")]
        results = engine.run_many(tasks)
        assert [result.subject for result in results] == ["surface-5x5", "surface-3x3"]

    def test_sort_key_groups_families_and_ranks(self):
        tasks = [
            DistanceTask(code="surface-5"),
            CorrectionTask(code="hgp-hamming"),
            CorrectionTask(code="surface-5"),
            CorrectionTask(code="surface-3"),
            CorrectionTask(code="hgp-repetition"),
        ]
        ordered = sorted(tasks, key=_reuse_sort_key)
        codes = [task.code for task in ordered]
        # Families group together; within one, smaller ranks run first,
        # and a code's cheap kinds precede its distance walk.
        assert codes.index("hgp-repetition") < codes.index("hgp-hamming")
        assert codes.index("surface-3") < codes.index("surface-5")
        surface5 = [index for index, task in enumerate(ordered) if task.code == "surface-5"]
        assert isinstance(ordered[surface5[0]], CorrectionTask)
        assert isinstance(ordered[surface5[1]], DistanceTask)

    def test_pool_workers_share_the_store(self, tmp_path):
        tasks = [CorrectionTask(code="steane"), CorrectionTask(code="five-qubit")]
        engine = _store_engine(tmp_path)
        first = engine.run_many(tasks, processes=2)
        assert all(result.verified for result in first)
        # The workers merged their learnt clauses into the shared sqlite
        # file; a later in-process engine warm-starts from them.
        warm = _store_engine(tmp_path).run(CorrectionTask(code="steane"))
        assert warm.conflicts == 0 and warm.verified


class TestEvictionCounters:
    def _steane_cnf(self):
        from repro.codes import steane_code
        from repro.smt.encoder import FormulaEncoder
        from repro.verifier.encodings import accurate_correction_formula

        encoder = FormulaEncoder()
        encoder.assert_formula(accurate_correction_formula(steane_code(), max_errors=2))
        return encoder.cnf

    def test_solver_result_reports_the_eviction_delta(self):
        from repro.smt.solver import SATSolver

        solver = SATSolver(self._steane_cnf(), max_learnt=5)
        first = solver.solve().counters["learnt_evicted"]
        assert first > 0
        assert first == solver.learnt_deleted
        # A second call reports only its own delta, not the lifetime total.
        second = solver.solve().counters["learnt_evicted"]
        assert second == solver.learnt_deleted - first

    def test_session_stats_surface_the_counter(self):
        from repro.codes import steane_code
        from repro.smt.interface import SolveSession
        from repro.verifier.encodings import accurate_correction_formula

        session = SolveSession(accurate_correction_formula(steane_code(), max_errors=2))
        check = session.check()
        assert "learnt_evicted" not in session.stats()  # zero is omitted
        session._solver.max_learnt = 5
        session._solver._reduce_learnt()
        assert session.stats()["learnt_evicted"] > 0
        assert check.counters["learnt_evicted"] == 0


class TestEventFields:
    def test_solver_stats_optional_fields_omit_zero(self):
        base = dict(job_id="job-1", conflicts=1, decisions=1, propagations=1,
                    num_variables=9, num_clauses=9)
        quiet = SolverStats(**base).to_dict()
        assert "binary_subsumed" not in quiet and "learnt_evicted" not in quiet
        loud = SolverStats(**base, binary_subsumed=3, learnt_evicted=7).to_dict()
        assert loud["binary_subsumed"] == 3 and loud["learnt_evicted"] == 7

    def test_resumed_from_omitted_when_none(self):
        base = dict(job_id="job-1", bound=3, window=(1, 7), sat=False,
                    conflicts=1, decisions=1, elapsed_seconds=0.1)
        assert "resumed_from" not in DistanceProbe(**base).to_dict()
        resumed = DistanceProbe(**base, resumed_from={"lo": 3, "hi": 7, "probes": 2})
        assert resumed.to_dict()["resumed_from"] == {"lo": 3, "hi": 7, "probes": 2}

    def test_job_completed_round_trips_resumed_from(self):
        completed = JobCompleted(job_id="job-1", verified=True, elapsed_seconds=0.1,
                                 resumed_from={"lo": 3, "hi": 7, "probes": 2})
        payload = completed.to_dict()
        assert payload["resumed_from"]["probes"] == 2
        bare = JobCompleted(job_id="job-1", verified=True, elapsed_seconds=0.1)
        assert "resumed_from" not in bare.to_dict()
