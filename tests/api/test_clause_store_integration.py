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

from repro import faults
from repro.api import (
    CorrectionTask,
    DistanceTask,
    Engine,
    ParallelBackend,
    registry_sweep_tasks,
)
from repro.api.engine import _reuse_sort_key, _validate_checkpoint
from repro.api.events import DistanceProbe, JobCompleted, SolverStats, validate_stream
from repro.api.jobs import JobStatus
from repro.api.resources import CodeContext
from repro.codes.registry import CODE_REGISTRY
from repro.store import ClauseStore
from repro.store.clause_store import _row_checksum
from repro.verifier.encodings import ErrorModel


def _store_engine(directory):
    return Engine(clause_store=str(directory))


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

    def test_store_directory_holds_only_the_sqlite_database(self, tmp_path):
        # No per-fingerprint JSON files next to ``clauses.sqlite``.
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
        cold_results = Engine().run_many(tasks)
        cold = [_verdict(result) for result in cold_results]

        populate = _store_engine(tmp_path)
        populate.run_many(tasks)
        populate.resources.save_warm()

        # The clean store first: a fresh engine over it reaches the cold
        # verdicts with strictly less search.
        warm_results = _store_engine(tmp_path).run_many(tasks)
        assert [_verdict(result) for result in warm_results] == cold
        assert sum(r.conflicts for r in warm_results) < sum(r.conflicts for r in cold_results)

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

    def _interrupted_store(self, tmp_path, task, cancel_after=2, attempts=8, backend=None):
        """A store directory holding exactly one mid-walk checkpoint.

        Cancellation is cooperative, so a fast walk can finish (and delete
        its checkpoint) before the cancel lands; retry on a fresh store —
        cancelling ever earlier — until the checkpoint survives.
        """
        for attempt in range(attempts):
            directory = tmp_path / f"attempt-{attempt}"
            engine = _store_engine(directory)
            job = engine.submit(task, backend=backend)
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

    def test_parallel_walk_checkpoints_and_resumes_like_serial(self, tmp_path):
        task = DistanceTask(code="surface-5")
        backend = ParallelBackend(num_workers=2)
        cold = Engine().run(task)
        directory = self._interrupted_store(tmp_path, task, backend=backend)

        resumed_engine = _store_engine(directory)
        resumed = resumed_engine.run(task, backend=backend)
        assert resumed.backend == "parallel"
        assert resumed.details["distance"] == cold.details["distance"]
        assert self._probe_count(resumed) < self._probe_count(cold)
        assert resumed.details["resumed_from"]["probes"] >= 1
        with sqlite3.connect(_db_path(directory)) as conn:
            (checkpoints,) = conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()
        assert checkpoints == 0

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
            {"version": 1, "limit": 10**6, "lo": 999, "hi": 999, "distance": 999, "probes": 1},
        )
        store.close()

        resumed = _store_engine(directory).run(task)
        assert "resumed_from" not in (resumed.details or {})
        assert resumed.details["distance"] == reference.details["distance"]

    def test_validate_checkpoint_rejects_malformed_payloads(self):
        model = ErrorModel("any")

        def validate(state):
            return _validate_checkpoint(state, 9, model)

        good = {"version": 1, "limit": 9, "lo": 3, "hi": 8, "distance": 9, "probes": 2}
        assert validate(dict(good)) == good
        assert validate(None) is None
        assert validate({**good, "version": 2}) is None
        assert validate({**good, "limit": 8}) is None
        assert validate({**good, "lo": 0}) is None
        assert validate({**good, "hi": 9}) is None
        assert validate({**good, "probes": True}) is None
        assert validate({**good, "probes": 0}) is None
        # No witness below the limit, or one at the limit: the walk never
        # writes either.
        assert validate({**good, "witness": {"ex_0": True}}) is None
        bracketed = {**good, "lo": 3, "hi": 3, "distance": 4,
                     "witness": {"ex_0": True, "ez_1": True, "ex_5": True, "ez_5": True,
                                 "ex_7": True}}
        assert validate(dict(bracketed)) == bracketed
        assert validate({**bracketed, "witness": None}) is None
        assert validate({**bracketed, "witness": [1]}) is None
        assert validate({**bracketed, "witness": {"e0": 1}}) is None
        assert validate({**bracketed, "witness": {"ex_x": True}}) is None
        # The witness must weigh exactly the recorded distance.
        assert validate({**bracketed, "witness": {"ex_0": True}}) is None
        # ``hi`` sits just below the distance and ``lo`` does not pass it.
        assert validate({**bracketed, "hi": 2}) is None
        assert validate({**bracketed, "lo": 5}) is None
        # Keys of payloads written before the schedule lost its strategy
        # are ignored.
        legacy = {**good, "strategy": "binary-search", "galloping": False, "gallop_bound": 1}
        assert validate(dict(legacy)) == legacy

    def test_empty_bracket_without_witness_runs_cold(self, tmp_path):
        """A checksum-valid payload claiming distance 1 with the window
        already closed and no witness: it would end the walk before its
        first probe with a distance nothing showed, so it must be ignored."""
        task = DistanceTask(code="surface-3")
        code = task.build()
        limit = code.num_qubits + 1
        key = Engine._distance_checkpoint_key(task, code, limit, "any")
        store = ClauseStore(str(tmp_path))
        store.checkpoint_save(
            key,
            {"version": 1, "limit": limit, "lo": 1, "hi": 0, "distance": 1, "probes": 1,
             "strategy": "galloping", "galloping": False, "gallop_bound": 1},
        )
        store.close()

        resumed = _store_engine(tmp_path).run(task)
        assert "resumed_from" not in resumed.details
        assert resumed.details["distance"] == 3
        assert resumed.details["witness"]

    @pytest.mark.parametrize("key", ["surface-5", "hgp-hamming"])
    def test_resume_continues_the_cold_walk(self, tmp_path, monkeypatch, key):
        """The schedule's state is its bracket: a walk resumed from the
        bracket written after probe ``j`` probes the bound the uninterrupted
        walk probed next, and keeps probing the cold walk's bounds for as
        long as its window is the cold walk's.  Only a satisfiable probe can
        part the two: the fresh session may find a lighter witness than the
        cold one did, which closes the window sooner."""
        task = DistanceTask(code=key)
        brackets = []
        original_save = ClauseStore.checkpoint_save

        def record(store, checkpoint_key, payload):
            brackets.append((checkpoint_key, dict(payload)))
            return original_save(store, checkpoint_key, payload)

        monkeypatch.setattr(ClauseStore, "checkpoint_save", record)
        engine = _store_engine(tmp_path / "cold")
        cold = engine.run(task)
        engine.close()
        monkeypatch.setattr(ClauseStore, "checkpoint_save", original_save)
        cold_trials = cold.details["trials"]
        assert len(brackets) == len(cold_trials) >= 3

        for cut, (checkpoint_key, payload) in enumerate(brackets, start=1):
            if cut % 2 == 0:
                # A payload as walks with a strategy field wrote it resumes alike.
                payload = {**payload, "strategy": "galloping", "galloping": False,
                           "gallop_bound": 2 ** cut}
            directory = tmp_path / f"cut-{cut}"
            store = ClauseStore(str(directory))
            store.checkpoint_save(checkpoint_key, payload)
            store.close()
            resumed = _store_engine(directory).run(task)
            assert resumed.details["resumed_from"]["probes"] == cut
            assert resumed.details["distance"] == cold.details["distance"], cut
            assert resumed.details["witness"]
            trials = resumed.details["trials"]
            rest = cold_trials[cut:]
            if not rest:
                # The bracket of the last probe: nothing is left to probe.
                assert trials == [], cut
                continue
            assert trials and trials[0]["window"] == [payload["lo"], payload["hi"]], cut
            shared = 0
            while (shared < min(len(trials), len(rest))
                   and trials[shared]["window"] == rest[shared]["window"]):
                assert trials[shared]["bound"] == rest[shared]["bound"], (cut, shared)
                shared += 1
            assert shared >= 1, cut
            if shared < max(len(trials), len(rest)):
                # The walks part only after a probe both found satisfiable.
                assert not trials[shared - 1]["verified"], (cut, shared)
                assert not rest[shared - 1]["verified"], (cut, shared)


class TestWalkWriteSchedule:
    """A walk checkpoints its bracket after every probe and flushes its
    learnt clauses once: at the end, or when it is interrupted."""

    def test_completed_walk_flushes_once_and_checkpoints_every_probe(
        self, tmp_path, monkeypatch
    ):
        calls = []
        original_save_warm = CodeContext.save_warm
        original_checkpoint_save = ClauseStore.checkpoint_save

        def save_warm(context):
            calls.append("save_warm")
            return original_save_warm(context)

        def checkpoint_save(store, key, payload):
            calls.append("checkpoint")
            return original_checkpoint_save(store, key, payload)

        monkeypatch.setattr(CodeContext, "save_warm", save_warm)
        monkeypatch.setattr(ClauseStore, "checkpoint_save", checkpoint_save)
        engine = _store_engine(tmp_path)
        result = engine.run(DistanceTask(code="surface-5"))
        probes = len(result.details["trials"])
        assert probes >= 3
        assert calls == ["checkpoint"] * probes + ["save_warm"]
        engine.close()

    def test_cancelled_walk_leaves_its_bracket_and_clauses_before_close(self, tmp_path):
        engine = _store_engine(tmp_path)
        task = DistanceTask(code="surface-5")
        probes = []

        def cancel_after_second_probe(event):
            if isinstance(event, DistanceProbe):
                probes.append(event)
                if len(probes) == 2:
                    job.cancel()

        # Hold the code so the job starts only once the callback is
        # subscribed; the callback runs on the worker, so the cancel lands
        # before the walk's next probe.
        engine.resources.claim(task.code)
        try:
            job = engine.submit(task)
            job.subscribe(cancel_after_second_probe)
        finally:
            engine.resources.release(task.code)
        assert job.wait(120)
        assert job.status is JobStatus.CANCELLED
        assert len(probes) == 2
        fingerprint = engine.resources.context_for(task.code).warm.fingerprint
        with sqlite3.connect(_db_path(tmp_path)) as conn:
            (checkpoints,) = conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()
            (clauses,) = conn.execute(
                "SELECT COUNT(*) FROM clauses WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        assert checkpoints == 1
        assert clauses > 0
        engine.close()


class TestDeltaSaves:
    """``save_warm`` writes only the clauses its context has not written
    yet, and the store ends up holding exactly what full saves write."""

    TASKS = (
        CorrectionTask(code="steane"),
        DistanceTask(code="steane"),
        CorrectionTask(code="surface-3"),
        DistanceTask(code="surface-3"),
    )

    @staticmethod
    def _rows(directory):
        with sqlite3.connect(_db_path(directory)) as conn:
            return sorted(conn.execute("SELECT fingerprint, clause, lbd FROM clauses"))

    @staticmethod
    def _full_save(engine):
        store = engine.resources.clause_store
        for context in list(engine.resources._contexts.values()):
            store.store_meta(
                context.warm.fingerprint,
                context.session.learnt_clauses_meta(max_var=context.warm.max_var),
            )

    def test_delta_saves_store_what_full_saves_store(self, tmp_path):
        delta_dir, full_dir = tmp_path / "delta", tmp_path / "full"
        # The second round loads what the first stored, so it also pins how
        # a context accounts for clauses it loaded.
        for _ in range(2):
            delta, full = _store_engine(delta_dir), _store_engine(full_dir)
            for task in self.TASKS:
                assert _verdict(delta.run(task)) == _verdict(full.run(task))
                delta.resources.save_warm()
                self._full_save(full)
            delta_written = delta.resources.clause_store.stored
            full_written = full.resources.clause_store.stored
            delta.close()
            full.resources.clause_store.close()
            assert self._rows(delta_dir) == self._rows(full_dir)
            assert 0 < delta_written < full_written
        assert delta.resources.stats()["warm_hits"] > 0

    def test_a_failed_write_is_retried_by_the_next_save(self, tmp_path):
        task = CorrectionTask(code="steane")
        clean_dir, faulted_dir = tmp_path / "clean", tmp_path / "faulted"
        clean = _store_engine(clean_dir)
        clean.run(task)
        clean.close()
        clean_warm = _store_engine(clean_dir).run(task)

        # The store binds its fault hook when it is opened.
        faults.install(faults.FaultPlan([{"point": "store.write", "times": 1}], seed=7))
        try:
            engine = _store_engine(faulted_dir)
            engine.run(task)
            store = engine.resources.clause_store
            engine.resources.save_warm()
            assert store.storage_errors == 1
            assert store.clause_count() == 0
            engine.resources.save_warm()
            assert store.clause_count() > 0
            engine.close()
        finally:
            faults.disarm()
        assert self._rows(faulted_dir) == self._rows(clean_dir)
        faulted_warm = _store_engine(faulted_dir).run(task)
        assert faulted_warm.conflicts == clean_warm.conflicts


    def test_a_save_with_no_solve_since_canonicalizes_nothing(self, tmp_path, monkeypatch):
        import repro.store.clause_store as clause_store

        engine = _store_engine(tmp_path)
        engine.run(DistanceTask(code="steane"))
        engine.resources.save_warm()
        calls = []
        canonical = clause_store._canonical_clause
        monkeypatch.setattr(
            clause_store, "_canonical_clause",
            lambda clause: calls.append(clause) or canonical(clause),
        )
        engine.resources.save_warm()
        assert calls == []
        engine.run(CorrectionTask(code="steane"))
        engine.resources.save_warm()
        assert calls  # new conflicts: the next save looks again
        engine.close()


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
