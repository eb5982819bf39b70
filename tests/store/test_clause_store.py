"""The durable clause store: sqlite round-trips, eviction policy, checksum
hygiene, checkpoints and cross-process sharing.

The load-bearing property is *fail-safe degradation*: a corrupted row, a
torn checkpoint, even a wholesale-trashed database file can only ever cost
cache coverage (a colder start) — never a wrong clause reaching a solver.
Exact-fingerprint rows are checksum-bound to their key.
"""

import json
import os
import sqlite3
import threading

import pytest

from repro.store import STORE_FILENAME, ClauseStore
from repro.store.clause_store import _row_checksum


def _db(store):
    return sqlite3.connect(store.path)


class TestRoundTrip:
    def test_store_and_load_canonicalises(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.store("fp", [[3, -1, 3], [2]])
        assert store.load("fp") == [[-1, 3], [2]]
        assert store.hits == 1 and store.misses == 0 and store.stored == 2

    def test_missing_fingerprint_misses(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        assert store.load("nope") is None
        assert store.misses == 1

    def test_merge_is_idempotent_and_keeps_best_lbd(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.store_meta("fp", [([1, 2], 7)])
        store.store_meta("fp", [([2, 1], 3)])
        store.store_meta("fp", [([1, 2], 9)])
        assert store.load("fp") == [[1, 2]]
        with _db(store) as conn:
            (lbd,) = conn.execute("SELECT lbd FROM clauses").fetchone()
        assert lbd == 3  # upserts keep the lowest LBD ever seen

    def test_malformed_clauses_are_rejected_on_write(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.store("fp", [[], [0], [1, "x"], [4, -2]])
        # Only the well-formed clause landed.
        assert store.load("fp") == [[-2, 4]]

    def test_persists_across_instances(self, tmp_path):
        ClauseStore(str(tmp_path)).store("fp", [[1, -2]])
        assert ClauseStore(str(tmp_path)).load("fp") == [[-2, 1]]


class TestEviction:
    def test_worst_lbd_evicted_first(self, tmp_path):
        store = ClauseStore(str(tmp_path), max_clauses=2)
        store.store_meta("fp", [([1, 2], 2), ([3, 4], 9), ([5, 6], 4)])
        assert store.evictions == 1
        survivors = store.load("fp")
        assert [1, 2] in survivors and [5, 6] in survivors
        assert [3, 4] not in survivors  # worst LBD went first

    def test_oldest_breaks_lbd_ties(self, tmp_path):
        store = ClauseStore(str(tmp_path), max_clauses=2)
        store.store_meta("old", [([1, 2], 5)])
        # Age the old entry, then overflow with equal-LBD newcomers.
        with _db(store) as conn:
            conn.execute("UPDATE clauses SET last_used = last_used - 60")
        store.store_meta("new", [([3, 4], 5), ([5, 6], 5)])
        assert store.evictions == 1
        remaining = {
            text
            for (text,) in _db(store).execute("SELECT clause FROM clauses").fetchall()
        }
        assert "[1,2]" not in remaining  # least recently used lost the tie
        assert remaining == {"[3,4]", "[5,6]"}


class TestChecksums:
    def test_flipped_literal_is_dropped_and_deleted(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.store("fp", [[1, 2], [3, 4]])
        # Simulate bit-rot: mutate one row behind the store's back.
        with _db(store) as conn:
            conn.execute("UPDATE clauses SET clause = '[1,-2]' WHERE clause = '[1,2]'")
        assert store.load("fp") == [[3, 4]]
        assert store.corrupt_dropped == 1
        # The bad row is gone for good, not re-served.
        with _db(store) as conn:
            (count,) = conn.execute("SELECT COUNT(*) FROM clauses").fetchone()
        assert count == 1

    def test_checksum_binds_the_fingerprint(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.store("fp-a", [[1, 2]])
        # Re-key the row under a different fingerprint; the checksum no
        # longer matches, so the foreign session never absorbs it.
        with _db(store) as conn:
            conn.execute("UPDATE clauses SET fingerprint = 'fp-b'")
        assert store.load("fp-b") is None
        assert store.corrupt_dropped == 1

    def test_all_rows_bad_counts_a_miss(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.store("fp", [[1, 2]])
        with _db(store) as conn:
            conn.execute("UPDATE clauses SET checksum = 'ffff'")
        assert store.load("fp") is None
        assert store.misses == 1 and store.hits == 0


class TestCheckpoints:
    def test_round_trip_and_delete(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        payload = {"version": 1, "lo": 3, "hi": 7, "witness": {"e0": True}}
        store.checkpoint_save("walk", payload)
        assert store.checkpoint_load("walk") == payload
        store.checkpoint_delete("walk")
        assert store.checkpoint_load("walk") is None

    def test_upsert_replaces(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.checkpoint_save("walk", {"lo": 1})
        store.checkpoint_save("walk", {"lo": 5})
        assert store.checkpoint_load("walk") == {"lo": 5}

    def test_keys_are_isolated(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.checkpoint_save("walk-a", {"lo": 1})
        assert store.checkpoint_load("walk-b") is None
        assert store.checkpoint_load("walk-a") == {"lo": 1}

    def test_tampered_payload_is_dropped(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.checkpoint_save("walk", {"lo": 3})
        with _db(store) as conn:
            conn.execute("UPDATE checkpoints SET payload = '{\"lo\": 999}'")
        assert store.checkpoint_load("walk") is None
        assert store.corrupt_dropped == 1
        # And deleted — a later load is a plain miss, not a re-drop.
        assert store.checkpoint_load("walk") is None
        assert store.corrupt_dropped == 1

    def test_checksum_binds_the_key(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.checkpoint_save("walk-a", {"lo": 3})
        with _db(store) as conn:
            conn.execute("UPDATE checkpoints SET key = 'walk-b'")
        assert store.checkpoint_load("walk-b") is None


class TestSchema:
    """The store holds exact-fingerprint clauses and checkpoints only; a
    family table written by an earlier version is left alone."""

    def test_new_store_has_no_family_table(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        store.store("fp", [[1, 2]])
        with _db(store) as conn:
            tables = {
                row[0]
                for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
            }
        assert tables == {"clauses", "checkpoints"}

    def test_family_arguments_are_gone(self, tmp_path):
        with pytest.raises(TypeError):
            ClauseStore(str(tmp_path), max_named=1)
        store = ClauseStore(str(tmp_path))
        with pytest.raises(TypeError):
            store.store_meta("fp", [], family="surface", named=[((("e0", True),), 1)])
        assert store.stored == 0

    def test_old_family_rows_neither_count_nor_evict(self, tmp_path):
        with sqlite3.connect(str(tmp_path / STORE_FILENAME)) as conn:
            conn.execute(
                "CREATE TABLE named_clauses (family TEXT NOT NULL, fingerprint TEXT NOT NULL, "
                "clause TEXT NOT NULL, checksum TEXT NOT NULL, lbd INTEGER NOT NULL, "
                "updated REAL NOT NULL, PRIMARY KEY (family, fingerprint, clause))"
            )
            for index in range(3):
                text = json.dumps([[f"e{index}", True]], separators=(",", ":"))
                conn.execute(
                    "INSERT INTO named_clauses VALUES (?, ?, ?, ?, ?, ?)",
                    ("surface", "old-fp", text, _row_checksum("surface", "old-fp", text), 1, 0.0),
                )
        store = ClauseStore(str(tmp_path), max_clauses=1)
        store.store_meta("fp", [([1, 2], 2), ([3, 4], 5)])
        assert store.clause_count() == 1 and store.evictions == 1
        assert store.load("fp") == [[1, 2]]
        with _db(store) as conn:
            (named,) = conn.execute("SELECT COUNT(*) FROM named_clauses").fetchone()
        assert named == 3

    def test_tracer_family_candidates_is_inert(self, tmp_path):
        # ``family_candidates`` survives only as a name the layered
        # benchmark's tracer wraps; it reads nothing.
        assert "family_candidates" in ClauseStore.__dict__
        store = ClauseStore(str(tmp_path))
        store.store_meta("fp", [([1, 2], 1)])
        assert store.family_candidates("surface") == []
        assert store.family_candidates("surface", exclude_fingerprint="other") == []
        assert store.hits == store.misses == 0


class TestDegradation:
    def test_foreign_file_is_quarantined(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        path.write_text("this is not a sqlite database, promise")
        store = ClauseStore(str(tmp_path))
        store.store("fp", [[1, 2]])
        assert store.load("fp") == [[1, 2]]
        assert (tmp_path / (STORE_FILENAME + ".corrupt")).exists()

    def test_rogue_directory_is_quarantined_too(self, tmp_path):
        (tmp_path / STORE_FILENAME).mkdir()
        store = ClauseStore(str(tmp_path))
        store.store("fp", [[1, 2]])
        assert store.load("fp") == [[1, 2]]
        assert (tmp_path / (STORE_FILENAME + ".corrupt")).is_dir()

    def test_broken_store_degrades_to_noop(self, tmp_path):
        # When even quarantine fails the store must behave like an empty
        # cache — no exception may ever reach a solve.
        store = ClauseStore(str(tmp_path))
        store._broken = True
        store.store("fp", [[1, 2]])
        assert store.load("fp") is None
        store.checkpoint_save("walk", {"lo": 1})
        assert store.checkpoint_load("walk") is None
        assert store.clause_count() == 0

    def test_stats_shape(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        stats = store.stats()
        assert set(stats) == {"hits", "misses", "stored", "evictions"}
        store.checkpoint_save("walk", {"lo": 1})
        store.checkpoint_load("walk")
        stats = store.stats()
        assert stats["checkpoint_hits"] == 1 and stats["checkpoints_saved"] == 1


class TestConcurrency:
    def test_parallel_merges_all_land(self, tmp_path):
        store = ClauseStore(str(tmp_path))

        def writer(offset):
            # Each thread needs its own connection — the store hands one
            # out per (pid, thread) automatically.
            for i in range(20):
                base = offset * 100 + i * 2 + 1
                store.store_meta("fp", [([base, base + 1], 3)])

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.clause_count() == 80
        assert len(store.load("fp")) == 80

    def test_two_instances_share_one_database(self, tmp_path):
        a = ClauseStore(str(tmp_path))
        b = ClauseStore(str(tmp_path))
        a.store("fp", [[1, 2]])
        assert b.load("fp") == [[1, 2]]
        b.store("fp", [[3, 4]])
        assert sorted(a.load("fp")) == [[1, 2], [3, 4]]


class TestWorkerHelpers:
    def test_load_and_merge_round_trip(self, tmp_path):
        store = ClauseStore(str(tmp_path))
        assert store.store_meta("fp", [([5, -1, 3], 2)])
        assert store.load("fp") == [[-1, 3, 5]]
        assert store.load("other") is None
        # The pair's LBD is stored, not the clause length.
        with _db(store) as conn:
            assert conn.execute("SELECT lbd, size FROM clauses").fetchall() == [(2, 3)]


class TestChecksumHelper:
    def test_separator_prevents_concatenation_collisions(self):
        assert _row_checksum("ab", "c") != _row_checksum("a", "bc")
        assert _row_checksum("x", "y") == _row_checksum("x", "y")
