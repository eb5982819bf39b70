"""A persistent, concurrency-safe learnt-clause store over sqlite.

Design (durable verification state shared across runs and processes):

* **Keying.**  Exact reuse is keyed by the session's CNF fingerprint
  (sha256 over variable count + clause list): a learnt clause is only a
  consequence of the exact clause database it was learnt against.  Every
  row additionally carries a checksum binding ``(fingerprint, clause)``, so
  a torn write or a bit-flipped row is *dropped on load* instead of being
  absorbed — corrupted state can degrade the cache, never the verdict.
  Stores written by older versions may also hold a ``named_clauses`` table
  (a since-removed cross-code index); it is left in place and never read.

* **Eviction.**  The store is size-bounded; when an upsert pushes it over
  budget the worst clauses go first — highest LBD, then least recently
  used — mirroring the in-solver reduction policy.

* **Concurrency.**  WAL journaling plus a busy timeout makes the store safe
  to share between threads, engine lanes, pool workers and service replicas
  on one host; every mutation is a single transaction of atomic upserts.
  Connections are cached per (pid, thread) and never cross a fork.

* **Checkpoints.**  Small checksummed JSON blobs keyed by a semantic task
  hash persist a distance walk's bracket so a killed job resumes instead of
  restarting (engine side: ``Engine._run_distance``).

* **Circuit breaker.**  Graceful degradation alone still pays a sqlite
  connect-and-fail (10s busy timeout included) on *every* call against a
  sick disk.  After ``breaker_threshold`` consecutive storage failures the
  breaker *opens*: calls short-circuit to the degraded path without touching
  sqlite.  After ``breaker_cooldown`` seconds one call is let through as a
  *half-open* recovery probe — success closes the breaker, failure re-opens
  it for another cooldown.  Transitions flow through the stats chain
  (``breaker_state`` / ``breaker_opened`` / ``breaker_short_circuited``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
import threading
import time

from repro import faults

__all__ = ["STORE_FILENAME", "ClauseStore", "WarmStart"]

STORE_FILENAME = "clauses.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS clauses (
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
CREATE INDEX IF NOT EXISTS clauses_eviction ON clauses (lbd DESC, last_used ASC);
CREATE TABLE IF NOT EXISTS checkpoints (
    key      TEXT PRIMARY KEY,
    payload  TEXT NOT NULL,
    checksum TEXT NOT NULL,
    updated  REAL NOT NULL
);
"""


def _row_checksum(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


def _canonical_clause(clause) -> list[int]:
    literals = sorted({int(lit) for lit in clause})
    if not literals or any(lit == 0 for lit in literals):
        raise ValueError("malformed clause")
    return literals


class ClauseStore:
    """Persistent learnt-clause + checkpoint store shared across processes.

    The engine's only warm-start cache
    (:attr:`repro.api.resources.ResourceManager.clause_store`): exact
    fingerprint reuse (``load`` / ``store_meta``) with LBD-aware metadata,
    plus checkpoints.  All public methods degrade
    gracefully on storage errors: a broken database behaves like an empty
    cache and is counted in ``storage_errors``, never raised into a solve.
    """

    def __init__(
        self,
        directory: str,
        max_clauses: int = 200_000,
        *,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        clock=time.monotonic,
    ):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, STORE_FILENAME)
        self.max_clauses = max_clauses
        #: consecutive storage failures that open the circuit breaker
        self.breaker_threshold = max(1, int(breaker_threshold))
        #: seconds the breaker stays open before a half-open recovery probe
        self.breaker_cooldown = float(breaker_cooldown)
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evictions = 0
        self.corrupt_dropped = 0
        self.storage_errors = 0
        self.checkpoint_hits = 0
        self.checkpoint_misses = 0
        self.checkpoints_saved = 0
        self.breaker_opened = 0
        self.breaker_short_circuited = 0
        self._clock = clock
        self._breaker_state = "closed"
        self._breaker_failures = 0
        self._breaker_opened_at = 0.0
        self._local = threading.local()
        self._pid = os.getpid()
        self._broken = False
        self._fault = faults.hook("store")
        os.makedirs(self.directory, exist_ok=True)
        self._init_schema()

    # ------------------------------------------------------------------
    # Circuit breaker (consecutive failures → open → half-open probes)
    # ------------------------------------------------------------------
    def _breaker_allows(self) -> bool:
        """Whether sqlite may be touched right now.

        Open + cooldown still running → short-circuit (the call degrades
        exactly like a broken store, without paying the sqlite attempt);
        cooldown elapsed → transition to half-open and admit the call as a
        recovery probe.
        """
        if self._breaker_state == "closed":
            return True
        if self._breaker_state == "open":
            if self._clock() - self._breaker_opened_at < self.breaker_cooldown:
                self.breaker_short_circuited += 1
                return False
            self._breaker_state = "half-open"
        return True

    def _storage_failure(self) -> None:
        """Count a storage error and advance the breaker state machine."""
        self.storage_errors += 1
        self._breaker_failures += 1
        if self._breaker_state == "half-open" or (
            self._breaker_state == "closed"
            and self._breaker_failures >= self.breaker_threshold
        ):
            self._breaker_state = "open"
            self._breaker_opened_at = self._clock()
            self.breaker_opened += 1

    def _storage_ok(self) -> None:
        """A sqlite operation succeeded: close the breaker, reset the streak."""
        if self._breaker_failures or self._breaker_state != "closed":
            self._breaker_failures = 0
            self._breaker_state = "closed"

    def _check_fault(self, op: str, detail: str = "") -> None:
        """Raise an injected ``sqlite3.OperationalError`` when the armed
        fault plan fires ``store.<op>`` (delay-mode rules sleep inside
        ``fire``, modeling a slow disk).  Called inside the operation's
        try block so injected faults flow through the exact degradation
        path a real sqlite error would."""
        if self._fault is not None and self._fault.fire(op, detail) is not None:
            raise sqlite3.OperationalError(f"injected store fault ({op})")

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection | None:
        if self._broken:
            return None
        if not self._breaker_allows():
            return None
        if os.getpid() != self._pid:
            # Forked child: the inherited connection (and thread-local slot)
            # must never be reused across the fork boundary.
            self._pid = os.getpid()
            self._local = threading.local()
        conn = getattr(self._local, "conn", None)
        if conn is None:
            try:
                conn = sqlite3.connect(self.path, timeout=10.0)
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA busy_timeout=10000")
            except sqlite3.Error:
                self._storage_failure()
                return None
            self._local.conn = conn
        return conn

    def _init_schema(self) -> None:
        for attempt in (0, 1):
            conn = self._connect()
            if conn is not None:
                try:
                    with conn:
                        conn.executescript(_SCHEMA)
                    return
                except sqlite3.Error:
                    self._storage_failure()
                    self._local = threading.local()
            if attempt == 0:
                # Whatever sits at the path is not a usable database (torn
                # write, foreign content).  Quarantine it and start fresh —
                # the store is a cache, losing it is safe.
                try:
                    os.replace(self.path, self.path + ".corrupt")
                except OSError:
                    break
        self._broken = True

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass
            self._local.conn = None

    # ------------------------------------------------------------------
    # Exact-fingerprint clause reuse
    # ------------------------------------------------------------------
    def load(self, fingerprint: str) -> list[list[int]] | None:
        """Learnt clauses previously stored for this exact CNF, or ``None``.

        Rows failing their checksum (torn or tampered writes) are dropped
        from the result and deleted, so corruption can only ever cost cache
        coverage — callers still gate absorption on the fingerprint match.
        """
        conn = self._connect()
        if conn is None:
            self.misses += 1
            return None
        try:
            self._check_fault("read", fingerprint)
            rows = conn.execute(
                "SELECT clause, checksum FROM clauses WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchall()
        except sqlite3.Error:
            self._storage_failure()
            self.misses += 1
            return None
        self._storage_ok()
        if not rows:
            self.misses += 1
            return None
        clauses = []
        bad = []
        for text, checksum in rows:
            if checksum != _row_checksum(fingerprint, text):
                bad.append(text)
                continue
            try:
                clause = _canonical_clause(json.loads(text))
            except (ValueError, TypeError):
                bad.append(text)
                continue
            clauses.append(clause)
        try:
            with conn:
                if bad:
                    conn.executemany(
                        "DELETE FROM clauses WHERE fingerprint = ? AND clause = ?",
                        [(fingerprint, text) for text in bad],
                    )
                if clauses:
                    conn.execute(
                        "UPDATE clauses SET hits = hits + 1, last_used = ? "
                        "WHERE fingerprint = ?",
                        (time.time(), fingerprint),
                    )
        except sqlite3.Error:
            self._storage_failure()
        self.corrupt_dropped += len(bad)
        if not clauses:
            self.misses += 1
            return None
        self.hits += 1
        return clauses

    def store(self, fingerprint: str, learnt) -> None:
        """Merge plain learnt clauses; LBD defaults to the clause length."""
        self.store_meta(fingerprint, [(clause, len(clause)) for clause in learnt])

    def store_meta(self, fingerprint: str, clauses) -> bool:
        """Merge learnt clauses (with LBD); returns whether they are stored.

        ``clauses`` is an iterable of ``(literal_list, lbd)``.  Upserts keep
        the best (lowest) LBD seen for a clause; the whole merge is one
        transaction, so concurrent writers interleave atomically.  ``False``
        means the merge did not happen (storage error, injected fault, open
        breaker, broken store) and the caller still holds unsaved clauses.
        """
        conn = self._connect()
        if conn is None:
            return False
        now = time.time()
        clause_rows = []
        for clause, lbd in clauses:
            try:
                literals = _canonical_clause(clause)
            except (ValueError, TypeError):
                continue
            text = json.dumps(literals, separators=(",", ":"))
            clause_rows.append(
                (fingerprint, text, _row_checksum(fingerprint, text), int(lbd), len(literals), now, now)
            )
        if not clause_rows:
            return True
        try:
            self._check_fault("write", fingerprint)
            with conn:
                conn.executemany(
                    "INSERT INTO clauses (fingerprint, clause, checksum, lbd, size, created, last_used) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT (fingerprint, clause) DO UPDATE SET "
                    "lbd = MIN(lbd, excluded.lbd), last_used = excluded.last_used",
                    clause_rows,
                )
        except sqlite3.Error:
            self._storage_failure()
            return False
        self._storage_ok()
        self.stored += len(clause_rows)
        self._evict(conn)
        return True

    def _evict(self, conn: sqlite3.Connection) -> None:
        """Trim the clause table to budget: worst LBD first, then oldest."""
        try:
            with conn:
                (count,) = conn.execute("SELECT COUNT(*) FROM clauses").fetchone()
                excess = count - self.max_clauses
                if excess > 0:
                    conn.execute(
                        "DELETE FROM clauses WHERE rowid IN ("
                        "SELECT rowid FROM clauses ORDER BY lbd DESC, last_used ASC, rowid ASC LIMIT ?)",
                        (excess,),
                    )
                    self.evictions += excess
        except sqlite3.Error:
            self._storage_failure()

    # ------------------------------------------------------------------
    # Inert name kept for ``perfbench/tracer.py``, which wraps it by name and
    # is its only reader; nothing in ``src/`` calls it.  It goes together
    # with the name-wrapping once jobs carry their own phase spans.
    # ------------------------------------------------------------------
    def family_candidates(self, family, exclude_fingerprint="", limit=256) -> list:
        return []

    # ------------------------------------------------------------------
    # Checkpoints (resumable distance walks)
    # ------------------------------------------------------------------
    def checkpoint_save(self, key: str, payload: dict) -> None:
        """Atomically upsert a checkpoint blob; the checksum makes torn or
        tampered payloads detectable on load (same discipline as the
        temp-file + ``os.replace`` JSON caches)."""
        conn = self._connect()
        if conn is None:
            return
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        try:
            self._check_fault("write", key)
            with conn:
                conn.execute(
                    "INSERT INTO checkpoints (key, payload, checksum, updated) VALUES (?, ?, ?, ?) "
                    "ON CONFLICT (key) DO UPDATE SET payload = excluded.payload, "
                    "checksum = excluded.checksum, updated = excluded.updated",
                    (key, text, _row_checksum(key, text), time.time()),
                )
            self._storage_ok()
            self.checkpoints_saved += 1
        except sqlite3.Error:
            self._storage_failure()

    def checkpoint_load(self, key: str) -> dict | None:
        conn = self._connect()
        if conn is None:
            self.checkpoint_misses += 1
            return None
        try:
            self._check_fault("read", key)
            row = conn.execute(
                "SELECT payload, checksum FROM checkpoints WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            self._storage_failure()
            self.checkpoint_misses += 1
            return None
        self._storage_ok()
        if row is None:
            self.checkpoint_misses += 1
            return None
        text, checksum = row
        payload = None
        if checksum == _row_checksum(key, text):
            try:
                payload = json.loads(text)
            except ValueError:
                payload = None
        if not isinstance(payload, dict):
            self.corrupt_dropped += 1
            self.checkpoint_misses += 1
            self.checkpoint_delete(key)
            return None
        self.checkpoint_hits += 1
        return payload

    def checkpoint_delete(self, key: str) -> None:
        conn = self._connect()
        if conn is None:
            return
        try:
            with conn:
                conn.execute("DELETE FROM checkpoints WHERE key = ?", (key,))
        except sqlite3.Error:
            self._storage_failure()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def clause_count(self) -> int:
        conn = self._connect()
        if conn is None:
            return 0
        try:
            (count,) = conn.execute("SELECT COUNT(*) FROM clauses").fetchone()
            return int(count)
        except sqlite3.Error:
            self._storage_failure()
            return 0

    def stats(self) -> dict:
        """Per-instance counters (process-local, not database-wide totals)."""
        stats = {
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
            "evictions": self.evictions,
        }
        for key in (
            "corrupt_dropped",
            "storage_errors",
            "checkpoint_hits",
            "checkpoint_misses",
            "checkpoints_saved",
            "breaker_opened",
            "breaker_short_circuited",
        ):
            value = getattr(self, key)
            if value:
                stats[key] = value
        if self.breaker_opened:
            # Once the breaker has ever tripped, keep reporting its live
            # state so an operator (or the chaos test) can watch it re-close.
            stats["breaker_state"] = self._breaker_state
        return stats


class WarmStart:
    """One session's round trip through a :class:`ClauseStore`.

    The one implementation of the exact-reuse gate, held by each of the
    engine's code contexts and by each split pool worker.  :meth:`load`
    runs once, before the session's first check (the point identical runs
    reach with an identical encoding): it takes the CNF fingerprint and the
    variable watermark and absorbs the clauses the store holds for that
    fingerprint.  :meth:`save` writes back the learnt clauses over the
    watermark's variables that the store does not hold yet, or holds at a
    higher LBD.  ``session`` is any
    :class:`~repro.smt.interface.SolveSession`; the package imports nothing
    from the solver layers.
    """

    def __init__(self, store: ClauseStore):
        self.store = store
        #: the CNF fingerprint taken by :meth:`load`; None until it runs.
        self.fingerprint: str | None = None
        #: learnt clauses :meth:`load` absorbed into the session.
        self.absorbed = 0
        #: the session's variable count at load; clauses over later
        #: variables mention encodings other runs may not share.
        self.max_var = 0
        #: canonical clause -> the LBD the store is known to hold for it at
        #: most: clauses loaded from, or written to, the store.
        self._saved: dict[tuple[int, ...], int] = {}
        #: the session's (conflicts, erased clauses) when a save last left
        #: nothing unsaved; learnt clauses only change when one of them moves.
        self._mark: tuple[int, int] | None = None

    def load(self, session) -> int:
        """Absorb the stored clauses for ``session``'s CNF; returns how many
        were absorbed.  Only the first call does anything."""
        if self.fingerprint is not None:
            return 0
        self.fingerprint = session.fingerprint()
        self.max_var = session.encoder.cnf.num_vars
        learnt = self.store.load(self.fingerprint)
        if not learnt:
            return 0
        self.absorbed = session.absorb_learnt(learnt)
        # Loaded clauses are canonical.  The session scores each by its
        # length, which is no lower than the LBD it was learnt with, so the
        # store already holds it at that LBD or better (except a clause
        # stripped by guard retirement, which keeps the LBD of its longer
        # self).
        self._saved = {tuple(clause): len(clause) for clause in learnt}
        return self.absorbed

    def save(self, session) -> None:
        """Write the learnt clauses not written yet, with their LBDs.

        A clause counts as written once :meth:`ClauseStore.store_meta`
        merged it, at the LBD it was written with; it is written again only
        if the session now holds it at a lower LBD (the store keeps the
        lowest).  Clauses whose write failed stay unwritten, so the next
        call retries them.  A session that has neither learnt (no new
        conflicts) nor erased clauses since a save that left nothing unsaved
        has nothing new, and is skipped.
        """
        if self.fingerprint is None:
            return
        counters = session.counters()
        mark = (counters["conflicts"], counters["erased_clauses"])
        if mark == self._mark:
            return
        saved = self._saved
        unsaved: dict[tuple[int, ...], int] = {}
        for clause, lbd in session.learnt_clauses_meta(max_var=self.max_var):
            try:
                key = tuple(_canonical_clause(clause))
            except ValueError:
                continue
            if lbd < min(saved.get(key, math.inf), unsaved.get(key, math.inf)):
                unsaved[key] = lbd
        if not unsaved or self.store.store_meta(self.fingerprint, unsaved.items()):
            saved.update(unsaved)
            self._mark = mark
