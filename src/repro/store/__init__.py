"""Durable, shared verification state: the persistent clause store.

``repro.store`` is the engine's one learnt-clause cache: a
concurrency-safe sqlite database of learnt clauses keyed by CNF
fingerprint, with LBD/age/hit metadata, size-bounded eviction, and
checkpoint blobs that make distance walks resumable after a kill.

The package is deliberately stdlib-only and imports nothing from the api
layer, so process-pool workers (:mod:`repro.smt.parallel`) can use it from
their init payloads without dragging the engine into every worker.
"""

from repro.store.clause_store import (
    STORE_FILENAME,
    ClauseStore,
    load_clauses,
    merge_clauses,
)

__all__ = [
    "STORE_FILENAME",
    "ClauseStore",
    "load_clauses",
    "merge_clauses",
]
